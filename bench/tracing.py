"""Timing wrappers over the library's public functions, and span aggregation.

``Tracer.install`` replaces every public function of the layer modules with
``setattr`` on the module, so calls between modules (``matcore.sqrtm_psd``
from ``geodesy``) and calls within a module (``bures`` calling
``root_fidelity``) both pass through a wrapper. Nothing in the library
changes. Spans live in memory as parallel arrays of (name, start, end,
parent, op id, raised) and are written out by ``Tracer.dump``.

A span is recorded only while an op is open: op id -1 is set-up and
warm-up, op ids >= 0 are timed ops (the worker's op index). Each timed op
is itself a span named ``op``, so time outside every layer span is the op
span's self time.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

LAYERS = ("matcore", "states", "geodesy", "sun", "closedform", "cli")
SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names = ["op"]
        self.name_ids = {"op": 0}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.raised = array("b")
        self.stack: list[int] = []
        self.current_op: int | None = None
        self.patches: list[tuple[object, str, object, object]] = []
        self.built_bases: dict[int, float] = {}
        self.basis_bytes: dict[int, int] = {}

    def install(self, package) -> None:
        """Wrap every public function defined in each layer module."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                self.patches.append((module, attr, obj, self._wrap(f"{layer}.{attr}", obj)))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Put the wrappers in place (``on``) or restore the original functions."""
        for module, attr, original, wrapper in self.patches:
            setattr(module, attr, wrapper if on else original)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.current_op)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter()
        self.raised[idx] = raised
        self.stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        is_basis = name == "sun.generator_basis"

        def wrapper(*args, **kwargs):
            if self.current_op is None:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if is_basis and result.dim not in self.built_bases:
                # First call per dimension is the cache miss that builds it.
                self.built_bases[result.dim] = self.end[idx] - self.start[idx]
                self.basis_bytes[result.dim] = (result.sigmas.nbytes + result.f.nbytes
                                                + result.d.nbytes)
            return result

        return wrapper

    def begin_op(self, op: int) -> int | None:
        self.current_op = op
        return self._open(0) if op >= 0 else None

    def end_op(self, idx: int | None, raised: bool) -> None:
        if idx is not None:
            self._close(idx, raised)
        self.current_op = None

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer counts and self times over the timed ops (op id >= 0);
        per-call means over every span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        # Per-call means cover every traced call, set-up included.
        all_calls: dict[str, int] = {}
        all_total: dict[str, float] = {}
        refusals = 0
        for i in range(n):
            name = self.names[self.span_name[i]]
            all_calls[name] = all_calls.get(name, 0) + 1
            all_total[name] = all_total.get(name, 0.0) + dur[i]
            if self.op_id[i] < 0:
                continue
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            self_time[layer] = self_time.get(layer, 0.0) + dur[i] - child[i]
            if layer != "op":
                calls[layer] = calls.get(layer, 0) + 1
            p = self.parent[i]
            if (layer == "geodesy" and self.raised[i]
                    and (p < 0 or not self.names[self.span_name[p]].startswith("geodesy."))):
                refusals += 1
        ops = max(n_ops, 1)

        def per_call_ms(name):
            return 1e3 * all_total[name] / all_calls[name] if all_calls.get(name) else 0.0

        return {
            "matcore.calls_per_op": calls.get("matcore", 0) / ops,
            "matcore.spectral_decompose.calls_per_op":
                calls.get("matcore.spectral_decompose", 0) / ops,
            "matcore.require_hermitian.calls_per_op":
                calls.get("matcore.require_hermitian", 0) / ops,
            "matcore.self_ms_per_op": 1e3 * self_time.get("matcore", 0.0) / ops,
            "states.validate_density.calls_per_op":
                calls.get("states.validate_density", 0) / ops,
            "states.self_ms_per_op": 1e3 * self_time.get("states", 0.0) / ops,
            "geodesy.root_fidelity.calls_per_op": calls.get("geodesy.root_fidelity", 0) / ops,
            "geodesy.geodesic_point.ms_per_call": per_call_ms("geodesy.geodesic_point"),
            "geodesy.geometric_mean_operator.ms_per_call":
                per_call_ms("geodesy.geometric_mean_operator"),
            "geodesy.self_ms_per_op": 1e3 * self_time.get("geodesy", 0.0) / ops,
            "geodesy.refusals_per_op": refusals / ops,
            "sun.generator_basis.build_s": float(sum(self.built_bases.values())),
            "sun.basis_mb": sum(self.basis_bytes.values()) / 2**20,
            "sun.solve_tangent_G.ms_per_call": per_call_ms("sun.solve_tangent_G"),
            "sun.self_ms_per_op": 1e3 * self_time.get("sun", 0.0) / ops,
            "closedform.self_ms_per_op": 1e3 * self_time.get("closedform", 0.0) / ops,
            "op.unattributed_ms": 1e3 * self_time.get("op", 0.0) / ops,
        }

    def dump(self, path: str) -> None:
        """Write every span as a gzipped TSV row: name start end parent op raised."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\traised\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_id[i]}\t"
                         f"{self.raised[i]}\n")
