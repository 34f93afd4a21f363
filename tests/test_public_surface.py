"""The package exports exactly the names of its pinned ``__all__``.

The surface is the paper's content (the geometric-mean operator, the root
fidelity, the geodesic and its closed forms), the su(N) solvers and the
state constructors the CLI and the benchmark call. Every other public
attribute of the package is a module. ``REMOVED`` names views of another name
and test-only helpers (now in ``tests/oracles.py``), which no module exports.
"""

import types

import pytest

import buresgeo
from buresgeo import closedform, geodesy, matcore, states, sun

EXPORTS = {
    "SpectralDecomposition", "spectral_decompose",
    "Purification", "admit", "canonical_purification", "density_from_bloch",
    "ghz_state", "maximally_mixed", "pure_density", "w_state", "werner",
    "BuresSummary", "GeodesicPath", "GeodesicUndefinedError", "bures",
    "geodesic_point", "geometric_mean_operator", "hlc_residual",
    "horizontal_lift", "hubner_metric", "initial_tangent", "root_fidelity",
    "transport_operator", "uhlmann_unitary",
    "GeneratorBasis", "TangentGenerator", "characteristic_invariants",
    "generator_basis", "hamiltonian_from_Y", "solve_tangent_G", "unitary_tangent",
    "ERRATA", "errata_table", "maxmixed_to_pure", "orthogonal_mean_operator",
    "orthogonal_pure_geodesic", "qubit_fidelity", "qubit_orbit", "qubit_root",
    "werner_cross_term", "werner_mean_operator", "werner_root_fidelity",
}
REMOVED = ("validate_density", "project", "bloch_from_density", "snap_to_state",
           "QubitTau", "qubit_tau", "spectral_function")


def test_all_is_the_pinned_set():
    assert len(buresgeo.__all__) == len(EXPORTS) == 42
    assert set(buresgeo.__all__) == EXPORTS


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(buresgeo).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_public(name):
    for module in (buresgeo, closedform, geodesy, matcore, states, sun):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
