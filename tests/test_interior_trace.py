"""Interior geodesic points of admitted endpoints must themselves be admitted.

FOUND, pinned by strict xfails: admission allows a trace defect up to
``TRACE_TOL`` at each endpoint, and the trace of rho(s) = f^2 rho1 + f g C +
g^2 rho2 exceeds 1 by (f + g)(f d1 + g d2), where d1 and d2 are the endpoint
defects. With f + g up to 1/cos(s*/2) that reaches about 1.12e-12 at s*/2 for
rho1 = diag(0.9 + 9e-13, 0.1) and rho2 = diag(0.1, 0.9 + 9e-13), both admitted
at trace 1 + 9e-13, so the interior points fail the strict trace check of the
library (``root_fidelity`` to the start) and of ``buresgeo geodesic``, whose
refusal names no sample. Any mend moves bytes, for example renormalizing only
a point whose trace is off by more than ``TRACE_TOL``.
"""

import json

import numpy as np
import pytest

from buresgeo import cli, geodesy, matcore

DEFECT = 9e-13
RHO1 = np.diag([0.9 + DEFECT, 0.1]).astype(np.complex128)
RHO2 = np.diag([0.1, 0.9 + DEFECT]).astype(np.complex128)
REASON = ("FOUND: interior points of endpoints admitted with trace 1 + 9e-13 carry "
          "trace 1 + 1.12e-12 and fail the strict trace check")


def test_the_endpoints_are_admitted():
    assert abs(geodesy.root_fidelity(RHO1, RHO2) - 0.6) <= 1e-12


@pytest.mark.xfail(strict=True, raises=ValueError, reason=REASON)
@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_interior_points_are_admitted(t):
    path = geodesy.geometric_mean_operator(RHO1, RHO2)
    point = geodesy.geodesic_point(path, t * path.s_star)
    geodesy.root_fidelity(RHO1, point)
    assert abs(np.trace(point).real - 1.0) <= matcore.TRACE_TOL


@pytest.mark.xfail(strict=True, reason=REASON)
def test_the_geodesic_subcommand_samples_them(tmp_path, capsys):
    files = []
    for name, rho in (("rho1.json", RHO1), ("rho2.json", RHO2)):
        path = tmp_path / name
        path.write_text(json.dumps(cli.state_to_json(rho)))
        files.append(str(path))
    assert cli.main(["fidelity", *files]) == 0
    capsys.readouterr()
    code = cli.main(["geodesic", *files])
    assert capsys.readouterr().err == ""
    assert code == 0
