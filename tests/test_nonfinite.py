"""NaN and infinite input is refused at the entry points with a named defect.

Without the check a NaN entry slipped through every comparison (all are
false for NaN) and surfaced later as an SVD that did not converge.
"""

import numpy as np
import pytest

from buresgeo import closedform, geodesy, matcore, states, sun

MIXED = states.maximally_mixed(2)

MATRIX_ENTRY_POINTS = {
    "validate_density": states.validate_density,
    "sqrtm_psd": matcore.sqrtm_psd,
    "root_fidelity_first": lambda rho: geodesy.root_fidelity(rho, MIXED),
    "root_fidelity_second": lambda rho: geodesy.root_fidelity(MIXED, rho),
}


@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [(0, 0), (0, 1)])
def test_matrix_entry_points(entry, value, index):
    rho = MIXED.copy()
    rho[index] = value
    with pytest.raises(ValueError, match="non-finite"):
        MATRIX_ENTRY_POINTS[entry](rho)


@pytest.mark.parametrize("solver", ["solve_tangent_G", "unitary_tangent",
                                    "hamiltonian_from_Y"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_coordinate_entry_points(solver, value, position):
    basis = sun.generator_basis(3)
    vectors = [np.full(basis.size, 0.1), np.full(basis.size, 0.1)]
    vectors[position][2] = value
    with pytest.raises(ValueError, match="finite"):
        getattr(sun, solver)(*vectors, basis)


@pytest.mark.parametrize("closed_form", ["qubit_tau", "qubit_fidelity", "qubit_orbit"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, position", [("x", 0), ("y", 1)])
def test_qubit_closed_forms_name_the_vector(closed_form, value, name, position):
    vectors = [np.array([0.1, 0.2, 0.1]), np.array([0.3, -0.1, 0.2])]
    vectors[position][0] = value
    extra = (0.1,) if closed_form == "qubit_orbit" else ()
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        getattr(closedform, closed_form)(*vectors, *extra)
