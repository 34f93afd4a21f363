"""Bures geodesics between density matrices via the geometric-mean operator.

The package computes Uhlmann fidelities, Bures distances and angles,
geodesic interpolation between arbitrary full-rank mixed states, horizontal
lifts of those geodesics through the purification bundle, the su(N)
generator algebra with its tangent solvers, and oracle-gated closed forms
for the standard worked families (maximally mixed to pure, three-qubit
GHZ/W Werner mixtures, and general qubit endpoints).
"""

from .matcore import (SpectralDecomposition, hermitian_function,
                      inv_sqrtm_psd, polar_positive, spectral_decompose,
                      spectral_function, sqrtm_psd)
from .states import (Purification, bloch_from_density, canonical_purification,
                     decompose_density, density_from_bloch, ghz_state,
                     maximally_mixed, project, pure_density, snap_to_state,
                     validate_density, w_state, werner)
from .geodesy import (BuresSummary, GeodesicPath, GeodesicUndefinedError,
                      bures, geodesic_point, geometric_mean_operator,
                      hlc_residual, horizontal_lift, hubner_metric,
                      initial_tangent, root_fidelity, transport_operator,
                      uhlmann_unitary)
from .sun import (GeneratorBasis, TangentGenerator, characteristic_invariants,
                  generator_basis, hamiltonian_from_Y, solve_tangent_G,
                  unitary_tangent)
from .closedform import (ERRATA, QubitTau, errata_table, maxmixed_to_pure,
                         orthogonal_mean_operator, orthogonal_pure_geodesic,
                         qubit_fidelity, qubit_orbit, qubit_root, qubit_tau,
                         werner_cross_term, werner_mean_operator,
                         werner_root_fidelity)

__version__ = "0.1.0"
