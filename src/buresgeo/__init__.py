"""Bures geodesics between density matrices via the geometric-mean operator.

The package computes Uhlmann fidelities, Bures distances and angles,
geodesic interpolation between mixed or pure states in the polar form,
horizontal lifts of those geodesics through the purification bundle, the
su(N) generator algebra with its tangent solvers, and oracle-gated closed
forms for the standard worked families (maximally mixed to pure, three-qubit
GHZ/W Werner mixtures, and general qubit endpoints).
"""

from .matcore import SpectralDecomposition, spectral_decompose
from .states import (Purification, admit, canonical_purification,
                     density_from_bloch, ghz_state, maximally_mixed,
                     pure_density, w_state, werner)
from .geodesy import (BuresSummary, GeodesicPath, GeodesicUndefinedError,
                      bures, geodesic_point, geometric_mean_operator,
                      hlc_residual, horizontal_lift, hubner_metric,
                      initial_tangent, root_fidelity, transport_operator,
                      uhlmann_unitary)
from .sun import (GeneratorBasis, TangentGenerator, characteristic_invariants,
                  generator_basis, hamiltonian_from_Y, solve_tangent_G,
                  unitary_tangent)
from .closedform import (maxmixed_to_pure, orthogonal_mean_operator,
                         orthogonal_pure_geodesic, qubit_fidelity, qubit_orbit,
                         werner_cross_term, werner_mean_operator, werner_root_fidelity)

__all__ = [
    "SpectralDecomposition", "spectral_decompose",
    "Purification", "admit", "canonical_purification", "density_from_bloch",
    "ghz_state", "maximally_mixed", "pure_density", "w_state", "werner",
    "BuresSummary", "GeodesicPath", "GeodesicUndefinedError", "bures",
    "geodesic_point", "geometric_mean_operator", "hlc_residual",
    "horizontal_lift", "hubner_metric", "initial_tangent", "root_fidelity",
    "transport_operator", "uhlmann_unitary",
    "GeneratorBasis", "TangentGenerator", "characteristic_invariants",
    "generator_basis", "hamiltonian_from_Y", "solve_tangent_G", "unitary_tangent",
    "maxmixed_to_pure", "orthogonal_mean_operator", "orthogonal_pure_geodesic",
    "qubit_fidelity", "qubit_orbit", "werner_cross_term", "werner_mean_operator",
    "werner_root_fidelity",
]

__version__ = "0.1.0"
