"""The matrix-free su(N) solvers against the dense structure-constant formulas.

The solvers never read the structure constants; here ``basis.f`` and
``basis.d`` build the dense coordinate formulas as oracles:

    (I + X + D) g = (N/2) dx/dt,   g = Dt y,   B = (I + X + D) y,

with X_kj = -(2/N) x_k x_j, D_kj = sum_i x_i d_ikj and Dt_kj = sum_i x_i f_ijk.
States are random or close to the boundary (low rank plus a small floor).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from buresgeo import geodesy, sun
from conftest import random_bloch, random_unitary


@st.composite
def solver_inputs(draw):
    """(basis, x, v, w): state coordinates and two random coordinate vectors."""
    n = draw(st.integers(2, 6))
    rank = draw(st.integers(1, n))
    floor = draw(st.sampled_from([0.3, 1e-3, 1e-6, 1e-9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = sun.generator_basis(n)
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    rho = (1.0 - floor) * rho / np.trace(rho).real + floor * np.eye(n) / n
    _, x = sun.coefficients(rho, basis)
    return basis, x, rng.normal(size=basis.size), rng.normal(size=basis.size)


def coupling_oracle(basis, x):
    return (np.eye(basis.size) - (2.0 / basis.dim) * np.outer(x, x)
            + np.einsum('i,ikj->kj', x, basis.d))


def assert_close(actual, expected, scale):
    assert np.max(np.abs(actual - expected)) <= 1e-12 * max(1.0, scale)


@settings(max_examples=60)
@given(solver_inputs())
def test_solve_tangent_satisfies_coupling_system(inputs):
    basis, x, xdot, _ = inputs
    g = sun.solve_tangent_G(x, xdot, basis).g
    assert_close(coupling_oracle(basis, x) @ g, 0.5 * basis.dim * xdot,
                 np.linalg.norm(g))


@settings(max_examples=60)
@given(solver_inputs())
def test_unitary_tangent_is_f_contraction(inputs):
    basis, x, _, y = inputs
    g = sun.unitary_tangent(y, x, basis).g
    expected = np.einsum('i,ijk->kj', x, basis.f) @ y
    assert_close(g, expected, np.linalg.norm(g))


@settings(max_examples=60)
@given(solver_inputs())
def test_hamiltonian_is_coupling_product(inputs):
    basis, x, _, y = inputs
    b, _, _ = sun.hamiltonian_from_Y(y, x, basis)
    assert_close(b, coupling_oracle(basis, x) @ y, np.linalg.norm(b))


@settings(max_examples=60)
@given(solver_inputs())
def test_metric_is_half_trace_of_generator(inputs):
    # The Bures metric and the tangent generator come from one eigenbasis
    # kernel: (1/2) Tr[G drho] = (1/2) sum |drho_ij|^2 / (l_i + l_j).
    basis, x, xdot, _ = inputs
    rho, drho = sun.expand(1.0, x, basis), sun.expand(0.0, xdot, basis)
    gen = sun.solve_tangent_G(x, xdot, basis)
    half_trace = 0.5 * float(np.trace(gen.matrix @ drho).real)
    assert abs(geodesy.hubner_metric(rho, drho) - half_trace) <= 1e-10 * half_trace


@pytest.mark.parametrize("ratio, accepted", [(1e-13, False), (1e-10, True)])
def test_condition_limit_is_eigenvalue_ratio(ratio, accepted):
    rng = np.random.default_rng(80)
    basis = sun.generator_basis(3)
    lam = np.array([1.0, 0.5, ratio]) / (1.5 + ratio)
    u = random_unitary(rng, 3)
    _, x = sun.coefficients((u * lam) @ u.conj().T, basis)
    xdot = rng.normal(size=basis.size)
    if accepted:
        g = sun.solve_tangent_G(x, xdot, basis).g
        assert_close(coupling_oracle(basis, x) @ g, 1.5 * xdot, np.linalg.norm(g))
    else:
        with pytest.raises(ValueError, match="conditioning threshold"):
            sun.solve_tangent_G(x, xdot, basis)


def test_solvers_leave_structure_constants_unbuilt():
    sun.generator_basis.cache_clear()
    basis = sun.generator_basis(12)
    rng = np.random.default_rng(81)
    x = random_bloch(rng, basis)
    y = rng.normal(size=basis.size)
    sun.solve_tangent_G(x, y, basis)
    sun.unitary_tangent(y, x, basis)
    sun.hamiltonian_from_Y(y, x, basis)
    # f and d are properties over the cached pair, which reads the cached stack.
    assert '_structure_constants' not in vars(basis)
    assert 'sigmas' not in vars(basis)
