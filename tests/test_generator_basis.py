"""The su(N) basis is its dimension.

``GeneratorBasis`` holds one field, ``dim``, checked on construction as
``generator_basis`` checks it. Its dense stack ``sigmas`` is scattered through
the index map on first read and must have the bytes of the stack built one
matrix at a time (``oracles.generator_matrices``), signed zeros included.
"""

import dataclasses

import numpy as np
import pytest

from buresgeo import sun
import oracles


def test_the_only_field_is_the_dimension():
    assert [field.name for field in dataclasses.fields(sun.GeneratorBasis)] == ["dim"]


@pytest.mark.parametrize("n", range(2, sun.MAX_DIM + 1))
def test_sigmas_have_the_bytes_of_the_matrix_by_matrix_stack(n):
    sig = sun.GeneratorBasis(n).sigmas
    want = oracles.generator_matrices(n)
    assert sig.shape == want.shape
    assert sig.dtype == want.dtype
    assert sig.tobytes() == want.tobytes()


def test_sigmas_are_read_only_and_built_once():
    basis = sun.GeneratorBasis(3)
    sig = basis.sigmas
    assert basis.sigmas is sig
    assert not sig.flags.writeable
    with pytest.raises(ValueError):
        sig[0, 0, 1] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.sigmas = np.zeros_like(sig)


def test_bases_of_one_dimension_hash_and_compare_equal():
    cached = sun.generator_basis(3)
    built = sun.GeneratorBasis(3)
    built.sigmas  # a built stack is not part of the value
    assert hash(cached) == hash(built)
    assert cached == built
    assert sun.GeneratorBasis(np.int64(3)) == cached
    assert type(sun.GeneratorBasis(np.int64(3)).dim) is int
    assert cached != sun.GeneratorBasis(4)


@pytest.mark.parametrize("n", [1, 17, 3.0, True], ids=["1", "17", "3.0", "True"])
def test_a_direct_basis_is_refused_as_generator_basis_refuses_it(n):
    with pytest.raises(ValueError) as cached:
        sun.generator_basis(n)
    with pytest.raises(ValueError) as direct:
        sun.GeneratorBasis(n)
    assert str(direct.value) == str(cached.value)
    assert str(direct.value) == f"dimension must be an integer between 2 and 16, got {n!r}"
