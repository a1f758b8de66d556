import numpy as np
import pytest
from hypothesis import given, strategies as st

from jordanlab.numerics import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
    as_cvector,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    require_finite,
    scalar_from_json,
    scalar_to_json,
    solve_linear,
    vector_from_json,
    vector_to_json,
)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1e-9)
    with pytest.raises(ValueError):
        Tolerance(abs_eps=float("inf"))
    assert DEFAULT_TOL.abs_eps == 1e-9


def test_require_finite():
    with pytest.raises(ValueError):
        require_finite(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        require_finite(np.array([np.inf]))
    require_finite(np.array([1.0, 2.0]))


def test_casts():
    v = as_cvector([1, 2])
    assert v.dtype == np.complex128
    m = as_cmatrix([[1, 0], [0, 1]])
    assert m.shape == (2, 2) and m.dtype == np.complex128


def test_solve_linear_exact():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_linear(A, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)


def test_solve_linear_inconsistent():
    # rank-1 system with b outside the column space
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert solve_linear(A, np.array([1.0, 2.0])) is None


def test_kernel_basis_rank_one():
    A = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    basis = kernel_basis(A)
    assert len(basis) == 2
    for v in basis:
        assert np.abs(A @ v).max() < 1e-12


def test_kernel_basis_full_rank():
    assert kernel_basis(np.eye(3)) == []


def test_kernel_basis_without_rows_is_the_whole_space():
    basis = kernel_basis(np.zeros((0, 3)))
    assert np.allclose(np.stack(basis), np.eye(3))


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_scalar_json_roundtrip(re, im):
    z = complex(re, im)
    assert scalar_from_json(scalar_to_json(z)) == z


def test_vector_matrix_json_roundtrip():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.array_equal(vector_from_json(vector_to_json(v)), v)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)
