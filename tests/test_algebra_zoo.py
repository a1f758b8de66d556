import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from jordanlab.algebra_zoo import (
    albert_algebra,
    albert_diag_index,
    albert_offdiag_index,
    albert_symmetry_catalog,
    algebra_by_name,
    direct_sum,
    function_algebra,
    matrix_coords,
    matrix_jordan,
    matrix_unit_index,
    one_dim,
    permutation_symmetry,
    registry_names,
    spin_factor,
    spin_frame,
)
from jordanlab.elementary_ops import FrameInvalid, build_frame_kit, verify_frame
from jordanlab.jordan_core import (
    center_basis,
    check_axioms,
    algebra_to_json,
    element_power,
    jordan_homomorphism_residual,
    is_symmetry,
    product,
)


def test_matrix_unit_products():
    A, _ = matrix_jordan(3)
    e12 = np.zeros(9, dtype=complex)
    e12[matrix_unit_index(3, 0, 1)] = 1.0
    e23 = np.zeros(9, dtype=complex)
    e23[matrix_unit_index(3, 1, 2)] = 1.0
    got = product(A, e12, e23)
    want = np.zeros(9, dtype=complex)
    want[matrix_unit_index(3, 0, 2)] = 0.5
    assert np.array_equal(got, want)
    # every basis product against (ab + ba)/2, and the star against transposition
    for n in range(2, 6):
        A, _ = matrix_jordan(n)
        units = np.eye(n * n).reshape(n * n, n, n)
        for a, Ea in enumerate(units):
            for b, Eb in enumerate(units):
                want = (0.5 * (Ea @ Eb + Eb @ Ea)).ravel()
                assert np.array_equal(A.structure[a, b], want), (n, a, b)
        assert np.array_equal(A.star, np.stack([E.T.ravel() for E in units], axis=1))


def test_matrix_frames_verify():
    for n in range(2, 6):
        A, frame = matrix_jordan(n)
        assert verify_frame(A, frame)
        assert len(frame.projections) == n


def test_permutation_symmetry_is_symmetry():
    A, _ = matrix_jordan(4)
    s = permutation_symmetry(4, {0: 1, 2: 3})
    assert is_symmetry(A, s)


real8 = arrays(np.float64, 6, elements=st.floats(-3, 3))


@given(real8, real8)
def test_spin_square_law(re, im):
    V = spin_factor(6)
    a = re + 1j * im
    # a^2 = 2 a0 a - B(a, a) 1
    sq = product(V, a, a)
    want = 2.0 * a[0] * a - (a[0] ** 2 - a[1:] @ a[1:]) * V.unit
    assert np.abs(sq - want).max() < 1e-9


def test_spin_unit_products():
    V = spin_factor(4)
    f1 = np.zeros(4, dtype=complex)
    f1[1] = 1.0
    f2 = np.zeros(4, dtype=complex)
    f2[2] = 1.0
    assert np.allclose(product(V, f1, f1), V.unit)
    assert np.abs(product(V, f1, f2)).max() == 0.0


def test_spin_frame_verifies():
    V = spin_factor(6)
    frame = spin_frame(V)
    assert verify_frame(V, frame)
    p1, p2 = frame.projections
    assert np.allclose(p1 + p2, V.unit)


def _broken_matrix_frame(defect):
    """The matrix:3 frame with one defect; each defect is the first check
    verify_frame meets that fails."""
    A, frame = matrix_jordan(3)
    ps = frame.projections
    if defect == "non_projection":
        ps[0] = 2.0 * ps[0]
    elif defect == "non_orthogonal":
        # a rank-one projection onto (e_0 + e_1)/sqrt(2), not orthogonal to e_00
        ps[1] = 0.5 * matrix_coords([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    elif defect == "non_symmetry":
        frame.symmetries[0].element = 2.0 * frame.symmetries[0].element
    return A, frame


# the condition each defect fails first, as the kit builder names it
FIRST_FAILURE = {"non_projection": "p1 is a projection",
                 "non_orthogonal": "p1 o p2 = 0",
                 "non_symmetry": "s(p1, p2) is a symmetry"}


@pytest.mark.parametrize("defect", sorted(FIRST_FAILURE))
def test_verify_frame_rejects(defect):
    A, frame = matrix_jordan(3)
    assert verify_frame(A, frame)
    A, broken = _broken_matrix_frame(defect)
    assert not verify_frame(A, broken)
    with pytest.raises(FrameInvalid, match=re.escape(
            f"frame fails {FIRST_FAILURE[defect]}: residual ")):
        build_frame_kit(A, broken, [0, 1, 2])


def test_spin_axioms():
    V = spin_factor(4)
    assert max(check_axioms(V, samples=30, seed=1).values()) < 1e-10


def test_one_dim():
    A = one_dim()
    assert A.dim == 1
    assert np.allclose(product(A, A.unit, A.unit), A.unit)


# SHA-256 of the canonical JSON of the Albert algebra; any drift in the
# octonion table or the construction changes it
ALBERT_SHA256 = "abad97986fb853e8431f720d8d4029a7a26050df97390c06bfca46cda0ed5049"


def test_albert_generated_checksum():
    A, _ = albert_algebra()
    text = json.dumps(algebra_to_json(A), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == ALBERT_SHA256
    zeros = A.structure[A.structure == 0]
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()


def test_albert_axioms_and_center():
    A, frame = albert_algebra()
    assert A.dim == 27
    assert max(check_axioms(A, samples=20, seed=2).values()) < 1e-10
    assert len(center_basis(A)) == 1
    assert verify_frame(A, frame)


def test_albert_diagonal_products():
    A, _ = albert_algebra()
    e = []
    for i in range(3):
        v = np.zeros(27, dtype=complex)
        v[albert_diag_index(i)] = 1.0
        e.append(v)
    assert np.allclose(product(A, e[0], e[0]), e[0])
    assert np.abs(product(A, e[0], e[1])).max() == 0.0
    assert np.allclose(e[0] + e[1] + e[2], A.unit)


def test_albert_offdiagonal_square():
    # the (0,1) octonion-unit cell squares onto e_11 + e_22
    A, _ = albert_algebra()
    x = np.zeros(27, dtype=complex)
    x[albert_offdiag_index(0, 0)] = 1.0
    sq = product(A, x, x)
    want = np.zeros(27, dtype=complex)
    want[albert_diag_index(0)] = 1.0
    want[albert_diag_index(1)] = 1.0
    assert np.abs(sq - want).max() < 1e-12


def test_albert_power_associativity():
    # octonions are not associative, the Albert algebra still is
    # power-associative; this is where a wrong table shows up first
    A, _ = albert_algebra()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    x /= np.abs(x).max()
    x2 = element_power(A, x, 2)
    x3 = element_power(A, x, 3)
    assert np.abs(product(A, x2, x2) - product(A, x3, x)).max() < 1e-10


def test_albert_symmetry_catalog():
    A, _ = albert_algebra()
    catalog = albert_symmetry_catalog()
    assert len(catalog) >= 4
    for s in catalog:
        assert is_symmetry(A, s)


def test_direct_sum_structure():
    A3, _ = matrix_jordan(3)
    S, summands = direct_sum([A3, spin_factor(4)])
    assert S.dim == 13
    assert len(center_basis(S)) == 2
    for sm in summands:
        summand = algebra_by_name(sm.name).algebra
        # the coordinate projection onto the summand
        proj = np.eye(S.dim)[sm.offset:sm.offset + sm.dim]
        assert jordan_homomorphism_residual(S, summand, proj) <= 1e-9
        assert np.allclose(proj @ S.unit, summand.unit)


def test_function_algebra_two_points():
    A, summands = function_algebra(matrix_jordan(2)[0], 2)
    assert A.dim == 8
    assert A.name == "func:matrix:2:2"
    assert len(summands) == 2
    assert len(center_basis(A)) == 2


def test_registry_by_name():
    entry = algebra_by_name("sum:matrix:3+matrix:4")
    assert entry.kind == "sum"
    assert [sm.name for sm in entry.summands] == ["matrix:3", "matrix:4"]
    assert entry.algebra.dim == 25
    f = algebra_by_name("func:albert:2")
    assert f.algebra.dim == 54
    with pytest.raises(KeyError):
        algebra_by_name("fancy:7")
    with pytest.raises(ValueError):
        algebra_by_name("matrix:1")
    with pytest.raises(ValueError):
        algebra_by_name("spin:2")
    assert algebra_by_name("spin:54").algebra.dim == 54
    for name in ("spin:55", "func:albert:3", "sum:matrix:7+spin:6"):
        with pytest.raises(ValueError, match="above the limit of 54"):
            algebra_by_name(name)
    assert any(n.startswith("matrix") for n in registry_names())
