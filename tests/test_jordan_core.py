import numpy as np
import pytest
from hypothesis import given, strategies as st

from jordanlab.algebra_zoo import (
    algebra_by_name,
    matrix_coords,
    matrix_jordan,
    permutation_symmetry,
)
from jordanlab.jordan_core import (
    JordanAlgebra,
    algebra_from_json,
    algebra_to_json,
    associator,
    center_basis,
    center_matrix,
    check_axioms,
    commutant,
    element_from_json,
    element_power,
    element_to_json,
    ideal_blocks,
    in_center_span,
    is_projection,
    is_symmetry,
    jordan_homomorphism_residual,
    jordan_inverse,
    linop_from_json,
    linop_to_json,
    mult_operator,
    product,
    star_apply,
    star_map_residual,
    u_operator,
)
from jordanlab import genverify
from jordanlab.numerics import DEFAULT_TOL, kernel_basis

A2, _ = matrix_jordan(2)
A3, frame3 = matrix_jordan(3)


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_product_is_symmetrized_matrix_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        X, Y = rand_mat(rng, 3), rand_mat(rng, 3)
        got = product(A3, matrix_coords(X), matrix_coords(Y))
        want = matrix_coords((X @ Y + Y @ X) / 2.0)
        assert np.abs(got - want).max() < 1e-12


def test_mult_operator_consistent():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(9), rng.standard_normal(9)
    assert np.allclose(mult_operator(A3, x) @ y, product(A3, x, y))


def test_u_operator_is_sandwich_for_symmetries():
    # U_s(b) = s b s in the associative picture when s^2 = 1
    s = permutation_symmetry(3, {0: 1})
    S = s.reshape(3, 3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        B = rand_mat(rng, 3)
        got = u_operator(A3, s) @ matrix_coords(B)
        assert np.abs(got - matrix_coords(S @ B @ S)).max() < 1e-12


def test_u_operator_two_slot():
    rng = np.random.default_rng(3)
    a, b, c = (rng.standard_normal(9) for _ in range(3))
    # U_{a,c}(b) = (a o b) o c + (b o c) o a - (a o c) o b
    want = (product(A3, product(A3, a, b), c)
            + product(A3, product(A3, b, c), a)
            - product(A3, product(A3, a, c), b))
    assert np.allclose(u_operator(A3, a, c) @ b, want)


def test_jordan_inverse_diagonal():
    x = matrix_coords(np.diag([2.0, 4.0]))
    inv = jordan_inverse(A2, x)
    assert inv is not None
    assert np.abs(inv - matrix_coords(np.diag([0.5, 0.25]))).max() < 1e-12
    assert np.allclose(product(A2, x, inv), A2.unit)


def test_jordan_inverse_singular():
    p = matrix_coords(np.diag([1.0, 0.0]))
    assert jordan_inverse(A2, p) is None


@given(st.integers(0, 10 ** 6))
def test_power_associativity(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    x /= max(np.abs(x).max(), 1.0)
    x2 = element_power(A3, x, 2)
    x3 = element_power(A3, x, 3)
    assert np.abs(product(A3, x2, x2) - product(A3, x3, x)).max() < 1e-10


def test_element_power_zero_is_unit():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(9)
    assert np.array_equal(element_power(A3, x, 0), A3.unit)


def test_associator_alternating_in_outer_slots():
    rng = np.random.default_rng(6)
    x, a, y = (rng.standard_normal(9) for _ in range(3))
    assert np.allclose(associator(A3, x, a, y), -associator(A3, y, a, x))
    assert np.abs(associator(A3, x, a, x)).max() < 1e-12


def test_operator_commutativity_tracks_matrix_commutativity():
    # diagonal pair commutes; a nilpotent shift against a generic diagonal
    # does not
    d1 = matrix_coords(np.diag([1.0, 2.0, 3.0]))
    d2 = matrix_coords(np.diag([4.0, 0.0, 1.0]))
    sh = matrix_coords(np.eye(3, k=1))
    def commutator(a, b):
        Ma, Mb = mult_operator(A3, a), mult_operator(A3, b)
        return np.abs(Ma @ Mb - Mb @ Ma).max()

    assert commutator(d1, d2) <= 1e-9
    assert commutator(d1, sh) > 1e-9


def test_commutant_of_generic_diagonal():
    x = matrix_coords(np.diag([1.0, 2.0, 5.0]))
    basis = commutant(A3, x)
    assert len(basis) == 3
    for v in basis:
        V = v.reshape(3, 3)
        off = V - np.diag(np.diag(V))
        assert np.abs(off).max() < 1e-9


def test_commutant_of_central_is_everything():
    assert len(commutant(A3, A3.unit)) == 9


def test_center_of_full_matrix_algebra():
    basis = center_basis(A3)
    assert len(basis) == 1
    assert in_center_span(A3, 3.7 * A3.unit)
    assert not in_center_span(A3, matrix_coords(np.diag([1.0, 0.0, 0.0])))
    Z = center_matrix(A3)
    assert Z.shape == (9, 1)


def test_center_matrix_of_a_centerless_algebra():
    # b0 o b0 = b1, b1 o b1 = b0: commutative, not unital, trivial center
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = c[1, 1, 0] = 1.0
    A = JordanAlgebra(name="centerless", dim=2, structure=c,
                      unit=np.array([1.0, 0.0]), star=np.eye(2))
    assert center_basis(A) == []
    assert center_matrix(A).shape == (2, 0)


def test_projections_and_symmetries():
    p = matrix_coords(np.diag([1.0, 0.0, 0.0]))
    assert is_projection(A3, p)
    assert is_projection(A3, np.zeros(9))     # 0 is a projection...
    assert not is_symmetry(A3, np.zeros(9))   # ...but never a symmetry
    s = permutation_symmetry(3, {0: 1})
    assert is_symmetry(A3, s)
    assert not is_projection(A3, s)


def test_star_apply_is_conjugate_transpose():
    rng = np.random.default_rng(7)
    X = rand_mat(rng, 3)
    got = star_apply(A3, matrix_coords(X))
    assert np.abs(got - matrix_coords(X.conj().T)).max() < 1e-12


def test_transpose_is_jordan_automorphism():
    # x -> x^T preserves the symmetrized product but is not a *-map
    # composed with nothing; it is star composed with entrywise conj
    n = 3
    P = np.zeros((9, 9))
    for i in range(n):
        for j in range(n):
            P[j * n + i, i * n + j] = 1.0
    assert jordan_homomorphism_residual(A3, A3, P) < 1e-12


def test_u_symmetry_is_star_automorphism():
    s = permutation_symmetry(3, {0: 2})
    J = u_operator(A3, s)
    assert jordan_homomorphism_residual(A3, A3, J) <= 1e-9
    assert star_map_residual(A3, A3, J) <= 1e-9


def test_check_axioms_clean_and_broken():
    res = check_axioms(A3, samples=20, seed=0)
    assert set(res) == {"commutativity", "unit", "jordan_identity",
                        "star_involutive", "star_multiplicative", "star_unit"}
    assert max(res.values()) < 1e-10
    broken = algebra_from_json(algebra_to_json(A3))
    broken.structure[0, 1, 2] += 0.1      # breaks commutativity
    res2 = check_axioms(broken, samples=20, seed=0)
    assert res2["commutativity"] > 1e-3


def test_json_roundtrips():
    B = algebra_from_json(algebra_to_json(A3))
    assert B.name == A3.name and B.dim == A3.dim
    assert np.array_equal(B.structure, A3.structure)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.array_equal(element_from_json(element_to_json(A3, x)), x)
    M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert np.array_equal(linop_from_json(linop_to_json(A3, M)), M)


@pytest.mark.parametrize("index", [-1, 9])
def test_algebra_json_rejects_out_of_range_index(index):
    doc = algebra_to_json(A3)
    doc["structure"][0][2] = index
    with pytest.raises(ValueError, match="out of range"):
        algebra_from_json(doc)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        product(A3, np.zeros(4), np.zeros(9))


# The einsum formulas the flat (n, n^2) contractions replaced, kept as the
# reference: the rewrite must reproduce them bit for bit.
def ref_product(A, x, y):
    return np.einsum("i,j,ijk->k", x, y, A.structure, optimize=True)


def ref_mult_operator(A, a):
    return np.einsum("i,ijk->kj", a, A.structure, optimize=True)


def ref_commutant(A, x):
    n, c = A.dim, A.structure
    mb = np.ascontiguousarray(c.transpose(0, 2, 1))
    xb = np.einsum("a,aim->im", x, c, optimize=True)
    m_xb = np.einsum("im,mjk->ikj", xb, c, optimize=True)
    Mx = ref_mult_operator(A, x)
    blocks = m_xb - np.einsum("kl,ilj->ikj", Mx, mb, optimize=True)
    return kernel_basis(blocks.reshape(n * n, n), DEFAULT_TOL)


def ref_center_kernel(c):
    n = len(c)
    R = None
    for i in range(n):
        m_prod = np.einsum("am,mjk->akj", c[i], c, optimize=True)
        m_comp = np.einsum("mk,ajm->akj", c[i], c, optimize=True)
        K = (m_prod - m_comp).reshape(n * n, n)
        R = np.linalg.qr(K if R is None else np.vstack([R, K]), mode="r")
    return kernel_basis(R, DEFAULT_TOL)


def ref_center_basis(A):
    """The einsum center of each ideal's sub-tensor, embedded with zeros."""
    basis = []
    for idx in ideal_blocks(A):
        for v in ref_center_kernel(A.structure[np.ix_(idx, idx, idx)]):
            z = np.zeros(A.dim, dtype=np.complex128)
            z[idx] = v
            basis.append(z)
    return basis


def same_basis(got, want):
    return len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("name", ["matrix:3", "spin:4", "albert",
                                  "sum:matrix:3+matrix:4"])
def test_flat_contractions_match_einsum_bitwise(name):
    A = algebra_by_name(name).algebra
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y = (rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
                for _ in range(2))
        assert np.array_equal(product(A, x, y), ref_product(A, x, y))
        assert np.array_equal(mult_operator(A, x), ref_mult_operator(A, x))
    b1 = np.eye(A.dim)[1]
    for z in (x, b1):
        assert same_basis(commutant(A, z), ref_commutant(A, z))
    assert same_basis(center_basis(A), ref_center_basis(A))


# every algebra a suite of genverify runs on
SUITE_ALGEBRAS = sorted({*genverify.KIT_ALGEBRAS, *genverify.DECOMPOSE_ALGEBRAS,
                         *genverify.PRESERVER_ALGEBRAS, *genverify.TOPPING_ALGEBRAS,
                         *genverify.SPIN_ALGEBRAS, *genverify.CAPELLI_ALGEBRAS,
                         "sum:one+matrix:2"})
MULTI_IDEAL = [name for name in SUITE_ALGEBRAS if name.startswith(("sum:", "func:"))]


def projector(basis):
    Z = np.stack(basis, axis=1)
    return Z @ Z.conj().T


@pytest.mark.parametrize("name, sizes", [
    ("func:albert:2", [27, 27]), ("sum:matrix:3+matrix:4", [9, 16]),
    ("sum:one+matrix:3", [1, 9]), ("matrix:3", [9]), ("spin:4", [4]),
    ("albert", [27])])
def test_ideal_blocks_split_a_direct_sum_exactly(name, sizes):
    A = algebra_by_name(name).algebra
    blocks = ideal_blocks(A)
    assert [len(b) for b in blocks] == sizes
    assert np.array_equal(np.concatenate(blocks), np.arange(A.dim))
    for I in blocks:
        for J in blocks:
            if I is not J:
                assert not A.structure[np.ix_(I, J)].any()


def test_a_sum_in_a_random_basis_is_one_block_with_the_same_center():
    A = algebra_by_name("sum:matrix:3+matrix:4").algebra
    n = A.dim
    Q, _ = np.linalg.qr(np.random.default_rng(61).standard_normal((n, n)))
    # b'_i = sum_a Q[a, i] b_a, so c'[i, j, l] = Q[a, i] Q[b, j] c[a, b, k] Q[k, l]
    c = np.einsum("ai,bj,abk,kl->ijl", Q, Q, A.structure, Q, optimize=True)
    R = JordanAlgebra(name="rotated", dim=n, structure=c, unit=Q.T @ A.unit,
                      star=Q.T @ A.star @ Q)
    assert [len(b) for b in ideal_blocks(R)] == [n]
    assert len(center_basis(R)) == 2


@pytest.mark.parametrize("name", SUITE_ALGEBRAS)
def test_center_dimension_counts_the_simple_summands(name):
    entry = algebra_by_name(name)
    summands = len(entry.summands) if entry.summands else 1
    assert len(center_basis(entry.algebra)) == summands


@pytest.mark.parametrize("name", MULTI_IDEAL)
def test_per_ideal_center_spans_the_whole_algebra_center(name):
    A = algebra_by_name(name).algebra
    whole = ref_center_kernel(A.structure)
    assert len(whole) == len(center_basis(A))
    assert np.abs(projector(center_basis(A)) - projector(whole)).max() <= 1e-14


def test_center_stacks_no_system_wider_than_an_ideal(monkeypatch):
    A = algebra_by_name("func:albert:2").algebra
    cold = JordanAlgebra(name=A.name, dim=A.dim, structure=A.structure,
                         unit=A.unit, star=A.star)
    widths = []
    qr = np.linalg.qr

    def recording(M, *args, **kwargs):
        widths.append(M.shape[1])
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    assert len(center_basis(cold)) == 2
    assert widths and max(widths) == 27
