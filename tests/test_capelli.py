from itertools import permutations

import numpy as np
import pytest

from jordanlab.capelli import (
    MAX_TUPLE,
    CapelliInput,
    capelli_eval,
    independence_capelli,
    independence_gram,
)
from jordanlab.numerics import DEFAULT_TOL


def e(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def capelli_by_permutations(xi, eta):
    """The defining sum over S_n: the oracle for the subset recursion."""
    acc = 0
    for perm in permutations(range(len(xi))):
        term = xi[perm[0]]
        for k in range(1, len(xi)):
            term = term @ eta[k - 1] @ xi[perm[k]]
        acc = acc + perm_sign(perm) * term
    return acc


def test_perm_sign():
    assert perm_sign([0, 1, 2]) == 1
    assert perm_sign([1, 0, 2]) == -1
    assert perm_sign([2, 0, 1]) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_subset_recursion_matches_permutation_sum(n):
    rng = np.random.default_rng(n)
    xi = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
          for _ in range(n)]
    eta = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
           for _ in range(n - 1)]
    want = capelli_by_permutations(xi, eta)
    got = capelli_eval(CapelliInput(xi, eta))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_largest_tuple_certifies_both_ways():
    # MAX_TUPLE matrices span at most m^2 dimensions: independent in M_4,
    # dependent in M_3
    assert MAX_TUPLE == 12
    rng = np.random.default_rng(6)
    for m, want in ((4, True), (3, False)):
        mats = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                for _ in range(MAX_TUPLE)]
        mats = [a / np.linalg.norm(a, 2) for a in mats]
        assert independence_gram(mats) == want
        assert independence_capelli(mats, trials=2) == want


def test_single_slot_is_identity_map():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    out = capelli_eval(CapelliInput([a], []))
    assert np.array_equal(out, a)


def test_two_slot_closed_form():
    # c_2(a1, a2; y) = a1 y a2 - a2 y a1
    rng = np.random.default_rng(1)
    a1, a2, y = (rng.standard_normal((3, 3)) for _ in range(3))
    got = capelli_eval(CapelliInput([a1, a2], [y]))
    want = a1 @ y @ a2 - a2 @ y @ a1
    assert np.abs(got - want).max() < 1e-12


def test_two_slot_matrix_units():
    got = capelli_eval(CapelliInput([e(2, 0, 0), e(2, 1, 1)], [e(2, 0, 1)]))
    assert np.array_equal(got, e(2, 0, 1))


def test_three_slot_antisymmetry():
    rng = np.random.default_rng(2)
    a = [rng.standard_normal((3, 3)) for _ in range(3)]
    x = [rng.standard_normal((3, 3)) for _ in range(2)]
    base = capelli_eval(CapelliInput(a, x))
    swapped = capelli_eval(CapelliInput([a[1], a[0], a[2]], x))
    assert np.abs(base + swapped).max() < 1e-12


def test_vanishes_on_dependent_tuple():
    rng = np.random.default_rng(3)
    a1 = rng.standard_normal((3, 3))
    a2 = rng.standard_normal((3, 3))
    a3 = 2.0 * a1 - 0.5 * a2
    x = [rng.standard_normal((3, 3)) for _ in range(2)]
    out = capelli_eval(CapelliInput([a1, a2, a3], x))
    assert np.abs(out).max() < 1e-10


def test_independence_certifiers_agree_basic():
    assert independence_capelli([e(2, 0, 0), e(2, 1, 1)])
    assert independence_gram([e(2, 0, 0), e(2, 1, 1)])
    eye = np.eye(2)
    assert not independence_capelli([eye, 2.0 * eye])
    assert not independence_gram([eye, 2.0 * eye])


def test_empty_tuple_is_independent():
    assert independence_gram([])
    assert independence_capelli([])


def test_random_agreement():
    rng = np.random.default_rng(4)
    for trial in range(40):
        n = int(rng.integers(2, 5))
        size = int(rng.integers(2, 5))
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(size)]
        if trial % 2 == 0:
            w = rng.standard_normal(size - 1)
            mats[-1] = sum(c * m for c, m in zip(w, mats[:-1]))
        got = independence_capelli(mats, trials=8, seed=trial)
        want = independence_gram(mats)
        assert got == want, (trial, got, want)


def test_determinism():
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((3, 3)) for _ in range(3)]
    a = independence_capelli(mats, trials=4, seed=9)
    b = independence_capelli(mats, trials=4, seed=9)
    assert a == b


def test_tuple_size_guard():
    mats = [np.eye(2)] * (MAX_TUPLE + 1)
    with pytest.raises(ValueError):
        independence_capelli(mats)
    with pytest.raises(ValueError):
        capelli_eval(CapelliInput(mats, [np.eye(2)] * MAX_TUPLE))


def test_shape_guards():
    with pytest.raises(ValueError):
        independence_capelli([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        capelli_eval(CapelliInput([np.eye(2), np.eye(2)], []))
