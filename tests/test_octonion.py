"""The multiplication table is checked against an independent
Cayley-Dickson doubling built here from scratch."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from jordanlab.octonion import oct_conj, oct_mul, oct_unit


def cd_conj(a):
    if len(a) == 1:
        return a.copy()
    h = len(a) // 2
    return np.concatenate([cd_conj(a[:h]), -a[h:]])


def cd_mul(x, y):
    # (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c))
    if len(x) == 1:
        return x * y
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return np.concatenate([
        cd_mul(a, c) - cd_mul(cd_conj(d), b),
        cd_mul(d, a) + cd_mul(b, cd_conj(c)),
    ])


def test_table_matches_cayley_dickson_doubling():
    for i in range(8):
        for j in range(8):
            got = oct_mul(oct_unit(i), oct_unit(j))
            want = cd_mul(oct_unit(i).real, oct_unit(j).real)
            assert np.array_equal(got.real, want), (i, j)
            assert np.abs(got.imag).max() == 0.0


def test_conjugation_matches_doubling():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(8)
    assert np.array_equal(oct_conj(a).real, cd_conj(a))


def test_unit_element():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    e0 = oct_unit(0)
    assert np.allclose(oct_mul(e0, a), a)
    assert np.allclose(oct_mul(a, e0), a)


coeffs = arrays(np.float64, 8, elements=st.floats(-4, 4))


@given(coeffs, coeffs)
def test_alternative_laws(x, y):
    # (xx)y = x(xy) and (yx)x = y(xx); associativity itself fails
    lhs = oct_mul(oct_mul(x, x), y)
    rhs = oct_mul(x, oct_mul(x, y))
    assert np.abs(lhs - rhs).max() < 1e-9
    lhs2 = oct_mul(oct_mul(y, x), x)
    rhs2 = oct_mul(y, oct_mul(x, x))
    assert np.abs(lhs2 - rhs2).max() < 1e-9


def test_not_associative():
    r = oct_mul(oct_mul(oct_unit(1), oct_unit(2)), oct_unit(4))
    l = oct_mul(oct_unit(1), oct_mul(oct_unit(2), oct_unit(4)))
    assert np.abs(r - l).max() == 2.0


@given(coeffs, coeffs)
def test_norm_multiplicative(x, y):
    nx = float(x @ x)
    ny = float(y @ y)
    xy = oct_mul(x, y).real
    assert abs(float(xy @ xy) - nx * ny) <= 1e-8 * max(1.0, nx * ny)


@given(coeffs, coeffs)
def test_conj_antiautomorphism(x, y):
    lhs = oct_conj(oct_mul(x, y))
    rhs = oct_mul(oct_conj(y), oct_conj(x))
    assert np.abs(lhs - rhs).max() < 1e-9

