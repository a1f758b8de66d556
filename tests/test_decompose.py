import functools
import re

import numpy as np
import pytest

from jordanlab import decompose
from jordanlab.algebra_zoo import algebra_by_name, matrix_unit_index
from jordanlab.decompose import (
    BilinearMap,
    JNotMultiplicative,
    KitMissing,
    NotAssociating,
    NotBijective,
    ResidualExceeded,
    _center_column_residual,
    associating_linear_residual,
    associator_tensor,
    bilinear_from_json,
    bilinear_to_json,
    bresar_residual,
    central_annihilator_check,
    cross_block_residual,
    decompose_linear,
    decompose_preserver,
    decompose_trace,
    induced_trace,
    is_associating_linear,
    opcomm_preservation_sampled,
    sharp,
    symmetric_preserver_check,
    trace_associating_residual,
    trace_is_associating,
)
from jordanlab.elementary_ops import build_kit
from jordanlab.genverify import (
    make_associating_map,
    make_associating_trace,
    make_standard_preserver,
)
from jordanlab.jordan_core import (
    center_matrix,
    mult_operator,
    product,
    u_operator,
)
from jordanlab.numerics import DEFAULT_TOL, Tolerance
from test_jordan_core import in_basis, rand_mat, rotated

E3 = algebra_by_name("matrix:3")
A3 = E3.algebra
KIT3 = build_kit(E3)


def struct_trace(A):
    """B(x, y) = x o y as a BilinearMap."""
    return BilinearMap(A, A.structure.copy())


# --- associating linear maps ------------------------------------------------


def test_identity_map_decomposes_to_unit():
    form = decompose_linear(A3, np.eye(9), KIT3)
    assert np.abs(form.lam - A3.unit).max() < 1e-12
    assert np.abs(form.mu).max() < 1e-12
    assert form.residual < 1e-12


def test_central_multiplication_decomposes():
    z = 2.5 * A3.unit
    form = decompose_linear(A3, mult_operator(A3, z), KIT3)
    assert np.abs(form.lam - z).max() < 1e-12
    assert np.abs(form.mu).max() < 1e-12


def test_trace_like_map_goes_to_mu():
    # T(x) = (sum of diagonal entries) 1: lambda = 0, mu = T
    T = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        T[:, matrix_unit_index(3, i, i)] = A3.unit
    form = decompose_linear(A3, T, KIT3)
    assert np.abs(form.lam).max() < 1e-12
    assert np.abs(form.mu - T).max() < 1e-12


def test_noncentral_multiplication_rejected():
    c = np.zeros(9)
    c[matrix_unit_index(3, 0, 1)] = 1.0
    c[matrix_unit_index(3, 1, 0)] = 1.0
    T = mult_operator(A3, c)
    assert abs(associating_linear_residual(A3, T) - 0.25) < 1e-12
    assert not is_associating_linear(A3, T)
    with pytest.raises(NotAssociating):
        decompose_linear(A3, T, KIT3)


def test_unchecked_noncentral_multiplication_fails_its_residual():
    # past no certificate, the formulas give a lambda that is not central
    c = np.zeros(9)
    c[matrix_unit_index(3, 0, 1)] = 1.0
    with pytest.raises(ResidualExceeded):
        decompose_linear(A3, mult_operator(A3, c), KIT3, check=False)


def test_linear_kit_missing():
    with pytest.raises(KitMissing):
        decompose_linear(A3, np.eye(9), None)
    with pytest.raises(KitMissing):
        decompose_linear(A3, np.eye(9), build_kit(algebra_by_name("matrix:4")))


# --- associating traces -----------------------------------------------------


def test_product_trace_decomposes_to_unit():
    B = struct_trace(A3)
    assert trace_is_associating(A3, B)
    form = decompose_trace(A3, B, KIT3)
    assert np.abs(form.lam - A3.unit).max() < 1e-12
    assert np.abs(form.mu).max() < 1e-12
    assert np.abs(form.nu.tensor).max() < 1e-12
    assert form.residual < 1e-12


def test_trace_symmetry_required():
    t = np.zeros((9, 9, 9), dtype=complex)
    t[0, 1, 2] = 1.0       # not symmetric in the first two slots
    with pytest.raises(ValueError):
        trace_is_associating(A3, BilinearMap(A3, t))


def test_trace_rejects_non_associating():
    t = A3.structure.copy()
    t[:, :, 3] += 0.05 * np.eye(9)    # symmetric tweak, breaks the identity
    t = 0.5 * (t + t.transpose(1, 0, 2))
    B = BilinearMap(A3, t)
    assert trace_associating_residual(A3, B) > 1e-3
    with pytest.raises(NotAssociating):
        decompose_trace(A3, B, KIT3)


def test_unchecked_perturbed_trace_fails_its_residual():
    gen = make_associating_trace("matrix:3", 22)
    noise = np.random.default_rng(0).standard_normal((9, 9, 9))
    B = BilinearMap(A3, gen.bilinear.tensor + 1e-7 * (noise + noise.transpose(1, 0, 2)))
    with pytest.raises(ResidualExceeded):
        decompose_trace(A3, B, KIT3, check=False)


def test_bresar_residual_small_for_valid_trace():
    assert bresar_residual(A3, struct_trace(A3)) < 1e-12


def _dense_slices(A, T, B):
    """The three certificates for each b_m, swept over the dense n^4
    associator tensor ASSOC[a,m,z,l] = [b_a, b_m, b_z]_l.  The cyclic sum adds
    its last two terms first and is taken on the symmetric part of B, as in
    the library."""
    n = A.dim
    c = A.structure
    W = np.einsum("amc,czl->amzl", c, c)
    assoc = W - W.transpose(2, 1, 0, 3)
    R = np.tensordot(T, assoc, axes=([0], [0]))   # R[i,m,j,l] = [T(b_i),b_m,b_j]_l
    linear = np.abs(R + R.transpose(2, 1, 0, 3)).max(axis=(0, 2, 3))
    cyclic, bresar = np.zeros(n), np.zeros(n)
    sym = 0.5 * (B.tensor + B.tensor.transpose(1, 0, 2))
    for m in range(n):
        a_m = assoc[:, m].reshape(n, n * n)
        V = (sym.reshape(n * n, n) @ a_m).reshape((n,) * 4)   # [B(x,y),m,z]_l
        cyc = V + (V.transpose(0, 2, 1, 3) + V.transpose(2, 0, 1, 3))
        cyclic[m] = np.abs(cyc).max()
        V = (B.tensor.reshape(n * n, n) @ a_m).reshape((n,) * 4)
        two = 2.0 * np.einsum("ijjl->ijl", V)
        bresar[m] = np.abs(two + np.einsum("jjil->ijl", V)).max()
    return linear, cyclic, bresar


@functools.lru_cache(maxsize=None)
def _certificate_inputs(name):
    """Maps and traces on `name`: generated, perturbed by 1e-4, M_c with a
    random c (maps), and the trace a generated preserver induces (traces).
    Built once per name; callers must not modify them."""
    A = algebra_by_name(name).algebra
    n = A.dim
    rng = np.random.default_rng(41)
    T = make_associating_map(name, 44).op
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    maps = [T, T + 1e-4 * rng.standard_normal((n, n)), mult_operator(A, c)]
    gen = make_associating_trace(name, 42).bilinear
    noise = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    phi = make_standard_preserver(name, 43).op
    traces = [gen, BilinearMap(A, gen.tensor + 1e-4 * (noise + noise.transpose(1, 0, 2))),
              induced_trace(A, A, phi)]
    return A, maps, traces


def _unitary_inputs(name):
    """_certificate_inputs(name) carried to a seeded random unitary basis: its
    structure constants are complex, and its slices have few or no repeated
    columns."""
    A, maps, traces = _certificate_inputs(name)
    Q, _ = np.linalg.qr(rand_mat(np.random.default_rng(62), A.dim))
    R = rotated(A, Q)
    return (R, [Q.conj().T @ T @ Q for T in maps],
            [BilinearMap(R, in_basis(B.tensor, Q)) for B in traces])


@pytest.mark.parametrize("name", ["matrix:3", "spin:4", "albert",
                                  "sum:matrix:3+matrix:4", "unitary:matrix:3"])
def test_certificates_match_dense_sweep(name):
    unitary = name.startswith("unitary:")
    A, maps, traces = (_unitary_inputs(name.removeprefix("unitary:")) if unitary
                       else _certificate_inputs(name))
    for T, B in zip(maps, traces):
        got = (associating_linear_residual(A, T), trace_associating_residual(A, B),
               bresar_residual(A, B))
        want = [slices.max() for slices in _dense_slices(A, T, B)]
        for g, w in zip(got, want):
            assert (g <= DEFAULT_TOL.abs_eps) == (w <= DEFAULT_TOL.abs_eps)
            # in a rotated basis the two sweeps round differently
            assert abs(g - w) <= (1e-14 if unitary else 1e-14 * w)


@pytest.mark.parametrize("name", ["matrix:3", "spin:4", "albert",
                                  "sum:matrix:3+matrix:4"])
def test_each_slice_multiplies_its_distinct_columns_once(name):
    A = algebra_by_name(name).algebra
    n = A.dim
    W = np.einsum("amc,czl->amzl", A.structure, A.structure)
    assoc = W - W.transpose(2, 1, 0, 3)   # assoc[a, m, z, l] = [b_a, b_m, b_z]_l
    # integer entries and dyadic structure constants: every sum is exact
    rng = np.random.default_rng(63)
    X = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
    support = associator_tensor(A)
    assert [s.m for s in support] == [m for m in range(n) if assoc[:, m].any()]
    for s, P in decompose._support_products(support, X):
        assert len({column.tobytes() for column in s.block.T}) == s.block.shape[1]
        dense = (X @ assoc[:, s.m].reshape(n, n * n)).reshape(n, n, n)
        assert np.array_equal(P[:, s.where], dense), s.m
        assert np.array_equal(P[:, s.where[s.z, s.l]], dense[:, s.z, s.l]), s.m


def test_certificate_holds_no_dense_tensor_and_reads_the_symmetric_part():
    A = algebra_by_name("sum:matrix:3+matrix:4").algebra
    n = A.dim
    B = make_associating_trace("sum:matrix:3+matrix:4", 45).bilinear
    assert trace_is_associating(A, B)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                yield from arrays(item)

    assert max(a.size for a in arrays(A._caches)) < n ** 4
    t = B.tensor + 1e-6 * np.random.default_rng(46).standard_normal((n, n, n))
    sym = BilinearMap(A, 0.5 * (t + t.transpose(1, 0, 2)))
    assert trace_associating_residual(A, BilinearMap(A, t)) \
        == trace_associating_residual(A, sym)


@pytest.mark.parametrize("name", ["matrix:3", "spin:4", "albert",
                                  "sum:matrix:3+matrix:4"])
def test_verdicts_agree_with_residuals_at_the_threshold(name):
    A, maps, traces = _certificate_inputs(name)
    # exactly symmetric, so that no tol down to r refuses them as asymmetric
    traces = [BilinearMap(A, 0.5 * (B.tensor + B.tensor.transpose(1, 0, 2))) for B in traces]
    pairs = [(associating_linear_residual, is_associating_linear, T) for T in maps] \
        + [(trace_associating_residual, trace_is_associating, B) for B in traces]
    verdicts = []
    for residual, verdict, X in pairs:
        r = residual(A, X)
        for t in (r * (1 - 1e-9), r, r * (1 + 1e-9)):
            if t > 0:
                assert verdict(A, X, Tolerance(t)) == (r <= t), (verdict.__name__, r, t)
        verdicts.append(r <= DEFAULT_TOL.abs_eps)
    # generated and induced inputs pass; perturbed ones and M_c fail
    assert verdicts == [True, False, False, True, False, True]


def test_an_overflowing_input_reads_nan_and_is_rejected():
    # finite entries whose associators overflow: inf - inf = NaN
    rng = np.random.default_rng(53)
    T = 1.7e308 * np.sign(rng.standard_normal((9, 9)))
    t = np.sign(rng.standard_normal((9, 9, 9)))
    B = BilinearMap(A3, 1.7e308 * np.sign(t + t.transpose(1, 0, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(trace_associating_residual(A3, B))
        assert not trace_is_associating(A3, B)
        assert not is_associating_linear(A3, T)


def test_verdicts_stop_at_the_first_slice_over_tol(monkeypatch):
    A, maps, traces = _certificate_inputs("sum:matrix:3+matrix:4")
    slices = len(associator_tensor(A))
    drawn = []
    inner = decompose._support_products

    def counting(support, X):
        for item in inner(support, X):
            drawn.append(item[0].m)
            yield item

    rejected = _rejected_calls(algebra_by_name(A.name))
    order = [s.m for s in associator_tensor(A)]
    monkeypatch.setattr(decompose, "_support_products", counting)
    for verdict, X, accepted in ((trace_is_associating, traces[0], True),
                                 (trace_is_associating, traces[1], False),
                                 (is_associating_linear, maps[0], True),
                                 (is_associating_linear, maps[1], False)):
        drawn.clear()
        assert verdict(A, X) is accepted
        assert len(drawn) == (slices if accepted else 1), verdict.__name__
    drawn.clear()
    trace_associating_residual(A, traces[1])
    assert len(drawn) == slices
    # a decomposer sweeps a rejected input once, up to the slice it names
    for call, args, _, _ in rejected:
        drawn.clear()
        with pytest.raises(NotAssociating) as err:
            call(*args)
        m = _witness(str(err.value))[0]
        assert drawn == order[:order.index(m) + 1], call.__name__


def _witness(message):
    """(m, residual, tol, ratio) named by a NotAssociating message."""
    got = re.search(r"at b_m=(\d+): residual (\S+) > tol (\S+) \(ratio (\S+)\)$",
                    message)
    assert got, message
    return int(got[1]), *map(float, got.groups()[1:])


def _rejected_calls(entry):
    """(decomposer, args, message prefix, dense slice maxima) for one
    rejected input of each decomposer on entry, a sum:matrix:3+matrix:4."""
    A, maps, traces = _certificate_inputs(entry.algebra.name)
    kit = build_kit(entry)
    rng = np.random.default_rng(51)
    phi = rng.standard_normal((A.dim, A.dim))
    induced = induced_trace(A, A, phi)
    # M_c with c the unit on matrix:3 passes every slice b_m of that summand
    c = entry.summands[0].central_projection.copy()
    c[9:] = rng.standard_normal(16)
    return ((decompose_linear, (A, mult_operator(A, c), kit), "map fails the polarized",
             _dense_slices(A, mult_operator(A, c), traces[0])[0]),
            (decompose_trace, (A, traces[1], kit), "trace fails the cyclic",
             _dense_slices(A, maps[0], traces[1])[1]),
            (decompose_preserver, (A, A, phi, kit), "induced trace fails the cyclic",
             _dense_slices(A, maps[0], induced)[1]))


def test_rejections_name_the_first_slice_over_tol():
    tol = DEFAULT_TOL.abs_eps
    witnesses = []
    for call, args, what, dense in _rejected_calls(algebra_by_name("sum:matrix:3+matrix:4")):
        with pytest.raises(NotAssociating) as err:
            call(*args)
        message = str(err.value)
        assert message.startswith(what + " associator certificate at b_m=")
        m, r, named_tol, ratio = _witness(message)
        assert m == np.flatnonzero(dense > tol)[0]
        assert named_tol == tol
        assert r == pytest.approx(dense[m], rel=0.05)
        assert ratio == pytest.approx(dense[m] / tol, rel=0.05)
        witnesses.append(m)
    assert witnesses[0] >= 9 and witnesses[1:] == [0, 0]


def test_a_witness_is_named_by_its_basis_index():
    # b_0, the unit of the `one` summand, has no associator, so it has no slice
    A = algebra_by_name("sum:one+matrix:3").algebra
    assert [s.m for s in associator_tensor(A)] == list(range(1, 10))
    c = np.random.default_rng(52).standard_normal(10)
    M = mult_operator(A, c)
    dense = _dense_slices(A, M, struct_trace(A))[0]
    rejection = decompose._violation(decompose._linear_maxima(A, M), DEFAULT_TOL)
    assert _witness(str(rejection))[0] == np.flatnonzero(dense > 1e-9)[0] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bilinear_map_rejects_non_finite_entries(bad):
    t = make_associating_trace("matrix:3", 22).bilinear.tensor.copy()
    t[1, 1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BilinearMap(A3, t)


def test_spin_trace_lambda_is_zero():
    entry = algebra_by_name("spin:4")
    V = entry.algebra
    kit = build_kit(entry)
    B = struct_trace(V)
    form = decompose_trace(V, B, kit)
    assert np.abs(form.lam).max() < 1e-10
    assert form.residual < 1e-9


def test_trace_kit_missing_without_e2_on_matrix():
    # matrix:2 carries a spin-type kit; trace extraction needs E2 there
    entry = algebra_by_name("matrix:2")
    kit = build_kit(entry)
    B = struct_trace(entry.algebra)
    with pytest.raises(KitMissing):
        decompose_trace(entry.algebra, B, kit)


@pytest.mark.parametrize("name", ["matrix:3", "matrix:4", "spin:4", "albert",
                                  "sum:matrix:3+matrix:4"])
def test_nu_matches_polarized_quadratic_form(name):
    # the paper's formula: nu(x,y) is the polarization of
    # q(x) = E0(B(x,x)) - lambda o E0(x^2) - mu(x) o E0(x)
    entry = algebra_by_name(name)
    A = entry.algebra
    kit = build_kit(entry)
    B = make_associating_trace(name, 31).bilinear
    form = decompose_trace(A, B, kit)

    def q(x):
        return kit.apply(0, B.apply(x, x)) \
            - product(A, form.lam, kit.apply(0, product(A, x, x))) \
            - product(A, form.mu @ x, kit.apply(0, x))

    rng = np.random.default_rng(32)
    for _ in range(3):
        x, y = rng.standard_normal((2, A.dim)) + 1j * rng.standard_normal((2, A.dim))
        want = 0.5 * (q(x + y) - q(x) - q(y))
        assert np.abs(form.nu.apply(x, y) - want).max() <= 1e-12


def test_bilinear_json_roundtrip():
    B = struct_trace(A3)
    back = bilinear_from_json(bilinear_to_json(B), A3)
    assert np.array_equal(back.tensor, B.tensor)
    zero = bilinear_to_json(BilinearMap(A3, np.zeros((9, 9, 9))))
    assert zero["tensor"] == []
    assert not bilinear_from_json(zero, A3).tensor.any()


# --- preservers ---------------------------------------------------------


def test_identity_preserver():
    form = decompose_preserver(A3, A3, np.eye(9), KIT3)
    assert np.abs(form.z0 - A3.unit).max() < 1e-12
    assert np.abs(form.J - np.eye(9)).max() < 1e-12
    assert np.abs(form.beta).max() < 1e-12


def test_scaled_symmetry_preserver():
    s = np.zeros(9)
    s[matrix_unit_index(3, 0, 1)] = 1.0
    s[matrix_unit_index(3, 1, 0)] = 1.0
    s[matrix_unit_index(3, 2, 2)] = 1.0
    J = u_operator(A3, s)
    form = decompose_preserver(A3, A3, 2.0 * J, KIT3)
    assert np.abs(form.z0 - 2.0 * A3.unit).max() < 1e-10
    assert np.abs(form.J - J).max() < 1e-10
    assert np.abs(form.beta).max() < 1e-10
    # J maps the center into the center
    Z = center_matrix(A3)
    assert _center_column_residual(A3, form.J @ Z, DEFAULT_TOL) <= 1e-9


@pytest.mark.parametrize("name", ["func:matrix:3:2", "sum:matrix:3+matrix:3"])
def test_preserver_recovers_a_summand_swap(name):
    # with two isomorphic summands the generator composes J with their swap
    # on some seeds; the decomposition must recover J either way
    entry = algebra_by_name(name)
    A, kit = entry.algebra, build_kit(entry)
    swapped = []
    for seed in range(12):
        gen = make_standard_preserver(name, seed)
        swapped.append(np.abs(gen.J[:9, 9:]).max() > 0)
        form = decompose_preserver(A, A, gen.op, kit, check=False)
        err = max(float(np.abs(got - want).max()) for got, want in
                  ((form.z0, gen.z0), (form.J, gen.J), (form.beta, gen.beta)))
        assert err <= 1e-8, (seed, err)
    assert sum(swapped) == 3


def test_preserver_rejects_singular():
    phi = np.zeros((9, 9))
    with pytest.raises(NotBijective):
        decompose_preserver(A3, A3, phi, KIT3)


def test_preserver_rejects_wrong_shape():
    with pytest.raises(NotBijective):
        decompose_preserver(A3, A3, np.eye(8), KIT3)


def test_preserver_precheck_rejects_random_map():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((9, 9))
    with pytest.raises(NotAssociating):
        decompose_preserver(A3, A3, phi, KIT3)


def test_spin_generic_bijection_fails_at_J():
    entry = algebra_by_name("spin:4")
    V = entry.algebra
    kit = build_kit(entry)
    phi = np.eye(4, dtype=complex)
    phi[1, 0] = 1.0     # phi(1) = 1 + f1, off the center
    with pytest.raises(KitMissing):
        # without the explicit opt-in the spin kit is refused for preservers
        decompose_preserver(V, V, phi, kit)
    with pytest.raises(JNotMultiplicative):
        decompose_preserver(V, V, phi, kit, require_e2=False, check=False)


def test_induced_trace_transports_the_product():
    # B(phi(u), phi(v)) = phi(u o v): the product carried along phi
    entry = algebra_by_name("matrix:2")
    A = entry.algebra
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    B = induced_trace(A, A, phi)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    want = phi @ product(A, u, v)
    assert np.abs(B.apply(phi @ u, phi @ v) - want).max() < 1e-10


def test_sharp_involution_and_symmetry_check():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    twice = sharp(sharp(phi, A3, A3), A3, A3)
    assert np.abs(twice - phi).max() < 1e-12
    sym = 0.5 * (phi + sharp(phi, A3, A3))
    assert np.abs(sharp(sym, A3, A3) - sym).max() < 1e-12


def test_symmetric_preserver_check_on_star_automorphism():
    s = np.zeros(9)
    s[matrix_unit_index(3, 0, 2)] = 1.0
    s[matrix_unit_index(3, 2, 0)] = 1.0
    s[matrix_unit_index(3, 1, 1)] = 1.0
    J = u_operator(A3, s)
    form = decompose_preserver(A3, A3, 3.0 * J, KIT3)
    frag = symmetric_preserver_check(A3, A3, form)
    assert frag["passed"], frag


# --- operator-commutativity sampling and block structure ------------------


def test_opcomm_identity_and_symmetry_pass():
    rep = opcomm_preservation_sampled(A3, A3, np.eye(9), samples=20, seed=0)
    assert rep["passed"]
    s = np.zeros(9)
    s[matrix_unit_index(3, 0, 1)] = 1.0
    s[matrix_unit_index(3, 1, 0)] = 1.0
    s[matrix_unit_index(3, 2, 2)] = 1.0
    rep2 = opcomm_preservation_sampled(A3, A3, 2.0 * u_operator(A3, s),
                                       samples=20, seed=0)
    assert rep2["passed"]


def test_opcomm_random_map_fails():
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((9, 9))
    rep = opcomm_preservation_sampled(A3, A3, phi, samples=20, seed=0)
    assert not rep["passed"]
    assert rep["forward_pass"] < rep["samples"]


def test_central_annihilator_check():
    assert central_annihilator_check(A3)
    assert central_annihilator_check(algebra_by_name("albert").algebra)
    assert central_annihilator_check(
        algebra_by_name("sum:matrix:3+matrix:4").algebra)
    assert not central_annihilator_check(
        algebra_by_name("sum:one+matrix:2").algebra)


def test_cross_block_residual_on_block_map():
    entry = algebra_by_name("sum:matrix:2+matrix:2")
    A = entry.algebra
    z = 1.5 * A.unit
    T = mult_operator(A, z)
    for sm in entry.summands:
        assert cross_block_residual(A, T, sm.central_projection) < 1e-12
