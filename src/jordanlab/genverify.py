"""Seeded generators and verification suites.

Generators produce random elements, central elements, inner automorphisms,
standard-form associating maps/traces/preservers (with their parameters
retained for round-trip comparison), and adversarial near-misses.  Suites
aggregate the package's invariants into deterministic machine-readable
reports: identical (suite, config) pairs yield identical reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, asdict

import numpy as np

from .algebra_zoo import (
    ZooEntry,
    albert_symmetry_catalog,
    algebra_by_name,
)
from .capelli import independence_capelli, independence_gram
from .decompose import (
    BilinearMap,
    JNotMultiplicative,
    NotAssociating,
    ResidualExceeded,
    associating_linear_residual,
    bresar_residual,
    central_annihilator_check,
    cross_block_residual,
    decompose_linear,
    decompose_preserver,
    decompose_trace,
    mixed_products_check,
    sharp,
    standard_trace_tensor,
    symmetric_preserver_check,
    trace_associating_residual,
)
from .elementary_ops import build_kit, verify_kit
from .jordan_core import (
    JordanAlgebra,
    center_matrix,
    check_axioms,
    commutant,
    element_power,
    in_center_span,
    jordan_homomorphism_residual,
    jordan_inverse,
    mult_operator,
    u_operator,
)
from .numerics import DEFAULT_TOL, Tolerance

__all__ = [
    "GenConfig",
    "Report",
    "RetriesExhausted",
    "UnknownSuite",
    "derive_seed",
    "random_element",
    "random_central",
    "random_central_invertible",
    "random_symmetry",
    "random_inner_automorphism",
    "GeneratedMap",
    "GeneratedTrace",
    "GeneratedPreserver",
    "make_associating_map",
    "make_associating_trace",
    "make_standard_preserver",
    "make_adversarial",
    "SUITES",
    "run_suite",
    "report_to_json",
    "report_to_markdown",
]


class RetriesExhausted(RuntimeError):
    pass


class UnknownSuite(KeyError):
    pass


@dataclass
class GenConfig:
    master_seed: int = 0
    samples: int = 100
    magnitude: float = 1.0
    adversarial_rate: float = 0.0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.magnitude > 0:
            raise ValueError("magnitude must be positive")
        if not 0 <= self.adversarial_rate <= 1:
            raise ValueError("adversarial_rate must lie in [0, 1]")


@dataclass
class Report:
    suite: str
    config: GenConfig
    records: list = field(default_factory=list)

    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)


def derive_seed(*parts) -> int:
    """Stable 62-bit seed from arbitrary labels."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2s(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


_ENTRIES: dict = {}


def _entry(name: str) -> ZooEntry:
    if name not in _ENTRIES:
        _ENTRIES[name] = algebra_by_name(name)
    return _ENTRIES[name]


# ---------------------------------------------------------------------------
# element-level generators


def random_element(A: JordanAlgebra, seed: int,
                   magnitude: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return magnitude * (rng.standard_normal(A.dim)
                        + 1j * rng.standard_normal(A.dim))


def random_central(A: JordanAlgebra, seed: int,
                   magnitude: float = 1.0, real: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Z = center_matrix(A)
    d = Z.shape[1]
    coeff = rng.standard_normal(d) + (0 if real else 1j * rng.standard_normal(d))
    return magnitude * (Z @ coeff)


def random_central_invertible(A: JordanAlgebra, seed: int,
                              magnitude: float = 1.0, real: bool = False,
                              retries: int = 20) -> np.ndarray:
    for k in range(retries):
        z = random_central(A, derive_seed(seed, "zinv", k), magnitude, real)
        if jordan_inverse(A, z) is not None:
            return z
    raise RetriesExhausted("no invertible central element found")


def random_symmetry(name: str, seed: int) -> np.ndarray:
    """A random symmetry (s = s*, s^2 = 1) in the named zoo algebra."""
    rng = np.random.default_rng(seed)
    entry = _entry(name)
    A = entry.algebra
    if entry.kind == "matrix":
        n = int(round(np.sqrt(A.dim)))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(M)
        r = int(rng.integers(1, n))
        p = Q[:, :r] @ Q[:, :r].conj().T
        return (2.0 * p - np.eye(n)).reshape(-1)
    if entry.kind == "spin":
        v = rng.standard_normal(A.dim - 1)
        v /= np.linalg.norm(v)
        s = np.zeros(A.dim, dtype=np.complex128)
        s[1:] = v
        return s
    if entry.kind == "albert":
        catalog = albert_symmetry_catalog()
        return catalog[int(rng.integers(len(catalog)))]
    if entry.kind in ("sum", "func"):
        s = np.zeros(A.dim, dtype=np.complex128)
        for k, sm in enumerate(entry.summands):
            s[sm.offset:sm.offset + sm.dim] = random_symmetry(
                sm.name, derive_seed(seed, "blk", k))
        return s
    return A.unit.copy()    # one


def random_inner_automorphism(name: str, word_length: int,
                              seed: int) -> np.ndarray:
    """Product of U_s over `word_length` random symmetries; asserted to be
    a Jordan *-automorphism."""
    entry = _entry(name)
    A = entry.algebra
    J = np.eye(A.dim, dtype=np.complex128)
    for k in range(word_length):
        s = random_symmetry(name, derive_seed(seed, "word", k))
        J = u_operator(A, s) @ J
    res = jordan_homomorphism_residual(A, A, J)
    if res > 1e-8:
        raise RetriesExhausted(f"inner automorphism residual {res:.2e}")
    return J


# ---------------------------------------------------------------------------
# standard-form generators (parameters retained for round-trips)


@dataclass
class GeneratedMap:
    op: np.ndarray
    lam: np.ndarray
    mu: np.ndarray


@dataclass
class GeneratedTrace:
    bilinear: BilinearMap
    lam: np.ndarray          # expected decomposition targets
    mu: np.ndarray
    nu: np.ndarray           # (n, n, n) tensor


@dataclass
class GeneratedPreserver:
    op: np.ndarray
    z0: np.ndarray
    J: np.ndarray
    beta: np.ndarray


def _center_valued_map(A: JordanAlgebra, seed: int,
                       magnitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Z = center_matrix(A)
    d = Z.shape[1]
    R = rng.standard_normal((d, A.dim)) + 1j * rng.standard_normal((d, A.dim))
    return magnitude * (Z @ R)


def make_associating_map(name: str, seed: int,
                         magnitude: float = 1.0) -> GeneratedMap:
    A = _entry(name).algebra
    lam = random_central(A, derive_seed(seed, "lam"), magnitude)
    mu = _center_valued_map(A, derive_seed(seed, "mu"), magnitude)
    return GeneratedMap(mult_operator(A, lam) + mu, lam, mu)


def _center_valued_bilinear(A: JordanAlgebra, seed: int,
                            magnitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Z = center_matrix(A)
    d = Z.shape[1]
    n = A.dim
    G = rng.standard_normal((n, n, d)) + 1j * rng.standard_normal((n, n, d))
    G = 0.5 * (G + G.transpose(1, 0, 2))
    return magnitude * np.einsum("ijd,ld->ijl", G, Z, optimize=True)


def make_associating_trace(name: str, seed: int,
                           magnitude: float = 1.0) -> GeneratedTrace:
    """Standard-form trace; on spin factors a lambda_0 o x^2 term is
    injected and the stored targets absorb it into mu and nu (squares
    collapse into span{1, x} there, so the decomposition must report
    lambda = 0)."""
    A = _entry(name).algebra
    lam = random_central(A, derive_seed(seed, "lam"), magnitude)
    mu = _center_valued_map(A, derive_seed(seed, "mu"), magnitude)
    nu_t = _center_valued_bilinear(A, derive_seed(seed, "nu"), magnitude)
    tensor = standard_trace_tensor(A, lam, mu, nu_t)
    if not name.startswith("spin:"):
        return GeneratedTrace(BilinearMap(A, tensor), lam, mu, nu_t)
    # absorbed targets: x^2 = 2 x_0 x - q(x,x) 1 with q = diag(1,-1,..,-1)
    n = A.dim
    lam0 = complex(lam[0])
    mu_t = mu.copy()
    mu_t[:, 0] += 2.0 * lam0 * A.unit
    q = np.diag(np.r_[1.0, -np.ones(n - 1)]).astype(np.complex128)
    nu_abs = nu_t - lam0 * np.einsum("ij,l->ijl", q, A.unit)
    return GeneratedTrace(BilinearMap(A, tensor),
                          np.zeros(n, dtype=np.complex128), mu_t, nu_abs)


def _summand_swap(entry: ZooEntry) -> np.ndarray:
    """Permutation operator exchanging the first two isomorphic summands."""
    sms = entry.summands
    n = entry.algebra.dim
    for i in range(len(sms)):
        for j in range(i + 1, len(sms)):
            if sms[i].name == sms[j].name:
                P = np.eye(n, dtype=np.complex128)
                a, b, d = sms[i].offset, sms[j].offset, sms[i].dim
                P[a:a + d, a:a + d] = 0
                P[b:b + d, b:b + d] = 0
                P[a:a + d, b:b + d] = np.eye(d)
                P[b:b + d, a:a + d] = np.eye(d)
                return P
    return None


def make_standard_preserver(name: str, seed: int, magnitude: float = 1.0,
                            symmetric: bool = False,
                            retries: int = 20) -> GeneratedPreserver:
    entry = _entry(name)
    A = entry.algebra
    z0 = random_central_invertible(A, derive_seed(seed, "z0"), magnitude,
                                   real=symmetric)
    rng = np.random.default_rng(derive_seed(seed, "shape"))
    J = random_inner_automorphism(name, int(rng.integers(1, 4)),
                                  derive_seed(seed, "J"))
    if entry.summands is not None and rng.integers(2) == 1:
        P = _summand_swap(entry)
        if P is not None:
            J = J @ P
    for k in range(retries):
        beta = _center_valued_map(A, derive_seed(seed, "beta", k), magnitude)
        if symmetric:
            beta = 0.5 * (beta + sharp(beta, A, A))
        phi = mult_operator(A, z0) @ J + beta
        sv = np.linalg.svd(phi, compute_uv=False)
        if sv[-1] > 1e-8 * sv[0]:
            return GeneratedPreserver(phi, z0, J, beta)
    raise RetriesExhausted("no invertible preserver after resampling beta")


def make_adversarial(kind: str, name: str, seed: int,
                     magnitude: float = 1.0):
    """Objects guaranteed to violate one named property.

    non_associating: M_c for non-central c (fails the linear certificate).
    non_central_mu: standard form plus a rank-one straying mu column.
    spin_generic_bijection: invertible, Phi(1) outside C1.
    broken_J: preserver with J perturbed off the automorphism manifold.
    """
    A = _entry(name).algebra
    n = A.dim
    rng = np.random.default_rng(derive_seed(seed, "adv", kind))
    if kind == "non_associating":
        for k in range(50):
            c = random_element(A, derive_seed(seed, "c", k), magnitude)
            T = mult_operator(A, c)
            if associating_linear_residual(A, T) > 1e-3:
                return T
        raise RetriesExhausted("no associator witness found")
    if kind == "non_central_mu":
        base = make_associating_map(name, derive_seed(seed, "base"), magnitude)
        for k in range(50):
            v = random_element(A, derive_seed(seed, "v", k), magnitude)
            if in_center_span(A, v):
                continue
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return base.op + np.outer(v, w)
        raise RetriesExhausted("center of full dimension")
    if kind == "spin_generic_bijection":
        if not name.startswith("spin:"):
            raise ValueError("spin_generic_bijection needs a spin factor")
        phi = np.eye(n, dtype=np.complex128)
        phi[1, 0] = 1.0        # Phi(1) = 1 + f1, not in C1
        phi[1:, 1:] += 0.25 * (rng.standard_normal((n - 1, n - 1))
                               + 1j * rng.standard_normal((n - 1, n - 1)))
        return phi
    if kind == "broken_J":
        gen = make_standard_preserver(name, derive_seed(seed, "base"), magnitude)
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        J_bad = gen.J + 1e-3 * K
        return mult_operator(A, gen.z0) @ J_bad + gen.beta
    raise ValueError(f"unknown adversarial kind {kind!r}")


# ---------------------------------------------------------------------------
# suites


KIT_ALGEBRAS = ["matrix:3", "matrix:4", "spin:4", "spin:6", "albert",
                "sum:matrix:3+matrix:4", "func:albert:2"]
DECOMPOSE_ALGEBRAS = ["matrix:3", "matrix:4", "spin:4", "spin:6", "albert",
                      "sum:matrix:3+matrix:4"]
PRESERVER_ALGEBRAS = ["matrix:3", "matrix:4", "sum:matrix:3+matrix:4", "albert"]
TOPPING_ALGEBRAS = ["matrix:2", "matrix:3", "matrix:4", "matrix:5"]
SPIN_ALGEBRAS = ["spin:4", "spin:6"]
CAPELLI_ALGEBRAS = ["matrix:3", "matrix:4"]


def _rec(records, check, algebra, seed, residual, tol, detail="",
         expected_failure=False):
    records.append({
        "check_name": check,
        "algebra": algebra,
        "seed": int(seed),
        "residual": float(residual),
        "tol": float(tol),
        "pass": bool(residual <= tol),
        "detail": detail,
        "expected_failure": bool(expected_failure),
    })


def _rejects(records, what, name, seed, errors, call, *args, **kwargs):
    """Negative-control record: passes when the call raises one of errors."""
    try:
        call(*args, **kwargs)
    except errors as ex:
        _rec(records, what, name, seed, 0.0, 0.5, detail=type(ex).__name__,
             expected_failure=True)
        return
    _rec(records, what, name, seed, 1.0, 0.5,
         detail="decomposition unexpectedly succeeded", expected_failure=True)


def _suite_axioms(cfg: GenConfig, tol: Tolerance, records: list):
    for name in KIT_ALGEBRAS:
        A = _entry(name).algebra
        seed = derive_seed(cfg.master_seed, "axioms", name)
        res = check_axioms(A, samples=min(cfg.samples, 50), seed=seed, tol=tol)
        for axiom, r in sorted(res.items()):
            _rec(records, f"axiom:{axiom}", name, seed, r, tol.abs_eps)


def _suite_kits(cfg: GenConfig, tol: Tolerance, records: list):
    for name in KIT_ALGEBRAS:
        seed = derive_seed(cfg.master_seed, "kits", name)
        kit = build_kit(_entry(name), tol)
        rep = verify_kit(kit, tol, seed=seed)
        _rec(records, "kit:kronecker", name, seed, rep["kronecker_max"], tol.abs_eps)
        _rec(records, "kit:norm", name, seed, rep["norm_max"], 10.0 + 1e-6,
             detail=str({k: round(v, 6) for k, v in rep["norm_estimates"].items()}))
        _rec(records, "kit:star_symmetry", name, seed, rep["star_symmetry"], tol.abs_eps)
        _rec(records, "kit:central_linearity", name, seed,
             rep["central_linearity"], tol.abs_eps)


def _matrix_of(A: JordanAlgebra, x: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(A.dim)))
    return x.reshape(n, n)


def _suite_topping(cfg: GenConfig, tol: Tolerance, records: list):
    for name in TOPPING_ALGEBRAS:
        A = _entry(name).algebra
        agree = True
        worst = 0.0
        base = derive_seed(cfg.master_seed, "topping", name)
        n_random = max(cfg.samples * 10, 10)
        for k in range(n_random):
            rng = np.random.default_rng(derive_seed(base, "rand", k))
            x = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
            y = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
            mx, my = mult_operator(A, x), mult_operator(A, y)
            r_op = float(np.abs(mx @ my - my @ mx).max())
            X, Y = _matrix_of(A, x), _matrix_of(A, y)
            r_as = float(np.abs(X @ Y - Y @ X).max())
            if (r_op <= tol.abs_eps) != (r_as <= tol.abs_eps):
                agree = False
        _rec(records, "topping:agreement", name, base, 0.0 if agree else 1.0,
             0.5, detail=f"{n_random} random pairs")
        n_built = max(cfg.samples // 2, 5)
        for k in range(n_built):
            rng = np.random.default_rng(derive_seed(base, "built", k))
            x = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
            coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = sum(c * element_power(A, x, d) for d, c in enumerate(coeff))
            mx, my = mult_operator(A, x), mult_operator(A, y)
            scale = max(float(np.abs(my).max()), 1.0)
            r_op = float(np.abs(mx @ my - my @ mx).max()) / scale
            X, Y = _matrix_of(A, x), _matrix_of(A, y)
            r_as = float(np.abs(X @ Y - Y @ X).max()) / scale
            worst = max(worst, r_op, r_as)
        _rec(records, "topping:constructed", name, base, worst, tol.abs_eps,
             detail=f"{n_built} polynomial pairs, commuting both ways")


def _suite_spin_commutant(cfg: GenConfig, tol: Tolerance, records: list):
    for name in SPIN_ALGEBRAS:
        A = _entry(name).algebra
        worst = 0.0
        base = derive_seed(cfg.master_seed, "spin_commutant", name)
        bad_dim = 0
        for k in range(cfg.samples):
            x = random_element(A, derive_seed(base, k), cfg.magnitude)
            if in_center_span(A, x):
                continue
            basis = commutant(A, x, tol)
            if len(basis) != 2:
                bad_dim += 1
                continue
            # projection of the commutant onto span{1, x}
            S = np.stack([A.unit, x]).T
            Q, _ = np.linalg.qr(S)
            for c in basis:
                r = float(np.abs(c - Q @ (Q.conj().T @ c)).max())
                worst = max(worst, r)
        _rec(records, "spin:commutant_dim", name, base, float(bad_dim), 0.5,
             detail=f"{cfg.samples} non-central samples, expect dim 2")
        _rec(records, "spin:commutant_span", name, base, worst, tol.abs_eps)


def _suite_bresar(cfg: GenConfig, tol: Tolerance, records: list):
    for name in CAPELLI_ALGEBRAS:
        A = _entry(name).algebra
        n = int(round(np.sqrt(A.dim)))
        base = derive_seed(cfg.master_seed, "bresar", name)
        for t in range(3):
            gen = make_associating_trace(name, derive_seed(base, "trace", t),
                                         cfg.magnitude)
            B = gen.bilinear
            _rec(records, "bresar:cyclic", name, derive_seed(base, t),
                 trace_associating_residual(A, B), tol.abs_eps)
            _rec(records, "bresar:polarized", name, derive_seed(base, t),
                 bresar_residual(A, B), tol.abs_eps)
            worst = 0.0
            for k in range(cfg.samples):
                rng = np.random.default_rng(derive_seed(base, "pair", t, k))
                x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                worst = max(worst, _leelee_residual(A, B, x, y))
            _rec(records, "bresar:six_term", name, derive_seed(base, t),
                 worst, 10.0 * tol.abs_eps, detail=f"{cfg.samples} pairs")


def _leelee_residual(A: JordanAlgebra, B: BilinearMap,
                     x: np.ndarray, y: np.ndarray) -> float:
    """Associative six-term consequence of [B(x,x), x] = 0 in M_n."""
    n = x.shape[0]

    def bv(u, v):
        return B.apply(u.reshape(-1), v.reshape(-1)).reshape(n, n)

    x2 = x @ x
    b_xx = bv(x, x)
    b_x2x = bv(x2, x)
    b_x2x2 = bv(x2, x2)
    lhs = (
        y @ (2.0 * b_x2x @ x - b_x2x2 - b_xx @ x2)
        + x @ y @ (2.0 * b_x2x - 2.0 * b_xx @ x)
        - x2 @ y @ b_xx
        + (b_x2x2 + x2 @ b_xx - 2.0 * x @ b_x2x) @ y
        + (2.0 * x @ b_xx - 2.0 * b_x2x) @ y @ x
        + b_xx @ y @ x2
    )
    return float(np.abs(lhs).max())


def _suite_capelli(cfg: GenConfig, tol: Tolerance, records: list):
    base = derive_seed(cfg.master_seed, "capelli")
    total = cfg.samples * 5
    forced = cfg.samples
    mismatches = 0
    n_checked = 0
    for k in range(total):
        rng = np.random.default_rng(derive_seed(base, "tuple", k))
        name = CAPELLI_ALGEBRAS[k % len(CAPELLI_ALGEBRAS)]
        m = int(round(np.sqrt(_entry(name).algebra.dim)))
        size = int(rng.integers(2, 5))
        mats = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                for _ in range(size)]
        if k < forced:
            w = rng.standard_normal(size - 1) + 1j * rng.standard_normal(size - 1)
            mats[-1] = sum(c * M for c, M in zip(w, mats[:-1]))
        got = independence_capelli(mats, trials=8, seed=derive_seed(base, "pl", k),
                                   tol=tol)
        want = independence_gram(mats, tol)
        n_checked += 1
        if got != want:
            mismatches += 1
    _rec(records, "capelli:agreement", "matrix:3+matrix:4", base,
         float(mismatches), 0.5,
         detail=f"{n_checked} tuples, {forced} forced-dependent")
    for name in ["matrix:3", "matrix:4", "matrix:5"]:
        kit = build_kit(_entry(name))
        m = int(round(np.sqrt(kit.algebra.dim)))
        u, v = kit.u.reshape(m, m), kit.v.reshape(m, m)
        triple = [u @ u @ v - v @ u @ u,
                  u @ v @ v - v @ v @ u,
                  u @ v - v @ u]
        ok_c = independence_capelli(triple, trials=8,
                                    seed=derive_seed(base, "kit", name), tol=tol)
        ok_g = independence_gram(triple, tol)
        _rec(records, "capelli:kit_triple", name, base,
             0.0 if (ok_c and ok_g) else 1.0, 0.5,
             detail="{[u^2,v],[u,v^2],[u,v]} independent")


def _suite_central_annihilator(cfg: GenConfig, tol: Tolerance, records: list):
    cases = [("matrix:3", True), ("albert", True),
             ("sum:matrix:3+matrix:4", True), ("sum:one+matrix:2", False)]
    for name, want in cases:
        got = central_annihilator_check(_entry(name).algebra, tol)
        _rec(records, "annihilator:trivial", name,
             derive_seed(cfg.master_seed, "ann", name),
             0.0 if got == want else 1.0, 0.5,
             detail=f"expected {want}", expected_failure=not want)


def _suite_decompose_linear(cfg: GenConfig, tol: Tolerance, records: list):
    for name in DECOMPOSE_ALGEBRAS:
        entry = _entry(name)
        A = entry.algebra
        kit = build_kit(entry, tol)
        base = derive_seed(cfg.master_seed, "lin", name)
        adv_rng = np.random.default_rng(derive_seed(base, "mix"))
        for k in range(cfg.samples):
            seed = derive_seed(base, k)
            if adv_rng.random() < cfg.adversarial_rate:
                T = make_adversarial("non_associating", name, seed, cfg.magnitude)
                _rejects(records, "lin:adversarial", name, seed, NotAssociating,
                         decompose_linear, A, T, kit, tol)
                continue
            gen = make_associating_map(name, seed, cfg.magnitude)
            form = decompose_linear(A, gen.op, kit, tol, check=False)
            err = max(float(np.abs(form.lam - gen.lam).max()),
                      float(np.abs(form.mu - gen.mu).max()))
            _rec(records, "lin:recovery", name, seed, err, 10.0 * tol.abs_eps)
            _rec(records, "lin:residual", name, seed, form.residual, tol.abs_eps)


def _suite_decompose_trace(cfg: GenConfig, tol: Tolerance, records: list):
    for name in DECOMPOSE_ALGEBRAS:
        entry = _entry(name)
        A = entry.algebra
        kit = build_kit(entry, tol)
        base = derive_seed(cfg.master_seed, "trace", name)
        for k in range(cfg.samples):
            seed = derive_seed(base, k)
            gen = make_associating_trace(name, seed, cfg.magnitude)
            form = decompose_trace(A, gen.bilinear, kit, tol, check=False)
            err = max(float(np.abs(form.lam - gen.lam).max()),
                      float(np.abs(form.mu - gen.mu).max()),
                      float(np.abs(form.nu.tensor - gen.nu).max()))
            _rec(records, "trace:recovery", name, seed, err, 10.0 * tol.abs_eps)
            _rec(records, "trace:residual", name, seed, form.residual, tol.abs_eps)
            if name.startswith("spin:"):
                _rec(records, "trace:spin_lambda_zero", name, seed,
                     float(np.abs(form.lam).max()), 0.1 * tol.abs_eps)


def _preserver_errors(form, gen):
    return max(float(np.abs(form.z0 - gen.z0).max()),
               float(np.abs(form.J - gen.J).max()),
               float(np.abs(form.beta - gen.beta).max()))


def _suite_preserver(cfg: GenConfig, tol: Tolerance, records: list):
    for name in PRESERVER_ALGEBRAS:
        entry = _entry(name)
        A = entry.algebra
        kit = build_kit(entry, tol)
        alt = build_kit(entry, tol, alternate=True)
        base = derive_seed(cfg.master_seed, "prsv", name)
        for k in range(cfg.samples):
            seed = derive_seed(base, k)
            gen = make_standard_preserver(name, seed, cfg.magnitude)
            form = decompose_preserver(A, A, gen.op, kit, tol, check=False)
            _rec(records, "prsv:recovery", name, seed,
                 _preserver_errors(form, gen), 10.0 * tol.abs_eps)
            _rec(records, "prsv:J_residual", name, seed,
                 jordan_homomorphism_residual(A, A, form.J), tol.abs_eps)
            if k % 10 == 0:
                form2 = decompose_preserver(A, A, gen.op, alt, tol, check=False)
                _rec(records, "prsv:uniqueness", name, seed,
                     _preserver_errors(form, form2),
                     10.0 * tol.abs_eps, detail="two independent kits")


def _suite_preserver_symmetric(cfg: GenConfig, tol: Tolerance, records: list):
    for name in PRESERVER_ALGEBRAS:
        entry = _entry(name)
        A = entry.algebra
        kit = build_kit(entry, tol)
        base = derive_seed(cfg.master_seed, "prsv_sym", name)
        for k in range(max(cfg.samples // 2, 1)):
            seed = derive_seed(base, k)
            gen = make_standard_preserver(name, seed, cfg.magnitude,
                                          symmetric=True)
            form = decompose_preserver(A, A, gen.op, kit, tol, check=False)
            frag = symmetric_preserver_check(A, A, form, tol)
            _rec(records, "prsv_sym:corollary", name, seed, frag["residual"],
                 tol.abs_eps,
                 detail=f"z0* {frag['z0_selfadjoint']:.2e}, "
                        f"J* {frag['J_star_map']:.2e}, "
                        f"beta {frag['beta_symmetric']:.2e}")


def _suite_negative(cfg: GenConfig, tol: Tolerance, records: list):
    base = derive_seed(cfg.master_seed, "neg")

    entry = _entry("spin:4")
    kit_spin = build_kit(entry, tol)
    phi = make_adversarial("spin_generic_bijection", "spin:4", derive_seed(base, 1))
    _rejects(records, "neg:spin_bijection", "spin:4", base, JNotMultiplicative,
             decompose_preserver, entry.algebra, entry.algebra, phi, kit_spin,
             tol, require_e2=False, check=False)

    got = central_annihilator_check(_entry("sum:one+matrix:2").algebra, tol)
    _rec(records, "neg:one_dim_summand", "sum:one+matrix:2", base,
         0.0 if got is False else 1.0, 0.5,
         detail="central annihilator nontrivial", expected_failure=True)

    for name in ["matrix:2", "matrix:3"]:
        entry = _entry(name)
        kit = build_kit(entry, tol)
        A = entry.algebra
        for kind in ["non_associating", "non_central_mu"]:
            T = make_adversarial(kind, name, derive_seed(base, kind))
            _rejects(records, f"neg:{kind}", name, base, NotAssociating,
                     decompose_linear, A, T, kit, tol)

    entry = _entry("matrix:3")
    kit3 = build_kit(entry, tol)
    phi = make_adversarial("broken_J", "matrix:3", derive_seed(base, 2))
    _rejects(records, "neg:broken_J", "matrix:3", base,
             (JNotMultiplicative, ResidualExceeded), decompose_preserver,
             entry.algebra, entry.algebra, phi, kit3, tol, check=False)


def _suite_mixed_products(cfg: GenConfig, tol: Tolerance, records: list):
    name = "sum:matrix:3+matrix:4"
    entry = _entry(name)
    A = entry.algebra
    kit = build_kit(entry, tol)
    base = derive_seed(cfg.master_seed, "mixed")
    n_traces = max(cfg.samples // 10, 3)
    for k in range(n_traces):
        seed = derive_seed(base, k)
        gen_t = make_associating_trace(name, seed, cfg.magnitude)
        for sm in entry.summands:
            frag = mixed_products_check(A, gen_t.bilinear, kit,
                                        sm.central_projection, tol)
            _rec(records, "mixed:standard_form", f"{name}|p={sm.name}", seed,
                 frag["standard_form"], tol.abs_eps)
            _rec(records, "mixed:cross_center", f"{name}|p={sm.name}", seed,
                 frag["cross_center"], tol.abs_eps)
        gen_m = make_associating_map(name, derive_seed(seed, "map"),
                                     cfg.magnitude)
        worst = max(cross_block_residual(A, gen_m.op, sm.central_projection, tol)
                    for sm in entry.summands)
        _rec(records, "mixed:linear_cross_block", name, seed, worst, tol.abs_eps)


SUITES = {
    "axioms": _suite_axioms,
    "kits": _suite_kits,
    "topping": _suite_topping,
    "spin_commutant": _suite_spin_commutant,
    "bresar_identities": _suite_bresar,
    "capelli_agreement": _suite_capelli,
    "central_annihilator": _suite_central_annihilator,
    "decompose_linear_roundtrip": _suite_decompose_linear,
    "decompose_trace_roundtrip": _suite_decompose_trace,
    "preserver_roundtrip": _suite_preserver,
    "preserver_symmetric": _suite_preserver_symmetric,
    "negative_controls": _suite_negative,
    "mixed_products": _suite_mixed_products,
}


def run_suite(name: str, config: GenConfig = None,
              tol: Tolerance = DEFAULT_TOL) -> Report:
    if name not in SUITES:
        raise UnknownSuite(name)
    config = config or GenConfig()
    records: list = []
    SUITES[name](config, tol, records)
    records.sort(key=lambda r: (r["algebra"], r["check_name"], r["seed"],
                                r["detail"]))
    return Report(name, config, records)


def report_to_json(report: Report) -> dict:
    return {
        "suite": report.suite,
        "config": asdict(report.config),
        "records": report.records,
    }


def report_to_markdown(report: Report) -> str:
    lines = [f"# suite: {report.suite}", "",
             f"master_seed={report.config.master_seed} "
             f"samples={report.config.samples} "
             f"magnitude={report.config.magnitude} "
             f"adversarial_rate={report.config.adversarial_rate}", "",
             "| check | algebra | residual | tol | pass | detail |",
             "|---|---|---|---|---|---|"]
    for r in report.records:
        mark = "yes" if r["pass"] else "NO"
        lines.append(f"| {r['check_name']} | {r['algebra']} | "
                     f"{r['residual']:.3e} | {r['tol']:.1e} | {mark} | "
                     f"{r['detail']} |")
    n_pass = sum(1 for r in report.records if r["pass"])
    lines += ["", f"{n_pass}/{len(report.records)} records pass"]
    return "\n".join(lines) + "\n"
