"""Standard-form extraction.

Associating linear maps decompose as T(x) = lambda o x + mu(x), associating
traces as B(x,x) = lambda o x^2 + mu(x) o x + nu(x,x), and bijections
preserving operator commutativity as Phi(x) = z0 o J(x) + beta(x), with
lambda/z0 central, mu/nu/beta center-valued, and J a Jordan isomorphism.
The extraction formulas evaluate elementary-kit operators at kit elements;
every output is re-checked against its defining identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elementary_ops import ElementaryKit
from .jordan_core import (
    JordanAlgebra,
    center_matrix,
    center_projector,
    element_power,
    jordan_homomorphism_residual,
    jordan_inverse,
    linop_to_json,
    mult_operator,
    star_map_residual,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
    tensor_from_json,
    tensor_to_json,
    vector_to_json,
)

__all__ = [
    "DecomposeError",
    "NotAssociating",
    "NotBijective",
    "LambdaNotInvertible",
    "ResidualExceeded",
    "JNotMultiplicative",
    "KitMissing",
    "BilinearMap",
    "LinMapStandardForm",
    "TraceStandardForm",
    "PreserverDecomposition",
    "associator_tensor",
    "associating_linear_residual",
    "is_associating_linear",
    "trace_associating_residual",
    "trace_is_associating",
    "bresar_residual",
    "standard_trace_tensor",
    "decompose_linear",
    "decompose_trace",
    "decompose_preserver",
    "sharp",
    "symmetric_preserver_check",
    "opcomm_preservation_sampled",
    "central_annihilator_check",
    "cross_block_residual",
    "mixed_products_check",
    "bilinear_to_json",
    "bilinear_from_json",
]


class DecomposeError(Exception):
    pass


class NotAssociating(DecomposeError):
    """Input map/trace fails the associating precondition."""


class NotBijective(DecomposeError):
    """Preserver input is not an invertible matrix."""


class LambdaNotInvertible(DecomposeError):
    """Extracted lambda has no Jordan inverse."""


class ResidualExceeded(DecomposeError):
    """Decomposition formulas evaluated but the output fails its identity."""


class JNotMultiplicative(DecomposeError):
    """Candidate J is not a bijective Jordan homomorphism."""


class KitMissing(DecomposeError):
    """No kit, wrong-algebra kit, or a kit without the needed operators."""


@dataclass
class BilinearMap:
    """Symmetric bilinear map stored as B[i][j][.] = coords of B(b_i, b_j)."""
    algebra: JordanAlgebra
    tensor: np.ndarray

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.complex128)
        n = self.algebra.dim
        if self.tensor.shape != (n, n, n):
            raise ValueError("bilinear tensor shape mismatch")

    def apply(self, x, y) -> np.ndarray:
        return np.einsum("i,j,ijl->l", np.asarray(x, dtype=np.complex128),
                         np.asarray(y, dtype=np.complex128), self.tensor,
                         optimize=True)

    def symmetry_residual(self) -> float:
        return float(np.abs(self.tensor - self.tensor.transpose(1, 0, 2)).max())


@dataclass
class LinMapStandardForm:
    lam: np.ndarray
    mu: np.ndarray
    residual: float


@dataclass
class TraceStandardForm:
    lam: np.ndarray
    mu: np.ndarray
    nu: BilinearMap
    residual: float


@dataclass
class PreserverDecomposition:
    z0: np.ndarray
    J: np.ndarray
    beta: np.ndarray
    residual: float


# ---------------------------------------------------------------------------
# associating certificates: exact sweeps over every basis tuple, read on the
# sparse support of the associator.  For each b_m they keep only the columns
# (z, l) where some [b_a, b_m, b_z]_l is nonzero: on func:albert:2, 304 to 468
# of n^2 = 2,916, holding on average 467 of the n^3 = 157,464 coordinates.  A
# term off the support reads an appended zero column.
# The linear and the cyclic sums are symmetric in two slots, so a nonzero
# entry has an ordering with its last slot on the support, and only those
# orderings are formed.  The trace certificate is taken on the symmetric part
# (B + B^T)/2: it equals B bit for bit when B is exactly symmetric, and it
# makes the cyclic sum symmetric in all three slots.


class _AssocSlice(NamedTuple):
    """[b_a, b_m, b_z]_l for one b_m, on the columns (z, l) where it is nonzero."""
    rows: np.ndarray   # the a with [b_a, b_m, .] not identically zero
    z: np.ndarray      # column c is the pair (z[c], l[c])
    l: np.ndarray
    block: np.ndarray  # block[r, c] = [b_rows[r], b_m, b_z[c]]_l[c]
    where: np.ndarray  # where[z, l] = c, or len(z) off the support


def associator_tensor(A: JordanAlgebra) -> tuple:
    """The associator's sparse support, one _AssocSlice per b_m with a
    nonzero associator; cached per algebra.  It is built one b_m at a time
    from ((b_a o b_m) o b_z)_l, so no n^4 array is formed."""
    key = ("assoc",)
    if key not in A._caches:
        n = A.dim
        c = A.structure
        flat = c.reshape(n, n * n)
        support = []
        for m in range(n):
            Y = (c[:, m, :] @ flat).reshape(n, n, n)   # ((b_a o b_m) o b_z)_l
            W = (Y - Y.transpose(1, 0, 2)).reshape(n, n * n)
            nz = W != 0
            cols = np.flatnonzero(nz.any(axis=0))
            if len(cols) == 0:
                continue
            rows = np.flatnonzero(nz.any(axis=1))
            where = np.full(n * n, len(cols))
            where[cols] = np.arange(len(cols))
            support.append(_AssocSlice(rows, *np.divmod(cols, n),
                                       W[np.ix_(rows, cols)], where.reshape(n, n)))
        A._caches[key] = tuple(support)
    return A._caches[key]


def _support_products(support, X):
    """Yield, for each slice s, (s, P) with P[..., c] = sum_a X[..., a]
    [b_a, b_m, b_z]_l at column c = (z, l) and one zero column appended, so
    that P[..., s.where[z, l]] reads every (z, l), on the support or off it.
    Each P overwrites the last: it is valid until the next one is drawn."""
    k_max = max((len(s.z) for s in support), default=0)
    buf = np.empty(len(X) * (k_max + 1), dtype=np.complex128)
    for s in support:
        k = len(s.z)
        P = buf[:len(X) * (k + 1)].reshape(len(X), k + 1)
        P[:, k] = 0.0
        np.matmul(X[:, s.rows], s.block, out=P[:, :k])
        yield s, P


def associating_linear_residual(A: JordanAlgebra, T) -> float:
    """max over basis triples of |[T(b_i), b_m, b_j] + [T(b_j), b_m, b_i]|,
    read at the (j, l) on the support; the sum is symmetric in (i, j)."""
    T = as_cmatrix(T)
    worst = 0.0
    for s, R in _support_products(associator_tensor(A), T.T):
        # R[i, c] = [T(b_i), b_m, b_z]_l; swapped[c, i] = [T(b_z), b_m, b_i]_l
        swapped = R[s.z[:, None], s.where[:, s.l].T]
        worst = max(worst, float(np.abs(R[:, :-1] + swapped.T).max()))
    return worst


def is_associating_linear(A: JordanAlgebra, T,
                          tol: Tolerance = DEFAULT_TOL) -> bool:
    return associating_linear_residual(A, T) <= tol.abs_eps


# the trace certificate takes x (and y) in blocks of rows that fill about
# this many bytes, at least 4 rows: they stay in cache while they are read
_BLOCK_BYTES = 1 << 21


def trace_associating_residual(A: JordanAlgebra, B: BilinearMap) -> float:
    """Cyclic certificate: max residual of
    [B(x,y),m,z] + [B(x,z),m,y] + [B(y,z),m,x] over basis (x,y,z,m), taken
    on the symmetric part of B and read at the (z, l) on the support.  The
    last two terms are added first, so the sum is symmetric in (x, y) bit
    for bit and only the blocks of x <= y are evaluated."""
    n = A.dim
    sym = 0.5 * (B.tensor + B.tensor.transpose(1, 0, 2))
    worst = 0.0
    for s, P in _support_products(associator_tensor(A), sym.reshape(n * n, n)):
        k = len(s.z)
        V = P.reshape(n, n, k + 1)   # V[x, y, c] = [B(x,y),m,z]_l at c = (z, l)
        rows = P.reshape(n, -1)
        swap = s.z * (k + 1) + s.where[:, s.l]   # rows[x, swap[y, c]] = [B(x,z),m,y]_l
        size = max(4, _BLOCK_BYTES // rows[0].nbytes)
        starts = range(0, n, size)
        for i in starts:
            I = slice(i, i + size)
            for j in starts[i // size:]:
                J = slice(j, j + size)
                cyc = np.take(rows[I], swap[J], axis=1)
                cyc += np.take(rows[J], swap[I], axis=1).transpose(1, 0, 2)
                cyc += V[I, J, :k]
                worst = max(worst, float(np.abs(cyc).max()))
    return worst


class _Asymmetric(ValueError):
    """trace_is_associating's refusal, carrying the symmetry residual."""

    def __init__(self, residual: float):
        super().__init__("bilinear map is not symmetric")
        self.residual = residual


def trace_is_associating(A: JordanAlgebra, B: BilinearMap,
                         tol: Tolerance = DEFAULT_TOL) -> bool:
    """The cyclic certificate within tol; B must be symmetric within tol."""
    sym = B.symmetry_residual()
    if sym > tol.abs_eps:
        raise _Asymmetric(sym)
    return trace_associating_residual(A, B) <= tol.abs_eps


def _require_associating(A, B: BilinearMap, tol, what: str):
    try:
        associating = trace_is_associating(A, B, tol)
    except _Asymmetric as err:
        raise NotAssociating(
            f"{what} is not symmetric: residual {err.residual:.3e}") from None
    if not associating:
        raise NotAssociating(f"{what} fails the cyclic associator certificate")


def bresar_residual(A: JordanAlgebra, B: BilinearMap) -> float:
    """max over basis triples of |2[B(x,y),a,y] + [B(y,y),a,x]|, on B as
    given; both terms are gathered from the support products of B."""
    n = A.dim
    ar = np.arange(n)
    worst = 0.0
    for s, P in _support_products(associator_tensor(A), B.tensor.reshape(n * n, n)):
        V = P.reshape(n, n, -1)   # V[x, y, c] = [B(x,y),a,z]_l at c = (z, l)
        two = 2.0 * V[:, ar[:, None], s.where]                     # [B(x,y),a,y]
        anchor = V[ar, ar][ar[None, :, None], s.where[:, None, :]]  # [B(y,y),a,x]
        worst = max(worst, float(np.abs(two + anchor).max()))
    return worst


# ---------------------------------------------------------------------------
# decompositions


def _kit_for(A: JordanAlgebra, kit: ElementaryKit):
    if kit is None:
        raise KitMissing("no elementary kit supplied")
    if kit.algebra.dim != A.dim:
        raise KitMissing("kit built over a different algebra")
    if 0 not in kit.e_ops or 1 not in kit.e_ops:
        raise KitMissing("kit lacks E0/E1")
    return kit


def _center_column_residual(A: JordanAlgebra, M, tol) -> float:
    """How far the columns of M stray from span(center)."""
    P = center_projector(A, tol)
    M = as_cmatrix(M)
    return float(np.abs(M - P @ M).max())


def decompose_linear(A: JordanAlgebra, T, kit: ElementaryKit,
                     tol: Tolerance = DEFAULT_TOL,
                     check: bool = True) -> LinMapStandardForm:
    """T(x) = lambda o x + mu(x) with lambda = E1(T(u)),
    mu = E0 T - M_lambda E0."""
    kit = _kit_for(A, kit)
    T = as_cmatrix(T)
    if check and not is_associating_linear(A, T, tol):
        raise NotAssociating("map fails the polarized associator certificate")
    lam = kit.apply(1, T @ kit.u)
    mu = kit.e_ops[0] @ T - mult_operator(A, lam) @ kit.e_ops[0]
    recon = float(np.abs(T - mult_operator(A, lam) - mu).max())
    central = _center_column_residual(A, lam.reshape(-1, 1), tol)
    mu_central = _center_column_residual(A, mu, tol)
    residual = max(recon, central, mu_central)
    if residual > tol.abs_eps:
        raise ResidualExceeded(
            f"standard-form residual {residual:.3e} exceeds {tol.abs_eps:.1e}")
    return LinMapStandardForm(lam, mu, residual)


def standard_trace_tensor(A: JordanAlgebra, lam, mu, nu_t) -> np.ndarray:
    """Tensor of the standard form
    B(x,y) = lambda o (x o y) + (mu(x) o y + mu(y) o x)/2 + nu(x,y)."""
    c = A.structure
    t = np.einsum("ijm,lm->ijl", c, mult_operator(A, lam), optimize=True)
    half = np.einsum("mi,mjl->ijl", mu, c, optimize=True)
    return t + 0.5 * (half + half.transpose(1, 0, 2)) + nu_t


def _extract_trace(A: JordanAlgebra, B: BilinearMap, kit: ElementaryKit):
    """lambda and mu by the kit formulas, without asserting the outcome."""
    w = kit.u
    Bww = B.apply(w, w)
    if kit.has_e2():
        lam = kit.apply(2, Bww)
    elif A.name.startswith("spin:"):
        lam = np.zeros(A.dim, dtype=np.complex128)
    else:
        raise KitMissing("kit has no E2 and the algebra is not a spin factor")
    # BW[l,j] = l-th coord of B(w, b_j)
    BW = np.einsum("i,ijl->lj", w, B.tensor, optimize=True)
    e1 = kit.e_ops[1]
    mu = 2.0 * e1 @ BW \
        - 2.0 * mult_operator(A, lam) @ e1 @ mult_operator(A, w) \
        - mult_operator(A, kit.apply(1, Bww)) @ e1
    return lam, mu


def decompose_trace(A: JordanAlgebra, B: BilinearMap, kit: ElementaryKit,
                    tol: Tolerance = DEFAULT_TOL,
                    check: bool = True) -> TraceStandardForm:
    """Full kits: lambda = E2(B(w,w)),
    mu(x) = 2E1(B(w,x)) - 2 lambda o E1(w o x) - E1(B(w,w)) o E1(x),
    nu(x,y) = E0(B(x,y)) - lambda o E0(x o y) - (mu(x) o E0(y) + mu(y) o E0(x))/2,
    the polarization of nu(x,x) = E0(B(x,x)) - lambda o E0(x^2) - mu(x) o E0(x).
    Kits without E2 serve spin factors only; lambda is identically zero
    there, and the lambda terms drop out.
    """
    kit = _kit_for(A, kit)
    if check:
        _require_associating(A, B, tol, "trace")
    lam, mu = _extract_trace(A, B, kit)
    c = A.structure
    e0 = kit.e_ops[0]
    half = np.einsum("ai,bj,abl->ijl", mu, e0, c, optimize=True)
    nu_t = np.einsum("ijm,lm->ijl", B.tensor, e0, optimize=True) \
        - np.einsum("ijm,lm->ijl", c, mult_operator(A, lam) @ e0, optimize=True) \
        - 0.5 * (half + half.transpose(1, 0, 2))
    recon = float(np.abs(B.tensor - standard_trace_tensor(A, lam, mu, nu_t)).max())
    central = _center_column_residual(A, lam.reshape(-1, 1), tol)
    mu_central = _center_column_residual(A, mu, tol)
    nu_central = _center_column_residual(A, nu_t.reshape(A.dim * A.dim, A.dim).T, tol)
    residual = max(recon, central, mu_central, nu_central)
    if residual > tol.abs_eps:
        raise ResidualExceeded(
            f"trace standard-form residual {residual:.3e} exceeds {tol.abs_eps:.1e}")
    return TraceStandardForm(lam, mu, BilinearMap(A, nu_t), residual)


def _inverse_or_raise(phi) -> np.ndarray:
    phi = as_cmatrix(phi)
    if phi.shape[0] != phi.shape[1]:
        raise NotBijective("map is not square")
    sv = np.linalg.svd(phi, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise NotBijective("map is numerically singular")
    return np.linalg.inv(phi)


def induced_trace(A: JordanAlgebra, B_alg: JordanAlgebra, phi) -> BilinearMap:
    """B(x,y) = Phi(Phi^{-1}(x) o Phi^{-1}(y)) on the codomain."""
    phi = as_cmatrix(phi)
    inv = _inverse_or_raise(phi)
    tmp = np.einsum("ai,abm->ibm", inv, A.structure, optimize=True)
    prod = np.einsum("bj,ibm->ijm", inv, tmp, optimize=True)
    return BilinearMap(B_alg, np.einsum("ijm,lm->ijl", prod, phi, optimize=True))


def _refine_j(A: JordanAlgebra, B_alg: JordanAlgebra, phi, lam, mu1,
              tol: Tolerance):
    """At most three Gauss-Newton steps on J(b_i o b_j) - J(b_i) o J(b_j) over
    lambda = Z a, mu1 = Z M (Z the center basis).  J = (M_lambda + mu1/2) Phi
    is linear in x = (a, M), so the Jacobian is exact; its rows are compressed
    by QR one b_i at a time.  Returns (lambda, J, steps taken, J residual)."""
    Z = center_matrix(B_alg, tol)
    cA, cB = A.structure, B_alg.structure
    G = np.concatenate([  # G[p] = dJ/dx_p
        np.einsum("id,ijk,jm->dkm", Z, cB, phi, optimize=True),
        0.5 * np.einsum("kd,lm->dlkm", Z, phi).reshape(-1, B_alg.dim, A.dim)])
    P = len(G)
    x = np.concatenate([Z.conj().T @ lam, (Z.conj().T @ mu1).ravel()])
    J = np.tensordot(x, G, axes=1)
    res = jordan_homomorphism_residual(A, B_alg, J)
    for taken in range(3):
        T = np.einsum("bj,abk->ajk", J, cB, optimize=True)
        R = np.tensordot(cA, J, axes=([2], [1])) \
            - np.einsum("ai,ajk->ijk", J, T, optimize=True)
        Rf = np.zeros((0, P + 1))
        for i in range(A.dim):
            # d R[i, j, k] / d x_p, with the residual row appended
            jac = np.einsum("jm,pkm->pjk", cA[i], G, optimize=True) \
                - np.einsum("pa,ajk->pjk", G[:, :, i], T, optimize=True) \
                - np.einsum("paj,ak->pjk", G, T[:, i], optimize=True)
            block = np.column_stack([jac.reshape(P, -1).T, -R[i].ravel()])
            Rf = np.linalg.qr(np.vstack([Rf, block]), mode="r")
        x_new = x + np.linalg.lstsq(Rf[:, :P], Rf[:, P], rcond=None)[0]
        J_new = np.tensordot(x_new, G, axes=1)
        res_new = jordan_homomorphism_residual(A, B_alg, J_new)
        if not res_new < res:
            return Z @ x[:Z.shape[1]], J, taken, res
        x, J, res = x_new, J_new, res_new
    return Z @ x[:Z.shape[1]], J, 3, res


def decompose_preserver(A: JordanAlgebra, B_alg: JordanAlgebra, phi,
                        kit: ElementaryKit, tol: Tolerance = DEFAULT_TOL,
                        require_e2: bool = True,
                        check: bool = True) -> PreserverDecomposition:
    """Phi = M_z0 J + beta via the induced trace on the codomain:
    J = (M_lambda + mu1/2) Phi and z0 = lambda^{-1}.  When rounding leaves J
    off the homomorphisms (an ill-conditioned Phi), _refine_j refines it first.

    require_e2=False is the dedicated test mode that walks spin factors
    into the constructive argument; generic bijections then fail with
    JNotMultiplicative, which is the point of the counterexample.
    """
    kit = _kit_for(B_alg, kit)
    if require_e2 and not kit.has_e2():
        raise KitMissing("preserver decomposition needs an E2-bearing kit")
    phi = as_cmatrix(phi)
    if phi.shape != (B_alg.dim, A.dim):
        raise NotBijective("map shape does not match the algebras")
    B = induced_trace(A, B_alg, phi)
    if check:
        _require_associating(B_alg, B, tol, "induced trace")
    lam, mu1 = _extract_trace(B_alg, B, kit)
    J = (mult_operator(B_alg, lam) + 0.5 * mu1) @ phi
    hom_res = jordan_homomorphism_residual(A, B_alg, J)
    steps = 0
    if hom_res > tol.abs_eps:
        lam, J, steps, hom_res = _refine_j(A, B_alg, phi, lam, mu1, tol)
    sv = np.linalg.svd(J, compute_uv=False)
    if hom_res > tol.abs_eps or sv[-1] <= 1e-12 * sv[0]:
        raise JNotMultiplicative(
            f"candidate J residual {hom_res:.3e} after {steps} refinement "
            f"steps, min sv ratio {sv[-1] / sv[0]:.3e}")
    z0 = jordan_inverse(B_alg, lam, tol)
    if z0 is None:
        raise LambdaNotInvertible("extracted lambda has no Jordan inverse")
    beta = phi - mult_operator(B_alg, z0) @ J
    beta_central = _center_column_residual(B_alg, beta, tol)
    if beta_central > tol.abs_eps:
        raise ResidualExceeded(
            f"beta strays from the center by {beta_central:.3e}")
    return PreserverDecomposition(z0, J, beta, max(hom_res, beta_central))


# ---------------------------------------------------------------------------
# sharp conjugation and the symmetric corollary


def sharp(phi, A: JordanAlgebra, B_alg: JordanAlgebra) -> np.ndarray:
    """phi_sharp(x) = phi(x*)*; as matrices S_B conj(phi) conj(S_A)."""
    phi = as_cmatrix(phi)
    return B_alg.star @ np.conj(phi) @ np.conj(A.star)


def symmetric_preserver_check(A: JordanAlgebra, B_alg: JordanAlgebra,
                              decomp: PreserverDecomposition,
                              tol: Tolerance = DEFAULT_TOL) -> dict:
    """For sharp-symmetric Phi: z0 self-adjoint, J a star map, beta
    sharp-symmetric."""
    from .jordan_core import star_apply
    z0_res = float(np.abs(star_apply(B_alg, decomp.z0) - decomp.z0).max())
    j_res = star_map_residual(A, B_alg, decomp.J)
    beta_res = float(np.abs(sharp(decomp.beta, A, B_alg) - decomp.beta).max())
    worst = max(z0_res, j_res, beta_res)
    return {
        "z0_selfadjoint": z0_res,
        "J_star_map": j_res,
        "beta_symmetric": beta_res,
        "residual": worst,
        "passed": bool(worst <= tol.abs_eps),
    }


# ---------------------------------------------------------------------------
# sampled preservation of operator commutativity


def _commuting_pairs(A: JordanAlgebra, samples: int, seed: int, summands=None):
    rng = np.random.default_rng([seed, A.dim])
    n = A.dim
    Z = center_matrix(A)
    kinds = ["poly", "central"] + (["blocks"] if summands and len(summands) > 1 else [])
    for k in range(samples):
        kind = kinds[k % len(kinds)]
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if kind == "poly":
            coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = sum(c * element_power(A, x, d) for d, c in enumerate(coeff))
        elif kind == "central":
            t = rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1])
            y = Z @ t
        else:
            i, j = rng.choice(len(summands), size=2, replace=False)
            si, sj = summands[i], summands[j]
            x2 = np.zeros(n, dtype=np.complex128)
            y2 = np.zeros(n, dtype=np.complex128)
            x2[si.offset:si.offset + si.dim] = x[si.offset:si.offset + si.dim]
            y2[sj.offset:sj.offset + sj.dim] = rng.standard_normal(sj.dim) \
                + 1j * rng.standard_normal(sj.dim)
            x, y = x2, y2
        yield x, y


def _opcomm_residual(A: JordanAlgebra, x, y) -> float:
    mx = mult_operator(A, x)
    my = mult_operator(A, y)
    return float(np.abs(mx @ my - my @ mx).max())


def opcomm_preservation_sampled(A: JordanAlgebra, B_alg: JordanAlgebra, phi,
                                samples: int = 50, seed: int = 0,
                                tol: Tolerance = DEFAULT_TOL,
                                summands=None) -> dict:
    """Push sampled commuting pairs through phi (and pulled-back pairs
    through phi^{-1}); count how many stay operator-commuting."""
    phi = as_cmatrix(phi)
    inv = _inverse_or_raise(phi)
    fwd_pass = bwd_pass = 0
    fwd_max = bwd_max = 0.0
    for x, y in _commuting_pairs(A, samples, seed, summands):
        r = _opcomm_residual(B_alg, phi @ x, phi @ y)
        fwd_max = max(fwd_max, r)
        fwd_pass += r <= tol.abs_eps
    for x, y in _commuting_pairs(B_alg, samples, seed + 1):
        r = _opcomm_residual(A, inv @ x, inv @ y)
        bwd_max = max(bwd_max, r)
        bwd_pass += r <= tol.abs_eps
    return {
        "samples": samples,
        "forward_pass": int(fwd_pass),
        "inverse_pass": int(bwd_pass),
        "forward_max_residual": fwd_max,
        "inverse_max_residual": bwd_max,
        "passed": bool(fwd_pass == samples and bwd_pass == samples),
    }


# ---------------------------------------------------------------------------
# structure probes used by the negative controls and the direct-sum suites


def central_annihilator_check(A: JordanAlgebra,
                              tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no nonzero central c keeps c o x central for every x."""
    from .numerics import kernel_basis
    Z = center_matrix(A, tol)
    P = center_projector(A, tol)
    n = A.dim
    G = np.einsum("ijk,jd->ikd", A.structure, Z, optimize=True)
    G = np.einsum("lk,ikd->ild", np.eye(n) - P, G, optimize=True)
    ker = kernel_basis(G.reshape(n * n, Z.shape[1]), tol)
    return len(ker) == 0


def cross_block_residual(A: JordanAlgebra, T, p,
                         tol: Tolerance = DEFAULT_TOL) -> float:
    """How far the compression M_p T M_q (q = 1-p) is from center-valued."""
    T = as_cmatrix(T)
    mp = mult_operator(A, p)
    mq = mult_operator(A, A.unit - np.asarray(p, dtype=np.complex128))
    return _center_column_residual(A, mp @ T @ mq, tol)


def mixed_products_check(A: JordanAlgebra, B: BilinearMap, kit: ElementaryKit,
                         p, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Mixed-block structure of an associating trace over a central
    projection p: with q = 1-p and mu_t(z) = p o E1(B(p o u, z)),

        p o B(y, z) - mu_t(z) o y   is center-valued  (y in pJ, z in qJ)
        p o B(z, z')                is center-valued  (z, z' in qJ)
    """
    kit = _kit_for(A, kit)
    p = np.asarray(p, dtype=np.complex128)
    q = A.unit - p
    mp = mult_operator(A, p)
    mq = mult_operator(A, q)
    n = A.dim
    pu = mp @ kit.u
    # mu_t[l,z] = coords of p o E1(B(p o u, b_z)), z restricted by M_q below
    BW = np.einsum("i,ijl->lj", pu, B.tensor, optimize=True)
    mu_t = mp @ kit.e_ops[1] @ BW @ mq

    # G[y,z,l] = p o B(M_p b_y, M_q b_z) - mu_t(M_q b_z) o b_y
    Bt = np.einsum("ai,bj,abm,lm->ijl", mp, mq, B.tensor, mp, optimize=True)
    c = A.structure
    corr = np.einsum("mj,iml->ijl", mu_t, c, optimize=True)
    G = Bt - corr
    form_res = _center_column_residual(A, G.reshape(n * n, n).T, tol)

    # q-q block compressed by p
    qq = np.einsum("ai,bj,abm,lm->ijl", mq, mq, B.tensor, mp, optimize=True)
    qq_res = _center_column_residual(A, qq.reshape(n * n, n).T, tol)
    mu_res = _center_column_residual(A, mu_t, tol)
    worst = max(form_res, qq_res, mu_res)
    return {
        "standard_form": form_res,
        "cross_center": qq_res,
        "mu_center": mu_res,
        "residual": worst,
        "passed": bool(worst <= tol.abs_eps),
    }


# ---------------------------------------------------------------------------
# JSON casing


def bilinear_to_json(B: BilinearMap) -> dict:
    return {"algebra": B.algebra.name, "tensor": tensor_to_json(B.tensor)}


def bilinear_from_json(obj: dict, A: JordanAlgebra) -> BilinearMap:
    return BilinearMap(A, tensor_from_json(obj["tensor"], A.dim))


def linmap_form_to_json(A: JordanAlgebra, form: LinMapStandardForm) -> dict:
    return {
        "lambda": vector_to_json(form.lam),
        "mu": linop_to_json(A, form.mu)["matrix"],
        "residual": form.residual,
    }


def trace_form_to_json(A: JordanAlgebra, form: TraceStandardForm) -> dict:
    return {
        "lambda": vector_to_json(form.lam),
        "mu": linop_to_json(A, form.mu)["matrix"],
        "nu": bilinear_to_json(form.nu)["tensor"],
        "residual": form.residual,
    }


def preserver_to_json(A: JordanAlgebra, B_alg: JordanAlgebra,
                      dec: PreserverDecomposition) -> dict:
    return {
        "z0": vector_to_json(dec.z0),
        "J": linop_to_json(B_alg, dec.J)["matrix"],
        "beta": linop_to_json(B_alg, dec.beta)["matrix"],
        "residual": dec.residual,
    }
