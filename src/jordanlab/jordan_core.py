"""Structure-constant engine for finite-dimensional Jordan algebras.

An algebra is a complex 3-tensor c with b_i o b_j = sum_k c[i,j,k] b_k,
a unit vector, and an involution x* = S conj(x).  Elements are plain
numpy coordinate vectors; linear operators are plain dim x dim matrices.
All checks are tolerance-based through numerics.Tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
    as_cvector,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    solve_linear,
    tensor_from_json,
    tensor_to_json,
    vector_from_json,
    vector_to_json,
)

__all__ = [
    "JordanAlgebra",
    "product",
    "associator",
    "mult_operator",
    "u_operator",
    "element_power",
    "star_apply",
    "commutant",
    "ideal_blocks",
    "center_basis",
    "center_matrix",
    "center_projector",
    "in_center_span",
    "jordan_inverse",
    "is_projection",
    "is_symmetry",
    "jordan_homomorphism_residual",
    "star_map_residual",
    "check_axioms",
    "algebra_to_json",
    "algebra_from_json",
    "element_to_json",
    "element_from_json",
    "linop_to_json",
    "linop_from_json",
]


@dataclass
class JordanAlgebra:
    name: str
    dim: int
    structure: np.ndarray  # (dim, dim, dim) complex
    unit: np.ndarray       # (dim,)
    star: np.ndarray       # (dim, dim); x* = star @ conj(x)
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("empty algebras are rejected")
        self.structure = np.ascontiguousarray(self.structure, dtype=np.complex128)
        self.unit = as_cvector(self.unit)
        self.star = as_cmatrix(self.star)
        n = self.dim
        if self.structure.shape != (n, n, n):
            raise ValueError("structure tensor shape mismatch")
        if self.unit.shape != (n,) or self.star.shape != (n, n):
            raise ValueError("unit/star shape mismatch")


def _check_dim(A: JordanAlgebra, *vecs):
    for v in vecs:
        if np.asarray(v).shape[-1] != A.dim:
            raise ValueError(f"element does not live in algebra {A.name!r}")


def product(A: JordanAlgebra, x, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.complex128)
    _check_dim(A, y)
    return mult_operator(A, x) @ y


def associator(A: JordanAlgebra, x, a, y) -> np.ndarray:
    """[x, a, y] = (x o a) o y - (y o a) o x."""
    return product(A, product(A, x, a), y) - product(A, product(A, y, a), x)


def mult_operator(A: JordanAlgebra, a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    _check_dim(A, a)
    n = A.dim
    # row j of a @ c, with c viewed as (n, n^2), holds a o b_j
    return (a @ A.structure.reshape(n, n * n)).reshape(n, n).T


def u_operator(A: JordanAlgebra, a, c=None) -> np.ndarray:
    """U_{a,c}(b) = (a o b) o c + (b o c) o a - (a o c) o b; U_a = U_{a,a}."""
    if c is None:
        c = a
    Ma = mult_operator(A, a)
    Mc = mult_operator(A, c)
    Mac = mult_operator(A, product(A, a, c))
    return Mc @ Ma + Ma @ Mc - Mac


def element_power(A: JordanAlgebra, a, k: int) -> np.ndarray:
    """a^k with a^1 = a, a^k = a^(k-1) o a; a^0 = unit."""
    if k < 0:
        raise ValueError("negative powers need jordan_inverse")
    out = A.unit.copy()
    for _ in range(k):
        out = product(A, out, a)
    return out


def star_apply(A: JordanAlgebra, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    _check_dim(A, x)
    return A.star @ np.conj(x)


def _associator_blocks(c: np.ndarray, Mx: np.ndarray) -> np.ndarray:
    """The blocks M_{x o b_a} - M_x M_{b_a} of y -> [x, b_a, y] under the
    structure tensor c, stacked over a into an (n^2, n) system; Mx = M_x."""
    n = len(c)
    # column a of M_x is x o b_a, and M_y [k, j] = (y @ c)[j, k]
    blocks = (Mx.T @ c.reshape(n, n * n)).reshape(n, n, n) - c @ Mx.T
    return blocks.transpose(0, 2, 1).reshape(n * n, n)


def commutant(A: JordanAlgebra, x, tol: Tolerance = DEFAULT_TOL) -> list:
    """Basis of {y : [x, b_i, y] = 0 for every basis element b_i}: the
    kernel of the stacked associator blocks."""
    return kernel_basis(_associator_blocks(A.structure, mult_operator(A, x)), tol)


def ideal_blocks(A: JordanAlgebra) -> list:
    """Index sets of the ideals whose direct sum is A, ordered by their first
    index; cached.  Link i ~ j when b_i o b_j != 0 and i ~ k when
    (b_i o b_j)_k != 0: a connected component is closed under the product
    and multiplies every other one to zero, so it spans an ideal.  Read off
    the zero pattern of the structure tensor, the split needs no tolerance.
    """
    key = ("ideals",)
    if key not in A._caches:
        nz = A.structure != 0
        reach = nz.any(axis=2) | nz.any(axis=1)
        reach |= reach.T | np.eye(A.dim, dtype=bool)
        for _ in range(int(A.dim).bit_length()):   # joins paths up to 2^k > n long
            reach = reach @ reach
        # row i is i's component; it is listed at its first index only
        A._caches[key] = [np.flatnonzero(r) for i, r in enumerate(reach)
                          if r.argmax() == i]
    return [b.copy() for b in A._caches[key]]


def center_basis(A: JordanAlgebra, tol: Tolerance = DEFAULT_TOL) -> list:
    """Basis of the center: elements operator commuting with everything.

    The center of a direct sum is the sum of the centers, so each ideal of
    ideal_blocks is solved on its own sub-tensor: the commutant systems of
    its m basis elements stack m^3 rows, compressed block by block with QR
    updates (orthogonal transforms preserve singular values exactly); the
    kernel of the m x m triangular factor is embedded with zeros.
    """
    key = ("center", tol.abs_eps)
    if key not in A._caches:
        basis = []
        for idx in ideal_blocks(A):
            c = A.structure[np.ix_(idx, idx, idx)]
            R = None
            for i in range(len(idx)):
                K = _associator_blocks(c, c[i].T)     # M_{b_i} = c[i]^T
                stacked = K if R is None else np.vstack([R, K])
                R = np.linalg.qr(stacked, mode="r")
            for v in kernel_basis(R, tol):
                basis.append(np.zeros(A.dim, dtype=np.complex128))
                basis[-1][idx] = v
        A._caches[key] = basis
    return [v.copy() for v in A._caches[key]]


def center_matrix(A: JordanAlgebra, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Center basis as columns of an n x d matrix (d = center dimension)."""
    basis = center_basis(A, tol)
    if not basis:
        return np.zeros((A.dim, 0), dtype=np.complex128)
    return np.stack(basis, axis=1)


def center_projector(A: JordanAlgebra, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the center span (center basis is orthonormal)."""
    key = ("center_proj", tol.abs_eps)
    if key not in A._caches:
        Z = center_matrix(A, tol)
        A._caches[key] = Z @ Z.conj().T
    return A._caches[key]


def in_center_span(A: JordanAlgebra, x, tol: Tolerance = DEFAULT_TOL) -> bool:
    x = np.asarray(x, dtype=np.complex128)
    P = center_projector(A, tol)
    return bool(np.abs(x - P @ x).max() <= tol.abs_eps * (1.0 + np.abs(x).max()))


def jordan_inverse(A: JordanAlgebra, a, tol: Tolerance = DEFAULT_TOL):
    """The b with a o b = 1 and a^2 o b = a, or None when a is singular."""
    a = np.asarray(a, dtype=np.complex128)
    _check_dim(A, a)
    Ma = mult_operator(A, a)
    Ma2 = mult_operator(A, product(A, a, a))
    lhs = np.vstack([Ma, Ma2])
    rhs = np.concatenate([A.unit, a])
    return solve_linear(lhs, rhs, tol)


def _square_residual(A: JordanAlgebra, x, target) -> float:
    """max(|x* - x|, |x o x - target|): 0 for a projection when target is x,
    and for a symmetry when target is the unit."""
    x = np.asarray(x, dtype=np.complex128)
    _check_dim(A, x)
    return max(np.abs(star_apply(A, x) - x).max(),
               np.abs(product(A, x, x) - target).max())


def is_projection(A: JordanAlgebra, p, tol: Tolerance = DEFAULT_TOL) -> bool:
    """p* = p = p o p.  The zero element counts as a projection."""
    return bool(_square_residual(A, p, p) <= tol.abs_eps)


def is_symmetry(A: JordanAlgebra, s, tol: Tolerance = DEFAULT_TOL) -> bool:
    """s = s* and s o s = 1.  The zero element is never a symmetry."""
    return bool(_square_residual(A, s, A.unit) <= tol.abs_eps)


def jordan_homomorphism_residual(A: JordanAlgebra, B: JordanAlgebra, J) -> float:
    """max |J(b_i o b_j) - J(b_i) o J(b_j)| over all basis pairs."""
    J = np.asarray(J, dtype=np.complex128)
    if J.shape != (B.dim, A.dim):
        raise ValueError("homomorphism matrix shape mismatch")
    # lhs[i,j,k] = k-th coord of J(b_i o b_j)
    lhs = np.tensordot(A.structure, J, axes=([2], [1]))
    # rhs[i,j,k] = sum_{a,b} J[a,i] J[b,j] cB[a,b,k]
    tmp = np.tensordot(J, B.structure, axes=([0], [0]))      # (i, b, k)
    rhs = np.einsum("bj,ibk->ijk", J, tmp, optimize=True)
    return float(np.abs(lhs - rhs).max())


def star_map_residual(A: JordanAlgebra, B: JordanAlgebra, J) -> float:
    """max |J(x*) - J(x)*|, as the matrix identity J S_A = S_B conj(J)."""
    J = np.asarray(J, dtype=np.complex128)
    return float(np.abs(J @ A.star - B.star @ np.conj(J)).max())


def check_axioms(A: JordanAlgebra, samples: int = 50, seed: int = 0,
                 tol: Tolerance = DEFAULT_TOL) -> dict:
    """Residuals for the algebra axioms on `samples` random pairs.

    Keys: commutativity, unit, jordan_identity, star_involutive,
    star_multiplicative, star_unit.  All should be ~0 for a valid algebra.
    """
    rng = np.random.default_rng(seed)
    n = A.dim
    c = A.structure
    res = {}
    res["commutativity"] = float(np.abs(c - c.transpose(1, 0, 2)).max())
    res["unit"] = float(np.abs(mult_operator(A, A.unit) - np.eye(n)).max())
    r_jordan = 0.0
    r_star_mult = 0.0
    for _ in range(samples):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a2 = product(A, a, a)
        lhs = product(A, product(A, a2, b), a)
        rhs = product(A, product(A, a, b), a2)
        r_jordan = max(r_jordan, float(np.abs(lhs - rhs).max()))
        sm = star_apply(A, product(A, a, b)) - product(
            A, star_apply(A, a), star_apply(A, b))
        r_star_mult = max(r_star_mult, float(np.abs(sm).max()))
    res["jordan_identity"] = r_jordan
    res["star_multiplicative"] = r_star_mult
    inv = A.star @ np.conj(A.star)
    res["star_involutive"] = float(np.abs(inv - np.eye(n)).max())
    res["star_unit"] = float(np.abs(star_apply(A, A.unit) - A.unit).max())
    return res


# ---------------------------------------------------------------------------
# JSON casing


def algebra_to_json(A: JordanAlgebra) -> dict:
    return {
        "name": A.name,
        "dim": A.dim,
        "unit": vector_to_json(A.unit),
        "structure": tensor_to_json(A.structure),
        "star": matrix_to_json(A.star),
    }


def algebra_from_json(obj: dict) -> JordanAlgebra:
    n = int(obj["dim"])
    return JordanAlgebra(
        name=str(obj["name"]),
        dim=n,
        structure=tensor_from_json(obj["structure"], n),
        unit=vector_from_json(obj["unit"]),
        star=matrix_from_json(obj["star"]),
    )


def element_to_json(A: JordanAlgebra, x) -> dict:
    return {"algebra": A.name, "coords": vector_to_json(x)}


def element_from_json(obj: dict) -> np.ndarray:
    return vector_from_json(obj["coords"])


def linop_to_json(A: JordanAlgebra, M) -> dict:
    return {"algebra": A.name, "matrix": matrix_to_json(M)}


def linop_from_json(obj: dict) -> np.ndarray:
    return matrix_from_json(obj["matrix"])
