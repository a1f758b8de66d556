"""Concrete algebra constructors: matrix Jordan algebras, spin factors,
the 27-dimensional exceptional algebra, direct sums and finite function
algebras, with the canonical frames (projections + exchanging symmetries)
the elementary-operator constructions start from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .jordan_core import JordanAlgebra
from .octonion import TENSOR as OCT_TENSOR

__all__ = [
    "Frame",
    "FrameSymmetry",
    "Summand",
    "matrix_jordan",
    "matrix_unit_index",
    "matrix_coords",
    "permutation_symmetry",
    "spin_factor",
    "spin_frame",
    "one_dim",
    "albert_algebra",
    "albert_symmetry_catalog",
    "direct_sum",
    "function_algebra",
    "algebra_by_name",
    "ZooEntry",
    "registry_names",
]


@dataclass
class FrameSymmetry:
    element: np.ndarray
    source: int  # U_s(p_source) = p_target
    target: int


@dataclass
class Frame:
    projections: list
    symmetries: list  # of FrameSymmetry


@dataclass
class Summand:
    name: str
    offset: int
    dim: int
    central_projection: np.ndarray   # the summand's unit in the sum


# ---------------------------------------------------------------------------
# matrix Jordan algebras


def matrix_unit_index(n: int, i: int, j: int) -> int:
    return i * n + j


def matrix_coords(M) -> np.ndarray:
    M = np.asarray(M, dtype=np.complex128)
    return M.reshape(-1)


def permutation_symmetry(n: int, perm) -> np.ndarray:
    """Coordinates of the permutation matrix of an involution sigma.

    sigma is given as a dict {i: j} of swapped index pairs (both directions
    listed or not; fixed points implied).  The result is a symmetry element
    of matrix_jordan(n) exchanging e_ii and e_jj under U_s.
    """
    full = np.arange(n)
    for i, j in perm.items():
        full[i], full[j] = j, i
    return matrix_coords(np.eye(n)[full])


def matrix_jordan(n: int):
    """M_n(C) with a o b = (ab + ba)/2 over the matrix-unit basis e_ij.

    Returns (algebra, frame); the frame holds the diagonal projections and
    one transposition symmetry per pair (i, j).
    """
    if n < 2:
        raise ValueError("matrix_jordan needs n >= 2")
    dim = n * n
    E = np.eye(dim).reshape(dim, n, n)          # E[a] = e_ij, a = i*n + j
    P = np.einsum("aij,bjk->abik", E, E)        # P[a, b] = E[a] E[b]
    c = (0.5 * (P + P.transpose(1, 0, 2, 3))).reshape(dim, dim, dim)
    unit = matrix_coords(np.eye(n))
    # conjugate transpose: coordinate conjugation then index transposition
    S = np.eye(dim)[np.arange(dim).reshape(n, n).T.ravel()]
    A = JordanAlgebra(name=f"matrix:{n}", dim=dim, structure=c, unit=unit, star=S)
    projections = [matrix_coords(np.outer(np.eye(n)[i], np.eye(n)[i]))
                   for i in range(n)]
    symmetries = [
        FrameSymmetry(permutation_symmetry(n, {i: j}), i, j)
        for i in range(n) for j in range(i + 1, n)
    ]
    return A, Frame(projections, symmetries)


# ---------------------------------------------------------------------------
# spin factors


def spin_factor(k: int) -> JordanAlgebra:
    """Spin factor on orthonormal basis {1, f_1, ..., f_{k-1}}.

    Product: a o b = a0 b + b0 a - B(a,b) 1 where B(a,b) = a0 b0 - sum a_i b_i,
    so 1 is the unit and f_i o f_j = delta_ij 1.  Star is coordinate
    conjugation (every basis vector is self-adjoint).
    """
    if k < 3:
        raise ValueError("spin_factor needs k >= 3")
    c = np.zeros((k, k, k), dtype=np.complex128)
    f = np.arange(1, k)
    c[0, 0, 0] = c[0, f, f] = c[f, 0, f] = c[f, f, 0] = 1.0
    unit = np.zeros(k, dtype=np.complex128)
    unit[0] = 1.0
    return JordanAlgebra(name=f"spin:{k}", dim=k, structure=c,
                         unit=unit, star=np.eye(k))


def spin_frame(V: JordanAlgebra) -> Frame:
    """Two exchanged orthogonal projections: p = (1 +- f_1)/2, swap by s = f_2."""
    k = V.dim
    p1 = np.zeros(k, dtype=np.complex128)
    p2 = np.zeros(k, dtype=np.complex128)
    p1[0] = p1[1] = 0.5
    p2[0], p2[1] = 0.5, -0.5
    s = np.zeros(k, dtype=np.complex128)
    s[2] = 1.0
    return Frame([p1, p2], [FrameSymmetry(s, 0, 1)])


# ---------------------------------------------------------------------------
# one-dimensional algebra (only useful as a rejected direct summand)


def one_dim() -> JordanAlgebra:
    c = np.ones((1, 1, 1), dtype=np.complex128)
    return JordanAlgebra(name="one", dim=1, structure=c,
                         unit=np.ones(1), star=np.eye(1))


# ---------------------------------------------------------------------------
# the exceptional 27-dimensional algebra


def albert_diag_index(i: int) -> int:
    return i


_ALBERT_POSITIONS = ((0, 1), (0, 2), (1, 2))


def albert_offdiag_index(pos: int, oct_unit: int) -> int:
    return 3 + 8 * pos + oct_unit


@functools.cache
def _albert_structure() -> JordanAlgebra:
    """The algebra built once per process from the octonion table: the 27
    basis elements as (3, 3, 8) hermitian matrices, all symmetrized products
    in one contraction, coordinates read back off."""
    basis = np.zeros((27, 3, 3, 8))
    for i in range(3):
        basis[albert_diag_index(i), i, i, 0] = 1.0
    for pos, (i, j) in enumerate(_ALBERT_POSITIONS):
        for k in range(8):
            b = albert_offdiag_index(pos, k)
            basis[b, i, j, k] = 1.0
            basis[b, j, i, k] = 1.0 if k == 0 else -1.0  # octonion conjugate
    P = np.einsum("aikp,bkjq,pqr->abijr", basis, basis, OCT_TENSOR, optimize=True)
    sym = 0.5 * (P + P.transpose(1, 0, 2, 3, 4))
    blocks = [sym[:, :, [0, 1, 2], [0, 1, 2], 0]]
    blocks += [sym[:, :, i, j] for i, j in _ALBERT_POSITIONS]
    # + 0.0 turns every -0.0 the contraction leaves into +0.0
    c = np.concatenate(blocks, axis=2) + 0.0
    unit = np.zeros(27)
    unit[:3] = 1.0
    return JordanAlgebra(name="albert", dim=27, structure=c, unit=unit,
                         star=np.eye(27))


def albert_algebra():
    """Hermitian 3x3 matrices over the complex octonions; 27-dimensional.

    Returns (algebra, frame) with the diagonal frame {e_11, e_22, e_33}
    exchanged by scalar transposition matrices.
    """
    A = _albert_structure()
    projections = [np.eye(27, dtype=np.complex128)[albert_diag_index(i)]
                   for i in range(3)]

    def transposition(i, j, fixed):
        s = np.zeros(27, dtype=np.complex128)
        s[albert_diag_index(fixed)] = 1.0
        pos = _ALBERT_POSITIONS.index((min(i, j), max(i, j)))
        s[albert_offdiag_index(pos, 0)] = 1.0
        return s

    symmetries = [
        FrameSymmetry(transposition(0, 1, 2), 0, 1),
        FrameSymmetry(transposition(0, 2, 1), 0, 2),
        FrameSymmetry(transposition(1, 2, 0), 1, 2),
    ]
    return A, Frame(projections, symmetries)


def albert_symmetry_catalog() -> list:
    """Hermitian signed-permutation symmetries of the exceptional algebra:
    diagonal sign matrices and signed transpositions (identity excluded)."""
    out = []
    for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1),
                  (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
        s = np.zeros(27, dtype=np.complex128)
        for i, eps in enumerate(signs):
            s[albert_diag_index(i)] = eps
        out.append(s)
    for (i, j), fixed in (((0, 1), 2), ((0, 2), 1), ((1, 2), 0)):
        for a in (1.0, -1.0):
            for b in (1.0, -1.0):
                s = np.zeros(27, dtype=np.complex128)
                s[albert_diag_index(fixed)] = b
                pos = _ALBERT_POSITIONS.index((i, j))
                s[albert_offdiag_index(pos, 0)] = a
                out.append(s)
    return out


# ---------------------------------------------------------------------------
# direct sums and finite function algebras


def direct_sum(algebras: list, name: str = None):
    """Block-diagonal direct sum.  Returns (algebra, summands)."""
    if not algebras:
        raise ValueError("direct_sum needs at least one summand")
    dims = [A.dim for A in algebras]
    n = sum(dims)
    c = np.zeros((n, n, n), dtype=np.complex128)
    S = np.zeros((n, n), dtype=np.complex128)
    unit = np.zeros(n, dtype=np.complex128)
    summands = []
    off = 0
    for A in algebras:
        d = A.dim
        sl = slice(off, off + d)
        c[sl, sl, sl] = A.structure
        S[sl, sl] = A.star
        unit[sl] = A.unit
        central = np.zeros(n, dtype=np.complex128)
        central[sl] = A.unit
        summands.append(Summand(A.name, off, d, central))
        off += d
    if name is None:
        name = "sum:" + "+".join(A.name for A in algebras)
    out = JordanAlgebra(name=name, dim=n, structure=c, unit=unit, star=S)
    return out, summands


def function_algebra(A: JordanAlgebra, m: int):
    """m-fold direct power: functions on an m-point space with values in A.

    The summand projections are the point evaluations.  Returns
    (algebra, summands).
    """
    if m < 1:
        raise ValueError("function_algebra needs m >= 1")
    return direct_sum([A] * m, name=f"func:{A.name}:{m}")


# ---------------------------------------------------------------------------
# name registry


@dataclass
class ZooEntry:
    algebra: JordanAlgebra
    frame: Frame = None
    summands: list = None  # set for sum/func algebras
    kind: str = ""         # matrix | spin | albert | one | sum | func


def _atomic_by_name(name: str) -> ZooEntry:
    if name == "albert":
        A, frame = albert_algebra()
        return ZooEntry(A, frame=frame, kind="albert")
    if name == "one":
        return ZooEntry(one_dim(), kind="one")
    if name.startswith("matrix:"):
        n = int(name.split(":", 1)[1])
        A, frame = matrix_jordan(n)
        return ZooEntry(A, frame=frame, kind="matrix")
    if name.startswith("spin:"):
        k = int(name.split(":", 1)[1])
        V = spin_factor(k)
        return ZooEntry(V, frame=spin_frame(V), kind="spin")
    raise KeyError(f"unknown algebra name {name!r}")


MAX_DIM = 54   # the largest dimension a registry name may ask for


def _atomic_dim(name: str) -> int:
    """The dimension of an atomic name, read off the name alone."""
    kind, _, arg = name.partition(":")
    if kind in ("matrix", "spin") and arg:
        return int(arg) ** 2 if kind == "matrix" else int(arg)
    return {"albert": 27, "one": 1}.get(name, 0)   # 0: _atomic_by_name refuses it


def algebra_by_name(name: str) -> ZooEntry:
    """Resolve a registry name: matrix:n, spin:k, albert, one,
    sum:<a>+<b>+..., func:<base>:<m>.  A name whose dimension exceeds
    MAX_DIM is refused before anything is built."""
    name = name.strip()
    if name.startswith("sum:"):
        parts = name[len("sum:"):].split("+")
        _cap(name, sum(_atomic_dim(p) for p in parts))
        entries = [_atomic_by_name(p) for p in parts]
        A, summands = direct_sum([e.algebra for e in entries], name=name)
        return ZooEntry(A, summands=summands, kind="sum")
    if name.startswith("func:"):
        rest = name[len("func:"):]
        base_name, m_str = rest.rsplit(":", 1)
        m = int(m_str)
        _cap(name, _atomic_dim(base_name) * m)
        base = _atomic_by_name(base_name)
        A, summands = function_algebra(base.algebra, m)
        A.name = name
        return ZooEntry(A, summands=summands, kind="func")
    _cap(name, _atomic_dim(name))
    return _atomic_by_name(name)


def _cap(name: str, dim: int):
    if dim > MAX_DIM:
        raise ValueError(f"{name} has dimension {dim}, above the limit of {MAX_DIM}")


def registry_names() -> list:
    """Representative names for `zoo list`; parametric families show their
    grammar."""
    return [
        "matrix:<n>          n >= 2, e.g. matrix:3",
        "spin:<k>            k >= 3, e.g. spin:4",
        "albert",
        "one                 1-dimensional summand (kits reject it)",
        "sum:<a>+<b>+...     e.g. sum:matrix:3+matrix:4",
        "func:<base>:<m>     e.g. func:albert:2",
    ]
