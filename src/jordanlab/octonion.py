"""Complex octonions: the coefficient ring for the 27-dimensional
exceptional Jordan algebra of hermitian 3x3 octonionic matrices.

The multiplication table below is frozen.  It was generated once by an
independent Cayley-Dickson doubling (reals -> complexes -> quaternions ->
octonions with (a,b)(c,d) = (ac - conj(d)b, da + b conj(c))) and pinned to
the convention e1e2=e3, e1e4=e5, e2e4=e6, e3e4=e7; the tests redo the
doubling and compare.
"""

from __future__ import annotations

import numpy as np

from .numerics import as_cvector

__all__ = ["SIGN", "IDX", "TENSOR", "oct_unit", "oct_mul", "oct_conj"]

# e_i * e_j = SIGN[i][j] * e_{IDX[i][j]}
SIGN = (
    (+1, +1, +1, +1, +1, +1, +1, +1),
    (+1, -1, +1, -1, +1, -1, -1, +1),
    (+1, -1, -1, +1, +1, +1, -1, -1),
    (+1, +1, -1, -1, +1, -1, +1, -1),
    (+1, -1, -1, -1, -1, +1, +1, +1),
    (+1, +1, -1, +1, -1, -1, -1, +1),
    (+1, +1, +1, -1, -1, +1, -1, -1),
    (+1, -1, +1, +1, -1, -1, +1, -1),
)
IDX = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (3, 2, 1, 0, 7, 6, 5, 4),
    (4, 5, 6, 7, 0, 1, 2, 3),
    (5, 4, 7, 6, 1, 0, 3, 2),
    (6, 7, 4, 5, 2, 3, 0, 1),
    (7, 6, 5, 4, 3, 2, 1, 0),
)

# dense (8,8,8) tensor: e_i e_j = sum_k TENSOR[i,j,k] e_k; handy for vectorizing
TENSOR = np.zeros((8, 8, 8))
for _i in range(8):
    for _j in range(8):
        TENSOR[_i, _j, IDX[_i][_j]] = SIGN[_i][_j]


def oct_unit(k: int) -> np.ndarray:
    v = np.zeros(8, dtype=np.complex128)
    v[k] = 1.0
    return v


def oct_mul(a, b) -> np.ndarray:
    """Product of two complex octonions (8-vectors of coefficients)."""
    a = as_cvector(a)
    b = as_cvector(b)
    if a.shape != (8,) or b.shape != (8,):
        raise ValueError("octonions have 8 coefficients")
    return np.einsum("i,j,ijk->k", a, b, TENSOR)


def oct_conj(a) -> np.ndarray:
    """Octonion conjugation: fixes e0, negates e1..e7."""
    a = as_cvector(a)
    out = -a
    out[0] = a[0]
    return out

