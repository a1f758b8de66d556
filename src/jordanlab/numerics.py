"""Shared numerical kernel: tolerance policy, linear solves, kernels.

Everything downstream works with numpy complex128 arrays.  The JSON casing
used by the CLI lives here too so each module serializes the same way:
a complex scalar is ``[re, im]``, a matrix is ``{"rows", "cols", "data"}``
with row-major data, and an (n, n, n) tensor is the list of its nonzero
entries as ``[i, j, k, re, im]`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "solve_linear",
    "kernel_basis",
    "require_finite",
    "as_cvector",
    "as_cmatrix",
    "scalar_to_json",
    "scalar_from_json",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "tensor_to_json",
    "tensor_from_json",
]


@dataclass(frozen=True)
class Tolerance:
    """Single knob for all tolerance-based equality in the package."""

    abs_eps: float = 1e-9

    def __post_init__(self):
        if not 0 < self.abs_eps < np.inf:
            raise ValueError("abs_eps must be positive and finite")


DEFAULT_TOL = Tolerance()


def require_finite(arr: np.ndarray) -> np.ndarray:
    """Reject NaN/Inf on construction paths; returns the array unchanged."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entry in numeric data")
    return arr


def as_cvector(entries) -> np.ndarray:
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector")
    return require_finite(v)


def as_cmatrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return require_finite(m)


def solve_linear(A, b, tol: Tolerance = DEFAULT_TOL):
    """Least-norm solution of Ax = b, or None when no solution meets the bound.

    The accepted solution satisfies ||Ax - b||_inf <= abs_eps * (1 + ||b||_inf).
    Least-norm convention keeps downstream extractions deterministic.
    """
    A = np.asarray(A, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch in solve_linear")
    # lstsq with rcond tied to abs_eps gives the minimum-norm LS solution
    x, *_ = np.linalg.lstsq(A, b, rcond=tol.abs_eps)
    resid = np.abs(A @ x - b).max() if b.size else 0.0
    if resid <= tol.abs_eps * (1.0 + (np.abs(b).max() if b.size else 0.0)):
        return x
    return None


def kernel_basis(A, tol: Tolerance = DEFAULT_TOL) -> list:
    """Orthonormal basis of the numerical null space of A.

    Singular values below abs_eps * sigma_max count as zero.  Empty list for
    numerically injective A.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("kernel_basis expects a matrix")
    # economy SVD for tall stacks keeps memory linear in the column count;
    # the right factor still carries all of C^cols either way
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    smax = s[0] if s.size else 0.0
    cut = tol.abs_eps * smax
    ncols = A.shape[1]
    rank = int(np.sum(s > cut))
    return [vh[i].conj() for i in range(rank, ncols)]


# ---------------------------------------------------------------------------
# JSON casing


def scalar_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def scalar_from_json(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def vector_to_json(v) -> list:
    return [scalar_to_json(z) for z in np.asarray(v, dtype=np.complex128)]


def vector_from_json(pairs) -> np.ndarray:
    return as_cvector([scalar_from_json(p) for p in pairs])


def matrix_to_json(M) -> dict:
    M = np.asarray(M, dtype=np.complex128)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [scalar_to_json(z) for z in M.reshape(-1)],
    }


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = [scalar_from_json(p) for p in obj["data"]]
    if len(data) != rows * cols:
        raise ValueError("matrix data length does not match rows*cols")
    return as_cmatrix(np.array(data, dtype=np.complex128).reshape(rows, cols))


def tensor_to_json(t) -> list:
    idx = np.argwhere(t != 0)
    vals = t[tuple(idx.T)]
    return [[i, j, k, re, im] for (i, j, k), re, im in
            zip(idx.tolist(), vals.real.tolist(), vals.imag.tolist())]


def tensor_from_json(rows, n: int) -> np.ndarray:
    """Dense (n, n, n) tensor; rejects bad rows, indices and values."""
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, 5)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise ValueError("tensor entries must be [i, j, k, re, im] rows")
    idx = rows[:, :3]
    if np.any((idx < 0) | (idx >= n) | (idx != np.floor(idx))):
        raise ValueError(f"tensor index out of range for dimension {n}")
    vals = np.empty(len(rows), dtype=np.complex128)
    vals.real, vals.imag = rows[:, 3], rows[:, 4]
    t = np.zeros((n, n, n), dtype=np.complex128)
    t[tuple(idx.T.astype(int))] = vals
    return require_finite(t)
