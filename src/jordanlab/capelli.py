"""Capelli polynomials and linear-independence testing in M_m(C).

c_n(xi; eta) = sum_{sigma in S_n} sign(sigma) *
               xi_{sigma(1)} eta_1 xi_{sigma(2)} ... eta_{n-1} xi_{sigma(n)}

is evaluated by recursion over subsets of the slots: O(2^n n) products.

A tuple of matrices is linearly dependent over C exactly when c_n
vanishes for every plug-in choice; a few random plug-ins witness
independence with probability 1, and a Gram-rank oracle certifies the
dependent direction deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, as_cmatrix

__all__ = [
    "MAX_TUPLE",
    "CapelliInput",
    "capelli_eval",
    "independence_capelli",
    "independence_gram",
]

# 2^n partial sums of m x m matrices
MAX_TUPLE = 12


@dataclass
class CapelliInput:
    a: list    # the n tested matrices (xi slots)
    x: list    # the n-1 plug-ins (eta slots)


def _checked_tuple(mats):
    if len(mats) > MAX_TUPLE:
        raise ValueError(f"capelli size guard: tuple length {len(mats)} > {MAX_TUPLE}")
    out = [as_cmatrix(m) for m in mats]
    if out and any(m.shape != out[0].shape or m.shape[0] != m.shape[1] for m in out):
        raise ValueError("capelli needs square matrices of equal size")
    return out


def capelli_eval(inp: CapelliInput) -> np.ndarray:
    xi = _checked_tuple(inp.a)
    eta = [as_cmatrix(m) for m in inp.x]
    n = len(xi)
    if n < 1:
        raise ValueError("capelli needs at least one xi slot")
    if len(eta) != n - 1:
        raise ValueError(f"capelli needs {n - 1} plug-ins, got {len(eta)}")
    # F[S]: the signed sum over the orderings of the slots in the bit set S.
    # Appending slot j after S adds one inversion per slot of S above j, so
    # F[S | j] += (-1)^#{s in S: s > j} F[S] eta_|S| xi_j; every S < S | j.
    F = np.zeros((1 << n,) + xi[0].shape, dtype=np.complex128)
    for j in range(n):
        F[1 << j] = xi[j]
    for S in range(1, (1 << n) - 1):
        left = F[S] @ eta[S.bit_count() - 1]
        for j in range(n):
            if not S >> j & 1:
                sign = -1.0 if (S >> (j + 1)).bit_count() % 2 else 1.0
                F[S | 1 << j] += sign * (left @ xi[j])
    return F[-1]


def independence_capelli(a, trials: int = 8, seed: int = 0,
                         tol: Tolerance = DEFAULT_TOL) -> bool:
    """Independent as soon as one random plug-in tuple gives |c_n| > eps."""
    mats = _checked_tuple(a)
    n = len(mats)
    if n == 0:
        return True
    m = mats[0].shape[0]
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        eta = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
               for _ in range(n - 1)]
        val = capelli_eval(CapelliInput(mats, eta))
        if np.abs(val).max() > tol.abs_eps:
            return True
    return False


def independence_gram(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Deterministic oracle: rank of the vectorized tuple equals its length."""
    mats = _checked_tuple(a)
    if not mats:
        return True
    V = np.stack([m.reshape(-1) for m in mats])
    sv = np.linalg.svd(V, compute_uv=False)
    smax = float(sv[0])
    rank = int(np.sum(sv > tol.abs_eps * smax)) if smax > 0 else 0
    return rank == len(mats)
