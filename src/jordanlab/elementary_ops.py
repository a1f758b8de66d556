"""Elementary-operator kits: for a suitable algebra, an element u and
operators E0, E1 (and E2 away from spin-type pieces) with

    E_i(u^j) = delta_ij * 1        (all available i, j)

built from frame projections and exchanging symmetries.  These kits are the
computational device every standard-form decomposition in this package
rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra_zoo import (
    Frame,
    FrameSymmetry,
    ZooEntry,
    algebra_by_name,
    permutation_symmetry,
    verify_frame,
)
from .jordan_core import (
    JordanAlgebra,
    center_basis,
    element_power,
    element_to_json,
    element_from_json,
    is_projection,
    is_symmetry,
    linop_to_json,
    linop_from_json,
    mult_operator,
    product,
    u_operator,
)
from .numerics import DEFAULT_TOL, Tolerance, vector_to_json

__all__ = [
    "FrameInvalid",
    "ElementaryKit",
    "build_kit_case1",
    "build_kit_case2",
    "build_kit_spin",
    "build_kit",
    "matrix_case2_inputs",
    "frame_with_roles",
    "verify_kit",
    "kit_to_json",
    "kit_from_json",
]


class FrameInvalid(ValueError):
    """Raised when frame data fails projection/symmetry/exchange checks."""


@dataclass
class ElementaryKit:
    algebra: JordanAlgebra
    u: np.ndarray
    e_ops: dict               # {0: E0, 1: E1, 2: E2}; key 2 may be absent
    construction_log: list = field(default_factory=list)
    v: np.ndarray = None      # second kit element (full kits only)

    def has_e2(self) -> bool:
        return 2 in self.e_ops

    def apply(self, i: int, x) -> np.ndarray:
        return self.e_ops[i] @ np.asarray(x, dtype=np.complex128)


def _log_element(log, role, vec):
    log.append({"role": role, "coords": vector_to_json(vec)})


def _require(cond, message):
    if not cond:
        raise FrameInvalid(message)


def frame_with_roles(frame: Frame, order) -> Frame:
    """Reindex a frame so projections appear in the given role order.

    Picks, for each required exchange (new p1 <-> new p_k), a declared
    symmetry joining that pair in either direction (U_s swaps both ways).
    """
    ps = [frame.projections[i] for i in order]
    syms = [FrameSymmetry(_find_symmetry(frame, order[0], order[k]), 0, k)
            for k in range(1, len(order))]
    return Frame(ps, syms)


def _find_symmetry(frame: Frame, source: int, target: int):
    match = next((s for s in frame.symmetries
                  if {s.source, s.target} == {source, target}), None)
    if match is None:
        raise FrameInvalid(f"frame lacks a symmetry joining p{source+1}, p{target+1}")
    return match.element


# ---------------------------------------------------------------------------
# Case I: four pairwise-exchangeable orthogonal projections summing to 1


def build_kit_case1(A: JordanAlgebra, frame: Frame,
                    tol: Tolerance = DEFAULT_TOL) -> ElementaryKit:
    _require(len(frame.projections) == 4, "case 1 needs exactly 4 projections")
    _require(verify_frame(A, frame, tol), "frame verification failed")
    p1, p2, p3, p4 = frame.projections
    s = _find_symmetry(frame, 0, 1)
    sp = _find_symmetry(frame, 0, 2)
    spp = _find_symmetry(frame, 0, 3)

    u = 2.0 * product(A, s, p1)
    v = 2.0 * product(A, sp, p1)
    Up3 = u_operator(A, p3)
    Us = u_operator(A, s)
    Usp = u_operator(A, sp)
    Uspp = u_operator(A, spp)
    E0 = Up3 + Usp @ Up3 + Us @ Usp @ Up3 + Uspp @ Usp @ Up3
    W = u_operator(A, p1) - Usp @ Up3
    E2 = W + Us @ W + Usp @ W + Uspp @ W
    E1 = E2 @ mult_operator(A, u)

    log = [{"case": "I", "algebra": A.name}]
    for role, vec in (("p1", p1), ("p2", p2), ("p3", p3), ("p4", p4),
                      ("s", s), ("s'", sp), ("s''", spp), ("u", u), ("v", v)):
        _log_element(log, role, vec)
    return ElementaryKit(A, u, {0: E0, 1: E1, 2: E2}, log, v=v)


# ---------------------------------------------------------------------------
# Case II: three exchangeable projection groups plus a residual q-part


@dataclass
class Case2QPart:
    """Leftover projections when the frame size is not divisible by 3.

    q1, q2 sit outside p1+p2+p3; r1, r2 sit under p2; t, t' are symmetries
    with U_t(r1) = q1 and U_t'(r2) = q2.  Any of the pairs may be absent.
    """
    q1: np.ndarray = None
    r1: np.ndarray = None
    t: np.ndarray = None
    q2: np.ndarray = None
    r2: np.ndarray = None
    t_prime: np.ndarray = None


def build_kit_case2(A: JordanAlgebra, frame: Frame, qpart: Case2QPart = None,
                    tol: Tolerance = DEFAULT_TOL) -> ElementaryKit:
    _require(len(frame.projections) == 3, "case 2 needs exactly 3 projection groups")
    p1, p2, p3 = frame.projections
    s = _find_symmetry(frame, 0, 1)
    sp = _find_symmetry(frame, 0, 2)
    q = qpart or Case2QPart()
    zero = np.zeros(A.dim, dtype=np.complex128)
    q1 = zero if q.q1 is None else q.q1
    q2 = zero if q.q2 is None else q.q2
    # groups and q-part: orthogonal projections resolving the unit
    probe = Frame([p1, p2, p3, q1, q2],
                  [FrameSymmetry(s, 0, 1), FrameSymmetry(sp, 0, 2)])
    _require(verify_frame(A, probe, tol), "case 2 frame verification failed")

    u = 2.0 * product(A, s, p1)
    v = 2.0 * product(A, sp, p1)
    Up3 = u_operator(A, p3)
    Us = u_operator(A, s)
    Usp = u_operator(A, sp)
    E0 = Up3 + Usp @ Up3 + Us @ Usp @ Up3
    if np.abs(q1 + q2).max() > 0:
        E0 = E0 + u_operator(A, q1 + q2)
    W = u_operator(A, p1) - Usp @ Up3
    E2 = W + Us @ W + Usp @ W

    log = [{"case": "II", "algebra": A.name}]
    for role, vec in (("p1", p1), ("p2", p2), ("p3", p3),
                      ("s", s), ("s'", sp), ("u", u), ("v", v)):
        _log_element(log, role, vec)

    for qi, ri, ti, tag in ((q.q1, q.r1, q.t, "1"),
                            (q.q2, q.r2, q.t_prime, "2")):
        if qi is None:
            continue
        _require(ri is not None and ti is not None,
                 f"q{tag} needs matching r{tag} and symmetry")
        _require(is_projection(A, ri, tol), f"r{tag} must be a projection")
        _require(is_symmetry(A, ti, tol), f"t{tag} must be a symmetry")
        _require(np.abs(product(A, p2, ri) - ri).max() <= tol.abs_eps,
                 f"r{tag} must lie under p2")
        Ut = u_operator(A, ti)
        _require(np.abs(Ut @ ri - qi).max() <= tol.abs_eps,
                 f"t{tag}: declared exchange fails")
        Uq = u_operator(A, qi)
        Ur = u_operator(A, ri)
        E2 = E2 + Ut @ (Ur - Ut @ Uq)
        _log_element(log, f"q{tag}", qi)
        _log_element(log, f"r{tag}", ri)
        _log_element(log, f"t{tag}", ti)

    E1 = E2 @ mult_operator(A, u)
    return ElementaryKit(A, u, {0: E0, 1: E1, 2: E2}, log, v=v)


def matrix_case2_inputs(frame: Frame, order):
    """Group the diagonal matrix units of a matrix:n frame, taken in the
    role order `order`, for the case-2 builder.

    Euclidean split n = 3j + k with k in {0,1,2}: p1, p2, p3 collect units
    number 1+3t, 2+3t, 3+3t in the given order (t < j, 1-based); the k
    leftovers become the q-part, reached from r = unit number 2 by
    transposition symmetries.
    """
    n = len(order)
    j, k = divmod(n, 3)
    if j < 1:
        raise FrameInvalid("matrix case 2 needs n >= 3")
    units = [frame.projections[i] for i in order]

    def group(start):
        return sum(units[start - 1 + 3 * t] for t in range(j))

    p1, p2, p3 = group(1), group(2), group(3)
    s = permutation_symmetry(n, {order[3 * t]: order[3 * t + 1] for t in range(j)})
    sp = permutation_symmetry(n, {order[3 * t]: order[3 * t + 2] for t in range(j)})
    grouped = Frame([p1, p2, p3], [FrameSymmetry(s, 0, 1), FrameSymmetry(sp, 0, 2)])
    qpart = Case2QPart()
    if k >= 1:
        qpart.q1 = units[3 * j]
        qpart.r1 = units[1]
        qpart.t = permutation_symmetry(n, {order[1]: order[3 * j]})
    if k == 2:
        qpart.q2 = units[3 * j + 1]
        qpart.r2 = units[1]
        qpart.t_prime = permutation_symmetry(n, {order[1]: order[3 * j + 1]})
    return grouped, qpart


# ---------------------------------------------------------------------------
# spin kits: E0, E1 only (no E2 can exist on a quadratic algebra)


def build_kit_spin(V: JordanAlgebra, frame: Frame,
                   tol: Tolerance = DEFAULT_TOL) -> ElementaryKit:
    _require(len(frame.projections) == 2, "spin kit needs 2 projections")
    _require(verify_frame(V, frame, tol), "spin frame verification failed")
    p1, p2 = frame.projections
    # the construction needs 2 p1 o s = 2 p2 o s = s, which the verified
    # frame implies: U_s(p1) = p2 and s^2 = 1 give p1 s + s p1 = s
    s = _find_symmetry(frame, 0, 1)
    u = s.copy()
    E1 = mult_operator(V, s) @ mult_operator(V, 2.0 * p2) @ mult_operator(V, 2.0 * p1)
    E0 = E1 @ mult_operator(V, s)
    log = [{"case": "spin", "algebra": V.name}]
    for role, vec in (("p1", p1), ("p2", p2), ("s", s), ("u", u)):
        _log_element(log, role, vec)
    return ElementaryKit(V, u, {0: E0, 1: E1}, log)


# ---------------------------------------------------------------------------
# gluing over direct sums


def _embed_kits(kits, A: JordanAlgebra, summands) -> ElementaryKit:
    n = A.dim
    u = np.zeros(n, dtype=np.complex128)
    have_e2 = all(k.has_e2() for k in kits)
    have_v = have_e2 and all(k.v is not None for k in kits)
    v = np.zeros(n, dtype=np.complex128) if have_v else None
    ops = {i: np.zeros((n, n), dtype=np.complex128)
           for i in ([0, 1, 2] if have_e2 else [0, 1])}
    log = [{"case": "glued", "algebra": A.name}]
    for kit, sm in zip(kits, summands):
        sl = slice(sm.offset, sm.offset + sm.dim)
        u[sl] = kit.u
        if have_v:
            v[sl] = kit.v
        for i in ops:
            ops[i][sl, sl] = kit.e_ops[i]
        log.extend(kit.construction_log)
    return ElementaryKit(A, u, ops, log, v=v)


# ---------------------------------------------------------------------------
# one-call builder from a registry entry


def _rotated(m: int):
    return list(range(1, m)) + [0]


def build_kit(entry: ZooEntry, tol: Tolerance = DEFAULT_TOL,
              alternate: bool = False) -> ElementaryKit:
    """Build the canonical kit for a zoo entry.

    matrix:3 and matrix:n (n >= 5) use case 2 with the Euclidean q-part,
    matrix:4 uses case 1, matrix:2 uses the two-projection construction,
    spin factors the spin kit, the exceptional algebra case 2, direct sums
    glue their summand kits.  `alternate` builds a second, genuinely
    different kit over the same algebra by rotating projection roles.
    """
    A = entry.algebra
    kind = entry.kind
    if kind in ("sum", "func"):
        kits = []
        for sm in entry.summands:
            if sm.dim < 2:
                raise FrameInvalid(
                    f"summand {sm.name!r} is 1-dimensional; no kit exists")
            kits.append(build_kit(algebra_by_name(sm.name), tol, alternate))
        return _embed_kits(kits, A, entry.summands)
    if kind == "one":
        raise FrameInvalid("1-dimensional algebra admits no kit")
    if kind == "spin":
        frame = entry.frame
        if alternate:
            # canonical symmetry is f2; the next unit f3 also flips f1
            if A.dim < 4:
                raise FrameInvalid("alternate spin kit needs a third spin unit")
            f3 = np.zeros(A.dim, dtype=np.complex128)
            f3[3] = 1.0
            frame = Frame(list(frame.projections), [FrameSymmetry(f3, 0, 1)])
        return build_kit_spin(A, frame, tol)
    if kind == "matrix":
        n = int(round(np.sqrt(A.dim)))
        order = _rotated(n) if alternate else list(range(n))
        if n == 2:
            return build_kit_spin(A, frame_with_roles(entry.frame, order[:2]), tol)
        if n == 4:
            return build_kit_case1(A, frame_with_roles(entry.frame, order), tol)
        grouped, qpart = matrix_case2_inputs(entry.frame, order)
        return build_kit_case2(A, grouped, qpart, tol)
    frame = entry.frame    # albert
    if alternate:
        frame = frame_with_roles(frame, _rotated(3))
    return build_kit_case2(A, frame, None, tol)


# ---------------------------------------------------------------------------
# verification


def verify_kit(kit: ElementaryKit, tol: Tolerance = DEFAULT_TOL,
               seed: int = 0) -> dict:
    """Residual table E_i(u^j) vs delta_ij, spectral norms, star symmetry,
    central linearity.  Returns a plain report fragment."""
    A = kit.algebra
    idxs = sorted(kit.e_ops)
    powers = {j: element_power(A, kit.u, j) for j in idxs}
    kron = {}
    worst = 0.0
    for i in idxs:
        for j in idxs:
            want = A.unit if i == j else np.zeros(A.dim)
            r = float(np.abs(kit.apply(i, powers[j]) - want).max())
            kron[f"{i},{j}"] = r
            worst = max(worst, r)

    norms = {f"E{i}": float(np.linalg.norm(kit.e_ops[i], 2)) for i in idxs}

    S = A.star
    star_res = max(float(np.abs(kit.e_ops[i] @ S - S @ np.conj(kit.e_ops[i])).max())
                   for i in idxs)

    rng = np.random.default_rng(seed)
    Z = center_basis(A, tol)
    zlin = 0.0
    for _ in range(5):
        coeff = rng.standard_normal(len(Z)) + 1j * rng.standard_normal(len(Z))
        z = sum(cc * zz for cc, zz in zip(coeff, Z)) if Z else np.zeros(A.dim)
        x = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
        for i in idxs:
            r = kit.apply(i, product(A, z, x)) - product(A, z, kit.apply(i, x))
            zlin = max(zlin, float(np.abs(r).max()))

    return {
        "kronecker": kron,
        "kronecker_max": worst,
        "norm_estimates": norms,
        "norm_max": max(norms.values()),
        "star_symmetry": star_res,
        "central_linearity": zlin,
        "passed": bool(worst <= tol.abs_eps
                       and max(norms.values()) <= 10.0 + tol.abs_eps
                       and star_res <= tol.abs_eps
                       and zlin <= tol.abs_eps),
    }


# ---------------------------------------------------------------------------
# JSON casing


def kit_to_json(kit: ElementaryKit) -> dict:
    A = kit.algebra
    return {
        "algebra": A.name,
        "u": element_to_json(A, kit.u),
        "E0": linop_to_json(A, kit.e_ops[0]),
        "E1": linop_to_json(A, kit.e_ops[1]),
        "E2": linop_to_json(A, kit.e_ops[2]) if kit.has_e2() else None,
        "log": kit.construction_log,
    }


def kit_from_json(obj: dict, A: JordanAlgebra) -> ElementaryKit:
    ops = {0: linop_from_json(obj["E0"]), 1: linop_from_json(obj["E1"])}
    if obj.get("E2") is not None:
        ops[2] = linop_from_json(obj["E2"])
    u = element_from_json(obj["u"])
    if u.shape[0] != A.dim or any(op.shape != (A.dim, A.dim)
                                  for op in ops.values()):
        raise ValueError(f"kit dimensions do not match {A.name} "
                         f"(dim {A.dim})")
    return ElementaryKit(A, u, ops, obj.get("log", []))
