"""Elementary-operator kits: for a suitable algebra, an element u and
operators E0, E1 (and E2 away from spin-type pieces) with

    E_i(u^j) = delta_ij * 1        (all available i, j)

built from frame projections and exchanging symmetries.  These kits are the
computational device every standard-form decomposition in this package
rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .algebra_zoo import (
    Frame,
    FrameSymmetry,
    ZooEntry,
    algebra_by_name,
)
from .jordan_core import (
    JordanAlgebra,
    _square_residual,
    center_basis,
    element_power,
    element_to_json,
    element_from_json,
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
    "verify_frame",
    "build_frame_kit",
    "build_kit_spin",
    "build_kit",
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


def _log(case: str, A: JordanAlgebra, roles) -> list:
    return [{"case": case, "algebra": A.name}] + [
        {"role": role, "coords": vector_to_json(vec)} for role, vec in roles]


def _require(cond, message):
    if not cond:
        raise FrameInvalid(message)


def _find_symmetry(frame: Frame, source: int, target: int):
    match = next((s for s in frame.symmetries
                  if {s.source, s.target} == {source, target}), None)
    if match is None:
        raise FrameInvalid(f"frame lacks a symmetry joining p{source+1}, p{target+1}")
    return match.element


# ---------------------------------------------------------------------------
# frame checks


def _frame_conditions(A: JordanAlgebra, frame: Frame):
    """(condition, residual) for each property of a frame, computed lazily
    in the order they are checked."""
    ps = frame.projections
    for a, p in enumerate(ps):
        yield f"p{a + 1} is a projection", _square_residual(A, p, p)
    for a, p in enumerate(ps):
        for b in range(a + 1, len(ps)):
            yield f"p{a + 1} o p{b + 1} = 0", np.abs(product(A, p, ps[b])).max()
    yield "the projections sum to 1", np.abs(sum(ps) - A.unit).max()
    for sym in frame.symmetries:
        s, a, b = sym.element, sym.source, sym.target
        yield f"s(p{a + 1}, p{b + 1}) is a symmetry", _square_residual(A, s, A.unit)
        yield f"U_s(p{a + 1}) = p{b + 1}", np.abs(u_operator(A, s) @ ps[a] - ps[b]).max()


def _first_failure(conditions, tol: Tolerance) -> str:
    """The first condition whose residual is not within tol (a NaN included),
    with its residual, tol and their ratio; '' when every condition holds."""
    for what, r in conditions:
        if not r <= tol.abs_eps:
            return (f"frame fails {what}: residual {r:.1e} > tol "
                    f"{tol.abs_eps:.1e} (ratio {r / tol.abs_eps:.1e})")
    return ""


def verify_frame(A: JordanAlgebra, frame: Frame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Orthogonal projections resolving the unit, and each declared symmetry
    a symmetry s with U_s(p_source) = p_target."""
    return not _first_failure(_frame_conditions(A, frame), tol)


def _require_frame(A: JordanAlgebra, frame: Frame, tol: Tolerance, more=()):
    """FrameInvalid naming the first failed condition of the frame, then of more."""
    failure = _first_failure(chain(_frame_conditions(A, frame), more), tol)
    _require(not failure, failure)


# ---------------------------------------------------------------------------
# full kits: E0, E1, E2 from groups of exchangeable projections


def _group_symmetry(A: JordanAlgebra, frame: Frame, pairs) -> np.ndarray:
    """A symmetry exchanging p_a and p_b for every pair (a, b) at once: the
    frame's own for a single pair, else 1 - sum(p_a + p_b) + sum U_{p_a+p_b}(s_ab)."""
    if len(pairs) == 1:
        return _find_symmetry(frame, *pairs[0])
    out = A.unit
    for a, b in pairs:
        e = frame.projections[a] + frame.projections[b]
        out = out - e + u_operator(A, e) @ _find_symmetry(frame, a, b)
    return out


def build_frame_kit(A: JordanAlgebra, frame: Frame, order,
                    tol: Tolerance = DEFAULT_TOL) -> ElementaryKit:
    """The full kit (u, v; E0, E1, E2) from a frame of exchangeable
    projections, taken in the role order `order`.

    Four projections make four groups of one (Case I).  Otherwise they make
    three groups (Case II), group g summing the projections in roles g,
    g + 3, g + 6, ...; the len(order) % 3 left over form the q-part, each q
    reached from r, the projection in role 2, by the frame's symmetry t
    joining them.  s, s' (, s'') carry group 1 to the other groups.  The
    grouped frame and each q-part triple are checked before use.
    """
    units = [frame.projections[i] for i in order]
    k = 4 if len(units) == 4 else 3
    j = len(units) // k
    _require(j >= 1, "a full kit needs at least 3 projections")
    groups = [sum(units[g:k * j:k]) for g in range(k)]
    syms = [_group_symmetry(A, frame, list(zip(order[:k * j:k], order[g:k * j:k])))
            for g in range(1, k)]
    qs, r = units[k * j:], units[1]
    ts = [_find_symmetry(frame, order[1], i) for i in order[k * j:]]
    Uts = [u_operator(A, t) for t in ts]

    def qpart():
        for i, (q, t, Ut) in enumerate(zip(qs, ts, Uts), 1):
            yield f"r{i} is a projection", _square_residual(A, r, r)
            yield f"r{i} lies under p2", np.abs(product(A, groups[1], r) - r).max()
            yield f"t{i} is a symmetry", _square_residual(A, t, A.unit)
            yield f"U_t{i}(r{i}) = q{i}", np.abs(Ut @ r - q).max()

    exchanges = [FrameSymmetry(s, 0, g) for g, s in enumerate(syms, 1)]
    _require_frame(A, Frame(groups + qs, exchanges), tol, qpart())

    u = 2.0 * product(A, syms[0], groups[0])
    v = 2.0 * product(A, syms[1], groups[0])
    Ug3 = u_operator(A, groups[2])
    Us = [u_operator(A, s) for s in syms]
    E0 = sum((U @ Us[1] @ Ug3 for U in Us[:1] + Us[2:]), Ug3 + Us[1] @ Ug3)
    if qs:
        E0 = E0 + u_operator(A, sum(qs))
    W = u_operator(A, groups[0]) - Us[1] @ Ug3
    E2 = sum((U @ W for U in Us), W)
    Ur = u_operator(A, r)
    for q, Ut in zip(qs, Uts):
        E2 = E2 + Ut @ (Ur - Ut @ u_operator(A, q))
    E1 = E2 @ mult_operator(A, u)

    roles = [(f"p{g + 1}", x) for g, x in enumerate(groups)]
    roles += [("s" + "'" * g, s) for g, s in enumerate(syms)] + [("u", u), ("v", v)]
    for i, (q, t) in enumerate(zip(qs, ts), 1):
        roles += [(f"q{i}", q), (f"r{i}", r), (f"t{i}", t)]
    log = _log("I" if k == 4 else "II", A, roles)
    return ElementaryKit(A, u, {0: E0, 1: E1, 2: E2}, log, v=v)


# ---------------------------------------------------------------------------
# spin kits: E0, E1 only (no E2 can exist on a quadratic algebra)


def build_kit_spin(V: JordanAlgebra, frame: Frame,
                   tol: Tolerance = DEFAULT_TOL) -> ElementaryKit:
    _require(len(frame.projections) == 2, "spin kit needs 2 projections")
    _require_frame(V, frame, tol)
    p1, p2 = frame.projections
    # the construction needs 2 p1 o s = 2 p2 o s = s, which the verified
    # frame implies: U_s(p1) = p2 and s^2 = 1 give p1 s + s p1 = s
    s = _find_symmetry(frame, 0, 1)
    u = s.copy()
    E1 = mult_operator(V, s) @ mult_operator(V, 2.0 * p2) @ mult_operator(V, 2.0 * p1)
    E0 = E1 @ mult_operator(V, s)
    log = _log("spin", V, [("p1", p1), ("p2", p2), ("s", s), ("u", u)])
    return ElementaryKit(V, u, {0: E0, 1: E1}, log)


# ---------------------------------------------------------------------------
# gluing over direct sums


def _embed_kits(kits, A: JordanAlgebra, summands) -> ElementaryKit:
    n = A.dim
    u = np.zeros(n, dtype=np.complex128)
    have_e2 = all(k.has_e2() for k in kits)      # every full kit has a v
    v = np.zeros(n, dtype=np.complex128) if have_e2 else None
    ops = {i: np.zeros((n, n), dtype=np.complex128)
           for i in ([0, 1, 2] if have_e2 else [0, 1])}
    log = [{"case": "glued", "algebra": A.name}]
    for kit, sm in zip(kits, summands):
        sl = slice(sm.offset, sm.offset + sm.dim)
        u[sl] = kit.u
        if have_e2:
            v[sl] = kit.v
        for i in ops:
            ops[i][sl, sl] = kit.e_ops[i]
        log.extend(kit.construction_log)
    return ElementaryKit(A, u, ops, log, v=v)


# ---------------------------------------------------------------------------
# one-call builder from a registry entry


def build_kit(entry: ZooEntry, tol: Tolerance = DEFAULT_TOL,
              alternate: bool = False) -> ElementaryKit:
    """Build the canonical kit for a zoo entry.

    Matrix and albert frames go through build_frame_kit (Case I on matrix:4,
    Case II otherwise), except the 2-projection frame of matrix:2, which
    takes the spin construction as spin factors do; direct sums glue their
    summand kits.  `alternate` builds a second, genuinely different kit over
    the same algebra: the roles rotate by one, and a spin factor swaps its
    exchanging symmetry.  A 2-projection frame has no second kit (its role
    swap rebuilds the same u, E0 and E1), so its alternate is refused.
    """
    A = entry.algebra
    kind = entry.kind
    if kind in ("sum", "func"):
        kits = [build_kit(algebra_by_name(sm.name), tol, alternate)
                for sm in entry.summands]
        return _embed_kits(kits, A, entry.summands)
    _require(kind != "one", "the 1-dimensional algebra 'one' admits no kit")
    if kind == "spin":
        frame = entry.frame
        if alternate:
            # canonical symmetry is f2; the next unit f3 also flips f1
            _require(A.dim >= 4, "alternate spin kit needs a third spin unit")
            f3 = np.eye(A.dim, dtype=np.complex128)[3]
            frame = Frame(list(frame.projections), [FrameSymmetry(f3, 0, 1)])
        return build_kit_spin(A, frame, tol)
    order = list(range(len(entry.frame.projections)))    # matrix and albert
    if len(order) == 2:
        _require(not alternate, "a 2-projection frame has no alternate kit: "
                 "swapping its roles rebuilds the same u, E0 and E1")
        return build_kit_spin(A, entry.frame, tol)
    if alternate:
        order = order[1:] + order[:1]
    return build_frame_kit(A, entry.frame, order, tol)


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
