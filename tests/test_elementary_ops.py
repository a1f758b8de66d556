"""Kit construction across the zoo plus the worked examples: exact
Kronecker relations, the mid-construction identities, the perturbation
counterexample, gluing, and JSON round-trips."""

import re

import numpy as np
import pytest

from jordanlab.algebra_zoo import (
    Frame,
    FrameSymmetry,
    algebra_by_name,
    matrix_jordan,
    matrix_unit_index,
    permutation_symmetry,
    spin_factor,
    spin_frame,
)
from jordanlab.elementary_ops import (
    FrameInvalid,
    build_frame_kit,
    build_kit,
    build_kit_spin,
    kit_from_json,
    kit_to_json,
    verify_kit,
)
from jordanlab.jordan_core import element_power, product, u_operator
from jordanlab.numerics import DEFAULT_TOL, vector_from_json

TOL = DEFAULT_TOL


def kronecker_table(kit):
    # j ranges over the kit's own indices: without E2 the powers of u stop
    # spanning anything new at u^2 (u^2 = 1 in a spin factor)
    A = kit.algebra
    out = {}
    for i in sorted(kit.e_ops):
        for j in sorted(kit.e_ops):
            got = kit.apply(i, element_power(A, kit.u, j))
            out[i, j] = float(np.abs(got - (A.unit if i == j else 0)).max())
    return out


@pytest.mark.parametrize("name", ["matrix:2", "matrix:3", "matrix:4",
                                  "matrix:5", "matrix:6", "matrix:7",
                                  "spin:4", "spin:6", "albert"])
def test_kit_kronecker_exact(name):
    # matrix:6 and matrix:7 are the only frames with groups of two units,
    # where s and s' are joined from several frame symmetries
    kit = build_kit(algebra_by_name(name))
    table = kronecker_table(kit)
    assert max(table.values()) < 1e-12, table


# squared spectral norms of E0, E1 (, E2) on the canonical kits
KIT_NORMS_SQUARED = {"matrix:3": [3.0, 1.5, 6.0], "matrix:4": [4.0, 2.0, 8.0],
                     "albert": [3.0, 3.0, 6.0], "spin:4": [1.0, 1.0]}


@pytest.mark.parametrize("name", sorted(KIT_NORMS_SQUARED))
def test_kit_norms_closed_form(name):
    want = np.sqrt(KIT_NORMS_SQUARED[name])
    norms = verify_kit(build_kit(algebra_by_name(name)))["norm_estimates"]
    got = np.array([norms[f"E{i}"] for i in range(len(want))])
    assert np.abs(got - want).max() < 1e-12


def test_matrix3_kit_u_is_offdiagonal_symmetry_part():
    kit = build_kit(algebra_by_name("matrix:3"))
    want = np.zeros(9, dtype=complex)
    want[matrix_unit_index(3, 0, 1)] = 1.0
    want[matrix_unit_index(3, 1, 0)] = 1.0
    assert np.abs(kit.u - want).max() < 1e-12


def test_case2_mid_identities():
    # U_{p3}(u) = 0 and U_{p3}(u^2) = 0: the block p3 never sees u
    for name in ["matrix:3", "matrix:5", "albert"]:
        entry = algebra_by_name(name)
        kit = build_kit(entry)
        A = entry.algebra
        roles = {d["role"]: vector_from_json(d["coords"])
                 for d in kit.construction_log if "role" in d}
        p3 = roles["p3"]
        up3 = u_operator(A, p3)
        assert np.abs(up3 @ kit.u).max() < 1e-12
        assert np.abs(up3 @ product(A, kit.u, kit.u)).max() < 1e-12


def test_verify_kit_full_report():
    kit = build_kit(algebra_by_name("matrix:4"))
    rep = verify_kit(kit, TOL, seed=0)
    assert rep["passed"]
    assert rep["kronecker_max"] < 1e-12
    assert rep["norm_max"] <= 10.0 + 1e-6
    assert rep["star_symmetry"] < 1e-9
    assert rep["central_linearity"] < 1e-9
    assert set(rep["norm_estimates"]) == {"E0", "E1", "E2"}


def test_perturbed_kit_fails_verification():
    kit = build_kit(algebra_by_name("matrix:3"))
    kit.e_ops[1] = 1.01 * kit.e_ops[1]
    rep = verify_kit(kit, TOL, seed=0)
    assert not rep["passed"]
    assert abs(rep["kronecker"]["1,1"] - 0.01) < 1e-9


def test_spin_kit_has_no_e2():
    kit = build_kit(algebra_by_name("spin:4"))
    assert not kit.has_e2()
    assert set(kit.e_ops) == {0, 1}
    assert verify_kit(kit, TOL)["passed"]


def test_spin_kit_rejects_tiny_factor():
    with pytest.raises(ValueError):
        spin_factor(2)


def test_one_dimensional_summand_rejected():
    with pytest.raises(FrameInvalid):
        build_kit(algebra_by_name("one"))
    with pytest.raises(FrameInvalid):
        build_kit(algebra_by_name("sum:one+matrix:2"))


def test_glued_kit_over_direct_sum():
    entry = algebra_by_name("sum:matrix:3+matrix:4")
    kit = build_kit(entry)
    assert kit.has_e2()
    rep = verify_kit(kit, TOL)
    assert rep["passed"], rep
    # the glued u restricts to each summand's u
    k3 = build_kit(algebra_by_name("matrix:3"))
    assert np.allclose(kit.u[:9], k3.u)


def test_gluing_matrix_with_spin_drops_e2():
    entry = algebra_by_name("sum:matrix:3+spin:4")
    kit = build_kit(entry)
    assert not kit.has_e2()       # spin summand has no E2 to contribute
    assert verify_kit(kit, TOL)["passed"]


def test_function_power_kit():
    kit = build_kit(algebra_by_name("func:albert:2"))
    assert kit.algebra.dim == 54
    table = kronecker_table(kit)
    assert max(table.values()) < 1e-12


def test_alternate_kit_is_distinct_and_valid():
    entry = algebra_by_name("matrix:3")
    kit = build_kit(entry)
    alt = build_kit(entry, alternate=True)
    assert np.abs(kit.u - alt.u).max() > 0.5
    assert verify_kit(alt, TOL)["passed"]
    entry4 = algebra_by_name("matrix:4")
    alt4 = build_kit(entry4, alternate=True)
    assert verify_kit(alt4, TOL)["passed"]
    assert np.abs(build_kit(entry4).u - alt4.u).max() > 0.5


def test_alternate_spin_kit():
    entry = algebra_by_name("spin:6")
    kit = build_kit(entry)
    alt = build_kit(entry, alternate=True)
    assert np.abs(kit.u - alt.u).max() > 0.5
    assert verify_kit(alt, TOL)["passed"]


def test_kit_json_roundtrip():
    kit = build_kit(algebra_by_name("matrix:3"))
    obj = kit_to_json(kit)
    back = kit_from_json(obj, kit.algebra)
    assert np.array_equal(back.u, kit.u)
    for i in kit.e_ops:
        assert np.array_equal(back.e_ops[i], kit.e_ops[i])
    assert back.construction_log == kit.construction_log


def test_kit_json_dimension_check():
    kit = build_kit(algebra_by_name("matrix:3"))
    with pytest.raises(ValueError):
        kit_from_json(kit_to_json(kit), algebra_by_name("matrix:4").algebra)


def test_construction_log_roles():
    kit = build_kit(algebra_by_name("matrix:4"))
    roles = [d["role"] for d in kit.construction_log if "role" in d]
    for want in ("p1", "p2", "p3", "p4", "s", "s'", "s''", "u", "v"):
        assert want in roles


def test_case2_rejects_symmetry_that_misses_p2():
    A, frame = matrix_jordan(3)
    # declared to join e00 and e11, but it exchanges e00 with e22
    frame.symmetries[0] = FrameSymmetry(permutation_symmetry(3, {0: 2}), 0, 1)
    with pytest.raises(FrameInvalid, match=re.escape(
            "frame fails U_s(p1) = p2: residual 1.0e+00 > tol 1.0e-09 "
            "(ratio 1.0e+09)")):
        build_frame_kit(A, frame, [0, 1, 2])


def test_case2_rejects_qpart_off_the_unit():
    A, frame = matrix_jordan(5)
    assert build_frame_kit(A, frame, range(5)) is not None
    # roles for five of the six units of matrix:6: e55 is left uncovered
    A6, frame6 = matrix_jordan(6)
    with pytest.raises(FrameInvalid, match="the projections sum to 1: residual 1.0e"):
        build_frame_kit(A6, frame6, range(5))


def test_qpart_rejects_symmetry_that_misses_q():
    A, frame = matrix_jordan(5)
    # the symmetry declared to join e11 and e33 exchanges e11 with e44
    sym = next(s for s in frame.symmetries if (s.source, s.target) == (1, 3))
    sym.element = permutation_symmetry(5, {1: 4})
    with pytest.raises(FrameInvalid, match=re.escape("U_t1(r1) = q1: residual 1.0e+00")):
        build_frame_kit(A, frame, range(5))


# every built-in kit the registry can name, canonical and alternate
ZOO_KITS = ["matrix:2", "matrix:3", "matrix:4", "matrix:5", "matrix:6",
            "matrix:7", "spin:3", "spin:4", "spin:6", "albert",
            "sum:matrix:3+matrix:4", "sum:matrix:2+matrix:5",
            "sum:matrix:3+spin:4", "func:albert:2", "func:matrix:3:2"]


# a 2-projection frame has no second kit, and spin:3 no third spin unit
NO_ALTERNATE = {"matrix:2", "spin:3", "sum:matrix:2+matrix:5"}


@pytest.mark.parametrize("name", ZOO_KITS)
def test_alternate_kit_differs_or_is_refused(name):
    entry = algebra_by_name(name)
    if name in NO_ALTERNATE:
        with pytest.raises(FrameInvalid):
            build_kit(entry, alternate=True)
        return
    alt = build_kit(entry, alternate=True)
    assert np.abs(alt.u - build_kit(entry).u).max() > 0.5


@pytest.mark.parametrize("name", ZOO_KITS)
def test_kit_entries_lie_in_eighth_integers(name):
    entry = algebra_by_name(name)
    kits = [build_kit(entry)]
    if name not in NO_ALTERNATE:
        kits.append(build_kit(entry, alternate=True))
    for kit in kits:
        for x in [kit.u, kit.v, *kit.e_ops.values()]:
            if x is not None:
                assert np.array_equal(8 * x, np.round(8 * x))


def test_spin_kit_rejects_s_with_2p_o_s_not_s():
    V = spin_factor(4)
    p1, p2 = spin_frame(V).projections
    f1 = np.zeros(4, dtype=complex)
    f1[1] = 1.0
    # f1 is a symmetry, but 2 p1 o f1 = 2 p1 != f1: U_f1 fixes p1
    assert np.abs(2.0 * product(V, p1, f1) - f1).max() > 0.5
    with pytest.raises(FrameInvalid, match=re.escape("frame fails U_s(p1) = p2")):
        build_kit_spin(V, Frame([p1, p2], [FrameSymmetry(f1, 0, 1)]))


def test_spin_kit_rejects_frame_without_exchanging_symmetry():
    V = spin_factor(4)
    frame = Frame(spin_frame(V).projections, [])
    with pytest.raises(FrameInvalid, match="lacks a symmetry"):
        build_kit_spin(V, frame)
