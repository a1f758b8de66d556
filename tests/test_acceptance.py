"""Acceptance gate: one test per claimed property, run at full sample size.

Each test drives a genverify suite with samples=100 and asserts every
record passes at its stated tolerance, so `pytest -v` on this file gives
one pass/fail line per criterion.  The whole file takes about six seconds
on a 2-core x86 machine; the heavy suites are the decomposition round trips.
"""

from functools import lru_cache

from jordanlab.genverify import GenConfig, run_suite

MASTER_SEED = 7
SAMPLES = 100


@lru_cache(maxsize=None)
def _run(suite: str):
    return run_suite(suite, GenConfig(master_seed=MASTER_SEED, samples=SAMPLES))


def _failing(rep, limit=5):
    bad = [r for r in rep.records if not r["pass"]]
    return [(r["check_name"], r["algebra"], r["residual"], r["tol"])
            for r in bad[:limit]]


def _by_check(rep, name):
    return [r for r in rep.records if r["check_name"] == name]


KIT_ALGEBRAS = {"matrix:3", "matrix:4", "spin:4", "spin:6", "albert",
                "sum:matrix:3+matrix:4", "func:albert:2"}


def test_criterion_01_kit_correctness():
    rep = _run("kits")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 28
    assert {r["algebra"] for r in rep.records} == KIT_ALGEBRAS
    for r in _by_check(rep, "kit:kronecker"):
        assert r["residual"] <= 1e-9, (r["algebra"], r["residual"])
    for r in _by_check(rep, "kit:norm"):
        assert r["residual"] <= 10.0 + 1e-6, (r["algebra"], r["residual"])


def test_criterion_02_linear_decomposition_roundtrip():
    rep = _run("decompose_linear_roundtrip")
    assert rep.all_pass(), _failing(rep)
    # 6 algebras x 100 maps x (recovery + residual); no 1-dim summands
    assert len(rep.records) == 1200
    assert all("one" not in r["algebra"] for r in rep.records)
    for r in _by_check(rep, "lin:recovery"):
        assert r["tol"] == 1e-8
    for r in _by_check(rep, "lin:residual"):
        assert r["tol"] == 1e-9


def test_criterion_03_trace_roundtrip():
    rep = _run("decompose_trace_roundtrip")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 1400
    spin = _by_check(rep, "trace:spin_lambda_zero")
    assert len(spin) == 200
    assert {r["algebra"] for r in spin} == {"spin:4", "spin:6"}
    for r in spin:
        assert r["residual"] <= 1e-10, (r["algebra"], r["residual"])


def test_criterion_04_preserver_roundtrip():
    rep = _run("preserver_roundtrip")
    assert rep.all_pass(), _failing(rep)
    # 4 algebras x (100 x 2 + 10 uniqueness cross-checks)
    assert len(rep.records) == 840
    assert {r["algebra"] for r in rep.records} == {
        "matrix:3", "matrix:4", "sum:matrix:3+matrix:4", "albert"}
    for r in _by_check(rep, "prsv:J_residual"):
        assert r["tol"] == 1e-9
    uniq = _by_check(rep, "prsv:uniqueness")
    assert len(uniq) == 40
    for r in uniq:
        assert r["residual"] <= 1e-8, (r["algebra"], r["residual"])


def test_criterion_05_symmetric_preservers():
    rep = _run("preserver_symmetric")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 200  # 50 per algebra
    for r in rep.records:
        assert r["check_name"] == "prsv_sym:corollary"
        assert r["residual"] <= 1e-9


def test_criterion_06_topping_equivalence():
    rep = _run("topping")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 8
    assert {r["algebra"] for r in rep.records} == {
        "matrix:2", "matrix:3", "matrix:4", "matrix:5"}
    for r in _by_check(rep, "topping:agreement"):
        assert r["detail"] == "1000 random pairs"
    for r in _by_check(rep, "topping:constructed"):
        assert r["detail"].startswith("50 polynomial pairs")


def test_criterion_07_spin_commutant():
    rep = _run("spin_commutant")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 4
    assert {r["algebra"] for r in rep.records} == {"spin:4", "spin:6"}
    dims = _by_check(rep, "spin:commutant_dim")
    assert all(r["residual"] == 0.0 for r in dims)  # no wrong-dimension samples
    assert all("100 non-central samples" in r["detail"] for r in dims)


def test_criterion_08_capelli_agreement():
    rep = _run("capelli_agreement")
    assert rep.all_pass(), _failing(rep)
    agree = _by_check(rep, "capelli:agreement")
    assert len(agree) == 1
    assert agree[0]["residual"] == 0.0  # zero mismatches against the Gram oracle
    assert agree[0]["detail"] == "500 tuples, 100 forced-dependent"
    triples = _by_check(rep, "capelli:kit_triple")
    assert {r["algebra"] for r in triples} == {"matrix:3", "matrix:4", "matrix:5"}
    assert all(r["residual"] == 0.0 for r in triples)


def test_criterion_09_bresar_identities():
    rep = _run("bresar_identities")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 18  # 2 algebras x 3 traces x 3 identities
    for r in _by_check(rep, "bresar:cyclic") + _by_check(rep, "bresar:polarized"):
        assert r["tol"] == 1e-9
    six = _by_check(rep, "bresar:six_term")
    assert len(six) == 6
    for r in six:
        assert r["tol"] == 1e-8 and r["detail"] == "100 pairs"


def test_criterion_10_negative_controls():
    rep = _run("negative_controls")
    assert rep.all_pass(), _failing(rep)
    assert all(r["expected_failure"] for r in rep.records)
    names = {r["check_name"] for r in rep.records}
    assert names == {"neg:spin_bijection", "neg:one_dim_summand",
                     "neg:non_associating", "neg:non_central_mu",
                     "neg:broken_J"}
    spin = _by_check(rep, "neg:spin_bijection")[0]
    assert spin["detail"] == "JNotMultiplicative"
    for r in _by_check(rep, "neg:non_associating"):
        assert r["detail"] == "NotAssociating"


def test_criterion_11_mixed_products():
    rep = _run("mixed_products")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 50  # 10 traces x (2 summands x 2 + 1 map check)
    names = {r["check_name"] for r in rep.records}
    assert names == {"mixed:standard_form", "mixed:cross_center",
                     "mixed:linear_cross_block"}
    for r in rep.records:
        assert r["tol"] == 1e-9


def test_criterion_12_axioms():
    rep = _run("axioms")
    assert rep.all_pass(), _failing(rep)
    assert len(rep.records) == 42  # 7 algebras x 6 axioms
    assert {r["algebra"] for r in rep.records} == KIT_ALGEBRAS
    for r in rep.records:
        assert r["tol"] == 1e-9
