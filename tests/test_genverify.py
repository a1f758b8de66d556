import json

import numpy as np
import pytest

import jordanlab.genverify as gv
from jordanlab.algebra_zoo import algebra_by_name
from jordanlab.elementary_ops import build_kit
from jordanlab.decompose import (
    associating_linear_residual,
    decompose_preserver,
    is_associating_linear,
    trace_is_associating,
)
from jordanlab.genverify import (
    SUITES,
    GenConfig,
    UnknownSuite,
    derive_seed,
    make_adversarial,
    make_associating_map,
    make_associating_trace,
    make_standard_preserver,
    random_central,
    random_central_invertible,
    random_element,
    random_inner_automorphism,
    random_symmetry,
    report_to_json,
    report_to_markdown,
    run_suite,
)
from jordanlab.jordan_core import (
    in_center_span,
    is_symmetry,
    jordan_homomorphism_residual,
    jordan_inverse,
    mult_operator,
    star_map_residual,
)
from jordanlab.numerics import DEFAULT_TOL


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(samples=0)
    with pytest.raises(ValueError):
        GenConfig(magnitude=0.0)
    assert GenConfig().samples == 100


@pytest.mark.parametrize("rate", [float("nan"), -1.0, 2.0])
def test_config_rejects_bad_adversarial_rate(rate):
    with pytest.raises(ValueError):
        GenConfig(adversarial_rate=rate)


def test_derive_seed_stable_and_distinct():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert 0 <= derive_seed("x") < 2 ** 62


def test_random_element_seeded():
    A = algebra_by_name("matrix:3").algebra
    assert np.array_equal(random_element(A, 5), random_element(A, 5))
    assert not np.array_equal(random_element(A, 5), random_element(A, 6))


@pytest.mark.parametrize("name", ["matrix:3", "spin:5", "albert",
                                  "sum:matrix:2+spin:4", "sum:one+matrix:2"])
def test_random_symmetry_and_automorphism(name):
    entry = algebra_by_name(name)
    A = entry.algebra
    for k in range(3):
        assert is_symmetry(A, random_symmetry(name, k))
    J = random_inner_automorphism(name, 2, 0)
    assert jordan_homomorphism_residual(A, A, J) <= 1e-9
    assert star_map_residual(A, A, J) <= 1e-9


def test_inner_automorphism_empty_word_is_identity():
    J = random_inner_automorphism("matrix:3", 0, 1)
    assert np.array_equal(J, np.eye(9))


def test_random_central():
    A = algebra_by_name("sum:matrix:3+matrix:4").algebra
    z = random_central(A, 3)
    assert in_center_span(A, z)
    zi = random_central_invertible(A, 3)
    assert jordan_inverse(A, zi) is not None


def test_generated_map_is_associating_and_reconstructs():
    for name in ["matrix:3", "spin:4"]:
        A = algebra_by_name(name).algebra
        gen = make_associating_map(name, 11)
        assert is_associating_linear(A, gen.op)
        recon = mult_operator(A, gen.lam) + gen.mu
        assert np.abs(gen.op - recon).max() < 1e-12


def test_generated_trace_is_associating():
    for name in ["matrix:3", "spin:4", "sum:matrix:3+matrix:4"]:
        A = algebra_by_name(name).algebra
        gen = make_associating_trace(name, 12)
        assert trace_is_associating(A, gen.bilinear)


def test_spin_trace_targets_absorb_lambda():
    # the stored targets have lambda = 0 and still reconstruct the tensor
    name = "spin:4"
    A = algebra_by_name(name).algebra
    gen = make_associating_trace(name, 13)
    assert np.abs(gen.lam).max() == 0.0
    n = A.dim
    c = A.structure
    t = np.einsum("ijm,lm->ijl", c, mult_operator(A, gen.lam))
    half = np.einsum("mi,mjl->ijl", gen.mu, c)
    t = t + 0.5 * (half + half.transpose(1, 0, 2)) + gen.nu
    assert np.abs(t - gen.bilinear.tensor).max() < 1e-12


def test_generated_preserver_reconstructs():
    for name in ["matrix:3", "albert"]:
        A = algebra_by_name(name).algebra
        gen = make_standard_preserver(name, 14)
        recon = mult_operator(A, gen.z0) @ gen.J + gen.beta
        assert np.abs(gen.op - recon).max() < 1e-12
        sv = np.linalg.svd(gen.op, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]


# Ill-conditioned symmetric preservers (condition numbers up to 6e5) whose
# first-pass J misses the 1e-9 homomorphism bound by rounding in the kit
# formulas; the Gauss-Newton refinement of lambda and mu1 recovers them.
@pytest.mark.parametrize("name,seed", [
    ("sum:matrix:3+matrix:4", 2996307061732697307),
    ("sum:matrix:3+matrix:4", 2728324383677764035),
    ("sum:matrix:3+matrix:4", 10402543506267917),
    ("sum:matrix:3+matrix:4", 1490121047675796053),
    ("sum:matrix:3+matrix:4", 1250586065139356150),
    ("sum:matrix:3+matrix:4", 3169444839278032425),
    ("matrix:3", 2893341909391013561),
    ("matrix:3", 1537474855847638950),
    ("matrix:3", 2833210446751804525),
    ("matrix:4", 3446079253839459020),
    ("matrix:4", 1585228065555585469),
])
def test_ill_conditioned_symmetric_preserver(name, seed):
    entry = algebra_by_name(name)
    A = entry.algebra
    gen = make_standard_preserver(name, seed, symmetric=True)
    form = decompose_preserver(A, A, gen.op, build_kit(entry), check=False)
    for got, want in ((form.z0, gen.z0), (form.J, gen.J), (form.beta, gen.beta)):
        assert np.abs(got - want).max() <= 10 * DEFAULT_TOL.abs_eps


def test_adversarial_kinds():
    A = algebra_by_name("matrix:3").algebra
    T = make_adversarial("non_associating", "matrix:3", 1)
    assert associating_linear_residual(A, T) > 1e-3
    T2 = make_adversarial("non_central_mu", "matrix:3", 1)
    assert associating_linear_residual(A, T2) > 1e-3
    phi = make_adversarial("spin_generic_bijection", "spin:4", 1)
    V = algebra_by_name("spin:4").algebra
    assert not in_center_span(V, phi[:, 0])
    with pytest.raises(ValueError):
        make_adversarial("spin_generic_bijection", "matrix:3", 1)
    with pytest.raises(ValueError):
        make_adversarial("nope", "matrix:3", 1)


def test_run_suite_unknown():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


def test_registry_is_complete():
    assert set(SUITES) == {
        "axioms", "kits", "topping", "spin_commutant", "bresar_identities",
        "capelli_agreement", "central_annihilator",
        "decompose_linear_roundtrip", "decompose_trace_roundtrip",
        "preserver_roundtrip", "preserver_symmetric", "negative_controls",
        "mixed_products"}


def test_reports_are_deterministic():
    cfg = GenConfig(master_seed=3, samples=3)
    a = json.dumps(report_to_json(run_suite("kits", cfg)), sort_keys=True)
    b = json.dumps(report_to_json(run_suite("kits", cfg)), sort_keys=True)
    assert a == b
    c = json.dumps(report_to_json(
        run_suite("kits", GenConfig(master_seed=4, samples=3))),
        sort_keys=True)
    assert a != c


def test_records_shape_and_sorting():
    rep = run_suite("central_annihilator", GenConfig(samples=1))
    keys = {"check_name", "algebra", "seed", "residual", "tol", "pass",
            "detail", "expected_failure"}
    for r in rep.records:
        assert set(r) == keys
    order = [(r["algebra"], r["check_name"], r["seed"], r["detail"])
             for r in rep.records]
    assert order == sorted(order)


def test_negative_controls_all_expected_failures_caught():
    rep = run_suite("negative_controls", GenConfig(samples=2))
    assert rep.all_pass()
    assert all(r["expected_failure"] for r in rep.records)


def test_negative_controls_flag_a_decomposer_that_succeeds(monkeypatch):
    monkeypatch.setattr(gv, "decompose_linear", lambda *args, **kwargs: None)
    rep = run_suite("negative_controls", GenConfig(samples=2))
    bad = [r for r in rep.records if not r["pass"]]
    # two algebras x two adversarial kinds, all handed to decompose_linear
    assert len(bad) == 4
    assert {r["check_name"] for r in bad} == {"neg:non_associating",
                                              "neg:non_central_mu"}
    assert {r["detail"] for r in bad} == {"decomposition unexpectedly succeeded"}


def test_adversarial_rate_mixes_failures_in():
    cfg = GenConfig(master_seed=1, samples=8, adversarial_rate=0.5)
    rep = run_suite("decompose_linear_roundtrip", cfg)
    kinds = {r["check_name"] for r in rep.records}
    assert "lin:adversarial" in kinds
    assert rep.all_pass()


def test_markdown_rendering():
    rep = run_suite("spin_commutant", GenConfig(samples=2))
    md = report_to_markdown(rep)
    assert "suite: spin_commutant" in md
    assert "records pass" in md
    assert "| spin:4" not in md.split("\n")[0]
