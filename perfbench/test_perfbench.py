"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py            # about 5 minutes
    python3 -m pytest perfbench/test_perfbench.py -k "not repeat"   # seconds

The slow test runs every workload's traced pass twice with one seed and
requires the deterministic counts to repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, per_layer  # noqa: E402

DETERMINISTIC_UNITS = {"count", "bytes", "ratio"}
NOT_DETERMINISTIC = {"trace.overhead_ratio"}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail(list(range(1, 101)))
    assert value == 90 and pct == 90.0
    value, pct = run.tail([5.0, 1.0, 3.0])
    assert value == 5.0 and pct == 100.0


def test_cli_cycle_keeps_the_mix_in_every_prefix():
    slots = cli_inputs.cli_cycle(1)
    assert len(slots) == 20
    assert sum(not ok for _, _, ok in slots) == 5
    expensive = set(cli_inputs.EXPENSIVE)
    for k in range(1, 21):
        share = sum(s in expensive for s in slots[:k]) / k
        assert abs(share - 0.4) <= 1 / k
    assert cli_inputs.cli_cycle(1) == slots
    assert cli_inputs.cli_cycle(2) != slots


def test_expected_record_counts_match_the_suites():
    from jordanlab.genverify import GenConfig, run_suite

    cfg = GenConfig(master_seed=3, samples=2)
    for suite in ["preserver_roundtrip", "decompose_linear_roundtrip",
                  "mixed_products", "negative_controls"]:
        assert len(run_suite(suite, cfg).records) == worker.expected_records(suite, 2)


def _span(name, t0, t1, parent, label=None, extra=None):
    return [name, label, t0, t1, parent, 0, extra]


def test_self_busy_and_extract_times():
    spans = [
        _span("decompose_trace", 0.0, 10.0, -1, "albert"),
        _span("trace_is_associating", 1.0, 4.0, 0, "albert", {"accepted": True}),
        _span("trace_associating_residual", 1.5, 3.5, 1, "albert"),
        _span("product", 5.0, 6.0, 0, "albert"),
        _span("build_kit", 11.0, 15.0, -1, "sum:matrix:3+matrix:4"),
        _span("build_kit", 11.5, 12.0, 4, "matrix:3"),
    ]
    m = per_layer(spans, 0)
    assert m["decompose_trace.self_ms"] == pytest.approx(6000.0)
    assert m["decompose_trace.extract_ms"] == pytest.approx(7000.0)
    assert m["decompose_trace.albert.extract_ms"] == pytest.approx(7000.0)
    assert m["trace_associating_residual.busy_ms"] == pytest.approx(2000.0)
    assert m["build_kit.busy_ms"] == pytest.approx(4000.0)   # nested call not twice
    assert m["build_kit.calls"] == 2
    assert m["build_kit.matrix-3.busy_ms"] == pytest.approx(500.0)
    assert m["certificate.accept_ratio"] == 1.0


def test_tracer_wraps_every_binding_and_restores_them():
    import jordanlab.cli as cli
    import jordanlab.decompose as dec
    import jordanlab.genverify as gv

    original = dec.decompose_trace
    tracer = Tracer()
    tracer.install()
    try:
        assert gv.decompose_trace is dec.decompose_trace is not original
        assert cli.build_kit is gv.build_kit
        cli.canonical_json({"a": 1})
    finally:
        tracer.uninstall()
    assert gv.decompose_trace is original
    assert [s[0] for s in tracer.spans] == ["canonical_json"]


class _Proc:
    def __init__(self, returncode, stdout="", stderr=""):
        self.returncode, self.stdout, self.stderr = returncode, stdout, stderr


def test_cli_oracle_rejects_wrong_verdicts_and_parameters():
    check = worker.CliCold.check
    lam = [[1.0, 0.0]]
    mu = {"rows": 1, "cols": 1, "data": [[2.0, 0.0]]}
    out = json.dumps({"lambda": lam, "mu": mu, "residual": 0.0})
    assert check(_Proc(6), None) is None
    assert check(_Proc(0, "{}"), None) is not None
    assert check(_Proc(0, out), {"lambda": lam, "mu": mu}) is None
    off = {"rows": 1, "cols": 1, "data": [[2.0 + 1e-6, 0.0]]}
    assert check(_Proc(0, out), {"lambda": lam, "mu": off}) is not None
    wide = {"rows": 1, "cols": 2, "data": [[2.0, 0.0], [0.0, 0.0]]}
    assert check(_Proc(0, out), {"lambda": lam, "mu": wide}) is not None
    nu = json.dumps({"nu": [[0, 0, 0, 1.0, 0.0]]})
    assert check(_Proc(0, nu), {"nu": [[0, 0, 0, 1.0, 0.0]]}) is None
    assert check(_Proc(0, nu), {"nu": [[0, 0, 1, 1.0, 0.0]]}) is not None
    assert check(_Proc(7, "", "boom"), {"lambda": lam}) is not None


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify_batch", "cli_cold", "large_dim"])
def test_deterministic_counts_repeat(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items()
              if v["unit"] in DETERMINISTIC_UNITS and k not in NOT_DETERMINISTIC}
    assert "product.calls" in counts and "associator_tensor.computed_bytes" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
