"""End-to-end CLI checks: exit codes, canonical output, environment seeding.

`run_cli` calls `jordanlab.cli.main` in this process; one test runs the real
`python -m jordanlab.cli` entry point in a child process.
"""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from jordanlab import cli
from jordanlab.algebra_zoo import algebra_by_name
from jordanlab.elementary_ops import build_kit
from jordanlab.genverify import (
    make_adversarial,
    make_associating_map,
    make_associating_trace,
    make_standard_preserver,
)
from jordanlab.jordan_core import linop_to_json
from jordanlab.decompose import BilinearMap, bilinear_to_json


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None):
    """`jordanlab <args>` in process, under `env` if given: the exit code
    and the captured output, as a finished child process reports them."""
    out, err = io.StringIO(), io.StringIO()
    saved = dict(os.environ)
    if env is not None:
        os.environ.clear()
        os.environ.update(env)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as ex:    # argparse errors and unknown names
                code = ex.code
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def test_module_entry_point_in_a_child_process():
    # the child imports the package from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "jordanlab.cli"]
    r = subprocess.run([*cmd, "zoo", "list"], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli("zoo", "list").stdout
    r = subprocess.run([*cmd, "kit", "build", "--algebra", "one"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 4
    assert "frame invalid" in r.stderr


def test_zoo_list():
    r = run_cli("zoo", "list")
    assert r.returncode == 0
    assert "matrix:<n>" in r.stdout
    assert "albert" in r.stdout


def test_zoo_export(tmp_path):
    out = tmp_path / "spin.json"
    r = run_cli("zoo", "export", "--algebra", "spin:4", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 4


def test_unknown_algebra_exits_2():
    assert run_cli("zoo", "export", "--algebra", "matrix:1").returncode == 2
    assert run_cli("kit", "build", "--algebra", "blob:9").returncode == 2


def test_algebra_above_the_dimension_limit_exits_2_unbuilt(monkeypatch):
    def refuse(*args):
        raise AssertionError("an algebra above the limit was built")

    for constructor in ("matrix_jordan", "albert_algebra", "direct_sum"):
        monkeypatch.setattr(f"jordanlab.algebra_zoo.{constructor}", refuse)
    for name, dim in (("matrix:40", 1600), ("sum:albert+albert+albert", 81)):
        r = run_cli("zoo", "export", "--algebra", name)
        assert r.returncode == 2, r.stderr
        assert f"{name} has dimension {dim}, above the limit of 54" in r.stderr


def test_kit_build_roundtrip(tmp_path):
    out = tmp_path / "kit.json"
    r = run_cli("kit", "build", "--algebra", "matrix:3", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["verification"]["passed"] is True
    assert doc["E2"] is not None
    assert doc["algebra"] == "matrix:3"


def test_kit_build_frame_invalid_exits_4():
    r = run_cli("kit", "build", "--algebra", "one")
    assert r.returncode == 4
    assert "frame invalid" in r.stderr


def test_verify_unknown_suite_exits_2():
    assert run_cli("verify", "nope", "--trials", "1").returncode == 2


def test_verify_byte_identical_and_md(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("verify", "central_annihilator", "--trials", "2",
                   "--out", str(a)).returncode == 0
    assert run_cli("verify", "central_annihilator", "--trials", "2",
                   "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    r = run_cli("verify", "central_annihilator", "--trials", "2",
                "--format", "md")
    assert r.returncode == 0
    assert r.stdout.startswith("# suite:")


def test_verify_env_seed(tmp_path, monkeypatch):
    env = dict(os.environ, JORDANLAB_SEED="17")
    r = run_cli("verify", "central_annihilator", "--trials", "2", env=env)
    doc = json.loads(r.stdout)
    assert doc["reports"][0]["config"]["master_seed"] == 17
    r2 = run_cli("verify", "central_annihilator", "--trials", "2",
                 "--seed", "4", env=env)
    assert json.loads(r2.stdout)["reports"][0]["config"]["master_seed"] == 4


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_malformed_env_seed(value):
    env = dict(os.environ, JORDANLAB_SEED=value)
    r = run_cli("verify", "central_annihilator", "--trials", "2", env=env)
    assert r.returncode == 2
    assert "--seed" in r.stderr and "Traceback" not in r.stderr
    r2 = run_cli("verify", "central_annihilator", "--trials", "2",
                 "--seed", "4", env=env)
    assert r2.returncode == 0, r2.stderr
    assert json.loads(r2.stdout)["reports"][0]["config"]["master_seed"] == 4


def test_decompose_linear_end_to_end(tmp_path):
    A = algebra_by_name("matrix:3").algebra
    gen = make_associating_map("matrix:3", 21)
    inp = tmp_path / "lin.json"
    inp.write_text(json.dumps(linop_to_json(A, gen.op)))
    out = tmp_path / "form.json"
    r = run_cli("decompose", "linear", "--algebra", "matrix:3",
                "--input", str(inp), "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    lam = np.array([complex(re, im) for re, im in doc["lambda"]])
    assert np.abs(lam - gen.lam).max() < 1e-8


def test_decompose_trace_end_to_end(tmp_path):
    gen = make_associating_trace("matrix:3", 22)
    inp = tmp_path / "trace.json"
    inp.write_text(json.dumps(bilinear_to_json(gen.bilinear)))
    r = run_cli("decompose", "trace", "--algebra", "matrix:3",
                "--input", str(inp))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["residual"] < 1e-9


def test_decompose_preserver_end_to_end(tmp_path):
    A = algebra_by_name("matrix:3").algebra
    gen = make_standard_preserver("matrix:3", 23)
    inp = tmp_path / "phi.json"
    inp.write_text(json.dumps(linop_to_json(A, gen.op)))
    r = run_cli("decompose", "preserver", "--algebra", "matrix:3",
                "--input", str(inp))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    z0 = np.array([complex(re, im) for re, im in doc["z0"]])
    assert np.abs(z0 - gen.z0).max() < 1e-8


def test_decompose_rejects_non_associating_exits_6(tmp_path):
    A = algebra_by_name("matrix:3").algebra
    T = make_adversarial("non_associating", "matrix:3", 3)
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(linop_to_json(A, T)))
    r = run_cli("decompose", "linear", "--algebra", "matrix:3",
                "--input", str(inp))
    assert r.returncode == 6
    assert "NotAssociating" in r.stderr


def test_rejection_names_the_slice_residual_and_tol(tmp_path):
    gen = make_associating_trace("matrix:3", 22)
    noise = np.random.default_rng(0).standard_normal((9, 9, 9))
    t = gen.bilinear.tensor + 1e-4 * (noise + noise.transpose(1, 0, 2))
    inp = tmp_path / "perturbed.json"
    inp.write_text(json.dumps(bilinear_to_json(BilinearMap(gen.bilinear.algebra, t))))
    r = run_cli("decompose", "trace", "--algebra", "matrix:3",
                "--input", str(inp), "--tol", "1e-6")
    assert r.returncode == 6, r.stderr
    assert re.search(r"NotAssociating: trace fails the cyclic associator certificate "
                     r"at b_m=\d+: residual \d\.\de-0\d > tol 1\.0e-06 "
                     r"\(ratio \d\.\de\+0\d\)$", r.stderr.strip()), r.stderr


def test_decompose_broken_preserver_exits_6_or_7(tmp_path):
    A = algebra_by_name("matrix:3").algebra
    phi = make_adversarial("broken_J", "matrix:3", 3)
    inp = tmp_path / "badphi.json"
    inp.write_text(json.dumps(linop_to_json(A, phi)))
    r = run_cli("decompose", "preserver", "--algebra", "matrix:3",
                "--input", str(inp))
    assert r.returncode in (6, 7)


def _malformed_input(case):
    """(target, document) for one malformed --input file on matrix:3."""
    A = algebra_by_name("matrix:3").algebra
    lin = linop_to_json(A, np.eye(9))
    trace = bilinear_to_json(make_associating_trace("matrix:3", 22).bilinear)
    rows = trace["tensor"]
    if case == "data_string":
        lin["matrix"]["data"] = "x"
    elif case == "nan_entry":
        lin["matrix"]["data"][4] = [float("nan"), 0.0]
    elif case == "wrong_shape":
        lin = linop_to_json(A, np.eye(4))
    elif case == "data_too_short":
        lin["matrix"]["data"].pop()
    elif case == "trace_nan_entry":
        rows[0][3] = float("nan")
    elif case == "trace_index_too_large":
        rows[0][2] = 9
    elif case == "trace_index_negative":
        rows[0][0] = -1
    elif case == "trace_short_rows":
        trace["tensor"] = [row[:4] for row in rows]
    return ("trace", trace) if case.startswith("trace") else ("linear", lin)


@pytest.mark.parametrize("case", [
    "data_string", "nan_entry", "wrong_shape", "data_too_short",
    "trace_nan_entry", "trace_index_too_large", "trace_index_negative",
    "trace_short_rows"])
def test_malformed_input_exits_3(tmp_path, case):
    target, doc = _malformed_input(case)
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(doc))
    r = run_cli("decompose", target, "--algebra", "matrix:3",
                "--input", str(inp))
    assert r.returncode == 3, r.stderr
    assert str(inp) in r.stderr and "Traceback" not in r.stderr


def test_asymmetric_trace_exits_6(tmp_path):
    gen = make_associating_trace("matrix:3", 22)
    t = gen.bilinear.tensor.copy()
    t[0, 1, 2] += 0.1
    inp = tmp_path / "asym.json"
    inp.write_text(json.dumps(bilinear_to_json(BilinearMap(gen.bilinear.algebra, t))))
    r = run_cli("decompose", "trace", "--algebra", "matrix:3",
                "--input", str(inp))
    assert r.returncode == 6, r.stderr
    assert "trace is not symmetric: residual 1.0e-01 > tol 1.0e-09 (ratio 1.0e+08)" \
        in r.stderr


@pytest.mark.parametrize("args", [
    ("verify", "central_annihilator", "--trials", "0"),
    ("verify", "central_annihilator", "--tol", "-1"),
    ("verify", "central_annihilator", "--tol", "inf"),
    ("verify", "central_annihilator", "--tol", "nan"),
])
def test_bad_flag_value_exits_2(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_missing_input_exits_3(tmp_path):
    r = run_cli("decompose", "linear", "--algebra", "matrix:3",
                "--input", str(tmp_path / "absent.json"))
    assert r.returncode == 3


def test_wrong_kit_exits_5(tmp_path):
    A = algebra_by_name("matrix:3").algebra
    kit4 = tmp_path / "kit4.json"
    assert run_cli("kit", "build", "--algebra", "matrix:4",
                   "--out", str(kit4)).returncode == 0
    gen = make_associating_map("matrix:3", 24)
    inp = tmp_path / "lin.json"
    inp.write_text(json.dumps(linop_to_json(A, gen.op)))
    r = run_cli("decompose", "linear", "--algebra", "matrix:3",
                "--input", str(inp), "--kit", str(kit4))
    assert r.returncode == 5


def test_malformed_kit_exits_5(tmp_path):
    A = algebra_by_name("matrix:3").algebra
    kit = tmp_path / "kit.json"
    kit.write_text(json.dumps({"E0": 5, "E1": 5, "u": 5}))
    inp = tmp_path / "lin.json"
    inp.write_text(json.dumps(linop_to_json(A, np.eye(9))))
    r = run_cli("decompose", "linear", "--algebra", "matrix:3",
                "--input", str(inp), "--kit", str(kit))
    assert r.returncode == 5, r.stderr


@pytest.mark.parametrize("target", ["linear", "trace"])
def test_unverified_kit_exits_5(tmp_path, target):
    kit = tmp_path / "kit.json"
    assert run_cli("kit", "build", "--algebra", "matrix:3",
                   "--out", str(kit)).returncode == 0
    doc = json.loads(kit.read_text())
    doc["E1"]["matrix"]["data"][0][0] += 0.5    # E1(1) is no longer 0
    kit.write_text(json.dumps(doc))
    A = algebra_by_name("matrix:3").algebra
    if target == "linear":
        operand = linop_to_json(A, make_associating_map("matrix:3", 24).op)
    else:
        operand = bilinear_to_json(make_associating_trace("matrix:3", 22).bilinear)
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(operand))
    r = run_cli("decompose", target, "--algebra", "matrix:3",
                "--input", str(inp), "--kit", str(kit))
    assert r.returncode == 5, r.stderr
    assert "fails verification" in r.stderr and "kronecker_max" in r.stderr


@pytest.mark.parametrize("rate", ["nan", "-1", "2"])
def test_bad_adversarial_rate_exits_2(rate):
    r = run_cli("verify", "negative_controls", "--adversarial-rate", rate)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_canonical_float_format(tmp_path):
    out = tmp_path / "kit.json"
    run_cli("kit", "build", "--algebra", "spin:4", "--out", str(out))
    text = out.read_text()
    # canonical output is a single line with sorted keys
    assert text.count("\n") == 1
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


def test_failed_records_exit_1():
    r = run_cli("verify", "axioms", "--trials", "1", "--tol", "1e-300")
    assert r.returncode == 1
    assert "10 records failed" in r.stderr


def test_out_is_a_directory_exits_3(tmp_path):
    r = run_cli("zoo", "list", "--out", str(tmp_path))
    assert r.returncode == 3
    assert "i/o error" in r.stderr


def test_decompose_one_dim_summand_exits_4(tmp_path):
    A = algebra_by_name("sum:one+matrix:3").algebra
    inp = tmp_path / "lin.json"
    inp.write_text(json.dumps(linop_to_json(A, np.eye(A.dim))))
    r = run_cli("decompose", "linear", "--algebra", "sum:one+matrix:3",
                "--input", str(inp))
    assert r.returncode == 4
    assert "frame invalid" in r.stderr


def test_alternate_spin3_kit_exits_4():
    r = run_cli("kit", "build", "--algebra", "spin:3", "--alternate")
    assert r.returncode == 4
    assert "third spin unit" in r.stderr


def test_alternate_matrix2_kit_exits_4():
    r = run_cli("kit", "build", "--algebra", "matrix:2", "--alternate")
    assert r.returncode == 4
    assert "2-projection frame has no alternate kit" in r.stderr


def test_residual_past_the_certificate_exits_7(tmp_path):
    # 1e-7 of noise: the certificate reads 1.4e-7 and passes at tol 3e-7,
    # the standard-form residual reads 3.8e-7 and does not
    A = algebra_by_name("matrix:3").algebra
    Q = np.random.default_rng(5).standard_normal((9, 9))
    T = make_associating_map("matrix:3", 5).op + 1e-7 * Q
    inp = tmp_path / "lin.json"
    inp.write_text(json.dumps(linop_to_json(A, T)))
    r = run_cli("decompose", "linear", "--algebra", "matrix:3",
                "--input", str(inp), "--tol", "3e-7")
    assert r.returncode == 7, r.stderr
    assert "ResidualExceeded" in r.stderr


def test_decompose_with_built_kit_file(tmp_path):
    kit = tmp_path / "kit.json"
    assert run_cli("kit", "build", "--algebra", "matrix:3", "--alternate",
                   "--out", str(kit)).returncode == 0
    A = algebra_by_name("matrix:3").algebra
    gen = make_associating_map("matrix:3", 24)
    inp = tmp_path / "lin.json"
    inp.write_text(json.dumps(linop_to_json(A, gen.op)))
    r = run_cli("decompose", "linear", "--algebra", "matrix:3",
                "--input", str(inp), "--kit", str(kit))
    assert r.returncode == 0, r.stderr
    lam = np.array([complex(re, im) for re, im in json.loads(r.stdout)["lambda"]])
    assert np.abs(lam - gen.lam).max() < 1e-8


def test_kit_failing_its_self_check_exits_5(monkeypatch):
    # every built-in kit verifies, so a broken builder is simulated
    def broken(entry, tol, alternate=False):
        kit = build_kit(entry, tol, alternate)
        kit.e_ops[1] = kit.e_ops[1] + 1e-3
        return kit

    monkeypatch.setattr(cli, "build_kit", broken)
    r = run_cli("kit", "build", "--algebra", "matrix:3")
    assert r.returncode == 5
    assert "kit residual too large" in r.stderr and "kronecker_max" in r.stderr
    assert json.loads(r.stdout)["verification"]["passed"] is False
