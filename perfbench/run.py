"""jordanlab benchmark: one workload, checked, with its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs every workload in turn, each block ending in its result.

Run from the root of a source checkout (it needs src/jordanlab).  Workloads
(see BENCHMARK.json and perfbench/README.md):

  verify_batch  run_suite over all 13 suites, in process
  cli_cold      fresh `python -m jordanlab.cli decompose` processes
  large_dim     decompose_trace with its certificate on func:albert:2

With --trace 0 the workload is set up in fresh processes (set-up time is the
median of SETUPS of them) and measured in a closed loop, one client, for S
seconds; the end-to-end metrics are printed.  With --trace 1 the workload's
fixed operation list runs twice in fresh processes, untraced and traced;
the per-layer metrics come from the traced one and the tracing overhead is
the difference between the two.  The last line of stdout is the JSON
result; lines before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3               # set-up samples per run, the measuring worker's included
RUN_BUDGET_S = 170       # every worker of one run must end within this
HELD_OUT_SEED = 90210    # reserved for checking later claims; never tuned on
BLAS_THREADS = "1"


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list, deadline: float) -> dict:
    """Run perfbench/worker.py in its own process group; return its JSON."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=worker_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           + err.strip()[-2000:])
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies: list):
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile); with fewer than eleven samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(measured: dict, setups: list) -> tuple[dict, dict]:
    lat = measured["latencies_ms"]
    busy_s = sum(lat) / 1e3
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "records_per_s": measured["records"] / busy_s,
        "ops_per_s": len(lat) / busy_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    details = {"ops": len(lat), "records": measured["records"],
               "tail_percentile": tail_pct, "loop_s": measured["loop_s"],
               "setup_samples_s": setups,
               "failed_ratio": measured["failed"] / max(measured["attempted"], 1)}
    return metrics, details


def source_digest() -> str:
    """SHA-256 over the files under src/, which identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's own .git, read without running git, which
    would search the directories above the checkout; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, env: dict, config: dict) -> dict:
    return {"git_commit": git_commit(), "src_sha256": source_digest(), **env,
            "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
            "run_seconds": args.seconds, "clients": 1, "loop": "closed",
            "workload_config": config}


def run_workload(spec: dict, workload: str, args) -> int:
    """Run one workload, print its metrics and, last, its JSON result."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = [workload, "--seed", str(args.seed)]
    try:
        if args.trace == 0:
            setups = [run_worker(["setup", *common], deadline)["setup_s"]
                      for _ in range(SETUPS - 1)]
            measured = run_worker(["measure", *common, "--seconds", str(args.seconds)],
                                  deadline)
            metrics, details = end_to_end(measured, setups + [measured["setup_s"]])
            checked = [measured]
            listed = spec["end_to_end"]
        else:
            plain = run_worker(["fixed", *common, "--trace", "0"], deadline)
            traced = run_worker(["fixed", *common, "--trace", "1"], deadline)
            metrics = dict(traced["per_layer"])
            overhead_s = traced["wall_s"] - plain["wall_s"]
            metrics["trace.overhead_ms"] = overhead_s * 1e3
            metrics["trace.overhead_ratio"] = overhead_s / plain["wall_s"]
            details = {"untraced_wall_s": plain["wall_s"],
                       "traced_wall_s": traced["wall_s"],
                       "fixed_ops": traced["attempted"],
                       "spans_file": traced["spans_file"]}
            checked = [plain, traced]
            measured = traced
            listed = spec["per_layer"]
    except WorkerFailed as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    for r in checked:
        for line in r["failures"]:
            print(f"FAILED {line}")
    out = {}
    for m in listed:
        if m["name"] not in metrics:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {metrics[m['name']]} {m['unit']}")
    print(f"failed_ratio: {failed}/{attempted}")
    print("details: " + json.dumps(details, sort_keys=True))
    print("provenance: " + json.dumps(
        provenance(args, measured["environment"], measured["workload_config"]),
        sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "jordanlab" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a jordanlab source checkout "
              "(src/jordanlab and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(spec, args.workload, args)
    worst = 0
    for name in names:
        print(f"== {name}")
        worst = max(worst, run_workload(spec, name, args))
    return worst


if __name__ == "__main__":
    sys.exit(main())
