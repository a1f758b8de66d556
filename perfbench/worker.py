"""One workload of the benchmark, run in a fresh process by run.py.

    python3 perfbench/worker.py MODE WORKLOAD --seed N [--seconds S] [--trace 0|1]

MODE is
  setup    set up once and report the set-up time;
  measure  set up, then run operations in a closed loop for S seconds;
  fixed    set up, then run the workload's fixed operation list, traced or
           not, and report the wall time (and, traced, the per-layer metrics).

Set-up time runs from the start of this file to the end of set-up: import,
algebra construction, caches, warm-up and input generation.  Every
operation's output is checked; the result is one JSON object on stdout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from common import OUT_DIR, ROOT, sub_seed  # noqa: E402
from tracer import SUITES, Tracer, per_layer  # noqa: E402

PARAM_TOL = 1e-8      # recovered parameters vs generated ones
HERE = Path(__file__).resolve().parent


class OpResult:
    def __init__(self, latency_s, records=1, error=None):
        self.latency_s = latency_s
        self.records = records
        self.error = error


class Workload:
    IN_PROCESS = True   # runs jordanlab in this process
    MIN_OPS = 1         # ops a measured run makes even past its seconds
    FIXED_OPS = 1       # ops of the traced comparison

    def __init__(self):
        # outcomes of the outputs checked during set-up: None or an error;
        # each counts as one attempted op, with no latency
        self.setup_checks = []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


# ---------------------------------------------------------------------------
# verify_batch: run_suite over all 13 suites, in process


def expected_records(suite: str, s: int) -> int:
    """Record count of one suite at `s` trials, from the suites' definitions."""
    fixed = {"axioms": 42, "kits": 28, "topping": 8, "spin_commutant": 4,
             "bresar_identities": 18, "capelli_agreement": 4,
             "central_annihilator": 4, "negative_controls": 7}
    if suite in fixed:
        return fixed[suite]
    return {
        "decompose_linear_roundtrip": 6 * 2 * s,
        "decompose_trace_roundtrip": 6 * 2 * s + 2 * s,
        "preserver_roundtrip": 4 * (2 * s + (s + 9) // 10),
        "preserver_symmetric": 4 * max(s // 2, 1),
        "mixed_products": 5 * max(s // 10, 3),
    }[suite]


class VerifyBatch(Workload):
    TRIALS = 5
    WARMUP_TRIALS = 1

    def setup(self, seed):
        import jordanlab.genverify as gv

        self.gv = gv
        self.seed = seed
        self.setup_checks.append(
            self._pass(sub_seed(seed, "warmup"), self.WARMUP_TRIALS).error)

    def describe(self):
        return {"trials": self.TRIALS, "suites": SUITES,
                "warmup_trials": self.WARMUP_TRIALS,
                "op": "one pass of run_suite over every suite"}

    def op(self, i, tracer=None):
        return self._pass(sub_seed(self.seed, "pass", i), self.TRIALS)

    def _pass(self, master_seed, trials):
        cfg = self.gv.GenConfig(master_seed=master_seed, samples=trials)
        busy = 0.0
        reports = []
        errors = []
        for suite in SUITES:
            t0 = time.perf_counter()
            try:
                reports.append((suite, self.gv.run_suite(suite, cfg)))
            except Exception as ex:  # one failing suite must not end the pass
                errors.append(f"{suite}: {type(ex).__name__}: {ex}")
            busy += time.perf_counter() - t0
        records = 0
        for suite, rep in reports:
            records += len(rep.records)
            want = expected_records(suite, trials)
            if len(rep.records) != want:
                errors.append(f"{suite}: {len(rep.records)} records, expected {want}")
            bad = [r for r in rep.records if not r["pass"]]
            if bad:
                errors.append(f"{suite}: {len(bad)} records fail, first "
                              f"{bad[0]['check_name']} on {bad[0]['algebra']}")
        return OpResult(busy, records, "; ".join(errors) or None)


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m jordanlab.cli decompose` process per op

def entries(key, obj):
    """A value in the CLI's output format as (shape, {index: complex}); the
    sparse tensor "nu" has no stated shape."""
    if key == "nu":
        return None, {(i, j, k): complex(re, im) for i, j, k, re, im in obj}
    if isinstance(obj, dict):
        shape, pairs = (obj["rows"], obj["cols"]), obj["data"]
    else:
        shape, pairs = (len(obj),), obj
    return shape, {i: complex(re, im) for i, (re, im) in enumerate(pairs)}


class CliCold(Workload):
    """Runs without numpy: inputs come from cli_inputs.py in its own process,
    and every CLI process is spawned from this small one.  The peak RSS is
    the largest of the CLI processes' own, read with wait4."""
    IN_PROCESS = False
    FIXED_OPS = 20

    def setup(self, seed):
        self.peak_kb = 0
        self.dir = OUT_DIR / f"inputs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "cli_inputs.py"), "--seed",
                        str(seed), "--dir", str(self.dir)], check=True, cwd=ROOT)
        with open(self.dir / "manifest.json") as fh:
            self.slots = json.load(fh)
        for slot in self.slots:
            with open(self.dir / slot["expect"]) as fh:
                slot["expected"] = json.load(fh)

    def describe(self):
        return {"cycle": [f"{s['target']}:{s['algebra']}:"
                          f"{'rejected' if s['rejected'] else 'ok'}" for s in self.slots],
                "op": "one `python -m jordanlab.cli decompose` process"}

    def op(self, i, tracer=None):
        slot = self.slots[i % len(self.slots)]
        args = ["decompose", slot["target"], "--algebra", slot["algebra"],
                "--input", str(self.dir / slot["input"])]
        if tracer is None:
            argv = [sys.executable, "-m", "jordanlab.cli", *args]
        else:
            spans = self.dir / f"spans-{i}.json"
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *args]
        out, err = self.dir / "stdout", self.dir / "stderr"
        with open(out, "w") as fo, open(err, "w") as fe:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT)
            _, status, usage = os.wait4(child.pid, 0)
            latency = time.perf_counter() - t0
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        done = SimpleNamespace(returncode=os.waitstatus_to_exitcode(status),
                               stdout=out.read_text(), stderr=err.read_text())
        if tracer is not None:
            tracer.merge(spans, op=i)
        return OpResult(latency, 1, self.check(done, slot["expected"]))

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    @staticmethod
    def check(proc, expected):
        if expected is None:
            if proc.returncode != 6:
                return f"exit {proc.returncode}, expected 6 (rejected input)"
            return None
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        doc = json.loads(proc.stdout)
        err = 0.0
        for key, want in expected.items():
            (got_shape, got), (want_shape, want) = entries(key, doc[key]), entries(key, want)
            if got_shape != want_shape:
                return f"{key} has shape {got_shape}, expected {want_shape}"
            err = max(err, max(abs(got.get(k, 0) - want.get(k, 0))
                               for k in got.keys() | want.keys()))
        if err > PARAM_TOL:
            return f"parameters off by {err:.3e}"
        return None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# large_dim: decompose_trace with its certificate on func:albert:2, in process


class LargeDim(Workload):
    ALGEBRA = "func:albert:2"
    MIN_OPS = 2
    FIXED_OPS = 2
    NOISE = 1e-4

    def setup(self, seed):
        import numpy as np
        import jordanlab
        from jordanlab import decompose as dec
        from jordanlab import genverify as gv

        self.dec = dec
        entry = jordanlab.algebra_by_name(self.ALGEBRA)
        self.A = A = entry.algebra
        self.kit = jordanlab.build_kit(entry)
        gens = [gv.make_associating_trace(self.ALGEBRA, sub_seed(seed, "trace", k))
                for k in range(2)]
        rng = np.random.default_rng(sub_seed(seed, "noise"))
        n = A.dim
        perturbed = []
        for g in gens:
            noise = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            noise = noise + noise.transpose(1, 0, 2)
            perturbed.append(dec.BilinearMap(A, g.bilinear.tensor + self.NOISE * noise))
        # associating and rejected inputs alternate
        self.inputs = [(dec.BilinearMap(A, gens[0].bilinear.tensor), gens[0]),
                       (perturbed[1], None),
                       (dec.BilinearMap(A, gens[1].bilinear.tensor), gens[1]),
                       (perturbed[0], None)]
        # warm-up: extraction without the certificate, then the certificate's
        # associator tensor, which is cached on the algebra
        form = dec.decompose_trace(A, self.inputs[0][0], self.kit, check=False)
        self.setup_checks.append(self._compare(form, gens[0]))
        dec.associator_tensor(A)

    def describe(self):
        return {"algebra": self.ALGEBRA, "noise": self.NOISE,
                "op": "decompose_trace(check=True); associating and "
                      "perturbed inputs alternate"}

    def op(self, i, tracer=None):
        B, gen = self.inputs[i % len(self.inputs)]
        t0 = time.perf_counter()
        try:
            form = self.dec.decompose_trace(self.A, B, self.kit)
        except self.dec.NotAssociating:
            latency = time.perf_counter() - t0
            error = None if gen is None else "associating trace rejected"
            return OpResult(latency, 1, error)
        latency = time.perf_counter() - t0
        if gen is None:
            return OpResult(latency, 1, "perturbed trace accepted")
        return OpResult(latency, 1, self._compare(form, gen))

    @staticmethod
    def _compare(form, gen):
        err = max(float(abs(got - want).max()) for got, want in
                  ((form.lam, gen.lam), (form.mu, gen.mu), (form.nu.tensor, gen.nu)))
        return f"parameters off by {err:.3e}" if err > PARAM_TOL else None


WORKLOADS = {"verify_batch": VerifyBatch, "cli_cold": CliCold,
             "large_dim": LargeDim}


# ---------------------------------------------------------------------------
# modes


def run_op(wl, i, tracer):
    """One operation; an unexpected exception counts as a failed op."""
    t0 = time.perf_counter()
    try:
        return wl.op(i, tracer)
    except Exception:  # the loop must keep running and report the failure
        lines = traceback.format_exc().strip().splitlines()
        return OpResult(time.perf_counter() - t0, 0, " | ".join(lines[-3:]))


def tally(results, setup_checks):
    errors = [f"set-up: {e}" for e in setup_checks if e]
    errors += [f"op {i}: {r.error}" for i, r in enumerate(results) if r.error]
    return {"attempted": len(results) + len(setup_checks), "failed": len(errors),
            "failures": errors[:5],
            "latencies_ms": [r.latency_s * 1e3 for r in results],
            "records": sum(r.records for r in results)}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "measure", "fixed"])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]()
    out = {"workload": args.workload, "mode": args.mode}
    tracer = None
    if args.mode == "fixed" and wl.IN_PROCESS:
        import jordanlab.cli  # noqa: F401  every module, before tracing starts
    if args.mode == "fixed" and args.trace:
        tracer = Tracer()
        if wl.IN_PROCESS:
            tracer.install()
    try:
        wl.setup(args.seed)
        out["setup_s"] = time.perf_counter() - T_START
        out["workload_config"] = wl.describe()
        results = []
        if args.mode == "measure":
            t0 = time.perf_counter()
            while (len(results) < wl.MIN_OPS
                   or time.perf_counter() - t0 < args.seconds):
                results.append(run_op(wl, len(results), None))
            out["loop_s"] = time.perf_counter() - t0
        elif args.mode == "fixed":
            for i in range(wl.FIXED_OPS):
                if tracer is not None:
                    tracer.op = i
                results.append(run_op(wl, i, tracer))
        out["wall_s"] = time.perf_counter() - T_START
        out.update(tally(results, wl.setup_checks))
    finally:
        wl.close()
    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
        out["per_layer"] = per_layer(tracer.spans, tracer.einsum_calls)
    out["peak_rss_mb"] = wl.peak_rss_mb()
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
