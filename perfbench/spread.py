"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1]
                                [--json FILE]

Runs run.py once per seed, sequentially, with BENCHMARK.json's run_seconds,
and prints for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the quartile
distance as a share of the median, next to the metric's bound.  --json
writes the same summary, with every run's values, to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["failures"] = [line for line in lines if line.startswith("FAILED ")]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              *result["failures"], sep="\n  ", flush=True)
        runs.append(result)
    summary = {}
    for name in runs[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        summary[name] = s
        bound = bounds.get(name)
        limit = f"  bound {bound}" if bound is not None and args.trace == 0 else ""
        print(f"{name:50s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{limit}")
    if args.json:
        doc = {"workload": args.workload, "trace": args.trace,
               "seeds": seed_list(args.seeds),
               "runs": [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                         "failed": r["failed"], "failures": r["failures"]}
                        for seed, r in zip(seed_list(args.seeds), runs)],
               "metrics": summary}
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
