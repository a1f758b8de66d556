"""Inputs of the cli_cold workload: the op cycle and its generated files.

    python3 perfbench/cli_inputs.py --seed N --dir DIR

writes DIR/input-KK.json (the CLI's input), DIR/expect-KK.json (the
parameters the input was generated from, in the CLI's output format, or
null for an input the CLI must reject with exit code 6) and
DIR/manifest.json, one entry per slot of the cycle.  It runs in its own
process so that the process spawning the CLI never holds numpy: a child's
reported peak RSS starts from its parent's.
"""

import argparse
import json
import random
import sys
from pathlib import Path

from common import sub_seed

M3, ALB, SUM = "matrix:3", "albert", "sum:matrix:3+matrix:4"
# 270-360 ms per process: every linear op and everything on matrix:3
CHEAP = (
    [("linear", M3, True)] * 2 + [("linear", ALB, True)] * 2 + [("linear", SUM, True)]
    + [("trace", M3, True), ("preserver", M3, True)]
    + [("linear", alg, False) for alg in (M3, ALB, SUM)]
    + [("trace", M3, False), ("preserver", M3, False)]
)
# 450-800 ms: trace and preserver on albert and the sum
EXPENSIVE = ([("trace", ALB, True)] * 3 + [("preserver", ALB, True)] * 3
             + [("trace", SUM, True), ("preserver", SUM, True)])


def cli_cycle(seed):
    """One cycle of 20 op slots, 12 cheap and 8 expensive.  The expensive
    slots are spread evenly, so every prefix keeps their 40% share, and 6
    of the 8 run on albert: with 40-60 ops per run the median lands inside
    the cheap class and the tail (the 11th largest) inside the albert ops,
    away from the gaps between classes.  The order inside each class comes
    from the seed.  5 of the 20 inputs must be rejected."""
    rng = random.Random(sub_seed(seed, "cli-order"))
    cheap, expensive = list(CHEAP), list(EXPENSIVE)
    rng.shuffle(cheap)
    rng.shuffle(expensive)
    n, m = len(cheap) + len(expensive), len(expensive)
    slots = []
    for i in range(n):
        take = (i + 1) * m // n > i * m // n
        slots.append(expensive.pop() if take else cheap.pop())
    return slots


def generate(seed: int, out: Path) -> None:
    import numpy as np
    from jordanlab import algebra_by_name
    from jordanlab import genverify as gv
    from jordanlab.decompose import BilinearMap, bilinear_to_json
    from jordanlab.numerics import matrix_to_json, vector_to_json
    from jordanlab.jordan_core import linop_to_json

    manifest = []
    for k, (target, alg, ok) in enumerate(cli_cycle(seed)):
        s = sub_seed(seed, "cli", k)
        A = algebra_by_name(alg).algebra
        rng = np.random.default_rng(s)
        expect = None
        if target == "linear" and ok:
            g = gv.make_associating_map(alg, s)
            doc = linop_to_json(A, g.op)
            expect = {"lambda": vector_to_json(g.lam), "mu": matrix_to_json(g.mu)}
        elif target == "linear":
            doc = linop_to_json(A, gv.make_adversarial("non_associating", alg, s))
        elif target == "trace":
            g = gv.make_associating_trace(alg, s)
            tensor = g.bilinear.tensor
            if ok:
                expect = {"lambda": vector_to_json(g.lam), "mu": matrix_to_json(g.mu),
                          "nu": bilinear_to_json(BilinearMap(A, g.nu))["tensor"]}
            else:
                # add c o (x o y) for a random, hence non-central, c
                c = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
                cb = np.einsum("a,aml->ml", c, A.structure)
                tensor = tensor + 1e-2 * np.einsum("ijm,ml->ijl", A.structure, cb)
            doc = bilinear_to_json(BilinearMap(A, tensor))
        elif ok:
            g = gv.make_standard_preserver(alg, s)
            doc = linop_to_json(A, g.op)
            expect = {"z0": vector_to_json(g.z0), "J": matrix_to_json(g.J),
                      "beta": matrix_to_json(g.beta)}
        else:
            n = A.dim
            noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            doc = linop_to_json(A, np.eye(n) + 0.3 * noise)
        for name, obj in ((f"input-{k:02d}.json", doc), (f"expect-{k:02d}.json", expect)):
            with open(out / name, "w") as fh:
                json.dump(obj, fh)
        manifest.append({"target": target, "algebra": alg,
                         "input": f"input-{k:02d}.json",
                         "expect": f"expect-{k:02d}.json", "rejected": not ok})
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    generate(args.seed, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
