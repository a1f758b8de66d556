"""Command line interface.

Exit codes: 0 success, 1 verification records failed, 2 unknown or oversized
algebra, unknown suite or bad option value, 3 I/O error or malformed input
file, 4 invalid frame, 5 kit unusable, kit residual too large, or a --kit file
that fails verification, 6 precondition rejected (not associating / not
symmetric / not bijective), 7 decomposition failed past the preconditions.

All JSON output is canonical: sorted keys, floats rendered with 17
significant digits, no whitespace variation, so identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .algebra_zoo import algebra_by_name, registry_names
from .decompose import (
    JNotMultiplicative,
    KitMissing,
    LambdaNotInvertible,
    NotAssociating,
    NotBijective,
    ResidualExceeded,
    bilinear_from_json,
    decompose_linear,
    decompose_preserver,
    decompose_trace,
    linmap_form_to_json,
    preserver_to_json,
    trace_form_to_json,
)
from .elementary_ops import FrameInvalid, build_kit, kit_from_json, kit_to_json, verify_kit
from .genverify import (
    GenConfig,
    SUITES,
    UnknownSuite,
    report_to_json,
    report_to_markdown,
    run_suite,
)
from .jordan_core import algebra_to_json, linop_from_json
from .numerics import Tolerance

EXIT_FAIL = 1
EXIT_UNKNOWN_NAME = 2
EXIT_IO = 3
EXIT_FRAME = 4
EXIT_KIT = 5
EXIT_PRECONDITION = 6
EXIT_DECOMPOSE = 7


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits for floats."""
    def ser(x):
        if isinstance(x, dict):
            items = sorted(x.items(), key=lambda kv: kv[0])
            return "{" + ",".join(json.dumps(str(k)) + ":" + ser(v)
                                  for k, v in items) + "}"
        if isinstance(x, (list, tuple)):
            return "[" + ",".join(ser(v) for v in x) + "]"
        if isinstance(x, bool) or isinstance(x, np.bool_):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        if x is None:
            return "null"
        return json.dumps(str(x))
    return ser(obj) + "\n"


def _emit(text: str, out: str):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise _IoError(str(ex))


class _IoError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise _IoError(f"{path}: {ex}")


def _algebra(name: str):
    try:
        return algebra_by_name(name)
    except (KeyError, ValueError) as ex:
        print(f"bad algebra name: {ex}", file=sys.stderr)
        sys.exit(EXIT_UNKNOWN_NAME)


def _tol(args) -> Tolerance:
    return Tolerance(abs_eps=args.tol)


def cmd_zoo(args) -> int:
    if args.zoo_cmd == "list":
        _emit("".join(n + "\n" for n in registry_names()), args.out)
        return 0
    entry = _algebra(args.algebra)
    doc = algebra_to_json(entry.algebra)
    _emit(canonical_json(doc), args.out)
    return 0


_KIT_QUANTITIES = ("kronecker_max", "norm_max", "star_symmetry", "central_linearity")


def _kit_residuals(report) -> str:
    """The verify_kit quantities; norm_max is bounded by 10, the rest by tol."""
    return ", ".join(f"{k} {report[k]:.3e}" for k in _KIT_QUANTITIES)


def cmd_kit(args) -> int:
    entry = _algebra(args.algebra)
    tol = _tol(args)
    try:
        kit = build_kit(entry, tol, alternate=args.alternate)
    except FrameInvalid as ex:
        print(f"frame invalid: {ex}", file=sys.stderr)
        return EXIT_FRAME
    report = verify_kit(kit, tol, seed=args.seed)
    doc = kit_to_json(kit)
    doc["verification"] = {k: report[k] for k in _KIT_QUANTITIES + ("passed",)}
    _emit(canonical_json(doc), args.out)
    if not report["passed"]:
        print(f"kit residual too large: {_kit_residuals(report)}", file=sys.stderr)
        return EXIT_KIT
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = GenConfig(master_seed=args.seed, samples=args.trials,
                    adversarial_rate=args.adversarial_rate)
    tol = _tol(args)
    reports = []
    try:
        for name in names:
            reports.append(run_suite(name, cfg, tol))
    except UnknownSuite as ex:
        print(f"unknown suite: {ex}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    if args.format == "md":
        text = "\n".join(report_to_markdown(r) for r in reports)
    else:
        text = canonical_json({"reports": [report_to_json(r) for r in reports]})
    _emit(text, args.out)
    ok = all(r.all_pass() for r in reports)
    if not ok:
        n_bad = sum(1 for r in reports for rec in r.records if not rec["pass"])
        print(f"{n_bad} records failed", file=sys.stderr)
    return 0 if ok else EXIT_FAIL


def _kit_for_args(args, entry, tol):
    """The canonical kit, or the --kit file once it passes verify_kit."""
    if not args.kit:
        return build_kit(entry, tol)
    try:
        kit = kit_from_json(_load_json(args.kit), entry.algebra)
    except (KeyError, TypeError, ValueError) as ex:
        raise KitMissing(str(ex))
    rep = verify_kit(kit, tol, seed=args.seed)
    if not rep["passed"]:
        raise KitMissing(f"{args.kit} fails verification at tol "
                         f"{tol.abs_eps:.1e}: {_kit_residuals(rep)}")
    return kit


def _parse_input(args, A):
    """The --input operand: an n x n matrix, or a trace tensor."""
    obj = _load_json(args.input)
    try:
        if args.target == "trace":
            return bilinear_from_json(obj, A)
        M = linop_from_json(obj)
        if M.shape != (A.dim, A.dim):
            raise ValueError(f"{M.shape[0]}x{M.shape[1]} matrix, "
                             f"{A.name} needs {A.dim}x{A.dim}")
        return M
    except (KeyError, TypeError, ValueError) as ex:
        raise _IoError(f"{args.input}: malformed input: {ex}")


def cmd_decompose(args) -> int:
    entry = _algebra(args.algebra)
    A = entry.algebra
    tol = _tol(args)
    operand = _parse_input(args, A)
    try:
        kit = _kit_for_args(args, entry, tol)
        if args.target == "linear":
            form = decompose_linear(A, operand, kit, tol)
            doc = linmap_form_to_json(form)
        elif args.target == "trace":
            form = decompose_trace(A, operand, kit, tol)
            doc = trace_form_to_json(form)
        else:
            form = decompose_preserver(A, A, operand, kit, tol)
            doc = preserver_to_json(form)
    except FrameInvalid as ex:
        print(f"frame invalid: {ex}", file=sys.stderr)
        return EXIT_FRAME
    except KitMissing as ex:
        print(f"kit unusable: {ex}", file=sys.stderr)
        return EXIT_KIT
    except (NotAssociating, NotBijective) as ex:
        print(f"precondition rejected: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ResidualExceeded, JNotMultiplicative, LambdaNotInvertible) as ex:
        print(f"decomposition failed: {type(ex).__name__}: {ex}", file=sys.stderr)
        return EXIT_DECOMPOSE
    _emit(canonical_json(doc), args.out)
    return 0


def _checked(cast, ok, what):
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = cast.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", default=1e-9,
                        type=_checked(float, lambda v: 0 < v < np.inf,
                                      "positive and finite"),
                        help="absolute tolerance (default 1e-9)")
    # a string default passes through type=int only when --seed is absent,
    # so a malformed JORDANLAB_SEED is an argparse error naming --seed
    common.add_argument("--seed", type=int,
                        default=os.environ.get("JORDANLAB_SEED", "0"),
                        help="master seed (default JORDANLAB_SEED or 0)")
    common.add_argument("--out", default=None,
                        help="output file (default stdout)")

    ap = argparse.ArgumentParser(
        prog="jordanlab",
        description="elementary-operator kits, independence tests and "
                    "structure decompositions for finite-dimensional "
                    "Jordan algebras")
    sub = ap.add_subparsers(dest="cmd", required=True)

    zoo = sub.add_parser("zoo", help="built-in algebra registry")
    zoo_sub = zoo.add_subparsers(dest="zoo_cmd", required=True)
    zoo_sub.add_parser("list", help="list registry names", parents=[common])
    zx = zoo_sub.add_parser("export", help="export an algebra as JSON",
                            parents=[common])
    zx.add_argument("--algebra", required=True)

    kit = sub.add_parser("kit", help="elementary operator kits")
    kit_sub = kit.add_subparsers(dest="kit_cmd", required=True)
    kb = kit_sub.add_parser("build", help="build and verify a kit",
                            parents=[common])
    kb.add_argument("--algebra", required=True)
    kb.add_argument("--alternate", action="store_true",
                    help="use the alternate frame (distinct kit)")

    ver = sub.add_parser("verify", help="run a verification suite",
                         parents=[common])
    ver.add_argument("suite", help="suite name or 'all'")
    ver.add_argument("--trials", default=256,
                     type=_checked(int, lambda v: v > 0, "positive"),
                     help="samples per algebra (default 256)")
    ver.add_argument("--adversarial-rate", default=0.0,
                     type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"),
                     help="share of adversarial linear samples (default 0)")
    ver.add_argument("--format", choices=["json", "md"], default="json")

    dec = sub.add_parser("decompose", help="standard-form decompositions",
                         parents=[common])
    dec.add_argument("target", choices=["linear", "trace", "preserver"])
    dec.add_argument("--algebra", required=True)
    dec.add_argument("--input", required=True, help="JSON input file")
    dec.add_argument("--kit", default=None,
                     help="kit JSON file (default: build canonical kit)")
    return ap


_COMMANDS = {"zoo": cmd_zoo, "kit": cmd_kit, "verify": cmd_verify,
             "decompose": cmd_decompose}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except _IoError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
