"""Span tracing of jordanlab's public functions, installed from outside.

A `Tracer` replaces each traced function by a wrapper, both in the module
that defines it and at every other binding of the same function object in a
loaded `jordanlab` module (the names that `from .x import y` creates), so
calls made inside the package are seen too.  It also counts `numpy.einsum`
calls.  Spans stay in memory; `dump` writes them out and `per_layer` turns
them into the per-layer metrics.

A span is the list [name, label, start, end, parent, op, extra]:
  name    traced function ("product", "run_suite", "cli.import", ...)
  label   the algebra (or suite) the call works on, or None
  start   perf_counter() seconds at entry; end likewise at exit
  parent  index of the enclosing span in the same list, or -1
  op      id of the benchmark operation the span belongs to
  extra   function-specific detail: for cached functions whether the call
          filled the cache, for certificates their verdict
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs traced; functions a module lacks are skipped
TARGETS = [
    ("jordanlab.jordan_core", "product"),
    ("jordanlab.jordan_core", "mult_operator"),
    ("jordanlab.jordan_core", "u_operator"),
    ("jordanlab.jordan_core", "center_basis"),
    ("jordanlab.jordan_core", "linop_from_json"),
    ("jordanlab.decompose", "associator_tensor"),
    ("jordanlab.decompose", "associating_linear_residual"),
    ("jordanlab.decompose", "trace_associating_residual"),
    ("jordanlab.decompose", "is_associating_linear"),
    ("jordanlab.decompose", "trace_is_associating"),
    ("jordanlab.decompose", "decompose_linear"),
    ("jordanlab.decompose", "decompose_trace"),
    ("jordanlab.decompose", "decompose_preserver"),
    ("jordanlab.decompose", "bilinear_from_json"),
    ("jordanlab.elementary_ops", "build_kit"),
    ("jordanlab.elementary_ops", "verify_kit"),
    ("jordanlab.numerics", "operator_norm_estimate"),
    ("jordanlab.numerics", "kernel_basis"),
    ("jordanlab.capelli", "independence_capelli"),
    ("jordanlab.capelli", "capelli_eval"),
    ("jordanlab.genverify", "run_suite"),
    ("jordanlab.genverify", "make_associating_map"),
    ("jordanlab.genverify", "make_associating_trace"),
    ("jordanlab.genverify", "make_standard_preserver"),
    ("jordanlab.genverify", "make_adversarial"),
    ("jordanlab.algebra_zoo", "algebra_by_name"),
    ("jordanlab.cli", "main"),
    ("jordanlab.cli", "canonical_json"),
]

CACHED = {"center_basis", "associator_tensor"}
CERTIFICATES = {"is_associating_linear", "trace_is_associating"}
DECOMPOSERS = ("decompose_linear", "decompose_trace", "decompose_preserver")
SUITES = [
    "axioms", "kits", "topping", "spin_commutant", "bresar_identities",
    "capelli_agreement", "central_annihilator", "decompose_linear_roundtrip",
    "decompose_trace_roundtrip", "preserver_roundtrip", "preserver_symmetric",
    "negative_controls", "mixed_products",
]
MAKERS = ["make_associating_map", "make_associating_trace",
          "make_standard_preserver", "make_adversarial"]
# algebras broken out per layer; ':' and '+' become '-' in metric names
ALGEBRAS = ["matrix:3", "albert", "sum:matrix:3+matrix:4", "func:albert:2"]
PER_ALGEBRA = [
    ("product", "calls"), ("product", "busy_ms"), ("mult_operator", "busy_ms"),
    ("center_basis", "busy_ms"), ("associator_tensor", "busy_ms"),
    ("trace_associating_residual", "busy_ms"),
    ("associating_linear_residual", "busy_ms"),
    ("decompose_linear", "extract_ms"), ("decompose_trace", "extract_ms"),
    ("decompose_preserver", "extract_ms"), ("build_kit", "busy_ms"),
    ("verify_kit", "busy_ms"),
]


def algebra_tag(name: str) -> str:
    return name.replace(":", "-").replace("+", "-")


def _label(args):
    """Algebra (or suite) a call works on, read from its first argument."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, str):
        return first
    for obj in (first, getattr(first, "algebra", None)):
        if obj is not None and hasattr(obj, "structure") and hasattr(obj, "name"):
            return obj.name
    return None


def _cache_size(args):
    caches = getattr(args[0], "_caches", None) if args else None
    return len(caches) if caches is not None else 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._stack = []
        self._undo = []
        self.einsum_calls = 0

    # -- recording ---------------------------------------------------------

    def span(self, name, label=None):
        """Context manager recording one span around a block."""
        return _Block(self, name, label)

    def _open(self, name, label):
        parent = self._stack[-1] if self._stack else -1
        span = [name, label, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = _cache_size(args) if name in CACHED else 0
            span = tracer._open(name, _label(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name in CACHED:
                dim = getattr(args[0], "dim", 0)
                span[6] = {"cold": _cache_size(args) > size, "dim": dim}
            elif name in CERTIFICATES:
                span[6] = {"accepted": bool(out)}
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target at every binding in the loaded jordanlab modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "jordanlab" or k.startswith("jordanlab.")) and m]
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(mod_name)
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                continue
            wrapper = self._wrap(fn_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        import numpy

        einsum = numpy.einsum

        @functools.wraps(einsum)
        def counted(*args, **kwargs):
            self.einsum_calls += 1
            return einsum(*args, **kwargs)

        numpy.einsum = counted
        self._undo.append((numpy, "einsum", einsum))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"einsum_calls": self.einsum_calls, "spans": self.spans}, fh)

    def merge(self, path, op):
        """Append the spans another process dumped, under op id `op`."""
        with open(path) as fh:
            doc = json.load(fh)
        base = len(self.spans)
        for name, label, t0, t1, parent, _, extra in doc["spans"]:
            self.spans.append([name, label, t0, t1,
                               parent + base if parent >= 0 else -1, op, extra])
        self.einsum_calls += doc["einsum_calls"]


class _Block:
    def __init__(self, tracer, name, label):
        self.tracer, self.name, self.label = tracer, name, label

    def __enter__(self):
        self.span = self.tracer._open(self.name, self.label)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


class _Agg:
    def __init__(self):
        self.calls = 0
        self.busy = 0.0      # seconds, calls not nested in a same-name call
        self.self_time = 0.0
        self.extract = 0.0   # decomposers: duration minus certificate spans


def per_layer(spans, einsum_calls) -> dict:
    """Aggregate spans into the per-layer metric dictionary."""
    n = len(spans)
    child = [0.0] * n
    cert = [0.0] * n
    for span in spans:
        parent = span[4]
        if parent >= 0:
            dur = span[3] - span[2]
            child[parent] += dur
            if span[0] in CERTIFICATES:
                cert[parent] += dur
    total = {}
    by_alg = {}
    kit_algebras = set()
    cold = {"center_basis": 0, "associator_tensor": 0}
    computed_bytes = 0
    accepted = certs = 0
    for idx, span in enumerate(spans):
        name, label, t0, t1, parent, _, extra = span
        key = f"run_suite.{label}" if name == "run_suite" else name
        dur = t1 - t0
        outer = outer_alg = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                if spans[p][1] == label:
                    outer_alg = False
            p = spans[p][4]
        for agg, is_outer in ((total.setdefault(key, _Agg()), outer),
                              (by_alg.setdefault((name, label), _Agg()), outer_alg)):
            agg.calls += 1
            agg.self_time += dur - child[idx]
            agg.extract += dur - cert[idx]
            if is_outer:
                agg.busy += dur
        if name == "build_kit":
            kit_algebras.add(label)
        if name in CACHED and extra and extra["cold"]:
            cold[name] += 1
            if name == "associator_tensor":
                computed_bytes += extra["dim"] ** 4 * 16
        if name in CERTIFICATES:
            certs += 1
            accepted += extra is not None and extra["accepted"]

    def get(key):
        return total.get(key, _Agg())

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("product", "mult_operator", "build_kit", "algebra_by_name",
                 "independence_capelli"):
        m[f"{name}.calls"] = get(name).calls
    for name in ("product", "mult_operator", "u_operator", "center_basis",
                 "associator_tensor", "trace_associating_residual",
                 "associating_linear_residual", "build_kit", "verify_kit",
                 "operator_norm_estimate", "kernel_basis",
                 "independence_capelli", "algebra_by_name", *MAKERS):
        m[f"{name}.busy_ms"] = get(name).busy * 1e3
    m["center_basis.cold_ratio"] = ratio(cold["center_basis"],
                                         get("center_basis").calls)
    m["associator_tensor.computed_bytes"] = computed_bytes
    for name in DECOMPOSERS:
        m[f"{name}.self_ms"] = get(name).self_time * 1e3
        m[f"{name}.extract_ms"] = get(name).extract * 1e3
    m["certificate.calls"] = certs
    m["certificate.accept_ratio"] = ratio(accepted, certs)
    m["build_kit.calls_per_algebra"] = ratio(get("build_kit").calls,
                                             len(kit_algebras))
    m["capelli_eval.calls_per_test"] = ratio(get("capelli_eval").calls,
                                             get("independence_capelli").calls)
    for suite in SUITES:
        m[f"run_suite.{suite}.busy_ms"] = get(f"run_suite.{suite}").busy * 1e3
    m["cli.import_ms"] = get("cli.import").busy * 1e3
    m["cli.input_parse_ms"] = (get("linop_from_json").busy
                               + get("bilinear_from_json").busy) * 1e3
    m["cli.output_emit_ms"] = get("canonical_json").busy * 1e3
    m["cli.main.busy_ms"] = get("main").busy * 1e3
    m["numpy.einsum.calls"] = einsum_calls
    m["trace.spans"] = n
    for alg in ALGEBRAS:
        tag = algebra_tag(alg)
        for name, what in PER_ALGEBRA:
            agg = by_alg.get((name, alg), _Agg())
            if what == "calls":
                value = agg.calls
            elif what == "busy_ms":
                value = agg.busy * 1e3
            else:
                value = agg.extract * 1e3
            m[f"{name}.{tag}.{what}"] = value
    return m
