"""Outside-in per-layer tracer for the benchmark.

Modules bind names at import, so each wrapper replaces a public function
where its caller looks it up (``relival.interval.mul_down``,
``relival.analysis.compile_interval``, ``relival.cli.subdivide_enclosure``,
...), and ``default_interpretation`` hands out op tables whose interval
operations are wrapped.  Nothing under ``src/`` changes; ``installed()``
restores every patched attribute on exit.

Every wrapper records a span (name, start, end, parent).  A span's self
time is its duration minus the time covered by its child spans; self
times and call counts are summed per span name as spans close, and the
spans themselves are kept in memory while ``recording`` is set.  The
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections import defaultdict
from time import perf_counter

from relival import analysis, cli, expr, interval, oracle, semantics
from relival.expr import Binary, Unary
from relival.interval import Interval


def count_nodes(e) -> int:
    """AST nodes of an expression, counted without recursion."""
    n, stack = 0, [e]
    while stack:
        node = stack.pop()
        n += 1
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
    return n


LAYERS = ("bench", "rounding", "interval", "expr", "semantics", "analysis", "oracle", "cli")

# rounding helper -> (span name, round-to-nearest counterpart)
_ROUNDING = {
    "add_down": ("rounding.add", operator.add),
    "add_up": ("rounding.add", operator.add),
    "sub_down": ("rounding.add", operator.sub),
    "sub_up": ("rounding.add", operator.sub),
    "mul_down": ("rounding.mul", operator.mul),
    "mul_up": ("rounding.mul", operator.mul),
    "div_down": ("rounding.div", operator.truediv),
    "div_up": ("rounding.div", operator.truediv),
    "sqrt_down": ("rounding.sqrt", math.sqrt),
    "sqrt_up": ("rounding.sqrt", math.sqrt),
}

_INTERVAL_OPS = {
    "+": "interval.addsub",
    "-": "interval.addsub",
    "*": "interval.mul",
    "/": "interval.div",
    "neg": "interval.unary",
    "abs": "interval.unary",
    "sqrt": "interval.unary",
    "sqrtr": "interval.unary",
}

# (span name, function name, modules whose binding of it is replaced)
_PLAIN = (
    ("interval.util", "width", (analysis,)),
    ("interval.util", "midpoint", (analysis,)),
    ("interval.util", "hull_union", (analysis,)),
    ("interval.util", "member", (analysis, oracle)),
    ("interval.util", "subset", (analysis,)),
    ("interval.util", "format_interval", (cli,)),
    ("interval.util", "parse_interval", (cli,)),
    ("interval.util", "hull_bounds", (cli,)),
    ("semantics.api", "eval_interval", (semantics, oracle, cli)),
    ("analysis.bisect", "bisect", (analysis,)),
    ("analysis.refine", "refine_toward", (analysis, cli)),
    ("analysis.check", "check_convergence", (analysis, cli)),
    ("oracle.sample", "sample_inclusion", (oracle, cli)),
    ("cli.main", "main", (cli,)),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.nodes = defaultdict(int)  # span name -> AST nodes handled
        self.stepped = 0  # directed roundings that moved off round-to-nearest
        self.samples = 0
        self.undefined = 0
        self.boxes = 0
        self.subdivisions = 0
        self.converged = 0
        self.recording = False
        self.spans = []  # (id, parent id, name, start, end) of spans closed while recording
        self._stack = []  # open spans: [child seconds, id, name]
        self._next_id = 0
        self._nested = set()  # recursive functions currently inside a top-level call

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([0.0, self._next_id, name])
        return perf_counter()

    def _exit(self, name, t0):
        t1 = perf_counter()
        child, span_id, _ = self._stack.pop()
        dur = t1 - t0
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = 0
        if self._stack:
            self._stack[-1][0] += dur
            parent = self._stack[-1][1]
        if self.recording:
            self.spans.append((span_id, parent, name, t0, t1))

    def _parent(self):
        return self._stack[-1][2] if self._stack else None

    def span(self, name, fn):
        def traced(*args, **kwargs):
            t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)

        return traced

    # -- wrappers that also count ------------------------------------------

    def _rounding(self, name, fn, nearest):
        def traced(*args):
            t0 = self._enter(name)
            try:
                r = fn(*args)
            finally:
                self._exit(name, t0)
            n = nearest(*args)
            if r != n and math.isfinite(n):
                self.stepped += 1
            return r

        return traced

    def _evaluator(self, fn, nodes, real):
        def traced(args):
            t0 = self._enter("semantics.eval")
            try:
                v = fn(args)
            finally:
                self._exit("semantics.eval", t0)
            self.nodes["semantics.eval"] += nodes
            if real and self._parent() == "oracle.sample":
                self.samples += 1
                self.undefined += v is None
            return v

        return traced

    def _top_level(self, name, fn, on_result):
        # recursive functions: only the outermost call is a span
        def traced(*args):
            if fn in self._nested:
                return fn(*args)
            self._nested.add(fn)
            t0 = self._enter(name)
            try:
                r = fn(*args)
            finally:
                self._nested.discard(fn)
                self._exit(name, t0)
            return on_result(args, r)

        return traced

    def _compiler(self, fn, real):
        def on_result(args, run):
            return self._evaluator(run, count_nodes(args[0]), real)

        return self._top_level("semantics.compile", fn, on_result)

    def _to_source(self, fn):
        def on_result(args, text):
            self.nodes["expr.to_source"] += count_nodes(args[0])
            return text

        return self._top_level("expr.to_source", fn, on_result)

    def _parse(self, fn):
        traced = self.span("expr.parse", fn)

        def counted(source):
            e, consts = traced(source)
            self.nodes["expr.parse"] += count_nodes(e)
            return e, consts

        return counted

    def _subdivide(self, fn):
        traced = self.span("analysis.subdivide", fn)

        def counted(*args):
            report = traced(*args)
            self.boxes += report.iterations
            self.subdivisions += 1
            self.converged += report.converged
            return report

        return counted

    def _interpretation(self):
        base = semantics.default_interpretation()
        ops = {sym: self.span(_INTERVAL_OPS[sym], fn) for sym, fn in base.interval_ops.items()}
        traced = semantics.Interpretation(base.real_ops, ops, base.name)
        return lambda: traced

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        patches = []

        def patch(owner, attr, value):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for fname, (name, nearest) in _ROUNDING.items():
                patch(interval, fname, self._rounding(name, getattr(interval, fname), nearest))
            patch(Interval, "__post_init__", self.span("interval.construct", Interval.__post_init__))
            for name, fname, modules in _PLAIN:
                wrapper = self.span(name, getattr(modules[0], fname))
                for m in modules:
                    patch(m, fname, wrapper)
            for fname, real in (("compile_interval", False), ("compile_real", True)):
                wrapper = self._compiler(getattr(semantics, fname), real)
                for m in (semantics, analysis, oracle):
                    if fname in m.__dict__:
                        patch(m, fname, wrapper)
            factory = self._interpretation()
            patch(semantics, "default_interpretation", factory)
            patch(cli, "default_interpretation", factory)
            patch(expr, "to_source", self._to_source(expr.to_source))
            varseq = self._top_level("expr.varseq", expr.variable_sequence, lambda args, r: r)
            for m in (expr, semantics, analysis, oracle, cli):
                patch(m, "variable_sequence", varseq)
            parse = self._parse(expr.parse)
            patch(expr, "parse", parse)
            patch(cli, "parse", parse)
            subdivide = self._subdivide(analysis.subdivide_enclosure)
            patch(analysis, "subdivide_enclosure", subdivide)
            patch(cli, "subdivide_enclosure", subdivide)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self, tasks: int) -> dict:
        """Per-layer metrics, with counts given per task."""
        calls, self_s, nodes = self.calls, self.self_s, self.nodes

        def per_task(v):
            return v / tasks

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def us(name):
            return ratio(self_s[name], calls[name], 1e6)

        rounding_calls = sum(calls[f"rounding.{k}"] for k in ("add", "mul", "div", "sqrt"))
        m = {}
        for op in ("mul", "div", "sqrt", "add"):
            m[f"rounding.{op}.calls"] = (per_task(calls[f"rounding.{op}"]), "count/task")
            m[f"rounding.{op}.us"] = (us(f"rounding.{op}"), "us")
        m["rounding.stepped_ratio"] = (ratio(self.stepped, rounding_calls), "ratio")
        for op in ("mul", "div", "addsub"):
            m[f"interval.{op}.us"] = (us(f"interval.{op}"), "us")
        ops = sum(calls[f"interval.{k}"] for k in ("addsub", "mul", "div", "unary"))
        m["interval.ops.calls"] = (per_task(ops), "count/task")
        m["interval.created"] = (per_task(calls["interval.construct"]), "count/task")
        m["interval.construct.us"] = (us("interval.construct"), "us")
        m["semantics.compile.calls"] = (per_task(calls["semantics.compile"]), "count/task")
        m["semantics.compile.us"] = (us("semantics.compile"), "us")
        m["semantics.eval.calls"] = (per_task(calls["semantics.eval"]), "count/task")
        m["semantics.nodes"] = (per_task(nodes["semantics.eval"]), "count/task")
        m["semantics.ns_per_node"] = (
            ratio(self_s["semantics.eval"], nodes["semantics.eval"], 1e9),
            "ns",
        )
        m["expr.parse.calls"] = (per_task(calls["expr.parse"]), "count/task")
        m["expr.parse.us_per_node"] = (ratio(self_s["expr.parse"], nodes["expr.parse"], 1e6), "us")
        m["expr.to_source.us_per_node"] = (
            ratio(self_s["expr.to_source"], nodes["expr.to_source"], 1e6),
            "us",
        )
        m["analysis.boxes"] = (per_task(self.boxes), "count/task")
        m["analysis.us_per_box"] = (
            ratio(self_s["analysis.subdivide"] + self_s["analysis.bisect"], self.boxes, 1e6),
            "us",
        )
        m["analysis.converged_ratio"] = (ratio(self.converged, self.subdivisions), "ratio")
        m["analysis.refine.us"] = (us("analysis.refine"), "us")
        m["oracle.samples"] = (per_task(self.samples), "count/task")
        m["oracle.us_per_sample"] = (ratio(self_s["oracle.sample"], self.samples, 1e6), "us")
        m["oracle.undefined_ratio"] = (ratio(self.undefined, self.samples), "ratio")
        m["cli.us_per_call"] = (us("cli.main"), "us")
        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            m[f"{layer}.ms"] = (1e3 * per_task(total), "ms/task")
        return m

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated lines, times in µs."""
        spans = sorted(self.spans)
        origin = spans[0][3] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for span_id, parent, name, t0, t1 in spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{(t0 - origin) * 1e6:.3f}\t{(t1 - origin) * 1e6:.3f}\n")
