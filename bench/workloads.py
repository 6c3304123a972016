"""The benchmark's three workloads: seeded inputs, one timed task, checks.

Each workload turns a seed into a fixed list of tasks (``inputs``, then
``setup``), runs one task against the ``relival`` public API (``run``,
the only timed part), renders the result as text for the output digest
(``describe``) and checks it (``check``).

Tasks call the program through module attributes (``cli.main``,
``expr.parse``, ...) so the tracer can swap wrappers in by patching those
attributes.  Checks recompute what they can with the benchmark's own
``fractions.Fraction`` arithmetic instead of trusting the program.
``inputs`` makes the benchmark's own input data; ``setup`` turns it into
tasks with the program's calls (``random_case``, ``Interval``), and only
``setup`` counts towards the ``setup_s`` metric.  Data used only by the
checks is made in ``check``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from relival import analysis, cli, expr, oracle, semantics
from relival.expr import Unary, Var
from relival.interval import Box, Interval, parse_interval


def _fmt(iv) -> str:
    return "empty" if iv.is_empty else f"[{iv.lo!r},{iv.hi!r}]"


def _contains(iv, value: Fraction) -> bool:
    return not iv.is_empty and Fraction(iv.lo) <= value <= Fraction(iv.hi)


# --- enclose_cli -----------------------------------------------------------

ENCLOSE_SOURCE = "x*y + y*z - x/(w+z*z)"
ENCLOSE_RANGES = {"x": (0.1, 2.0), "y": (1.0, 3.0), "z": (2.0, 4.0), "w": (1.0, 2.0)}
ENCLOSE_TOL = 1e-3
ENCLOSE_MAX_BOXES = 32


def _enclose_exact(p: dict) -> Fraction:
    x, y, z, w = (p[n] for n in "xyzw")
    return x * y + y * z - x / (w + z * z)


@dataclass(frozen=True)
class EncloseTask:
    argv: tuple
    bounds: dict  # name -> (lo, hi) decimal texts, in source order
    seed: int  # for the check's interior points


class EncloseCli:
    """``relival enclose`` in-process on seeded sub-boxes of the ROADMAP box.

    Three tasks in four use a sub-box far wider than the tolerance and
    stop at the box budget; every fourth uses a sub-box at most two
    tolerances wide, which converges within the budget (exit code 0).
    """

    name = "enclose_cli"
    tasks = 100

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        out = []
        for i in range(self.tasks):
            small = i % 4 == 3
            bounds = {}
            for n, (lo, hi) in ENCLOSE_RANGES.items():
                if small:
                    w = rng.uniform(0.4, 1.9) * ENCLOSE_TOL
                else:
                    w = rng.uniform(0.3, 1.0) * (hi - lo)
                a = rng.uniform(lo, hi - w)
                bounds[n] = (f"{a:.6f}", f"{a + w:.6f}")
            argv = ["enclose", ENCLOSE_SOURCE]
            for n, (a, b) in bounds.items():
                argv += ["--var", f"{n}=[{a},{b}]"]
            argv += ["--tol", repr(ENCLOSE_TOL), "--max-boxes", str(ENCLOSE_MAX_BOXES)]
            out.append(EncloseTask(tuple(argv), bounds, rng.randrange(2**32)))
        return out

    def setup(self, inputs: list) -> list:
        return inputs  # the CLI parses its own arguments inside each task

    @staticmethod
    def points(task) -> list:
        """The 16 corners and 4 seeded interior points of the task's box, exactly."""
        exact = {n: (Fraction(a), Fraction(b)) for n, (a, b) in task.bounds.items()}
        rng = random.Random(task.seed)
        corners = [{n: exact[n][(k >> j) & 1] for j, n in enumerate(exact)} for k in range(16)]
        inner = [
            {n: a + (b - a) * Fraction(rng.randrange(1, 1000), 1000) for n, (a, b) in exact.items()}
            for _ in range(4)
        ]
        return corners + inner

    def run(self, task):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(task.argv))
        return code, buf.getvalue()

    def describe(self, task, outcome):
        code, text = outcome
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        return f"{code}\n{text}", int(fields["iterations"])

    def check(self, task, outcome):
        code, text = outcome
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        if code not in (0, 4):
            return f"exit code {code}"
        if (code == 0) != (fields["converged"] == "yes"):
            return "exit code disagrees with the converged line"
        if int(fields["iterations"]) > ENCLOSE_MAX_BOXES:
            return "box budget exceeded"
        lo_text, hi_text = fields["enclosure"].strip("[]").split(",")
        lo, hi = float(lo_text), float(hi_text)
        for p in self.points(task):
            v = _enclose_exact(p)
            if not Fraction(lo) <= v <= Fraction(hi):
                return f"enclosure misses the exact value at {p}"
        e, _ = expr.parse(ENCLOSE_SOURCE)
        box = Box(
            tuple(parse_interval("[{},{}]".format(*task.bounds[n])) for n in expr.variable_sequence(e))
        )
        direct = semantics.eval_interval(e, semantics.default_interpretation(), box)
        if lo < direct.lo or hi > direct.hi:
            return "enclosure wider than one direct evaluation"
        return None


# --- check_sweep -----------------------------------------------------------

CHECK_SAMPLES = 100
CHECK_BATCH = 10
CHECK_POINTS = 4  # points per case where the check evaluates on its own
SQRT_BITS = 128


@dataclass(frozen=True)
class CheckCase:
    expr: object
    box: Box
    seed: int


class Unsure(Exception):
    """An exact bracket straddles zero where definedness depends on its sign."""


def _sqrt_bracket(q: Fraction) -> tuple:
    """Rationals lo <= sqrt(q) <= hi for q >= 0, equal when the root is rational."""
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd), Fraction(rn, rd)
    scale = 1 << SQRT_BITS
    r = math.isqrt(n * scale * scale // d)
    return Fraction(r, scale), Fraction(r + 1, scale)


def exact_bracket(e, env: dict):
    """(lo, hi) rationals around the exact real value at a point, or None if undefined.

    ``env`` maps variable names to Fractions.  The bracket is a single
    value unless a square root is irrational; then it is 2**-128 wide.
    Raises ``Unsure`` when the bracket cannot decide definedness.
    """
    if isinstance(e, Var):
        v = env[e.name]
        return v, v
    if isinstance(e, Unary):
        c = exact_bracket(e.child, env)
        if c is None:
            return None
        lo, hi = c
        if e.op == "neg":
            return -hi, -lo
        if e.op == "abs":
            if lo >= 0:
                return lo, hi
            if hi <= 0:
                return -hi, -lo
            return Fraction(0), max(-lo, hi)
        # sqrt and sqrtr: both name the nonnegative root of a nonnegative real
        if hi < 0:
            return None
        if lo < 0:
            raise Unsure
        return _sqrt_bracket(lo)[0], _sqrt_bracket(hi)[1]
    a = exact_bracket(e.left, env)
    b = None if a is None else exact_bracket(e.right, env)
    if b is None:
        return None
    if e.op == "+":
        return a[0] + b[0], a[1] + b[1]
    if e.op == "-":
        return a[0] - b[1], a[1] - b[0]
    if e.op == "*":
        p = [x * y for x in a for y in b]
    elif b == (0, 0):
        return None
    elif b[0] <= 0 <= b[1]:
        raise Unsure
    else:
        p = [x / y for x in a for y in b]
    return min(p), max(p)


def float_value(e, env: dict):
    """The binary64 point value, or None where undefined or past the float range.

    ``env`` maps variable names to floats.  Operations round to nearest,
    as in IEEE 754; this is the point semantics the program documents.
    """
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        v = float_value(e.child, env)
        if v is None:
            return None
        if e.op == "neg":
            return -v
        if e.op == "abs":
            return abs(v)
        return None if v < 0 else math.sqrt(v)
    a = float_value(e.left, env)
    b = None if a is None else float_value(e.right, env)
    if b is None:
        return None
    if e.op == "/":
        if b == 0.0:
            return None
        v = a / b
    else:
        v = a + b if e.op == "+" else a - b if e.op == "-" else a * b
    return v if math.isfinite(v) else None


class CheckSweep:
    """The ``relival check`` path without argparse on ``random_case`` draws.

    Print, re-parse, one interval evaluation and 100 sampled point
    evaluations per case; the draws include division through zero,
    ``sqrtr`` and empty results.  Draws range from one AST node to over
    a hundred, with a heavy tail of large ones, so a task is a batch of
    10 plain draws: single draws made the median task jump between seeds.
    """

    name = "check_sweep"
    tasks = 400

    def inputs(self, seed: int):
        return random.Random(seed)

    def setup(self, rng) -> list:
        out = []
        for _ in range(self.tasks):
            batch = []
            for _ in range(CHECK_BATCH):
                e, box = oracle.random_case(rng, max_depth=7, max_vars=4)
                batch.append(CheckCase(e, box, rng.randrange(2**32)))
            out.append(tuple(batch))
        return out

    def run(self, task):
        results = []
        for case in task:
            src = expr.to_source(case.expr)
            e, consts = expr.parse(src)
            interp = semantics.default_interpretation()
            iv = semantics.eval_interval(e, interp, case.box)
            violations = oracle.sample_inclusion(
                e, interp, case.box, samples=CHECK_SAMPLES, seed=case.seed
            )
            results.append((src, e, consts, iv, violations))
        return results

    def describe(self, task, outcome):
        text = "\n".join(f"{src}\t{_fmt(iv)}\t{v}" for src, _, _, iv, v in outcome)
        # per case: one interval evaluation here, one inside sample_inclusion, the samples
        return text, len(outcome) * (2 + CHECK_SAMPLES)

    def check(self, task, outcome):
        for case, (_, e, consts, iv, violations) in zip(task, outcome):
            if violations:
                return f"{violations} inclusion violations"
            if consts or e != case.expr:
                return "print/parse round trip changed the expression"
            problem = self._check_points(case, iv)
            if problem:
                return f"{expr.to_source(case.expr)}: {problem}"
        return None

    @staticmethod
    def _check_points(case, iv):
        """Evaluate at seeded points of the box without the program's evaluators.

        The exact value, where defined, must lie in the interval result,
        and the program's point evaluator must give the binary64 value.
        """
        names = expr.variable_sequence(case.expr)
        rng = random.Random(case.seed ^ 0x5EED)
        interp = semantics.default_interpretation()
        for _ in range(CHECK_POINTS):
            pt = [rng.uniform(d.lo, d.hi) for d in case.box.dims]
            want = float_value(case.expr, dict(zip(names, pt)))
            got = semantics.eval_real(case.expr, interp, pt).value
            if (got is None) != (want is None) or (want is not None and got != want):
                return f"point value {got!r} at {pt}, expected {want!r}"
            try:
                bracket = exact_bracket(case.expr, {n: Fraction(v) for n, v in zip(names, pt)})
            except Unsure:
                continue
            if bracket is not None and (iv.is_empty or not iv.lo <= bracket[0] <= bracket[1] <= iv.hi):
                return f"interval {_fmt(iv)} misses the exact value at {pt}"
        return None


# --- refine_wide -----------------------------------------------------------

REFINE_VARS = 32
REFINE_TERMS = 64
REFINE_STEPS = 10
REFINE_TOL = 1.0


@dataclass(frozen=True)
class RefineTask:
    source: str
    intervals: dict  # name -> Interval; (lo, hi) floats before set-up
    target: dict  # name -> float
    terms: tuple  # (kind, i, j, k) variable names per term, as rendered in source


def _refine_term(kind, i, j, k) -> str:
    return (f"abs({i} - {j})", f"-({i} - {k})", f"({i} - {j} + {k})")[kind]


def _refine_exact(task) -> Fraction:
    v = {n: Fraction(t) for n, t in task.target.items()}
    return sum(
        (abs(v[i] - v[j]), -(v[i] - v[k]), v[i] - v[j] + v[k])[kind]
        for kind, i, j, k in task.terms
    )


class RefineWide:
    """Nested refinement of wide piecewise-linear sums toward a point.

    About 64 terms over 32 variables, with no products or quotients, so
    rounding runs only the two-sum path and the cost sits in argument
    routing and interval construction.
    """

    name = "refine_wide"
    tasks = 100

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        names = [f"x{k}" for k in range(REFINE_VARS)]
        out = []
        for _ in range(self.tasks):
            intervals, target = {}, {}
            for n in names:
                lo = rng.uniform(-2.0, 2.0)
                hi = lo + rng.uniform(0.5, 3.0)
                intervals[n] = (lo, hi)
                target[n] = lo + (hi - lo) * rng.uniform(0.1, 0.9)
            terms = tuple((rng.randrange(3), *rng.sample(names, 3)) for _ in range(REFINE_TERMS))
            source = " + ".join(_refine_term(*t) for t in terms)
            out.append(RefineTask(source, intervals, target, terms))
        return out

    def setup(self, inputs: list) -> list:
        return [
            replace(t, intervals={n: Interval(*b) for n, b in t.intervals.items()}) for t in inputs
        ]

    def run(self, task):
        e, _ = expr.parse(task.source)
        names = expr.variable_sequence(e)
        box = Box(tuple(task.intervals[n] for n in names))
        point = tuple(task.target[n] for n in names)
        interp = semantics.default_interpretation()
        seq = analysis.refine_toward(box, point, REFINE_STEPS)
        report = analysis.check_convergence(e, interp, seq, REFINE_TOL)
        return e, seq, report

    def describe(self, task, outcome):
        _, _, report = outcome
        widths = " ".join(repr(w) for w in report.widths)
        text = f"{_fmt(report.enclosure)}\t{widths}\t{report.converged}\t{report.nested}"
        # interval evaluations of every step, plus the point evaluation at the target
        return text, report.iterations + 1

    def check(self, task, outcome):
        e, seq, report = outcome
        if len(seq.boxes) != REFINE_STEPS + 1:
            return "wrong number of refinement steps"
        names = expr.variable_sequence(e)
        point = [task.target[n] for n in names]
        for outer, inner in zip(seq.boxes, seq.boxes[1:]):
            for a, b in zip(outer.dims, inner.dims):
                if b.lo < a.lo or b.hi > a.hi:
                    return "refinement boxes do not nest"
        for b in seq.boxes:
            if not all(d.lo <= t <= d.hi for d, t in zip(b.dims, point)):
                return "a refinement box lost the target"
        exact = _refine_exact(task)
        fn = semantics.compile_interval(e, semantics.default_interpretation())
        previous = None
        for b in seq.boxes:
            iv = fn(b.dims)
            if not _contains(iv, exact):
                return "a step misses the exact value at the target"
            if previous is not None and (iv.lo < previous.lo or iv.hi > previous.hi):
                return "step enclosures do not nest"
            previous = iv
        if previous != report.enclosure:
            return "reported enclosure differs from the last step"
        if not (report.converged and report.nested):
            return "refinement did not converge"
        return None


WORKLOADS = {w.name: w for w in (EncloseCli(), CheckSweep(), RefineWide())}
