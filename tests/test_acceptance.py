"""Acceptance gate.

Each test runs one end-to-end criterion at its stated tolerance and time
budget and prints a single PASS or FAIL line (run with ``pytest -s`` to
see them).  The module is also runnable directly:

    python3 tests/test_acceptance.py
"""

import contextlib
import io
import math
import pathlib
import random
import sys
import tempfile
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import ulp_steps

from relival.cli import main as cli_main
from relival.expr import parse
from relival.interval import (
    EMPTY,
    REALS,
    Box,
    Interval,
    absolute,
    add,
    div,
    div_canonical,
    member,
    mul,
    neg,
    sqrt_canonical,
    sqrt_rel,
    sub,
    subset,
    width,
)
from relival.analysis import refine_toward
from relival.oracle import (
    case_for,
    corner_range_oracle,
    random_case,
    random_single_occurrence_case,
    read_manifest,
    relational_oracle,
    write_manifest,
)
from relival.semantics import _sample, default_interpretation, eval_interval, eval_real

INF = math.inf
INTERP = default_interpretation()


def _gate(number: int, label: str, fn, budget: "float | None") -> None:
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number}: {label} ({elapsed:.2f}s): {exc}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        print(f"FAIL criterion {number}: {label}: took {elapsed:.2f}s, budget {budget:g}s")
        raise AssertionError(f"criterion {number} exceeded its {budget:g}s budget")
    print(f"PASS criterion {number}: {label}: {detail} ({elapsed:.2f}s)")


def _assert_valid(iv: Interval) -> None:
    assert isinstance(iv, Interval)
    if iv.is_empty:
        assert (iv.lo, iv.hi) == (INF, -INF)
    else:
        assert not math.isnan(iv.lo) and not math.isnan(iv.hi)
        assert iv.lo <= iv.hi
        assert iv.lo < INF and iv.hi > -INF


def _criterion_1() -> str:
    # random expressions, 100 point samples each: pointwise results must
    # land inside the interval result; a sample of cases round-trips
    # through the manifest format on the way
    rng = random.Random(2026)
    violations = defined = 0
    recorded = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(10_000):
            e, box = random_case(rng, max_depth=5, max_vars=4)
            # sample_inclusion's count, with the samples where e is defined: only those compare
            _, v, d = _sample(e, INTERP, box, 100, i)
            violations += v
            defined += d
            if i % 100 == 0:
                recorded.append(case_for(i, e, box, "inclusion"))
        path = pathlib.Path(tmp) / "inclusion.manifest"
        write_manifest(path, recorded)
        assert read_manifest(path) == recorded
    assert violations == 0, f"{violations} inclusion violations"
    return f"0 violations over 10000 cases x 100 samples, {defined} of them defined"


def _criterion_2() -> str:
    specials = [
        EMPTY,
        Interval(0, 0),
        Interval(1, 1),
        Interval(-1, -1),
        Interval(-2, -1),
        Interval(-1, 0),
        Interval(-1, 1),
        Interval(0, 1),
        Interval(1, 2),
        Interval(-0.5, 0.5),
        Interval(-2, 0),
        Interval(0, 2),
        Interval(5e-324, 1e-300),
        Interval(-1e308, 1e308),
        Interval(-1e300, -1e280),
        Interval(1e280, 1e300),
        Interval(-INF, -1),
        Interval(-INF, 0),
        Interval(-INF, 1e300),
        Interval(0, INF),
        Interval(1, INF),
        REALS,
    ]
    pairs = [(x, y) for x in specials for y in specials]
    results = 0
    for x, y in pairs:
        for op in (add, sub, mul, div, div_canonical):
            _assert_valid(op(x, y))
            results += 1
    for x in specials:
        for op in (neg, absolute, sqrt_rel, sqrt_canonical):
            _assert_valid(op(x))
            results += 1
    return f"{len(pairs)} operand pairs, {results} results, all valid intervals"


def _criterion_3() -> str:
    rng = random.Random(303)
    for _ in range(1000):
        e, box = random_single_occurrence_case(rng)
        want = corner_range_oracle(e, box)
        got = eval_interval(e, INTERP, box)
        assert not got.is_empty
        assert Fraction(got.lo) <= want.lo and want.hi <= Fraction(got.hi), (
            f"oracle hull escaped the enclosure for {e}")
        assert ulp_steps(got.lo, float(want.lo)) <= 1
        assert ulp_steps(got.hi, float(want.hi)) <= 1
    return "1000 single-occurrence cases within 1 ulp of the exact hull"


def _criterion_4() -> str:
    def same(iv: Interval, r) -> bool:
        # both use the same set format, and floats compare with Fractions exactly
        return (iv.lo, iv.hi) == (r.lo, r.hi)

    # dyadic endpoints keep every corner quotient representable, so the
    # classification must match the oracle bound for bound
    ticks = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    shapes = [Interval(a, b) for a in ticks for b in ticks if a <= b]
    checked = 0
    for x in shapes:
        for y in shapes:
            assert same(div(x, y), relational_oracle("/", x, y)), f"div {x} / {y}"
            checked += 1
    for iv in (Interval(0, 0), Interval(1, 1), Interval(4, 9), Interval(0, 16),
               Interval(0.25, 2.25), Interval(-1, 4), Interval(-4, 0), Interval(-2, -1)):
        assert same(sqrt_rel(iv), relational_oracle("sqrtr", iv)), f"sqrtr {iv}"
        checked += 1
    named = [
        (div(Interval(1, 2), Interval(0, 0)), EMPTY),
        (div(Interval(0, 1), Interval(0, 0)), REALS),
        (div(Interval(1, 2), Interval(-1, 1)), REALS),
        (sqrt_rel(Interval(4, 9)), Interval(-3, 3)),
    ]
    for got, want in named:
        assert got == want, f"named case: got {got}, wanted {want}"
    return f"{checked} case-table entries match the oracle exactly"


def _criterion_5() -> str:
    rng = random.Random(505)
    done = 0
    while done < 100:
        e, box = random_case(rng, max_depth=4, continuous=True)
        target = tuple(iv.lo + rng.uniform(0.3, 0.7) * (iv.hi - iv.lo) for iv in box)
        value = eval_real(e, INTERP, target)
        assert value.is_defined, f"continuous case undefined at its target: {e}"
        seq = refine_toward(box, target, 40)
        widths = []
        previous = None
        for b in seq.boxes:
            iv = eval_interval(e, INTERP, b)
            assert member(value.value, iv), "target value left the enclosure"
            if previous is not None:
                assert subset(iv, previous), "evaluations stopped nesting"
            previous = iv
            widths.append(width(iv))
        assert widths[-1] <= 1e-8 * widths[0] or widths[-1] <= 1e-9, (
            f"no convergence: {widths[0]} -> {widths[-1]} for {e}")
        done += 1
    return "100 continuous cases: nested, target kept, width ratio <= 1e-8"


def _criterion_6() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["eval", "x - x", "--var", "x=[0,1]"])
    assert code == 0
    assert buf.getvalue() == "[-1,1]\n", f"eval transcript drifted: {buf.getvalue()!r}"

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["enclose", "x - x", "--var", "x=[0,1]", "--tol", "1e-3"])
    golden = (
        "enclosure: [-0.0009765625,0.0009765625]\n"
        "width: 0.001953125\n"
        "iterations: 2047\n"
        "converged: yes\n"
    )
    assert code == 0
    assert buf.getvalue() == golden, f"enclose transcript drifted: {buf.getvalue()!r}"
    assert 0.001953125 <= 2e-3
    return "eval and enclose transcripts reproduced bit for bit"


def _criterion_7() -> str:
    e, _ = parse("sqrt(-abs(x))")
    rng = random.Random(707)
    seen = 0
    while seen < 1000:
        x = rng.uniform(-1e6, 1e6)
        if x == 0.0:
            continue
        assert not eval_real(e, INTERP, (x,)).is_defined, f"defined at {x}"
        seen += 1
    at_zero = eval_real(e, INTERP, (0.0,))
    assert at_zero.is_defined and at_zero.value == 0.0
    assert repr(at_zero) == "Defined(0.0)"
    return "undefined at 1000 nonzero points, Defined(0.0) at zero"


def test_criterion_1_pointwise_inclusion():
    _gate(1, "pointwise results stay inside interval results", _criterion_1, 60.0)


def test_criterion_2_operation_totality():
    _gate(2, "every operation is total on special operands", _criterion_2, 1.0)


def test_criterion_3_single_occurrence_exactness():
    _gate(3, "single-occurrence enclosures are exact to 1 ulp", _criterion_3, 30.0)


def test_criterion_4_relational_case_tables():
    _gate(4, "relational division and root case tables", _criterion_4, 5.0)


def test_criterion_5_nested_convergence():
    _gate(5, "nested refinement converges on continuous cases", _criterion_5, 30.0)


def test_criterion_6_golden_transcripts():
    _gate(6, "recorded command transcripts reproduce bit for bit", _criterion_6, None)


def test_criterion_7_partial_root_at_zero():
    _gate(7, "root of a nonpositive range is defined only at zero", _criterion_7, None)


def _run_all() -> int:
    checks = [
        test_criterion_1_pointwise_inclusion,
        test_criterion_2_operation_totality,
        test_criterion_3_single_occurrence_exactness,
        test_criterion_4_relational_case_tables,
        test_criterion_5_nested_convergence,
        test_criterion_6_golden_transcripts,
        test_criterion_7_partial_root_at_zero,
    ]
    failed = 0
    for check in checks:
        try:
            check()
        except BaseException:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_all())
