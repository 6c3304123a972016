"""Inputs nested far past the interpreter's recursion limit.

Parsing, printing, the structural queries, both evaluators and the
``relival eval`` command all walk expressions without recursion, so
each shape below, nested 10**4 levels deep, must go through every one.
So must AST equality, hashing and ``repr``.
"""

import pytest

from relival.cli import main
from relival.expr import depth, occurs_once, parse, to_source, variable_sequence
from relival.interval import Box, Interval, format_interval, parse_interval
from relival.oracle import corner_range_oracle
from relival.semantics import RealResult, default_interpretation, eval_interval, eval_real

N = 10_000

# name: (source, printed form, --var flags, interval result, point, value there)
SHAPES = {
    "nested_parentheses": (
        "(" * N + "x - (" * N + "y" + ")" * N + ")" * N,
        "x - (" * (N - 1) + "x - y" + ")" * (N - 1),
        ("x=[0,1]", "y=[0,1]"),
        Interval(-5000, 5001),
        (1.0, 0.5),
        0.5,
    ),
    "sum_chain": (
        " + ".join(["x", "y"] * (N // 2)),
        " + ".join(["x", "y"] * (N // 2)),
        ("x=[0,1]", "y=[1,2]"),
        Interval(5000, 15000),
        (1.0, 2.0),
        15000.0,
    ),
    "nested_neg_sqrt": (
        "sqrt(-" * N + "x" + ")" * N,
        "sqrt(-" * N + "x" + ")" * N,
        ("x=[0,1]",),
        Interval(0, 0),
        (0.0,),
        0.0,
    ),
}


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    return SHAPES[request.param]


def test_parses_prints_and_queries(shape):
    source, printed, flags, *_ = shape
    e, binds = parse(source)
    assert binds == []
    assert "_tape" in e.__dict__  # parse builds the tape as it reduces
    assert to_source(e) == printed
    assert to_source(parse(printed)[0]) == printed
    assert depth(e) >= N
    names = tuple(f.partition("=")[0] for f in flags)
    assert variable_sequence(e) == names
    assert occurs_once(e) == (names == ("x",))


def test_compares_hashes_and_reprs(shape):
    source, printed, *_ = shape
    e, _ = parse(source)
    same, _ = parse(printed)
    assert e is not same
    assert e == same and not e != same
    assert hash(e) == hash(same)
    # change the first and the last leaf: one of them sits at the bottom
    for at in (source.index("x"), max(source.rindex("x"), source.rfind("y"))):
        assert e != parse(source[:at] + "z" + source[at + 1 :])[0]
    text = repr(e)
    assert text == repr(same)
    assert text.startswith(("Binary(op=", "Unary(op="))
    assert text.count("Var(name=") == printed.count("x") + printed.count("y")
    assert text.count("(") == text.count(")")


def test_evaluates(shape):
    source, _, flags, expected, point, value = shape
    e, _ = parse(source)
    interp = default_interpretation()
    box = tuple(parse_interval(f.partition("=")[2]) for f in flags)
    assert eval_interval(e, interp, box) == expected
    assert eval_real(e, interp, point) == RealResult.defined(value)


def test_corner_oracle_on_a_long_sum():
    # single-occurrence, so the corner oracle accepts it; one corner per degenerate box
    e, _ = parse(" + ".join(f"v{i}" for i in range(3000)))
    got = corner_range_oracle(e, Box((Interval(1, 1),) * 3000))
    assert (got.lo, got.hi, got.is_empty) == (3000, 3000, False)


def test_cli_eval(shape, capsys):
    source, _, flags, expected, *_ = shape
    argv = ["eval", source]
    for flag in flags:
        argv += ["--var", flag]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == format_interval(expected) + "\n"
