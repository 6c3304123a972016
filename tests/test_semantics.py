"""Evaluation semantics: point/interval evaluation, modes, and a reference router."""

import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival.expr import Binary, Unary, Var, _postorder, _tape, parse, to_source, variable_sequence
from relival.interval import EMPTY, REALS, Box, Interval, add, member, subset
from relival.rounding import MAX_FLOAT
from relival.semantics import (
    UNDEFINED,
    Interpretation,
    RealResult,
    _compile_columns,
    _pair_tape,
    _run,
    _sample,
    compile_interval,
    compile_real,
    default_interpretation,
    eval_interval,
    eval_real,
    mode_select,
)
from relival.oracle import random_case

INF = math.inf
DEFAULT = default_interpretation()


def ast(source: str):
    e, _ = parse(source)
    return e


class TestDistributionPlan:
    def test_disjoint_children(self):
        plan = build_distribution(Var("x"), Var("y"))
        assert plan.combined_arity == 2
        assert plan.left_indices == (0,)
        assert plan.right_indices == (1,)

    def test_shared_variable(self):
        plan = build_distribution(Var("x"), Var("x"))
        assert plan.combined_arity == 1
        assert plan.right_indices == (0,)

    def test_partial_overlap(self):
        e = ast("x*y + y*z")
        plan = build_distribution(e.left, e.right)
        assert plan.combined_arity == 3
        assert plan.left_indices == (0, 1)
        assert plan.right_indices == (1, 2)

    def test_right_only_reorder(self):
        # left (a, b); right (c, a): shared 'a' routes to slot 0
        left = ast("a + b")
        right = ast("c * a")
        plan = build_distribution(left, right)
        assert plan.combined_arity == 3
        assert plan.right_indices == (2, 0)

    def test_plan_invariants_random(self):
        rng = random.Random(11)
        for _ in range(50):
            e, _ = random_case(rng, max_depth=4)
            for node in _binary_nodes(e):
                plan = build_distribution(node.left, node.right)
                combined = variable_sequence(node)
                lseq = variable_sequence(node.left)
                rseq = variable_sequence(node.right)
                assert plan.combined_arity == len(combined)
                assert plan.left_indices == tuple(range(len(lseq)))
                for name, idx in zip(rseq, plan.right_indices):
                    assert combined[idx] == name


def _binary_nodes(e):
    if isinstance(e, Binary):
        yield e
        yield from _binary_nodes(e.left)
        yield from _binary_nodes(e.right)
    elif isinstance(e, Unary):
        yield from _binary_nodes(e.child)


class TestRealResult:
    def test_defined(self):
        r = RealResult.defined(2.5)
        assert r.is_defined and r.value == 2.5

    def test_undefined_singleton(self):
        assert not UNDEFINED.is_defined
        assert UNDEFINED.value is None
        assert repr(UNDEFINED) == "Undefined"

    def test_defined_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            RealResult.defined(INF)
        with pytest.raises(ValueError):
            RealResult.defined(math.nan)

    def test_negative_zero_normalized(self):
        assert math.copysign(1.0, RealResult.defined(-0.0).value) == 1.0

    def test_defined_rejects_a_number_past_the_float_range(self):
        with pytest.raises(ValueError, match="finite reals"):
            RealResult.defined(10**400)
        assert RealResult.defined(2**1000).value == 2.0**1000

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RealResult(math.nan),
            lambda: RealResult(INF),
            lambda: RealResult(-INF),
            lambda: RealResult(10**400),
            lambda: dataclasses.replace(RealResult.defined(1.0), value=INF),
        ],
    )
    def test_the_constructor_refuses_what_defined_refuses(self, make):
        with pytest.raises(ValueError, match="^defined results must be finite reals$"):
            make()

    def test_the_constructor_normalizes_as_defined_does(self):
        assert repr(RealResult(-0.0)) == "Defined(0.0)"
        assert repr(dataclasses.replace(UNDEFINED, value=-0.0)) == "Defined(0.0)"
        assert repr(RealResult(2**1000)) == f"Defined({2.0**1000!r})"
        assert type(RealResult(3).value) is float
        assert RealResult(None) == UNDEFINED


class TestEvalReal:
    def test_polynomial_point(self):
        assert eval_real(ast("x*y + y*z"), DEFAULT, (1, 2, 3)) == RealResult.defined(8.0)

    def test_shared_variable_cancels_pointwise(self):
        assert eval_real(ast("x - x"), DEFAULT, (0.7,)) == RealResult.defined(0.0)

    def test_division_by_zero_undefined(self):
        e = ast("x / y")
        assert eval_real(e, DEFAULT, (1.0, 0.0)) == UNDEFINED
        assert eval_real(e, DEFAULT, (1.0, 2.0)) == RealResult.defined(0.5)

    def test_sqrt_of_negative_undefined(self):
        e = ast("sqrt(x)")
        assert eval_real(e, DEFAULT, (-1.0,)) == UNDEFINED
        assert eval_real(e, DEFAULT, (4.0,)) == RealResult.defined(2.0)

    def test_sqrt_of_negated_abs(self):
        e = ast("sqrt(-abs(x))")
        assert eval_real(e, DEFAULT, (0.0,)) == RealResult.defined(0.0)
        assert eval_real(e, DEFAULT, (2.0,)) == UNDEFINED
        assert eval_real(e, DEFAULT, (-1e-12,)) == UNDEFINED

    def test_undefined_propagates_strictly(self):
        e = ast("sqrt(x) * y - z")
        assert eval_real(e, DEFAULT, (-1.0, 0.0, 1.0)) == UNDEFINED

    def test_overflow_is_undefined(self):
        e = ast("x * y")
        assert eval_real(e, DEFAULT, (1e300, 1e300)) == UNDEFINED

    @pytest.mark.parametrize("value", [math.nan, INF])
    def test_user_op_non_finite_value_is_undefined(self, value):
        interp = Interpretation({**DEFAULT.real_ops, "abs": lambda a: value}, DEFAULT.interval_ops)
        assert eval_real(ast("abs(x)"), interp, (1.0,)) == UNDEFINED
        assert eval_real(ast("abs(x) - abs(x) + y"), interp, (1.0, 2.0)) == UNDEFINED

    def test_user_op_value_past_the_float_range_is_undefined(self):
        interp = Interpretation({**DEFAULT.real_ops, "abs": lambda a: 10**400}, DEFAULT.interval_ops)
        assert compile_real(ast("abs(x)"), interp)((1.0,)) is None
        assert eval_real(ast("abs(x)"), interp, (1.0,)) == UNDEFINED
        # not defined again where the int cancels
        assert eval_real(ast("abs(x) - abs(x) + y"), interp, (1.0, 2.0)) == UNDEFINED

    def test_both_root_symbols_same_point_function(self):
        assert eval_real(ast("sqrtr(x)"), DEFAULT, (9.0,)) == RealResult.defined(3.0)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="arity"):
            eval_real(ast("x + y"), DEFAULT, (1.0,))

    def test_nonfinite_coordinate_rejected(self):
        with pytest.raises(ValueError):
            eval_real(ast("x"), DEFAULT, (INF,))
        with pytest.raises(ValueError):
            eval_real(ast("x"), DEFAULT, (math.nan,))

    def test_coordinate_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="point coordinates must be finite reals"):
            eval_real(ast("x"), DEFAULT, (10**400,))
        assert eval_real(ast("x"), DEFAULT, (2**1000,)) == RealResult.defined(2.0**1000)


class TestEvalInterval:
    def test_dependency_width(self):
        assert eval_interval(ast("x - x"), DEFAULT, (Interval(0, 1),)) == Interval(-1, 1)

    def test_polynomial_box(self):
        box = Box((Interval(0, 2), Interval(1, 3), Interval(2, 4)))
        assert eval_interval(ast("x*y + y*z"), DEFAULT, box) == Interval(2, 18)

    def test_degenerate_box_pins_the_value(self):
        box = (Interval.point(1.0), Interval.point(2.0), Interval.point(3.0))
        assert eval_interval(ast("x*y + y*z"), DEFAULT, box) == Interval(8, 8)

    def test_empty_coordinate_collapses(self):
        assert eval_interval(ast("x + y"), DEFAULT, (Interval(1, 2), EMPTY)) == EMPTY

    def test_unbounded_coordinates_are_fine(self):
        assert eval_interval(ast("x + y"), DEFAULT, (Interval(0, INF), Interval(-1, 1))) == Interval(-1, INF)

    def test_constants_enter_as_degenerate_interval(self):
        e, binds = parse("x + 2")
        box = (Interval(0, 1), Interval.point(2.0))
        assert eval_interval(e, DEFAULT, box) == Interval(2, 3)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="arity"):
            eval_interval(ast("x + y"), DEFAULT, (Interval(0, 1),))

    def test_non_interval_coordinate_rejected(self):
        with pytest.raises(TypeError):
            eval_interval(ast("x"), DEFAULT, (1.0,))


class TestModes:
    def test_default_division_is_relational(self):
        e = ast("x / y")
        assert eval_interval(e, DEFAULT, (Interval(0, 1), Interval(0, 0))) == REALS
        assert eval_interval(e, DEFAULT, (Interval(1, 2), Interval(0, 0))) == EMPTY

    def test_default_sqrt_is_image_style(self):
        assert eval_interval(ast("sqrt(x)"), DEFAULT, (Interval(4, 9),)) == Interval(2, 3)

    def test_sqrtr_is_always_relational(self):
        for interp in (DEFAULT, mode_select(DEFAULT, "relational"), mode_select(DEFAULT, "canonical")):
            assert eval_interval(ast("sqrtr(x)"), interp, (Interval(4, 9),)) == Interval(-3, 3)

    def test_canonical_mode_division(self):
        interp = mode_select(DEFAULT, "canonical")
        e = ast("x / y")
        assert eval_interval(e, interp, (Interval(0, 1), Interval(0, 0))) == EMPTY
        assert eval_interval(e, interp, (Interval(4, 6), Interval(1, 2))) == Interval(2, 6)

    def test_relational_mode_sqrt(self):
        interp = mode_select(DEFAULT, "relational")
        assert eval_interval(ast("sqrt(x)"), interp, (Interval(4, 9),)) == Interval(-3, 3)

    def test_mode_names(self):
        assert DEFAULT.name == "default"
        assert mode_select(DEFAULT, "canonical").name == "canonical"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mode_select(DEFAULT, "fast")

    def test_real_layer_unchanged_by_mode(self):
        for mode in ("relational", "canonical"):
            interp = mode_select(DEFAULT, mode)
            assert eval_real(ast("sqrt(x)"), interp, (4.0,)) == RealResult.defined(2.0)
            assert eval_real(ast("x / y"), interp, (1.0, 0.0)) == UNDEFINED

    def test_unknown_symbol_reported(self):
        with pytest.raises(KeyError, match="interval operation"):
            eval_interval(Unary("exp", Var("x")), DEFAULT, (Interval(0, 1),))


class TestCompositionality:
    def test_top_split_matches_manual_routing(self):
        rng = random.Random(23)
        for _ in range(60):
            e, box = random_case(rng, max_depth=4)
            if not isinstance(e, Binary):
                continue
            whole = eval_interval(e, DEFAULT, box)
            plan = build_distribution(e.left, e.right)
            m = len(plan.left_indices)
            left_args = box.dims[:m]
            right_args = tuple(box.dims[i] for i in plan.right_indices)
            lv = eval_interval(e.left, DEFAULT, left_args)
            rv = eval_interval(e.right, DEFAULT, right_args)
            assert DEFAULT.interval_op(e.op)(lv, rv) == whole

    def test_compiled_matches_one_shot(self):
        rng = random.Random(5)
        for _ in range(40):
            e, box = random_case(rng, max_depth=4)
            fn = compile_interval(e, DEFAULT)
            assert fn(box.dims) == eval_interval(e, DEFAULT, box)


def _names(e):
    """The variables of ``e`` in order of first occurrence, leaves left to right."""
    if isinstance(e, Var):
        return [e.name]
    if isinstance(e, Unary):
        return _names(e.child)
    return list(dict.fromkeys(_names(e.left) + _names(e.right)))


@dataclasses.dataclass(frozen=True)
class DistributionPlan:
    """Index routing for one binary node.

    A combined tuple of ``combined_arity`` coordinates feeds the left
    subexpression through ``left_indices`` (always the identity prefix
    ``0..m-1``) and the right one through ``right_indices`` (shared
    variables point into that prefix, fresh ones continue past it, each
    exactly once, in order).
    """

    combined_arity: int
    left_indices: tuple
    right_indices: tuple


def build_distribution(left, right):
    """The reference router's plan for a node whose children are ``left`` and
    ``right``; it reads the tree alone, no engine code."""
    lseq = _names(left)
    pos = {name: i for i, name in enumerate(lseq)}
    n = len(lseq)
    ridx = []
    for name in _names(right):
        if name not in pos:
            pos[name] = n
            n += 1
        ridx.append(pos[name])
    return DistributionPlan(n, tuple(range(len(lseq))), tuple(ridx))


def _reference(e, interp, args, real):
    """Reference evaluator: recursion over the tree, each binary node
    routing its argument tuple to its children through ``build_distribution``,
    where the engine reads every variable from its one tape slot."""
    if isinstance(e, Var):
        return args[0]
    if isinstance(e, Unary):
        v = _reference(e.child, interp, args, real)
        if not real:
            return interp.interval_op(e.op)(v)
        return None if v is None else interp.real_op(e.op)(v)
    plan = build_distribution(e.left, e.right)
    a = _reference(e.left, interp, tuple(args[i] for i in plan.left_indices), real)
    if real and a is None:
        return None
    b = _reference(e.right, interp, tuple(args[i] for i in plan.right_indices), real)
    if real and b is None:
        return None
    op = interp.real_op(e.op) if real else interp.interval_op(e.op)
    return op(a, b)


def _bits(v):
    # repr tells -0.0 from 0.0, which == does not
    if isinstance(v, Interval):
        return (v.is_empty, repr(v.lo), repr(v.hi))
    return repr(v)


def _counting(table, calls):
    def wrap(sym, f):
        def counted(*args):
            calls[sym] += 1
            return f(*args)

        return counted

    return {sym: wrap(sym, f) for sym, f in table.items()}


def _two_walk_tape(e):
    """Variable sequence and ``(n, ops)`` tape of ``e``, built over two walks of the
    tree, one for each (and no cache): the reference the folded ``_tape`` and the
    tape ``parse`` builds are tested against."""
    names = tuple(dict.fromkeys(n.name for n in _postorder(e) if isinstance(n, Var)))
    slot = {name: k for k, name in enumerate(names)}
    ops, stack = [], []
    for node in _postorder(e):
        if isinstance(node, Var):
            stack.append(slot[node.name])
            continue
        if isinstance(node, Unary):
            key = (node.op, stack.pop(), -1)
        else:
            b = stack.pop()
            key = (node.op, stack.pop(), b)
        k = slot.get(key)
        if k is None:
            k = slot[key] = len(names) + len(ops)
            ops.append(key)
        stack.append(k)
    return names, (len(names), tuple(ops))


class TestTape:
    @given(st.integers(0, 2**32 - 1))
    def test_one_walk_matches_two(self, seed):
        e, _ = random_case(random.Random(seed), max_depth=6)
        names, tape = _two_walk_tape(e)
        e.__dict__.pop("_varseq", None)  # _tape fills an empty cache
        assert _tape(e) == tape
        assert e.__dict__["_varseq"] == names == variable_sequence(e)
        # parsed trees share their leaves, and parse caches the variable sequence and
        # the tape; a hand-built tree gets the tape of its parsed source
        for source in (to_source(e), f"2 * ({to_source(e)}) - 0.5"):
            parsed, _ = parse(source)
            assert "_tape" in parsed.__dict__ and "_varseq" in parsed.__dict__
            names, tape = _two_walk_tape(parsed)
            assert _tape(parsed) == tape
            assert variable_sequence(parsed) == names
        assert _tape(parse(to_source(e))[0]) == _tape(e)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["default", "canonical"]))
    def test_matches_closure_routing(self, seed, mode):
        interp = DEFAULT if mode == "default" else mode_select(DEFAULT, mode)
        rng = random.Random(seed)
        e, box = random_case(rng, max_depth=6)
        got = compile_interval(e, interp)(box.dims)
        assert _bits(got) == _bits(_reference(e, interp, box.dims, real=False))
        rfn = compile_real(e, interp)
        for _ in range(8):
            pt = tuple(rng.uniform(d.lo, d.hi) for d in box)
            assert _bits(rfn(pt)) == _bits(_reference(e, interp, pt, real=True))

    def test_repeated_subterm_evaluated_once(self):
        calls = Counter()
        interp = Interpretation(_counting(DEFAULT.real_ops, calls), _counting(DEFAULT.interval_ops, calls))
        e = ast("(x*y) - (x*y)")
        box = (Interval(0, 1), Interval(2, 3))
        assert compile_interval(e, interp)(box) == Interval(-3, 3)
        assert calls == {"*": 1, "-": 1}
        calls.clear()
        assert compile_real(e, interp)((0.5, 3.0)) == 0.0
        assert calls == {"*": 1, "-": 1}

    def test_unknown_symbol_fails_at_compile_time(self):
        e = Binary("+", Var("x"), Unary("exp", Var("x")))
        with pytest.raises(KeyError, match="real operation"):
            compile_real(e, DEFAULT)
        with pytest.raises(KeyError, match="interval operation"):
            compile_interval(e, DEFAULT)


def _through_adapter(interp):
    """``interp`` with each interval op behind a plain wrapper, which the
    compiler runs through its boxing adapter instead of a kernel."""

    def wrap(f):
        return lambda *a: f(*a)

    return Interpretation(interp.real_ops, {s: wrap(f) for s, f in interp.interval_ops.items()}, interp.name)


class TestKernelPath:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["relational", "canonical"]))
    def test_kernels_match_the_boxing_adapter(self, seed, mode):
        interp = mode_select(DEFAULT, mode)
        e, box = random_case(random.Random(seed), max_depth=6)
        assert repr(eval_interval(e, interp, box)) == repr(eval_interval(e, _through_adapter(interp), box))

    # kernels carry a -0.0 bound forward where the constructor would have
    # normalized it; no later operation may tell it from 0.0
    @pytest.mark.parametrize(
        "source, bounds, relational, canonical",
        [
            ("x - x", [(0, 0)], "[0,0]", "[0,0]"),
            ("-x * y", [(0, 0), (-1, 2)], "[0,0]", "[0,0]"),
            ("-x * y", [(0, 0), (-INF, INF)], "[0,0]", "[0,0]"),
            ("sqrtr(x)", [(-1, 0)], "[0,0]", "[0,0]"),
            ("sqrtr(x) * y", [(-1, 0), (-INF, INF)], "[0,0]", "[0,0]"),
            ("x * y", [(0, 0), (-INF, INF)], "[0,0]", "[0,0]"),
            ("-x / y", [(0, 1), (1, 2)], "[-1,0]", "[-1,0]"),
            ("-x / y", [(0, 1), (-2, -1)], "[0,1]", "[0,1]"),
            ("-x / y", [(0, 1), (0, 1)], "[-inf,inf]", "[-inf,0]"),
            ("-x / y", [(0, 0), (0, 0)], "[-inf,inf]", "empty"),
            ("x / -y", [(1, 2), (0, 1)], "[-inf,-1]", "[-inf,-1]"),
            ("sqrt(-x)", [(0, 1)], "[0,0]", "[0,0]"),
            ("abs(-x) + sqrtr(x)", [(0, 0)], "[0,0]", "[0,0]"),
        ],
    )
    def test_signed_zero_cases(self, source, bounds, relational, canonical):
        box = [Interval(lo, hi) for lo, hi in bounds]
        for mode, want in (("relational", relational), ("canonical", canonical)):
            interp = mode_select(DEFAULT, mode)
            assert repr(eval_interval(ast(source), interp, box)) == want
            assert repr(eval_interval(ast(source), _through_adapter(interp), box)) == want

    # a zero numerator over divisors that touch zero: the pair runner's bounds have no
    # constructor to normalize them, so each zero must come out of div_* as 0.0
    @pytest.mark.parametrize(
        "source, y, want",
        [
            ("abs(x) / y", (0.0, 2.0), (0.0, INF)),
            ("-abs(x) / y", (0.0, 2.0), (-INF, 0.0)),
            ("abs(x) / y", (-2.0, 0.0), (-INF, 0.0)),
            ("-abs(x) / y", (-2.0, 0.0), (0.0, INF)),
        ],
    )
    def test_zero_quotients_by_repr(self, source, y, want):
        _, ops = _pair_tape(ast(source), mode_select(DEFAULT, "canonical"))
        assert repr(_run(ops, [(-1.0, 1.0), y])) == repr(want)

    def test_custom_op_is_called(self):
        @dataclasses.dataclass
        class Plus:  # eq=True without frozen: instances are unhashable
            calls: list

            def __call__(self, x, y):
                self.calls.append((x, y))
                return add(x, y)

        plus = Plus([])
        interp = Interpretation(DEFAULT.real_ops, {**DEFAULT.interval_ops, "+": plus})
        e = ast("x*y + y + x")
        box = (Interval(0, 1), Interval(2, 3))
        assert eval_interval(e, interp, box) == eval_interval(e, DEFAULT, box) == Interval(2, 7)
        assert len(plus.calls) == 2
        assert all(type(v) is Interval for args in plus.calls for v in args)

    def test_empty_from_a_custom_op_propagates(self):
        interp = Interpretation(DEFAULT.real_ops, {**DEFAULT.interval_ops, "sqrtr": lambda x: EMPTY})
        e = ast("abs(-sqrt(sqrtr(x) * y / y + x - y))")
        assert eval_interval(e, interp, (Interval(1, 4), Interval(-1, 1))) == EMPTY
        assert eval_interval(e, DEFAULT, (Interval(1, 4), Interval(-1, 1))) == Interval(0, INF)

def _real_through_adapter(interp):
    """``interp`` with each real op behind a plain wrapper, which the column
    runner calls sample by sample instead of running a column kernel."""

    def wrap(f):
        return lambda *a: f(*a)

    return Interpretation({s: wrap(f) for s, f in interp.real_ops.items()}, interp.interval_ops, interp.name)


# coordinates near the ends of the float range: sums and products overflow, and a
# width of inf (from -MAX_FLOAT to MAX_FLOAT) turns every drawn sample into inf
_WIDE_BOUNDS = [
    (-MAX_FLOAT, MAX_FLOAT),
    (MAX_FLOAT / 2, MAX_FLOAT),
    (-MAX_FLOAT, -MAX_FLOAT / 4),
    (1e300, 1e308),
    (-1e-300, 1e-300),
    (0.0, 0.0),
    (-1.0, 1.0),
]


def _columns_as_points(e, interp, points):
    """The column runner's values over ``points``, any non-finite one (NaN or
    an infinity, each an undefined sample) read as None."""
    cols = [list(c) for c in zip(*points)]
    return [v if -INF < v < INF else None for v in _compile_columns(e, interp)(cols)]


class TestColumnRunner:
    """The sampling column runner against ``compile_real``, one point at a time."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["default", "canonical", "relational"]),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_compile_real(self, seed, mode, wide, wrapped):
        interp = DEFAULT if mode == "default" else mode_select(DEFAULT, mode)
        if wrapped:
            interp = _real_through_adapter(interp)
        rng = random.Random(seed)
        e, box = random_case(rng, max_depth=6)
        bounds = [rng.choice(_WIDE_BOUNDS) if wide else (d.lo, d.hi) for d in box]
        points = [tuple(lo + (hi - lo) * rng.random() for lo, hi in bounds) for _ in range(48)]
        points.append(tuple(lo for lo, _ in bounds))
        points.append(tuple(hi for _, hi in bounds))
        points.append(tuple(-0.0 for _ in bounds))
        rfn = compile_real(e, interp)
        want = [_bits(rfn(pt)) for pt in points]
        assert [_bits(v) for v in _columns_as_points(e, interp, points)] == want

    @pytest.mark.parametrize(
        "source, point, want",
        [
            ("x + y", (MAX_FLOAT, MAX_FLOAT), None),
            ("x - y", (-MAX_FLOAT, MAX_FLOAT), None),
            ("x * y", (1e200, -1e200), None),
            ("x / y", (1e300, 1e-300), None),
            ("x / y", (1.0, 0.0), None),
            ("x / y", (1.0, -0.0), None),
            ("x / y", (-0.0, 3.0), -0.0),
            ("-x", (0.0,), -0.0),
            ("abs(x)", (-0.0,), 0.0),
            ("sqrt(x)", (-0.0,), -0.0),
            ("sqrtr(x)", (-1e-300,), None),
            # an infinite argument is no real value
            ("x", (INF,), None),
            ("-abs(x)", (INF,), None),
            ("sqrt(x)", (INF,), None),
            ("x + y * z", (INF, 1.0, 0.0), None),
            ("sqrt(x) + y", (-1.0, 2.0), None),
            ("abs(-sqrt(x)) * y", (-1.0, 0.0), None),
            ("x * y - x * y", (3.0, 0.5), 0.0),
            # an overflow's infinity is no divisor: 1 / inf would be a finite 0.0
            ("x / (y * z)", (1.0, 1e200, 1e200), None),
            # nor an argument of a user's op, which is not called on it
            ("abs(x * y)", (1e200, 1e200), None),
            # not even where IEEE arithmetic would make the result finite: 1 / inf is 0.0
            ("y / x", (1.0, INF), None),
        ],
    )
    def test_edge_values(self, source, point, want):
        e = ast(source)
        calls = []

        def spy(x):
            calls.append(x)
            return abs(x)

        # default column kernels around a user's op, which runs behind the adapter
        spied = Interpretation({**DEFAULT.real_ops, "abs": spy}, DEFAULT.interval_ops)
        for interp in (DEFAULT, _real_through_adapter(DEFAULT), spied):
            assert _bits(compile_real(e, interp)(point)) == _bits(want)
            calls.clear()
            got = _columns_as_points(e, interp, [point])
            assert [_bits(v) for v in got] == [_bits(want)]
            assert all(-INF < x < INF for x in calls), calls

    def test_divisor_past_the_float_range_is_undefined(self):
        # 1.0 / 10**400 raises OverflowError; the int is no value to divide by
        interp = Interpretation({**DEFAULT.real_ops, "abs": lambda a: 10**400}, DEFAULT.interval_ops)
        e = ast("y / abs(x)")
        assert compile_real(e, interp)((1.0, 1.0)) is None
        assert _columns_as_points(e, interp, [(1.0, 1.0), (2.0, -3.0)]) == [None, None]
        assert _sample(e, interp, Box((Interval(1, 2), Interval(0, 1))), 5, 0)[1:] == (0, 0)

    def test_user_op_nan_and_none_are_undefined(self):
        calls = []

        def odd(x):
            calls.append(x)
            return None if x < 0 else math.nan if x == 0 else x

        interp = Interpretation({**DEFAULT.real_ops, "abs": odd}, DEFAULT.interval_ops)
        points = [(-1.0,), (0.0,), (2.0,), (-4.0,)]
        # abs(x) is undefined at -1 and 0; -abs(sqrt(x)) is never computed where sqrt(x) is not
        assert _columns_as_points(ast("abs(x) + x"), interp, points) == [None, None, 4.0, None]
        calls.clear()
        assert _columns_as_points(ast("-abs(sqrt(x))"), interp, points) == [None, None, -math.sqrt(2.0), None]
        assert calls == [0.0, math.sqrt(2.0)]


class TestInclusion:
    def test_points_stay_inside_random_cases(self):
        rng = random.Random(99)
        for i in range(60):
            e, box = random_case(rng, max_depth=4)
            iv = eval_interval(e, DEFAULT, box)
            rfn = compile_real(e, DEFAULT)
            for _ in range(25):
                pt = tuple(rng.uniform(d.lo, d.hi) for d in box)
                v = rfn(pt)
                if v is not None:
                    assert member(v, iv), (e, box, pt, v, iv)

    def test_box_monotonicity_random_cases(self):
        rng = random.Random(17)
        for _ in range(40):
            e, box = random_case(rng, max_depth=4)
            shrunk = Box(tuple(_quarter(d, rng) for d in box))
            assert shrunk.is_subset_of(box)
            assert subset(eval_interval(e, DEFAULT, shrunk), eval_interval(e, DEFAULT, box))


def _quarter(iv, rng):
    w = iv.hi - iv.lo
    lo = iv.lo + rng.uniform(0, w / 2)
    return Interval(lo, lo + w / 4)
