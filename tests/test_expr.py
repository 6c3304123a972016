"""Expression language: parsing, printing, structural queries."""

import dataclasses
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival import expr
from relival.expr import (
    Binary,
    Binding,
    ParseError,
    Unary,
    Var,
    depth,
    occurs_once,
    parse,
    to_source,
    variable_sequence,
)


def ast(source: str):
    e, _ = parse(source)
    return e


class TestParseShapes:
    def test_single_variable(self):
        assert ast("x") == Var("x")

    def test_precedence(self):
        assert ast("x + y*z") == Binary("+", Var("x"), Binary("*", Var("y"), Var("z")))
        assert ast("x*y + z") == Binary("+", Binary("*", Var("x"), Var("y")), Var("z"))

    def test_left_associativity(self):
        assert ast("a - b - c") == Binary("-", Binary("-", Var("a"), Var("b")), Var("c"))
        assert ast("a / b / c") == Binary("/", Binary("/", Var("a"), Var("b")), Var("c"))

    def test_parens_override(self):
        assert ast("a - (b - c)") == Binary("-", Var("a"), Binary("-", Var("b"), Var("c")))
        assert ast("(x + y) * z") == Binary("*", Binary("+", Var("x"), Var("y")), Var("z"))

    def test_unary_minus(self):
        assert ast("-x") == Unary("neg", Var("x"))
        assert ast("-x * y") == Binary("*", Unary("neg", Var("x")), Var("y"))
        assert ast("-x + y") == Binary("+", Unary("neg", Var("x")), Var("y"))
        assert ast("--x") == Unary("neg", Unary("neg", Var("x")))

    def test_word_unaries(self):
        assert ast("abs(x)") == Unary("abs", Var("x"))
        assert ast("sqrt(x + y)") == Unary("sqrt", Binary("+", Var("x"), Var("y")))
        assert ast("sqrtr(x)") == Unary("sqrtr", Var("x"))
        # the grammar does not require parentheses after a unary word
        assert ast("sqrt x") == Unary("sqrt", Var("x"))
        assert ast("abs -x") == Unary("abs", Unary("neg", Var("x")))

    def test_identifier_lexicon(self):
        assert ast("_foo9 + Bar_2") == Binary("+", Var("_foo9"), Var("Bar_2"))

    def test_whitespace_insensitive(self):
        assert ast(" x+y ") == ast("x + y")


class TestConstants:
    def test_literal_becomes_fresh_variable(self):
        e, binds = parse("x + 2")
        assert e == Binary("+", Var("x"), Var("_c0"))
        assert binds == [Binding("_c0", "2", Fraction(2))]

    def test_literal_value_is_exact(self):
        _, binds = parse("x * 2.5e-1")
        assert binds[0].value == Fraction(1, 4)
        _, binds = parse("x + 0.1")
        assert binds[0].value == Fraction(1, 10)
        _, binds = parse("1e400 + 1e999")
        assert [b.value for b in binds] == [Fraction(10**400), Fraction(10**999)]

    def test_multiple_literals_in_order(self):
        e, binds = parse("1 + x * 2")
        assert [b.name for b in binds] == ["_c0", "_c1"]
        assert [b.value for b in binds] == [Fraction(1), Fraction(2)]
        assert e == Binary("+", Var("_c0"), Binary("*", Var("x"), Var("_c1")))

    def test_fresh_names_dodge_collisions(self):
        e, binds = parse("_c0 + 1")
        assert binds[0].name == "_c1"
        assert e == Binary("+", Var("_c0"), Var("_c1"))
        # a name used after the literal is dodged too
        e, binds = parse("1 + _c0 * 2")
        assert [b.name for b in binds] == ["_c1", "_c2"]
        assert e == Binary("+", Var("_c1"), Binary("*", Var("_c0"), Var("_c2")))

    def test_no_literals_no_bindings(self):
        _, binds = parse("x + y")
        assert binds == []


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_trailing_operator(self):
        with pytest.raises(ParseError) as exc:
            parse("x +")
        assert "end of input" in str(exc.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as exc:
            parse("(x + y")
        assert "')'" in str(exc.value)

    def test_stray_close_paren(self):
        with pytest.raises(ParseError):
            parse(")")

    def test_unknown_character_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x $ y")
        assert exc.value.position == 2

    def test_unknown_function_symbol(self):
        with pytest.raises(ParseError) as exc:
            parse("foo(x)")
        assert "unknown operation symbol 'foo'" in str(exc.value)

    def test_adjacent_expressions_rejected(self):
        with pytest.raises(ParseError):
            parse("x y")

    def test_reserved_word_needs_argument(self):
        with pytest.raises(ParseError):
            parse("abs")

    def test_literal_past_the_digit_limit(self):
        # the 4300-digit limit refuses it before 10**999999999 is built
        with pytest.raises(ParseError) as exc:
            parse("x + 1e999999999")
        assert exc.value.position == 4
        assert "4300 digits" in str(exc.value)

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse("x +")

    def test_long_whitespace_in_linear_time(self):
        # a trailing run of whitespace must not be rescanned from each of its positions;
        # the sizes grow tenfold, so a quadratic tokenizer fails in seconds, not hours
        for n in (10**3, 10**4, 10**5, 10**6):
            for source in ("x" + " " * n, " " * n + "x"):
                start = time.perf_counter()
                assert parse(source) == (Var("x"), [])
                assert time.perf_counter() - start < 1.0, (n, source[:2])
            start = time.perf_counter()
            with pytest.raises(ParseError, match="unexpected character '\\$'") as exc:
                parse("x" + " " * n + "$")
            assert exc.value.position == n + 1
            assert time.perf_counter() - start < 1.0, n


class TestPrinter:
    def test_simple(self):
        assert to_source(ast("x + y")) == "x + y"
        assert to_source(ast("x*y + z")) == "x * y + z"

    def test_parens_kept_where_needed(self):
        assert to_source(ast("(x + y) * z")) == "(x + y) * z"
        assert to_source(ast("a - (b - c)")) == "a - (b - c)"
        assert to_source(ast("a - (b + c)")) == "a - (b + c)"

    def test_unary_forms(self):
        assert to_source(ast("-x")) == "-x"
        assert to_source(ast("-(x + y)")) == "-(x + y)"
        assert to_source(ast("abs(x)")) == "abs(x)"
        assert to_source(ast("sqrt x")) == "sqrt(x)"

    def test_constants_print_as_their_fresh_names(self):
        assert to_source(ast("x + 2")) == "x + _c0"


_names = st.sampled_from(["x", "y", "z", "w", "a_1"])


def _exprs():
    leaves = st.builds(Var, _names)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "abs", "sqrt", "sqrtr"]), sub),
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), sub, sub),
        ),
        max_leaves=12,
    )


# The tokenizer and parser as they were before each token became one regex match
# (whitespace was a token kind of its own) and before leaves were shared: the reference
# the single-match tokenizer and the parser are tested against.
_REFERENCE_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/()])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)"
)


def _reference_tokenize(source):
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    return tokens


def _reference_parse(source):
    tokens = _reference_tokenize(source)
    used = {t for k, t, _ in tokens if k == "ident"}
    bindings, fresh, operands, operators = [], 0, [], []
    end = (None, "", len(source))
    i, want_operand = 0, True
    while True:
        kind, text, at = tokens[i] if i < len(tokens) else end
        i += 1
        if want_operand:
            if kind == "op" and text in ("-", "("):
                operators.append("neg" if text == "-" else "(")
                continue
            if kind == "ident":
                if text in expr.UNARY_WORDS:
                    operators.append(text)
                    continue
                if i < len(tokens) and tokens[i][:2] == ("op", "("):
                    raise ParseError(f"unknown operation symbol {text!r}", at)
                operands.append(Var(text))
            elif kind == "num":
                while f"_c{fresh}" in used:
                    fresh += 1
                name = f"_c{fresh}"
                fresh += 1
                used.add(name)
                try:
                    value = expr._exact_value(text)
                except ValueError as exc:
                    raise ParseError(f"bad number literal: {exc}", at) from None
                bindings.append(Binding(name, text, value))
                operands.append(Var(name))
            elif kind is None:
                raise ParseError("unexpected end of input", at)
            else:
                raise ParseError(f"unexpected {text!r}", at)
            expr._apply_prefix(operands, operators)
            want_operand = False
            continue
        if kind == "op" and text in expr._PREC:
            expr._apply_infix(operands, operators, expr._PREC[text])
            operators.append(text)
            want_operand = True
            continue
        expr._apply_infix(operands, operators, 0)
        if not operators:
            if kind is None:
                return operands[0], bindings
            raise ParseError(f"unexpected {text!r} after expression", at)
        if not (kind == "op" and text == ")"):
            raise ParseError("expected ')'", at)
        operators.pop()
        expr._apply_prefix(operands, operators)


def _outcome(f, source):
    try:
        return "ok", f(source)
    except ParseError as exc:
        return "error", str(exc), exc.position


# characters of every token kind, the unicode whitespace \s matches (\x1c, the
# ideographic space) and characters no token takes ($, é)
_CHARS = "0123456789.eE" + "axyzAZ_" + "+-*/()" + "$é" + "\t\n\r\x0b\x0c\x1c \u3000"
# whole words, so that literals, reserved words and fresh-name collisions turn up often
_WORDS = ["x", "y", "_c0", "_c1", "abs", "sqrt", "sqrtr", "foo", "2", "0.5", "1e3", ".5e-1",
          "(", ")", "-", "+", "*", "/", " ", "\t", "\u3000", "$"]


class TestAgainstReference:
    @given(st.text(alphabet=_CHARS, max_size=40))
    def test_tokens_match(self, source):
        got = _outcome(expr._tokenize, source)
        want = _outcome(_reference_tokenize, source)
        if want[0] == "ok":  # the single-match tokenizer appends an end sentinel
            want = ("ok", want[1] + [(None, "", len(source))])
        assert got == want

    @given(st.one_of(st.text(alphabet=_CHARS, max_size=40), st.lists(st.sampled_from(_WORDS)).map("".join)))
    def test_parses_match(self, source):
        got = _outcome(parse, source)
        want = _outcome(_reference_parse, source)
        assert got == want
        if got[0] == "ok":
            e = got[1][0]
            assert repr(e) == repr(want[1][0])
            # parse caches the variable sequence it found; a fresh walk agrees
            assert variable_sequence(e) == tuple(dict.fromkeys(expr._leaf_names(expr._postorder(e))))


class TestSharedLeaves:
    def test_one_leaf_per_name(self):
        e = ast("x*y + x")
        assert e.left.left is e.right
        separate = Binary("+", Binary("*", Var("x"), Var("y")), Var("x"))
        assert e.left.left is not separate.right
        assert e == separate and hash(e) == hash(separate)
        assert repr(e) == repr(separate) and to_source(e) == to_source(separate)

    def test_constants_get_their_own_leaves(self):
        e = ast("1 + x + 1 + x")
        assert e.left.right is not e.left.left.left  # _c1 and _c0
        assert e.right is e.left.left.right


class TestRoundTrip:
    @given(_exprs())
    def test_parse_after_print_is_identity(self, e):
        printed = to_source(e)
        reparsed, binds = parse(printed)
        assert reparsed == e
        assert binds == []

    def test_fixed_examples(self):
        for src in ("x", "x + y * z", "(x + y) * z", "-x * -y", "sqrt(abs(x - y))",
                    "a / b / c", "a - (b - c)", "sqrtr(x) + 1"):
            e, _ = parse(src)
            again, _ = parse(to_source(e))
            assert again == e


class TestQueries:
    def test_variable_sequence_first_occurrence(self):
        assert variable_sequence(ast("x*y + y*z")) == ("x", "y", "z")
        assert variable_sequence(ast("x - x")) == ("x",)
        assert variable_sequence(ast("z + y + x")) == ("z", "y", "x")
        assert variable_sequence(ast("sqrt(b) * a + b")) == ("b", "a")

    def test_variable_sequence_includes_constants(self):
        assert variable_sequence(ast("x + 2")) == ("x", "_c0")
        assert variable_sequence(ast("2 * x")) == ("_c0", "x")

    def test_depth(self):
        assert depth(ast("x")) == 1
        assert depth(ast("x + y")) == 2
        assert depth(ast("x + y*z")) == 3
        assert depth(ast("-x")) == 2
        assert depth(ast("sqrt(x + y) * z")) == 4

    def test_occurs_once(self):
        assert occurs_once(ast("x + y"))
        assert occurs_once(ast("x"))
        assert occurs_once(ast("-x * (y - z)"))
        assert not occurs_once(ast("x - x"))
        assert not occurs_once(ast("x*y + y*z"))
        assert occurs_once(ast("x + 2"))

    @given(_exprs())
    def test_variable_sequence_has_no_repeats(self, e):
        seq = variable_sequence(e)
        assert len(seq) == len(set(seq))

    @given(_exprs())
    def test_caching_is_stable(self, e):
        assert variable_sequence(e) is variable_sequence(e)


# the same node shapes with dataclass-generated (recursive) methods, as the reference
_MIRROR = {
    Var: dataclasses.make_dataclass("Var", [("name", str)], frozen=True),
    Unary: dataclasses.make_dataclass("Unary", [("op", str), ("child", object)], frozen=True),
    Binary: dataclasses.make_dataclass(
        "Binary", [("op", str), ("left", object), ("right", object)], frozen=True
    ),
}


def _mirror(e):
    if isinstance(e, Var):
        return _MIRROR[Var](e.name)
    if isinstance(e, Unary):
        return _MIRROR[Unary](e.op, _mirror(e.child))
    return _MIRROR[Binary](e.op, _mirror(e.left), _mirror(e.right))


class TestNodeProtocol:
    def test_repr_text(self):
        assert repr(ast("x + -y*sqrt(z)")) == (
            "Binary(op='+', left=Var(name='x'), right=Binary(op='*', "
            "left=Unary(op='neg', child=Var(name='y')), "
            "right=Unary(op='sqrt', child=Var(name='z'))))"
        )

    @given(_exprs(), _exprs())
    def test_matches_dataclass_methods(self, a, b):
        assert repr(a) == repr(_mirror(a))
        assert (a == b) == (_mirror(a) == _mirror(b))
        assert (a != b) == (_mirror(a) != _mirror(b))
        copy = parse(to_source(a))[0]
        assert copy == a and hash(copy) == hash(a)

    def test_foreign_operands(self):
        assert Var("x") != "x"
        assert Var("x") != Unary("neg", Var("x"))
        assert Unary("neg", Var("x")) != Unary("abs", Var("x"))
        assert Binary("+", Var("x"), Var("y")) != Binary("+", Var("x"), Var("z"))
        assert len({Var("x"), Var("x"), Unary("neg", Var("x"))}) == 2
        # a variable may be called neg: only the node type tells it from a negation
        assert ast("x + -neg") != ast("-x + neg")
