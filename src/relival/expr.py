"""Expression language: AST, parser, printer, structural queries.

Grammar (left-associative, usual precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := IDENT | NUMBER | '(' expr ')'
            | ('-' | 'abs' | 'sqrt' | 'sqrtr') factor

Identifiers match ``[a-zA-Z_][a-zA-Z0-9_]*``; ``abs``, ``sqrt`` and
``sqrtr`` are reserved operation words.  A NUMBER is ``rounding``'s
decimal, ``[0-9]+(.[0-9]*)?`` or ``.[0-9]+`` with an optional exponent
``[eE][+-]?[0-9]+``, in ASCII digits: a digit of another script, such as
``٣``, is an unexpected character.  Number literals do not appear in
the AST: the parser replaces each with a fresh variable (``_c0``,
``_c1``, ... skipping names already used in the source) and returns a
binding that records the literal's exact value (a literal whose exact
numerator or denominator needs more than 4300 digits is a parse error).
Evaluators then treat constants as degenerate arguments, so the core
semantics only ever deals with variables and operation symbols.

The tokenizer is one ``re.findall`` that returns each token's text,
without the whitespace before it, and ends with ``""`` at the end of
input.  A token's kind is read off its first character: an ASCII letter
or ``_`` starts an identifier, a digit or ``.`` a number (a lone ``.``
is a bad character), and any other single character is an operator or
a bad character.  The distinct texts are checked for bad characters
before parsing, so the first one in the source is reported before any
syntax error.  Whitespace is ASCII, as around a bound, so a space of
another kind, such as U+3000, is an unexpected character.  Positions are
not kept per token: an error finds its position by scanning the source
again up to the token.

A parse gives out one shared ``Var`` per name: nodes are immutable and
compare structurally, so sharing a leaf changes no result.  It also
builds the evaluators' tape as it reduces and leaves it, with the
variable sequence, on the root it returns; the tape of a tree built any
other way is folded from it by the same rule (see ``_tape``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .rounding import _DECIMAL, _exact_value

__all__ = [
    "Expr",
    "Var",
    "Unary",
    "Binary",
    "Binding",
    "ParseError",
    "parse",
    "to_source",
    "variable_sequence",
    "depth",
    "occurs_once",
]

UNARY_WORDS = ("abs", "sqrt", "sqrtr")


class Expr:
    """Base class for AST nodes.

    Nodes compare, hash and print structurally, with the text dataclasses
    would generate, but none of the three recurses, so they work on trees
    of any depth.
    """

    __match_args__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _key(self) == _key(other)

    def __hash__(self):
        return hash(_key(self))

    def __repr__(self):
        # pieces come off the stack in reading order: nodes open, strings close
        pieces, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
            elif isinstance(item, Binary):
                pieces.append(f"Binary(op={item.op!r}, left=")
                stack += (")", item.right, ", right=", item.left)
            elif isinstance(item, Unary):
                pieces.append(f"Unary(op={item.op!r}, child=")
                stack += (")", item.child)
            else:
                pieces.append(f"Var(name={item.name!r})")
        return "".join(pieces)


# Equality, hashing and repr come from Expr; fields, replace and frozen assignment stay
# the dataclass's.  Each __init__ sets its fields past the frozen __setattr__ through
# object.__setattr__ bound once, where the generated one looks it up per field.  Writing
# self.__dict__ would build faster still, but it gives every node a dict of its own
# (104 -> 168 bytes per Binary on CPython 3.11) and slows every field read.
_set = object.__setattr__


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Var(Expr):
    """A variable leaf, named as in the source."""

    name: str

    def __init__(self, name: str):
        _set(self, "name", name)


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Unary(Expr):
    """A unary operation applied to one child."""

    op: str  # "neg", "abs", "sqrt" or "sqrtr"
    child: Expr

    def __init__(self, op: str, child: Expr):
        _set(self, "op", op)
        _set(self, "child", child)


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Binary(Expr):
    """A binary operation on a left and a right operand."""

    op: str  # "+", "-", "*" or "/"
    left: Expr
    right: Expr

    def __init__(self, op: str, left: Expr, right: Expr):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


@dataclass(frozen=True)
class Binding:
    """A desugared number literal: fresh variable name, source text, exact value."""

    name: str
    literal: str
    value: Fraction


class ParseError(ValueError):
    """Syntax error with a source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One match per token, whitespace before it included, and one group: the token's text,
# "" at the end of input (where findall may match twice).  Without the \Z alternative a
# trailing run of whitespace would be rescanned from each of its positions, in quadratic
# time.  NUMBER is rounding's decimal, and whitespace is ASCII, as in a bound.
_TOKEN = re.compile(rf"\s*({_DECIMAL}|[A-Za-z_][A-Za-z0-9_]*|[-+*/()]|\S|\Z)", re.ASCII)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("0123456789.")  # a lone "." is refused as a bad character
# the one-character texts that are tokens; every other one is a bad character
_GOOD = _IDENT_START | frozenset("0123456789+-*/()")


def _tokenize(source: str) -> "tuple[list[str], set[str]]":
    """The token texts of ``source``, ending in ``""``, and the set of them.

    The first bad character in the source is an error here, before any
    syntax error the parser could find.
    """
    texts = _TOKEN.findall(source)
    distinct = set(texts)
    bad = {t for t in distinct - _GOOD if len(t) == 1}
    if bad:
        i = next(k for k, t in enumerate(texts) if t in bad)
        raise ParseError(f"unexpected character {texts[i]!r}", _position(source, i))
    return texts, distinct


def _position(source: str, index: int) -> int:
    """Where the text of token ``index`` starts in ``source``: scanned again, for errors only."""
    return next(islice(_TOKEN.finditer(source), index, None)).start(1)


_PREFIX = ("neg",) + UNARY_WORDS
_OPENERS = {"-": "neg", "(": "(", **{w: w for w in UNARY_WORDS}}  # operand position only
_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}


def parse(source: str) -> "tuple[Expr, list[Binding]]":
    """Parse a source string into an AST plus its constant bindings.

    Bindings are listed in order of literal occurrence; the AST refers to
    them by their fresh variable names.  Leaves are immutable, so one
    ``Var`` per name serves every occurrence of that name in the tree.
    The root's variable sequence and tape are cached as the parse finds
    them.

    The parser is an operator-precedence loop over explicit operand and
    operator stacks, so nesting depth is bounded by memory rather than by
    the interpreter's recursion limit.  The operator stack holds ``'('``
    markers, pending prefix operations (``neg`` and the unary words, which
    bind tighter than any infix operator) and pending infix symbols.  Each
    operand carries its tape slot, and a reduction completes a node after
    its children, left before right: post-order, the tape's order.
    """
    texts, distinct = _tokenize(source)
    leaves: dict = {}  # name -> (its one Var, its slot), in order of first occurrence
    keys: dict = {}  # operation key -> provisional slot
    ops: list = []  # operation keys in tape order
    bindings: list[Binding] = []
    fresh = 0
    operands: list = []  # (node, slot) of each finished subterm
    operators: list[str] = []
    i = 0
    want_operand = True
    while True:
        text = texts[i]
        i += 1
        if want_operand:
            opener = _OPENERS.get(text)
            if opener is not None:
                operators.append(opener)
                continue
            leaf = leaves.get(text)  # a fresh name never equals an identifier of the source
            if leaf is None and text[:1] in _IDENT_START:
                leaf = leaves[text] = (Var(text), len(leaves))
            if leaf is not None:
                if texts[i] == "(":  # the list ends with "", so texts[i] exists
                    raise ParseError(f"unknown operation symbol {text!r}", _position(source, i - 1))
            elif text[:1] in _NUMBER_START:
                while f"_c{fresh}" in distinct:
                    fresh += 1
                name = f"_c{fresh}"
                fresh += 1
                try:
                    value = _exact_value(text)
                except ValueError as exc:
                    raise ParseError(f"bad number literal: {exc}", _position(source, i - 1)) from None
                bindings.append(Binding(name, text, value))
                leaf = leaves[name] = (Var(name), len(leaves))
            elif text:
                raise ParseError(f"unexpected {text!r}", _position(source, i - 1))
            else:
                raise ParseError("unexpected end of input", _position(source, i - 1))
            operands.append(leaf)
            if operators and operators[-1] in _PREFIX:
                _apply_prefix(operands, operators, keys, ops)
            want_operand = False
            continue
        if text in _PREC:
            _apply_infix(operands, operators, keys, ops, _PREC[text])
            operators.append(text)
            want_operand = True
            continue
        # anything else closes the innermost open group, or the whole input
        _apply_infix(operands, operators, keys, ops, 0)
        if not operators:
            if not text:
                root = operands[0][0]
                # leaves appear in the tree in source order: its first occurrences
                root.__dict__["_varseq"] = tuple(leaves)
                root.__dict__["_tape"] = _absolute(len(leaves), ops)
                return root, bindings
            raise ParseError(f"unexpected {text!r} after expression", _position(source, i - 1))
        if text != ")":
            raise ParseError("expected ')'", _position(source, i - 1))
        operators.pop()
        if operators and operators[-1] in _PREFIX:
            _apply_prefix(operands, operators, keys, ops)


def _apply_prefix(operands: list, operators: list, keys: dict, ops: list):
    # a factor just completed: the prefix operations waiting for it apply now
    while operators and operators[-1] in _PREFIX:
        op = operators.pop()
        child, a = operands[-1]
        operands[-1] = (Unary(op, child), _intern((op, a, -1), keys, ops))


def _apply_infix(operands: list, operators: list, keys: dict, ops: list, prec: int):
    # left-associative: fold every pending infix symbol binding at least as tightly
    while operators and _PREC.get(operators[-1], -1) >= prec:
        op = operators.pop()
        right, b = operands.pop()
        left, a = operands[-1]
        operands[-1] = (Binary(op, left, right), _intern((op, a, b), keys, ops))


def _intern(key: tuple, keys: dict, ops: list) -> int:
    """The provisional slot of the operation ``key``, ``(symbol, a, b)``.

    A key seen before keeps its first slot, so a repeated subterm is
    evaluated once.  Operations are numbered ``-2, -3, ...`` in the order
    they are first seen, until the variable count is known (``_absolute``).
    """
    k = keys.get(key)
    if k is None:
        k = keys[key] = -2 - len(ops)
        ops.append(key)
    return k


def _absolute(n: int, ops: list) -> "tuple[int, tuple[tuple[str, int, int], ...]]":
    """The tape of ``n`` variables and the operations ``ops``: each
    provisional slot ``-2 - k`` becomes ``n + k``; variable slots and the
    unary mark ``-1`` stay."""
    return n, tuple((sym, a if a >= 0 else n - 2 - a, b if b >= -1 else n - 2 - b) for sym, a, b in ops)


def _postorder(e: Expr) -> "list[Expr]":
    """Nodes of ``e``, each after its children, left subtree before right.

    Built with an explicit stack: a node is taken before its right then
    its left subtree, and that order reversed is post-order.  Every
    structural query shares this walk, so none of them recurses.
    """
    order, stack = [], [e]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Unary):
            stack.append(node.child)
    order.reverse()
    return order


def _fold(e: Expr, var, unary, binary):
    """Combine values bottom-up over ``_postorder(e)``: ``var(node)`` at a
    leaf, ``unary(node, child value)`` and ``binary(node, left value,
    right value)`` above."""
    values = []
    for node in _postorder(e):
        if isinstance(node, Binary):
            right = values.pop()
            values[-1] = binary(node, values[-1], right)
        elif isinstance(node, Unary):
            values[-1] = unary(node, values[-1])
        else:
            values.append(var(node))
    return values[0]


def _key(e: Expr) -> tuple:
    # each node type has a fixed arity, so the post-order labels determine the tree
    return tuple((type(n), n.name if isinstance(n, Var) else n.op) for n in _postorder(e))


def to_source(e: Expr) -> str:
    """Render an AST back to source; ``parse(to_source(e))`` rebuilds ``e``.

    Word unaries always parenthesize their argument; infix children get
    parentheses exactly where precedence or left-associativity demands.
    The text is written in reading order by one explicit-stack walk, as
    ``repr`` writes it, so printing takes time linear in the tree's size
    at any depth.
    """
    # each node pushes its pieces in reverse, so they come off the stack in reading order
    pieces, stack = [], [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
        elif isinstance(item, Binary):
            prec = _PREC[item.op]
            left, right = item.left, item.right
            if isinstance(right, Binary) and _PREC[right.op] <= prec:
                stack += (")", right, f" {item.op} (")
            else:
                stack += (right, f" {item.op} ")
            if isinstance(left, Binary) and _PREC[left.op] < prec:
                stack += (")", left, "(")
            else:
                stack.append(left)
        elif isinstance(item, Unary):
            if item.op == "neg" and not isinstance(item.child, Binary):
                stack += (item.child, "-")
            else:
                stack += (")", item.child, "-(" if item.op == "neg" else f"{item.op}(")
        else:
            pieces.append(item.name)
    return "".join(pieces)


def _leaf_names(order: "list[Expr]") -> "list[str]":
    # leaves come out of a post-order walk left to right
    return [node.name for node in order if isinstance(node, Var)]


def _tape(e: Expr) -> "tuple[int, tuple[tuple[str, int, int], ...]]":
    """Argument count and operations of ``e``'s tape; cached on the node.

    ``parse`` leaves the tape on the root it returns.  Any other tree is
    folded once by ``parse``'s rule: each variable takes the next slot at
    its first leaf, and each operation is interned as ``parse`` interns
    it.  The slots' names are the variable sequence, cached with the tape
    when ``e`` has none yet.
    """
    tape = e.__dict__.get("_tape")
    if tape is None:
        slots: dict = {}  # name -> slot, in order of first leaf
        keys: dict = {}
        ops: list = []
        _fold(
            e,
            lambda v: slots.setdefault(v.name, len(slots)),
            lambda u, a: _intern((u.op, a, -1), keys, ops),
            lambda b, a, c: _intern((b.op, a, c), keys, ops),
        )
        e.__dict__.setdefault("_varseq", tuple(slots))
        tape = e.__dict__["_tape"] = _absolute(len(slots), ops)
    return tape


def variable_sequence(e: Expr) -> "tuple[str, ...]":
    """Distinct variables of ``e``, ordered by first occurrence (left to
    right, depth first).  Cached on the node it is asked of; ``parse``
    caches it on the root it returns."""
    seq = e.__dict__.get("_varseq")
    if seq is None:
        seq = e.__dict__["_varseq"] = tuple(dict.fromkeys(_leaf_names(_postorder(e))))
    return seq


def depth(e: Expr) -> int:
    """Longest path from the root to a leaf, counting nodes; a leaf is 1."""
    return _fold(e, lambda v: 1, lambda u, child: child + 1, lambda b, lt, rt: 1 + max(lt, rt))


def occurs_once(e: Expr) -> bool:
    """True when no variable appears at more than one leaf."""
    names = _leaf_names(_postorder(e))
    return len(names) == len(set(names))
