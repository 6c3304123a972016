"""Expression language: AST, parser, printer, structural queries.

Grammar (left-associative, usual precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := IDENT | NUMBER | '(' expr ')'
            | ('-' | 'abs' | 'sqrt' | 'sqrtr') factor

Identifiers match ``[a-zA-Z_][a-zA-Z0-9_]*``; ``abs``, ``sqrt`` and
``sqrtr`` are reserved operation words.  Number literals do not appear in
the AST: the parser replaces each with a fresh variable (``_c0``,
``_c1``, ... skipping names already used in the source) and returns a
binding that records the literal's exact value (a literal whose exact
numerator or denominator needs more than 4300 digits is a parse error).
Evaluators then treat constants as degenerate arguments, so the core
semantics only ever deals with variables and operation symbols.

The tokenizer reads each token, with the whitespace before it, in one
regex match, and a parse gives out one shared ``Var`` per name: nodes
are immutable and compare structurally, so sharing a leaf changes no
result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .rounding import _exact_value

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


# equality, hashing and repr come from Expr
@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    """A variable leaf, named as in the source."""

    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Unary(Expr):
    """A unary operation applied to one child."""

    op: str  # "neg", "abs", "sqrt" or "sqrtr"
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Binary(Expr):
    """A binary operation on a left and a right operand."""

    op: str  # "+", "-", "*" or "/"
    left: Expr
    right: Expr


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


# one match per token, whitespace before it included; the match at the end of input
# carries no group.  Without the \Z alternative a trailing run of whitespace would be
# rescanned from each of its positions, in quadratic time.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/()])"
    r"|(?P<bad>\S)"
    r"|\Z)"
)


def _tokenize(source: str):
    """``(kind, text, position)`` per token, ended by the sentinel ``(None, "", len(source))``."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:  # the end of input; finditer may match it twice
            break
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append((None, "", len(source)))
    return tokens


_PREFIX = ("neg",) + UNARY_WORDS
_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}


def parse(source: str) -> "tuple[Expr, list[Binding]]":
    """Parse a source string into an AST plus its constant bindings.

    Bindings are listed in order of literal occurrence; the AST refers to
    them by their fresh variable names.  Leaves are immutable, so one
    ``Var`` per name serves every occurrence of that name in the tree.
    The root's variable sequence is cached as the parse finds it.

    The tokenizer takes each token, with the whitespace before it, in one
    regex match.  The parser is an operator-precedence loop over explicit
    operand and operator stacks, so nesting depth is bounded by memory
    rather than by the interpreter's recursion limit.  The operator stack
    holds ``'('`` markers, pending prefix operations (``neg`` and the
    unary words, which bind tighter than any infix operator) and pending
    infix symbols.
    """
    tokens = _tokenize(source)
    leaves: dict = {}  # name -> its one Var, in order of first occurrence
    used = None  # identifiers of the source, gathered at the first number literal
    bindings: list[Binding] = []
    fresh = 0
    operands: list[Expr] = []
    operators: list[str] = []
    i = 0
    want_operand = True
    # only op tokens have the texts "-", "(", ")" and the infix symbols
    while True:
        kind, text, at = tokens[i]
        i += 1
        if want_operand:
            if text == "-" or text == "(":
                operators.append("neg" if text == "-" else "(")
                continue
            if kind == "ident":
                if text in UNARY_WORDS:
                    operators.append(text)
                    continue
                if tokens[i][1] == "(":  # the sentinel ends the list, so tokens[i] exists
                    raise ParseError(f"unknown operation symbol {text!r}", at)
                leaf = leaves.get(text)
                if leaf is None:
                    leaf = leaves[text] = Var(text)
                operands.append(leaf)
            elif kind == "num":
                if used is None:
                    used = {t for k, t, _ in tokens if k == "ident"}
                while f"_c{fresh}" in used:
                    fresh += 1
                name = f"_c{fresh}"
                fresh += 1
                try:
                    value = _exact_value(text)
                except ValueError as exc:
                    raise ParseError(f"bad number literal: {exc}", at) from None
                bindings.append(Binding(name, text, value))
                leaf = leaves[name] = Var(name)
                operands.append(leaf)
            elif kind is None:
                raise ParseError("unexpected end of input", at)
            else:
                raise ParseError(f"unexpected {text!r}", at)
            if operators and operators[-1] in _PREFIX:
                _apply_prefix(operands, operators)
            want_operand = False
            continue
        if text in _PREC:
            _apply_infix(operands, operators, _PREC[text])
            operators.append(text)
            want_operand = True
            continue
        # anything else closes the innermost open group, or the whole input
        _apply_infix(operands, operators, 0)
        if not operators:
            if kind is None:
                root = operands[0]
                # leaves appear in the tree in source order: its first occurrences
                root.__dict__["_varseq"] = tuple(leaves)
                return root, bindings
            raise ParseError(f"unexpected {text!r} after expression", at)
        if text != ")":
            raise ParseError("expected ')'", at)
        operators.pop()
        if operators and operators[-1] in _PREFIX:
            _apply_prefix(operands, operators)


def _apply_prefix(operands: list, operators: list):
    # a factor just completed: the prefix operations waiting for it apply now
    while operators and operators[-1] in _PREFIX:
        operands.append(Unary(operators.pop(), operands.pop()))


def _apply_infix(operands: list, operators: list, prec: int):
    # left-associative: fold every pending infix symbol binding at least as tightly
    while operators and _PREC.get(operators[-1], -1) >= prec:
        right = operands.pop()
        operands.append(Binary(operators.pop(), operands.pop(), right))


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
    """

    def unary(node, inner):
        if node.op != "neg":
            return f"{node.op}({inner})"
        if isinstance(node.child, Binary):
            return f"-({inner})"
        return f"-{inner}"

    def binary(node, left, right):
        prec = _PREC[node.op]
        if isinstance(node.left, Binary) and _PREC[node.left.op] < prec:
            left = f"({left})"
        if isinstance(node.right, Binary) and _PREC[node.right.op] <= prec:
            right = f"({right})"
        return f"{left} {node.op} {right}"

    return _fold(e, lambda v: v.name, unary, binary)


def _leaf_names(order: "list[Expr]") -> "list[str]":
    # leaves come out of a post-order walk left to right
    return [node.name for node in order if isinstance(node, Var)]


def _variable_sequence(e: Expr, order: "list[Expr]") -> "tuple[str, ...]":
    """``variable_sequence(e)``, read off ``order``, the ``_postorder(e)``
    list, when it is not cached yet."""
    seq = e.__dict__.get("_varseq")
    if seq is None:
        seq = e.__dict__["_varseq"] = tuple(dict.fromkeys(_leaf_names(order)))
    return seq


def variable_sequence(e: Expr) -> "tuple[str, ...]":
    """Distinct variables of ``e``, ordered by first occurrence (left to
    right, depth first).  Cached on the node it is asked of; ``parse``
    caches it on the root it returns."""
    seq = e.__dict__.get("_varseq")
    if seq is None:
        seq = _variable_sequence(e, _postorder(e))
    return seq


def depth(e: Expr) -> int:
    """Longest path from the root to a leaf, counting nodes; a leaf is 1."""
    return _fold(e, lambda v: 1, lambda u, child: child + 1, lambda b, lt, rt: 1 + max(lt, rt))


def occurs_once(e: Expr) -> bool:
    """True when no variable appears at more than one leaf."""
    names = _leaf_names(_postorder(e))
    return len(names) == len(set(names))
