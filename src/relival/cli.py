"""Command-line front end.

Four subcommands over the same expression/box plumbing:

* ``eval``    evaluate an expression over bound intervals
* ``refine``  shrink the box toward a point and report convergence
* ``enclose`` subdivision enclosure at a tolerance
* ``check``   sample points and count inclusion violations

The token after a value-taking option is always its value, so
``--at -1,2`` works like ``--at=-1,2``; option names are not
abbreviated.  ``--`` is the one exception: it is never a value and
always ends the options, so ``--tol --`` and ``--tol=--`` are refused
as a ``--tol`` given no value.  An expression that starts with ``-`` is
still read as an option: write it as ``(-x)``, or put it after ``--``
following the options.

Every argument is declared once, in the ``_COMMON`` and ``_COMMANDS``
tables, and both the parser and the set of options that take a value
are read off them.  A call whose first argument names a subcommand
builds and runs that subcommand's parser alone; the full parser, with
all four, is built only for a call that names none or that gives an
argument its subcommand does not take (see ``_parse_args``).  The
subcommand's parser sees one ``--var`` token for each run of them, so
that parsing takes time linear in the number of bindings, and every
``--var`` value reaches ``args.var`` in argv order, as argparse's
append would put it.

``--json`` prints strict JSON: an infinite width is the string
``"inf"``, as in the text output.  ``--at`` values are number text as
bounds are (see ``rounding``), rounded to nearest.

Exit codes: 0 success (refine/enclose: converged; check: no violations),
1 check found violations, 2 expression/literal parse error or a count
or tolerance option out of range (``--steps`` above 2100 included),
3 binding coverage error, 4 did not converge, 5 analysis input
rejected (refinement target, or a box that is unbounded, or empty for
``check``) or a ``check`` with no sampled point where the expression is
defined.
"""

from __future__ import annotations

import argparse
import sys
from math import inf

from .analysis import check_convergence, refine_toward, subdivide_enclosure
from .expr import ParseError, parse, variable_sequence
from .interval import Box, Interval, format_interval, hull_bounds, parse_interval
from .rounding import _WHITESPACE, _exact_value
# sample_inclusion goes unused here: the benchmark tracer patches it in this module's
# namespace, so it must stay bound
from .semantics import _sample, default_interpretation, eval_interval, mode_select, sample_inclusion

__all__ = ["main"]

# halving 2**1025 (the widest float box) down to 2**-1074 takes 2099 steps,
# so no box changes past this many; every kept step holds a Box
_MAX_STEPS = 2100


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _interpretation(mode):
    interp = default_interpretation()
    if mode:
        interp = mode_select(interp, mode)
    return interp


def _parse_expression(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise _CliError(2, f"cannot parse expression: {exc}") from None


def _parse_bindings(var_flags):
    bindings = {}
    for flag in var_flags or ():
        name, sep, text = flag.partition("=")
        name = name.strip(_WHITESPACE)
        if not sep or not name:
            raise _CliError(2, f"--var needs NAME=[lo,hi], got {flag!r}")
        if name in bindings:
            raise _CliError(3, f"variable {name!r} bound more than once")
        try:
            bindings[name] = parse_interval(text)
        except ValueError as exc:
            raise _CliError(2, str(exc)) from None
    return bindings


def _assemble(expr_text: str, var_flags):
    """Parse and bind; returns (expr, names, constants, user names, box)."""
    e, consts = _parse_expression(expr_text)
    bindings = _parse_bindings(var_flags)
    names = variable_sequence(e)
    constants = {b.name: b for b in consts}
    user_names = [n for n in names if n not in constants]
    missing = [n for n in user_names if n not in bindings]
    if missing:
        raise _CliError(3, f"missing binding(s) for: {', '.join(missing)}")
    known = set(user_names)
    extra = [n for n in bindings if n not in known]
    if extra:
        raise _CliError(3, f"binding(s) for unknown variable(s): {', '.join(extra)}")
    dims = []
    for n in names:
        if n in constants:
            v = constants[n].value
            dims.append(hull_bounds(v, v))
        else:
            dims.append(bindings[n])
    return e, names, constants, user_names, Box(tuple(dims))


def _parse_point(at_text: str, names, constants, user_names):
    # an empty --at gives no values, for expressions without variables
    tokens = at_text.split(",") if at_text.strip(_WHITESPACE) else []
    if len(tokens) != len(user_names):
        names_part = f" for {', '.join(user_names)}" if user_names else ""
        raise _CliError(2, f"--at needs {len(user_names)} value(s){names_part}, got {len(tokens)}")
    try:
        # read like bounds and literals, then rounded to nearest with the constants
        values = {n: (f"--at value for {n}", _exact_value(t)) for n, t in zip(user_names, tokens)}
    except ValueError as exc:
        raise _CliError(2, f"bad --at value: {exc}") from None
    values.update((n, (f"constant {b.literal}", b.value)) for n, b in constants.items())
    point = []
    for n in names:
        label, value = values[n]
        try:
            point.append(float(value))
        except OverflowError:
            raise _CliError(5, f"{label} is beyond the float range") from None
    return tuple(point)


def _emit(args, *, result=None, widths=None, converged=None, violations=None, text_lines=()):
    if args.json:
        import json  # only --json needs it; every other run skips its import

        payload = {
            "result": result,
            "mode": args.mode or "default",
            # strict JSON has no Infinity; "inf" is how the text output writes it
            "widths": None if widths is None else ["inf" if w == inf else w for w in widths],
            "converged": converged,
            "violations": violations,
        }
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    e, _, _, _, box = _assemble(args.expression, args.var)
    iv = eval_interval(e, _interpretation(args.mode), box)
    text = format_interval(iv)
    _emit(args, result=text, text_lines=(text,))
    return 0


def _report(args, report, *lines) -> int:
    """Print a refine or enclose report around ``lines``; 0 if it converged, else 4."""
    text = format_interval(report.enclosure)
    lines = (f"enclosure: {text}", *lines, f"converged: {'yes' if report.converged else 'no'}")
    _emit(
        args,
        result=text,
        widths=report.widths,
        converged=report.converged,
        text_lines=lines,
    )
    return 0 if report.converged else 4


def _cmd_refine(args) -> int:
    if not 0 <= args.steps <= _MAX_STEPS:
        raise _CliError(2, f"--steps must be from 0 to {_MAX_STEPS}")
    if not args.tol >= 0:
        raise _CliError(2, "--tol must be a nonnegative number")
    e, names, constants, user_names, box = _assemble(args.expression, args.var)
    interp = _interpretation(args.mode)
    point = _parse_point(args.at, names, constants, user_names)
    try:
        seq = refine_toward(box, point, args.steps)
        report = check_convergence(e, interp, seq, args.tol)
    except ValueError as exc:
        raise _CliError(5, str(exc)) from None
    return _report(args, report, "widths: " + " ".join(f"{w:.17g}" for w in report.widths))


def _cmd_enclose(args) -> int:
    if args.max_boxes < 1:
        raise _CliError(2, "--max-boxes must be at least 1")
    if not args.tol > 0:
        raise _CliError(2, "--tol must be a positive number")
    e, _, _, _, box = _assemble(args.expression, args.var)
    interp = _interpretation(args.mode)
    try:
        report = subdivide_enclosure(e, interp, box, args.tol, args.max_boxes)
    except ValueError as exc:
        raise _CliError(5, str(exc)) from None
    return _report(
        args, report, f"width: {report.widths[-1]:.17g}", f"iterations: {report.iterations}"
    )


def _cmd_check(args) -> int:
    if args.samples < 1:
        # zero samples would check nothing and still report no violations
        raise _CliError(2, "--samples must be at least 1")
    e, _, _, _, box = _assemble(args.expression, args.var)
    interp = _interpretation(args.mode)
    if box.is_empty:
        # an empty box has no points to sample: zero violations would prove nothing
        raise _CliError(5, "check needs nonempty variable intervals")
    if not box.is_bounded:
        raise _CliError(5, "check needs bounded variable intervals")
    result, violations, defined = _sample(e, interp, box, args.samples, args.seed)
    if not defined:
        # no sampled point had a value to compare: zero violations would prove nothing
        raise _CliError(5, "the expression is undefined at every sampled point; nothing was checked")
    text = format_interval(Interval(*result))
    lines = (f"result: {text}", f"violations: {violations}")
    _emit(args, result=text, violations=violations, text_lines=lines)
    return 0 if violations == 0 else 1


# Every argument is declared once, as (name, add_argument keywords).  The four
# subcommands share _COMMON; _COMMANDS maps each name to its help, its handler and
# its own options.
_COMMON = (
    ("expression", dict(
        help="expression text, e.g. 'x*y + sqrt(z)'; write one that starts with "
        "'-' as '(-x)', or after '--' following the options",
    )),
    ("--var", dict(
        action="append",
        metavar="NAME=[lo,hi]",
        help="bind a variable to an interval (repeatable); bounds may be "
        "decimal literals, inf, or -inf, and round outward",
    )),
    ("--mode", dict(
        choices=("relational", "canonical"),
        help="rebind / and sqrt as a family (default: relational division, "
        "image sqrt; sqrtr is always relational)",
    )),
    ("--json", dict(action="store_true", help="emit one JSON object")),
)

_COMMANDS = {
    "eval": ("evaluate over the bound box", _cmd_eval, ()),
    "refine": ("halve the box toward a point and test convergence", _cmd_refine, (
        ("--at", dict(required=True, metavar="v1,v2,...",
                      help="target point, one value per variable in first-use order")),
        ("--steps", dict(type=int, default=40,
                         help=f"halving steps, at most {_MAX_STEPS} (default 40)")),
        ("--tol", dict(type=float, default=1e-9, help="final width tolerance (default 1e-9)")),
    )),
    "enclose": ("subdivision enclosure at a tolerance", _cmd_enclose, (
        ("--tol", dict(type=float, required=True, help="leaf box width tolerance")),
        ("--max-boxes", dict(type=int, default=4096, help="box budget (default 4096)")),
    )),
    "check": ("sample points and count inclusion violations", _cmd_check, (
        ("--samples", dict(type=int, default=1000, help="sample count (default 1000)")),
        ("--seed", dict(type=int, default=0, help="sampling seed (default 0)")),
    )),
}

# the options of any subcommand that take one value: all but the store_true flags
_TAKES_VALUE = frozenset(
    name
    for _, _, options in _COMMANDS.values()
    for name, keywords in _COMMON + options
    if name.startswith("-") and keywords.get("action") != "store_true"
)


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Give ``parser`` the arguments of subcommand ``name``: ``_COMMON``, then its own."""
    for arg, keywords in _COMMON + _COMMANDS[name][2]:
        parser.add_argument(arg, **keywords)


def _build_parser() -> argparse.ArgumentParser:
    """The full ``relival`` parser: the top-level parser and all four subparsers."""
    parser = argparse.ArgumentParser(
        prog="relival",
        description="Interval evaluation of arithmetic expressions with "
        "outward rounding and total relational division and roots.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        # only full option names, which are the names glued to their values
        _add_arguments(sub.add_parser(name, help=help_text, allow_abbrev=False), name)
    return parser


def _join_option_values(argv) -> list:
    """Glue each value-taking option to the token after it, up to ``--``.

    ``["--at", "-1,2"]`` becomes ``["--at=-1,2"]``, which argparse reads
    as a value; left apart, argparse would read a value that starts with
    ``-`` (other than a plain negative number) as an option.  The options
    glued are those of any subcommand that take one value.  No parser
    accepts an abbreviated option name, so the names glued are exactly
    the names accepted.

    ``--`` is never a value: ``--tol --`` is left apart and ``--tol=--``
    is split into ``--tol`` and ``--``, so that argparse refuses the
    option as given no value and reads everything after ``--`` as
    positionals.
    """
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok in _TAKES_VALUE:
            value = next(tokens, None)
            if value == "--":
                out.append(tok)
                tok = value
            elif value is not None:
                tok = f"{tok}={value}"
        elif tok.endswith("=--") and tok[:-3] in _TAKES_VALUE:
            out.append(tok[:-3])
            tok = "--"
        if tok == "--":
            out.append(tok)
            out.extend(tokens)
            break
        out.append(tok)
    return out


def _collapse_var_runs(tokens):
    """``tokens`` with each run of glued ``--var=VALUE`` tokens, up to ``--``,
    cut to its first; and every ``--var`` value before ``--``, in order.

    argparse's option loop takes time quadratic in the number of options
    given, so the parser sees one ``--var`` per run and the caller puts
    all the values in ``args.var``.  A run keeps one token, not none, so
    that argparse reads the positionals and any ``--`` around it as it
    would read the whole run.
    """
    kept, values = [], []
    rest = iter(tokens)
    for tok in rest:
        if tok.startswith("--var="):
            values.append(tok[6:])
            if kept and kept[-1].startswith("--var="):
                continue
        elif tok == "--":
            kept.append(tok)
            kept.extend(rest)
            break
        kept.append(tok)
    return kept, values


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv`` as the full parser would, exiting where it exits.

    The full parser hands everything after a subcommand's name to that
    subcommand's parser, and refuses only what that parser leaves over.
    So when ``argv`` names a subcommand, a parser built as ``add_parser``
    builds it (same ``prog``, same options) parses the rest alone, into a
    namespace that starts with ``command`` as the full parse's does: its
    help, usage lines and errors are the ones the full parse prints.
    That parser gets one ``--var`` token for each run of them (see
    ``_collapse_var_runs``); ``args.var`` then holds every ``--var``
    value in argv order, which is what argparse would have appended.
    The full parser is built only for a call that names no subcommand
    (help, an unknown name, an option first), and for one that leaves an
    argument over, which it refuses under the top-level usage line; it
    gets every token.
    """
    joined = _join_option_values(argv)
    name = joined[0] if joined else None
    if name in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"relival {name}", allow_abbrev=False)
        _add_arguments(parser, name)
        tokens, values = _collapse_var_runs(joined[1:])
        args, extras = parser.parse_known_args(tokens, argparse.Namespace(command=name))
        if not extras:
            if values:
                args.var = values
            return args
    return _build_parser().parse_args(joined)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    _, handler, _ = _COMMANDS[args.command]
    try:
        return handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
