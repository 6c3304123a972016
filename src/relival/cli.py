"""Command-line front end.

Four subcommands over the same expression/box plumbing:

* ``eval``    evaluate an expression over bound intervals
* ``refine``  shrink the box toward a point and report convergence
* ``enclose`` subdivision enclosure at a tolerance
* ``check``   sample points and count inclusion violations

The token after a value-taking option is always its value, so
``--at -1,2`` works like ``--at=-1,2``; option names are not
abbreviated.  An expression that starts with ``-`` is still read as an
option: write it as ``(-x)``, or put it after ``--`` following the
options.

Exit codes: 0 success (refine/enclose: converged; check: no violations),
1 check found violations, 2 expression/literal parse error or a count
or tolerance option out of range (``--steps`` above 2100 included),
3 binding coverage error, 4 did not converge, 5 analysis input
rejected (refinement target, or a box that is unbounded, or empty for
``check``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import check_convergence, refine_toward, subdivide_enclosure
from .expr import ParseError, parse, variable_sequence
from .interval import Box, format_interval, hull_bounds, parse_interval
from .semantics import default_interpretation, eval_interval, mode_select
from .oracle import sample_inclusion

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
        name = name.strip()
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
    extra = [n for n in bindings if n not in user_names]
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
    tokens = [t.strip() for t in at_text.split(",")] if at_text.strip() else []
    if len(tokens) != len(user_names):
        raise _CliError(
            2,
            f"--at needs {len(user_names)} value(s) for {', '.join(user_names)}, "
            f"got {len(tokens)}",
        )
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise _CliError(2, f"bad --at value: {exc}") from None
    by_name = dict(zip(user_names, values))
    point = []
    for n in names:
        if n in constants:
            try:
                point.append(float(constants[n].value))
            except OverflowError:
                literal = constants[n].literal
                raise _CliError(5, f"constant {literal} is beyond the float range") from None
        else:
            point.append(by_name[n])
    return tuple(point)


def _emit(args, *, result=None, widths=None, converged=None, violations=None, text_lines=()):
    if args.json:
        payload = {
            "result": result,
            "mode": args.mode or "default",
            "widths": widths,
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
        widths=list(report.widths),
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
    iv = eval_interval(e, interp, box)
    violations = sample_inclusion(e, interp, box, samples=args.samples, seed=args.seed)
    text = format_interval(iv)
    lines = (f"result: {text}", f"violations: {violations}")
    _emit(args, result=text, violations=violations, text_lines=lines)
    return 0 if violations == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relival",
        description="Interval evaluation of arithmetic expressions with "
        "outward rounding and total relational division and roots.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "expression",
        help="expression text, e.g. 'x*y + sqrt(z)'; write one that starts with "
        "'-' as '(-x)', or after '--' following the options",
    )
    common.add_argument(
        "--var",
        action="append",
        metavar="NAME=[lo,hi]",
        help="bind a variable to an interval (repeatable); bounds may be "
        "decimal literals, inf, or -inf, and round outward",
    )
    common.add_argument(
        "--mode",
        choices=("relational", "canonical"),
        help="rebind / and sqrt as a family (default: relational division, "
        "image sqrt; sqrtr is always relational)",
    )
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    # every parser takes only full option names, which are the names glued to values
    add = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p_eval = add("eval", help="evaluate over the bound box")
    p_eval.set_defaults(fn=_cmd_eval)

    p_refine = add("refine", help="halve the box toward a point and test convergence")
    p_refine.add_argument("--at", required=True, metavar="v1,v2,...",
                          help="target point, one value per variable in first-use order")
    p_refine.add_argument("--steps", type=int, default=40,
                          help=f"halving steps, at most {_MAX_STEPS} (default 40)")
    p_refine.add_argument("--tol", type=float, default=1e-9,
                          help="final width tolerance (default 1e-9)")
    p_refine.set_defaults(fn=_cmd_refine)

    p_enc = add("enclose", help="subdivision enclosure at a tolerance")
    p_enc.add_argument("--tol", type=float, required=True, help="leaf box width tolerance")
    p_enc.add_argument("--max-boxes", type=int, default=4096, dest="max_boxes",
                       help="box budget (default 4096)")
    p_enc.set_defaults(fn=_cmd_enclose)

    p_chk = add("check", help="sample points and count inclusion violations")
    p_chk.add_argument("--samples", type=int, default=1000, help="sample count (default 1000)")
    p_chk.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_chk.set_defaults(fn=_cmd_check)

    return parser


def _join_option_values(argv, parser) -> list:
    """Glue each value-taking option to the token after it, up to ``--``.

    ``["--at", "-1,2"]`` becomes ``["--at=-1,2"]``, which argparse reads
    as a value; left apart, argparse would read a value that starts with
    ``-`` (other than a plain negative number) as an option.  The options
    glued are those of ``parser``'s subcommands that take one value.  No
    parser accepts an abbreviated option name, so the names glued are
    exactly the names accepted.
    """
    sub = next(a for a in parser._actions if a.dest == "command")
    takes_value = {
        name
        for p in sub.choices.values()
        for action in p._actions
        if action.nargs is None
        for name in action.option_strings
    }
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            out.append(tok)
            out.extend(tokens)
            break
        if tok in takes_value:
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_join_option_values(argv, parser))
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
