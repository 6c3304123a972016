"""Command line behavior: output text, JSON payloads, exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relival.cli import main
from relival.interval import parse_interval, subset

JSON_KEYS = ["result", "mode", "widths", "converged", "violations"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any(argv):
    """(exit code, stdout, stderr) of one call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_dependency_gap(self, capsys):
        code, out, err = run(capsys, "eval", "x - x", "--var", "x=[0,1]")
        assert (code, out, err) == (0, "[-1,1]\n", "")

    def test_empty_result(self, capsys):
        code, out, _ = run(capsys, "eval", "x / y", "--var", "x=[1,2]", "--var", "y=[0,0]")
        assert code == 0
        assert out == "empty\n"

    def test_relational_root(self, capsys):
        code, out, _ = run(capsys, "eval", "sqrtr(x)", "--var", "x=[4,9]")
        assert (code, out) == (0, "[-3,3]\n")

    def test_mode_changes_the_root(self, capsys):
        _, default_out, _ = run(capsys, "eval", "sqrt(x)", "--var", "x=[4,9]")
        _, rel_out, _ = run(capsys, "eval", "sqrt(x)", "--var", "x=[4,9]",
                            "--mode", "relational")
        assert default_out == "[2,3]\n"
        assert rel_out == "[-3,3]\n"

    def test_canonical_mode_division(self, capsys):
        code, out, _ = run(capsys, "eval", "x / y", "--var", "x=[1,2]",
                           "--var", "y=[-1,1]", "--mode", "canonical")
        assert code == 0
        assert out == "[-inf,inf]\n"

    def test_numeric_literals_become_points(self, capsys):
        code, out, _ = run(capsys, "eval", "x * 2", "--var", "x=[1,3]")
        assert (code, out) == (0, "[2,6]\n")

    def test_output_reparses_to_superset(self, capsys):
        _, out, _ = run(capsys, "eval", "x * y", "--var", "x=[0.1,0.3]", "--var", "y=[-2,7]")
        reparsed = parse_interval(out.strip())
        direct = parse_interval("[0.1,0.3]") * parse_interval("[-2,7]")
        assert subset(direct, reparsed)

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "eval", "x - x", "--var", "x=[0,1]", "--json")
        payload = json.loads(out)
        assert list(payload) == JSON_KEYS
        assert payload["result"] == "[-1,1]"
        assert payload["mode"] == "default"
        assert payload["widths"] is None
        assert payload["violations"] is None
        assert code == 0

    def test_json_reports_selected_mode(self, capsys):
        _, out, _ = run(capsys, "eval", "x", "--var", "x=[0,1]", "--mode", "canonical", "--json")
        assert json.loads(out)["mode"] == "canonical"


class TestRefine:
    ARGS = ("refine", "x*y + y*z", "--var", "x=[0,2]", "--var", "y=[1,3]",
            "--var", "z=[2,4]", "--at", "1,2,3")

    def test_converges(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("enclosure: [")
        assert lines[1].startswith("widths: 16 ")
        assert lines[2] == "converged: yes"
        encl = parse_interval(lines[0].split(": ", 1)[1])
        assert encl.lo <= 8.0 <= encl.hi

    def test_too_few_steps_exit_four(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--steps", "3")
        assert code == 4
        assert out.splitlines()[-1] == "converged: no"

    def test_json_widths_list(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--json")
        payload = json.loads(out)
        assert list(payload) == JSON_KEYS
        assert payload["converged"] is True
        assert payload["widths"][0] == 16.0
        assert len(payload["widths"]) == 41
        assert code == 0

    def test_undefined_target_exit_five(self, capsys):
        code, _, err = run(capsys, "refine", "x / y", "--var", "x=[1,2]",
                           "--var", "y=[-1,1]", "--at", "1.5,0")
        assert code == 5
        assert err.startswith("error:")

    def test_target_outside_box_exit_five(self, capsys):
        code, _, err = run(capsys, "refine", "x", "--var", "x=[0,1]", "--at", "2")
        assert code == 5
        assert "error:" in err

    def test_constant_expression_takes_empty_target(self, capsys):
        code, out, err = run(capsys, "refine", "1 + 2", "--at", "", "--steps", "2")
        assert (code, err) == (0, "")
        assert out.startswith("enclosure: [3,3]\n")

    def test_constant_beyond_float_range_exit_five(self, capsys):
        code, out, err = run(capsys, "refine", "x + 1e999", "--var", "x=[0,1]", "--at", "0.5")
        assert (code, out) == (5, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_at_count_mismatch_exit_two(self, capsys):
        code, _, err = run(capsys, "refine", "x + y", "--var", "x=[0,1]",
                           "--var", "y=[0,1]", "--at", "0.5")
        assert code == 2
        assert "error:" in err


class TestEnclose:
    def test_golden_transcript(self, capsys):
        code, out, err = run(capsys, "enclose", "x - x", "--var", "x=[0,1]", "--tol", "1e-3")
        assert code == 0
        assert err == ""
        assert out == (
            "enclosure: [-0.0009765625,0.0009765625]\n"
            "width: 0.001953125\n"
            "iterations: 2047\n"
            "converged: yes\n"
        )

    def test_budget_runs_out_exit_four(self, capsys):
        code, out, _ = run(capsys, "enclose", "x - x", "--var", "x=[0,1]",
                           "--tol", "1e-3", "--max-boxes", "64")
        assert code == 4
        assert out.splitlines()[-1] == "converged: no"

    def test_tol_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enclose", "x", "--var", "x=[0,1]"])
        assert exc.value.code == 2

    def test_unbounded_box_exit_five(self, capsys):
        code, _, err = run(capsys, "enclose", "x", "--var", "x=[0,inf]", "--tol", "0.5")
        assert code == 5
        assert "error:" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "enclose", "x - x", "--var", "x=[0,1]",
                           "--tol", "1e-3", "--json")
        payload = json.loads(out)
        assert list(payload) == JSON_KEYS
        assert payload["result"] == "[-0.0009765625,0.0009765625]"
        assert payload["converged"] is True
        assert code == 0


class TestCheck:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "check", "x*y + y*z", "--var", "x=[0,2]",
                           "--var", "y=[1,3]", "--var", "z=[2,4]",
                           "--samples", "200", "--seed", "3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "result: [2,18]"
        assert lines[1] == "violations: 0"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "check", "x - x", "--var", "x=[0,1]",
                           "--samples", "50", "--json")
        payload = json.loads(out)
        assert list(payload) == JSON_KEYS
        assert payload["violations"] == 0
        assert payload["widths"] is None
        assert code == 0

    def test_unbounded_variables_exit_five(self, capsys):
        code, _, err = run(capsys, "check", "x", "--var", "x=[-inf,0]")
        assert code == 5
        assert "error:" in err


class TestArgumentErrors:
    def test_expression_syntax_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "x + + y", "--var", "x=[0,1]", "--var", "y=[0,1]")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_operation_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "foo(x)", "--var", "x=[0,1]")
        assert code == 2
        assert "unknown operation" in err

    def test_bad_interval_text_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--var", "x=[2,")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "x*x", "--var", "x=[0,1]", "--samples", "-5"),
            ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--steps", "-1"),
            ("enclose", "x", "--var", "x=[0,1]", "--tol", "0.1", "--max-boxes", "0"),
            # zero samples would check nothing yet report no violations
            ("check", "x*x", "--var", "x=[0,1]", "--samples", "0"),
            ("enclose", "x", "--var", "x=[0,1]", "--tol", "nan"),
            ("enclose", "x", "--var", "x=[0,1]", "--tol", "-1"),
            ("enclose", "x", "--var", "x=[0,1]", "--tol", "0"),
            ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--tol", "nan"),
            ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--tol", "-1"),
            # no box changes past step 2099, and each kept step holds a box
            ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--steps", "2101"),
            ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--steps", "1" + "0" * 23),
        ],
    )
    def test_count_out_of_range_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_bad_var_syntax_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--var", "x[0,1]")
        assert code == 2
        assert "error:" in err

    def test_missing_binding_exit_three(self, capsys):
        code, _, err = run(capsys, "eval", "x + y", "--var", "x=[0,1]")
        assert code == 3
        assert "y" in err

    def test_extra_binding_exit_three(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--var", "x=[0,1]", "--var", "q=[0,1]")
        assert code == 3
        assert "q" in err

    def test_duplicate_binding_exit_three(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--var", "x=[0,1]", "--var", "x=[1,2]")
        assert code == 3
        assert "x" in err

    def test_unknown_mode_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "x", "--var", "x=[0,1]", "--mode", "affine"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestStepsBound:
    def test_largest_step_count_runs(self, capsys):
        code, out, err = run(capsys, "refine", "x", "--var", "x=[0,1]", "--at", "0.5",
                             "--steps", "2100", "--tol", "0")
        assert (code, err) == (0, "")
        assert len(out.splitlines()[1].split()) == 1 + 2101


class TestLeadingDashValues:
    ARGS = ("refine", "x+y", "--var", "x=[-2,1]", "--var", "y=[0,3]")

    def test_at_as_a_separate_token(self, capsys):
        joined = run(capsys, *self.ARGS, "--at=-1,2")
        assert joined[0] == 0
        assert run(capsys, *self.ARGS, "--at", "-1,2") == joined

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("enclose", "x", "--var", "x=[0,1]", "--tol", "-1"), 2,
             "--tol must be a positive number"),
            (("enclose", "x", "--var", "x=[0,1]", "--tol", "-1e-3"), 2,
             "--tol must be a positive number"),
            (("enclose", "x", "--var", "x=[0,1]", "--tol", "-inf"), 2,
             "--tol must be a positive number"),
            (("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--tol", "-1e-3"), 2,
             "--tol must be a nonnegative number"),
            (("enclose", "x", "--var", "x=[0,1]", "--tol", "1", "--max-boxes", "-1_0"), 2,
             "--max-boxes must be at least 1"),
            (("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--steps", "-1_0"), 2,
             "--steps must be from 0 to 2100"),
            (("check", "x", "--var", "x=[0,1]", "--samples", "-1_0"), 2,
             "--samples must be at least 1"),
            (("refine", "x", "--var", "x=[0,1]", "--at", "-inf"), 5,
             "target must lie inside the box"),
            (("eval", "x", "--var", "x=[0,1]", "--var", "-y=[0,1]"), 3,
             "unknown variable(s): -y"),
            (("eval", "x", "--var", "-[0,1]"), 2, "--var needs NAME=[lo,hi]"),
            (("refine", "x", "--var", "x=[0,1]", "--at", "-x"), 2, "bad --at value"),
        ],
    )
    def test_value_reaches_its_check(self, capsys, argv, code, message):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert message in err

    def test_seed_takes_a_separate_value(self, capsys):
        code, out, _ = run(capsys, "check", "x*x", "--var", "x=[0,1]", "--samples", "5",
                           "--seed", "-1_0")
        assert (code, out) == (0, "result: [0,1]\nviolations: 0\n")

    def test_mode_value_is_checked_by_argparse(self):
        code, out, err = run_any(("eval", "x", "--var", "x=[0,1]", "--mode", "-x"))
        assert (code, out) == (2, "")
        assert "invalid choice" in err

    def test_expression_with_a_leading_dash(self, capsys):
        assert run_any(("eval", "-x", "--var", "x=[0,1]"))[0] == 2
        assert run(capsys, "eval", "(-x)", "--var", "x=[0,1]") == (0, "[-1,0]\n", "")
        assert run(capsys, "eval", "--var", "x=[0,1]", "--", "-x") == (0, "[-1,0]\n", "")
        assert run(capsys, "eval", "--var", "x=[0,1]", "--", "--x") == (0, "[0,1]\n", "")

    def test_nothing_glued_after_double_dash(self):
        # "--tol" is the expression here and "1" a second positional, not its value
        code, out, err = run_any(("eval", "--", "--tol", "1"))
        assert (code, out) == (2, "")
        assert "unrecognized arguments: 1" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("refine", "x", "--var", "x=[-1,1]", "--a", "0.5"), "required: --at"),
            (("refine", "x", "--var", "x=[-1,1]", "--a", "-0.5e0"), "required: --at"),
            (("refine", "x", "--var", "x=[-1,1]", "--at=0.5", "--ste", "-1_0"),
             "unrecognized arguments: --ste -1_0"),
        ],
    )
    def test_abbreviated_option_exit_two(self, argv, message):
        # only full names are accepted, and those are the names glued to their values
        code, out, err = run_any(argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_option_without_a_value(self):
        code, out, err = run_any(("refine", "x", "--var", "x=[0,1]", "--at"))
        assert (code, out) == (2, "")
        assert "expected one argument" in err


class TestRepeatedCalls:
    # main() may be called many times in one process; no call may see another's state
    ARGVS = [
        ("eval", "x - x", "--var", "x=[0,1]"),
        ("eval", "x / y", "--var", "x=[1,2]", "--var", "y=[-1,1]", "--json"),
        ("eval", "x / y", "--var", "x=[1,2]", "--var", "y=[0,0]", "--mode", "canonical"),
        ("eval", "sqrt(x)", "--var", "x=[4,9]", "--mode", "relational", "--json"),
        ("eval", "x + y", "--var", "x=[0,1]", "--var", "y=[2,3]"),
        # the same expression with a binding left out: append lists must not leak
        ("eval", "x + y", "--var", "x=[0,1]"),
        ("eval", "x + y"),
        ("refine", "x*y", "--var", "x=[0,2]", "--var", "y=[1,3]", "--at", "1,2"),
        ("refine", "x*y", "--var", "x=[0,2]", "--var", "y=[1,3]", "--at", "1,2", "--steps", "3"),
        ("refine", "x", "--var", "x=[0,1]", "--at", "-1", "--json"),
        ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--steps", "2101"),
        ("enclose", "x - x", "--var", "x=[0,1]", "--tol", "1e-3"),
        ("enclose", "x*x", "--var", "x=[-1,1]", "--tol", "1e-9", "--max-boxes", "8", "--json"),
        ("enclose", "x", "--var", "x=[0,inf]", "--tol", "1"),
        ("enclose", "x", "--var", "x=[0,1]"),
        ("check", "x - x", "--var", "x=[0,1]", "--samples", "50", "--seed", "3"),
        ("check", "x*x", "--var", "x=[0,1]", "--json"),
        ("check", "x", "--var", "x=[0,1]", "--var", "x=[0,1]"),
        ("check", "x +", "--var", "x=[0,1]"),
        ("eval", "x", "--var", "x=[0,1]", "--mode", "affine"),
        ("frobnicate", "x"),
        ("refine", "x+y", "--var", "x=[-2,1]", "--var", "y=[0,3]", "--at", "-1,2"),
    ]

    def test_repeated_calls_agree(self):
        first = [run_any(argv) for argv in self.ARGVS]
        backward = [run_any(argv) for argv in reversed(self.ARGVS)][::-1]
        again = [run_any(argv) for argv in self.ARGVS]
        assert backward == first and again == first
        assert {code for code, _, _ in first} == {0, 2, 3, 4, 5}
        # the left-out binding is reported even right after the call that bound it
        assert first[5][0] == 3 and "y" in first[5][2]
        assert first[6][0] == 3

    @pytest.mark.parametrize("argv", [("--help",), ("enclose", "--help"), ("refine", "-h")])
    def test_help_still_exits_zero(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: relival")
        assert run_any(self.ARGVS[0]) == (0, "[-1,1]\n", "")


# -- argv fuzzer ---------------------------------------------------------------

_NAMES = ("x", "y", "z")
_numbers = st.sampled_from(
    ["0", "-0", "1", "-1", "0.5", "1e308", "-1e308", "1e999", "5e-324", "1e-400",
     "nan", "inf", "-inf"]
) | st.floats().map(repr)
_leaves = st.sampled_from(_NAMES + ("0", "2", "0.5", "1e308", "1e999", "3e-320"))
_shallow = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds("{}({})".format, st.sampled_from(["-", "abs", "sqrt", "sqrtr"]), sub),
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*/"), sub),
    ),
    max_leaves=10,
)
# past the interpreter's recursion limit; the tape walks them without recursing
_deep = st.builds(
    lambda n, wrap, leaf: wrap * n + leaf + ")" * n,
    st.integers(1000, 2500),
    st.sampled_from(["(", "-(", "abs(", "sqrt(-", "sqrtr("]),
    _leaves,
) | st.builds(
    lambda n, op: f" {op} ".join(_NAMES * n), st.integers(300, 800), st.sampled_from("+-*/")
)
_tols = st.sampled_from(["1e-3", "0.5", "10", "inf"]) | _numbers
_junk = st.text(alphabet="xyz0123456789.e+-*/() absqrt,[]", max_size=16)
_intervals = (
    st.builds("[{},{}]".format, _numbers, _numbers)
    | st.sampled_from(["empty", "[1,", "[]", "[1,2,3]", "1,2", "[a,b]", ""])
    | st.text(alphabet="[],.-0123456789einfa", max_size=12)
)
_fitting = st.sampled_from(
    ["[0,1]", "[-1,2]", "[0.5,0.5]", "[1,4]", "[-0,0]", "[1e-300,1e300]", "[-1e308,1e308]",
     "[0,inf]", "[-inf,inf]", "[1,1e999]", "empty"]
) | _intervals
_wrong_flags = st.lists(
    st.builds("{}={}".format, st.sampled_from(_NAMES + ("q",)), _intervals)
    | st.sampled_from(["x", "=[0,1]", "x[0,1]"]),
    max_size=4,
)


@st.composite
def _argvs(draw):
    # options take either form, "--opt=value" or "--opt value"; counts stay small,
    # since a run's cost grows with them, apart from --steps past its bound
    def opt(name, value):
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    command = draw(st.sampled_from(["eval", "refine", "enclose", "check"]))
    expression = draw(st.one_of(_shallow, _shallow, _deep, _junk))
    if expression.startswith("-"):
        expression = f"({expression})"
    argv = [command, expression]
    used = [n for n in _NAMES if n in expression]
    if draw(st.integers(0, 3)):
        # mostly one binding per variable, so that runs get past binding checks
        for n in used:
            argv += opt("--var", f"{n}={draw(_fitting)}")
    else:
        for flag in draw(_wrong_flags):
            argv += opt("--var", flag)
    if draw(st.booleans()):
        argv += opt("--mode", draw(st.sampled_from(["relational", "canonical"])))
    if draw(st.booleans()):
        argv.append("--json")
    if command == "refine":
        inside = st.sampled_from(["0.5", "1", "0", "2"])
        at = draw(st.lists(inside | _numbers, min_size=len(used), max_size=len(used))
                  | st.lists(inside, min_size=len(used), max_size=len(used))
                  | st.lists(_numbers, max_size=4))
        argv += opt("--at", ",".join(at))
        argv += opt("--steps", str(draw(st.integers(-1, 6) | st.sampled_from([2101, 10**23]))))
        if draw(st.booleans()):
            argv += opt("--tol", draw(_tols))
    elif command == "enclose":
        argv += opt("--tol", draw(_tols))
        argv += opt("--max-boxes", str(draw(st.integers(-1, 6))))
    elif command == "check":
        argv += opt("--samples", str(draw(st.integers(-2, 5))))
        argv += opt("--seed", str(draw(st.integers(-9, 9))))
    return argv


class TestArgvFuzz:
    @given(_argvs())
    def test_exit_code_and_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
                usage_error = False
            except SystemExit as exc:
                code, usage_error = exc.code, True
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        if usage_error:
            # argparse refused the argv: usage text and its own error line
            assert code == 2 and out == ""
            assert "error:" in err
        elif code in (2, 3, 5):
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")
        else:
            assert code in (0, 1, 4)
            assert err == "" and out
