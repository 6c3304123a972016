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
    # options take the --opt=value form so that values such as -inf stay values;
    # counts stay small: a run's cost grows with them, and a huge one never ends
    command = draw(st.sampled_from(["eval", "refine", "enclose", "check"]))
    expression = draw(st.one_of(_shallow, _shallow, _deep, _junk))
    if expression.startswith("-"):
        expression = f"({expression})"
    argv = [command, expression]
    used = [n for n in _NAMES if n in expression]
    if draw(st.integers(0, 3)):
        # mostly one binding per variable, so that runs get past binding checks
        argv += [f"--var={n}={draw(_fitting)}" for n in used]
    else:
        argv += [f"--var={flag}" for flag in draw(_wrong_flags)]
    if draw(st.booleans()):
        argv.append("--mode=" + draw(st.sampled_from(["relational", "canonical"])))
    if draw(st.booleans()):
        argv.append("--json")
    if command == "refine":
        inside = st.sampled_from(["0.5", "1", "0", "2"])
        at = draw(st.lists(inside | _numbers, min_size=len(used), max_size=len(used))
                  | st.lists(inside, min_size=len(used), max_size=len(used))
                  | st.lists(_numbers, max_size=4))
        argv.append("--at=" + ",".join(at))
        argv.append(f"--steps={draw(st.integers(-1, 6))}")
        if draw(st.booleans()):
            argv.append("--tol=" + draw(_tols))
    elif command == "enclose":
        argv.append("--tol=" + draw(_tols))
        argv.append(f"--max-boxes={draw(st.integers(-1, 6))}")
    elif command == "check":
        argv.append(f"--samples={draw(st.integers(-2, 5))}")
        argv.append(f"--seed={draw(st.integers(0, 9))}")
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
