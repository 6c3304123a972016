"""Command line behavior: output text, JSON payloads, exit codes."""

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relival import cli, semantics
from relival.cli import main
from relival.interval import parse_interval, subset

from conftest import growth_ratio

JSON_KEYS = ["result", "mode", "widths", "converged", "violations"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any(argv, call=main):
    """(exit code, stdout, stderr) of one call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestEval:
    def test_dependency_gap(self, capsys):
        code, out, err = run(capsys, "eval", "x - x", "--var", "x=[0,1]")
        assert (code, out, err) == (0, "[-1,1]\n", "")

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["relival", "eval", "x - x", "--var", "x=[0,1]"])
        assert main() == 0
        assert capsys.readouterr() == ("[-1,1]\n", "")

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

    def test_json_infinite_width_is_a_string(self, capsys):
        # strict JSON has no Infinity: an infinite width is "inf", as on the widths: line
        argv = ("refine", "x", "--var", "x=[-1e308,1e308]", "--at", "0", "--steps", "1")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 4
        assert _strict_json(out)["widths"] == ["inf", 1e308]
        _, text, _ = run(capsys, *argv)
        assert text.splitlines()[1] == "widths: inf 1e+308"

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

    @pytest.mark.parametrize("at", ["nan", "-nan", "1_0", "1/0", "0/0", "inf inf"])
    def test_bad_target_text_exit_two(self, capsys, at):
        # NaN is no point of any box; "_" grouping and zero denominators are no number text
        code, out, err = run(capsys, "refine", "x", "--var", "x=[0,20]", "--at", at, "--steps", "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: bad --at value")

    def test_target_reads_like_a_bound(self):
        # p/q, signs and ASCII whitespace, as in bounds, rounded to nearest
        assert cli._parse_point("3/10", ("x",), {}, ["x"]) == (0.3,)
        assert cli._parse_point(" -3/10 ,\t1e-400", ("x", "y"), {}, ["x", "y"]) == (-0.3, 0.0)
        argv = ("refine", "x", "--var", "x=[0,1]", "--steps", "60", "--at")
        assert run_any(argv + ("3/10",)) == run_any(argv + ("0.3",))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("refine", "x", "--var", "x=[0,1]", "--at", "1e400"),
             "--at value for x is beyond the float range"),
            (("refine", "x + 1e400", "--var", "x=[0,1]", "--at", "0.5"),
             "constant 1e400 is beyond the float range"),
            (("refine", "x", "--var", "x=[0,inf]", "--at", "inf"),
             "refinement needs a bounded box"),
        ],
    )
    def test_target_past_the_float_range_exit_five(self, capsys, argv, message):
        assert run(capsys, *argv) == (5, "", f"error: {message}\n")

    def test_at_count_mismatch_exit_two(self, capsys):
        code, _, err = run(capsys, "refine", "x + y", "--var", "x=[0,1]",
                           "--var", "y=[0,1]", "--at", "0.5")
        assert code == 2
        assert err == "error: --at needs 2 value(s) for x, y, got 1\n"

    def test_at_count_mismatch_without_variables(self, capsys):
        # an expression without variables once printed "... value(s) for , got 1"
        assert run(capsys, "refine", "1", "--at", "2", "--steps", "1") == (
            2, "", "error: --at needs 0 value(s), got 1\n"
        )


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

    def test_four_variable_example(self, capsys):
        # 4095 boxes; the budget runs out long before tol 1e-3 is met in 4-D
        code, out, err = run(capsys, "enclose", "x*y + y*z - x/(w+z*z)", "--var", "x=[0.1,2]",
                             "--var", "y=[1,3]", "--var", "z=[2,4]", "--var", "w=[1,2]",
                             "--tol", "1e-3", "--json")
        assert (code, err) == (4, "")
        assert out == (
            '{"result": "[2.0324999999999993,17.902083333333334]", "mode": "default", "widths": '
            "[16.294444444444448, 16.294444444444448, 16.294444444444448, 16.051666666666673, "
            "16.051666666666673, 16.051666666666673, 16.051666666666673, 15.930277777777778, "
            "15.930277777777778, 15.930277777777778, 15.930277777777778, 15.869583333333335], "
            '"converged": false, "violations": null}\n'
        )

    def test_json_infinite_width_is_a_string(self, capsys):
        code, out, _ = run(capsys, "enclose", "x", "--var", "x=[-1e308,1e308]",
                           "--tol", "1", "--max-boxes", "1", "--json")
        payload = _strict_json(out)
        assert code == 4
        assert list(payload) == JSON_KEYS
        assert payload["widths"] == ["inf"]


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

    def test_coordinate_wider_than_max_float(self, capsys):
        # x's width overflows, yet every sample is a finite point of x, inside the sound result
        code, out, err = run(capsys, "check", "1 / abs(x)", "--var", "x=[-1e308,1e308]")
        assert (code, err) == (0, "")
        assert out == "result: [9.9999999999999991e-309,inf]\nviolations: 0\n"

    def test_unbounded_variables_exit_five(self, capsys):
        code, _, err = run(capsys, "check", "x", "--var", "x=[-inf,0]")
        assert code == 5
        assert "error:" in err

    @pytest.mark.parametrize("binding", ["x=[1,0]", "x=empty"])
    def test_empty_box_exit_five(self, capsys, binding):
        # an empty box has no points, so sampling it would pass vacuously
        code, out, err = run(capsys, "check", "x", "--var", binding)
        assert (code, out) == (5, "")
        assert err == "error: check needs nonempty variable intervals\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sqrt(x)", "--var", "x=[-2,-1]"],
            ["1/(x-x)", "--var", "x=[0,1]"],
            # defined at x=2 alone, which no sample hits
            ["sqrt(x-2)", "--var", "x=[0,2]"],
            ["x/y", "--var", "x=[1,2]", "--var", "y=[0,0]"],
            # y * z overflows at every sample: its infinity is no value to divide by
            ["x / (y * z)", "--var", "x=[1,2]", "--var", "y=[1e200,1e201]", "--var", "z=[1e200,1e201]"],
            # nor a value to compare
            ["y * z", "--var", "y=[1e200,1e201]", "--var", "z=[1e200,1e201]"],
        ],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_no_defined_sample_exit_five(self, capsys, argv, json_flag):
        # not one sampled point had a value to compare, so zero violations would prove nothing
        code, out, err = run(capsys, "check", *argv, "--samples", "300", *json_flag)
        assert (code, out) == (5, "")
        assert err == "error: the expression is undefined at every sampled point; nothing was checked\n"

    def test_partly_defined_run_passes(self, capsys):
        # three chunks of samples, many undefined (sqrt of a negative, division by zero)
        code, out, err = run(capsys, "check", "sqrt(x) / y", "--var", "x=[-1,1]", "--var", "y=[-1,1]",
                             "--samples", "2500", "--seed", "3")
        assert (code, out, err) == (0, "result: [-inf,inf]\nviolations: 0\n", "")

    def test_box_tape_runs_once(self, capsys):
        # the sampler takes the interval the command prints, rather than evaluating it again
        with mock.patch.object(semantics, "_pair_tape", wraps=semantics._pair_tape) as tape:
            code, out, _ = run(capsys, "check", "x * y", "--var", "x=[0,2]", "--var", "y=[1,3]")
        assert (code, out) == (0, "result: [0,6]\nviolations: 0\n")
        assert tape.call_count == 1


class TestArgumentErrors:
    def test_assemble_in_linear_time_of_the_names(self):
        # unknown bindings are found by set lookups, not by one list search per --var:
        # 12,000 names took 1.2 s with the list; timed at n and 4n names
        def prepare(n):
            text = " + ".join(f"x{k}" for k in range(n))
            flags = [f"x{k}=[0,1]" for k in range(n)]
            return lambda: cli._assemble(text, flags)

        assert growth_ratio(prepare, 3000) < 8

    def test_unknown_bindings_named_in_var_order(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--var", "z=[0,1]", "--var", "x=[0,1]", "--var", "a=[0,1]")
        assert code == 3
        assert err.strip() == "error: binding(s) for unknown variable(s): z, a"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "1e999999999"),
            ("eval", "x", "--var", "x=[0,1e999999999]"),
            ("eval", "x", "--var", "x=[-1e-999999999,0]"),
        ],
    )
    def test_huge_literal_exponent_exit_two(self, capsys, argv):
        # the 4300-digit limit refuses these before 10**999999999 is built
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "4300 digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "x", "--var", "x=[0,1." + "0" * 20_000 + "1]"),
            ("eval", "1." + "0" * 20_000 + "1"),
        ],
    )
    def test_long_literal_is_shortened_in_the_error(self, capsys, argv):
        # the refused literal is echoed as its two ends and its length, not in full
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert len(err) < 200 and "4300 digits" in err and "20003 characters" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "1e99999999999999999999999"),
            ("eval", "x", "--var", "x=[0,1e99999999999999999999999]"),
            ("eval", "x", "--var", "x=[-0e-99999999999999999999999,0]"),
            ("refine", "x", "--var", "x=[0,1]", "--at", "1e-99999999999999999999999"),
        ],
    )
    def test_exponent_past_decimal_range_exit_two(self, capsys, argv):
        # Decimal refuses these exponents; the old reader went on to Fraction, which
        # hung building 10**exponent
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "4300 digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "1e999"),
            ("eval", "1e400"),
            ("eval", "x", "--var", "x=[1e999,1e999]"),
            ("eval", "x", "--var", "x=[1e400,1e400]"),
        ],
    )
    def test_literals_past_the_float_range_still_read(self, capsys, argv):
        assert run(capsys, *argv) == (0, "[1.7976931348623157e+308,inf]\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eval", "x + \u0663", "--var", "x=[0,1]"), "unexpected character '\u0663'"),
            (("eval", "x", "--var", "x=[\u0663,\uff14]"), "not ASCII"),
            (("refine", "x", "--var", "x=[0,9]", "--at", "\u0663"), "bad --at value"),
            (("refine", "x", "--var", "x=[0,1]", "--at", "\u0660.\u0665"), "bad --at value"),
            (("refine", "x", "--var", "x=[0,1]", "--at", "\u30000.5"), "bad --at value"),
        ],
    )
    def test_non_ascii_numbers_exit_two(self, capsys, argv, message):
        # float() and Decimal read the digits of every script; relival reads ASCII only
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize("command", ["eval", "check"])
    @pytest.mark.parametrize("binding", ["x=[1/0,2]", "x=[0/0,1]", "x=[0,2/00]", "x=[1_0,2_0]"])
    def test_bound_text_outside_the_grammar_exit_two(self, capsys, command, binding):
        # a zero denominator once ended in ZeroDivisionError, exit 1 through a traceback
        code, out, err = run(capsys, command, "x", "--var", binding)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: bad interval bound")

    def test_whitespace_outside_ascii_exit_two(self, capsys):
        # U+3000 and \x1c once passed for whitespace: this printed [1,2] with exit 0
        code, out, err = run(capsys, "eval", "x\u3000+\x1c1", "--var", "x=[0,1]\u3000")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot parse expression")
        assert "(at position 1)" in err
        code, out, err = run(capsys, "eval", "x", "--var", "x=[0,1]\u3000")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: bad interval syntax")

    def test_whitespace_outside_ascii_in_var_names_and_at(self, capsys):
        # str.strip() once took U+3000 for whitespace: the first printed [0,1] and the
        # second read a lone U+3000 as no values, each with exit 0
        code, out, err = run(capsys, "eval", "x", "--var", "x　=[0,1]")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        code, out, err = run(capsys, "refine", "1", "--at", "　", "--steps", "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: --at needs 0 value(s)")
        # ASCII whitespace is still stripped
        assert run(capsys, "eval", "x", "--var", " \t x \n=[0,1]") == (0, "[0,1]\n", "")
        assert run(capsys, "refine", "1", "--at", " \t", "--steps", "1")[0] == 0

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


# what each command takes after an n-variable sum's bindings, kept to one step or sample
_SCALED = {
    "eval": lambda n: [],
    "refine": lambda n: ["--at", ",".join(["0.5"] * n), "--steps", "1"],
    "enclose": lambda n: ["--tol", "1", "--max-boxes", "1"],
    "check": lambda n: ["--samples", "1"],
}


class TestManyBindings:
    @pytest.mark.parametrize("command", _SCALED)
    def test_linear_in_the_number_of_bindings(self, command):
        # one --var per variable of an n-variable sum, timed at n and 4n: handed one
        # option per --var, argparse's option loop made every command quadratic
        # (8000 bindings took 1.6 s in eval, on Python 3.11)
        def prepare(n):
            argv = [command, " + ".join(f"x{k}" for k in range(n))]
            for k in range(n):
                argv += ["--var", f"x{k}=[0,1]"]
            argv += _SCALED[command](n)
            return lambda: run_any(argv)

        assert growth_ratio(prepare, 750) < 8


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

    # a passing call of each command, and each option that takes a value
    DOUBLE_DASH_BASES = {
        "eval": ("eval", "x", "--var", "x=[0,1]"),
        "refine": ("refine", "x", "--var", "x=[0,1]", "--at", "0.5"),
        "enclose": ("enclose", "x", "--var", "x=[0,1]", "--tol", "1"),
        "check": ("check", "x", "--var", "x=[0,1]"),
    }
    DOUBLE_DASH_OPTIONS = [
        ("eval", "--var"), ("eval", "--mode"), ("refine", "--at"), ("refine", "--steps"),
        ("refine", "--tol"), ("enclose", "--tol"), ("enclose", "--max-boxes"),
        ("check", "--samples"), ("check", "--seed"),
    ]

    def test_double_dash_cases_cover_every_value_option(self):
        assert {option for _, option in self.DOUBLE_DASH_OPTIONS} == cli._TAKES_VALUE

    @pytest.mark.parametrize("command, option", DOUBLE_DASH_OPTIONS)
    @pytest.mark.parametrize("glued", [False, True], ids=["apart", "glued"])
    def test_double_dash_is_never_a_value(self, command, option, glued):
        # glued as "--tol=--", argparse 3.10-3.12 stored an empty list: a traceback,
        # or for --mode a run in default mode with exit 0
        argv = self.DOUBLE_DASH_BASES[command] + ((f"{option}=--",) if glued else (option, "--"))
        code, out, err = run_any(argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: expected one argument\n")

    def test_double_dash_ends_the_gluing(self):
        split = ["eval", "x", "--tol", "--", "--at", "1"]
        assert cli._read_argv(["eval", "x", "--tol", "--", "--at", "1"])[0] == split
        assert cli._read_argv(["eval", "x", "--tol=--", "--at", "1"])[0] == split
        # only a whole "--" value is split off
        assert cli._read_argv(["--var=x=--", "--at==--"])[0] == ["--var=x=--", "--at==--"]

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
     "nan", "inf", "-inf", "1/0", "0/0", "-3/10", "1_0"]
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
    | st.text(alphabet="[],.-0123456789einfa/_", max_size=12)
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
    if not draw(st.integers(0, 3)):
        # the options ahead of the expression
        argv.append(argv.pop(1))
    if not draw(st.integers(0, 7)):
        # a first token that names no subcommand, which argparse refuses
        argv[0] = draw(st.sampled_from(["frobnicate", "Eval", "", "--", "--json", "--at", "-x"]))
    return argv


class TestArgvFuzz:
    # _argvs can draw these, but seldom as the only flaw of an argv; once a traceback
    @example(["check", "x", "--var", "x=[1/0,2]"])
    @example(["eval", "x * y", "--var=x=[0,1]", "--var", "y=[0/0,1]", "--json"])
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


# -- the option table against the parser it replaced ---------------------------


def _reference_parser():
    """The parser as built before the option table: a ``common`` parent parser and
    four hand-written subparsers, every one filled in on every call."""
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

    add = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p_eval = add("eval", help="evaluate over the bound box")
    p_eval.set_defaults(fn=cli._cmd_eval)

    p_refine = add("refine", help="halve the box toward a point and test convergence")
    p_refine.add_argument("--at", required=True, metavar="v1,v2,...",
                          help="target point, one value per variable in first-use order")
    p_refine.add_argument("--steps", type=int, default=40,
                          help="halving steps, at most 2100 (default 40)")
    p_refine.add_argument("--tol", type=float, default=1e-9,
                          help="final width tolerance (default 1e-9)")
    p_refine.set_defaults(fn=cli._cmd_refine)

    p_enc = add("enclose", help="subdivision enclosure at a tolerance")
    p_enc.add_argument("--tol", type=float, required=True, help="leaf box width tolerance")
    p_enc.add_argument("--max-boxes", type=int, default=4096, dest="max_boxes",
                       help="box budget (default 4096)")
    p_enc.set_defaults(fn=cli._cmd_enclose)

    p_chk = add("check", help="sample points and count inclusion violations")
    p_chk.add_argument("--samples", type=int, default=1000, help="sample count (default 1000)")
    p_chk.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_chk.set_defaults(fn=cli._cmd_check)

    return parser


def _takes_value(parser):
    """The option strings, over every subparser, of the actions that take one value."""
    sub = next(a for a in parser._actions if a.dest == "command")
    return {
        name
        for p in sub.choices.values()
        for action in p._actions
        if action.nargs is None
        for name in action.option_strings
    }


def _reference_args(argv):
    parser = _reference_parser()
    tokens, takes_value = iter(argv), _takes_value(parser)
    glued = []
    for tok in tokens:
        if tok == "--":
            glued += [tok, *tokens]
            break
        if tok in takes_value:
            value = next(tokens, None)
            if value is not None:
                tok = f"{tok}={value}"
        glued.append(tok)
    args = vars(parser.parse_args(glued))
    return args.pop("fn"), args


def _reference_main(argv):
    fn, args = _reference_args(argv)
    try:
        return fn(argparse.Namespace(**args))
    except cli._CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def _table_args(argv):
    return vars(cli._parse_args(argv))


_COMMAND_NAMES = ("eval", "refine", "enclose", "check")

# every --help and -h, argparse's refusals, and calls that run
_BATTERY = [
    (),
    ("--help",),
    ("-h",),
    ("-h", "eval"),
    ("frobnicate", "x"),
    ("Eval", "x"),
    ("--",),
    ("--", "eval", "x", "--var", "x=[0,1]"),
    ("--json",),
    ("--at", "-1,2"),
    *((name, flag) for name in _COMMAND_NAMES for flag in ("--help", "-h")),
    *((name, "x", "--var", "x=[0,1]", "-h") for name in _COMMAND_NAMES),
    *((name,) for name in _COMMAND_NAMES),
    ("eval", "x", "--var", "x=[0,1]"),
    ("eval", "x", "--json", "--var", "x=[0,1]"),
    ("eval", "x", "--var", "x=[0,1]", "--json=1"),
    ("eval", "x", "--var", "x=[0,1]", "--mode", "affine"),
    ("eval", "x", "--var", "x=[0,1]", "--mode=relational", "--mode", "canonical"),
    ("eval", "x", "--var", "x=[0,1]", "--at", "-1,2"),
    ("eval", "x", "--var", "x=[0,1]", "--at=-1,2"),
    ("eval", "-x", "--var", "x=[0,1]"),
    ("eval", "--var", "x=[0,1]", "--", "-x"),
    ("eval", "x", "y", "--var", "x=[0,1]"),
    ("refine", "x", "--var", "x=[0,1]"),
    ("refine", "x", "--var", "x=[0,1]", "--at"),
    ("refine", "x", "--var", "x=[-1,1]", "--a", "0.5"),
    ("refine", "x", "--var", "x=[-1,1]", "--at=0.5", "--ste", "-1_0"),
    ("refine", "x", "--var", "x=[-1,1]", "--at", "-0.5", "--steps", "2", "--tol", "1"),
    ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "--max-boxes", "3"),
    ("enclose", "x", "--var", "x=[0,1]"),
    ("enclose", "x", "--var", "x=[0,1]", "--tol", "big"),
    ("enclose", "x", "--var", "x=[0,1]", "--tol", "1", "--max-box", "3"),
    ("enclose", "x", "--var", "x=[0,1]", "--tol", "1", "--samples", "3"),
    ("enclose", "x - x", "--var", "x=[0,1]", "--tol", "1e-3", "--max-boxes", "64", "--json"),
    ("check", "x", "--var", "x=[0,1]", "--frob"),
    ("check", "x", "--var", "x=[0,1]", "--samples", "many"),
    ("check", "x", "--var", "x=[0,1]", "--tol", "1"),
    ("check", "x*x", "--var", "x=[0,1]", "--samples", "5", "--seed", "-3"),
    # --var bindings in runs, which the named subcommand's parser sees one token of
    ("eval", "--var", "x=[0,1]", "x"),
    ("eval", "--var", "x=[0,1]", "--var=y=[2,3]", "--var", "z=[4,5]", "x + y + z"),
    ("eval", "x + y", "--var", "x=[0,1]", "--json", "--var", "y=[2,3]"),
    ("eval", "x + y", "--var", "y=[2,3]", "--mode", "canonical", "--var=x=[0,1]", "--json"),
    ("eval", "x", "--var="),
    ("eval", "x", "--var", "x=[0,1]", "--var", ""),
    ("eval", "x", "--var", "x=[0,1]", "--"),
    ("eval", "--var", "x=[0,1]", "--var", "y=[2,3]", "--", "x + y"),
    ("eval", "--var", "x=[0,1]", "--", "--var=y=[2,3]"),
    ("eval", "x", "--", "--var", "x=[0,1]"),
    ("--var", "x=[0,1]", "eval", "x"),
    # the option first: no run is cut, so the refusal lists every binding
    ("--var", "x=[0,1]", "--var", "y=[2,3]", "eval", "x + y"),
    ("refine", "--var", "x=[0,1]", "--var", "y=[2,3]", "--at", "0.5,2.5", "--steps", "2", "x*y"),
    # arguments that the named subcommand's parser leaves over, which the full parser refuses
    ("eval", "--var", "x=[0,1]", "--", "x", "y"),
    ("eval", "--var", "x=[0,1]", "--var", "y=[2,3]", "x + y", "extra"),
    ("refine", "x", "--var", "x=[0,1]", "--at", "0.5", "extra"),
    ("enclose", "x", "--var", "x=[0,1]", "--tol", "1", "extra"),
    ("check", "x", "--var", "x=[0,1]", "--seed", "1", "2"),
]

# one call of each subcommand that its own parser reads to the end
_RUNS = {
    "eval": ("eval", "x", "--var", "x=[0,1]"),
    "refine": ("refine", "x", "--var", "x=[-1,1]", "--at", "-0.5", "--steps", "2", "--tol", "1"),
    "enclose": ("enclose", "x - x", "--var", "x=[0,1]", "--tol", "1", "--max-boxes", "64"),
    "check": ("check", "x*x", "--var", "x=[0,1]", "--samples", "5", "--seed", "-3"),
}


class TestParserTable:
    @pytest.mark.parametrize("argv", _BATTERY, ids=" ".join)
    def test_same_as_the_parent_parser(self, monkeypatch, argv):
        # help text wraps at the terminal width, which argparse reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "100")
        assert run_any(argv) == run_any(argv, _reference_main)

    def test_battery_runs_and_refuses(self):
        # the battery reaches the handlers too, not only argparse's refusals
        codes = {run_any(argv)[0] for argv in _BATTERY}
        assert codes == {0, 2, 4}

    def test_takes_value_read_off_the_full_parser(self):
        assert cli._TAKES_VALUE == _takes_value(cli._build_parser())
        assert cli._TAKES_VALUE == _takes_value(_reference_parser())

    @staticmethod
    def _progs_built(monkeypatch, argv):
        """The ``prog`` of every ArgumentParser that one call constructs, and the call's result."""
        built, init = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        result = run_any(argv)
        monkeypatch.undo()
        return built, result

    @pytest.mark.parametrize("name", _COMMAND_NAMES)
    def test_a_named_command_builds_one_parser(self, monkeypatch, name):
        built, (code, out, err) = self._progs_built(monkeypatch, _RUNS[name])
        assert built == [f"relival {name}"]
        assert (code, err) == (0, "") and out

    def test_a_left_over_argument_builds_the_full_parser(self, monkeypatch):
        argv = ("enclose", "x", "--var", "x=[0,1]", "--tol", "1", "extra")
        built, (code, out, err) = self._progs_built(monkeypatch, argv)
        assert built == ["relival enclose", "relival", *(f"relival {n}" for n in _COMMAND_NAMES)]
        assert (code, out) == (2, "")
        assert err.startswith("usage: relival [-h] {eval,refine,enclose,check} ...\n")
        assert err.endswith("relival: error: unrecognized arguments: extra\n")

    def test_one_var_token_per_run(self, monkeypatch):
        # a run of --var bindings reaches argparse as its first token; args.var holds
        # every value in argv order, and nothing after "--" is a binding
        seen, parse_known_args = [], argparse.ArgumentParser.parse_known_args

        def spy(parser, tokens, namespace):
            seen.append(list(tokens))
            return parse_known_args(parser, tokens, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        argv = ["eval", "--var", "z=[4,5]", "--var=x=[0,1]", "--json", "--var", "y=[2,3]",
                "--var", "w=[6,7]", "--var=v=[8,9]", "--", "--var=u"]
        args = cli._parse_args(argv)
        assert seen == [["--var=z=[4,5]", "--json", "--var=y=[2,3]", "--", "--var=u"]]
        assert args.var == ["z=[4,5]", "x=[0,1]", "y=[2,3]", "w=[6,7]", "v=[8,9]"]
        assert args.expression == "--var=u"
        assert vars(args) == _reference_args(argv)[1]

    @given(_argvs())
    def test_parsed_arguments_match_the_parent_parser(self, argv):
        table = run_any(argv, _table_args)
        reference = run_any(argv, lambda a: _reference_args(a)[1])
        # compared as text: "--tol nan" parses to two NaNs, which never compare equal
        assert repr(table) == repr(reference)

    @given(_argvs())
    def test_same_output_as_the_parent_parser(self, argv):
        # as the battery, over the fuzzed argvs: exit code, stdout and stderr
        with mock.patch.dict(os.environ, COLUMNS="100"):
            assert run_any(argv) == run_any(argv, _reference_main)
