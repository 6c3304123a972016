"""Command line behavior: output text, JSON payloads, exit codes."""

import json

import pytest

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
