"""The README's Python examples give the values its comments show."""

import ast
import pathlib
import re

from relival import Interpretation, default_interpretation, eval_real, parse

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_examples_and_partiality():
    text = README.read_text(encoding="utf-8")
    # each expression statement of a python block against the first word of its comment
    namespace: dict = {}
    shown = []
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            code = ast.get_source_segment(block, stmt)
            if isinstance(stmt, ast.Expr):
                comment = lines[stmt.end_lineno - 1].partition("#")[2].split()
                shown.append((code, repr(eval(code, namespace)), comment[0]))
            else:
                exec(code, namespace)
    assert [code for code, _, _ in shown] == [
        "eval_interval(e, interp, box)",
        "eval_real(e, interp, (1.0, 2.0, 3.0))",
        "Interval(1, 2) / Interval(-1, 1)",
        "Interval(2, 1)",
        'Interval("0.1", "0.1")',
    ]
    assert [got for _, got, _ in shown] == [want for _, _, want in shown]

    prose = " ".join(text.split())
    assert "`sqrt(-abs(x))` is `Undefined` for every nonzero x and `Defined(0.0)` at zero" in prose
    interp = default_interpretation()
    e, _ = parse("sqrt(-abs(x))")
    assert [repr(eval_real(e, interp, (v,))) for v in (-2.0, -5e-324, 0.0, -0.0, 3.0)] == [
        "Undefined", "Undefined", "Defined(0.0)", "Defined(0.0)", "Undefined",
    ]
    assert "A value past the float range is `Undefined` too, such as the int `10**400`" in prose
    huge = Interpretation({**interp.real_ops, "abs": lambda a: 10**400}, interp.interval_ops)
    assert repr(eval_real(parse("abs(x)")[0], huge, (1.0,))) == "Undefined"
