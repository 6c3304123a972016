"""Standing mutation gate: each listed mutant must be killed by its tests.

A mutant is one exact text replacement in a file of the package, named
together with the tests that must fail once it is made.  The gate copies
``src/`` to a temporary directory for each mutant, never touching the
checkout, makes the replacement there and runs the named tests against
the copy (``pytest -x``, with the copy first on ``PYTHONPATH``) under a
time limit.  Before any mutant it runs every named test against an
unchanged copy: they must all pass, so a failure under a mutant is the
mutant's doing.  It prints one line per mutant and exits 1 when a mutant
survives, when a replacement does not match its file exactly once, or
when a named test cannot be collected.  A mutant marked equivalent
changes no behaviour, so it is only matched, not run; its reason says
why.  Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; a hang under a mutant counts as a kill


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/relival
    old: str  # must occur exactly once
    new: str
    tests: tuple = ()  # pytest node IDs, relative to the repository root
    equivalent: str = ""  # why the replacement changes no behaviour


MUTANTS = [
    # rules that decide an edge case for every caller
    Mutant(
        "add_up clamps an infinite operand",
        "rounding.py",
        "        return s\n    return nextafter(s, inf)",
        "        return math.copysign(MAX_FLOAT, s)\n    return nextafter(s, inf)",
        tests=(
            "tests/test_rounding.py::TestAddSub::test_infinite_operands_pass_through",
            "tests/test_interval.py::TestWidthMidpoint::test_width_cases",
        ),
    ),
    Mutant(
        "format_interval prints 16 digits",
        "interval.py",
        'f"[{x.lo:.17g},{x.hi:.17g}]"',
        'f"[{x.lo:.16g},{x.hi:.16g}]"',
        tests=(
            "tests/test_interval.py::TestTextSyntax::test_seventeen_digits",
        ),
    ),
    Mutant(
        "_nearest calls an overflow exact",
        "rounding.py",
        "return (math.inf, -math.inf) if q > 0 else (-math.inf, math.inf)",
        "return (math.inf, 0) if q > 0 else (-math.inf, 0)",
        tests=(
            "tests/test_rounding.py::TestMul::test_overflow_from_finite_operands",
            "tests/test_rounding.py::TestDiv::test_overflow_quotient",
            "tests/test_rounding.py::TestRoundValue::test_overflow_saturates_inward_on_the_down_side",
        ),
    ),
    Mutant(
        "root residual of the wrong sign",
        "rounding.py",
        "return r, Fraction(a) - Fraction(r) ** 2",
        "return r, Fraction(r) ** 2 - Fraction(a)",
        tests=(
            "tests/test_rounding.py::TestSqrt::test_sqrt_brackets_exact_root",
            "tests/test_rounding.py::TestFastPathAgainstFractions::test_sqrt_on_edges",
        ),
    ),
    Mutant(
        "the point runner takes an infinity for a value",
        "semantics.py",
        "if v is None or not _LOWEST <= v <= MAX_FLOAT:",
        "if v is None:",
        tests=(
            "tests/test_semantics.py::TestEvalReal::test_overflow_is_undefined",
            "tests/test_semantics.py::TestEvalReal::test_user_op_non_finite_value_is_undefined",
            "tests/test_analysis.py::TestCheckConvergence::test_an_infinite_point_value_is_refused",
        ),
    ),
    Mutant(
        "the point runner computes on an infinite argument",
        "semantics.py",
        "        for v in s:\n            if not _LOWEST <= v <= MAX_FLOAT:\n                return None\n",
        "",
        tests=(
            "tests/test_semantics.py::TestColumnRunner::test_edge_values",
        ),
    ),
    Mutant(
        "the point runner's old infinity test lets 10**400 through",
        "semantics.py",
        "if v is None or not _LOWEST <= v <= MAX_FLOAT:",
        "if v is None or not -inf < v < inf:",
        tests=(
            "tests/test_semantics.py::TestEvalReal::test_user_op_value_past_the_float_range_is_undefined",
            "tests/test_semantics.py::TestColumnRunner::test_divisor_past_the_float_range_is_undefined",
        ),
    ),
    Mutant(
        "the per-sample adapter keeps a value past the float range",
        "semantics.py",
        "out.append(v if v is not None and _LOWEST <= v <= MAX_FLOAT else nan)",
        "out.append(nan if v is None else v)",
        tests=(
            "tests/test_oracle.py::TestSampleInclusion::test_values_past_the_float_range_are_not_violations",
        ),
    ),
    Mutant(
        "member back on math.isfinite",
        "interval.py",
        "return _NINF < value < _INF and x.lo",
        "return math.isfinite(value) and x.lo",
        tests=(
            "tests/test_interval.py::TestPredicates::test_member_number_past_the_float_range",
        ),
    ),
    Mutant(
        "real / without its zero test",
        "semantics.py",
        '"/": lambda a, b: a / b if b != 0.0 else None,',
        '"/": lambda a, b: a / b,',
        tests=(
            "tests/test_semantics.py::TestEvalReal::test_division_by_zero_undefined",
        ),
    ),
    Mutant(
        "product of a NaN reaches Fraction",
        "rounding.py",
        '    if a != a or b != b:  # NaN; the range test above is false on it\n'
        '        raise ValueError("product of NaN operands")\n',
        "",
        tests=(
            "tests/test_rounding.py::TestMul::test_nan_operands_rejected",
        ),
    ),
    Mutant(
        "quotient of a NaN reaches Fraction",
        "rounding.py",
        '    if a != a or b != b:  # NaN; the range test above is false on it\n'
        '        raise ValueError("quotient of NaN operands")\n',
        "",
        tests=(
            "tests/test_rounding.py::TestDiv::test_nan_operands_rejected",
        ),
    ),
    Mutant(
        "root of inf reaches Fraction",
        "rounding.py",
        "    if a == math.inf:\n        return r, 0\n",
        "",
        tests=(
            "tests/test_rounding.py::TestSqrt::test_infinity_passes_through",
        ),
    ),
    Mutant(
        "Interval keeps a -0.0 upper bound",
        "interval.py",
        'if hi == 0.0:\n                object.__setattr__(self, "hi", 0.0)',
        'if hi == 0.0:\n                object.__setattr__(self, "hi", hi)',
        tests=(
            "tests/test_interval.py::TestConstructorDifferential::test_float_bounds",
        ),
    ),
    Mutant(
        "to_source parenthesizes a left operand of equal precedence",
        "expr.py",
        "if isinstance(left, Binary) and _PREC[left.op] < prec:",
        "if isinstance(left, Binary) and _PREC[left.op] <= prec:",
        tests=(
            "tests/test_expr.py::TestPrinter::test_deep_trees_in_linear_time",
            "tests/test_deep.py::test_parses_prints_and_queries",
        ),
    ),
    Mutant(
        "Interval keeps a -0.0 lower bound",
        "interval.py",
        'if lo == 0.0:\n                object.__setattr__(self, "lo", 0.0)',
        'if lo == 0.0:\n                object.__setattr__(self, "lo", lo)',
        tests=(
            "tests/test_interval.py::TestConstruction::test_negative_zero_normalized",
        ),
    ),
    Mutant(
        "to_source drops right-operand parentheses at equal precedence",
        "expr.py",
        "if isinstance(right, Binary) and _PREC[right.op] <= prec:",
        "if isinstance(right, Binary) and _PREC[right.op] < prec:",
        tests=(
            "tests/test_expr.py::TestPrinter::test_parens_kept_where_needed",
            "tests/test_expr.py::TestRoundTrip::test_fixed_examples",
        ),
    ),
    Mutant(
        "product refuses NaN after the zero branch",
        "rounding.py",
        '    if a != a or b != b:  # NaN; the range test above is false on it\n'
        '        raise ValueError("product of NaN operands")\n'
        "    if a == 0.0 or b == 0.0:\n        return 0.0, 0\n",
        "    if a == 0.0 or b == 0.0:\n        return 0.0, 0\n"
        '    if a != a or b != b:  # NaN; the range test above is false on it\n'
        '        raise ValueError("product of NaN operands")\n',
        tests=(
            "tests/test_rounding.py::TestMul::test_nan_operands_rejected",
        ),
    ),
    Mutant(
        "quotient refuses NaN after the zero branch",
        "rounding.py",
        '    if a != a or b != b:  # NaN; the range test above is false on it\n'
        '        raise ValueError("quotient of NaN operands")\n'
        "    if b == 0.0 or (math.isinf(a) and math.isinf(b)):\n"
        '        raise ValueError("quotient is not defined for these bounds")\n'
        "    if math.isinf(b):\n        return 0.0, 0\n"
        "    if math.isinf(a):  # b is finite and nonzero here, so IEEE gives the sign\n"
        "        return a / b, 0\n"
        "    if a == 0.0:\n        return 0.0, 0\n",
        "    if b == 0.0 or (math.isinf(a) and math.isinf(b)):\n"
        '        raise ValueError("quotient is not defined for these bounds")\n'
        "    if math.isinf(b):\n        return 0.0, 0\n"
        "    if math.isinf(a):  # b is finite and nonzero here, so IEEE gives the sign\n"
        "        return a / b, 0\n"
        "    if a == 0.0:\n        return 0.0, 0\n"
        '    if a != a or b != b:  # NaN; the range test above is false on it\n'
        '        raise ValueError("quotient of NaN operands")\n',
        tests=(
            "tests/test_rounding.py::TestDiv::test_nan_operands_rejected",
        ),
    ),
    # subdivision over (lo, hi) pairs
    Mutant(
        "widest-coordinate ties go to the highest index",
        "analysis.py",
        "if dw > w:",
        "if dw >= w:",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_ties_split_the_lowest_index",
        ),
    ),
    Mutant(
        "pair width without the lo < hi test",
        "interval.py",
        "sub_up(hi, lo) if lo < hi else 0.0",
        "sub_up(hi, lo)",
        tests=(
            "tests/test_interval.py::TestWidthMidpoint::test_width_cases",
            "tests/test_analysis.py::TestSubdivide::test_empty_leaves",
            "tests/test_analysis.py::TestCheckConvergence::test_signed_zero_point_has_width_zero",
        ),
    ),
    Mutant(
        "pair width of a signed-zero point",
        "interval.py",
        "sub_up(hi, lo) if lo < hi else 0.0",
        "sub_up(hi, lo) if lo <= hi else 0.0",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_signed_zero_point_has_width_zero",
            "tests/test_analysis.py::TestCheckConvergence::test_signed_zero_point_has_width_zero",
        ),
    ),
    Mutant(
        "the level width read from the settled hull only",
        "analysis.py",
        "widths_trace.append(_pair_width(lo, hi))",
        "widths_trace.append(_pair_width(settled_lo, settled_hi))",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_ties_split_the_lowest_index",
            "tests/test_analysis.py::TestSubdivide::test_report_shape",
        ),
    ),
    Mutant(
        "budget one box short",
        "analysis.py",
        "created + 2 <= max_boxes",
        "created + 2 < max_boxes",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_ties_split_the_lowest_index",
            "tests/test_analysis.py::TestSubdivide::test_interval_constructions_do_not_grow_with_the_budget",
        ),
    ),
    Mutant(
        "bisect swaps its halves",
        "analysis.py",
        "return Box(head + (Interval(iv.lo, m),) + tail), Box(head + (Interval(m, iv.hi),) + tail)",
        "return Box(head + (Interval(m, iv.hi),) + tail), Box(head + (Interval(iv.lo, m),) + tail)",
        tests=(
            "tests/test_analysis.py::TestBisect::test_splits_through_the_shared_split",
        ),
    ),
    # subdivision re-runs only the operations that read the split coordinate
    Mutant(
        "a coordinate's operations are only those reading it directly",
        "analysis.py",
        "masks[a] if b < 0 else masks[a] | masks[b]",
        "(masks[a] if a < n else 0) | (masks[b] if 0 <= b < n else 0)",
        tests=(
            "tests/test_cli.py::TestEnclose::test_four_variable_example",
            "tests/test_analysis.py::TestSubdivideDifferential::test_matches_the_previous_loop",
        ),
    ),
    Mutant(
        "a child keeps its parent's pair in the split coordinate's slot",
        "analysis.py",
        "                        c[i] = half\n",
        "",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_ties_split_the_lowest_index",
            "tests/test_analysis.py::TestSubdivideDifferential::test_matches_the_previous_loop",
        ),
    ),
    Mutant(
        "a child re-runs its operations in reverse order",
        "analysis.py",
        "for j, f, x, y in rerun:",
        "for j, f, x, y in reversed(rerun):",
        tests=(
            "tests/test_cli.py::TestEnclose::test_four_variable_example",
            "tests/test_analysis.py::TestSubdivideDifferential::test_matches_the_previous_loop",
        ),
    ),
    Mutant(
        "a child re-runs every operation",
        "analysis.py",
        "masks[a] if b < 0 else masks[a] | masks[b]",
        "(1 << n) - 1",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_a_child_reruns_only_what_reads_its_split_coordinate",
        ),
    ),
    Mutant(
        "the re-run filter tests the next coordinate's bit",
        "analysis.py",
        "if masks[j] >> i & 1",
        "if masks[j] >> i & 2",
        tests=(
            "tests/test_cli.py::TestEnclose::test_four_variable_example",
            "tests/test_analysis.py::TestSubdivideDifferential::test_matches_the_previous_loop",
        ),
    ),
    Mutant(
        "the first child shares its parent's list without a copy",
        "analysis.py",
        "(b.copy(), (dlo, m))",
        "(b, (dlo, m))",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_ties_split_the_lowest_index",
            "tests/test_analysis.py::TestSubdivideDifferential::test_matches_the_previous_loop",
        ),
    ),
    Mutant(
        "the second child copies its parent's list as well",
        "analysis.py",
        "(b, (m, dhi))",
        "(b.copy(), (m, dhi))",
        tests=(
            "tests/test_analysis.py::TestSubdivide::test_the_second_child_takes_over_its_parents_list",
        ),
    ),
    # refinement: one constructor proves every sequence
    Mutant(
        "the nesting test strict on a lower bound",
        "analysis.py",
        "if o.lo > i.lo or i.hi > o.hi:",
        "if o.lo >= i.lo or i.hi > o.hi:",
        tests=(
            "tests/test_analysis.py::TestRefineToward::test_clamps_at_the_boundary",
        ),
    ),
    Mutant(
        "the sequence's containment read off its first box",
        "analysis.py",
        "and boxes[-1].contains(target)):",
        "and boxes[0].contains(target)):",
        tests=(
            "tests/test_analysis.py::TestRefinementSequence::test_target_must_be_inside_every_box",
        ),
    ),
    Mutant(
        "a refused sequence reports the nesting before the target",
        "analysis.py",
        "            for b in boxes:\n                if not b.contains(target):",
        "            if not _nested(boxes, len(target)):\n"
        '                raise ValueError("boxes must be nested, each inside the last")\n'
        "            for b in boxes:\n                if not b.contains(target):",
        tests=(
            "tests/test_analysis.py::TestRefinementSequence::test_a_lost_target_is_named_before_the_nesting",
        ),
    ),
    Mutant(
        "no arity test on a sequence's inner boxes",
        "analysis.py",
        "        inner = b.dims\n        if len(inner) != arity:\n            return False\n",
        "        inner = b.dims\n",
        tests=(
            "tests/test_analysis.py::TestSequenceConstructorDifferential::test_same_verdicts_as_the_box_walk",
        ),
    ),
    Mutant(
        "the refinement target converted without the range check",
        "analysis.py",
        "    t = _point(target)\n",
        "    t = tuple(float(v) for v in target)\n",
        tests=(
            "tests/test_analysis.py::TestRefineToward::test_target_past_the_float_range_is_refused",
        ),
    ),
    Mutant(
        "convergence widths without the lo < hi test",
        "analysis.py",
        "widths = tuple(_pair_width(lo, hi) for lo, hi in results)",
        "widths = tuple(sub_up(hi, lo) for lo, hi in results)",
        tests=(
            "tests/test_analysis.py::TestCheckConvergence::test_signed_zero_point_has_width_zero",
        ),
    ),
    Mutant(
        "convergence nesting with the bounds swapped",
        "analysis.py",
        "all(alo <= blo and bhi <= ahi for",
        "all(blo <= alo and ahi <= bhi for",
        tests=(
            "tests/test_analysis.py::TestCheckConvergence::test_polynomial_converges_to_point_value",
            "tests/test_analysis.py::TestCheckConvergenceDifferential::test_matches_the_previous_path",
        ),
    ),
    Mutant(
        "_midpoint without its clamp",
        "interval.py",
        "    if m < lo:\n        return lo\n    if m > hi:\n        return hi\n",
        "",
        tests=(
            "tests/test_interval.py::TestWidthMidpoint::test_midpoint_cases",
        ),
    ),
    # tokenizer, parser and tape
    Mutant(
        "token pattern without the end-of-input alternative",
        "expr.py",
        '|\\S|\\Z)", re.ASCII)',
        '|\\S)|\\Z", re.ASCII)',
        tests=(
            "tests/test_expr.py::TestParseErrors::test_long_whitespace_in_linear_time",
        ),
    ),
    Mutant(
        "token pattern skips whitespace outside ASCII",
        "expr.py",
        '|\\S|\\Z)", re.ASCII)',
        '|\\S|\\Z)")',
        tests=(
            "tests/test_expr.py::TestParseErrors::test_whitespace_outside_ascii_rejected",
            "tests/test_cli.py::TestArgumentErrors::test_whitespace_outside_ascii_exit_two",
        ),
    ),
    Mutant(
        "interval text stripped of whitespace outside ASCII",
        "interval.py",
        "s = text.strip(_WHITESPACE)",
        "s = text.strip()",
        tests=(
            "tests/test_interval.py::TestTextSyntax::test_parse_errors",
        ),
    ),
    Mutant(
        "token position looked up one token late",
        "expr.py",
        "islice(_TOKEN.finditer(source), index, None)",
        "islice(_TOKEN.finditer(source), index + 1, None)",
        tests=(
            "tests/test_expr.py::TestParseErrors::test_literal_past_the_digit_limit",
            "tests/test_expr.py::TestAgainstReference::test_tokens_match",
        ),
    ),
    Mutant(
        "error position counts the whitespace before the token",
        "expr.py",
        "index, None)).start(1)",
        "index, None)).start()",
        tests=(
            "tests/test_expr.py::TestParseErrors::test_unknown_character_with_position",
            "tests/test_expr.py::TestAgainstReference::test_tokens_match",
        ),
    ),
    Mutant(
        "bad characters not checked before parsing",
        "expr.py",
        "    if bad:\n"
        "        i = next(k for k, t in enumerate(texts) if t in bad)\n"
        '        raise ParseError(f"unexpected character {texts[i]!r}", _position(source, i))\n',
        "",
        tests=(
            "tests/test_expr.py::TestParseErrors::test_first_bad_character_wins",
        ),
    ),
    Mutant(
        "a later bad character wins",
        "expr.py",
        "i = next(k for k, t in enumerate(texts) if t in bad)",
        "i = max(k for k, t in enumerate(texts) if t in bad)",
        tests=(
            "tests/test_expr.py::TestParseErrors::test_first_bad_character_wins",
        ),
    ),
    Mutant(
        "the first bad character found by one list search per bad character",
        "expr.py",
        "i = next(k for k, t in enumerate(texts) if t in bad)",
        "i = min(map(texts.index, bad))",
        tests=(
            "tests/test_expr.py::TestParseErrors::test_many_bad_characters_in_linear_time",
        ),
    ),
    Mutant(
        "a lone . read as a number",
        "expr.py",
        '_GOOD = _IDENT_START | frozenset("0123456789+-*/()")',
        '_GOOD = _IDENT_START | frozenset("0123456789.+-*/()")',
        tests=(
            "tests/test_expr.py::TestParseErrors::test_first_bad_character_wins",
            "tests/test_expr.py::TestAgainstReference::test_tokens_match",
        ),
    ),
    Mutant(
        "one leaf per occurrence",
        "expr.py",
        "leaf = leaves.get(text)  #",
        "leaf = leaves.get(text) and (Var(text), leaves[text][1])  #",
        tests=(
            "tests/test_expr.py::TestSharedLeaves::test_one_leaf_per_name",
        ),
    ),
    Mutant(
        "parse caches a sorted variable sequence",
        "expr.py",
        'root.__dict__["_varseq"] = tuple(leaves)',
        'root.__dict__["_varseq"] = tuple(sorted(leaves))',
        tests=(
            "tests/test_expr.py::TestQueries::test_variable_sequence_first_occurrence",
        ),
    ),
    Mutant(
        "the tape numbers variables in sorted order",
        "expr.py",
        "slots: dict = {}",
        "slots: dict = {name: k for k, name in enumerate(sorted(set(_leaf_names(_postorder(e)))))}",
        tests=(
            "tests/test_semantics.py::TestTape::test_one_walk_matches_two",
        ),
    ),
    Mutant(
        "the fold gives every leaf slot 0",
        "expr.py",
        "lambda v: slots.setdefault(v.name, len(slots))",
        "lambda v: slots.setdefault(v.name, 0)",
        tests=(
            "tests/test_semantics.py::TestTape::test_matches_closure_routing",
            "tests/test_semantics.py::TestTape::test_one_walk_matches_two",
        ),
    ),
    Mutant(
        "the fold swaps binary operands",
        "expr.py",
        "_intern((b.op, a, c), keys, ops)",
        "_intern((b.op, c, a), keys, ops)",
        tests=(
            "tests/test_semantics.py::TestTape::test_matches_closure_routing",
            "tests/test_semantics.py::TestTape::test_one_walk_matches_two",
        ),
    ),
    Mutant(
        "fresh names dodge only identifiers before the first literal",
        "expr.py",
        'while f"_c{fresh}" in distinct:',
        'while f"_c{fresh}" in set(texts[:i]):',
        tests=(
            "tests/test_expr.py::TestConstants::test_fresh_names_dodge_collisions",
        ),
    ),
    Mutant(
        "interning skips the common-subterm check",
        "expr.py",
        "k = keys.get(key)",
        "k = None",
        tests=(
            "tests/test_semantics.py::TestTape::test_repeated_subterm_evaluated_once",
            "tests/test_semantics.py::TestTape::test_one_walk_matches_two",
        ),
    ),
    Mutant(
        "provisional slots made absolute one off",
        "expr.py",
        "a if a >= 0 else n - 2 - a",
        "a if a >= 0 else n - 1 - a",
        tests=(
            "tests/test_semantics.py::TestTape::test_repeated_subterm_evaluated_once",
            "tests/test_semantics.py::TestTape::test_one_walk_matches_two",
            "tests/test_semantics.py::TestTape::test_matches_closure_routing",
        ),
    ),
    Mutant(
        "a node __init__ skips a field",
        "expr.py",
        '        _set(self, "left", left)\n        _set(self, "right", right)\n',
        '        _set(self, "left", left)\n',
        tests=(
            "tests/test_expr.py::TestNodeProtocol::test_dataclass_protocol",
        ),
    ),
    # rounding and interval kernels
    Mutant(
        "add_down returns an overflowed sum",
        "rounding.py",
        "return nextafter(s, _NINF)  # finite operands overflowed",
        "return s  # finite operands overflowed",
        tests=(
            "tests/test_rounding.py::TestAddSub::test_overflow_from_finite_operands",
        ),
    ),
    Mutant(
        "add_up returns an overflowed sum",
        "rounding.py",
        "return nextafter(s, inf)  # finite operands overflowed",
        "return s  # finite operands overflowed",
        tests=(
            "tests/test_rounding.py::TestAddSub::test_overflow_from_finite_operands",
        ),
    ),
    Mutant(
        "add_down steps an overflowed sum up",
        "rounding.py",
        "return nextafter(s, _NINF)  # finite operands overflowed",
        "return nextafter(s, inf)  # finite operands overflowed",
        tests=(
            "tests/test_rounding.py::TestAddSub::test_overflow_from_finite_operands",
        ),
    ),
    Mutant(
        "quotient returns a zero numerator as given",
        "rounding.py",
        "    if a == 0.0:\n        return 0.0, 0\n",
        "    if a == 0.0:\n        return a, 0\n",
        tests=(
            "tests/test_rounding.py::TestDiv::test_zero_numerator_gives_positive_zero",
            "tests/test_semantics.py::TestKernelPath::test_zero_quotients_by_repr",
        ),
    ),
    Mutant(
        "quotient returns an infinite numerator as given",
        "rounding.py",
        "        return a / b, 0\n",
        "        return a, 0\n",
        tests=(
            "tests/test_rounding.py::TestDiv::test_infinite_dividend_keeps_sign",
        ),
    ),
    Mutant(
        "add_up keeps an exact sum when the error is zero or more",
        "rounding.py",
        "return nextafter(s, inf) if err > 0 else s",
        "return nextafter(s, inf) if err >= 0 else s",
        tests=(
            "tests/test_rounding.py::TestAddSub::test_exact_sums_stay_exact",
        ),
    ),
    Mutant(
        "_sub swaps its operands",
        "interval.py",
        "return add_down(a, -d), add_up(b, -c)",
        "return add_down(c, -b), add_up(d, -a)",
        tests=(
            "tests/test_interval.py::TestAddSub::test_sub_cases",
        ),
    ),
    Mutant(
        "_add's upper bound rounds to nearest",
        "interval.py",
        "return add_down(a, c), add_up(b, d)",
        "return add_down(a, c), b + d",
        tests=(
            "tests/test_edge_grid.py::test_kernels_on_empty_and_unbounded_operands",
            "tests/test_edge_grid.py::test_binary_on_a_stride_of_the_grid[+]",
            "tests/test_interval.py::TestAddSub::test_sub_is_add_of_negation",
            "tests/test_oracle.py::TestExpressionOracle::test_random_cases_lie_inside_the_engine",
        ),
    ),
    # a bound rounded to nearest, not outward: the whole-expression oracle check finds each
    Mutant(
        "_sub's lower bound rounds to nearest",
        "interval.py",
        "return add_down(a, -d), add_up(b, -c)",
        "return a - d, add_up(b, -c)",
        tests=(
            "tests/test_oracle.py::TestExpressionOracle::test_random_cases_lie_inside_the_engine",
        ),
    ),
    Mutant(
        "_div_by_positive's upper bound rounds to nearest",
        "interval.py",
        "hi = div_up(b, d) if b <= 0 else (_INF if c <= 0.0 else div_up(b, c))",
        "hi = b / d if b <= 0 else (_INF if c <= 0.0 else b / c)",
        tests=(
            "tests/test_oracle.py::TestExpressionOracle::test_random_cases_lie_inside_the_engine",
        ),
    ),
    Mutant(
        "_sqrt_canonical's upper bound rounds to nearest",
        "interval.py",
        "return (sqrt_down(x[0]) if x[0] > 0 else 0.0), sqrt_up(x[1])",
        "return (sqrt_down(x[0]) if x[0] > 0 else 0.0), math.sqrt(x[1])",
        tests=(
            "tests/test_oracle.py::TestExpressionOracle::test_random_cases_lie_inside_the_engine",
        ),
    ),
    Mutant(
        "_mul's upper bound rounds to nearest on nonnegative operands",
        "interval.py",
        "return mul_down(a, c), mul_up(b, d)",
        "return mul_down(a, c), b * d",
        tests=(
            "tests/test_oracle.py::TestExpressionOracle::test_random_cases_lie_inside_the_engine",
        ),
    ),
    Mutant(
        "RealResult's constructor without its range test",
        "semantics.py",
        '            if not _LOWEST <= v <= MAX_FLOAT:\n                raise ValueError("defined results must be finite reals")\n',
        "",
        tests=(
            "tests/test_semantics.py::TestRealResult::test_the_constructor_refuses_what_defined_refuses",
        ),
    ),
    Mutant(
        "_sample returns the first coordinate for the box evaluation",
        "semantics.py",
        "    return result, violations, defined",
        "    return (dims[0].lo, dims[0].hi), violations, defined",
        tests=(
            "tests/test_cli.py::TestCheck::test_clean_run",
            "tests/test_cli.py::TestCheck::test_coordinate_wider_than_max_float",
        ),
    ),
    Mutant(
        "_sample evaluates an unbounded box before refusing it",
        "semantics.py",
        "    if not empty and not all(d.is_bounded for d in dims):\n"
        '        raise ValueError("inclusion sampling needs a bounded box")\n'
        "    _, ops = _pair_tape(e, interp)\n",
        "    _, ops = _pair_tape(e, interp)\n"
        "    _run(ops, [(d.lo, d.hi) for d in dims])\n"
        "    if not empty and not all(d.is_bounded for d in dims):\n"
        '        raise ValueError("inclusion sampling needs a bounded box")\n',
        tests=(
            "tests/test_oracle.py::TestSampleInclusion::test_an_unbounded_box_is_refused_before_it_is_evaluated",
        ),
    ),
    Mutant(
        "sample_inclusion accepts zero samples",
        "semantics.py",
        "    if samples < 1:\n        raise ValueError",
        "    if samples < 0:\n        raise ValueError",
        tests=(
            "tests/test_oracle.py::TestSampleInclusion::test_no_samples_rejected",
        ),
    ),
    # sampling: a non-finite column entry marks an undefined sample
    Mutant(
        "the / column kernel divides by an infinity",
        "semantics.py",
        "x / y if _LOWEST <= y <= MAX_FLOAT and y != 0.0 else nan",
        "x / y if y == y and y != 0.0 else nan",
        tests=(
            "tests/test_semantics.py::TestColumnRunner::test_edge_values",
        ),
    ),
    Mutant(
        "the per-sample adapter calls a user op on an infinity",
        "semantics.py",
        "v = f(*args) if all(_LOWEST <= x <= MAX_FLOAT for x in args) else None",
        "v = f(*args) if all(x == x for x in args) else None",
        tests=(
            "tests/test_semantics.py::TestColumnRunner::test_edge_values",
        ),
    ),
    Mutant(
        "the sample count takes an infinity for a defined value",
        "semantics.py",
        "finite = [v for v in values if _LOWEST <= v <= MAX_FLOAT]",
        "finite = [v for v in values if v == v]",
        tests=(
            "tests/test_cli.py::TestCheck::test_no_defined_sample_exit_five",
        ),
    ),
    Mutant(
        "check passes with no defined sample",
        "cli.py",
        "    if not defined:\n",
        "    if False:\n",
        tests=(
            "tests/test_cli.py::TestCheck::test_no_defined_sample_exit_five",
        ),
    ),
    # command line
    Mutant(
        "a named command's parser accepts left-over arguments",
        "cli.py",
        "        if not extras:\n",
        "        if True:\n",
        tests=(
            "tests/test_cli.py::TestParserTable::test_a_left_over_argument_builds_the_full_parser",
            "tests/test_cli.py::TestParserTable::test_same_as_the_parent_parser",
        ),
    ),
    Mutant(
        "a named command's parser is called relival",
        "cli.py",
        'prog=f"relival {name}"',
        'prog="relival"',
        tests=(
            "tests/test_cli.py::TestParserTable::test_a_named_command_builds_one_parser",
            "tests/test_cli.py::TestParserTable::test_same_as_the_parent_parser",
        ),
    ),
    Mutant(
        "a named command's namespace gets command last",
        "cli.py",
        "args, extras = parser.parse_known_args(tokens[1:], argparse.Namespace(command=name))\n",
        "args, extras = parser.parse_known_args(tokens[1:])\n        args.command = name\n",
        tests=(
            "tests/test_cli.py::TestParserTable::test_parsed_arguments_match_the_parent_parser",
        ),
    ),
    Mutant(
        "every --var token dropped",
        "cli.py",
        '            if tokens[-1].startswith("--var="):\n                continue\n',
        "            continue\n",
        tests=(
            "tests/test_cli.py::TestParserTable::test_same_as_the_parent_parser",
        ),
    ),
    Mutant(
        "--var values reversed",
        "cli.py",
        "                args.var = values\n",
        "                args.var = values[::-1]\n",
        tests=(
            "tests/test_cli.py::TestParserTable::test_one_var_token_per_run",
            "tests/test_cli.py::TestParserTable::test_parsed_arguments_match_the_parent_parser",
        ),
    ),
    Mutant(
        "--var extraction continues past --",
        "cli.py",
        '        if tok == "--":\n',
        '        if tok == "--" and not cut:\n',
        tests=(
            "tests/test_cli.py::TestParserTable::test_one_var_token_per_run",
        ),
    ),
    Mutant(
        "a --var run cut when the first token names no subcommand",
        "cli.py",
        "    cut = bool(argv) and argv[0] in _COMMANDS\n",
        "    cut = True\n",
        tests=(
            "tests/test_cli.py::TestParserTable::test_same_as_the_parent_parser",
        ),
    ),
    Mutant(
        "-- glued to the option before it",
        "cli.py",
        '            if value == "--":\n                tokens.append(tok)\n                tok = value\n            elif value is not None:\n',
        "            if value is not None:\n",
        tests=(
            "tests/test_cli.py::TestLeadingDashValues::test_double_dash_is_never_a_value",
        ),
    ),
    Mutant(
        "a user-glued --opt=-- kept whole",
        "cli.py",
        '        elif tok.endswith("=--") and tok[:-3] in _TAKES_VALUE:\n',
        "        elif False:\n",
        tests=(
            "tests/test_cli.py::TestLeadingDashValues::test_double_dash_is_never_a_value",
        ),
    ),
    Mutant(
        "check loses --seed",
        "cli.py",
        '        ("--seed", dict(type=int, default=0, help="sampling seed (default 0)")),\n',
        "",
        tests=(
            "tests/test_cli.py::TestLeadingDashValues::test_seed_takes_a_separate_value",
            "tests/test_cli.py::TestParserTable::test_takes_value_read_off_the_full_parser",
        ),
    ),
    Mutant(
        "--json is glued to the next token",
        "cli.py",
        'if name.startswith("-") and keywords.get("action") != "store_true"',
        'if name.startswith("-")',
        tests=(
            "tests/test_cli.py::TestParserTable::test_takes_value_read_off_the_full_parser",
        ),
    ),
    Mutant(
        "--var name stripped of whitespace outside ASCII",
        "cli.py",
        "name = name.strip(_WHITESPACE)",
        "name = name.strip()",
        tests=(
            "tests/test_cli.py::TestArgumentErrors::test_whitespace_outside_ascii_in_var_names_and_at",
        ),
    ),
    Mutant(
        "--at tested for whitespace outside ASCII",
        "cli.py",
        "if at_text.strip(_WHITESPACE) else []",
        "if at_text.strip() else []",
        tests=(
            "tests/test_cli.py::TestArgumentErrors::test_whitespace_outside_ascii_in_var_names_and_at",
        ),
    ),
    Mutant(
        "--json writes widths as given",
        "cli.py",
        '["inf" if w == inf else w for w in widths]',
        "list(widths)",
        tests=(
            "tests/test_cli.py::TestRefine::test_json_infinite_width_is_a_string",
        ),
    ),
    # number text
    Mutant(
        "decimal digits of any script",
        "rounding.py",
        '_DECIMAL = r"(?:[0-9]+(?:\\.[0-9]*)?|\\.[0-9]+)(?:[eE][+-]?[0-9]+)?"',
        '_DECIMAL = r"(?:\\d+(?:\\.\\d*)?|\\.\\d+)(?:[eE][+-]?\\d+)?"',
        equivalent="_DECIMAL is compiled only into _NUMBER and expr._TOKEN, both re.ASCII, where "
        "\\d is [0-9]; the mutant 'token pattern skips whitespace outside ASCII' drops the flag",
    ),
    Mutant(
        "no ASCII check on number text",
        "rounding.py",
        "        if not x.isascii():  # a plainer refusal than the grammar's\n"
        '            raise ValueError(f"{_abridged(x)} is not ASCII text")\n',
        "",
        tests=(
            "tests/test_interval.py::TestConstruction::test_non_ascii_descriptors_rejected",
        ),
    ),
    Mutant(
        "an ArithmeticError escapes the number reader",
        "rounding.py",
        "except (ValueError, ArithmeticError):",
        "except ValueError:",
        tests=(
            "tests/test_rounding.py::TestNumberGrammar::test_exponent_beyond_decimal_range_refused",
        ),
    ),
    Mutant(
        "a decimal whose digit runs split two ways",
        "rounding.py",
        '_DECIMAL = r"(?:[0-9]+(?:\\.[0-9]*)?|\\.[0-9]+)(?:[eE][+-]?[0-9]+)?"',
        '_DECIMAL = r"(?:[0-9]+\\.?[0-9]*|\\.[0-9]+)(?:[eE][+-]?[0-9]+)?"',
        tests=(
            "tests/test_rounding.py::TestNumberGrammar::test_long_non_match_fails_in_linear_time",
        ),
    ),
    Mutant(
        "--at read by float()",
        "cli.py",
        '(f"--at value for {n}", _exact_value(t))',
        '(f"--at value for {n}", float(t))',
        tests=(
            "tests/test_cli.py::TestRefine::test_target_reads_like_a_bound",
            "tests/test_cli.py::TestRefine::test_bad_target_text_exit_two",
        ),
    ),
    Mutant(
        "no whitespace after a number",
        "rounding.py",
        '[0-9]+/0*[1-9][0-9]*)\\s*", re.ASCII)',
        '[0-9]+/0*[1-9][0-9]*)", re.ASCII)',
        tests=(
            "tests/test_rounding.py::TestNumberGrammar::test_grammar_reads",
        ),
    ),
    Mutant(
        "underscores stripped before matching",
        "rounding.py",
        "if not _NUMBER.fullmatch(x):",
        'if not _NUMBER.fullmatch(x.replace("_", "")):',
        tests=(
            "tests/test_rounding.py::TestNumberGrammar::test_grammar_refuses",
        ),
    ),
    Mutant(
        "a p/q with q zero matches the grammar",
        "rounding.py",
        "[0-9]+/0*[1-9][0-9]*)",
        "[0-9]+/[0-9]+)",
        equivalent="Fraction(p, 0) raises ZeroDivisionError, an ArithmeticError, which the "
        "reader refuses with the same message as a grammar miss",
    ),
    # the oracle, which every soundness and tightness check is judged against
    Mutant(
        "a continuous-diet threshold moved",
        "oracle.py",
        "(0.18, 0.30, 0.40, 0.52)",
        "(0.18, 0.30, 0.40, 0.50)",
        tests=(
            "tests/test_oracle.py::TestCaseGeneration::test_draws_are_pinned",
        ),
    ),
    Mutant(
        "a guarded operand left out of the positive variables",
        "oracle.py",
        "    positive.add(name)\n",
        "",
        tests=(
            "tests/test_oracle.py::TestCaseGeneration::test_positive_variables_for_continuous_cases",
            "tests/test_acceptance.py::test_criterion_5_nested_convergence",
        ),
    ),
    Mutant(
        "divisors through zero from above missed",
        "oracle.py",
        "    if d > 0:\n        lo, hi = _product(",
        "    if d > 0 and c >= 0:\n        lo, hi = _product(",
        tests=(
            "tests/test_edge_grid.py::test_binary_on_a_stride_of_the_grid[/]",
            "tests/test_edge_grid.py::test_binary_on_a_stride_of_the_grid[/c]",
            "tests/test_acceptance.py::test_criterion_4_relational_case_tables",
        ),
    ),
    Mutant(
        "root of a non-square point unclamped",
        "oracle.py",
        "min(_sqrt_bracket(a)[1], hi)",
        "_sqrt_bracket(a)[1]",
        tests=(
            "tests/test_oracle.py::TestRelationalOracle::test_root_of_a_non_square_point_is_one_point",
        ),
    ),
    Mutant(
        "corner oracle takes an unbounded or empty coordinate",
        "oracle.py",
        "    if any(d.is_empty or not d.is_bounded for d in _box_dims(e, box)):\n"
        "        raise ValueError(\"corner oracle needs bounded nonempty coordinates\")\n",
        "",
        tests=(
            "tests/test_oracle.py::TestCornerRangeOracle::test_unbounded_rejected",
            "tests/test_oracle.py::TestCornerRangeOracle::test_empty_coordinate_rejected",
        ),
    ),
    # every test that fails under it; the edge grid's ray check is the one that judges
    # each kernel against the rules on ray operands
    Mutant(
        "an infinite product takes the wrong sign",
        "oracle.py",
        "(a > 0) == (b > 0)",
        "(a > 0) != (b > 0)",
        tests=(
            "tests/test_edge_grid.py::test_kernels_on_empty_and_unbounded_operands",
            "tests/test_edge_grid.py::test_binary_on_a_stride_of_the_grid[/]",
            "tests/test_edge_grid.py::test_binary_on_a_stride_of_the_grid[/c]",
            "tests/test_acceptance.py::test_criterion_4_relational_case_tables",
            "tests/test_oracle.py::TestRelationalOracle::test_division_touching_zero_is_a_ray",
            "tests/test_oracle.py::TestRelationalOracle::test_ray_operands_give_exact_sets",
            "tests/test_oracle.py::TestExpressionOracle::test_random_cases_lie_inside_the_engine",
            "tests/test_oracle.py::TestExpressionOracle::test_quotient_with_infinite_corners",
            "tests/test_oracle.py::TestExpressionOracle::test_past_the_float_range_beside_a_ray",
        ),
    ),
    Mutant(
        "relational oracle skips its operand count",
        "oracle.py",
        "    if binary != (y is not None):\n"
        "        raise ValueError(f\"operation {op!r} takes {'two operands' if binary else 'one operand'}\")\n",
        "",
        tests=(
            "tests/test_oracle.py::TestRelationalOracle::test_symbol_and_operand_count_checked_first",
        ),
    ),
]


def _copy(tmp: Path, mutant: "Mutant | None") -> tuple[Path, str]:
    """A fresh copy of ``src/`` under ``tmp``, with ``mutant`` made; and an error, if any."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is None:
        return src, ""
    path = src / "relival" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return src, f"replacement matches {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src, ""


def _env(src: Path) -> dict:
    """The environment that imports ``relival`` from ``src`` first."""
    path = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")


def _pytest(src: Path, tests) -> "tuple[str, str]":
    """Run ``tests`` against the package in ``src``: ('pass' | 'fail' | 'timeout' | 'error', output)."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    # pytest: 0 all passed, 1 some failed; anything else (no such test, usage error) is no verdict
    return {0: "pass", 1: "fail"}.get(done.returncode, "error"), done.stdout + done.stderr


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="relival-mutants-") as tmp:
        src, _ = _copy(Path(tmp), None)
        probe = [sys.executable, "-c", "import relival; print(relival.__file__)"]
        where = Path(subprocess.run(probe, cwd=ROOT, env=_env(src), capture_output=True, text=True,
                                    check=True).stdout.strip())
        if src not in where.parents:
            print(f"the copy is not the package imported: relival comes from {where}")
            return 1
        verdict, output = _pytest(src, sorted({t for m in mutants if not m.equivalent for t in m.tests}))
        if verdict != "pass":
            print(output)
            print(f"the named tests are missing or do not pass on the unchanged copy: {verdict}")
            return 1
        for m in mutants:
            start = time.perf_counter()
            src, problem = _copy(Path(tmp), m)
            if problem:
                status, note = "ERROR", problem
            elif m.equivalent:
                status, note = "equivalent", m.equivalent
            elif not m.tests:
                status, note = "ERROR", "no tests named"
            else:
                verdict, output = _pytest(src, m.tests)
                status = {"pass": "SURVIVED", "error": "ERROR"}.get(verdict, "killed")
                note = f"{verdict}, {time.perf_counter() - start:.1f} s"
                if verdict == "error":
                    note += "\n" + output
            failures += status in ("SURVIVED", "ERROR")
            print(f"{status:10} {m.name}: {note}", flush=True)
    print(f"{len(mutants)} mutants, {failures} not killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
