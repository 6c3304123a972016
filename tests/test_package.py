"""The package namespace: ``relival.__all__`` is composed from the modules'."""

import relival

# the public names of the package, fixed independently of how they are gathered
EXPORTED = {
    "__version__",
    # rounding
    "MAX_FLOAT", "round_down", "round_up", "next_down", "next_up",
    "add_down", "add_up", "sub_down", "sub_up", "mul_down", "mul_up",
    "div_down", "div_up", "sqrt_down", "sqrt_up",
    # interval
    "Interval", "Box", "EMPTY", "REALS", "hull_bounds", "hull_union",
    "add", "sub", "mul", "div", "div_canonical", "sqrt_rel", "sqrt_canonical",
    "neg", "absolute", "member", "subset", "intersects", "width", "midpoint",
    "parse_interval", "format_interval", "parse_box",
    # expr
    "Expr", "Var", "Unary", "Binary", "Binding", "ParseError", "parse",
    "to_source", "variable_sequence", "depth", "occurs_once",
    # semantics
    "RealResult", "UNDEFINED", "Interpretation", "default_interpretation",
    "mode_select", "compile_real", "compile_interval", "eval_real",
    "eval_interval",
    # analysis
    "RefinementSequence", "EnclosureReport", "refine_toward",
    "check_convergence", "bisect", "subdivide_enclosure",
    # oracle
    "RationalInterval", "relational_oracle", "corner_range_oracle",
    "expression_oracle", "sample_inclusion", "random_case",
    "random_single_occurrence_case",
}


def test_exported_names_are_pinned():
    assert len(relival.__all__) == len(set(relival.__all__))
    assert set(relival.__all__) == EXPORTED


def test_every_export_is_the_module_object():
    for module in (relival.rounding, relival.interval, relival.expr,
                   relival.semantics, relival.analysis, relival.oracle):
        for name in module.__all__:
            assert getattr(relival, name) is getattr(module, name)
