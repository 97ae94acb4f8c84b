"""Expression grammar: parsing, precedence, evaluation, round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpde.errors import EvaluationError, ParseError
from degenpde.expressions import (FUNCTIONS, MAX_DEPTH, MAX_NESTING,
                                  MAX_SOURCE_BYTES, VARIABLES, BinOp, Func,
                                  Neg, Num, Var, evaluate, parse, separate,
                                  variables_of)


def test_product_of_variables():
    ast = parse("3*x*s")
    assert evaluate(ast, x=0.5, s=0.2) == pytest.approx(0.3, abs=1e-12)


def test_trig_product_pinned_to_one():
    ast = parse("sin(2*x)*sin(y)*exp(-t)")
    val = evaluate(ast, x=math.pi / 4, y=math.pi / 2, t=0.0)
    assert val == pytest.approx(1.0, abs=1e-15)


def test_power_is_right_associative():
    assert evaluate("2^3^2") == 512.0
    assert evaluate("(2^3)^2") == 64.0


def test_unary_minus_binds_looser_than_power():
    assert evaluate("-x^2", x=2.0) == -4.0
    assert evaluate("(-x)^2", x=2.0) == 4.0
    assert evaluate("-2^2") == -4.0


def test_negative_exponent():
    assert evaluate("2^-1") == 0.5


def test_addition_binds_looser_than_multiplication():
    assert evaluate("1+2*3") == 7.0
    assert evaluate("(1+2)*3") == 9.0
    assert evaluate("2*3^2") == 18.0
    assert evaluate("10-4-3") == 3.0
    assert evaluate("8/4/2") == 1.0


def test_scientific_notation_numbers():
    assert evaluate("1e-3 + 2.5E+2") == pytest.approx(250.001)


def test_known_functions():
    assert evaluate("sqrt(x)", x=9.0) == 3.0
    assert evaluate("cos(0)") == 1.0


def test_extra_bindings_are_ignored():
    assert evaluate("x", x=1.0, y=2.0, t=3.0) == 1.0


def test_scalar_result_is_python_float():
    out = evaluate("x^2", x=np.array(3.0))
    assert isinstance(out, float)
    assert out == 9.0


def test_array_bindings_broadcast():
    x = np.array([1.0, 2.0, 3.0])
    out = evaluate("x*s", x=x, s=2.0)
    np.testing.assert_array_equal(out, [2.0, 4.0, 6.0])
    outer = evaluate("x*s", x=x[:, None], s=np.array([1.0, 10.0]))
    assert outer.shape == (3, 2)
    np.testing.assert_array_equal(outer[:, 1], 10.0 * x)


def test_variables_of_collects_names():
    assert variables_of(parse("sin(x)*t - 2")) == {"x", "t"}
    assert variables_of(parse("1 + 2^3")) == set()


def test_unbound_variable_raises():
    with pytest.raises(EvaluationError, match="'t' is not bound"):
        evaluate("x + t", x=1.0)


def test_division_by_zero_raises():
    with pytest.raises(EvaluationError, match="non-finite"):
        evaluate("1/0")
    with pytest.raises(EvaluationError, match="non-finite"):
        evaluate("0/0")


def test_sqrt_of_negative_raises():
    with pytest.raises(EvaluationError, match="non-finite"):
        evaluate("sqrt(-1)")


def test_array_with_one_bad_entry_raises():
    with pytest.raises(EvaluationError, match="non-finite"):
        evaluate("sqrt(x)", x=np.array([1.0, -1.0]))


def test_unknown_identifier_reports_position():
    with pytest.raises(ParseError, match=r"unknown identifier 'foo'.*line 1, col 1"):
        parse("foo(x)")
    with pytest.raises(ParseError, match=r"unknown identifier 'z'.*line 1, col 5"):
        parse("x + z")


def test_unbalanced_parentheses():
    with pytest.raises(ParseError, match=r"expected '\)'"):
        parse("(1 + 2")
    with pytest.raises(ParseError, match="unexpected token"):
        parse(")")
    with pytest.raises(ParseError, match="trailing input"):
        parse("(1 + 2))")


def test_empty_input():
    with pytest.raises(ParseError, match="empty expression"):
        parse("")
    with pytest.raises(ParseError, match="empty expression"):
        parse("   \n\t ")


def test_dangling_operator():
    with pytest.raises(ParseError, match="unexpected token"):
        parse("x + ")


def test_position_tracks_newlines():
    with pytest.raises(ParseError, match=r"line 2, col 1"):
        parse("x +\n* y")


def test_unexpected_character():
    with pytest.raises(ParseError, match=r"unexpected character '@'.*col 3"):
        parse("x @ y")


def test_source_size_cap():
    big = "1" * (MAX_SOURCE_BYTES + 1)
    with pytest.raises(ParseError, match="64 KiB"):
        parse(big)
    # one byte under the cap still parses
    assert evaluate("1" * 10) == 1111111111.0


def test_non_string_source_rejected():
    with pytest.raises(ParseError, match="must be a string"):
        parse(3)


def test_evaluate_accepts_source_strings():
    assert evaluate("x + 1", x=1.0) == 2.0


@pytest.mark.parametrize("source, limit", [
    ("(" * MAX_NESTING + "1" + ")" * MAX_NESTING, "nested deeper"),
    ("-" * MAX_NESTING + "1", "nested deeper"),
    ("2^" * MAX_NESTING + "1", "nested deeper"),
    ("sin(" * MAX_NESTING + "x" + ")" * MAX_NESTING, "nested deeper"),
    ("1+" * MAX_DEPTH + "1", "tree deeper"),
    ("1*" * MAX_DEPTH + "1", "tree deeper"),
])
def test_deep_expressions_are_refused(source, limit):
    with pytest.raises(ParseError, match=limit):
        parse(source)


def test_deepest_accepted_trees_evaluate():
    assert evaluate("1+" * (MAX_DEPTH - 1) + "1") == MAX_DEPTH
    inner = "(" * (MAX_NESTING - 1) + "2" + ")" * (MAX_NESTING - 1)
    assert evaluate(inner) == 2.0
    assert evaluate("-" * (MAX_NESTING - 1) + "1") == -1.0


# -- generated round-trip and purity properties ------------------------------

def to_source(node):
    """Render an AST back to a string that parses to an equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        # outer parens keep the negation attached when embedded under '^'
        return f"(-{to_source(node.operand)})"
    if isinstance(node, Func):
        return f"{node.name}({to_source(node.argument)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    raise TypeError(f"not an AST node: {node!r}")


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(Num),
    st.sampled_from(VARIABLES).map(Var),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Func, st.sampled_from(sorted(FUNCTIONS)), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]),
                  children, children),
    )


_asts = st.recursive(_leaf, _extend, max_leaves=25)


@settings(max_examples=250, deadline=None)
@given(_asts)
def test_to_source_round_trip(ast):
    text = to_source(ast)
    assert parse(text) == ast
    # rendering is stable under a second pass too
    assert to_source(parse(text)) == text


@settings(max_examples=120, deadline=None)
@given(_asts, st.integers(0, 2**32 - 1))
def test_evaluation_is_pure(ast, seed):
    rng = np.random.default_rng(seed)
    bindings = {name: rng.uniform(0.1, 2.0, size=4) for name in VARIABLES}
    try:
        first = evaluate(ast, **bindings)
    except EvaluationError:
        with pytest.raises(EvaluationError):
            evaluate(ast, **bindings)
        return
    second = evaluate(ast, **bindings)
    if isinstance(first, float):
        assert first == second and isinstance(second, float)
    else:
        assert first.dtype == np.float64
        assert first.tobytes() == second.tobytes()


# -- separation of degenerate kernels ----------------------------------------

_KERNEL = ({"x"}, {"s"})


def _separated_sum(terms, X, S):
    return sum(evaluate(a, x=X) * evaluate(b, s=S) for a, b in terms)


_XS = np.meshgrid(np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5), indexing="ij")


@pytest.mark.parametrize("source, count", [
    ("3*x*s", 1),
    ("2", 1),
    ("sin(x)", 1),
    ("x*s + cos(x)*exp(s)", 2),
    ("x*s - x^2*s^2", 2),
    ("-(x*s)", 1),
    ("-(x + s)*(x - 2*s)", 4),
    ("(x + s)*(x - s)", 4),
    ("(2/3)*sin(x)*sin(s) + 1", 2),
])
def test_separate_covers_sums_differences_products_and_signs(source, count):
    ast = parse(source)
    terms = separate(ast, _KERNEL, 16)
    assert len(terms) == count
    for a, b in terms:
        assert variables_of(a) <= {"x"} and variables_of(b) <= {"s"}
    np.testing.assert_allclose(_separated_sum(terms, *_XS), evaluate(ast, x=_XS[0], s=_XS[1]),
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("source", ["exp(x*s)", "sin(x + s)", "x/s", "(x + s)^2",
                                    "t*x*s", "sqrt(x*s)"])
def test_separate_refuses_a_kernel_that_is_not_a_sum_of_products(source):
    assert separate(parse(source), _KERNEL, 16) is None


def test_separate_refuses_more_terms_than_allowed():
    ast = parse("(x + s)*(x + s)*(x + s)")
    assert len(separate(ast, _KERNEL, 8)) == 8
    assert separate(ast, _KERNEL, 7) is None
    assert separate(parse("+".join(["x*s"] * 5)), _KERNEL, 4) is None
    assert separate(parse("x*s"), _KERNEL, 0) is None


@pytest.mark.parametrize("source, count", [
    ("(sin(x)*sin(2*y) + sin(2*x)*sin(y))*exp(-t)", 1),
    ("x * y^2 * (1 + t) + cos(x - y)", 2),
    ("2*t - x*y", 2),
    ("exp(-t)", 1),
])
def test_separate_splits_a_right_hand_side_between_time_and_space(source, count):
    ast = parse(source)
    terms = separate(ast, ({"t"}, {"x", "y"}), 16)
    assert len(terms) == count
    for a, b in terms:
        assert variables_of(a) <= {"t"} and variables_of(b) <= {"x", "y"}
    T, X, Y = np.meshgrid(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 3.0, 5),
                          np.linspace(0.0, 3.0, 6), indexing="ij")
    got = sum(evaluate(a, t=T) * evaluate(b, x=X, y=Y) for a, b in terms)
    np.testing.assert_allclose(got, evaluate(ast, t=T, x=X, y=Y), rtol=1e-14,
                               atol=1e-14)


@pytest.mark.parametrize("source", ["sin(x*t)*y", "x*s", "exp(t + x)"])
def test_separate_refuses_a_right_hand_side_mixing_time_and_space(source):
    assert separate(parse(source), ({"t"}, {"x", "y"}), 16) is None


_sep_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=3.0).map(Num),
    st.sampled_from(["x", "s"]).map(Var),
    st.builds(Func, st.sampled_from(sorted(FUNCTIONS)), st.sampled_from(["x", "s"]).map(Var)),
)
_sep_asts = st.recursive(
    _sep_leaf,
    lambda c: st.one_of(st.builds(Neg, c),
                        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), c, c)),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_sep_asts)
def test_separate_reproduces_every_sum_of_products_tree(ast):
    terms = separate(ast, _KERNEL, 256)
    assert terms is not None
    want = evaluate(ast, x=_XS[0], s=_XS[1])
    np.testing.assert_allclose(_separated_sum(terms, *_XS), want, rtol=1e-12,
                               atol=1e-12 * max(1.0, float(np.abs(want).max())))
