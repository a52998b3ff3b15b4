"""Tests for the generating-function DSL parser and evaluator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starquant import JetDomainError, ParseError, PhasePoint, UnknownVariable, jets
from starquant.expr import (
    FUNCTION_NAMES,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    eval_jet,
    evaluate,
    jet_function,
    parse,
    pretty,
)
from starquant.jets import jet_space
from oracles import check_jet_against_fd, reference_jet


def test_accepts_each_production():
    parse("x1 + p1 - 2", 1)
    parse("2*x1/p1", 1)
    parse("x1^2", 1)
    parse("-x1", 1)
    parse("--x1", 1)
    parse("(x1)", 1)
    parse("sin(x1)", 1)
    parse("0.5", 1)
    parse("1e3", 1)
    parse(".25*x1", 1)
    parse("y2", 2, bundle="tangent")


def test_rejects_each_production():
    with pytest.raises(ParseError):
        parse("x1 +", 1)
    with pytest.raises(ParseError):
        parse("2**x1", 1)
    with pytest.raises(ParseError):
        parse("x1^p1", 1)
    with pytest.raises(ParseError):
        parse("-", 1)
    with pytest.raises(ParseError):
        parse("(x1", 1)
    with pytest.raises(ParseError):
        parse("sin x1", 1)
    with pytest.raises(ParseError):
        parse(".", 1)
    with pytest.raises(ParseError):
        parse("", 1)
    with pytest.raises(ParseError):
        parse("x1 p1", 1)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("x1 + + p1", 1)
    assert exc.value.offset == 5
    assert "+" in exc.value.found
    with pytest.raises(ParseError) as exc:
        parse("x1 +", 1)
    assert exc.value.offset == 4
    assert exc.value.found == "end of input"


def test_unknown_variables():
    with pytest.raises(UnknownVariable) as exc:
        parse("p1^2 + q", 1)
    assert exc.value.name == "q"
    assert exc.value.offset == 7
    with pytest.raises(UnknownVariable):
        parse("p3", 2)
    with pytest.raises(UnknownVariable):
        parse("y1", 1, bundle="cotangent")
    with pytest.raises(UnknownVariable):
        parse("p1", 1, bundle="tangent")
    with pytest.raises(UnknownVariable):
        parse("x0", 1)
    with pytest.raises(UnknownVariable):
        parse("sinh(x1)", 1)


def test_slot_resolution():
    ast = parse("0.5*(p1^2+p2^2)", 2)
    fibers = set()

    def collect(nd):
        if isinstance(nd, Var):
            fibers.add((nd.name, nd.slot))
        for field in getattr(nd, "__dataclass_fields__", {}):
            child = getattr(nd, field)
            if hasattr(child, "__dataclass_fields__"):
                collect(child)

    collect(ast)
    assert fibers == {("p1", 2), ("p2", 3)}


def test_structure_of_nested_call():
    ast = parse("0.5*exp(2*x1)*p1^2", 1)
    expected = Mul(
        Mul(Const(0.5), Call("exp", Mul(Const(2.0), Var("x1", 0)))),
        Pow(Var("p1", 1), 2.0),
    )
    assert ast == expected


def test_precedence():
    x1, p1 = Var("x1", 0), Var("p1", 1)
    assert parse("-x1^2", 1) == Neg(Pow(x1, 2.0))
    assert parse("2+x1*p1", 1) == Add(Const(2.0), Mul(x1, p1))
    assert parse("x1 - p1 - 2", 1) == Sub(Sub(x1, p1), Const(2.0))
    assert parse("x1/p1/2", 1) == Div(Div(x1, p1), Const(2.0))
    assert parse("x1^2^3", 1) == Pow(x1, 8.0)


def test_pretty_print_fixed_point():
    sources = [
        "0.5*(p1^2+p2^2)",
        "-(x1+p1)^2*3 - sin(x2)/(2-p2)",
        "0.5*exp(2*x1)*p1^2",
        "x1 - (p1 - x2) - p2^2",
        "sqrt(1+x1^2)*log(2+p1^2) / (x2*p2 + 4)",
        "--x1 + -p1*x2",
        "1e3*x1^0.5",
    ]
    for src in sources:
        ast = parse(src, 2)
        text = pretty(ast)
        assert parse(text, 2) == ast, src


def test_eval_polynomial_exact():
    ast = parse("x1*p1", 1)
    jet = eval_jet(ast, PhasePoint((2.0,), (3.0,)), 2)
    assert jet.value == 6.0
    assert jet.derivative((1, 0)) == 3.0
    assert jet.derivative((0, 1)) == 2.0
    assert jet.derivative((1, 1)) == 1.0


def test_eval_quadratic_hessian():
    ast = parse("0.5*(p1^2+p2^2)", 2)
    jet = eval_jet(ast, PhasePoint((0.4, -1.0), (0.3, 2.0)), 3)
    for a in range(2):
        for b in range(2):
            mono = [0, 0, 0, 0]
            mono[2 + a] += 1
            mono[2 + b] += 1
            assert jet.derivative(mono) == pytest.approx(1.0 if a == b else 0.0)
    # cubic coefficients of a quadratic are exactly zero
    assert all(
        abs(jet.coefficient(m)) == 0.0 for m in jet.space.monos if sum(m) == 3
    )


def test_eval_matches_finite_differences():
    ast = parse("0.5*exp(2*x1)*p1^2", 1)
    pt = PhasePoint((0.1,), (0.7,))
    jet = eval_jet(ast, pt, 4)

    def f(v):
        return 0.5 * np.exp(2 * v[0]) * v[1] ** 2

    check_jet_against_fd(jet, f, pt.as_array(), max_order=3, tol=1e-6)


def test_jet_function_serves_jets():
    ast = parse("0.5*exp(2*x1)*p1^2 - 3/(1+x1^2)", 1)
    f = jet_function(ast)
    pt = PhasePoint((0.2,), (-0.6,))
    _, xs, ps = pt.jets(3)
    for _ in range(2):  # a second call reuses the compiled wrapper
        assert np.array_equal(f(xs, ps).coeffs, eval_jet(ast, pt, 3).coeffs)


def test_jet_domain_errors_propagate():
    ast = parse("log(x1)", 1)
    with pytest.raises(JetDomainError):
        eval_jet(ast, PhasePoint((-1.0,), (0.0,)), 2)
    ast = parse("1/p1", 1)
    with pytest.raises(JetDomainError):
        eval_jet(ast, PhasePoint((1.0,), (0.0,)), 2)


# ---------------------------------------------------------------------------
# the constant fold keeps the bits of the plain jet walk

CONSTANTS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.5, 0.1, 1.7, 1e-3])
# values whose quotients and reciprocal products often round apart
POINT_VALUES = st.sampled_from(
    [0.0, -0.0, 0.3, -1.2, 2.0, 0.7, 5.0, 1.1, -2.9, 0.45, 2.6])


def _operations(children, constant=None):
    # with a constant subtree strategy, products and quotients by one are
    # drawn as often as the plain operations
    ops = [
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.sampled_from([0, 1, 2, 3, 0.5, -1.0, 1.5])),
        st.builds(Call, st.sampled_from(FUNCTION_NAMES), children),
    ]
    if constant is not None:
        ops += 2 * [st.builds(Mul, constant, children),
                    st.builds(Mul, children, constant),
                    st.builds(Div, children, constant),
                    st.builds(Div, constant, children)]
    return st.one_of(ops)


def _ast_with_constant_subtrees(dim):
    constant = st.recursive(st.builds(Const, CONSTANTS), _operations,
                            max_leaves=3)
    var = st.integers(0, dim - 1).map(lambda i: Var(f"v{i}", i))
    return st.recursive(st.one_of(constant, var),
                        lambda children: _operations(children, constant),
                        max_leaves=6)


def _outcome(node, values, space, evaluate_fn):
    # the jet's bytes, or the class of what evaluating it raised, under
    # the floating-point traps of a CLI point
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return evaluate_fn(node, values, space).coeffs.tobytes()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


def _var_free_subtrees(node):
    if isinstance(node, Var):
        return False, []
    children = [getattr(node, f) for f in ("arg", "left", "right", "base")
                if hasattr(node, f)]
    found, free = [], True
    for child in children:
        child_free, below = _var_free_subtrees(child)
        free &= child_free
        found += below
    return free, ([node] if free else found)


@pytest.mark.parametrize("dim,order", [(1, 0), (2, 1), (2, 2), (4, 5)])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_constant_fold_keeps_the_bits(dim, order, data):
    node = data.draw(_ast_with_constant_subtrees(dim))
    point = data.draw(st.lists(POINT_VALUES, min_size=dim, max_size=dim))
    space = jet_space(dim, order)
    values = space.variables(point)
    # a constant is folded from its value, so the series terms of order 2
    # and up that the plain walk forms for it, and that can overflow, are
    # never formed (test_fold_forms_no_series_of_a_constant)
    unit = jet_space(1, 1)
    for sub in _var_free_subtrees(node)[1]:
        assume(isinstance(_outcome(sub, [], unit, reference_jet), bytes)
               or not isinstance(_outcome(sub, [], space, reference_jet), bytes))
    want = _outcome(node, values, space, reference_jet)
    got = _outcome(node, values, space, lambda n, v, s: evaluate(n, v))
    assert got == want


@pytest.mark.parametrize("dim,order", [(1, 0), (2, 1), (2, 2), (4, 5)])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_evaluation_keeps_the_bits_of_each_row(dim, order, data):
    # a stack of three points from one evaluation: every row has the bytes
    # of the plain walk on that row alone, and a stack raises only what
    # evaluating one of its rows alone raises
    node = data.draw(_ast_with_constant_subtrees(dim))
    points = data.draw(st.lists(st.lists(POINT_VALUES, min_size=dim, max_size=dim),
                                min_size=3, max_size=3))
    space = jet_space(dim, order)
    unit = jet_space(1, 1)
    for sub in _var_free_subtrees(node)[1]:  # as in test_constant_fold_keeps_the_bits
        assume(isinstance(_outcome(sub, [], unit, reference_jet), bytes)
               or not isinstance(_outcome(sub, [], space, reference_jet), bytes))
    alone = [_outcome(node, space.variables(point), space, reference_jet) for point in points]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = evaluate(node, space.variables(np.array(points))).coeffs
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        assert type(exc) in alone
        return
    rows = np.broadcast_to(got, (3, space.size))  # a Var-free result has no rows
    assert [row.tobytes() for row in rows] == alone


@pytest.mark.parametrize("src", ["exp(x1*p1)", "sin(x1 - p1)", "cos(x1 + 2*p1)",
                                 "log(2 + x1*p1)", "sqrt(3 - x1*p1)", "(1 + x1^2)^1.5",
                                 "x1 / (2 + p1)"])
def test_stacked_series_keep_the_bits_of_each_row(src):
    # every series, the ones a stack forms in one array operation and the
    # ones it forms row by row, on three rows at order 5
    node = parse(src, 1)
    space = jet_space(2, 5)
    points = np.array([[0.3, -0.2], [-1.2, 0.45], [2.6, 0.7]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = evaluate(node, space.variables(points)).coeffs
        for row, point in zip(got, points):
            want = reference_jet(node, space.variables(point), space).coeffs
            assert row.tobytes() == want.tobytes()


def test_stacked_domain_error_names_its_row():
    # only row 2 spoils log: the stack raises the message row 2 raises alone
    node = parse("log(x1 + p1)", 1)
    space = jet_space(2, 3)
    points = np.array([[0.3, 0.2], [1.5, -0.5], [0.4, -0.9]])
    with pytest.raises(JetDomainError) as alone:
        evaluate(node, space.variables(points[2]))
    with pytest.raises(JetDomainError) as stacked:
        evaluate(node, space.variables(points))
    assert str(stacked.value) == str(alone.value)


def test_jets_of_several_orders_are_cut_to_the_lowest():
    # every input is truncated to the lowest order first, constants and
    # series included, so x1 + 1 comes out at p1's order 2
    node = parse("x1 + 1 + exp(x1) * p1", 1)
    high, low = jet_space(2, 4), jet_space(2, 2)
    x_high, _ = high.variables([0.3, -0.2])
    x_low, p_low = low.variables([0.3, -0.2])
    got = jet_function(node)([x_high], [p_low])
    assert got.space is low
    assert got.coeffs.tobytes() == evaluate(node, [x_low, p_low]).coeffs.tobytes()
    with pytest.raises(ValueError):
        evaluate(node, [jet_space(1, 2).variables([0.3])[0], p_low])


def test_fold_forms_no_series_of_a_constant():
    # 1e-100 ** -1 has series terms 1e100, -1e200, 1e300, -1e400: the plain
    # walk raises at order 3, while the fold only needs the reciprocal
    node = Div(Var("x1", 0), Const(1e-100))
    space = jet_space(2, 5)
    values = space.variables([0.3, -0.2])
    with pytest.raises(JetDomainError):
        reference_jet(node, values, space)
    got = evaluate(node, values)
    assert got.coeffs.tobytes() == values[0].scale(1e100).coeffs.tobytes()


def test_zero_constant_divisor_is_not_folded():
    space = jet_space(2, 2)
    values = space.variables([0.3, -0.2])
    for divisor in (Const(0.0), Neg(Const(0.0)), Sub(Const(2.0), Const(2.0))):
        with pytest.raises(JetDomainError):
            evaluate(Div(Var("x1", 0), divisor), values)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_constant_jets_keep_their_signed_zeros(order):
    # a series at order 0 returns its leading term as it is, above order 0
    # summed from +0.0, so exp(-0) and sin(-0) differ in a zero's sign
    space = jet_space(2, order)
    values = space.variables([0.3, -0.2])
    minus_zero = Neg(Const(0.0))
    for node in (Call("exp", minus_zero), Call("sin", minus_zero),
                 Neg(Call("exp", minus_zero)), Add(Var("x1", 0), minus_zero)):
        want = reference_jet(node, values, space).coeffs.tobytes()
        assert evaluate(node, values).coeffs.tobytes() == want


def test_constants_reach_no_product_table(monkeypatch):
    node = parse("exp(2)^3 + sqrt(2)*x1 - (1 + 2)^2 * p1 / 3", 1)
    f = jet_function(node)
    space, xs, ps = PhasePoint((0.3,), (-0.2,)).jets(4)
    f(xs, ps)  # compiles, evaluating the constants once
    products = []
    kernel = jets._mul_rows

    def counted(space, a, b):
        products.append(b)
        return kernel(space, a, b)

    monkeypatch.setattr(jets, "_mul_rows", counted)
    got = f(xs, ps)
    assert products == []
    want = reference_jet(node, xs + ps, space)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
