"""Tests for the truncated Taylor (jet) arithmetic core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant import (
    DegenerateHessian,
    InsufficientJetOrder,
    Jet,
    JetDomainError,
    PhasePoint,
    apply_unary,
    jet_const,
    jet_matrix_inverse,
    jet_space,
    jet_var,
    pow_const,
)
from starquant import jets
from starquant.jets import _horner, batched_mul, batched_partial
from oracles import central_derivative, check_jet_against_fd


def assert_jets_close(a, b, tol=1e-12):
    assert a.space.dim == b.space.dim and a.space.order == b.space.order
    scale = max(1.0, np.abs(a.coeffs).max(), np.abs(b.coeffs).max())
    assert np.abs(a.coeffs - b.coeffs).max() <= tol * scale


def brute_mul(a, b):
    # Dict-based polynomial convolution, independent of the table code.
    space = a.space
    out = {}
    for i, mi in enumerate(space.monos):
        for j, mj in enumerate(space.monos):
            tot = tuple(x + y for x, y in zip(mi, mj))
            if sum(tot) > space.order:
                continue
            out[tot] = out.get(tot, 0.0) + a.coeffs[i] * b.coeffs[j]
    coeffs = np.zeros(space.size, dtype=np.complex128)
    for mono, c in out.items():
        coeffs[space.index[mono]] = c
    return Jet(space, coeffs)


def test_monomial_layout_is_graded():
    sp = jet_space(3, 4)
    assert sp.size == math.comb(3 + 4, 4)
    degs = [sum(m) for m in sp.monos]
    assert degs == sorted(degs)
    # truncation must be a prefix slice
    lower = jet_space(3, 2)
    assert sp.monos[: lower.size] == lower.monos


def test_binomial_expansion_exact():
    sp = jet_space(1, 6)
    u = 1 + jet_var(sp, 0, 0.0)
    f = u**5
    for k in range(7):
        expect = math.comb(5, k) if k <= 5 else 0.0
        assert f.coefficient((k,)) == expect


def test_mul_matches_brute_force():
    rng = np.random.default_rng(7)
    sp = jet_space(2, 4)
    for _ in range(5):
        a = Jet(sp, rng.normal(size=sp.size) + 1j * rng.normal(size=sp.size))
        b = Jet(sp, rng.normal(size=sp.size) + 1j * rng.normal(size=sp.size))
        assert_jets_close(a * b, brute_mul(a, b), tol=1e-13)


def test_mul_sums_terms_in_table_order():
    # Every output coefficient is accumulated term by term from +0.0 in
    # the order of the multiplication table, so a product does not depend
    # on how numpy blocks its summations and reruns are bit-identical.
    rng = np.random.default_rng(3)
    sp = jet_space(3, 5)
    ii, jj, kk = sp._mul()
    for _ in range(5):
        scale = 10.0 ** rng.integers(-6, 7, size=(2, 2, sp.size))
        a = Jet(sp, rng.normal(size=sp.size) * scale[0, 0]
                + 1j * rng.normal(size=sp.size) * scale[0, 1])
        b = Jet(sp, rng.normal(size=sp.size) * scale[1, 0]
                + 1j * rng.normal(size=sp.size) * scale[1, 1])
        terms = a.coeffs[ii] * b.coeffs[jj]
        re = [0.0] * sp.size
        im = [0.0] * sp.size
        for k, t in zip(kk, terms):
            re[k] += t.real
            im[k] += t.imag
        want = np.empty(sp.size, dtype=np.complex128)
        want.real = re
        want.imag = im
        assert np.array_equal((a * b).coeffs, want)


def test_variables_match_jet_var():
    for dim, order in ((1, 0), (2, 1), (4, 3)):
        sp = jet_space(dim, order)
        vals = np.linspace(-0.7, 0.9, dim)
        seeded = sp.variables(vals)
        for i, jet in enumerate(seeded):
            assert jet.space is sp
            assert np.array_equal(jet.coeffs, jet_var(sp, i, vals[i]).coeffs)


def test_truncate_is_ring_morphism():
    rng = np.random.default_rng(11)
    sp = jet_space(3, 5)
    a = Jet(sp, rng.normal(size=sp.size))
    b = Jet(sp, rng.normal(size=sp.size))
    assert_jets_close((a * b).truncate(2), a.truncate(2) * b.truncate(2), tol=1e-13)
    assert_jets_close((a + b).truncate(2), a.truncate(2) + b.truncate(2), tol=1e-13)


def test_partial_exact_on_polynomials():
    sp = jet_space(2, 5)
    x = jet_var(sp, 0, 0.0)
    y = jet_var(sp, 1, 0.0)
    f = x**3 * y + 2 * y**2
    fx = f.partial(0)
    assert fx.coefficient((2, 1)) == 3.0
    fy = f.partial(1)
    assert fy.coefficient((3, 0)) == 1.0
    assert fy.coefficient((0, 1)) == 4.0
    assert fx.space.order == 4


def test_leibniz_rule():
    rng = np.random.default_rng(3)
    sp = jet_space(2, 4)
    a = Jet(sp, rng.normal(size=sp.size))
    b = Jet(sp, rng.normal(size=sp.size))
    lhs = (a * b).partial(0)
    rhs = a.partial(0) * b.truncate(3) + a.truncate(3) * b.partial(0)
    assert_jets_close(lhs, rhs, tol=1e-13)


def test_derivatives_match_finite_differences():
    pt = np.array([0.4, -0.6])
    sp = jet_space(2, 4)
    x, y = sp.variables(pt)

    jet = apply_unary(x * y, "exp") * apply_unary(2 + x, "log") + apply_unary(
        x * x + 2 + y, "sqrt"
    ) / (1 + y * y)

    def f(v):
        return np.exp(v[0] * v[1]) * np.log(2 + v[0]) + np.sqrt(
            v[0] ** 2 + 2 + v[1]
        ) / (1 + v[1] ** 2)

    check_jet_against_fd(jet, f, pt, max_order=3, tol=1e-5)


def test_exp_of_square_first_derivative():
    sp = jet_space(1, 3)
    x = jet_var(sp, 0, 0.3)
    f = apply_unary(x * x, "exp")
    h = 1e-5
    fd = (np.exp((0.3 + h) ** 2) - np.exp((0.3 - h) ** 2)) / (2 * h)
    got = f.derivative((1,)).real
    assert abs(got - fd) <= 1e-6 * abs(fd)


def test_trig_identity():
    sp = jet_space(2, 6)
    x, y = sp.variables([0.5, 1.1])
    u = x + 2 * y
    s, c = apply_unary(u, "sin"), apply_unary(u, "cos")
    assert_jets_close(s * s + c * c, jet_const(sp, 1.0), tol=1e-14)


def test_log_exp_roundtrip():
    sp = jet_space(2, 5)
    x, y = sp.variables([0.2, -0.4])
    u = 1 + x * x + y * y  # positive value
    assert_jets_close(apply_unary(apply_unary(u, "log"), "exp"), u, tol=1e-13)
    assert_jets_close(apply_unary(apply_unary(u, "exp"), "log"), u, tol=1e-13)


def test_sqrt_squares_back():
    sp = jet_space(1, 5)
    x = jet_var(sp, 0, 0.7)
    u = 2 + x + x * x
    r = apply_unary(u, "sqrt")
    assert_jets_close(r * r, u, tol=1e-13)


def test_integer_powers():
    sp = jet_space(1, 4)
    x = jet_var(sp, 0, 1.5)
    assert_jets_close(x**4, x * x * x * x, tol=1e-14)
    # repeated squaring uses only the products it needs
    assert np.array_equal((x**2).coeffs, (x * x).coeffs)
    assert np.array_equal((x**3).coeffs, (x * (x * x)).coeffs)
    assert x**1 is x
    assert_jets_close(x**0, jet_const(sp, 1.0), tol=1e-15)
    assert_jets_close(x**-2 * x * x, jet_const(sp, 1.0), tol=1e-13)
    assert_jets_close(x**-1, pow_const(x, -1), tol=1e-15)


def test_division_roundtrip():
    rng = np.random.default_rng(5)
    sp = jet_space(2, 4)
    a = Jet(sp, rng.normal(size=sp.size))
    b = Jet(sp, rng.normal(size=sp.size))
    b = b - b.value + 1.7  # keep the value away from zero
    assert_jets_close((a / b) * b, a, tol=1e-12)
    assert_jets_close(1.0 / b, pow_const(b, -1), tol=1e-14)


def test_complex_coefficients():
    sp = jet_space(2, 3)
    x, p = sp.variables([0.3, 0.9])
    f = (x + 1j * p) ** 2
    assert f.value == pytest.approx((0.3 + 0.9j) ** 2)
    assert f.coefficient((1, 1)) == pytest.approx(2j)


def test_domain_errors():
    sp = jet_space(1, 3)
    x = jet_var(sp, 0, -1.0)
    with pytest.raises(JetDomainError):
        apply_unary(x, "log")
    with pytest.raises(JetDomainError):
        apply_unary(x, "sqrt")
    with pytest.raises(JetDomainError):
        pow_const(x, 0.5)
    zero = jet_var(sp, 0, 0.0)
    with pytest.raises(JetDomainError):
        pow_const(zero, -1)
    with pytest.raises(JetDomainError):
        1.0 / zero
    with pytest.raises(ValueError):
        apply_unary(x, "tan")


def test_space_mismatch_raises():
    # jets of one dimension combine at the lower order; dimensions do not mix
    a = jet_var(jet_space(2, 3), 0, 0.0)
    b = jet_var(jet_space(2, 4), 0, 0.0)
    c = jet_var(jet_space(3, 3), 0, 0.0)
    assert (a + b).space is jet_space(2, 3)
    assert (b * a).space is jet_space(2, 3)
    with pytest.raises(ValueError):
        a + c
    with pytest.raises(ValueError):
        a * c


def test_insufficient_order():
    a = jet_const(jet_space(2, 0), 1.0)
    with pytest.raises(InsufficientJetOrder):
        a.partial(0)
    b = jet_var(jet_space(2, 2), 0, 0.0)
    with pytest.raises(InsufficientJetOrder):
        b.truncate(3)
    with pytest.raises(InsufficientJetOrder):
        b.coefficient((3, 0))


def test_matrix_inverse_residual():
    pt = PhasePoint((0.3, -0.2), (0.8, 0.5))
    space, xs, ps = pt.jets(4)
    M = np.array(
        [
            [2 + xs[0] * ps[0], xs[0] * xs[1]],
            [xs[0] * xs[1], 1 + apply_unary(xs[1], "exp") * 0.5],
        ],
        dtype=object,
    )
    Minv = jet_matrix_inverse(M)
    for a in range(2):
        for b in range(2):
            acc = M[a, 0] * Minv[0, b] + M[a, 1] * Minv[1, b]
            target = jet_const(space, 1.0 if a == b else 0.0)
            assert_jets_close(acc, target, tol=1e-13)


def test_matrix_inverse_degenerate():
    sp = jet_space(2, 3)
    x, y = sp.variables([0.0, 0.0])
    # value part is rank one; only the nilpotent part distinguishes rows
    M = np.array([[1 + x, 1 + y], [1 - y, 1 + x]], dtype=object)
    with pytest.raises(DegenerateHessian):
        jet_matrix_inverse(M)


def test_phase_point_roundtrip():
    pt = PhasePoint((1.0, 2.0), (3.0, 4.0))
    assert pt.n == 2
    assert pt.y == pt.p
    again = PhasePoint.from_array(pt.as_array())
    assert again == pt
    with pytest.raises(ValueError):
        PhasePoint((1.0,), (1.0, 2.0))
    space, xs, ps = pt.jets(2)
    assert space.dim == 4
    assert xs[1].value == 2.0 and ps[0].value == 3.0
    assert xs[1].coefficient((0, 1, 0, 0)) == 1.0


coeff_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
small_jets = st.lists(coeff_floats, min_size=10, max_size=10).map(
    lambda cs: Jet(jet_space(2, 3), cs)
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_jets, small_jets, small_jets)
def test_ring_axioms(a, b, c):
    assert_jets_close((a + b) + c, a + (b + c), tol=1e-12)
    assert_jets_close(a * b, b * a, tol=1e-12)
    assert_jets_close((a * b) * c, a * (b * c), tol=1e-10)
    assert_jets_close(a * (b + c), a * b + a * c, tol=1e-11)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(small_jets, coeff_floats)
def test_scalar_ops_consistent(a, s):
    assert_jets_close(a + s, a + jet_const(a.space, s), tol=1e-14)
    assert_jets_close(s - a, jet_const(a.space, s) - a, tol=1e-14)
    assert_jets_close(a * s, jet_const(a.space, s) * a, tol=1e-14)


# signed zeros among the coefficients, so a flipped -0.0 shows in the bytes
signed_floats = st.sampled_from([0.0, -0.0]) | coeff_floats


@st.composite
def mixed_order_pairs(draw):
    dim = draw(st.integers(1, 4))

    def jet(order):
        size = jet_space(dim, order).size
        parts = draw(st.lists(st.tuples(signed_floats, signed_floats),
                              min_size=size, max_size=size))
        return Jet(jet_space(dim, order), [complex(re, im) for re, im in parts])

    return jet(draw(st.integers(0, 5))), jet(draw(st.integers(0, 5)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(mixed_order_pairs())
def test_mixed_orders_combine_at_the_lower_order(pair):
    a, b = pair
    k = min(a.order, b.order)
    at, bt = a.truncate(k), b.truncate(k)
    for mixed, truncated in (
        (a + b, at + bt), (a - b, at - bt), (b - a, bt - at), (a * b, at * bt)
    ):
        assert mixed.order == k
        assert mixed.space is truncated.space
        assert mixed.coeffs.tobytes() == truncated.coeffs.tobytes()


def _signed_jet(draw, dim, order):
    size = jet_space(dim, order).size
    parts = draw(st.lists(st.tuples(signed_floats, signed_floats),
                          min_size=size, max_size=size))
    return Jet(jet_space(dim, order), [complex(re, im) for re, im in parts])


@pytest.mark.parametrize("dim,order", [(1, 2), (2, 2), (3, 3), (4, 5)])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_derivative_rows_match_partials(dim, order, data):
    jet = _signed_jet(data.draw, dim, order)
    grad = np.array([jet.partial(a).value for a in range(dim)])
    hess = np.array([[jet.partial(a).partial(b).value for b in range(dim)]
                     for a in range(dim)])
    assert jet.gradient().tobytes() == grad.tobytes()
    assert jet.hessian().tobytes() == hess.tobytes()


def test_derivative_rows_need_the_order():
    space = jet_space(2, 1)
    first = 3.0 * jet_var(space, 0, 0.5) - jet_var(space, 1, 0.2)
    assert first.gradient().tolist() == [3.0, -1.0]
    with pytest.raises(InsufficientJetOrder):
        first.hessian()
    with pytest.raises(InsufficientJetOrder):
        jet_const(jet_space(2, 0), 1.0).gradient()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_scaling_is_the_table_product_by_a_constant(data):
    dim, order = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5))
    jet = _signed_jet(data.draw, dim, order)
    c = complex(*data.draw(st.tuples(signed_floats, signed_floats)))
    const = jet_const(jet.space, c)
    assert jet.scale(c).coeffs.tobytes() == (const * jet).coeffs.tobytes()
    # a real constant, as the expression compiler folds, on either side
    real = jet_const(jet.space, c.real)
    assert jet.scale(c.real).coeffs.tobytes() == (jet * real).coeffs.tobytes()


def _horner_from_a_constant_jet(jet, series):
    # every step through the product table, the first from the constant
    # jet of the leading term
    u = jet - jet.value
    out = jet_const(jet.space, series[-1])
    for m in range(len(series) - 2, -1, -1):
        out = out * u + series[m]
    return out


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_horner_start_keeps_the_bits(data):
    dim, order = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5))
    jet = _signed_jet(data.draw, dim, order)
    series = [complex(*data.draw(st.tuples(signed_floats, signed_floats)))
              for _ in range(order + 1)]
    want = _horner_from_a_constant_jet(jet, series).coeffs.tobytes()
    assert _horner(jet.space, jet.coeffs, series).tobytes() == want


def _signed_rows(rng, shape):
    # complex rows whose parts are about one third +0.0 or -0.0, so a
    # flipped sign of zero shows in the bytes
    parts = rng.uniform(-3.0, 3.0, (2,) + shape)
    parts[rng.random(parts.shape) < 0.3] = 0.0
    parts *= rng.choice([1.0, -1.0], parts.shape)
    rows = np.empty(shape, dtype=np.complex128)
    rows.real, rows.imag = parts
    return rows


# leading shapes of the two stacks: equal, an outer product, one row
# against a stack, and a stack against one row
STACK_SHAPES = [((3,), (3,)), ((2, 1), (1, 3)), ((), (2,)), ((2, 2), ())]

# the floating-point traps every CLI point runs under
TRAPS = dict(over="raise", invalid="raise", divide="raise")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 4]), orders=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       shapes=st.sampled_from(STACK_SHAPES), seed=st.integers(0, 2 ** 32 - 1),
       cap=st.integers(1, 200))
def test_batched_mul_is_the_jet_product_row_by_row(dim, orders, shapes, seed, cap):
    rng = np.random.default_rng(seed)
    spaces = [jet_space(dim, order) for order in orders]
    a, b = (_signed_rows(rng, shape + (sp.size,)) for shape, sp in zip(shapes, spaces))
    space = jet_space(dim, min(orders))
    shape = np.broadcast_shapes(*shapes)
    with np.errstate(**TRAPS):
        got = batched_mul(space, a, b)
        assert got.shape == shape + (space.size,)
        a_all = np.broadcast_to(a, shape + a.shape[-1:])
        b_all = np.broadcast_to(b, shape + b.shape[-1:])
        for idx in np.ndindex(shape):
            want = Jet(spaces[0], a_all[idx]) * Jet(spaces[1], b_all[idx])
            assert want.space is space
            assert got[idx].tobytes() == want.coeffs.tobytes()
        # a budget below one row's table takes the rows one at a time
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jets, "CHUNK", cap)
            assert batched_mul(space, a, b).tobytes() == got.tobytes()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 4]), order=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_partial_is_the_jet_partial_row_by_row(dim, order, seed):
    space = jet_space(dim, order)
    rows = _signed_rows(np.random.default_rng(seed), (3, space.size))
    for var in range(dim):
        got = batched_partial(space, rows, var)
        for row, out in zip(rows, got):
            assert out.tobytes() == Jet(space, row).partial(var).coeffs.tobytes()
    with pytest.raises(InsufficientJetOrder):
        batched_partial(jet_space(dim, 0), rows[:, :1], 0)


def test_stacked_jets_have_the_bits_of_each_row():
    # one compiled expression with every series the DSL has, evaluated on a
    # stack of three points and on each point alone; the reads, a partial, a
    # truncation and a stacked matrix inverse agree row by row too
    from starquant.expr import jet_function, parse

    fn = jet_function(parse("exp(x1)*sin(p1) - cos(x1*p1)/(2 + p1^2) + sqrt(3 + x1)"
                            " * log(4 - p1) + 1/(1.5 + x1)^0.75 + x1^3*p1", 1))
    space = jet_space(2, 3)
    points = np.array([[0.3, -0.7], [-0.4, 0.2], [1.1, 0.9]])
    xs, ps = space.variables(points)
    stacked = fn([xs], [ps])
    assert stacked.coeffs.shape == (3, space.size)
    for row, point in zip(range(3), points):
        x, p = space.variables(point)
        alone = fn([x], [p])
        assert stacked.coeffs[row].tobytes() == alone.coeffs.tobytes()
        assert stacked.gradient()[row].tobytes() == alone.gradient().tobytes()
        assert stacked.hessian()[row].tobytes() == alone.hessian().tobytes()
        assert stacked.partial(1).coeffs[row].tobytes() == alone.partial(1).coeffs.tobytes()
        assert stacked.truncate(1).coeffs[row].tobytes() == alone.truncate(1).coeffs.tobytes()
        matrix = np.array([[stacked, xs], [ps, stacked * stacked]], dtype=object)
        inverse = jet_matrix_inverse(matrix)
        alone_inverse = jet_matrix_inverse(np.array([[alone, x], [p, alone * alone]],
                                                    dtype=object))
        for a in range(2):
            for b in range(2):
                assert (inverse[a, b].coeffs[row].tobytes()
                        == alone_inverse[a, b].coeffs.tobytes())
    # the domain checks run row by row: one bad row fails the stack
    with pytest.raises(JetDomainError, match="log needs a positive real value"):
        apply_unary(xs - 1.0, "log")
    with pytest.raises(JetDomainError, match="fractional power"):
        pow_const(xs, 0.5)
