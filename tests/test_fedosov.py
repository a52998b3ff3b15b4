"""Formal Wick algebra tests: Hodge-type identities of the fiber
differential, lifted Bianchi identities, closure of the degree recursion,
flat sections, the star product against the Poisson bracket, and the
curvature trace form."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from oracles import (
    _bump,
    reference_chern_weyl,
    reference_chern_weyl_closedness,
    reference_contraction_rows,
    reference_delta_inv_pair,
    reference_delta_pair,
    reference_extended_D,
    reference_sum,
    reference_v_divide,
    reference_wick_product,
    reference_wick_scalar_parts,
    wedge_merge,
)
from starquant import fedosov as fd
from starquant import jets
from starquant.errors import StarquantError
from starquant.expr import parse
from starquant.geometry import as_generator, poisson_bracket
from starquant.jets import Jet, PhasePoint, jet_const

PT2 = PhasePoint([0.3, -0.1], [0.7, 0.4])
PT1 = PhasePoint([0.3], [0.7])

FLAT1 = parse("0.5 * p1^2", 1)
FLAT2 = parse("0.5*(p1^2 + p2^2)", 2)
QUARTIC2 = parse("0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2", 2)
EXP1 = parse("0.5 * exp(2*x1) * p1^2", 1)


@pytest.fixture(scope="module")
def curved():
    return fd.build_state(QUARTIC2, PT2, d_max=4)


@pytest.fixture(scope="module")
def flat():
    return fd.build_state(FLAT2, PT2, d_max=4)


@pytest.fixture(scope="module")
def exp1():
    return fd.build_state(EXP1, PT1, d_max=4)


def const_space(n, order=1):
    return PhasePoint([0.1] * n, [0.2] * n).jets(order)[0]


def mono(n, cap, space, z, form=(), value=1.0):
    key = (0, tuple(z), tuple(form))
    return fd.WickElement(n, cap, {key: jet_const(space, value)})


def zmonos(n, up_to):
    n2 = 2 * n
    out = [(0,) * n2]
    for total in range(1, up_to + 1):
        grown = []
        for z in out:
            if sum(z) != total - 1:
                continue
            for i in range(n2):
                cand = _bump(z, i, 1)
                if cand not in grown:
                    grown.append(cand)
        out.extend(grown)
    return out


# ---------------------------------------------------------------------------
# wedge bookkeeping


def test_wedge_merge_signs_and_collisions():
    assert wedge_merge((0,), (1,)) == (1, (0, 1))
    assert wedge_merge((1,), (0,)) == (-1, (0, 1))
    assert wedge_merge((0,), (0,)) is None
    assert wedge_merge((), (0, 1)) == (1, (0, 1))
    assert wedge_merge((0, 2), (1,)) == (-1, (0, 1, 2))
    assert wedge_merge((1, 3), (0, 2)) == (-1, (0, 1, 2, 3))


@pytest.mark.parametrize("n2", [2, 4, 6])
def test_key_code_signs_match_wedge_merge(n2):
    codes = fd.KeyCodes(n2)
    for m1, m2 in itertools.product(range(1 << n2), repeat=2):
        if m1 & m2:
            continue
        sign, form = wedge_merge(codes.forms[m1], codes.forms[m2])
        assert codes.sign[m1, m2] == sign, (m1, m2)
        assert form == codes.forms[m1 | m2]


# ---------------------------------------------------------------------------
# container mechanics


def test_element_algebra_and_pruning():
    space = const_space(1)
    a = mono(1, 4, space, (1, 0))
    b = mono(1, 4, space, (0, 1), (0,))
    s = a + b - a
    assert set(s.terms) == {(0, (0, 1), (0,))}
    assert (a - a).is_zero()
    assert a.scale(2.0).max_abs() == 2.0
    assert a.restrict(0).terms == {}

    shifted = a.vshift(1)
    assert list(shifted.terms) == [(1, (1, 0), ())]
    with pytest.raises(StarquantError):
        shifted.vshift(-2)

    # addition re-truncates: Deg 5 never survives in a cap-4 container
    heavy = mono(1, 4, space, (3, 2))
    assert (heavy + fd.WickElement.zero(1, 4)).terms == {}

    even, odd = (a + b).form_split()
    assert set(even.terms) == {(0, (1, 0), ())}
    assert set(odd.terms) == {(0, (0, 1), (0,))}

    with pytest.raises(ValueError):
        a + mono(1, 5, space, (1, 0))


def test_element_guards_keep_keys_and_jets_apart():
    # n = 4 gives 6-bit fields for the z exponents and r, so Deg 64 would
    # carry into the next field
    with pytest.raises(ValueError, match="Deg 64 overflows the 6-bit key fields"):
        fd.WickElement(4, 64, {})
    fd.WickElement(4, 63, {})
    with pytest.raises(ValueError, match="Deg 70 overflows"):
        fd.WickElement(4, 8, {(0, (70,) + (0,) * 7, ()): jet_const(const_space(4), 1.0)})
    # one stack holds the coefficients, so their jets share one dimension
    terms = {(0, (1, 0), ()): jet_const(const_space(1), 1.0),
             (0, (0, 1), ()): jet_const(const_space(2), 1.0)}
    with pytest.raises(ValueError, match=r"jets of dimensions \[2, 4\] do not combine"):
        fd.WickElement(1, 4, terms)


def test_from_jet_and_scalar_part():
    space = const_space(1)
    j = jet_const(space, 2.5)
    a = fd.WickElement.from_jet(j, 1, 4)
    assert a.scalar_part(0).value == 2.5
    assert a.scalar_part(1) is None
    assert fd.sigma(a).max_abs() == 2.5


def test_sigma_keeps_only_scalar_terms():
    space = const_space(1)
    a = (
        mono(1, 6, space, (0, 0))
        + mono(1, 6, space, (1, 0))
        + mono(1, 6, space, (0, 0), (0,))
        + mono(1, 6, space, (0, 0)).vshift(1)
    )
    assert set(fd.sigma(a).terms) == {(0, (0, 0), ()), (1, (0, 0), ())}


# ---------------------------------------------------------------------------
# the fiber differential pair


def test_hodge_identity_exact_on_monomials():
    space = const_space(1)
    cap = 8  # two degrees of headroom over the probed Deg 6
    worst = 0.0
    count = 0
    for z in zmonos(1, 6):
        for form in [(), (0,), (1,), (0, 1)]:
            a = mono(1, cap, space, z, form)
            back = (
                fd.delta_pair(fd.delta_inv_pair(a))
                + fd.delta_inv_pair(fd.delta_pair(a))
                + fd.sigma(a)
            )
            worst = max(worst, (back - a).max_abs())
            worst = max(worst, fd.delta_pair(fd.delta_pair(a)).max_abs())
            worst = max(worst, fd.delta_inv_pair(fd.delta_inv_pair(a)).max_abs())
            count += 1
    assert count == 112
    assert worst == 0.0


def test_delta_inv_weights():
    space = const_space(1)
    a = mono(1, 6, space, (1, 0), (0, 1))
    out = fd.delta_inv_pair(a)
    got = {k: c.value for k, c in out.terms.items()}
    third = 1.0 / 3.0
    assert got == {
        (0, (2, 0), (1,)): third,
        (0, (1, 1), (0,)): -third,
    }


# ---------------------------------------------------------------------------
# the fiberwise product


def flat_lam(space):
    lam = np.empty((2, 2), dtype=object)
    vals = [[-1j, -1.0], [1.0, -1j]]
    for a in range(2):
        for b in range(2):
            lam[a, b] = jet_const(space, vals[a][b])
    return fd.WickPairing(lam)


def test_wick_single_contraction():
    space = const_space(1, order=2)
    lam = flat_lam(space)
    z1 = mono(1, 6, space, (1, 0))
    z2 = mono(1, 6, space, (0, 1))
    prod = fd.wick_product(z1, z2, lam)
    got = {k: c.value for k, c in prod.terms.items()}
    assert got[(0, (1, 1), ())] == 1.0
    assert got[(1, (0, 0), ())] == 0.5j * -1.0
    comm = prod - fd.wick_product(z2, z1, lam)
    got = {k: c.value for k, c in comm.terms.items()}
    assert got == {(1, (0, 0), ()): -1j}


def test_wick_degree_additive_and_capped():
    space = const_space(1, order=2)
    lam = flat_lam(space)
    a = mono(1, 4, space, (2, 0))
    b = mono(1, 4, space, (0, 3))
    assert fd.wick_product(a, b, lam).terms == {}
    roomy = fd.wick_product(mono(1, 6, space, (2, 0)), mono(1, 6, space, (0, 3)), lam)
    assert all(2 * r + sum(z) == 5 for (r, z, _) in roomy.terms)


def test_wick_associative_without_truncation():
    space = const_space(1, order=2)
    lam = flat_lam(space)
    a = mono(1, 12, space, (2, 0)) + mono(1, 12, space, (0, 1))
    b = mono(1, 12, space, (1, 1))
    c = mono(1, 12, space, (0, 2)) + mono(1, 12, space, (1, 0))
    left = fd.wick_product(fd.wick_product(a, b, lam), c, lam)
    right = fd.wick_product(a, fd.wick_product(b, c, lam), lam)
    assert (left - right).max_abs() <= 1e-13


def test_ad_wick_matches_graded_commutator():
    space = const_space(1, order=2)
    lam = flat_lam(space)
    x_odd = mono(1, 8, space, (1, 0), (0,))
    a_odd = mono(1, 8, space, (0, 1), (1,))
    a_even = mono(1, 8, space, (0, 2))
    # odd-odd anticommutes, odd-even commutes
    want = fd.wick_product(x_odd, a_odd, lam) + fd.wick_product(a_odd, x_odd, lam)
    assert (fd.ad_wick(x_odd, a_odd, lam) - want).max_abs() == 0.0
    want = fd.wick_product(x_odd, a_even, lam) - fd.wick_product(a_even, x_odd, lam)
    assert (fd.ad_wick(x_odd, a_even, lam) - want).max_abs() == 0.0


def test_v_divide_shifts_and_guards():
    space = const_space(1)
    a = mono(1, 6, space, (1, 0)).vshift(1) + mono(1, 6, space, (0, 0)).vshift(2)
    out = fd.v_divide(a)
    assert set(out.terms) == {(0, (1, 0), ()), (1, (0, 0), ())}
    with pytest.raises(StarquantError):
        fd.v_divide(mono(1, 6, space, (1, 0)))
    # the guard is relative to the element size
    big = mono(1, 6, space, (1, 0), value=1e9).vshift(1)
    noisy = big + mono(1, 6, space, (0, 0), value=1e-7)
    assert fd.v_divide(noisy).max_abs() == 1e9


# ---------------------------------------------------------------------------
# covariant operator, lifts, and their identities at a curved family


def probe_basis(state):
    space = state.geometry.space
    els = []
    for z in zmonos(state.n, 2):
        for form in [(), (0,), (2 * state.n - 1,)]:
            els.append(mono(state.n, state.d_alg, space, z, form))
    return els


def test_lifted_bianchi_identities(curved):
    geo = curved.geometry
    tl, rl = curved.torsion_lift, curved.curvature_lift
    assert tl.max_abs() > 0.1
    assert rl.max_abs() > 0.1
    assert fd.delta_pair(tl).max_abs() <= 1e-13
    assert (fd.delta_pair(rl) - fd.extended_D(tl, geo)).max_abs() <= 1e-12
    assert fd.extended_D(rl, geo).max_abs() <= 1e-12


def test_commutator_identities(curved):
    geo, lam = curved.geometry, curved.lam
    tl, rl = curved.torsion_lift, curved.curvature_lift
    worst_t = worst_r = 0.0
    for a in probe_basis(curved):
        anti = fd.extended_D(fd.delta_pair(a), geo) + fd.delta_pair(
            fd.extended_D(a, geo)
        )
        rhs = fd.v_divide(fd.ad_wick(tl, a, lam).scale(1j))
        worst_t = max(worst_t, (anti - rhs).max_abs())
        twice = fd.extended_D(fd.extended_D(a, geo), geo)
        rhs = fd.v_divide(fd.ad_wick(rl, a, lam).scale(1j))
        worst_r = max(worst_r, (twice + rhs).max_abs())
    assert worst_t <= 1e-12
    assert worst_r <= 1e-12


def test_extended_D_leibniz(curved):
    geo, lam = curved.geometry, curved.lam
    space = geo.space
    a = mono(2, curved.d_alg, space, (1, 0, 0, 0), (0,))
    b = mono(2, curved.d_alg, space, (0, 1, 1, 0))
    left = fd.extended_D(fd.wick_product(a, b, lam), geo)
    right = fd.wick_product(fd.extended_D(a, geo), b, lam) - fd.wick_product(
        a, fd.extended_D(b, geo), lam
    )
    assert (left - right).max_abs() <= 1e-12


# ---------------------------------------------------------------------------
# the degree recursion


def test_flat_state_fully_degenerate(flat):
    assert flat.torsion_lift.is_zero()
    assert flat.curvature_lift.is_zero()
    assert flat.r.is_zero()
    assert fd.recursion_residual(flat) == 0.0
    gam, kap, c0 = fd.chern_weyl(flat)
    assert np.abs(gam).max() <= 1e-14
    assert np.abs(kap).max() <= 1e-14
    assert np.abs(c0).max() <= 1e-14


def test_exp_family_flat_but_connected(exp1):
    gam_vals = np.array([[abs(v.value) for v in row] for row in
                         exp1.geometry.connection("phi_pair").reshape(2, 4)])
    assert gam_vals.max() > 0.5
    assert exp1.torsion_lift.is_zero()
    assert exp1.curvature_lift.is_zero()
    assert exp1.r.is_zero()
    assert fd.tau_flatness(fd.tau_lift(parse("x1 * p1", 1), exp1)[0], exp1) <= 1e-12


def test_curved_recursion_closes(curved):
    assert curved.r.max_abs() > 0.1
    assert fd.recursion_residual(curved) <= 1e-12
    assert fd.delta_inv_pair(curved.r).max_abs() == 0.0
    for m, c in curved.r_components.items():
        assert {2 * r + sum(z) for (r, z, _) in c.terms} == {m}


def test_curved_flat_connection_defect(curved):
    space = curved.geometry.space
    for z in [(1, 0, 0, 0), (0, 0, 1, 0)]:
        probe = mono(2, curved.d_alg, space, z)
        assert fd.flat_connection_defect(probe, curved) <= 1e-12


def same_bits(got, want):
    return list(got.terms) == list(want.terms) and all(
        got.terms[k].coeffs.tobytes() == want.terms[k].coeffs.tobytes()
        for k in got.terms
    )


# the inputs of the scalar reads: a module fixture by name, or what to build
PRODUCT_STATES = {
    "flat-1": (FLAT1, PT1, 4),
    "flat-2": "flat",
    "exp-conformal": "exp1",
    "quartic-3": (QUARTIC2, PT2, 3),
    "quartic-4": "curved",
    "quartic-5": (QUARTIC2, PT2, 5),
}


def state_of(spec, request):
    return request.getfixturevalue(spec) if isinstance(spec, str) else fd.build_state(*spec)


def product_operands(state):
    """Forms of both parities, jet coefficients that vary over the chart,
    fiber terms, and a Deg 0 term so that every cap keeps something."""
    n = state.n
    x1 = fd.WickElement.from_jet(state.geometry.base_jets[0], n, state.d_alg)
    lifted, _ = fd.tau_lift(parse("x1 * p1", n), state)
    other, _ = fd.tau_lift(parse("x1^2 + p1", n), state)
    a = (other.restrict(1) + fd.extended_D(x1, state.geometry)
         + state.r_components[2] + state.r_components[3])
    b = (lifted + fd.extended_D(lifted, state.geometry)).restrict(2)
    return a, b, lifted, other


@pytest.mark.parametrize("name", list(PRODUCT_STATES))
def test_capped_product_is_the_restricted_product(name, request):
    state = state_of(PRODUCT_STATES[name], request)
    lam = state.lam
    a, b, lifted, other = product_operands(state)
    assert {len(f) for (_, _, f) in a.terms} == {0, 1}
    assert {len(f) for (_, _, f) in b.terms} == {0, 1}
    for product in (fd.wick_product, fd.ad_wick):
        full = product(a, b, lam)
        assert full.terms
        for cap in range(state.d_alg + 2):
            capped = product(a, b, lam, cap)
            assert capped.d_max == state.d_alg
            assert same_bits(capped, full.restrict(cap)), (product.__name__, cap)
    # the scalar reads of star: two lifts, in both orders; v_max runs past
    # d_alg / 2, where the container caps the read below 2 v_max
    for left, right in ((a, b), (lifted, other), (other, lifted)):
        full = fd.wick_product(left, right, lam)
        for v_max in range(state.d_max // 2 + 3):
            parts = fd.wick_scalar_parts(left, right, lam, v_max)
            want = full.scalar_parts(v_max)
            assert list(parts) == list(want) and parts, v_max
            assert all(parts[r].coeffs.tobytes() == want[r].coeffs.tobytes()
                       for r in parts), v_max


def jets_cut_to(a, order):
    return fd.WickElement(a.n, a.d_max, {k: c.truncate(min(order, c.order))
                                         for k, c in a.terms.items()})


def jets_mixed(a):
    """a with its terms cut to jet orders 1, 2, 3, 1, ... in turn."""
    return fd.WickElement(a.n, a.d_max, {k: c.truncate(min(1 + m % 3, c.order))
                                         for m, (k, c) in enumerate(a.terms.items())})


def with_signed_zeros(a):
    """a with every other coefficient of every other term set to -0.0 in
    both parts, and its first term all -0.0."""
    terms = {}
    for m, (k, c) in enumerate(a.terms.items()):
        coeffs = c.coeffs.copy()
        if m == 0:
            coeffs[:] = complex(-0.0, -0.0)
        elif m % 2:
            coeffs[::2] = complex(-0.0, -0.0)
        terms[k] = Jet(c.space, coeffs)
    return fd.WickElement(a.n, a.d_max, terms)


def same_terms(got, want):
    """Same keys in the same order, each jet of the same order and bits."""
    return list(got) == list(want) and all(
        got[k].order == want[k].order and got[k].coeffs.tobytes() == want[k].coeffs.tobytes()
        for k in got)


# the floating-point traps every CLI point runs under
TRAPS = dict(over="raise", invalid="raise", divide="raise")

QUARTIC3 = parse("0.5*(p1^2 + p2^2 + p3^2) + x3^2 * p1^2 / 2", 3)
PT3 = PhasePoint([0.3, -0.1, 0.2], [0.7, 0.4, -0.5])
ORACLE_STATES = {**PRODUCT_STATES, "quartic-n3": (QUARTIC3, PT3, 3)}


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_products_match_the_per_jet_loops(name, request):
    # wick_product, wick_scalar_parts and the element operations on key
    # codes and coefficient stacks against one Jet product and one Jet sum
    # per piece
    state = state_of(ORACLE_STATES[name], request)
    lam = state.lam
    a, b, _, _ = product_operands(state)
    variants = {"plain": (a, b), "cut": (jets_cut_to(a, 2), b),
                "mixed": (jets_mixed(a), jets_mixed(b)),
                "signed zeros": (with_signed_zeros(a), with_signed_zeros(b))}
    with np.errstate(**TRAPS):
        for label, (x, y) in variants.items():
            # every cap on the plain operands; no cap and a binding one on
            # the others
            caps = range(state.d_alg + 2) if label == "plain" else (state.d_max,)
            for left, right in ((x, y), (y, x)):
                for cap in (None, *caps):
                    got = fd.wick_product(left, right, lam, cap)
                    want = reference_wick_product(left, right, lam, cap)
                    assert same_terms(got.terms, want.terms), (label, cap)
                for v_max in range(state.d_max // 2 + 3):
                    got = fd.wick_scalar_parts(left, right, lam, v_max)
                    want = reference_wick_scalar_parts(left, right, lam, v_max)
                    assert same_terms(got, want), (label, v_max)
                # the element operations; tol 1.0 passes any finite v^0 part
                ops = {"+": (left + right, reference_sum(left, right)),
                       "delta": (fd.delta_pair(left), reference_delta_pair(left)),
                       "delta_inv": (fd.delta_inv_pair(left), reference_delta_inv_pair(left)),
                       "D": (fd.extended_D(left, state.geometry),
                             reference_extended_D(left, state.geometry)),
                       "v_divide": (fd.v_divide(left + right.vshift(1), 1.0),
                                    reference_v_divide(left + right.vshift(1), 1.0))}
                for op, (got, want) in ops.items():
                    assert same_terms(got.terms, want.terms), (label, op)
    # every entry the products left in the table, against the per-jet walk
    codes = lam.codes
    for (za, zb), (order, entry) in lam._table.items():
        rows = reference_contraction_rows(lam.matrix, za, zb, order)
        assert entry.t.tolist() == [t for t, _, _ in rows]
        assert entry.orders.tolist() == [w.order for _, _, w in rows]
        base = (np.add(za, zb) @ codes.zplace) + entry.offsets
        assert codes.keys(base) == [(t, zt, ()) for t, zt, _ in rows]
        for got, (_, _, w) in zip(entry.weights, rows):
            assert got[: w.coeffs.size].tobytes() == w.coeffs.tobytes()
            assert not got[w.coeffs.size :].any()


def test_chunk_budget_is_invisible(curved, monkeypatch):
    # a budget of one pair product takes the pair plans, the walks, the
    # contributions of D, delta, delta_inv and the sums, and the jet
    # products one pair, one state and one row at a time
    a, b, lifted, other = product_operands(curved)
    runs, traces = [], []
    geo = curved.geometry
    for budget in (jets.CHUNK, 1):
        monkeypatch.setattr(jets, "CHUNK", budget)
        # the trace form on a fresh geometry, whose stacks are built anew
        fresh = dataclasses.replace(curved, geometry=fd.GeometryAtPoint(geo.fn, geo.point,
                                                                        geo.order))
        traces.append(trace_form(fresh))
        pairing = fd.WickPairing(curved.lam.matrix)
        runs.append((fd.wick_product(a, b, pairing).terms,
                     fd.wick_product(b, a, pairing, curved.d_max).terms,
                     fd.wick_scalar_parts(lifted, other, pairing, 2),
                     fd.extended_D(a, geo).terms, fd.extended_D(b, geo).terms,
                     fd.delta_pair(a).terms, fd.delta_inv_pair(a).terms,
                     (a + b).terms, (b - a).terms))
    for got, want in zip(*runs):
        assert same_terms(got, want)
    assert traces[0] == traces[1]


def test_largest_star_product_stays_small(curved):
    # the largest Wick product of a star run on the quartic at D_max 4, the
    # recursion's 78 x 28 terms, on a fresh table: its walk is traced too;
    # and D of the largest component of r
    a, b = curved.r_components[3], curved.r_components[2]
    assert (len(a.terms), len(b.terms)) == (78, 28)
    pairing = fd.WickPairing(curved.lam.matrix)
    c = curved.r_components[4]
    assert len(c.terms) == 172
    peaks = []
    for run in (lambda: fd.wick_product(a, b, pairing), lambda: fd.extended_D(c, curved.geometry)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 * 2 ** 20


def test_contraction_table_fill_order_is_invisible(curved):
    x1 = fd.WickElement.from_jet(curved.geometry.base_jets[0], 2, curved.d_alg)
    a = x1 + curved.r_components[2] + curved.r_components[3]
    b, _ = fd.tau_lift(parse("x1^2 + p2", 2), curved)
    pairs = {"low": (jets_cut_to(a, 2), jets_cut_to(b, 2)), "high": (a, b)}
    matrix = curved.lam.matrix
    fresh = {k: fd.wick_product(*pair, fd.WickPairing(matrix)) for k, pair in pairs.items()}
    za = next(z for (_, z, _) in a.terms if sum(z) == 2)
    zb = next(z for (_, z, _) in b.terms if sum(z) == 2)
    stored = lambda pairing: set(pairing.contractions(za, zb, 0).orders.tolist())
    orders = []
    for first, second in (("low", "high"), ("high", "low")):
        pairing = fd.WickPairing(matrix)
        assert same_bits(fd.wick_product(*pairs[first], pairing), fresh[first])
        orders.append(stored(pairing))
        assert same_bits(fd.wick_product(*pairs[second], pairing), fresh[second])
        orders.append(stored(pairing))
    # the deeper read rebuilt the weights; the shallower one kept them
    low, rebuilt, high, kept = orders
    assert low == {2} and len(high) == 1 and max(high) > 2
    assert rebuilt == high == kept


def test_states_do_not_share_a_table(curved):
    other = fd.build_state(QUARTIC2, PhasePoint([-0.2, 0.25], [0.5, -0.3]), d_max=4)
    assert other.lam is not curved.lam
    za, zb = (1, 0, 0, 0), (0, 0, 1, 0)
    for state in (curved, other, curved):
        rows = state.lam.contractions(za, zb, state.lam.order)
        assert rows.t.tolist() == [1]
        want = state.lam.matrix[0, 2] * 1.0 * 1 * 0.5j
        assert rows.orders.tolist() == [want.order]
        assert rows.weights[0].tobytes() == want.coeffs.tobytes()


def test_scalar_reads_form_no_product(curved, monkeypatch):
    tf, _ = fd.tau_lift(parse("x1 * p1", 2), curved)
    tg, _ = fd.tau_lift(parse("x1^2 + p2", 2), curved)
    want = fd.wick_product(tf, tg, curved.lam).scalar_parts(3)

    def refuse(*args, **kwargs):
        raise AssertionError("a scalar read formed the whole product")

    monkeypatch.setattr(fd, "wick_product", refuse)
    got = fd.wick_scalar_parts(tf, tg, curved.lam, 3)
    assert list(got) == list(want) == [0, 1, 2, 3]
    assert all(got[r].coeffs.tobytes() == want[r].coeffs.tobytes() for r in got)


def test_capped_callers_match_uncapped(curved, monkeypatch):
    probe = fd.WickElement(2, curved.d_alg,
                           {(0, (1, 0, 0, 0), ()): curved.geometry.base_jets[0]})
    lifted, _ = fd.tau_lift(parse("x1 * p1", 2), curved)
    callers = (lambda: fd.recursion_residual(curved),
               lambda: fd.tau_flatness(lifted, curved),
               lambda: fd.flat_connection_defect(probe, curved))
    divide, seen = fd.v_divide, []

    def recording_divide(a, tol=1e-12):
        seen.append((sum(1 for (r, _, _) in a.terms if r == 0), a.max_abs()))
        return divide(a, tol)

    monkeypatch.setattr(fd, "v_divide", recording_divide)
    capped = [call() for call in callers]
    capped_seen, seen = seen, []
    wick = fd.wick_product
    monkeypatch.setattr(fd, "wick_product", lambda a, b, lam, cap=None: wick(a, b, lam))
    assert [call() for call in callers] == capped
    # the cap shrinks max_abs, and with it the tolerance of the v^0 guard in
    # v_divide; the v^0 part is empty with and without the cap, so the
    # guard cannot change an outcome
    assert len(seen) == len(capped_seen)
    assert all(count == 0 for count, _ in seen + capped_seen)
    assert min(size for _, size in capped_seen) > 1.0
    assert any(c < u for (_, c), (_, u) in zip(capped_seen, seen))


def test_recursion_guard_raises_on_inconsistent_lift():
    state = fd.build_state(QUARTIC2, PT2, d_max=3)
    state.torsion_lift = state.torsion_lift.scale(-1.0)
    with pytest.raises(StarquantError):
        fd.fedosov_r(state)


@pytest.mark.parametrize("d_max", [3, 4, 5])
@pytest.mark.parametrize("name", ["flat", "exp-conformal", "quartic"])
def test_closure_defects_match_the_references(name, d_max):
    # the defects of the degree steps against the fresh r o r and the
    # flat connection applied to the finished lift
    generator, pt, n = {"flat": (FLAT2, PT2, 2), "exp-conformal": (EXP1, PT1, 1),
                        "quartic": (QUARTIC2, PT2, 2)}[name]
    state = fd.build_state(generator, pt, d_max)
    assert abs(state.residual - fd.recursion_residual(state)) <= 1e-12
    for source in ("x1 * p1", "x1^2 + p1"):
        lifted, defect = fd.tau_lift(parse(source, n), state)
        assert abs(defect - fd.tau_flatness(lifted, state)) <= 1e-12


def test_recursion_guard_raises_on_scaled_curvature():
    state = fd.build_state(QUARTIC2, PT2, d_max=3)
    state.curvature_lift = state.curvature_lift.scale(1.5)
    with pytest.raises(StarquantError, match="failed to close"):
        fd.fedosov_r(state)


def test_lift_defect_sees_a_corrupted_connection(curved):
    # doubling one component of r breaks the flatness the lift solves for;
    # the state is copied so the fixture stays intact
    comps = dict(curved.r_components)
    comps[3] = comps[3].scale(2.0)
    r = fd.WickElement.zero(2, curved.d_alg)
    for m in sorted(comps):
        r = r + comps[m]
    broken = dataclasses.replace(curved, r=r, r_components=comps)
    lifted, defect = fd.tau_lift(parse("x1 * p1", 2), broken)
    assert defect > 1.0
    assert abs(defect - fd.tau_flatness(lifted, broken)) <= 1e-12


def test_maxima_keep_nan(curved):
    space = curved.geometry.space
    nan = float("nan")
    a = fd.WickElement(2, curved.d_alg, {(0, (1, 0, 0, 0), ()): jet_const(space, 1.0),
                                         (0, (0, 1, 0, 0), ()): jet_const(space, nan)})
    assert math.isnan(a.max_abs())
    # a NaN v^0 part is not known to vanish
    with pytest.raises(StarquantError, match="nan"):
        fd.v_divide(a.vshift(1) + a)
    assert set(fd.v_divide(a.vshift(1)).terms) == set(a.terms)
    # the defect of the degree solver
    _, defect = fd._solve_degrees(a, {}, [1], lambda m: a)
    assert math.isnan(defect)


def test_nan_in_r_reaches_the_closure_defect(curved):
    # a NaN in one v^1 term of r reaches the closure defect through delta,
    # D and r o r; the v^0 part that v_divide guards stays finite
    terms = dict(curved.r.terms)
    key = next(k for k in terms if k[0] == 1)
    coeffs = terms[key].coeffs.copy()
    coeffs[0] = float("nan")
    terms[key] = Jet(terms[key].space, coeffs)
    broken = dataclasses.replace(curved, r=fd.WickElement(2, curved.d_alg, terms))
    assert fd.recursion_residual(curved) <= 1e-12
    assert math.isnan(fd.recursion_residual(broken))


def test_state_stores_the_closure_residual():
    state = fd.build_state(QUARTIC2, PT2, 3)
    assert state.residual == fd.recursion_residual(state)


def test_build_state_validation():
    with pytest.raises(ValueError):
        fd.build_state(FLAT2, PT2, d_max=1)


# ---------------------------------------------------------------------------
# flat sections and the star product


def test_tau_projects_and_is_flat(curved):
    f = parse("x1 * p1", 2)
    lifted, _ = fd.tau_lift(f, curved)
    assert lifted.scalar_part(0).value == pytest.approx(0.3 * 0.7, abs=1e-14)
    assert fd.tau_flatness(lifted, curved) <= 1e-12


@pytest.mark.parametrize("d_max", [3, 4, 5])
def test_read_orders_cut_the_components_to_their_prefix(d_max):
    # a state and a lift for reads of values keep comp[k] to r_order and
    # t[m] to lift_order (capped at each jet's own order), and what they
    # keep has the bits of the full-order components
    full = fd.build_state(QUARTIC2, PT2, d_max)
    cut = fd.build_state(QUARTIC2, PT2, d_max, read=0)
    f = parse("x1 * p1", 2)
    pairs = [(cut.r_components[k], full.r_components[k], fd.r_order) for k in full.r_components]
    pairs.append((fd.tau_lift(f, cut, read=0)[0], fd.tau_lift(f, full)[0], fd.lift_order))
    shorter = 0
    for kept, whole, order in pairs:
        assert kept.terms.keys() == whole.terms.keys()
        for (r, z, form), c in kept.terms.items():
            w = whole.terms[(r, z, form)]
            # the terms of comp[k] and of t[m] have Deg k and m
            assert c.order == min(order(0, d_max, 2 * r + sum(z)), w.order)
            assert c.coeffs.tobytes() == w.coeffs[: c.space.size].tobytes()
            shorter += c.order < w.order
    assert shorter > 0


def test_scalar_parts_skip_absent_orders(curved):
    prod = fd.wick_product(fd.tau_lift(parse("x1 * p1", 2), curved)[0],
                           fd.tau_lift(parse("x1^2 + p2", 2), curved)[0], curved.lam)
    parts = prod.scalar_parts(3)
    assert set(parts) <= {0, 1, 2, 3}
    for r in range(4):
        assert parts.get(r) is prod.scalar_part(r)
    assert prod.scalar_parts(0).keys() == {0}


def test_star_c0_guard_rejects_nan(flat):
    nan = jet_const(flat.geometry.space, float("nan"))
    with pytest.raises(StarquantError):
        fd.star_product(nan, parse("x1", 2), flat)


def test_star_zeroth_order_is_pointwise_product(curved):
    f = parse("x1 * p1", 2)
    g = parse("x1^2 + p2", 2)
    coeffs = fd.star_product(f, g, curved)
    want = (0.3 * 0.7) * (0.3**2 + 0.4)
    assert coeffs[0] == pytest.approx(want, abs=1e-12)


def test_star_first_order_antisymmetric_part(curved):
    f = parse("x1 * p1", 2)
    g = parse("x1^2 + p2", 2)
    c_fg = fd.star_product(f, g, curved)
    c_gf = fd.star_product(g, f, curved)
    pb = poisson_bracket(as_generator(f), as_generator(g), PT2).value
    assert abs((c_fg[1] - c_gf[1]) - 1j * pb) <= 1e-9


def flat_exponential_product(f_src, g_src, pt, r_max):
    """C_r(f, g) = (1/r!) (i/2)^r lam^{a1 b1} .. lam^{ar br} e_a1..ar f e_b1..br g
    for H = |p|^2 / 2, with sympy on the closed-form oblique frame."""
    n = pt.n
    coords = sp.symbols(f"x1:{n + 1}") + sp.symbols(f"p1:{n + 1}")
    names = {str(c): c for c in coords}
    f, g = (sp.sympify(src.replace("^", "**"), locals=names) for src in (f_src, g_src))
    eye, zero = sp.eye(n), sp.zeros(n)
    # one frame vector per row: e_i = d/dx^i, e_{n+b} = d/dp_b - d/dx^b
    E = sp.Matrix(sp.BlockMatrix([[eye, zero], [-eye, eye]]))
    theta = E * sp.Matrix(sp.BlockMatrix([[zero, -eye], [eye, zero]])) * E.T
    lam = theta - sp.I * (E * E.T).inv()  # the lift metric is I in coordinates

    def along(h, alphas):
        for al in alphas:
            h = sum(E[al, A] * sp.diff(h, coords[A]) for A in range(2 * n))
        return h

    at = dict(zip(coords, pt.x + pt.p))
    out = []
    for r in range(r_max + 1):
        words = list(itertools.product(range(2 * n), repeat=r))
        df = {w: along(f, w).subs(at) for w in words}
        dg = {w: along(g, w).subs(at) for w in words}
        total = sum(sp.prod([lam[a, b] for a, b in zip(wa, wb)]) * df[wa] * dg[wb]
                    for wa in words for wb in words)
        out.append(complex((sp.I / 2) ** r / math.factorial(r) * total))
    return out


@pytest.mark.parametrize("pt, d_max, f, g", [
    (PhasePoint([0.5], [0.4]), 6, "x1^2*p1 + 2*p1^3", "x1^3 + x1*p1^2 + p1^3"),
    (PT2, 6, "x1*p1*p2 + x2^2*p2 + p1^3", "p1*p2^2 + x1^2*x2 + x1^3"),
])
def test_star_on_flat_is_the_exponential_product(pt, d_max, f, g):
    # connection and curvature vanish on flat, so every complete order of
    # the Fedosov product is the constant-coefficient exponential product
    n = pt.n
    flat_h = parse(" + ".join(f"0.5*p{k + 1}^2" for k in range(n)), n)
    state = fd.build_state(flat_h, pt, d_max)
    got = fd.star_product(parse(f, n), parse(g, n), state)
    want = flat_exponential_product(f, g, pt, d_max // 2)
    assert len(got) == len(want) == d_max // 2 + 1
    assert abs(want[-1]) > 1e-2  # the top order is probed, not zero
    for r, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (r, a, b)


@pytest.mark.parametrize("name", ["flat", "exp1", "curved"])
def test_star_product_reads_values_only(name, request, monkeypatch):
    # star_product reads the values of the C_r, so it lifts f and g for
    # reads at order 0; lifts kept at their full orders give the same bits
    state = request.getfixturevalue(name)
    n = state.n
    f, g = (parse(src, n) for src in (("x1*p1 + p1^3", "x1^2 + p1") if n == 1 else
                                      ("x1*p1*p2 + x2^2*p2", "p1*p2^2 + x1^2*x2")))
    reads, lift = [], fd.tau_lift

    def recorded(f, state, read=None):
        reads.append(read)
        return lift(f, state, read)

    monkeypatch.setattr(fd, "tau_lift", recorded)
    got = fd.star_product(f, g, state, v_max=3)
    monkeypatch.setattr(fd, "tau_lift", lambda f, state, read=None: lift(f, state))
    want = fd.star_product(f, g, state, v_max=3)
    assert reads == [0, 0]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_star_first_order_exp_family(exp1):
    f = parse("x1 * p1", 1)
    g = parse("p1", 1)
    c_fg = fd.star_product(f, g, exp1)
    c_gf = fd.star_product(g, f, exp1)
    pb = poisson_bracket(as_generator(f), as_generator(g), PT1).value
    assert abs((c_fg[1] - c_gf[1]) - 1j * pb) <= 1e-10


def test_star_unit(exp1):
    f = parse("x1 * p1", 1)
    one = parse("1 + 0*x1", 1)
    coeffs = fd.star_product(f, one, exp1)
    assert coeffs[0] == pytest.approx(0.3 * 0.7, abs=1e-13)
    assert all(abs(c) <= 1e-13 for c in coeffs[1:])


# ---------------------------------------------------------------------------
# the curvature trace form


def test_chern_gamma_vanishes_kappa_does_not(curved):
    gam, kap, c0 = fd.chern_weyl(curved)
    assert np.abs(gam).max() <= 1e-13
    assert np.abs(c0).max() <= 1e-13
    assert np.abs(kap).max() > 0.01
    assert np.abs(kap + kap.T).max() <= 1e-13
    assert fd.chern_weyl_closedness(curved) <= 1e-12


def trace_form(state):
    return form_bits(*fd.chern_weyl(state), fd._closedness_components(state))


def form_bits(*arrays):
    """The bytes of each array's real and imaginary parts, every NaN part
    as one NaN: x - y and x + (-y) differ in the sign bit of a NaN only."""
    parts = [np.array(x, dtype=np.complex128, ndmin=1).view(np.float64) for x in arrays]
    return [np.where(np.isnan(x), np.nan, x).tobytes() for x in parts]


EXP2 = parse("0.5 * exp(2*x1) * (p1^2 + p2^2)", 2)
# (generator, point, D_max, read order), or a module fixture by name
TRACE_STATES = {
    "quartic-3": (QUARTIC2, PT2, 3, None),
    "quartic-4-read-3": (QUARTIC2, PT2, 4, 3),
    "quartic-6-read-0": (QUARTIC2, PT2, 6, 0),
    "quartic-n3": (QUARTIC3, PT3, 3, None),
    "exp-conformal-1": "exp1",
    "exp-conformal-2": (EXP2, PT2, 3, None),
    "flat": "flat",
    "nan": (QUARTIC2, PT2, 4, None),
}


@pytest.mark.parametrize("name", list(TRACE_STATES))
def test_trace_form_matches_the_per_jet_loops(name, request):
    # chern_weyl and its closedness on the geometry's stacks against one
    # jet per entry: same entries, same bits
    spec = TRACE_STATES[name]
    if isinstance(spec, str):
        state = request.getfixturevalue(spec)
    else:
        state = fd.build_state(*spec[:3], read=spec[3])
    if name == "nan":
        # a NaN value and first derivative in one curvature and one torsion
        # entry, before the trace stack or either jet array is built
        for key, entry in (("curvature_stack", (0, 1, 0, 1)), ("torsion_stack", (0, 1, 0))):
            space, rows = state.geometry._cache[(key, "phi_pair")]
            rows = rows.copy()
            rows[entry][:2] = float("nan")
            state.geometry._cache[(key, "phi_pair")] = space, rows
    got = trace_form(state)
    want = form_bits(*reference_chern_weyl(state), reference_chern_weyl_closedness(state))
    assert got == want
    if name == "nan":
        assert all(np.isnan(x).any() for x in (*fd.chern_weyl(state),
                                                fd.chern_weyl_closedness(state)))
