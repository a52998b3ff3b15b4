"""Formal Wick algebra tests: Hodge-type identities of the fiber
differential, lifted Bianchi identities, closure of the degree recursion,
flat sections, the star product against the Poisson bracket, and the
curvature trace form."""

import dataclasses

import numpy as np
import pytest

from starquant import fedosov as fd
from starquant.errors import StarquantError
from starquant.expr import parse
from starquant.geometry import as_generator, poisson_bracket
from starquant.jets import PhasePoint, jet_const

PT2 = PhasePoint([0.3, -0.1], [0.7, 0.4])
PT1 = PhasePoint([0.3], [0.7])

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
                cand = fd._bump(z, i, 1)
                if cand not in grown:
                    grown.append(cand)
        out.extend(grown)
    return out


# ---------------------------------------------------------------------------
# wedge bookkeeping


def test_wedge_merge_signs_and_collisions():
    assert fd.wedge_merge((0,), (1,)) == (1, (0, 1))
    assert fd.wedge_merge((1,), (0,)) == (-1, (0, 1))
    assert fd.wedge_merge((0,), (0,)) is None
    assert fd.wedge_merge((), (0, 1)) == (1, (0, 1))
    assert fd.wedge_merge((0, 2), (1,)) == (-1, (0, 1, 2))
    assert fd.wedge_merge((1, 3), (0, 2)) == (-1, (0, 1, 2, 3))


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
    return lam


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
    ctx = curved.ctx
    tl, rl = curved.torsion_lift, curved.curvature_lift
    assert tl.max_abs() > 0.1
    assert rl.max_abs() > 0.1
    assert fd.delta_pair(tl).max_abs() <= 1e-13
    assert (fd.delta_pair(rl) - fd.extended_D(tl, ctx)).max_abs() <= 1e-12
    assert fd.extended_D(rl, ctx).max_abs() <= 1e-12


def test_commutator_identities(curved):
    ctx, lam = curved.ctx, curved.lam
    tl, rl = curved.torsion_lift, curved.curvature_lift
    worst_t = worst_r = 0.0
    for a in probe_basis(curved):
        anti = fd.extended_D(fd.delta_pair(a), ctx) + fd.delta_pair(
            fd.extended_D(a, ctx)
        )
        rhs = fd.v_divide(fd.ad_wick(tl, a, lam).scale(1j))
        worst_t = max(worst_t, (anti - rhs).max_abs())
        twice = fd.extended_D(fd.extended_D(a, ctx), ctx)
        rhs = fd.v_divide(fd.ad_wick(rl, a, lam).scale(1j))
        worst_r = max(worst_r, (twice + rhs).max_abs())
    assert worst_t <= 1e-12
    assert worst_r <= 1e-12


def test_extended_D_leibniz(curved):
    ctx, lam = curved.ctx, curved.lam
    space = curved.geometry.space
    a = mono(2, curved.d_alg, space, (1, 0, 0, 0), (0,))
    b = mono(2, curved.d_alg, space, (0, 1, 1, 0))
    left = fd.extended_D(fd.wick_product(a, b, lam), ctx)
    right = fd.wick_product(fd.extended_D(a, ctx), b, lam) - fd.wick_product(
        a, fd.extended_D(b, ctx), lam
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
                         exp1.ctx.gamma.reshape(2, 4)])
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


def test_capped_product_is_the_restricted_product(curved):
    # forms of both parities, jet coefficients that vary over the chart,
    # and a Deg 0 term so that every cap keeps something
    x1 = fd.WickElement.from_jet(curved.geometry.base_jets[0], 2, curved.d_alg)
    a = x1 + curved.r_components[2] + curved.r_components[3]
    lifted, _ = fd.tau_lift(parse("x1 * p1", 2), curved)
    b = (lifted + fd.extended_D(lifted, curved.ctx)).restrict(2)
    assert {len(f) for (_, _, f) in a.terms} == {0, 1}
    assert {len(f) for (_, _, f) in b.terms} == {0, 1}
    for product in (fd.wick_product, fd.ad_wick):
        full = product(a, b, curved.lam)
        assert full.terms
        for cap in range(curved.d_alg + 2):
            capped = product(a, b, curved.lam, cap)
            assert capped.d_max == curved.d_alg
            assert same_bits(capped, full.restrict(cap)), (product.__name__, cap)
    full = fd.wick_product(a, b, curved.lam)
    for v_max in range(3):
        parts = fd.wick_scalar_parts(a, b, curved.lam, v_max)
        want = full.scalar_parts(v_max)
        assert parts.keys() == want.keys() and parts
        assert all(parts[r].coeffs.tobytes() == want[r].coeffs.tobytes() for r in parts)


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
