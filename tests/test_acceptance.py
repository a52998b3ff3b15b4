"""Acceptance battery: nine gate criteria, one printed verdict line each.

Every criterion states its tolerance and runtime budget inline.  The
suite is the contract for the whole package: flat degeneracy, frame and
compatibility identities, flow duality, the fiber-operator calculus,
the curvature recursion, the star product, the characteristic form,
and the jet core against finite differences.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict
lines as they print.
"""

import time

import numpy as np

from starquant import fedosov as fd
from starquant.expr import jet_function, parse
from starquant.geometry import (
    GeometryAtPoint,
    anholonomy_closed_form_residual,
    canonical_dconnection,
    dtheta_check,
    frame_identity_residuals,
    fundamental_tensor_hamilton,
    metric_compat_residual,
    nconnection_cotangent,
    phi_connection,
    poisson_bracket,
    theta_compat_residual,
    torsion_curvature,
    values,
)
from starquant.jets import PhasePoint, jet_const
from starquant.mechanics import (
    hamilton_flow,
    lagrange_flow,
    legendre_to_hamiltonian,
    legendre_to_lagrangian,
)

FLAT2 = parse("0.5*(p1^2 + p2^2)", 2)
QUARTIC2 = parse("0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2", 2)
EXP1 = parse("0.5 * exp(2*x1) * p1^2", 1)
OSC1 = parse("0.5*(p1^2 + 1.69*x1^2)", 1)
OSC1_L = parse("0.5*(y1^2 - 1.69*x1^2)", 1, "tangent")
EXP1_L = parse("0.5 * exp(-2*x1) * y1^2", 1, "tangent")

PT2 = PhasePoint([0.3, -0.1], [0.7, 0.4])


def sample_points(count, n, seed):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(-0.8, 0.8, n), rng.uniform(0.2, 1.0, n))
        for _ in range(count)
    ]


def mono(n, cap, space, z, form=()):
    return fd.WickElement(n, cap, {(0, tuple(z), tuple(form)): jet_const(space, 1.0)})


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


def verdict(num, label, worst, tol, elapsed, budget):
    ok = worst <= tol and elapsed < budget
    print(f"[criterion {num}] {label}: max residual {worst:.3e} "
          f"(tol {tol:.0e}), runtime {elapsed:.2f}s < {budget:.0f}s: "
          f"{'PASS' if ok else 'FAIL'}")
    assert worst <= tol
    assert elapsed < budget


def test_criterion_1_flat_degeneracy():
    t0 = time.perf_counter()
    pt = PhasePoint([0.4, -0.2], [0.6, 0.3])
    geo = GeometryAtPoint(FLAT2, pt, 5)
    worst = float(np.abs(values(geo.nconnection)).max())
    gt = fundamental_tensor_hamilton(FLAT2, pt, order=5)
    nc = nconnection_cotangent(FLAT2, pt, order=5)
    for builder in (canonical_dconnection, phi_connection):
        coeffs = builder(FLAT2, pt, order=5)
        worst = max(worst, float(np.abs(values(coeffs.hL)).max()),
                    float(np.abs(values(coeffs.vC)).max()))
        tc = torsion_curvature(coeffs, nc, gt)
        for block in (tc.Omega, tc.T_hij, tc.S_abc, tc.P_aic,
                      tc.R_ijkm, tc.P_ijkc, tc.S_ijbc):
            worst = max(worst, float(np.abs(block).max()))
    state = fd.build_state(FLAT2, pt, 3)
    worst = max(worst, state.r.max_abs())
    gamma, _, c0 = fd.chern_weyl(state)
    worst = max(worst, float(np.abs(gamma).max()), float(np.abs(c0).max()))
    verdict(1, "flat degeneracy", worst, 1e-12,
            time.perf_counter() - t0, 1.0)


def test_criterion_2_frame_structure_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for H, n, seed in ((FLAT2, 2, 1), (QUARTIC2, 2, 2), (EXP1, 1, 3)):
        for pt in sample_points(10, n, seed):
            geo = GeometryAtPoint(H, pt, 4)
            worst = max(worst, max(frame_identity_residuals(geo).values()))
            worst = max(worst, anholonomy_closed_form_residual(geo))
            worst = max(worst, dtheta_check(H, pt))
    verdict(2, "frame and structure identities", worst, 1e-8,
            time.perf_counter() - t0, 5.0)


def test_criterion_3_connection_compatibility():
    t0 = time.perf_counter()
    compat_worst = 0.0
    torsion_worst = 0.0
    for H, n, seed in ((QUARTIC2, 2, 4), (EXP1, 1, 5)):
        for pt in sample_points(10, n, seed):
            geo = GeometryAtPoint(H, pt, 5)
            for kind in ("canonical_d", "phi_pair"):
                compat_worst = max(compat_worst,
                                   metric_compat_residual(geo, kind),
                                   theta_compat_residual(geo, kind))
            gt = fundamental_tensor_hamilton(H, pt, order=5)
            nc = nconnection_cotangent(H, pt, order=5)
            tc = torsion_curvature(canonical_dconnection(H, pt, order=5), nc, gt)
            torsion_worst = max(torsion_worst,
                                float(np.abs(tc.T_hij).max()),
                                float(np.abs(tc.S_abc).max()))
    elapsed = time.perf_counter() - t0
    ok = compat_worst <= 1e-8 and torsion_worst <= 1e-10 and elapsed < 10.0
    print(f"[criterion 3] connection compatibility: compat {compat_worst:.3e} "
          f"(tol 1e-08), torsion blocks {torsion_worst:.3e} (tol 1e-10), "
          f"runtime {elapsed:.2f}s < 10s: {'PASS' if ok else 'FAIL'}")
    assert compat_worst <= 1e-8
    assert torsion_worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_4_flow_equivalence():
    t0 = time.perf_counter()
    t_end, dt = 5.0, 1e-3
    sup_worst = 0.0
    energy_worst = 0.0
    cases = (
        (OSC1, OSC1_L, PhasePoint([0.4], [0.3])),
        (EXP1, EXP1_L, PhasePoint([0.3], [-0.7])),
    )
    for H, L, start in cases:
        ct = hamilton_flow(H, start, t_end, dt)
        y0, _ = legendre_to_lagrangian(H, start)
        tm = lagrange_flow(L, PhasePoint(start.x, y0), t_end, dt)
        for traj in (ct, tm):
            energy = np.asarray(traj.energy)
            energy_worst = max(energy_worst,
                               float(np.abs(energy - energy[0]).max()) / t_end)
        for sc, st in zip(ct.states, tm.states):
            sup_worst = max(sup_worst,
                            float(np.abs(np.subtract(sc.x, st.x)).max()))
            push, _ = legendre_to_hamiltonian(L, st)
            sup_worst = max(sup_worst,
                            float(np.abs(np.subtract(sc.p, push)).max()))
    elapsed = time.perf_counter() - t0
    ok = sup_worst <= 1e-5 and energy_worst <= 1e-8 and elapsed < 10.0
    print(f"[criterion 4] flow equivalence: sup distance {sup_worst:.3e} "
          f"(tol 1e-05), energy drift {energy_worst:.3e}/unit time "
          f"(tol 1e-08), runtime {elapsed:.2f}s < 10s: {'PASS' if ok else 'FAIL'}")
    assert sup_worst <= 1e-5
    assert energy_worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_5_operator_identities():
    t0 = time.perf_counter()
    space = PhasePoint([0.1, 0.2], [0.3, 0.4]).jets(1)[0]

    hodge_worst = 0.0
    square_worst = 0.0
    cap = 8  # two degrees of headroom over the probed Deg 6
    for z in zmonos(2, 6):
        for form in [(), (0,), (3,), (0, 3), (0, 1, 2, 3)]:
            a = mono(2, cap, space, z, form)
            back = (
                fd.delta_pair(fd.delta_inv_pair(a))
                + fd.delta_inv_pair(fd.delta_pair(a))
                + fd.sigma(a)
            )
            hodge_worst = max(hodge_worst, (back - a).max_abs())
            square_worst = max(square_worst,
                               fd.delta_pair(fd.delta_pair(a)).max_abs())

    state = fd.build_state(QUARTIC2, PT2, 4)
    ctx, lam = state.ctx, state.lam
    tl, rl = state.torsion_lift, state.curvature_lift
    comm_worst = 0.0
    for z in zmonos(2, 2):
        for form in [(), (0,), (3,)]:
            a = mono(2, state.d_alg, state.geometry.space, z, form)
            anti = (fd.extended_D(fd.delta_pair(a), ctx)
                    + fd.delta_pair(fd.extended_D(a, ctx)))
            rhs = fd.v_divide(fd.ad_wick(tl, a, lam).scale(1j))
            comm_worst = max(comm_worst, (anti - rhs).max_abs())
            twice = fd.extended_D(fd.extended_D(a, ctx), ctx)
            rhs = fd.v_divide(fd.ad_wick(rl, a, lam).scale(1j))
            comm_worst = max(comm_worst, (twice + rhs).max_abs())

    elapsed = time.perf_counter() - t0
    ok = (hodge_worst == 0.0 and square_worst == 0.0
          and comm_worst <= 1e-8 and elapsed < 30.0)
    print(f"[criterion 5] operator identities: Hodge decomposition "
          f"{hodge_worst:.3e} (exact), delta squared {square_worst:.3e}, "
          f"commutators {comm_worst:.3e} (tol 1e-08), "
          f"runtime {elapsed:.2f}s < 30s: {'PASS' if ok else 'FAIL'}")
    assert hodge_worst == 0.0
    assert square_worst == 0.0
    assert comm_worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_6_recursion_closure():
    t0 = time.perf_counter()
    state = fd.build_state(QUARTIC2, PT2, 5)
    residual = fd.recursion_residual(state)

    space = state.geometry.space
    probes = [mono(2, state.d_alg, space, (1, 0, 0, 0)),
              mono(2, state.d_alg, space, (0, 0, 1, 0)),
              fd.WickElement(2, state.d_alg,
                             {(0, (1, 0, 0, 0), ()): state.geometry.base_jets[0]})]
    defect = max(fd.flat_connection_defect(el, state) for el in probes)

    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-8 and defect <= 1e-8 and elapsed < 120.0
    print(f"[criterion 6] recursion closure at depth 5: residual "
          f"{residual:.3e} (tol 1e-08), connection squared {defect:.3e} "
          f"(tol 1e-08), runtime {elapsed:.2f}s < 120s: "
          f"{'PASS' if ok else 'FAIL'}")
    assert residual <= 1e-8
    assert defect <= 1e-8
    assert elapsed < 120.0


def _star_coeffs(tf, tg, state, v_max):
    prod = fd.wick_product(tf, tg, state.lam)
    return [c.value if (c := prod.scalar_part(r)) is not None else 0.0 + 0.0j
            for r in range(v_max + 1)]


def test_criterion_7_star_product():
    t0 = time.perf_counter()
    v_max = 2

    # deep flat run at the pinned truncation depth
    pt1 = PhasePoint([0.5], [0.4])
    flat1 = parse("0.5*p1^2", 1)
    state = fd.build_state(flat1, pt1, 6, order=12)
    f = parse("x1^2*p1", 1)
    g = parse("x1 + p1^2", 1)
    h = parse("x1*p1", 1)
    _, base, fiber = pt1.jets(1)
    fv = jet_function(f)(base, fiber).value
    gv = jet_function(g)(base, fiber).value
    tf, tg, th = (fd.tau_lift(o, state)[0] for o in (f, g, h))
    fg = _star_coeffs(tf, tg, state, v_max)
    gf = _star_coeffs(tg, tf, state, v_max)
    c0_residual = abs(fg[0] - fv * gv)
    pb = poisson_bracket(f, g, pt1).value
    c1_residual = abs((fg[1] - gf[1]) - 1j * pb)

    def star_jets(a, b):
        prod = fd.wick_product(a, b, state.lam)
        return {r: c for r in range(v_max + 1)
                if (c := prod.scalar_part(r)) is not None}

    fg_jets, gh_jets = star_jets(tf, tg), star_jets(tg, th)
    left = {q: fd.wick_product(fd.tau_lift(fg_jets[q], state)[0], th, state.lam)
            for q in fg_jets}
    right = {q: fd.wick_product(tf, fd.tau_lift(gh_jets[q], state)[0], state.lam)
             for q in gh_jets}
    assoc_worst = 0.0
    for r in range(v_max + 1):
        total = 0.0 + 0.0j
        for q in range(r + 1):
            for table, sign in ((left, 1.0), (right, -1.0)):
                if q in table:
                    c = table[q].scalar_part(r - q)
                    total += sign * (c.value if c is not None else 0.0)
        assoc_worst = max(assoc_worst, abs(total))

    # curved spot check at a reachable depth: same identities away from
    # the flat regime
    state2 = fd.build_state(QUARTIC2, PT2, 4, order=8)
    f2, g2 = parse("x1*p1", 2), parse("x1^2 + p2", 2)
    (tf2, _), (tg2, _) = fd.tau_lift(f2, state2), fd.tau_lift(g2, state2)
    fg2 = _star_coeffs(tf2, tg2, state2, v_max)
    gf2 = _star_coeffs(tg2, tf2, state2, v_max)
    pb2 = poisson_bracket(f2, g2, PT2).value
    c1_residual = max(c1_residual, abs((fg2[1] - gf2[1]) - 1j * pb2))

    elapsed = time.perf_counter() - t0
    ok = (c0_residual == 0.0 and c1_residual <= 1e-9
          and assoc_worst <= 1e-7 and elapsed < 120.0)
    print(f"[criterion 7] star product at depth 6: zeroth term "
          f"{c0_residual:.3e} (exact), first-order bracket {c1_residual:.3e} "
          f"(tol 1e-09), associativity {assoc_worst:.3e} (tol 1e-07), "
          f"runtime {elapsed:.2f}s < 120s: {'PASS' if ok else 'FAIL'}")
    assert c0_residual == 0.0
    assert c1_residual <= 1e-9
    assert assoc_worst <= 1e-7
    assert elapsed < 120.0


def test_criterion_8_characteristic_form():
    t0 = time.perf_counter()
    closed_worst = 0.0
    for pt in sample_points(3, 2, 8):
        state = fd.build_state(QUARTIC2, pt, 3)
        closed_worst = max(closed_worst, fd.chern_weyl_closedness(state))
    flat_state = fd.build_state(FLAT2, PhasePoint([0.4, -0.2], [0.6, 0.3]), 3)
    _, _, c0 = fd.chern_weyl(flat_state)
    flat_c0 = float(np.abs(c0).max())
    elapsed = time.perf_counter() - t0
    ok = closed_worst <= 1e-7 and flat_c0 <= 1e-12 and elapsed < 60.0
    print(f"[criterion 8] characteristic form: closedness {closed_worst:.3e} "
          f"(tol 1e-07), flat representative {flat_c0:.3e} (tol 1e-12), "
          f"runtime {elapsed:.2f}s < 60s: {'PASS' if ok else 'FAIL'}")
    assert closed_worst <= 1e-7
    assert flat_c0 <= 1e-12
    assert elapsed < 60.0


def _central_difference(fn, coords, alpha, h):
    """Nested central differences for the mixed partial of multi-index
    alpha, one variable at a time, all at the same step."""
    var = next(i for i, k in enumerate(alpha) if k > 0)
    lower = list(alpha)
    lower[var] -= 1
    plus, minus = list(coords), list(coords)
    plus[var] += h
    minus[var] -= h
    if sum(lower) == 0:
        return (fn(plus) - fn(minus)) / (2 * h)
    return (_central_difference(fn, plus, lower, h)
            - _central_difference(fn, minus, lower, h)) / (2 * h)


def _fd_derivative(fn, coords, alpha, h):
    """One Richardson step kills the h^2 term of the nested stencil."""
    return (4.0 * _central_difference(fn, coords, alpha, h / 2)
            - _central_difference(fn, coords, alpha, h)) / 3.0


def test_criterion_9_jets_vs_finite_differences():
    t0 = time.perf_counter()
    families = (
        parse("0.5*(p1^2 + p2^2)", 2),
        parse("0.5*(p1^2 + p2^2 + 1.69*(x1^2 + x2^2))", 2),
        parse("0.5 * exp(2*x1) * (p1^2 + p2^2)", 2),
        QUARTIC2,
    )
    # step per derivative order, balancing truncation against roundoff
    steps = {1: 1e-3, 2: 2e-3, 3: 4e-3}
    pt = PhasePoint([0.3, -0.2], [0.7, 0.4])
    n = 2
    worst = 0.0
    for H in families:
        fn = jet_function(H)
        space, base, fiber = pt.jets(3)
        jet = fn(base, fiber)

        def value_at(coords):
            q = PhasePoint(coords[:n], coords[n:])
            _, b, f = q.jets(0)
            return fn(b, f).value.real

        coords = list(pt.x) + list(pt.p)
        for alpha in space.monos:
            order = sum(alpha)
            if order < 1 or order > 3:
                continue
            stored = jet.derivative(alpha).real
            approx = _fd_derivative(value_at, coords, list(alpha), steps[order])
            scale = max(1.0, abs(stored))
            worst = max(worst, abs(stored - approx) / scale)
    verdict(9, "jet derivatives vs finite differences", worst, 1e-5,
            time.perf_counter() - t0, 5.0)
