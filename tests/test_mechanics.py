"""Flow and Legendre-transform tests: closed-form oracles, dual-pair
equivalence, conservation, and the error paths."""

import io

import numpy as np
import pytest

from starquant import cli, expr, geometry, jets
from starquant import mechanics as mech
from starquant.errors import DegenerateHessian, FlowNotResolved, NewtonDivergence
from starquant.expr import Const, Mul, Var, jet_function, parse
from starquant.jets import PhasePoint

OSC_H = parse("0.5*(p1^2 + x1^2)", 1)
OSC_L = parse("0.5*(y1^2 - x1^2)", 1, bundle="tangent")
EXP_H = parse("0.5 * exp(2*x1) * p1^2", 1)
EXP_L = parse("0.5 * exp(0 - 2*x1) * y1^2", 1, bundle="tangent")


def xs(state):
    return np.asarray(state.x)


def ps(state):
    return np.asarray(state.p)


# ---------------------------------------------------------------------------
# Legendre transforms


def test_legendre_to_hamiltonian_quadratic():
    L = parse("0.5*(y1^2 + y2^2)", 2, bundle="tangent")
    p, H = mech.legendre_to_hamiltonian(L, PhasePoint([0.0, 0.0], [2.0, 3.0]))
    assert np.allclose(p, [2.0, 3.0])
    assert H == pytest.approx(6.5)


def test_legendre_to_hamiltonian_scaled():
    L = parse("0.5*4*y1^2", 1, bundle="tangent")
    p, H = mech.legendre_to_hamiltonian(L, PhasePoint([0.0], [1.0]))
    assert p[0] == pytest.approx(4.0)
    assert H == pytest.approx(2.0)  # p^2 / (2a) with a = 4


def test_legendre_to_lagrangian_quadratic():
    H = parse("0.5*(p1^2 + p2^2)", 2)
    y, L = mech.legendre_to_lagrangian(H, PhasePoint([0.0, 0.0], [1.0, 0.0]))
    assert np.allclose(y, [1.0, 0.0])
    assert L == pytest.approx(0.5)


def test_legendre_to_lagrangian_scaled():
    H = parse("0.5*p1^2/4", 1)
    y, L = mech.legendre_to_lagrangian(H, PhasePoint([0.0], [4.0]))
    assert y[0] == pytest.approx(1.0)
    assert L == pytest.approx(2.0)


def test_legendre_degenerate_rejection():
    H = parse("x1^2 + p1", 1)
    with pytest.raises(DegenerateHessian):
        mech.legendre_to_lagrangian(H, PhasePoint([0.5], [0.5]))


def test_stacked_guard_raises_the_message_of_its_first_degenerate_row():
    # the fiber Hessian [[1, x1], [x1, 1]] has det 1 - x1^2: row 0 is
    # regular, row 1 degenerate with a small nonzero det, row 2 singular
    L = jet_function(parse("0.5*(y1^2 + y2^2) + x1*y1*y2", 2, bundle="tangent"))
    space = jets.jet_space(4, 2)
    states = np.array([[0.3, 0.1, 0.4, -0.2], [1 - 1e-12, 0.1, 0.4, -0.2],
                       [1.0, 0.1, 0.4, -0.2]])
    with pytest.raises(DegenerateHessian) as alone:
        mech._hessian_values(mech._stage_jet(L, space, states[1]), 2, "Lagrangian")
    with pytest.raises(DegenerateHessian) as stacked:
        mech._hessian_values(mech._stage_jet(L, space, states), 2, "Lagrangian")
    assert "|det| = 0.000e+00" not in str(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_legendre_round_trip():
    x0, y0 = np.array([0.3]), np.array([0.7])
    p0, H0 = mech.legendre_to_hamiltonian(EXP_L, PhasePoint(x0, y0))
    assert p0[0] == pytest.approx(np.exp(-0.6) * 0.7)
    y1, L1 = mech.legendre_to_lagrangian(EXP_H, PhasePoint(x0, p0))
    assert abs(y1 - y0).max() <= 1e-10
    # the two generators take the same value at Legendre-matched points
    assert H0 == pytest.approx(
        0.5 * np.exp(0.6) * p0[0] ** 2
    )
    assert L1 == pytest.approx(0.5 * np.exp(-0.6) * 0.7**2)


def test_momentum_from_velocity_matches_transform():
    x0, y0 = np.array([0.3]), np.array([0.7])
    p_newton = mech.momentum_from_velocity(EXP_H, x0, y0)
    p_direct, _ = mech.legendre_to_hamiltonian(EXP_L, PhasePoint(x0, y0))
    assert abs(p_newton - p_direct).max() <= 1e-10


def test_momentum_from_velocity_unreachable():
    # dH/dp of sqrt(1+p^2) never exceeds 1 in magnitude
    H = parse("sqrt(1 + p1^2)", 1)
    with pytest.raises(NewtonDivergence):
        mech.momentum_from_velocity(H, np.array([0.0]), np.array([1.5]))


def test_momentum_from_velocity_iteration_cap():
    with pytest.raises(NewtonDivergence):
        mech.momentum_from_velocity(
            EXP_H, np.array([0.3]), np.array([0.7]), max_iter=1
        )


# ---------------------------------------------------------------------------
# Hamilton flow


def test_oscillator_period_return():
    traj = mech.hamilton_flow(OSC_H, PhasePoint([1.0], [0.0]), 2 * np.pi, 1e-3)
    final = np.concatenate([xs(traj.states[-1]), ps(traj.states[-1])])
    assert abs(final - np.array([1.0, 0.0])).max() <= 1e-6
    assert traj.times[-1] == pytest.approx(2 * np.pi, abs=1e-12)


def test_free_flow_linear():
    H = parse("0.5*(p1^2 + p2^2)", 2)
    traj = mech.hamilton_flow(H, PhasePoint([0.1, -0.2], [0.4, 0.8]), 1.0, 1e-2)
    assert abs(xs(traj.states[-1]) - np.array([0.5, 0.6])).max() <= 1e-12
    assert abs(ps(traj.states[-1]) - np.array([0.4, 0.8])).max() <= 1e-12


def test_energy_conservation_long_run():
    traj = mech.hamilton_flow(OSC_H, PhasePoint([1.0], [0.0]), 10.0, 1e-3)
    drift = max(abs(e - traj.energy[0]) for e in traj.energy)
    assert drift <= 1e-8


# ---------------------------------------------------------------------------
# Lagrange flow and the dual-pair equivalence


def test_lagrange_free_line():
    L = parse("0.5*(y1^2 + y2^2)", 2, bundle="tangent")
    traj = mech.lagrange_flow(L, PhasePoint([0.0, 1.0], [0.5, -0.25]), 2.0, 1e-2)
    assert abs(xs(traj.states[-1]) - np.array([1.0, 0.5])).max() <= 1e-12


def test_lagrange_oscillator_closed_form():
    traj = mech.lagrange_flow(OSC_L, PhasePoint([1.0], [0.0]), 1.0, 1e-3)
    for t, st in zip(traj.times[::200], traj.states[::200]):
        assert xs(st)[0] == pytest.approx(np.cos(t), abs=1e-6)
        assert ps(st)[0] == pytest.approx(-np.sin(t), abs=1e-6)


@pytest.mark.parametrize(
    "L,H,x0,y0",
    [
        (OSC_L, OSC_H, [1.0], [0.0]),
        (EXP_L, EXP_H, [0.3], [-0.7]),  # contracting branch stays regular
    ],
)
def test_flow_equivalence(L, H, x0, y0):
    p0, _ = mech.legendre_to_hamiltonian(L, PhasePoint(x0, y0))
    tl = mech.lagrange_flow(L, PhasePoint(x0, y0), 2.0, 1e-3)
    th = mech.hamilton_flow(H, PhasePoint(x0, p0), 2.0, 1e-3)
    sup = 0.0
    for sL, sH in zip(tl.states, th.states):
        pL, _ = mech.legendre_to_hamiltonian(L, sL)
        sup = max(sup, abs(xs(sL) - xs(sH)).max(), abs(pL - ps(sH)).max())
    assert sup <= 1e-5


def test_lagrange_energy_conserved():
    traj = mech.lagrange_flow(EXP_L, PhasePoint([0.3], [-0.7]), 2.0, 1e-3)
    drift = max(abs(e - traj.energy[0]) for e in traj.energy)
    assert drift <= 1e-10


def test_flow_over_a_singularity_is_not_resolved():
    # e^-x = e^-0.1 - 0.5526 t reaches 0 near t = 1.64: RK4 steps over it
    with pytest.raises(FlowNotResolved, match=r"not resolved by dt at t=1\.63:"):
        mech.hamilton_flow(EXP_H, PhasePoint([0.1], [0.5]), 5.0, 0.01)


def test_flow_on_the_zero_energy_level_is_resolved():
    # an oscillator shifted to energy 0: roundoff and truncation error are
    # not blow-ups, however small the energy they change
    H = parse("0.5*p1^2 + 0.5*x1^2 - 0.125", 1)
    traj = mech.hamilton_flow(H, PhasePoint([0.5], [0.0]), 10.0, 1e-2)
    assert traj.energy[0] == 0.0
    assert 0.0 < max(abs(e) for e in traj.energy) <= 1e-11


# ---------------------------------------------------------------------------
# work per flow stage


def test_legendre_pushes_compile_an_ast_once(monkeypatch):
    compiled = []
    compile_ = expr._compile

    def counted(node, space):
        compiled.append(node)
        return compile_(node, space)

    monkeypatch.setattr(expr, "_compile", counted)
    geometry._generator_of.cache_clear()
    src = "0.5 * exp(0 - 2*x1) * y1^2"
    pt = PhasePoint([0.3], [0.7])
    first = mech.legendre_to_hamiltonian(parse(src, 1, bundle="tangent"), pt)
    assert len(compiled) == 1
    # an equal AST, parsed again, shares the compiled closure
    again = mech.legendre_to_hamiltonian(parse(src, 1, bundle="tangent"), pt)
    assert len(compiled) == 1
    assert first[0].tobytes() == again[0].tobytes() and first[1] == again[1]
    # constants that compare equal but may give other bits do not share
    x = Var("x1", 0)
    assert geometry.as_generator(Mul(x, Const(0.0))) is not geometry.as_generator(
        Mul(x, Const(-0.0)))


def _count_table_products(monkeypatch):
    # calls of the one jet product kernel, which Jet products and compiled
    # expressions both make
    count = [0]
    kernel = jets._mul_rows

    def counted(space, a, b):
        count[0] += 1
        return kernel(space, a, b)

    monkeypatch.setattr(jets, "_mul_rows", counted)
    return count


@pytest.mark.parametrize("bundle,flow,per_stage", [
    ("cotangent", mech.hamilton_flow, 2),  # p1^2, and its product with exp
    ("tangent", mech.lagrange_flow, 3),  # the same, and one order more of exp
])
def test_exp_conformal_stage_work(monkeypatch, bundle, flow, per_stage):
    src = cli._family_source("exp-conformal", {}, 1, bundle)
    gen = jet_function(parse(src, 1, bundle))
    start = PhasePoint([0.3], [-0.7])
    flow(gen, start, 1e-3, 1e-3)  # compiles the generator
    count = _count_table_products(monkeypatch)
    traj = flow(gen, start, 1e-3, 1e-3)
    # one RK4 step: four stages, and one more for the energy at its end
    assert len(traj.times) == 2
    assert count[0] == 5 * per_stage


@pytest.mark.parametrize("bundle,flows,per_stage", [
    ("cotangent", mech.hamilton_flows, 2),
    ("tangent", mech.lagrange_flows, 3),
])
def test_exp_conformal_stage_work_is_per_stack(monkeypatch, bundle, flows, per_stage):
    # three points in lockstep: every stage is one stacked evaluation, so a
    # step costs the table products of one point however many points run
    src = cli._family_source("exp-conformal", {}, 1, bundle)
    gen = jet_function(parse(src, 1, bundle))
    starts = np.array([[0.3, -0.7], [-0.2, -0.5], [0.1, -0.9]])
    flows(gen, starts, 1e-3, 1e-3)
    count = _count_table_products(monkeypatch)
    trajs = flows(gen, starts, 1e-3, 1e-3)
    assert [len(t.times) for t in trajs] == [2, 2, 2]
    assert count[0] == 5 * per_stage


def test_lagrange_energy_is_computed_where_it_is_recorded(monkeypatch):
    # the energy y.dL/dy - L is recorded at each step's k1 stage and at the
    # final state; the other three stages compute the spray alone
    gen = jet_function(parse(cli._family_source("exp-conformal", {}, 1, "tangent"), 1,
                             "tangent"))
    asked, spray = [], mech._spray_values

    def recorded(fn, space, state, n, energy):
        asked.append(energy)
        return spray(fn, space, state, n, energy)

    monkeypatch.setattr(mech, "_spray_values", recorded)
    traj = mech.lagrange_flow(gen, PhasePoint([0.3], [-0.7]), 2e-3, 1e-3)
    assert len(traj.energy) == 3
    assert asked == [True, False, False, False] * 2 + [True]


@pytest.mark.parametrize("bundle", ["cotangent", "tangent"])
def test_stacked_flows_have_the_bits_of_single_flows(bundle):
    # n = 2 with a mixed Hessian block, and a fractional power and a log
    # whose series are built row by row
    src = {"cotangent": "0.5*(p1^2 + p2^2)*(1 + x2^2)^0.5 + log(2 + x1^2) / (3 + p1*p2)",
           "tangent": "0.5*(y1^2 + y2^2)*exp(0.3*x1) + y1*y2*x2 + sin(x1 + x2)"}[bundle]
    gen = jet_function(parse(src, 2, bundle))
    flows, flow = {"cotangent": (mech.hamilton_flows, mech.hamilton_flow),
                   "tangent": (mech.lagrange_flows, mech.lagrange_flow)}[bundle]
    starts = np.array([[0.3, -0.2, 0.4, 0.1], [-0.5, 0.25, -0.3, 0.6], [0.1, 0.7, 0.2, -0.4]])
    stacked = flows(gen, starts, 0.2, 0.01)
    for start, traj in zip(starts, stacked):
        alone = flow(gen, PhasePoint(start[:2], start[2:]), 0.2, 0.01)
        assert traj.times.tobytes() == alone.times.tobytes()
        assert traj.states.array.tobytes() == alone.states.array.tobytes()
        assert traj.energy.tobytes() == alone.energy.tobytes()
    pushed = mech.legendre_momenta(gen, starts) if bundle == "tangent" else (
        mech.legendre_velocities(gen, starts))
    single = mech.legendre_to_hamiltonian if bundle == "tangent" else mech.legendre_to_lagrangian
    for start, row in zip(starts, pushed):
        assert row.tobytes() == single(gen, PhasePoint(start[:2], start[2:]))[0].tobytes()


# ---------------------------------------------------------------------------
# bracket check along trajectories


def test_poisson_check_conserved_generator():
    traj = mech.hamilton_flow(OSC_H, PhasePoint([1.0], [0.0]), 1.0, 1e-3)
    assert mech.poisson_flow_check(OSC_H, OSC_H, traj) <= 1e-8


def test_poisson_check_coordinate_free_flow():
    H = parse("0.5*(p1^2 + p2^2)", 2)
    traj = mech.hamilton_flow(H, PhasePoint([0.1, -0.2], [0.4, 0.8]), 1.0, 1e-2)
    assert mech.poisson_flow_check(H, parse("x1", 2), traj) <= 1e-6


def test_poisson_check_quadratic_observable():
    traj = mech.hamilton_flow(OSC_H, PhasePoint([1.0], [0.0]), 1.0, 1e-3)
    assert mech.poisson_flow_check(OSC_H, parse("x1*p1", 1), traj) <= 1e-5


# ---------------------------------------------------------------------------
# trajectory container and serialization


def test_trajectory_validation():
    s = PhasePoint([0.0], [0.0])
    with pytest.raises(ValueError):
        mech.Trajectory([0.0, 1.0], [s], [0.0])
    with pytest.raises(ValueError):
        mech.Trajectory([0.0, 0.0], [s, s], [0.0, 0.0])


def test_step_sizes_remainder():
    sizes = mech._step_sizes(0.0095, 1e-3)
    assert len(sizes) == 10
    assert sizes[-1] == pytest.approx(5e-4)
    assert sum(sizes) == pytest.approx(0.0095, abs=1e-15)
    with pytest.raises(ValueError):
        mech._step_sizes(1.0, 0.0)


def test_write_csv():
    traj = mech.hamilton_flow(OSC_H, PhasePoint([1.0], [0.0]), 0.01, 1e-3)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,p1,H"
    assert len(lines) == len(traj.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[3]) == pytest.approx(0.5)
    buf2 = io.StringIO()
    traj.write_csv(buf2, fiber_label="y")
    assert buf2.getvalue().splitlines()[0] == "t,x1,y1,H"
