"""Legendre transforms, Hamilton and Lagrange flows, and the bracket
check that cross-validates them.

The two flows integrate the same dynamics in dual coordinates:

    dx/dt =  dH/dp,   dp/dt = -dH/dx        (cotangent side)
    dx/dt =  y,       dy/dt = -2 G(x, y)    (tangent side)

and the Legendre transform maps one onto the other.  All derivatives
come from one low-order jet evaluation of the generator per integrator
stage (order 1 for the Hamilton flow, order 2 for the spray), and the
gradient and Hessian values are read from that jet's coefficient rows,
so a stage costs the generator's jet products and a few numpy
operations.  A compiled generator runs as closures over the seeded
coefficient arrays, with a Jet only around its result, and its
constant factors are folded when it is compiled: a stage of the
exp-conformal family multiplies jets through the product table 2
times on the Hamilton side and 3 on the Lagrange side.  After the
last step the recorded energies are scanned once, and a step that
changes the energy by more than STEP_ENERGY_CHANGE of it raises
FlowNotResolved.

Lockstep: `hamilton_flows` and `lagrange_flows` integrate a (rows, 2n)
array of starting points at once.  Each stage seeds stacked jets, one
row per point, so the compiled generator runs once per stage for all
of them, with the table products of one point, each over every row;
the fiber Hessians' determinants and inverses come from one call on
the (rows, n, n) stack, and the matrix-vector products are matmuls on
column vectors.  Every operation keeps the bits it has on one row
alone, so each trajectory equals its single-point flow bit for bit,
and the single-point functions are the same code on a state without
the row axis.  States and energies are recorded into arrays allocated
before the first step, (samples, rows, 2n) and (samples, rows), and a
Trajectory holds its point's slices of them.  The memory this takes
grows with the points of a stack times the samples of a flow; the CLI
bounds it with its per-stack byte budget, `cli.STACK_BYTES`.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHessian, FlowNotResolved, NewtonDivergence
from .geometry import _max_abs, as_generator
from .jets import HESSIAN_TOL, PhasePoint, _wrap, jet_space

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

# A flow is not resolved by its step when one step changes the energy by
# more than this part of it.  The coarsest flow in the tests (exp-conformal,
# dt 0.5) changes it by at most 0.0096 in a step; one that steps over a
# singularity changes it by about 1.
STEP_ENERGY_CHANGE = 0.1
# Energies closer to zero than this are compared with it instead: energy
# is defined up to a constant, so a flow on a level near zero is no less
# resolved.  A step flagged there changes the energy by more than 1e-7,
# what the CLI's energy_drift tolerance (1e-8 per unit time) allows over
# 10 time units.
ENERGY_FLOOR = 1e-6


class PhaseStates(Sequence):
    """The states of a trajectory, kept as one (samples, 2n) float array;
    an index reads a PhasePoint, and a slice a list of them."""

    def __init__(self, states):
        if isinstance(states, np.ndarray):
            self.array = states
        else:
            self.array = np.array([s.as_array() for s in states], dtype=float)

    def __len__(self):
        return len(self.array)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [PhasePoint.from_array(a) for a in self.array[k]]
        return PhasePoint.from_array(self.array[k])


@dataclass
class Trajectory:
    """Sampled flow: times, phase-space states and generator values,
    all the same length, times strictly increasing.  The times and
    energies are float arrays and the states a PhaseStates array."""

    times: np.ndarray = field(default_factory=list)
    states: PhaseStates = field(default_factory=list)
    energy: np.ndarray = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        if not isinstance(self.states, PhaseStates):
            self.states = PhaseStates(self.states)
        if not (len(self.times) == len(self.states) == len(self.energy)):
            raise ValueError("trajectory fields must have equal length")
        if self.times.size > 1 and not (np.diff(self.times) > 0).all():
            raise ValueError("trajectory times must be strictly increasing")

    def write_csv(self, fileobj, fiber_label="p"):
        n = self.states.array.shape[1] // 2
        writer = csv.writer(fileobj)
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"{fiber_label}{i + 1}" for i in range(n)]
            + ["H"]
        )
        writer.writerow(header)
        rows = zip(self.times.tolist(), self.states.array.tolist(), self.energy.tolist())
        for t, st, en in rows:
            writer.writerow([f"{v:.17g}" for v in (t, *st, en)])


def _stage_jet(fn, space, state):
    """The generator's jet at a state (2n,), or at each row of a stack of
    states (rows, 2n) from one stacked evaluation.  A generator free of
    the variables comes back without rows, and is broadcast to them."""
    n = space.dim // 2
    seeded = space.variables(state)
    jet = fn(seeded[:n], seeded[n:])
    if jet.coeffs.ndim < state.ndim:
        jet = _wrap(space, np.broadcast_to(jet.coeffs, state.shape[:-1] + (space.size,)))
    return jet


def _hessian_values(jet, n, what):
    """Gradient and Hessian values of a phase-space jet of order >= 2,
    read from its coefficients, with the same degeneracy guard on the
    fiber-fiber block as the jet matrix inverse.  A stacked jet gives one
    gradient and Hessian per row, its determinants come from one call on
    the (rows, n, n) stack, and the first degenerate row raises."""
    grad, hess = jet.gradient(), jet.hessian()
    fiber = hess[..., n:, n:]
    det = np.linalg.det(fiber)
    # numpy scalars, row by row: a stack's rows compare and overflow as
    # single states do
    if fiber.ndim == 2:
        rows = ((np.abs(fiber).max(), det),)
    else:
        rows = zip(np.abs(fiber).max(axis=(-2, -1)), det)
    for scale, row_det in rows:
        scale = max(scale, 1e-300)
        if abs(row_det) <= HESSIAN_TOL * scale**n:
            raise DegenerateHessian(
                f"{what} fiber Hessian is singular: |det| = {abs(row_det):.3e}"
            )
    return grad, hess


def _fiber_push(fn, state, what):
    """(dG/d fiber, G) at a state (2n,), or at each row of a stack of
    states (rows, 2n): the fiber derivative and the value of a generator,
    from one second-order jet evaluation behind the fiber Hessian's
    guard."""
    n = state.shape[-1] // 2
    jet = _stage_jet(fn, jet_space(2 * n, 2), state)
    grad, _ = _hessian_values(jet, n, what)
    return grad.real[..., n:].copy(), jet.value.real


def legendre_to_hamiltonian(L, pt_tm):
    """Pointwise transform (x, y) -> p = dL/dy and H = p.y - L."""
    p, L_value = _fiber_push(as_generator(L), pt_tm.as_array(), "Lagrangian")
    H_value = float(p @ pt_tm.p - L_value)
    return p, H_value


def legendre_to_lagrangian(H, pt_ctm):
    """Pointwise transform (x, p) -> y = dH/dp and L = p.y - H."""
    y, H_value = _fiber_push(as_generator(H), pt_ctm.as_array(), "Hamiltonian")
    L_value = float(pt_ctm.p @ y - H_value)
    return y, L_value


def legendre_momenta(L, states):
    """p = dL/dy at each row (x, y) of a (rows, 2n) array of tangent
    states, from one stacked jet evaluation; row by row, the momenta of
    legendre_to_hamiltonian."""
    return _fiber_push(as_generator(L), states, "Lagrangian")[0]


def legendre_velocities(H, states):
    """y = dH/dp at each row (x, p) of a (rows, 2n) array of cotangent
    states, from one stacked jet evaluation; row by row, the velocities
    of legendre_to_lagrangian."""
    return _fiber_push(as_generator(H), states, "Hamiltonian")[0]


def momentum_from_velocity(H, x, y, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Newton solve of dH/dp(x, p) = y for p, seeded at p = y.

    The fiber Hessian is the Jacobian; no line search, regularity along
    the iteration is a precondition.
    """
    fn = as_generator(H)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    p = y.copy()
    for it in range(max_iter):
        if not np.isfinite(p).all():
            raise NewtonDivergence("velocity inversion iterates went non-finite")
        _, xs, ps = PhasePoint(x, p).jets(2)
        Hj = fn(xs, ps)
        try:
            grad, hess = _hessian_values(Hj, n, "Hamiltonian")
        except DegenerateHessian:
            if it == 0:
                raise
            # the generator is regular at the seed; losing regularity
            # mid-iteration means the iteration ran away
            raise NewtonDivergence(
                "velocity inversion left the regular region"
            ) from None
        resid = grad.real[n:] - y
        if np.abs(resid).max() <= tol:
            return p
        p = p - np.linalg.solve(hess.real[n:, n:], resid)
    raise NewtonDivergence(
        f"velocity inversion did not reach {tol:g} in {max_iter} iterations"
    )


def _step_sizes(t_end, dt):
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    full = int(np.floor(t_end / dt + 1e-9))
    rem = t_end - full * dt
    sizes = [dt] * full
    if rem > 1e-12 * max(1.0, t_end):
        sizes.append(rem)
    return sizes


def _integrate(deriv, state, t_end, dt):
    """Classical RK4 with a fixed step (plus one remainder step to land
    exactly on t_end), on one state (2n,) or on a stack of states
    (rows, 2n) in lockstep.  deriv(state, energy) -> (velocity, the
    energy when `energy` is true, else None); the energy is asked for
    only where it is recorded: at the k1 evaluation for the current
    sample, and at the final state.
    Returns the times, the states (samples, [rows,] 2n) and the energies
    (samples, [rows]), recorded into arrays allocated before the first
    step."""
    sizes = _step_sizes(t_end, dt)
    times = np.empty(len(sizes) + 1)
    states = np.empty(times.shape + state.shape)
    energy = np.empty(times.shape + state.shape[:-1])
    t = 0.0
    times[0] = t
    states[0] = state
    for k, h in enumerate(sizes):
        k1, energy[k] = deriv(state, True)
        k2, _ = deriv(state + 0.5 * h * k1, False)
        k3, _ = deriv(state + 0.5 * h * k2, False)
        k4, _ = deriv(state + h * k3, False)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times[k + 1] = t
        states[k + 1] = state
    _, energy[-1] = deriv(state, True)
    for row in energy.reshape(len(times), -1).T:
        _require_resolved(times, row)
    return times, states, energy


def _require_resolved(times, energy):
    """Raise FlowNotResolved at the first step whose energy change passes
    STEP_ENERGY_CHANGE of the larger of the two energies (or of
    ENERGY_FLOOR); a non-finite energy fails too."""
    e = np.asarray(energy, dtype=float)
    size = np.maximum(np.maximum(np.abs(e[:-1]), np.abs(e[1:])), ENERGY_FLOOR)
    bad = np.flatnonzero(~(np.abs(np.diff(e)) <= STEP_ENERGY_CHANGE * size))
    if bad.size:
        k = bad[0]
        raise FlowNotResolved(
            f"flow is not resolved by dt at t={times[k]:.6g}: one step takes "
            f"the energy from {e[k]:.6g} to {e[k + 1]:.6g}"
        )


def _hamilton(start, t_end, dt, H):
    # times, states and energies of the Hamilton flow from a state or a
    # stack of states
    fn = as_generator(H)
    n = start.shape[-1] // 2
    space = jet_space(2 * n, 1)

    def deriv(state, energy):
        Hj = _stage_jet(fn, space, state)
        grad = Hj.gradient().real
        velocity = np.concatenate([grad[..., n:], -grad[..., :n]], axis=-1)
        return velocity, Hj.coeffs[..., 0].real if energy else None

    return _integrate(deriv, start, t_end, dt)


def hamilton_flow(H, start, t_end, dt):
    """RK4 trajectory of dx/dt = dH/dp, dp/dt = -dH/dx."""
    return Trajectory(*_hamilton(start.as_array(), t_end, dt, H))


def hamilton_flows(H, starts, t_end, dt):
    """RK4 trajectories of dx/dt = dH/dp, dp/dt = -dH/dx from each row of
    a (rows, 2n) array of starts, integrated in lockstep: each stage is
    one stacked jet evaluation.  One Trajectory per row, each with the
    bits of hamilton_flow from that row."""
    return _per_row(_hamilton, starts, t_end, dt, H)


def _spray_values(fn, space, state, n, energy):
    """Values of the spray coefficients G^i and, when `energy` is true,
    of the energy y.dL/dy - L (else None) at a state (x, y), or at each
    row of a stack of states, from one second-order jet evaluation of
    the Lagrangian; `space` is the order-2 jet space in 2n variables.  A
    stack's inverses come from one call on its (rows, n, n) Hessian
    blocks, and the products are matmuls on column vectors, which keep
    the bits of the single-state products."""
    Lj = _stage_jet(fn, space, state)
    grad, hess = _hessian_values(Lj, n, "Lagrangian")
    grad, hess = grad.real, hess.real
    upper = np.linalg.inv(hess[..., n:, n:])
    # contiguous copies: BLAS takes another path for a strided operand,
    # which can round the products below differently; each row of y is
    # contiguous already
    mixed = hess[..., n:, :n].copy()  # mixed[..., j, k] = d2L/dy^j dx^k
    y = state[..., n:, None]
    G = 0.5 * upper @ (mixed @ y - grad[..., :n, None])
    if not energy:
        return G.squeeze(-1), None
    p = grad[..., None, n:].copy()
    return G.squeeze(-1), (p @ y).squeeze((-2, -1)) - Lj.coeffs[..., 0].real


def _lagrange(start, t_end, dt, L):
    # times, states and energies of the Lagrange flow from a state or a
    # stack of states
    fn = as_generator(L)
    n = start.shape[-1] // 2
    space = jet_space(2 * n, 2)

    def deriv(state, energy):
        G, en = _spray_values(fn, space, state, n, energy)
        return np.concatenate([state[..., n:], -2.0 * G], axis=-1), en

    return _integrate(deriv, start, t_end, dt)


def lagrange_flow(L, start, t_end, dt):
    """RK4 trajectory of dx/dt = y, dy/dt = -2 G(x, y); records the
    energy y.dL/dy - L, which the flow conserves."""
    return Trajectory(*_lagrange(start.as_array(), t_end, dt, L))


def lagrange_flows(L, starts, t_end, dt):
    """RK4 trajectories of dx/dt = y, dy/dt = -2 G(x, y) from each row of
    a (rows, 2n) array of starts, integrated in lockstep; each records
    the energy y.dL/dy - L, which the flow conserves.  One Trajectory per
    row, each with the bits of lagrange_flow from that row."""
    return _per_row(_lagrange, starts, t_end, dt, L)


def _per_row(flow, starts, *args):
    # one Trajectory per row of starts; a single row runs as a plain
    # state, whose jets take the product table directly
    starts = np.asarray(starts, dtype=float)
    times, states, energy = flow(starts[0] if len(starts) == 1 else starts, *args)
    states = states.reshape(len(times), len(starts), -1)
    energy = energy.reshape(len(times), len(starts))
    return [Trajectory(times, states[:, r], energy[:, r]) for r in range(len(starts))]


def poisson_flow_check(H, f, traj):
    """Max deviation between the finite-difference rate of f along the
    trajectory and the bracket {H, f} evaluated pointwise."""
    H_fn = as_generator(H)
    f_fn = as_generator(f)
    n = traj.states[0].n

    fvals = []
    brackets = []
    for st in traj.states:
        _, xs, ps = st.jets(1)
        Hj = H_fn(xs, ps)
        fj = f_fn(xs, ps)
        fvals.append(fj.value.real)
        dH, df = Hj.gradient().real.tolist(), fj.gradient().real.tolist()
        br = 0.0
        for k in range(n):
            br += dH[n + k] * df[k]
            br -= dH[k] * df[n + k]
        brackets.append(br)

    times = traj.times.tolist()
    return _max_abs(
        (fvals[k + 1] - fvals[k - 1]) / (times[k + 1] - times[k - 1]) - brackets[k]
        for k in range(1, len(times) - 1)
    )
