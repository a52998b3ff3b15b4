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
operations.  The generator's constant factors are folded when it is
compiled: a stage of the exp-conformal family multiplies jets through
the product table 2 times on the Hamilton side and 3 on the Lagrange
side.  After the last step the recorded energies are scanned once, and
a step that changes the energy by more than STEP_ENERGY_CHANGE of it
raises FlowNotResolved.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHessian, FlowNotResolved, NewtonDivergence
from .geometry import as_generator
from .jets import PhasePoint, jet_space

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


@dataclass
class Trajectory:
    """Sampled flow: times, phase-space states and generator values,
    all the same length, times strictly increasing."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    energy: list = field(default_factory=list)

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.energy)):
            raise ValueError("trajectory fields must have equal length")
        ts = np.asarray(self.times)
        if ts.size > 1 and not (np.diff(ts) > 0).all():
            raise ValueError("trajectory times must be strictly increasing")

    def write_csv(self, fileobj, fiber_label="p"):
        n = self.states[0].n
        writer = csv.writer(fileobj)
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"{fiber_label}{i + 1}" for i in range(n)]
            + ["H"]
        )
        writer.writerow(header)
        for t, st, en in zip(self.times, self.states, self.energy):
            row = [f"{t:.17g}"]
            row += [f"{v:.17g}" for v in st.x]
            row += [f"{v:.17g}" for v in st.p]
            row.append(f"{en:.17g}")
            writer.writerow(row)


def _hessian_values(jet, n, tol, what):
    """Gradient and Hessian values of a phase-space jet of order >= 2,
    read from its coefficients, with the same degeneracy guard on the
    fiber-fiber block as the jet matrix inverse."""
    grad, hess = jet.gradient(), jet.hessian()
    fiber = hess[n:, n:]
    scale = max(np.abs(fiber).max(), 1e-300)
    det = np.linalg.det(fiber)
    if abs(det) <= tol * scale**n:
        raise DegenerateHessian(
            f"{what} fiber Hessian is singular: |det| = {abs(det):.3e}"
        )
    return grad, hess


def legendre_to_hamiltonian(L, pt_tm, hessian_tol=1e-10):
    """Pointwise transform (x, y) -> p = dL/dy and H = p.y - L."""
    fn = as_generator(L)
    n = pt_tm.n
    _, xs, ys = pt_tm.jets(2)
    Lj = fn(xs, ys)
    grad, _ = _hessian_values(Lj, n, hessian_tol, "Lagrangian")
    p = grad.real[n:].copy()
    H_value = float(p @ pt_tm.p - Lj.value.real)
    return p, H_value


def legendre_to_lagrangian(H, pt_ctm, hessian_tol=1e-10):
    """Pointwise transform (x, p) -> y = dH/dp and L = p.y - H."""
    fn = as_generator(H)
    n = pt_ctm.n
    _, xs, ps = pt_ctm.jets(2)
    Hj = fn(xs, ps)
    grad, _ = _hessian_values(Hj, n, hessian_tol, "Hamiltonian")
    y = grad.real[n:].copy()
    L_value = float(pt_ctm.p @ y - Hj.value.real)
    return y, L_value


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
            grad, hess = _hessian_values(Hj, n, 1e-10, "Hamiltonian")
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
    exactly on t_end).  deriv(state) -> (velocity, energy); the energy
    of the k1 evaluation is recorded for the current sample."""
    times = [0.0]
    states = [state]
    energy = []
    t = 0.0
    for h in _step_sizes(t_end, dt):
        k1, en = deriv(state)
        energy.append(en)
        k2, _ = deriv(state + 0.5 * h * k1)
        k3, _ = deriv(state + 0.5 * h * k2)
        k4, _ = deriv(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        states.append(state)
    _, en = deriv(state)
    energy.append(en)
    _require_resolved(times, energy)
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


def hamilton_flow(H, start, t_end, dt):
    """RK4 trajectory of dx/dt = dH/dp, dp/dt = -dH/dx."""
    fn = as_generator(H)
    n = start.n
    space = jet_space(2 * n, 1)

    def deriv(state):
        seeded = space.variables(state)
        Hj = fn(seeded[:n], seeded[n:])
        grad = Hj.gradient().real
        return np.concatenate([grad[n:], -grad[:n]]), float(Hj.value.real)

    times, raw, energy = _integrate(deriv, start.as_array(), t_end, dt)
    states = [PhasePoint.from_array(s) for s in raw]
    return Trajectory(times, states, energy)


def _spray_values(fn, space, state, n, hessian_tol):
    """Values of the spray coefficients G^i and of the energy y.dL/dy - L
    from one second-order jet evaluation of the Lagrangian at the state
    (x, y); `space` is the order-2 jet space in 2n variables."""
    y = state[n:]
    seeded = space.variables(state)
    Lj = fn(seeded[:n], seeded[n:])
    grad, hess = _hessian_values(Lj, n, hessian_tol, "Lagrangian")
    grad, hess = grad.real, hess.real
    upper = np.linalg.inv(hess[n:, n:])
    # contiguous copies: BLAS takes another path for a strided operand,
    # which can round the products below differently
    mixed = hess[n:, :n].copy()  # mixed[j, k] = d2L/dy^j dx^k
    p = grad[n:].copy()
    G = 0.5 * upper @ (mixed @ y - grad[:n])
    return G, float(p @ y - Lj.value.real)


def lagrange_flow(L, start, t_end, dt, hessian_tol=1e-10):
    """RK4 trajectory of dx/dt = y, dy/dt = -2 G(x, y); records the
    energy y.dL/dy - L, which the flow conserves."""
    fn = as_generator(L)
    n = start.n
    space = jet_space(2 * n, 2)

    def deriv(state):
        G, en = _spray_values(fn, space, state, n, hessian_tol)
        return np.concatenate([state[n:], -2.0 * G]), en

    times, raw, energy = _integrate(deriv, start.as_array(), t_end, dt)
    states = [PhasePoint.from_array(s) for s in raw]
    return Trajectory(times, states, energy)


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

    worst = 0.0
    times = traj.times
    for k in range(1, len(times) - 1):
        fd = (fvals[k + 1] - fvals[k - 1]) / (times[k + 1] - times[k - 1])
        worst = max(worst, abs(fd - brackets[k]))
    return worst
