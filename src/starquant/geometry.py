"""Pointwise geometry of regular Hamiltonians and Lagrangians.

Builds, at one phase-space point and through jet arithmetic, the whole
cotangent tower: fundamental tensor, nonlinear connection, adapted frames
(plain and oblique), metric and symplectic lifts, the almost complex
structure, the two canonical linear connections, and their torsion and
curvature, up to the contracted field-equation residual.  One
`GeometryAtPoint` per point owns all of it.  The Lagrange-side fiber
metric, semi-spray and nonlinear connection, and the vielbein lift, are
plain functions of a generator and a point.

The anholonomy, the connections, their torsion and curvature have one
jet order per tensor, so each is built as a coefficient stack: one
complex array whose last axis holds an entry's coefficients.  A sum
over a contraction index is a short loop of array additions over
batched products (`jets.batched_mul`), taken in the order in which the
per-entry jet sums added their terms, so every entry keeps the bits of
those sums.  Results are computed at the order the jet order rule
gives them, which by that rule equals multiplying at higher order and
truncating.  The stacks are wrapped as arrays of jets only where
entries are read.  Residuals that read only values, such as the
compatibility checks, take their products at order 0.

Conventions fixed here once and used everywhere:

* the symplectic form is theta = dp_i ^ dx^i and Hamiltonian fields obey
  i_X theta = -df, which gives {f,g} = dp f . dx g - dx f . dp g and in
  particular {x1, p1} = -1;
* the fundamental tensor on the cotangent side is the plain momentum
  Hessian of H, no factor 1/2;
* frame matrices store one frame vector per row in coordinate
  components, coframes likewise, so frame @ coframe.T = I;
* connection coefficient arrays are indexed [output][direction][source],
  and the mixed blocks are the transpose-minus duals forced by metric
  compatibility of the opposite index type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InsufficientJetOrder, StarquantError
from .expr import jet_function
from .jets import (
    Jet,
    PhasePoint,
    _obj_matmul,
    batched_mul,
    batched_partial,
    jet_const,
    jet_matrix_inverse,
    jet_space,
)


def as_generator(obj):
    """Accept either an AST or a callable (base_jets, fiber_jets) -> Jet.

    An AST is wrapped once: later calls with an equal AST share the
    wrapper, and so its compiled closures.
    """
    # the repr tells apart constants that compare equal, 0.0 and -0.0
    # or 2 and 2.0, whose jets may differ
    return obj if callable(obj) else _generator_of(obj, repr(obj))


@lru_cache(maxsize=64)
def _generator_of(node, key):
    return jet_function(node)


def jsum(terms):
    """Left fold of a list of jets; sum() would start from 0 and turn a
    leading -0.0 into +0.0."""
    return sum(terms[1:], terms[0])


def _transpose(A):
    return A.T.copy()


def values(mat):
    """Constant terms of a nested array of jets, as a complex ndarray."""
    arr = np.asarray(mat, dtype=object)
    out = np.empty(arr.shape, dtype=np.complex128)
    for idx in np.ndindex(arr.shape):
        out[idx] = arr[idx].value
    return out


def real_values(mat):
    return values(mat).real


def frame_deriv(f, row):
    """Directional derivative of a jet along a frame vector (row of jets)."""
    return jsum([row[a] * f.partial(a) for a in range(len(row))])


def vector_bracket(U, V):
    """Lie bracket of two vector fields given by coordinate-component jets."""
    dim = len(U)
    out = []
    for b in range(dim):
        plus = jsum([U[a] * V[b].partial(a) for a in range(dim)])
        minus = jsum([V[a] * U[b].partial(a) for a in range(dim)])
        out.append(plus - minus)
    return out


def bracket_jets(f, g, n):
    """Poisson bracket of two jets on a 2n-dimensional cotangent chart."""
    plus = jsum([f.partial(n + k) * g.partial(k) for k in range(n)])
    minus = jsum([f.partial(k) * g.partial(n + k) for k in range(n)])
    return plus - minus


# ---------------------------------------------------------------------------
# coefficient stacks: a tensor of jets of one space as one complex array
# whose last axis holds each entry's coefficients


def _min_order(jets):
    return min(jet.order for jet in np.asarray(jets, dtype=object).flat)


def _rows(jets, space):
    """Coefficient rows of an array of jets, each truncated to `space`."""
    arr = np.asarray(jets, dtype=object)
    out = np.empty(arr.shape + (space.size,), dtype=np.complex128)
    for idx in np.ndindex(arr.shape):
        jet = arr[idx]
        if jet.order < space.order:
            raise InsufficientJetOrder(
                f"need jet order >= {space.order}, have {jet.order}"
            )
        out[idx] = jet.coeffs[: space.size]
    return out


def _jets(space, rows):
    """Array of jets in `space` over a stack of coefficient rows."""
    out = np.empty(rows.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Jet(space, rows[idx])
    return out


def _partials(space, rows):
    """Stack of the first partials of a stack in `space`, variable first."""
    return np.stack([batched_partial(space, rows, a) for a in range(space.dim)])


def _fold(terms):
    """Left fold of a stack over its first axis: a jsum entry by entry."""
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def _dot(space, lefts, rights):
    """Left fold over t of lefts[t] * rights[t] in `space`: a jsum of
    products, one batched product per t."""
    acc = batched_mul(space, lefts[0], rights[0])
    for t in range(1, len(lefts)):
        acc = acc + batched_mul(space, lefts[t], rights[t])
    return acc


def _along(space, frame, partials):
    """frame_deriv over stacks, in `space`: the fold over A of
    frame[..., A, :] times partials[A]."""
    return _dot(space, np.moveaxis(frame, -2, 0), partials)


def _max_abs(vals):
    """Largest modulus of an array or an iterable of numbers, taken as a
    loop would take it: Python's abs (numpy's can differ in the last bit
    of a complex entry) and max from 0.0.  NaN when any entry has a NaN
    part, which the builtin max can drop.  Every residual fold of the
    package goes through it."""
    if isinstance(vals, np.ndarray):
        if np.isnan(vals).any():
            return math.nan
        vals = vals.ravel().tolist()
    else:
        vals = list(vals)
        if any(v != v for v in vals):
            return math.nan
    return float(max([0.0, *map(abs, vals)]))


# ---------------------------------------------------------------------------
# result container


@dataclass
class CurvatureTorsion:
    """Torsion and curvature component blocks (plain complex arrays)
    plus the anholonomy coefficients of the frame that was used."""

    Omega: np.ndarray  # [i][j][a]  nonlinear-connection curvature
    T_hij: np.ndarray  # [k][i][j]  horizontal torsion
    S_abc: np.ndarray  # [a][b][c]  fiber torsion
    P_aic: np.ndarray  # [a][i][c]  mixed torsion
    R_ijkm: np.ndarray  # [i][j][k][m]
    P_ijkc: np.ndarray  # [i][j][k][c]  mixed curvature
    S_ijbc: np.ndarray  # [i][j][b][c]  fiber curvature
    anholonomy: np.ndarray  # W[gamma][alpha][beta], full frame size


# ---------------------------------------------------------------------------
# frame construction and first-principles frame calculus (jet matrices)


def _frame_jets(N, g_upper=None):
    """Frame/coframe jet matrices: the plain N-adapted pair, or with the
    fiber metric g_upper the oblique pair.

    N is the n x n jet matrix of nonlinear-connection coefficients.
    """
    n = N.shape[0]
    ref = N[0, 0]
    one = jet_const(ref.space, 1.0)
    zero = jet_const(ref.space, 0.0)
    F = np.full((2 * n, 2 * n), zero, dtype=object)
    C = np.full((2 * n, 2 * n), zero, dtype=object)
    if g_upper is None:
        for i in range(n):
            F[i, i] = one
            C[i, i] = one
            F[n + i, n + i] = one
            C[n + i, n + i] = one
            for a in range(n):
                F[i, n + a] = N[i, a] * 1.0
                C[n + a, i] = N[i, a] * (-1.0)
        return F, C
    gu = g_upper
    for i in range(n):
        F[i, i] = one
        for a in range(n):
            F[i, n + a] = N[i, a]
    for b in range(n):
        for j in range(n):
            F[n + b, j] = -gu[b, j]
        for a in range(n):
            diag = one if a == b else zero
            F[n + b, n + a] = diag - jsum([gu[b, i] * N[i, a] for i in range(n)])
    for i in range(n):
        for j in range(n):
            diag = one if i == j else zero
            C[i, j] = diag - jsum([gu[b, i] * N[j, b] for b in range(n)])
        for b in range(n):
            C[i, n + b] = gu[b, i]
    for c in range(n):
        for j in range(n):
            C[n + c, j] = -N[j, c]
        C[n + c, n + c] = one
    return F, C


def _theta_on_frames(F, n):
    """theta = dp_k ^ dx^k evaluated on all frame pairs, as jets."""
    n2 = 2 * n
    out = np.empty((n2, n2), dtype=object)
    for a in range(n2):
        for b in range(n2):
            plus = jsum([F[a, n + k] * F[b, k] for k in range(n)])
            out[a, b] = plus - jsum([F[b, n + k] * F[a, k] for k in range(n)])
    return out


def _anholonomy(F, C):
    """W[gamma][alpha][beta] from the brackets of the frame fields, as a
    (space, rows) stack: W[g, a, b] = C[g, B] [F_a, F_b]^B."""
    n2 = F.shape[0]
    top = jet_space(n2, _min_order(F))
    space = jet_space(n2, min(top.order - 1, _min_order(C)))
    Fr = _rows(F, top)
    dF = _partials(top, Fr)
    a, b = np.triu_indices(n2, 1)
    # [F_a, F_b]^B = e_a(F_b^B) - e_b(F_a^B) over the pairs a < b
    br = (_along(space, Fr[a, None], dF[:, b])
          - _along(space, Fr[b, None], dF[:, a]))
    C = _rows(C, space)
    w = _dot(space, np.moveaxis(C, 1, 0)[:, :, None], np.moveaxis(br, 1, 0)[:, None])
    W = np.zeros((n2, n2, n2, space.size), dtype=np.complex128)
    W[:, a, b] = w
    W[:, b, a] = -w
    return space, W


def _koszul_block(space, frame, m, minv, w_low):
    """Metric compatibility plus vanishing torsion on one index block.

    2 Gamma_{s,jk} = e_j(m_ks) + e_k(m_js) - e_s(m_jk)
                     + W_{s,jk} - W_{k,js} - W_{j,ks}
    with j the direction and k the source; w_low[s][j][k] = W_{s,jk} are
    the frame-metric-lowered anholonomy coefficients of the block (None
    when the block is holonomic up to components outside the block).
    All arguments are stacks: `frame` holds the block's frame rows, and
    the metric m and its inverse are at least one order above `space`.
    Returns the stack of Gamma[out][dir][src] in `space`.
    """
    up = jet_space(space.dim, space.order + 1)
    # dm[j, k, s] = e_j(m_ks)
    dm = _along(space, frame[:, None, None], _partials(up, m)[:, None])
    # the fold of the terms in the order above, indexed [s, j, k]
    low = dm.transpose(2, 0, 1, 3) + dm.transpose(2, 1, 0, 3) - dm
    if w_low is not None:
        low = (low + w_low - w_low.transpose(2, 1, 0, 3)
               - w_low.transpose(2, 0, 1, 3))
    low = low * 0.5
    return _dot(space, np.moveaxis(minv, 1, 0)[:, :, None, None], low[:, None])


def _full_connection(hhh, vvv):
    """Assemble the 2n-frame coefficient stack from the two Koszul blocks,
    filling the mixed blocks with their transpose-minus duals."""
    n = hhh.shape[0]
    G = np.zeros((2 * n,) * 3 + hhh.shape[3:], dtype=np.complex128)
    G[:n, :n, :n] = hhh
    G[n:, n:, n:] = vvv
    G[n:, :n, n:] = -hhh.transpose(2, 1, 0, 3)
    G[:n, n:, :n] = -vvv.transpose(2, 1, 0, 3)
    return G


def _curvature_full(G, W, F):
    """R[g][ph][a][b] as a (space, rows) stack from the stacks of the
    connection G and the anholonomy W and the frame jets F:
    e_a G_{g,b,ph} - e_b G_{g,a,ph} plus the fold over d of
    G_{d,b,ph} G_{g,a,d} - G_{d,a,ph} G_{g,b,d} - W_{d,a,b} G_{g,d,ph}."""
    (g_space, G), (w_space, W) = G, W
    n2 = G.shape[0]
    space = jet_space(n2, min(g_space.order - 1, w_space.order, _min_order(F)))
    Fr = _rows(F, space)
    dG = _partials(jet_space(n2, space.order + 1), G)
    a, b = np.triu_indices(n2, 1)
    # entries [g, pair, ph]
    acc = (_along(space, Fr[None, a, None], dG[:, :, b])
           - _along(space, Fr[None, b, None], dG[:, :, a]))
    for d in range(n2):
        acc = acc + batched_mul(space, G[d, b][None], G[:, a, d][:, :, None])
        acc = acc - batched_mul(space, G[d, a][None], G[:, b, d][:, :, None])
        acc = acc - batched_mul(space, W[d, a, b][None, :, None], G[:, d][:, None])
    R = np.zeros((n2,) * 4 + (space.size,), dtype=np.complex128)
    R[:, :, a, b] = acc.swapaxes(1, 2)
    R[:, :, b, a] = -acc.swapaxes(1, 2)
    return space, R


def _j_trace(J, X):
    """The fold over a' and then t of J[a', t] X[t][a'], as a (space,
    rows) stack, from the jets of the frame complex structure J and a
    (space, rows) stack X."""
    x_space, X = X
    n2 = X.shape[0]
    space = jet_space(n2, min(x_space.order, _min_order(J)))
    lefts = _rows(J, space).reshape((n2 * n2,) + (1,) * (X.ndim - 3) + (space.size,))
    return space, _dot(space, lefts, X.swapaxes(0, 1).reshape((n2 * n2,) + X.shape[2:]))


def _curvature_trace(J, R):
    """The curvature trace 2-form gamma[a][b] = -(1/4) J[a', t]
    R[t][a'][a][b] as a (space, rows) stack, from the stack R."""
    space, gamma = _j_trace(J, R)
    return space, gamma * (-0.25)


def _omega_jets(N, F_phi):
    """Omega_ija = e_i(N_ja) - e_j(N_ia) along the oblique horizontal frame."""
    n = N.shape[0]
    space = jet_space(2 * n, min(_min_order(N) - 1, _min_order(F_phi[:n])))
    up = jet_space(2 * n, space.order + 1)
    # D[i, j, a] = e_i(N_ja)
    D = _along(space, _rows(F_phi[:n], space)[:, None, None],
               _partials(up, _rows(N, up))[:, None])
    return _jets(space, D - D.swapaxes(0, 1))


def _nijenhuis_values(F, C, J_coord):
    """Nijenhuis tensor of the operator J_coord sampled on frame pairs,
    expressed back in frame components (complex values)."""
    n2 = F.shape[0]

    def apply_J(vec):
        return [
            jsum([J_coord[A, B] * vec[B] for B in range(n2)]) for A in range(n2)
        ]

    out = np.zeros((n2, n2, n2), dtype=np.complex128)
    for a in range(n2):
        X = list(F[a])
        JX = apply_J(X)
        for b in range(a + 1, n2):
            Y = list(F[b])
            JY = apply_J(Y)
            t1 = vector_bracket(JX, JY)
            t2 = apply_J(vector_bracket(JX, Y))
            t3 = apply_J(vector_bracket(X, JY))
            t4 = vector_bracket(X, Y)
            comp = [t1[B] - t2[B] - t3[B] - t4[B] for B in range(n2)]
            for g in range(n2):
                val = jsum([C[g, B] * comp[B] for B in range(n2)]).value
                out[g, a, b] = val
                out[g, b, a] = -val
    return out


# ---------------------------------------------------------------------------
# the per-point evaluation cache


class GeometryAtPoint:
    """Lazy evaluation cache for the cotangent-side tower at one point.

    `order` is the seed jet order; each derived object consumes
    derivatives, and the documented minimum orders are enforced up front
    so callers get a clear error instead of silently truncated junk.
    """

    DEPTH = {
        "g": 2,
        "nconnection": 3,
        "frames": 3,
        "lifts": 3,
        "canonical_d": 3,
        "anholonomy": 4,
        "omega": 4,
        "torsion": 4,
        "curvature_d": 4,
        "phi_pair": 4,
        "nijenhuis": 4,
        "curvature_phi": 5,
        "ricci": 5,
    }

    def __init__(self, generator, point, order, hessian_tol=1e-10):
        self.fn = as_generator(generator)
        self.point = point
        self.order = order
        self.hessian_tol = hessian_tol
        self.n = point.n
        self.space, self.base_jets, self.fiber_jets = point.jets(order)
        self._cache = {}

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def _need(self, stage):
        depth = self.DEPTH[stage]
        if self.order < depth:
            raise InsufficientJetOrder(
                f"{stage} needs jet order >= {depth}, have {self.order}"
            )

    # -- scalar and metric ---------------------------------------------------

    @property
    def H(self):
        return self._memo("H", lambda: self.fn(self.base_jets, self.fiber_jets))

    @property
    def g_upper(self):
        def build():
            self._need("g")
            n = self.n
            out = np.empty((n, n), dtype=object)
            for a in range(n):
                da = self.H.partial(n + a)
                for b in range(n):
                    out[a, b] = da.partial(n + b)
            return out

        return self._memo("g_upper", build)

    @property
    def g_lower(self):
        return self._memo(
            "g_lower",
            lambda: jet_matrix_inverse(self.g_upper, rel_tol=self.hessian_tol),
        )

    # -- nonlinear connection ------------------------------------------------

    @property
    def nconnection(self):
        def build():
            self._need("nconnection")
            n = self.n
            mixed = np.empty((n, n), dtype=object)
            for k in range(n):
                dk = self.H.partial(n + k)
                for i in range(n):
                    mixed[k, i] = dk.partial(i)
            out = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(n):
                    br = bracket_jets(self.g_lower[i, j], self.H, n)
                    sym = jsum(
                        [mixed[k, i] * self.g_lower[j, k] for k in range(n)]
                        + [mixed[k, j] * self.g_lower[i, k] for k in range(n)]
                    )
                    out[i, j] = (br - sym) * 0.5
            return out

        return self._memo("nconnection", build)

    # -- frames and frame-basis structures -----------------------------------

    def frames(self, kind):
        """(frame, coframe) jet matrices for the frame family used by the
        requested connection kind."""

        def build():
            self._need("frames")
            if kind == "canonical_d":
                return _frame_jets(self.nconnection)
            return _frame_jets(self.nconnection, self.g_upper)

        return self._memo(("frames", kind), build)

    @property
    def frames_n(self):
        return self.frames("canonical_d")

    @property
    def frames_phi(self):
        return self.frames("phi_pair")

    def theta_frame(self, kind):
        return self._memo(
            ("theta_frame", kind),
            lambda: _theta_on_frames(self.frames(kind)[0], self.n),
        )

    def metric_frame(self, kind):
        """Lift metric on frame pairs: diag(g_ij, g^{ab}) for the plain
        frame, the bordered form for the oblique frame."""

        def build():
            n = self.n
            gl, gu = self.g_lower, self.g_upper
            ref = self.nconnection[0, 0]
            zero = jet_const(ref.space, 0.0)
            G = np.full((2 * n, 2 * n), zero, dtype=object)
            for i in range(n):
                for j in range(n):
                    G[i, j] = gl[i, j]
                    G[n + i, n + j] = (
                        gu[i, j] if kind == "canonical_d" else gu[i, j] * 2.0
                    )
            if kind == "phi_pair":
                minus_one = jet_const(ref.space, -1.0)
                for i in range(n):
                    G[i, n + i] = minus_one
                    G[n + i, i] = minus_one
            return G

        return self._memo(("metric_frame", kind), build)

    def metric_frame_inverse(self, kind):
        def build():
            n = self.n
            gl, gu = self.g_lower, self.g_upper
            ref = self.nconnection[0, 0]
            zero = jet_const(ref.space, 0.0)
            G = np.full((2 * n, 2 * n), zero, dtype=object)
            for i in range(n):
                for j in range(n):
                    G[i, j] = gu[i, j] if kind == "canonical_d" else gu[i, j] * 2.0
                    G[n + i, n + j] = gl[i, j]
            if kind == "phi_pair":
                one = jet_const(ref.space, 1.0)
                for i in range(n):
                    G[i, n + i] = one
                    G[n + i, i] = one
            return G

        return self._memo(("metric_frame_inv", kind), build)

    def complex_structure_frame(self, kind):
        """Almost complex operator on frame components (acts on column
        vectors of frame components)."""

        def build():
            n = self.n
            gl, gu = self.g_lower, self.g_upper
            ref = self.nconnection[0, 0]
            zero = jet_const(ref.space, 0.0)
            J = np.full((2 * n, 2 * n), zero, dtype=object)
            if kind == "canonical_d":
                for i in range(n):
                    for a in range(n):
                        J[i, n + a] = gu[a, i]
                        J[n + a, i] = -gl[i, a]
            else:
                one = jet_const(ref.space, 1.0)
                for i in range(n):
                    J[i, i] = -one
                    J[n + i, n + i] = one
                    for a in range(n):
                        J[i, n + a] = gu[a, i] * 2.0
                        J[n + a, i] = -gl[i, a]
            return J

        return self._memo(("J_frame", kind), build)

    def operator_to_coord(self, O_frame, kind):
        F, C = self.frames(kind)
        return _obj_matmul(_obj_matmul(_transpose(F), O_frame), C)

    @property
    def theta_coord(self):
        def build():
            self._need("lifts")
            _, C = self.frames_n
            return _obj_matmul(_obj_matmul(_transpose(C), self.theta_frame("canonical_d")), C)

        return self._memo("theta_coord", build)

    # -- anholonomy, connections, torsion, curvature --------------------------

    # The anholonomy, connection, torsion, curvature and curvature trace
    # are built once as (space, rows) stacks, and wrapped as arrays of
    # jets only where entries are read.

    def _anholonomy_stack(self, kind):
        def build():
            self._need("anholonomy")
            return _anholonomy(*self.frames(kind))

        return self._memo(("anholonomy_stack", kind), build)

    def _connection_stack(self, kind):
        def build():
            self._need(kind)
            n, n2 = self.n, 2 * self.n
            F, _ = self.frames(kind)
            metric = jet_space(n2, _min_order(self.g_upper))
            gl, gu = _rows(self.g_lower, metric), _rows(self.g_upper, metric)
            order = min(_min_order(F), metric.order - 1)
            if kind == "canonical_d":
                # plain adapted frame: the h-h bracket is purely vertical
                # and the v-v bracket vanishes, so no corrections enter
                w_h = w_v = None
            else:
                w_space, W = self._anholonomy_stack(kind)
                order = min(order, w_space.order)
                # w_h[s, j, k] = g_sm W^m_jk and w_v[c, a, b] = g^cm W^(n+m)_(n+a)(n+b)
                w_h = _dot(w_space, np.moveaxis(gl, 1, 0)[:, :, None, None],
                           W[:n, None, :n, :n])
                w_v = _dot(w_space, np.moveaxis(gu, 1, 0)[:, :, None, None],
                           W[n:, None, n:, n:])
            space = jet_space(n2, order)
            Fr = _rows(F, space)
            hhh = _koszul_block(space, Fr[:n], gl, gu, w_h)
            vvv = _koszul_block(space, Fr[n:], gu, gl, w_v)
            return space, _full_connection(hhh, vvv)

        return self._memo(("connection_stack", kind), build)

    def _curvature_stack(self, kind):
        def build():
            self._need("curvature_d" if kind == "canonical_d" else "curvature_phi")
            return _curvature_full(self._connection_stack(kind),
                                   self._anholonomy_stack(kind), self.frames(kind)[0])

        return self._memo(("curvature_stack", kind), build)

    def anholonomy(self, kind):
        """Anholonomy coefficients W[gamma][alpha][beta] of the frame."""
        return self._memo(("anholonomy", kind),
                          lambda: _jets(*self._anholonomy_stack(kind)))

    def connection(self, kind):
        """Full coefficient array Gamma[output][direction][source]."""
        return self._memo(("connection", kind),
                          lambda: _jets(*self._connection_stack(kind)))

    def _torsion_stack(self, kind):
        def build():
            self._need("torsion")
            (g_space, G), (w_space, W) = (self._connection_stack(kind),
                                          self._anholonomy_stack(kind))
            space = g_space if g_space.order <= w_space.order else w_space
            G = G[..., : space.size]
            # T[g, a, b] = G[g, a, b] - G[g, b, a] - W[g, a, b]
            return space, G - G.swapaxes(1, 2) - W[..., : space.size]

        return self._memo(("torsion_stack", kind), build)

    def _trace_stack(self, kind):
        return self._memo(("trace_stack", kind),
                          lambda: _curvature_trace(self.complex_structure_frame(kind),
                                                   self._curvature_stack(kind)))

    def torsion(self, kind):
        return self._memo(("torsion", kind), lambda: _jets(*self._torsion_stack(kind)))

    def curvature(self, kind):
        return self._memo(("curvature", kind),
                          lambda: _jets(*self._curvature_stack(kind)))

    @property
    def omega(self):
        def build():
            self._need("omega")
            return _omega_jets(self.nconnection, self.frames_phi[0])

        return self._memo("omega", build)

    @property
    def ricci_phi(self):
        def build():
            self._need("ricci")
            space, R = self._curvature_stack("phi_pair")
            diag = np.arange(2 * self.n)
            # ric[b, g] = R[a, b, g, a], folded over a
            return _jets(space, _fold(R[diag, :, :, diag]))

        return self._memo("ricci_phi", build)

    @property
    def scalar_phi(self):
        def build():
            ric = self.ricci_phi
            space = ric[0, 0].space
            ginv = _rows(self.metric_frame_inverse("phi_pair"), space)
            n2 = 2 * self.n
            terms = batched_mul(space, ginv, _rows(ric, space))
            return Jet(space, _fold(terms.reshape(n2 * n2, space.size)))

        return self._memo("scalar_phi", build)

    @property
    def nijenhuis(self):
        def build():
            self._need("nijenhuis")
            F, C = self.frames_n
            Jc = self.operator_to_coord(
                self.complex_structure_frame("canonical_d"), "canonical_d"
            )
            return _nijenhuis_values(F, C, Jc)

        return self._memo("nijenhuis", build)

    def curvature_torsion(self, kind):
        """Torsion and curvature blocks of one connection kind, read from
        the cached torsion, curvature, anholonomy and Omega."""
        return self._memo(
            ("curvature_torsion", kind),
            lambda: _curvature_torsion_blocks(
                kind, self.omega, self.torsion(kind), self.curvature(kind),
                self.anholonomy(kind),
            ),
        )

    def einstein_residual(self, lam=0.0):
        """Left side of the contracted field equations with zero source: the
        raised Ricci block minus (1/2)(scalar + lambda) times the identity,
        with the coordinate leg restored through the oblique coframe."""
        ric = values(self.ricci_phi)
        scalar = self.scalar_phi.value
        ginv = values(self.metric_frame_inverse("phi_pair"))
        Cv = values(self.frames_phi[1])
        return (ginv @ ric @ Cv - 0.5 * (scalar + lam) * Cv).real


# ---------------------------------------------------------------------------
# Lagrange-side objects, vielbein lifts, brackets and references


def _velocity_hessian(L, pt, order, hessian_tol):
    fn = as_generator(L)
    _, xs, ys = pt.jets(order)
    Lj = fn(xs, ys)
    n = pt.n
    lower = np.empty((n, n), dtype=object)
    for a in range(n):
        da = Lj.partial(n + a)
        for b in range(n):
            lower[a, b] = da.partial(n + b)
    upper = jet_matrix_inverse(lower, rel_tol=hessian_tol)
    return Lj, lower, upper


def fundamental_tensor_lagrange(L, pt, order=2, hessian_tol=1e-10):
    """(upper, lower) jet matrices: the velocity Hessian of L sits in
    `lower` (indices down), its inverse in `upper`."""
    _, lower, upper = _velocity_hessian(L, pt, order, hessian_tol)
    return upper, lower


def _vielbein_upper(base_fns, viel_fns, xs, ps, hessian_tol=1e-10):
    """Fiber metric E g_base^-1 E^T, indices up, from generators of the
    base metric (lower indices) and of the vielbein entries."""
    n = len(xs)
    base_lo = np.empty((n, n), dtype=object)
    E = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            base_lo[i, j] = base_fns[i][j](xs, ps)
            E[i, j] = viel_fns[i][j](xs, ps)
    base_up = jet_matrix_inverse(base_lo, rel_tol=hessian_tol)
    return _obj_matmul(_obj_matmul(E, base_up), _transpose(E))


def _generators(rows):
    return [[as_generator(e) for e in row] for row in rows]


def vielbein_lift(g_base, vielbein, pt, order=2, hessian_tol=1e-10):
    """(upper, lower) jet matrices of the fiber metric
    g^{ij}(x,p) = e^i_k e^j_l g^{kl}(x) built from a base metric given
    with lower indices (x only) and vielbein entries (x, p)."""
    _, xs, ps = pt.jets(order)
    upper = _vielbein_upper(_generators(g_base), _generators(vielbein), xs, ps,
                            hessian_tol)
    return upper, jet_matrix_inverse(upper, rel_tol=hessian_tol)


def induced_hamiltonian(g_base, vielbein):
    """Kinetic generator (1/2) g^{ab}(x,p) p_a p_b for a vielbein lift,
    as a callable on jets."""
    base_fns = _generators(g_base)
    viel_fns = _generators(vielbein)

    def fn(xs, ps):
        n = len(xs)
        upper = _vielbein_upper(base_fns, viel_fns, xs, ps)
        quad = jsum(
            [upper[a, b] * ps[a] * ps[b] for a in range(n) for b in range(n)]
        )
        return quad * 0.5

    return fn


def semi_spray(L, pt, order=2, hessian_tol=1e-10):
    """Spray coefficients G^i = (1/2) g^{ij} (d2L/dy^j dx^k y^k - dL/dx^j)."""
    n = pt.n
    _, xs, ys = pt.jets(order)
    Lj, _, upper = _velocity_hessian(L, pt, order, hessian_tol)
    out = []
    for i in range(n):
        inner = []
        for j in range(n):
            dj = Lj.partial(n + j)
            mixed = jsum([dj.partial(k) * ys[k] for k in range(n)])
            inner.append(upper[i, j] * (mixed - Lj.partial(j)))
        out.append(jsum(inner) * 0.5)
    return out


def nconnection_tangent(L, pt, order=3, hessian_tol=1e-10):
    """N_i^a = dG^a/dy^i for the Lagrange semi-spray, as a jet matrix."""
    n = pt.n
    G = semi_spray(L, pt, order, hessian_tol)
    coeffs = np.empty((n, n), dtype=object)
    for i in range(n):
        for a in range(n):
            coeffs[i, a] = G[a].partial(n + i)
    return coeffs


def poisson_bracket(f, g, pt, order=1):
    """Poisson bracket jet of two generators at a cotangent point."""
    _, xs, ps = pt.jets(order)
    fj = as_generator(f)(xs, ps)
    gj = as_generator(g)(xs, ps)
    return bracket_jets(fj, gj, pt.n)


def dtheta_residual(geo):
    """Max exterior-derivative component of the assembled symplectic form,
    read from the jets of its coordinate components at the point: the
    cyclic sum d_A theta_BC + d_B theta_CA + d_C theta_AB over A < B < C."""
    th = geo.theta_coord
    first = jet_space(th[0, 0].dim, 1)
    # d[A, B, C] = d_A theta_BC at the point
    d = _partials(first, _rows(th, first))[..., 0]
    triples = list(combinations(range(th.shape[0]), 3))
    A, B, C = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return _max_abs(d[A, B, C] + d[B, C, A] + d[C, A, B])


def dtheta_check(H, pt, step=1e-4):
    """Max exterior-derivative component of the assembled symplectic form,
    by central finite differences of its coordinate components over 4n
    neighbouring geometry builds.  This is the independent reference for
    `dtheta_residual` in the tests; the CLI reads the jet route."""

    def theta_at(arr):
        geo = GeometryAtPoint(H, PhasePoint.from_array(arr), 3)
        return real_values(geo.theta_coord)

    base = pt.as_array()
    n2 = 2 * pt.n
    grad = np.empty((n2, n2, n2))
    for A in range(n2):
        plus = base.copy()
        plus[A] += step
        minus = base.copy()
        minus[A] -= step
        grad[A] = (theta_at(plus) - theta_at(minus)) / (2 * step)
    return _max_abs(
        grad[A][B, Cc] + grad[B][Cc, A] + grad[Cc][A, B]
        for A, B, Cc in combinations(range(n2), 3)
    )


def _curvature_torsion_blocks(kind, omega, T, R, W):
    """Slice full-frame torsion T and curvature R jets into the reported
    component blocks, as values."""
    n = omega.shape[0]
    T_hij = values(T[:n, :n, :n])
    S_abc = values(T[n:, n:, n:])
    if kind == "canonical_d":
        # vanishing of these two blocks is a theorem for the canonical
        # connection; a violation (NaN included) means corrupted inputs
        worst = _max_abs((abs(T_hij).max(), abs(S_abc).max()))
        if not worst <= 1e-10:
            raise StarquantError(
                f"canonical d-connection torsion blocks T_hij, S_abc reach "
                f"{worst:.3g} where they must vanish: non-finite or corrupted inputs"
            )
    # mixed torsion reported as L^c_{ai} - d^c(N_ia): minus the (v out,
    # h direction, v source) block of the structure equations
    P_aic = -values(T[n:, :n, n:])
    R_ijkm = values(R[:n, :n, :n, :n])
    P_ijkc = values(R[:n, :n, :n, n:])
    S_ijbc = values(R[:n, :n, n:, n:])
    return CurvatureTorsion(
        values(omega), T_hij, S_abc, P_aic, R_ijkm, P_ijkc, S_ijbc, values(W)
    )


# ---------------------------------------------------------------------------
# residual suites shared by the tests and the CLI checker


def frame_identity_residuals(geo):
    """Max residuals of the defining frame and almost-structure identities."""
    out = {}
    n2 = 2 * geo.n
    eye = np.eye(n2)
    for kind, label in (("canonical_d", "plain"), ("phi_pair", "oblique")):
        F, C = geo.frames(kind)
        Fv, Cv = values(F), values(C)
        out[f"{label}_frame_pairing"] = float(np.abs(Fv @ Cv.T - eye).max())
        Jf = values(geo.complex_structure_frame(kind))
        out[f"{label}_J_squared"] = float(np.abs(Jf @ Jf + eye).max())
        th = values(geo.theta_frame(kind))
        gf = values(geo.metric_frame(kind))
        out[f"{label}_theta_vs_gJ"] = float(np.abs(Jf.T @ gf - th).max())
    # the almost product structure, +1 on the horizontal and -1 on the
    # vertical frame vectors, taken to coordinates through the plain frame
    Fv, Cv = (values(m) for m in geo.frames_n)
    P = Fv.T @ np.diag([1.0] * geo.n + [-1.0] * geo.n) @ Cv
    out["product_squared"] = float(np.abs(P @ P - eye).max())
    return out


def anholonomy_closed_form_residual(geo):
    """Compare the jet-bracket anholonomy of the plain frame against its
    closed form: the vertical part of [e_i, e_j] must match the
    nonlinear-connection curvature taken along the plain frame, the
    mixed part must match -d^c(N_ia), and every other block must vanish.
    """
    n = geo.n
    W = geo._anholonomy_stack("canonical_d")[1][..., 0]
    value, first = jet_space(2 * n, 0), jet_space(2 * n, 1)
    dN = _partials(first, _rows(geo.nconnection, first))
    # D[i, j, a] = e_i(N_ja) at the point, along the plain frame
    D = _along(value, _rows(geo.frames_n[0][:n], value)[:, None, None],
               dN[:, None])[..., 0]
    dN = dN[n:, ..., 0]  # dN[c, i, a] = d^c N_ia
    return _max_abs(np.concatenate([
        (W[n:, :n, :n].transpose(1, 2, 0) - (D - D.swapaxes(0, 1))).ravel(),
        W[:n, :n, :n].ravel(),
        (W[n:, :n, n:] + dN.transpose(2, 1, 0)).ravel(),
        W[:n, :n, n:].ravel(),
        W[:, n:, n:].ravel(),
    ]))


def metric_compat_residual(geo, kind):
    """Max component of the covariant derivative of the frame metric."""
    return _compat_residual(geo, kind, geo.metric_frame(kind))


def theta_compat_residual(geo, kind):
    """Max component of the covariant derivative of the symplectic form."""
    return _compat_residual(geo, kind, geo.theta_frame(kind))


def _compat_residual(geo, kind, form):
    # only the values are read, so every product is taken at order 0:
    # e_a form_bc - G_{d,a,b} form_dc - G_{d,a,c} form_bd, folded over d
    n2 = 2 * geo.n
    value, first = jet_space(n2, 0), jet_space(n2, 1)
    G = geo._connection_stack(kind)[1]
    form = _rows(form, first)
    acc = _along(value, _rows(geo.frames(kind)[0], value)[:, None, None],
                 _partials(first, form)[:, None])
    for d in range(n2):
        acc = acc - batched_mul(value, G[d][:, :, None], form[d][None, None])
        acc = acc - batched_mul(value, G[d][:, None], form[:, d][None, :, None])
    return _max_abs(acc)
