"""Pointwise geometry of regular Hamiltonians and Lagrangians.

Builds, at one phase-space point and through jet arithmetic, the whole
cotangent tower: fundamental tensor, nonlinear connection, adapted frames
(plain and oblique), metric and symplectic lifts, the almost complex
structure, the two canonical linear connections, and their torsion and
curvature, up to the contracted field-equation residual.  One
`GeometryAtPoint` per point owns all of it.  The Lagrange-side fiber
metric, semi-spray and nonlinear connection, and the vielbein lift, are
plain functions of a generator and a point.

The seed (H, the fiber metric g^{ab}, its inverse g_ab and the
nonlinear connection N) is held as jets.  From the frames on, every
tensor is built once as a coefficient stack: one complex array whose
last axis holds an entry's coefficients, all entries in one jet space.
The frames and coframes, theta on frame pairs, both lift metrics, J and
theta in coordinates are stacks in the jet space of N (a `FrameBasis`
per frame family); the anholonomy, connections, torsion, curvature,
Omega, Ricci and the scalar are stacks at the order the jet order rule
gives each.  A sum over a contraction index is a short loop of array
additions over batched products (`jets.batched_mul`), taken in the
order in which per-entry jet sums add their terms, so every entry has
the bits of those sums; by the jet order rule, computing at the lower
order equals multiplying at higher order and truncating.  The jet
accessors from the frames on are uncached views of the stacks.  Values
are read from coefficient 0, and residuals that read only values, such
as the compatibility checks, take their products at order 0.

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
from typing import NamedTuple

import numpy as np

from .errors import InsufficientJetOrder, StarquantError
from .expr import jet_function
from .jets import (
    Jet,
    JetSpace,
    PhasePoint,
    _obj_matmul,
    batched_mul,
    batched_partial,
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


def _at(own, rows, space):
    """The rows of a stack in the space `own`, cut to the lower `space`."""
    if own.order < space.order:
        raise InsufficientJetOrder(f"need jet order >= {space.order}, have {own.order}")
    return rows[..., : space.size]


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


def _matmul(space, A, B):
    """Matrix product of two stacks in `space`: entry (i, j) is the left
    fold over t of A[i, t] * B[t, j], a jsum of jet products."""
    return _dot(space, np.moveaxis(A, 1, 0)[:, :, None], B[:, None])


def _eye(n, space, value=1.0):
    """The n x n stack of jet_const(space, value) on the diagonal and
    zero jets off it."""
    out = np.zeros((n, n, space.size), dtype=np.complex128)
    out[np.arange(n), np.arange(n), 0] = value
    return out


def _blocks(tl, tr, bl, br):
    """The 2n x 2n stack of four n x n blocks."""
    return np.concatenate([np.concatenate([tl, tr], axis=1),
                           np.concatenate([bl, br], axis=1)])


def _along(space, frame, partials):
    """frame_deriv over stacks, in `space`: the fold over A of
    frame[..., A, :] times partials[A]."""
    return _dot(space, np.moveaxis(frame, -2, 0), partials)


def _values(rows):
    """The values of a stack's entries, as a fresh complex array."""
    return rows[..., 0].copy()


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
# the frame-basis structures, as stacks in the jet space of N


class FrameBasis(NamedTuple):
    """The structures of one frame family on frame components, each an
    (2n, 2n) stack in `space`, the jet space of the nonlinear connection."""

    space: JetSpace
    frame: np.ndarray  # one frame vector per row, in coordinate components
    coframe: np.ndarray  # likewise, frame @ coframe.T = I
    theta: np.ndarray  # theta = dp_k ^ dx^k on the frame pairs
    metric: np.ndarray  # the lift metric on the frame pairs
    metric_inverse: np.ndarray
    J: np.ndarray  # the almost complex operator on frame components


def _frame_basis(kind, space, gu, gl, N):
    """FrameBasis of the plain N-adapted frame (canonical_d) or of the
    oblique frame (phi_pair), from the rows of g^{ab}, g_ab and N in
    `space`.  Each entry has the bits, signed zeros included, that the
    same operations give on jets: a constant entry is jet_const (+0.0
    past the value), the oblique J diagonal is its negation (-0.0 there),
    and the plain frame's N entries are multiplied by 1.0 and -1.0, which
    can set the sign of a zero imaginary part where a copy or a negation
    would not."""
    n = len(N)
    zero, one = np.zeros_like(N), _eye(n, space)
    guT, glT, NT = (m.swapaxes(0, 1) for m in (gu, gl, N))
    if kind == "canonical_d":
        F = _blocks(one, N * 1.0, zero, one)
        C = _blocks(one, zero, NT * (-1.0), one)
        metric, inverse = _blocks(gl, zero, zero, gu), _blocks(gu, zero, zero, gl)
        J = _blocks(zero, guT, -glT, zero)
    else:
        F = _blocks(one, N, -gu, one - _matmul(space, gu, N))
        C = _blocks(one - _matmul(space, guT, NT), guT, -NT, one)
        minus_one = _eye(n, space, -1.0)
        metric = _blocks(gl, minus_one, minus_one, gu * 2.0)
        inverse = _blocks(gu * 2.0, one, one, gl)
        J = _blocks(np.where(np.eye(n, dtype=bool)[..., None], -one, 0.0), guT * 2.0, -glT,
                    one)
    # theta[a, b] = F[a, n+k] F[b, k] - F[b, n+k] F[a, k], each folded over k
    plus = _matmul(space, F[:, n:], F[:, :n].swapaxes(0, 1))
    return FrameBasis(space, F, C, plus - plus.swapaxes(0, 1), metric, inverse, J)


def _anholonomy(basis):
    """W[gamma][alpha][beta] from the brackets of the frame fields of a
    FrameBasis, as a (space, rows) stack: W[g, a, b] = C[g, B] [F_a, F_b]^B."""
    top, F = basis.space, basis.frame
    n2 = len(F)
    space = jet_space(n2, top.order - 1)
    dF = _partials(top, F)
    a, b = np.triu_indices(n2, 1)
    # [F_a, F_b]^B = e_a(F_b^B) - e_b(F_a^B) over the pairs a < b
    br = (_along(space, F[a, None], dF[:, b])
          - _along(space, F[b, None], dF[:, a]))
    C = _at(top, basis.coframe, space)
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
    connection G, the anholonomy W and the frame F:
    e_a G_{g,b,ph} - e_b G_{g,a,ph} plus the fold over d of
    G_{d,b,ph} G_{g,a,d} - G_{d,a,ph} G_{g,b,d} - W_{d,a,b} G_{g,d,ph}."""
    (g_space, G), (w_space, W), (f_space, F) = G, W, F
    n2 = G.shape[0]
    space = jet_space(n2, min(g_space.order - 1, w_space.order, f_space.order))
    Fr = _at(f_space, F, space)
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
    rows) stack, from the (space, rows) stacks of the frame complex
    structure J and of X."""
    (j_space, J), (x_space, X) = J, X
    n2 = X.shape[0]
    space = jet_space(n2, min(x_space.order, j_space.order))
    lefts = _at(j_space, J, space).reshape((n2 * n2,) + (1,) * (X.ndim - 3) + (space.size,))
    return space, _dot(space, lefts, X.swapaxes(0, 1).reshape((n2 * n2,) + X.shape[2:]))


def _curvature_trace(J, R):
    """The curvature trace 2-form gamma[a][b] = -(1/4) J[a', t]
    R[t][a'][a][b] as a (space, rows) stack, from the stacks J and R."""
    space, gamma = _j_trace(J, R)
    return space, gamma * (-0.25)


def _omega(N, F):
    """Omega_ija = e_i(N_ja) - e_j(N_ia) along the oblique horizontal
    frame, as a (space, rows) stack, from the jets N and the oblique
    frame's (space, rows) stack F."""
    f_space, F = F
    n = N.shape[0]
    space = jet_space(2 * n, min(N[0, 0].order - 1, f_space.order))
    up = jet_space(2 * n, space.order + 1)
    # D[i, j, a] = e_i(N_ja)
    D = _along(space, _at(f_space, F[:n], space)[:, None, None],
               _partials(up, _rows(N, up))[:, None])
    return space, D - D.swapaxes(0, 1)


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

    def __init__(self, generator, point, order):
        self.fn = as_generator(generator)
        self.point = point
        self.order = order
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
        return self._memo("g_lower", lambda: jet_matrix_inverse(self.g_upper))

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

    # Every tensor from the frames on is built once as a (space, rows)
    # stack; the jet accessors below are uncached views of the stacks.

    def _basis(self, kind):
        """The FrameBasis of the frame family used by the connection kind."""

        def build():
            space = self.nconnection[0, 0].space
            return _frame_basis(kind, space, *(_rows(m, space) for m in (
                self.g_upper, self.g_lower, self.nconnection)))

        return self._memo(("basis", kind), build)

    def _view(self, kind, name):
        basis = self._basis(kind)
        return _jets(basis.space, getattr(basis, name))

    def frames(self, kind):
        """(frame, coframe) jet matrices for the frame family used by the
        requested connection kind."""
        return self._view(kind, "frame"), self._view(kind, "coframe")

    def theta_frame(self, kind):
        return self._view(kind, "theta")

    def metric_frame(self, kind):
        """Lift metric on frame pairs: diag(g_ij, g^{ab}) for the plain
        frame, the bordered form for the oblique frame."""
        return self._view(kind, "metric")

    def metric_frame_inverse(self, kind):
        return self._view(kind, "metric_inverse")

    def complex_structure_frame(self, kind):
        """Almost complex operator on frame components (acts on column
        vectors of frame components)."""
        return self._view(kind, "J")

    def operator_to_coord(self, O_frame, kind):
        """F^T O C: an operator on frame components, given as jets, taken
        to coordinates."""
        basis = self._basis(kind)
        space = basis.space
        FT_O = _matmul(space, basis.frame.swapaxes(0, 1), _rows(O_frame, space))
        return _jets(space, _matmul(space, FT_O, basis.coframe))

    def _theta_coord_stack(self):
        def build():
            self._need("lifts")
            basis = self._basis("canonical_d")
            space, C = basis.space, basis.coframe
            return space, _matmul(space, _matmul(space, C.swapaxes(0, 1), basis.theta), C)

        return self._memo("theta_coord_stack", build)

    @property
    def theta_coord(self):
        return _jets(*self._theta_coord_stack())

    # -- anholonomy, connections, torsion, curvature --------------------------

    def _anholonomy_stack(self, kind):
        def build():
            self._need("anholonomy")
            return _anholonomy(self._basis(kind))

        return self._memo(("anholonomy_stack", kind), build)

    def _connection_stack(self, kind):
        def build():
            self._need(kind)
            n, n2 = self.n, 2 * self.n
            basis = self._basis(kind)
            metric = self.g_upper[0, 0].space
            gl, gu = _rows(self.g_lower, metric), _rows(self.g_upper, metric)
            order = min(basis.space.order, metric.order - 1)
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
            F = _at(basis.space, basis.frame, space)
            hhh = _koszul_block(space, F[:n], gl, gu, w_h)
            vvv = _koszul_block(space, F[n:], gu, gl, w_v)
            return space, _full_connection(hhh, vvv)

        return self._memo(("connection_stack", kind), build)

    def _curvature_stack(self, kind):
        def build():
            self._need("curvature_d" if kind == "canonical_d" else "curvature_phi")
            basis = self._basis(kind)
            return _curvature_full(self._connection_stack(kind), self._anholonomy_stack(kind),
                                   (basis.space, basis.frame))

        return self._memo(("curvature_stack", kind), build)

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
        def build():
            basis = self._basis(kind)
            return _curvature_trace((basis.space, basis.J), self._curvature_stack(kind))

        return self._memo(("trace_stack", kind), build)

    def _omega_stack(self):
        def build():
            self._need("omega")
            basis = self._basis("phi_pair")
            return _omega(self.nconnection, (basis.space, basis.frame))

        return self._memo("omega_stack", build)

    def _ricci_stack(self):
        def build():
            self._need("ricci")
            space, R = self._curvature_stack("phi_pair")
            diag = np.arange(2 * self.n)
            # ric[b, g] = R[a, b, g, a], folded over a
            return space, _fold(R[diag, :, :, diag])

        return self._memo("ricci_stack", build)

    def _scalar_stack(self):
        def build():
            space, ric = self._ricci_stack()
            basis = self._basis("phi_pair")
            ginv = _at(basis.space, basis.metric_inverse, space)
            n2 = 2 * self.n
            terms = batched_mul(space, ginv, ric)
            return space, _fold(terms.reshape(n2 * n2, space.size))

        return self._memo("scalar_stack", build)

    def anholonomy(self, kind):
        """Anholonomy coefficients W[gamma][alpha][beta] of the frame."""
        return _jets(*self._anholonomy_stack(kind))

    def connection(self, kind):
        """Full coefficient array Gamma[output][direction][source]."""
        return _jets(*self._connection_stack(kind))

    def torsion(self, kind):
        return _jets(*self._torsion_stack(kind))

    def curvature(self, kind):
        return _jets(*self._curvature_stack(kind))

    @property
    def omega(self):
        return _jets(*self._omega_stack())

    @property
    def ricci_phi(self):
        return _jets(*self._ricci_stack())

    @property
    def scalar_phi(self):
        return Jet(*self._scalar_stack())

    @property
    def nijenhuis(self):
        def build():
            self._need("nijenhuis")
            F, C = self.frames("canonical_d")
            Jc = self.operator_to_coord(
                self.complex_structure_frame("canonical_d"), "canonical_d"
            )
            return _nijenhuis_values(F, C, Jc)

        return self._memo("nijenhuis", build)

    def curvature_torsion(self, kind):
        """Torsion and curvature blocks of one connection kind, read from
        the values of the cached torsion, curvature, anholonomy and Omega."""
        return self._memo(
            ("curvature_torsion", kind),
            lambda: _curvature_torsion_blocks(kind, *(stack[1][..., 0] for stack in (
                self._omega_stack(), self._torsion_stack(kind), self._curvature_stack(kind),
                self._anholonomy_stack(kind)))),
        )

    def einstein_residual(self, lam=0.0):
        """Left side of the contracted field equations with zero source: the
        raised Ricci block minus (1/2)(scalar + lambda) times the identity,
        with the coordinate leg restored through the oblique coframe."""
        ric = _values(self._ricci_stack()[1])
        scalar = complex(self._scalar_stack()[1][0])
        basis = self._basis("phi_pair")
        ginv, Cv = _values(basis.metric_inverse), _values(basis.coframe)
        return (ginv @ ric @ Cv - 0.5 * (scalar + lam) * Cv).real


# ---------------------------------------------------------------------------
# Lagrange-side objects, vielbein lifts, brackets and references


def _velocity_hessian(L, pt, order):
    fn = as_generator(L)
    _, xs, ys = pt.jets(order)
    Lj = fn(xs, ys)
    n = pt.n
    lower = np.empty((n, n), dtype=object)
    for a in range(n):
        da = Lj.partial(n + a)
        for b in range(n):
            lower[a, b] = da.partial(n + b)
    upper = jet_matrix_inverse(lower)
    return Lj, lower, upper


def fundamental_tensor_lagrange(L, pt, order=2):
    """(upper, lower) jet matrices: the velocity Hessian of L sits in
    `lower` (indices down), its inverse in `upper`."""
    _, lower, upper = _velocity_hessian(L, pt, order)
    return upper, lower


def _vielbein_upper(base_fns, viel_fns, xs, ps):
    """Fiber metric E g_base^-1 E^T, indices up, from generators of the
    base metric (lower indices) and of the vielbein entries."""
    n = len(xs)
    base_lo = np.empty((n, n), dtype=object)
    E = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            base_lo[i, j] = base_fns[i][j](xs, ps)
            E[i, j] = viel_fns[i][j](xs, ps)
    base_up = jet_matrix_inverse(base_lo)
    return _obj_matmul(_obj_matmul(E, base_up), _transpose(E))


def _generators(rows):
    return [[as_generator(e) for e in row] for row in rows]


def vielbein_lift(g_base, vielbein, pt, order=2):
    """(upper, lower) jet matrices of the fiber metric
    g^{ij}(x,p) = e^i_k e^j_l g^{kl}(x) built from a base metric given
    with lower indices (x only) and vielbein entries (x, p)."""
    _, xs, ps = pt.jets(order)
    upper = _vielbein_upper(_generators(g_base), _generators(vielbein), xs, ps)
    return upper, jet_matrix_inverse(upper)


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


def semi_spray(L, pt, order=2):
    """Spray coefficients G^i = (1/2) g^{ij} (d2L/dy^j dx^k y^k - dL/dx^j)."""
    n = pt.n
    _, xs, ys = pt.jets(order)
    Lj, _, upper = _velocity_hessian(L, pt, order)
    out = []
    for i in range(n):
        inner = []
        for j in range(n):
            dj = Lj.partial(n + j)
            mixed = jsum([dj.partial(k) * ys[k] for k in range(n)])
            inner.append(upper[i, j] * (mixed - Lj.partial(j)))
        out.append(jsum(inner) * 0.5)
    return out


def nconnection_tangent(L, pt, order=3):
    """N_i^a = dG^a/dy^i for the Lagrange semi-spray, as a jet matrix."""
    n = pt.n
    G = semi_spray(L, pt, order)
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
    space, th = geo._theta_coord_stack()
    first = jet_space(space.dim, 1)
    # d[A, B, C] = d_A theta_BC at the point
    d = _partials(first, _at(space, th, first))[..., 0]
    triples = list(combinations(range(len(th)), 3))
    A, B, C = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return _max_abs(d[A, B, C] + d[B, C, A] + d[C, A, B])


def dtheta_check(H, pt, step=1e-4):
    """Max exterior-derivative component of the assembled symplectic form,
    by central finite differences of its coordinate components over 4n
    neighbouring geometry builds.  This is the independent reference for
    `dtheta_residual` in the tests; the CLI reads the jet route."""

    def theta_at(arr):
        geo = GeometryAtPoint(H, PhasePoint.from_array(arr), 3)
        return _values(geo._theta_coord_stack()[1]).real

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
    """Slice the values of the full-frame torsion T and curvature R into
    the reported component blocks, each a fresh array."""
    n = omega.shape[0]
    T_hij = T[:n, :n, :n].copy()
    S_abc = T[n:, n:, n:].copy()
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
    P_aic = -T[n:, :n, n:]
    R_ijkm = R[:n, :n, :n, :n].copy()
    P_ijkc = R[:n, :n, :n, n:].copy()
    S_ijbc = R[:n, :n, n:, n:].copy()
    return CurvatureTorsion(omega.copy(), T_hij, S_abc, P_aic, R_ijkm, P_ijkc, S_ijbc,
                            W.copy())


# ---------------------------------------------------------------------------
# residual suites shared by the tests and the CLI checker


def frame_identity_residuals(geo):
    """Max residuals of the defining frame and almost-structure identities."""
    out = {}
    n2 = 2 * geo.n
    eye = np.eye(n2)
    for kind, label in (("canonical_d", "plain"), ("phi_pair", "oblique")):
        basis = geo._basis(kind)
        Fv, Cv, Jf, th, gf = (_values(x) for x in (basis.frame, basis.coframe, basis.J,
                                                   basis.theta, basis.metric))
        out[f"{label}_frame_pairing"] = float(np.abs(Fv @ Cv.T - eye).max())
        out[f"{label}_J_squared"] = float(np.abs(Jf @ Jf + eye).max())
        out[f"{label}_theta_vs_gJ"] = float(np.abs(Jf.T @ gf - th).max())
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
    basis = geo._basis("canonical_d")
    D = _along(value, _at(basis.space, basis.frame[:n], value)[:, None, None],
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
    return _compat_residual(geo, kind, "metric")


def theta_compat_residual(geo, kind):
    """Max component of the covariant derivative of the symplectic form."""
    return _compat_residual(geo, kind, "theta")


def _compat_residual(geo, kind, name):
    # only the values are read, so every product is taken at order 0:
    # e_a form_bc - G_{d,a,b} form_dc - G_{d,a,c} form_bd, folded over d
    n2 = 2 * geo.n
    value, first = jet_space(n2, 0), jet_space(n2, 1)
    G = geo._connection_stack(kind)[1]
    basis = geo._basis(kind)
    form = _at(basis.space, getattr(basis, name), first)
    acc = _along(value, _at(basis.space, basis.frame, value)[:, None, None],
                 _partials(first, form)[:, None])
    for d in range(n2):
        acc = acc - batched_mul(value, G[d][:, :, None], form[d][None, None])
        acc = acc - batched_mul(value, G[d][:, None], form[:, d][None, :, None])
    return _max_abs(acc)
