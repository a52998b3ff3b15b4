"""Formal Wick algebra over the oblique frames and the Fedosov-type
quantization pipeline built on it.

Elements are finite sums  a = sum  c_{r,z,F}(u) v^r z^z e^F  where the
coefficients c are jets in the base chart (so the covariant operator can
act repeatedly), z ranges over 2n fiber slots indexed like the oblique
frame, and e^F is a wedge of frame coforms.  The total degree
Deg = 2 deg_v + deg_s is truncated at d_max after every operation.

Conventions fixed here and relied on by the tests:
  - delta(a) = e^alpha ^ d a / d z^alpha, and its partial inverse carries
    1/(p+q) on a piece with deg_s = p, deg_a = q, so that
    delta delta_inv + delta_inv delta + sigma = Id on monomials;
  - the torsion and curvature lifts lower the output slot with the
    constant frame pairing theta evaluated on the oblique frames;
  - ad(x)(a) is the deg_a-graded commutator under the Wick product;
  - division by v drops one v power and insists the v^0 part is zero.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StarquantError
from .geometry import (
    GeometryAtPoint,
    as_generator,
    frame_deriv,
    jmul,
    jsum,
    values,
)
from .jets import Jet, align

PRUNE_TOL = 1e-14


# ---------------------------------------------------------------------------
# wedge bookkeeping on sorted index tuples


def wedge_merge(f1, f2):
    """Merge two strictly increasing index tuples into one wedge monomial.

    Returns (sign, merged) or None when an index repeats."""
    if not f1:
        return 1, f2
    if not f2:
        return 1, f1
    merged = []
    sign = 1
    i = j = 0
    while i < len(f1) and j < len(f2):
        a, b = f1[i], f2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of f1
            if (len(f1) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(f1[i:])
    merged.extend(f2[j:])
    return sign, tuple(merged)


def _bump(z, slot, by):
    out = list(z)
    out[slot] += by
    return tuple(out)


# ---------------------------------------------------------------------------
# the element container


@dataclass
class WickElement:
    """Truncated formal series with jet coefficients.

    terms maps (v_power, z_exponents, form_indices) -> Jet."""

    n: int
    d_max: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def zero(cls, n, d_max):
        return cls(n, d_max, {})

    @classmethod
    def from_jet(cls, coeff, n, d_max):
        key = (0, (0,) * (2 * n), ())
        return cls(n, d_max, {key: coeff})

    def _like(self, terms):
        return WickElement(self.n, self.d_max, terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return _built(self.n, self.d_max, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor):
        return self._like({k: c * factor for k, c in self.terms.items()})

    def vshift(self, by):
        out = {}
        for (r, z, f), c in self.terms.items():
            if r + by < 0:
                raise StarquantError("negative v power after shift")
            out[(r + by, z, f)] = c
        return _built(self.n, self.d_max, out)

    def restrict(self, max_deg):
        """Drop components with Deg above max_deg (truncation-complete part)."""
        keep = {k: c for k, c in self.terms.items() if 2 * k[0] + sum(k[1]) <= max_deg}
        return self._like(keep)

    def form_split(self):
        """Split by parity of the form degree: (even part, odd part)."""
        even, odd = {}, {}
        for key, c in self.terms.items():
            (odd if len(key[2]) % 2 else even)[key] = c
        return self._like(even), self._like(odd)

    def scalar_part(self, v_power):
        """Jet coefficient of v^r with no fiber variables and no form."""
        return self.terms.get((v_power, (0,) * (2 * self.n), ()))

    def scalar_parts(self, v_max):
        """{r: scalar_part(r)} for r = 0 .. v_max, absent orders skipped."""
        parts = {r: self.scalar_part(r) for r in range(v_max + 1)}
        return {r: c for r, c in parts.items() if c is not None}

    def max_abs(self):
        if not self.terms:
            return 0.0
        return max(float(np.abs(c.coeffs).max()) for c in self.terms.values())

    def is_zero(self, tol=0.0):
        return self.max_abs() <= tol

    def _check(self, other):
        if self.n != other.n or self.d_max != other.d_max:
            raise ValueError("mixed truncation settings")


def _accumulate(store, key, coeff):
    cur = store.get(key)
    if cur is None:
        store[key] = coeff
    else:
        a, b = align(cur, coeff)
        store[key] = a + b


def _built(n, d_max, store):
    clean = {}
    for key, c in store.items():
        if 2 * key[0] + sum(key[1]) > d_max:
            continue
        if np.abs(c.coeffs).max() <= PRUNE_TOL:
            continue
        clean[key] = c
    return WickElement(n, d_max, clean)


# ---------------------------------------------------------------------------
# operator pair: fiber differential, partial inverse, projection


def delta_pair(a):
    """e^alpha wedge d/dz^alpha; lowers deg_s, raises deg_a."""
    out = {}
    for (r, z, f), c in a.terms.items():
        for al in range(2 * a.n):
            if z[al] == 0:
                continue
            merged = wedge_merge((al,), f)
            if merged is None:
                continue
            sign, form = merged
            _accumulate(out, (r, _bump(z, al, -1), form), c * (sign * z[al]))
    return _built(a.n, a.d_max, out)


def delta_inv_pair(a):
    """Partial inverse: z^alpha times interior product, weighted 1/(p+q)."""
    out = {}
    for (r, z, f), c in a.terms.items():
        total = sum(z) + len(f)
        if total == 0:
            continue
        weight = 1.0 / total
        for pos, al in enumerate(f):
            sign = -1.0 if pos % 2 else 1.0
            form = f[:pos] + f[pos + 1 :]
            _accumulate(out, (r, _bump(z, al, 1), form), c * (sign * weight))
    return _built(a.n, a.d_max, out)


def sigma(a):
    """Projection onto the part with no fiber variables and no form."""
    keep = {k: c for k, c in a.terms.items() if sum(k[1]) == 0 and not k[2]}
    return WickElement(a.n, a.d_max, keep)


# ---------------------------------------------------------------------------
# frame data consumed by the covariant operator


@dataclass
class ConnectionContext:
    """Connection and frame tensors of one adapted family at the point."""

    n: int
    frames: np.ndarray
    gamma: np.ndarray
    anholonomy: np.ndarray
    torsion: np.ndarray
    curvature: np.ndarray
    theta_low: np.ndarray


def connection_context(geo, kind="phi_pair"):
    return ConnectionContext(
        n=geo.n,
        frames=geo.frames(kind)[0],
        gamma=geo.connection(kind),
        anholonomy=geo.anholonomy(kind),
        torsion=geo.torsion(kind),
        curvature=geo.curvature(kind),
        theta_low=values(geo.theta_frame(kind)),
    )


def extended_D(a, ctx):
    """Covariant derivative on coefficients and fiber slots; raises deg_a.

    On a term c(u) z^z e^F the alpha-component is
    e_alpha(c) - Gamma^out_{alpha,src} z^src d/dz^out (c z^z), wedged with
    e^alpha, plus c times the exterior derivative of e^F, where
    d e^eps = -(1/2) W^eps_{mu nu} e^mu wedge e^nu.
    """
    n2 = 2 * ctx.n
    F, G, W = ctx.frames, ctx.gamma, ctx.anholonomy
    out = {}
    for (r, z, f), c in a.terms.items():
        for al in range(n2):
            merged = wedge_merge((al,), f)
            if merged is None:
                continue
            sign, form = merged
            _accumulate(out, (r, z, form), frame_deriv(c, F[al]) * sign)
            for slot in range(n2):
                if z[slot] == 0:
                    continue
                for src in range(n2):
                    znew = _bump(_bump(z, slot, -1), src, 1)
                    coeff = jmul(G[slot, al, src], c) * (-sign * z[slot])
                    _accumulate(out, (r, znew, form), coeff)
        for pos, eps in enumerate(f):
            rest = f[:pos] + f[pos + 1 :]
            psign = -1.0 if pos % 2 else 1.0
            for mu in range(n2):
                for nu in range(mu + 1, n2):
                    merged = wedge_merge((mu, nu), rest)
                    if merged is None:
                        continue
                    s2, form = merged
                    coeff = jmul(W[eps, mu, nu], c) * (-psign * s2)
                    _accumulate(out, (r, z, form), coeff)
    return _built(a.n, a.d_max, out)


def lifted_torsion_curvature(ctx, d_max):
    """Fiber lifts of the torsion and curvature 2-forms.

    T_lift = (1/2) z^g theta_{t g} T^t_{ab} e^a ^ e^b   (deg_s 1, deg_a 2)
    R_lift = (1/4) z^g z^h theta_{t g} R^t_{h a b} e^a ^ e^b  (deg_s 2).

    The theta index order is pinned by the closure of the degree recursion:
    with it, [D, delta]_+ = (i/v) ad(T_lift) and D^2 = -(i/v) ad(R_lift)
    hold identically and the Bianchi consistency makes every delta_inv
    step exact.
    """
    n2 = 2 * ctx.n
    th = ctx.theta_low
    t_terms, r_terms = {}, {}
    for g in range(n2):
        zkey_t = _bump((0,) * n2, g, 1)
        for a in range(n2):
            for b in range(a + 1, n2):
                # antisymmetry in (a, b) folds the 1/2 into the a < b sum
                pieces = [
                    ctx.torsion[t, a, b] * th[t, g]
                    for t in range(n2)
                    if th[t, g] != 0.0
                ]
                if pieces:
                    _accumulate(t_terms, (0, zkey_t, (a, b)), jsum(pieces))
        for h in range(n2):
            zkey_r = _bump(zkey_t, h, 1)
            for a in range(n2):
                for b in range(a + 1, n2):
                    pieces = [
                        ctx.curvature[t, h, a, b] * (0.5 * th[t, g])
                        for t in range(n2)
                        if th[t, g] != 0.0
                    ]
                    if pieces:
                        _accumulate(r_terms, (0, zkey_r, (a, b)), jsum(pieces))
    return _built(ctx.n, d_max, t_terms), _built(ctx.n, d_max, r_terms)


# ---------------------------------------------------------------------------
# the fiberwise product


def wick_product(a, b, lam, cap=None):
    """Exponential bidifferential product with matrix lam = theta - i g.

    Each contraction pairs d/dz on the left with d/dz on the right through
    one factor (i v / 2) lam^{alpha beta}; the wedge combines form factors
    with sign, and the result is re-truncated at d_max.

    Deg = 2 deg_v + deg_s is additive: a contraction trades two fiber
    variables for one v, so every key a pair of terms feeds has the Deg sum
    of that pair.  A caller that keeps only Deg <= cap passes it here, and
    pairs above min(cap, d_max) are skipped.  The kept keys receive exactly
    the pieces, in the same order, as without the cap, so the result equals
    the uncapped product restricted to cap, bit for bit; the container
    stays at d_max."""
    a._check(b)
    n2 = 2 * a.n
    top = a.d_max if cap is None else min(cap, a.d_max)
    contract_cache = {}

    def contractions(za, zb):
        """List of (t, za', zb', weight jet or scalar) for t >= 1."""
        key = (za, zb)
        hit = contract_cache.get(key)
        if hit is not None:
            return hit
        rows = []
        states = {(za, zb): 1.0}
        t = 0
        while states and t < min(sum(za), sum(zb)):
            t += 1
            new = {}
            for (sa, sb), w in states.items():
                for al in range(n2):
                    if sa[al] == 0:
                        continue
                    for be in range(n2):
                        if sb[be] == 0:
                            continue
                        factor = sa[al] * sb[be]
                        piece = lam[al, be] * (w if np.isscalar(w) else 1.0)
                        if not np.isscalar(w):
                            piece = jmul(w, piece)
                        nk = (_bump(sa, al, -1), _bump(sb, be, -1))
                        cur = new.get(nk)
                        if cur is None:
                            new[nk] = piece * factor
                        else:
                            cur, piece = align(cur, piece * factor)
                            new[nk] = cur + piece
            states = new
            pref = (0.5j) ** t / math.factorial(t)
            for (sa, sb), w in states.items():
                rows.append((t, sa, sb, w * pref))
        contract_cache[key] = rows
        return rows

    out = {}
    for (ra, za, fa), ca in a.terms.items():
        deg_a_term = 2 * ra + sum(za)
        for (rb, zb, fb), cb in b.terms.items():
            if deg_a_term + 2 * rb + sum(zb) > top:
                continue
            merged = wedge_merge(fa, fb)
            if merged is None:
                continue
            sign, form = merged
            base = jmul(ca, cb) * sign
            _accumulate(out, (ra + rb, _zadd(za, zb), form), base)
            for t, sa, sb, w in contractions(za, zb):
                _accumulate(out, (ra + rb + t, _zadd(sa, sb), form), jmul(base, w))
    return _built(a.n, a.d_max, out)


def wick_scalar_parts(a, b, lam, v_max):
    """scalar_parts(v_max) of a o b.  The scalar key (r, 0, ()) has Deg 2 r,
    so the product is capped at 2 v_max."""
    return wick_product(a, b, lam, cap=2 * v_max).scalar_parts(v_max)


def _zadd(za, zb):
    return tuple(x + y for x, y in zip(za, zb))


def ad_wick(x, a, lam, cap=None):
    """deg_a-graded commutator x o a - (-1)^{deg_a x deg_a a} a o x,
    with both products capped at Deg <= cap (see wick_product)."""
    x_even, x_odd = x.form_split()
    a_even, a_odd = a.form_split()
    out = wick_product(x, a, lam, cap)
    for xp, xel in ((0, x_even), (1, x_odd)):
        if not xel.terms:
            continue
        for ap, ael in ((0, a_even), (1, a_odd)):
            if not ael.terms:
                continue
            sign = -1.0 if (xp * ap) % 2 == 0 else 1.0
            out = out + wick_product(ael, xel, lam, cap).scale(sign)
    return out


def v_divide(a, tol=1e-12):
    """Drop one power of v; the v^0 part must already vanish."""
    floor = max(
        (float(np.abs(c.coeffs).max()) for (r, _, _), c in a.terms.items() if r == 0),
        default=0.0,
    )
    if floor > tol * max(1.0, a.max_abs()):
        raise StarquantError(
            f"v-division of an element with v^0 part of size {floor:.3g}"
        )
    out = {}
    for (r, z, f), c in a.terms.items():
        if r > 0:
            out[(r - 1, z, f)] = c
    return _built(a.n, a.d_max, out)


# ---------------------------------------------------------------------------
# the per-point quantization state


@dataclass
class FedosovState:
    """Everything the star product needs at one working point.

    d_max bounds the degrees the recursion determines; d_alg = d_max + 2 is
    the cap of the working containers.  The extra two degrees are headroom:
    a product of complete pieces can carry total degree up to d_max + 2
    before the division by v brings its contribution back under d_max, so
    truncating at d_max would silently lose complete degrees.

    Not every product needs all of that headroom.  Since Deg adds under the
    Wick product and the division by v lowers it by 2, a product read only
    up to degree k after the division needs pairs up to k + 2, and each
    caller caps its products there: the scalar reads of v^0 .. v^r in
    wick_scalar_parts at 2 r, since the key (r, 0, ()) has Deg 2 r, and the
    test references of the closure (the fresh square in recursion_residual,
    the flat connection in tau_flatness and flat_connection_defect) at the
    degrees they read.  The containers themselves stay at d_alg."""

    geometry: GeometryAtPoint
    d_max: int
    d_alg: int
    ctx: ConnectionContext
    lam: np.ndarray
    torsion_lift: WickElement
    curvature_lift: WickElement
    r: WickElement = None  # set by fedosov_r
    r_components: dict = field(default_factory=dict)
    residual: float = None  # closure residual, stored by fedosov_r

    @property
    def n(self):
        return self.geometry.n


def build_state(generator, point, d_max, order=None, hessian_tol=1e-10):
    """Evaluate the oblique-frame geometry at the point and run the
    degree recursion.  Jet order defaults to 3 + d_max (at least 5)."""
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    if order is None:
        order = max(5, 3 + d_max)
    geo = GeometryAtPoint(as_generator(generator), point, order, hessian_tol)
    ctx = connection_context(geo, "phi_pair")
    n2 = 2 * geo.n
    ginv = geo.metric_frame_inverse("phi_pair")
    lam = np.empty((n2, n2), dtype=object)
    for al in range(n2):
        for be in range(n2):
            lam[al, be] = ginv[al, be] * (-1j) + ctx.theta_low[al, be]
    d_alg = d_max + 2
    t_lift, r_lift = lifted_torsion_curvature(ctx, d_alg)
    state = FedosovState(
        geometry=geo,
        d_max=d_max,
        d_alg=d_alg,
        ctx=ctx,
        lam=lam,
        torsion_lift=t_lift,
        curvature_lift=r_lift,
    )
    fedosov_r(state)
    return state


def _solve_degrees(total, x, degrees, source):
    """Solve delta x[m] = src_m = source(m) for m in degrees, in order, by
    x[m] = delta_inv(src_m); source(m) reads only the x[k] already solved.
    A step is exact where src_m is delta-closed, so the largest defect
    |delta x[m] - src_m| is the residual of the whole equation on Deg m - 1
    for each m.  Returns (total + the sum of the x[m], that defect)."""
    defect = 0.0
    for m in degrees:
        src = source(m)
        x[m] = delta_inv_pair(src)
        total = total + x[m]
        defect = max(defect, (delta_pair(x[m]) - src).max_abs())
    return total, defect


def fedosov_r(state):
    """Degree-by-degree solution of the flatness equation
    delta r = T_lift + R_lift + D r - (i/v) r o r:  comp[2] = delta_inv
    T_lift, comp[3] picks up the curvature lift, and each later degree m
    solves comp[m] = delta_inv(D comp[m-1] - (i/v) sum_{a+b=m+1} comp[a] o
    comp[b]).  The closure defect, on Deg 1 .. d_max - 1, is state.residual."""
    comp = {}

    def source(m):
        if m == 2:
            return state.torsion_lift
        acc = extended_D(comp[m - 1], state.ctx)
        if m == 3:
            acc = acc + state.curvature_lift
        pairs = [wick_product(comp[p], comp[m + 1 - p], state.lam) for p in range(2, m)]
        return acc - v_divide(sum(pairs[1:], pairs[0]).scale(1j))

    zero = WickElement.zero(state.n, state.d_alg)
    r, resid = _solve_degrees(zero, comp, range(2, state.d_max + 1), source)
    state.r, state.r_components, state.residual = r, comp, resid
    if resid > 1e-6:
        raise StarquantError(f"degree recursion failed to close: residual {resid:.3g}")
    return r


def recursion_residual(state):
    """Max coefficient of delta r - (T + R + D r - (i/v) r o r), restricted
    to the degrees the truncation determines completely."""
    r = state.r
    lhs = delta_pair(r)
    rhs = state.torsion_lift + state.curvature_lift + extended_D(r, state.ctx)
    # read at d_max - 1 after the division by v
    square = wick_product(r, r, state.lam, cap=state.d_max + 1)
    if square.terms:
        rhs = rhs - v_divide(square.scale(1j))
    return (lhs - rhs).restrict(state.d_max - 1).max_abs()


def _in_container(a, d_alg):
    if a.d_max == d_alg:
        return a
    return _built(a.n, d_alg, dict(a.terms))


def flat_connection_apply(a, state, cap=None):
    """The candidate flat connection: -delta + D - (i/v) ad(r).  With a cap
    the Wick products skip pairs above Deg cap, so the result is exact
    through degree cap - 2 only."""
    a = _in_container(a, state.d_alg)
    out = extended_D(a, state.ctx) - delta_pair(a)
    if state.r.terms:
        out = out - v_divide(ad_wick(state.r, a, state.lam, cap).scale(1j))
    return out


def flat_connection_defect(a, state):
    """Max coefficient of the double application, on complete degrees.

    The square equals (i/v) ad of the curvature of the connection, and the
    recursion leaves that curvature undetermined from degree d_max up.  The
    division by v pulls the unknown part two degrees down, so only degrees
    strictly below d_max - 1 are meaningful for a degree-1 probe.

    The first application is kept through d_max, so its products need the
    full d_alg = d_max + 2; the second is read at d_max - 2 and caps its
    products at d_max."""
    once = flat_connection_apply(a, state).restrict(state.d_max)
    twice = flat_connection_apply(once, state, cap=state.d_max)
    return twice.restrict(state.d_max - 2).max_abs()


# ---------------------------------------------------------------------------
# flat sections and the star product


def _observable_jet(f, geo):
    if isinstance(f, Jet):
        return f
    return as_generator(f)(geo.base_jets, geo.fiber_jets)


def tau_lift(f, state):
    """The flat section projecting to f, degree by degree:
    t[m] = delta_inv(D t[m-1] - (i/v) sum_l ad(comp[l+2]) t[m-1-l]).
    Returns (lift, defect): the closure defect of these steps is the
    flatness residual on Deg 0 .. d_max - 1."""
    f0 = _observable_jet(f, state.geometry)
    t = {0: WickElement.from_jet(f0, state.n, state.d_alg)}

    def source(m):
        acc = extended_D(t[m - 1], state.ctx)
        pieces = [ad_wick(state.r_components[l + 2], t[m - 1 - l], state.lam)
                  for l in range(m) if l + 2 in state.r_components]
        if pieces:
            acc = acc - v_divide(sum(pieces[1:], pieces[0]).scale(1j))
        return acc

    return _solve_degrees(t[0], t, range(1, state.d_max + 1), source)


def tau_flatness(lifted, state):
    """Residual of the flat-section property of a lift from tau_lift."""
    applied = flat_connection_apply(lifted, state, cap=state.d_max + 1)
    return applied.restrict(state.d_max - 1).max_abs()


def star_product(f, g, state, v_max=None):
    """Complex coefficients C_r(f, g) of v^r, r = 0 .. v_max."""
    if v_max is None:
        v_max = state.d_max // 2
    fj = _observable_jet(f, state.geometry)
    gj = _observable_jet(g, state.geometry)
    (tf, _), (tg, _) = tau_lift(fj, state), tau_lift(gj, state)
    coeffs = wick_scalar_parts(tf, tg, state.lam, v_max)
    want = fj.value * gj.value
    got = coeffs[0].value if 0 in coeffs else 0.0
    if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
        raise StarquantError(
            f"zeroth star coefficient {got:.6g} disagrees with fg = {want:.6g}"
        )
    return [coeffs[r].value if r in coeffs else 0.0 + 0.0j for r in range(v_max + 1)]


# ---------------------------------------------------------------------------
# the closed characteristic 2-form


def _chern_jets(state):
    n2 = 2 * state.n
    J = state.geometry.complex_structure_frame("phi_pair")
    R = state.ctx.curvature
    gamma = np.empty((n2, n2), dtype=object)
    for a in range(n2):
        for b in range(n2):
            gamma[a, b] = jsum(
                [
                    jmul(J[ap, t], R[t, ap, a, b])
                    for ap in range(n2)
                    for t in range(n2)
                ]
            ) * (-0.25)
    return gamma


def chern_weyl(state):
    """Curvature trace 2-form, its torsion-corrected companion, and the
    zero-degree class representative, as complex component matrices."""
    n2 = 2 * state.n
    J = state.geometry.complex_structure_frame("phi_pair")
    T = state.ctx.torsion
    W = state.ctx.anholonomy
    F = state.ctx.frames
    gamma = _chern_jets(state)
    xi = [
        jsum([jmul(J[ap, t], T[t, ap, b]) for ap in range(n2) for t in range(n2)])
        for b in range(n2)
    ]
    dxi = np.zeros((n2, n2), dtype=np.complex128)
    for a in range(n2):
        for b in range(a + 1, n2):
            pieces = [
                frame_deriv(xi[b], F[a]),
                -frame_deriv(xi[a], F[b]),
            ]
            pieces += [-jmul(W[c, a, b], xi[c]) for c in range(n2)]
            val = jsum(pieces).value
            dxi[a, b] = val
            dxi[b, a] = -val
    gamma_vals = values(gamma)
    kappa = 0.5j * gamma_vals - (1j / 6.0) * dxi
    c0 = 0.5j * gamma_vals
    return gamma_vals, kappa, c0


def chern_weyl_closedness(state):
    """Max component of the exterior derivative of the curvature trace."""
    n2 = 2 * state.n
    W = state.ctx.anholonomy
    F = state.ctx.frames
    gamma = _chern_jets(state)
    worst = 0.0
    for a in range(n2):
        for b in range(a + 1, n2):
            for c in range(b + 1, n2):
                pieces = [
                    frame_deriv(gamma[b, c], F[a]),
                    -frame_deriv(gamma[a, c], F[b]),
                    frame_deriv(gamma[a, b], F[c]),
                ]
                for d in range(n2):
                    pieces.append(-jmul(W[d, a, b], gamma[d, c]))
                    pieces.append(jmul(W[d, a, c], gamma[d, b]))
                    pieces.append(-jmul(W[d, b, c], gamma[d, a]))
                worst = max(worst, abs(jsum(pieces).value))
    return worst
