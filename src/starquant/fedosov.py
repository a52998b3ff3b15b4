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

The algebra has one representation.  A WickElement is three arrays in
the order of its terms: each key (r, z, form) as one int64 code
(KeyCodes, form mask included), each term's jet order, and one stack of
coefficient rows padded with zeros.  Codes add as keys do, so a shift of
v, z or the form is an addition, and wedge signs come from one table.
Every operation lists its contributions (key code, jet order, row) in
the visit order of the per-jet loops that tests/oracles.py keeps, forms
their rows in chunks of at most jets.CHUNK coefficients, and sums them
with _Sums, which folds each key's contributions left to right as jet
sums do, bit for bit.  Products of jets go through jets.batched_mul,
grouped by jet order: the Wick product's coefficient products and
contraction weights, and the covariant operator's products with the
frame, connection and anholonomy stacks.  The pairing lam = theta - i g
of a state is a WickPairing, whose table of contraction weights lives
and dies with the state.

The point's tensors have one owner, its GeometryAtPoint.  The covariant
operator, the torsion and curvature lifts and the curvature trace form
read the phi_pair stacks it memoizes (the frame-basis structures,
connection, anholonomy, torsion, curvature and the trace 2-form
gamma).  The trace form's exterior derivatives read values only, so
they take their products at order 0.

The degree recursions keep only the jet orders their readers need: a
caller that reads the scalar parts of products of lifts at jet order q
(q = 0 for values) passes read=q to build_state and tau_lift, which keep
t[m] of a lift to lift_order and comp[k] of r to r_order (capped at each
jet's own order) and cut the factors of each step's Wick products alike.
By the jet order rule a kept prefix has the bits it would have had
uncut, so what the caller reads does not move; only the closure defects,
maxima over the kept coefficients, can fall, and a term whose kept
prefix is below PRUNE_TOL is pruned where its uncut jet would be kept.
read=None keeps the full orders, which the closure references
(recursion_residual, tau_flatness, flat_connection_defect) need.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import StarquantError
from .geometry import (
    GeometryAtPoint,
    _along,
    _at,
    _j_trace,
    _jets,
    _max_abs,
    _partials,
    _values,
    as_generator,
)
from .jets import Jet, batched_mul, batched_partial, jet_space

PRUNE_TOL = 1e-14


# ---------------------------------------------------------------------------
# the element container: key codes and coefficient stacks


class KeyCodes:
    """Integer codes of the keys (r, z, form) of elements with n2 = 2n
    fiber slots.  The form is an n2-bit mask in the low bits; above it
    each z exponent, then r, has a field of `width` bits.  Codes add as
    the keys do while no field overflows: the key of a pair of terms with
    disjoint forms is the sum of their codes, and a contraction row's key
    is the pair's key plus the row's offset."""

    def __init__(self, n2):
        self.n2 = n2
        self.width = (62 - n2) // (n2 + 1)
        self.zshift = n2 + self.width * np.arange(n2, dtype=np.int64)
        self.zplace = np.left_shift(1, self.zshift)
        self.rshift = n2 + self.width * n2
        self.forms = [tuple(k for k in range(n2) if m >> k & 1) for m in range(1 << n2)]
        self.masks = {f: m for m, f in enumerate(self.forms)}
        bits = (np.arange(1 << n2)[:, None] >> np.arange(n2)) & 1
        self.grade = bits.sum(axis=1)  # the form degree of each mask
        # the wedge sign of two disjoint masks: -1 to the number of pairs
        # of a left index above a right one
        above = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1] - bits
        self.sign = np.where((above @ bits.T) % 2, -1, 1).astype(np.int8)

    def z(self, codes):
        """The z exponents of an array of codes, one row per code."""
        return (codes[:, None] >> self.zshift) & ((1 << self.width) - 1)

    def mask(self, codes):
        return codes & ((1 << self.n2) - 1)

    def deg(self, codes):
        """Deg = 2 r + |z| of an array of codes."""
        return 2 * (codes >> self.rshift) + self.z(codes).sum(axis=1)

    def keys(self, codes):
        """The (r, z, form) keys of an array of codes."""
        forms = [self.forms[m] for m in self.mask(codes).tolist()]
        return list(zip((codes >> self.rshift).tolist(), map(tuple, self.z(codes).tolist()),
                        forms))


_key_codes = lru_cache(maxsize=None)(KeyCodes)


class WickElement:
    """Truncated formal series with jet coefficients, as arrays in the
    order of its terms: `code`, each term's key code; `order`, its jet
    order; `coeffs`, one stack of coefficient rows, zero past each jet's
    order; `dim`, the jets' dimension (None without terms).  Immutable:
    WickElement(n, d_max, {(v_power, z_exponents, form_indices): Jet})
    packs a dict in its order, and .terms is the same read-only view."""

    def __init__(self, n, d_max, terms=None):
        codes = _key_codes(2 * n)
        keys, coeffs = list(terms or {}), list((terms or {}).values())
        dims = sorted({c.dim for c in coeffs})
        if len(dims) > 1:
            raise ValueError(f"jets of dimensions {dims} do not combine")
        z = np.array([k[1] for k in keys], dtype=np.int64).reshape(len(keys), 2 * n)
        r = np.array([k[0] for k in keys], dtype=np.int64)
        mask = np.array([codes.masks[k[2]] for k in keys], dtype=np.int64)
        rows = _padded([c.coeffs[None] for c in coeffs] or [np.zeros((0, 0))])
        self._fill(n, d_max, dims[0] if dims else None,
                   (r << codes.rshift) + z @ codes.zplace + mask,
                   np.array([c.order for c in coeffs], dtype=np.int64), rows,
                   int((2 * r + z.sum(axis=1)).max(initial=d_max)))

    def _fill(self, n, d_max, dim, code, order, coeffs, deg):
        width = _key_codes(2 * n).width
        if deg >= 1 << width:
            raise ValueError(f"Deg {deg} overflows the {width}-bit key fields")
        coeffs.flags.writeable = False  # .terms hands out views of the rows
        self.n, self.d_max, self.dim = n, d_max, dim
        self.code, self.order, self.coeffs, self._terms = code, order, coeffs, None

    @classmethod
    def zero(cls, n, d_max):
        return cls(n, d_max)

    @classmethod
    def from_jet(cls, coeff, n, d_max):
        return cls(n, d_max, {(0, (0,) * (2 * n), ()): coeff})

    @property
    def terms(self):
        if self._terms is None:
            keys = _key_codes(2 * self.n).keys(self.code)
            sizes = _sizes(self.dim, self.order).tolist() if keys else []
            self._terms = MappingProxyType({
                key: Jet(jet_space(self.dim, o), row[:size])
                for key, o, size, row in zip(keys, self.order.tolist(), sizes, self.coeffs)})
        return self._terms

    def _select(self, keep):
        if keep.all():
            return self
        return _element(self.n, self.d_max, self.dim, self.code[keep], self.order[keep],
                        self.coeffs[keep])

    def __add__(self, other):
        self._check(other)
        dims = sorted({x.dim for x in (self, other) if len(x.code)})
        if len(dims) > 1:
            raise ValueError(f"jets of dimensions {dims} do not combine")
        both = _padded([self.coeffs, other.coeffs])
        return _summed(self.n, self.d_max, dims[0] if dims else None,
                       np.concatenate([self.code, other.code]),
                       np.concatenate([self.order, other.order]), lambda lo, hi: both[lo:hi])

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        return _element(self.n, self.d_max, self.dim, self.code, self.order,
                        self.coeffs * factor)

    def vshift(self, by):
        codes = _key_codes(2 * self.n)
        if ((self.code >> codes.rshift) + by < 0).any():
            raise StarquantError("negative v power after shift")
        # the terms past d_max go before their r field can overflow
        keep = codes.deg(self.code) + 2 * by <= self.d_max
        return _built(self.n, self.d_max, self.dim, self.code[keep] + (by << codes.rshift),
                      self.order[keep], self.coeffs[keep])

    def restrict(self, max_deg):
        """Drop components with Deg above max_deg (truncation-complete part)."""
        return self._select(_key_codes(2 * self.n).deg(self.code) <= max_deg)

    def form_split(self):
        """Split by parity of the form degree: (even part, odd part)."""
        codes = _key_codes(2 * self.n)
        odd = codes.grade[codes.mask(self.code)] % 2 == 1
        return self._select(~odd), self._select(odd)

    def scalar_part(self, v_power):
        """Jet coefficient of v^r with no fiber variables and no form."""
        return self.terms.get((v_power, (0,) * (2 * self.n), ()))

    def scalar_parts(self, v_max):
        """{r: scalar_part(r)} for r = 0 .. v_max, absent orders skipped."""
        parts = {r: self.scalar_part(r) for r in range(v_max + 1)}
        return {r: c for r, c in parts.items() if c is not None}

    def max_abs(self):
        return _max_abs(_row_max(self.coeffs))

    def is_zero(self, tol=0.0):
        return self.max_abs() <= tol

    def _check(self, other):
        if self.n != other.n or self.d_max != other.d_max:
            raise ValueError("mixed truncation settings")


def _element(n, d_max, dim, code, order, coeffs):
    a = object.__new__(WickElement)
    a._fill(n, d_max, dim, code, order, coeffs, d_max)
    return a


def _row_max(rows):
    """Each row's largest modulus (or NaN), as np.abs(jet.coeffs).max()."""
    return np.abs(rows).max(axis=1, initial=0.0)


def _built(n, d_max, dim, code, order, rows):
    """The element of the terms up to Deg d_max with a coefficient above
    PRUNE_TOL; `rows` may become its stack."""
    keep = (_key_codes(2 * n).deg(code) <= d_max) & ~(_row_max(rows) <= PRUNE_TOL)
    order = order[keep]
    width = int(_sizes(dim, order).max()) if len(order) else 0
    if keep.all() and width == rows.shape[1]:
        return _element(n, d_max, dim, code, order, rows)  # rows is not shared
    return _element(n, d_max, dim, code[keep], order, rows[keep, :width])


def _summed(n, d_max, dim, keys, orders, rows):
    """The element, as _built keeps it, that sums contributions in visit
    order (see _Sums): contribution k has key code keys[k] and jet order
    orders[k], and rows(lo, hi) gives rows lo .. hi - 1, in chunks of at
    most jets.CHUNK coefficients; a row past its order is never read."""
    if not len(keys):
        return _element(n, d_max, dim, keys, orders, np.zeros((0, 0), np.complex128))
    sums = _Sums(keys, orders, dim)
    for lo, hi in _chunks(np.ones(len(keys), dtype=np.int64), _sizes(dim, orders)):
        sums.add(lo, rows(lo, hi))
    return _built(n, d_max, dim, keys[sums.visited], sums.order, sums.done())


def _sizes(dim, orders):
    """Coefficient counts of the jet spaces of an array of orders: the
    monomials of degree <= o in dim variables."""
    counts = [math.comb(dim + o, o) for o in range(int(orders.max(initial=0)) + 1)]
    return np.array(counts, dtype=np.int64)[orders]


def _grouped(orders, width, fn):
    """fn(o, sel) for the rows `sel` of each jet order o, one stack padded
    with zeros to `width` (at least as wide as any result)."""
    out = np.zeros((len(orders), width), np.complex128)
    # not np.unique: without its optional outputs it imports numpy.ma
    uniq = np.flatnonzero(np.bincount(orders)).tolist()
    for o in uniq:
        sel = slice(None) if len(uniq) == 1 else np.nonzero(orders == o)[0]
        part = fn(o, sel)
        out[sel, : part.shape[-1]] = part
    return out


def _mul_grouped(dim, orders, left, right, width):
    """Row-by-row products of two stacks, each pair in the jet space of its
    order, through batched_mul."""
    return _grouped(orders, width,
                    lambda o, sel: batched_mul(jet_space(dim, o), left[sel], right[sel]))


def _padded(stacks):
    """The rows of 2-D stacks, one after the other, padded with zeros to
    the widest."""
    out = np.zeros((sum(len(x) for x in stacks), max(x.shape[1] for x in stacks)),
                   np.complex128)
    at = 0
    for x in stacks:
        out[at : at + len(x), : x.shape[1]] = x
        at += len(x)
    return out


class _Sums:
    """Contributions summed into keys as jet sums fold them: the keys in
    the order they are first visited, each kept at the lowest jet order of
    its contributions.  A key starts from its first contribution, so a
    -0.0 there survives, and every later one is added by an unbuffered
    scatter-add in visit order: the left fold of jet sums, element by
    element.  The keys (ints, or rows of ints) and jet orders of all the
    contributions are given up front; their values are added chunk by
    chunk, in visit order."""

    def __init__(self, keys, orders, dim):
        _, first, inv = np.unique(keys, axis=0 if keys.ndim > 1 else None,
                                  return_index=True, return_inverse=True)
        visit = np.argsort(first, kind="stable")
        rank = np.empty(len(first), dtype=np.int64)
        rank[visit] = np.arange(len(first))
        self.visited = first[visit]  # the first contribution of each key
        self.slot = rank[inv.reshape(-1)]
        self.first = np.zeros(len(self.slot), dtype=bool)
        self.first[first] = True
        self.order = np.full(len(first), np.iinfo(np.int64).max)
        np.minimum.at(self.order, self.slot, orders)
        self.size = _sizes(dim, self.order)
        self.rows = np.zeros((len(first), self.size.max()), np.complex128)

    def add(self, lo, values):
        """Add the contributions lo .. lo + len(values), in visit order."""
        slot, first = self.slot[lo : lo + len(values)], self.first[lo : lo + len(values)]
        width = self.rows.shape[1]
        cut = min(width, values.shape[1])  # a key is never wider than its contributions
        starts = np.nonzero(first)[0]
        self.rows[slot[starts], :cut] = values[starts, :cut]
        cols = np.arange(values.shape[1])
        later = ~first[:, None] & (cols < self.size[slot][:, None])
        np.add.at(self.rows.reshape(-1), (slot[:, None] * width + cols)[later], values[later])

    def done(self):
        """The summed rows, zero past each key's jet order."""
        self.rows[np.arange(self.rows.shape[1]) >= self.size[:, None]] = 0.0
        return self.rows


def _chunks(count, size):
    """(lo, hi) runs of consecutive items, item k stacking count[k] rows
    of size[k] coefficients, whose rows padded to the run's widest size
    make at most jets.CHUNK coefficients; one item at least.  A run is
    sought in a window that doubles while the run fills it."""
    rows = np.cumsum(count)
    lo, span = 0, 64
    while lo < len(rows):
        top = min(len(rows), lo + span)
        stacked = ((rows[lo:top] - (rows[lo - 1] if lo else 0))
                   * np.maximum.accumulate(size[lo:top]))
        hi = lo + max(1, int(np.searchsorted(stacked, jets.CHUNK, side="right")))
        if hi == top < len(rows):
            span *= 2
            continue
        yield lo, hi
        lo = hi


# ---------------------------------------------------------------------------
# operator pair: fiber differential, partial inverse, projection


def delta_pair(a):
    """e^alpha wedge d/dz^alpha; lowers deg_s, raises deg_a."""
    codes = _key_codes(2 * a.n)
    z, mask = codes.z(a.code), codes.mask(a.code)
    bit = 1 << np.arange(codes.n2)
    t, al = np.nonzero((z > 0) & ((mask[:, None] & bit) == 0))
    factor = codes.sign[bit[al], mask[t]] * z[t, al]
    return _summed(a.n, a.d_max, a.dim, a.code[t] - codes.zplace[al] + bit[al], a.order[t],
                   lambda lo, hi: a.coeffs[t[lo:hi]] * factor[lo:hi, None])


def delta_inv_pair(a):
    """Partial inverse: z^alpha times interior product, weighted 1/(p+q)."""
    codes = _key_codes(2 * a.n)
    mask = codes.mask(a.code)
    bit = 1 << np.arange(codes.n2)
    t, al = np.nonzero((mask[:, None] & bit) != 0)
    # e^al sits at the position of the form's indices below it
    pos = codes.grade[mask[t] & (bit[al] - 1)]
    total = codes.z(a.code).sum(axis=1) + codes.grade[mask]
    factor = np.where(pos % 2, -1.0, 1.0) * (1.0 / total[t])
    return _summed(a.n, a.d_max, a.dim, a.code[t] + codes.zplace[al] - bit[al], a.order[t],
                   lambda lo, hi: a.coeffs[t[lo:hi]] * factor[lo:hi, None])


def sigma(a):
    """Projection onto the part with no fiber variables and no form."""
    return a._select((a.code & ((1 << _key_codes(2 * a.n).rshift) - 1)) == 0)


# ---------------------------------------------------------------------------
# the covariant operator and the lifts, on the stacks of the geometry


def extended_D(a, geo):
    """Covariant derivative on coefficients and fiber slots; raises deg_a.

    On a term c(u) z^z e^F the alpha-component is
    e_alpha(c) - Gamma^out_{alpha,src} z^src d/dz^out (c z^z), wedged with
    e^alpha, plus c times the exterior derivative of e^F, where
    d e^eps = -(1/2) W^eps_{mu nu} e^mu wedge e^nu.  Per term the visits
    are: for each alpha outside F, e_alpha(c) and then the Gamma terms
    over (out, src); then for each eps of F the W terms over mu < nu.

    The frame, Gamma and W are the phi_pair stacks of the
    GeometryAtPoint geo."""
    n2 = 2 * geo.n
    codes = _key_codes(n2)
    z, mask = codes.z(a.code), codes.mask(a.code)
    bit = 1 << np.arange(n2)
    free = (mask[:, None] & bit) == 0  # (term, alpha): alpha not in F
    sign = codes.sign[bit, mask[:, None]]  # of e^alpha ^ e^F
    basis = geo._basis("phi_pair")
    (g_space, G), (w_space, W) = (geo._connection_stack("phi_pair"),
                                  geo._anholonomy_stack("phi_pair"))
    weights = _padded([G.reshape(n2 ** 3, -1), W.reshape(n2 ** 3, -1)])
    step = 1 + n2 * n2  # the visits of one alpha

    # e_alpha(c): `left` is alpha
    t1, al1 = np.nonzero(free)
    # -Gamma^out_{alpha,src} z^src d/dz^out: `left` is the row of Gamma
    t2, al2, out, src = np.nonzero(free[:, :, None, None] & (z > 0)[:, None, :, None]
                                   & np.ones(n2, dtype=bool))
    # -(1/2) W^eps_{mu nu} e^mu ^ e^nu for eps in F, mu < nu outside the rest
    rest = mask[:, None] & ~bit
    t3, eps, mu, nu = np.nonzero(~free[:, :, None, None] & np.triu(np.ones((n2, n2), bool), 1)
                                 & ((rest[:, :, None, None] & (bit[:, None] | bit)) == 0))
    pos = codes.grade[mask[t3] & (bit[eps] - 1)]
    s2 = codes.sign[bit[mu] | bit[nu], rest[t3, eps]]

    t = np.concatenate([t1, t2, t3])
    frame = np.arange(len(t)) < len(t1)
    left = np.concatenate([al1, (out * n2 + al2) * n2 + src,
                           n2 ** 3 + (eps * n2 + mu) * n2 + nu])
    keys = np.concatenate([a.code[t1] + bit[al1],
                           a.code[t2] - codes.zplace[out] + codes.zplace[src] + bit[al2],
                           a.code[t3] - bit[eps] + bit[mu] + bit[nu]])
    factor = np.concatenate([sign[t1, al1], -sign[t2, al2] * z[t2, out],
                             np.where(pos % 2, 1.0, -1.0) * s2]).astype(np.float64)
    orders = np.concatenate([np.minimum(basis.space.order, a.order[t1] - 1),
                             np.minimum(g_space.order, a.order[t2]),
                             np.minimum(w_space.order, a.order[t3])])
    visit = np.lexsort((np.concatenate([al1 * step, al2 * step + 1 + out * n2 + src,
                                        n2 * step + left[len(t1) + len(t2):] - n2 ** 3]), t))
    t, frame, left, factor, orders = (x[visit] for x in (t, frame, left, factor, orders))

    def rows(lo, hi):
        width = int(_sizes(a.dim, orders[lo:hi]).max())
        vals = np.zeros((hi - lo, width), np.complex128)
        at, tt = np.nonzero(~frame[lo:hi])[0], t[lo:hi]
        if len(at):
            vals[at] = _mul_grouped(a.dim, orders[lo:hi][at], weights[left[lo:hi][at], :width],
                                    a.coeffs[tt[at], :width], width)
        at = np.nonzero(frame[lo:hi])[0]
        if len(at):
            vals[at] = _frame_derivs(a.dim, a.order[tt[at]], a.coeffs[tt[at]],
                                     orders[lo:hi][at], basis.frame[left[lo:hi][at]], width)
        return vals * factor[lo:hi, None]

    return _summed(a.n, a.d_max, a.dim, keys[visit], orders, rows)


def _frame_derivs(dim, c_order, c_rows, order, f_rows, width):
    """frame_deriv of each row of c_rows along its frame row, as jets take
    it, each product at jet order `order`; `width` wide."""
    acc, p_width = None, int(_sizes(dim, c_order - 1).max())
    for var in range(dim):
        part = _grouped(c_order, p_width, lambda o, sel: batched_partial(jet_space(dim, o),
                                                                          c_rows[sel], var))
        term = _mul_grouped(dim, order, f_rows[:, var], part, width)
        acc = term if acc is None else acc + term
    return acc


def lifted_torsion_curvature(geo, d_max):
    """Fiber lifts of the phi_pair torsion and curvature 2-forms of the
    GeometryAtPoint geo, from its stacks.

    T_lift = (1/2) z^g theta_{t g} T^t_{ab} e^a ^ e^b   (deg_s 1, deg_a 2)
    R_lift = (1/4) z^g z^h theta_{t g} R^t_{h a b} e^a ^ e^b  (deg_s 2).

    The theta index order is pinned by the closure of the degree recursion:
    with it, [D, delta]_+ = (i/v) ad(T_lift) and D^2 = -(i/v) ad(R_lift)
    hold identically and the Bianchi consistency makes every delta_inv
    step exact.

    Antisymmetry in (a, b) folds the 1/2 into the a < b sum.  The pieces
    over t (theta_{t g} != 0) sum in t order, at the keys (g, a < b) of T
    and (g, h, a < b) of R, visited in that order."""
    n2 = 2 * geo.n
    codes = _key_codes(n2)
    th = _values(geo._basis("phi_pair").theta)
    (t_space, T), (r_space, R) = (geo._torsion_stack("phi_pair"),
                                  geo._curvature_stack("phi_pair"))
    a, b = np.triu_indices(n2, 1)
    forms = (1 << a) + (1 << b)
    lifts = []
    # T and R with an axis h (of length 1 for T), the factors of theta and
    # the z^h of the keys
    for space, rows, coef, zh in ((t_space, T[:, None], th, np.zeros(1, dtype=np.int64)),
                                  (r_space, R, [[0.5 * x for x in row] for row in th],
                                   codes.zplace)):
        keys, pieces = [], []
        for g in range(n2):
            ts = [t for t in range(n2) if th[t, g] != 0.0]
            if ts:
                folded = reduce(operator.add, [rows[t] * coef[t][g] for t in ts])
                keys.append((codes.zplace[g] + zh[:, None] + forms).ravel())
                pieces.append(folded[:, a, b].reshape(-1, folded.shape[-1]))
        keys = np.concatenate(keys or [np.zeros(0, dtype=np.int64)])
        stack = np.concatenate(pieces) if pieces else None
        lifts.append(_summed(geo.n, d_max, n2, keys, np.full(len(keys), space.order),
                             lambda lo, hi: stack[lo:hi]))
    return tuple(lifts)


# ---------------------------------------------------------------------------
# the fiberwise product on key codes and coefficient stacks


class Contractions(NamedTuple):
    """The contraction rows of one pair of fiber monomials (za, zb), in the
    order of the breadth-first walk over t: t contracted pairs, the key
    code offset from the pair's key to the row's, the weights as a stack
    of coefficient rows padded with zeros, and each row's jet order."""

    t: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    orders: np.ndarray


class WickPairing:
    """The fiber pairing lam = theta - i g of one state, with the table of
    the contractions its Wick products make.

    A product contracts t >= 1 slots of a left term z^za with t slots of a
    right term z^zb, one factor (i v / 2) lam^{alpha beta} per pair, so the
    weights depend only on lam and (za, zb).  The table maps (za, zb) to
    its Contractions: a stack of weight rows with their t, key code
    offsets (see KeyCodes) and jet orders, in the order of a breadth-first
    walk over t.  The walk runs on stacks, for all the entries one product
    lacks at once, with the operations of the per-jet walk in its order:
    each state's weight is the left factor of lam times 1.0, the pieces of
    a state are summed in visit order (see _Sums), and a row is its
    state's weight times (i/2)^t / t!.  An entry is kept at the highest
    jet order read so far and rebuilt from lam when a read needs more; by
    the jet order rule the stored prefix has the bits of the full-order
    weight, so the order of the reads is invisible."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.codes = _key_codes(matrix.shape[0])
        self.order = max(e.order for e in matrix.flat)
        self.dim = matrix.flat[0].dim
        self._lam = np.zeros(matrix.shape + (jet_space(self.dim, self.order).size,),
                             np.complex128)
        self._lam_order = np.empty(matrix.shape, dtype=np.int64)
        for idx, e in np.ndenumerate(matrix):
            self._lam[idx][: e.space.size] = e.coeffs * 1.0
            self._lam_order[idx] = e.order
        self._table = {}

    def contractions(self, za, zb, order):
        """The Contractions of the pair, with weights good to jet order
        `order`."""
        return self._read([(tuple(za), tuple(zb))], [order])[0]

    def _read(self, pairs, orders):
        entries, todo = [], []
        for k, (pair, order) in enumerate(zip(pairs, orders)):
            order = min(order, self.order)
            hit = self._table.get(pair)
            if hit is None or hit[0] < order:
                todo.append((k, pair, order))
            entries.append(hit and hit[1])
        # walked in groups whose weight rows stack at most jets.CHUNK
        # coefficients
        rows = np.array([_walk_rows(za, zb) for _, (za, zb), _ in todo], dtype=np.int64)
        orders = np.array([o for _, _, o in todo], dtype=np.int64)
        for lo, hi in _chunks(rows, _sizes(self.dim, orders)):
            group = todo[lo:hi]
            built = self._walk([p for _, p, _ in group], [o for _, _, o in group])
            for (k, pair, order), entry in zip(group, built):
                self._table[pair] = order, entry
                entries[k] = entry
        return entries

    def _walk(self, pairs, caps):
        codes, dim = self.codes, self.dim
        za, zb = (np.array([p[side] for p in pairs], dtype=np.int64).reshape(len(pairs), -1)
                  for side in (0, 1))
        entry, sa, sb, w_order = np.arange(len(pairs)), za, zb, np.array(caps)
        levels = []
        t = 0
        while True:
            i, al, be = np.nonzero((sa[:, :, None] > 0) & (sb[:, None, :] > 0))
            if not len(i):
                break
            t += 1
            order = np.minimum(w_order[i], self._lam_order[al, be])
            factor = sa[i, al] * sb[i, be]
            hop = np.arange(len(i))
            na, nb = sa[i], sb[i]
            na[hop, al] -= 1
            nb[hop, be] -= 1
            sums = _Sums(np.column_stack([entry[i], na, nb]), order, dim)
            sizes = _sizes(dim, order)
            for lo, hi in _chunks(np.ones(len(i), np.int64), sizes):
                if t == 1:
                    size = sizes[lo:hi]
                    lam = self._lam[al[lo:hi], be[lo:hi], : size.max()]
                    piece = np.where(np.arange(lam.shape[1]) < size[:, None], lam, 0.0)
                else:
                    piece = _mul_grouped(dim, order[lo:hi], w[i[lo:hi]],
                                         self._lam[al[lo:hi], be[lo:hi], : w.shape[1]],
                                         w.shape[1])
                sums.add(lo, piece * factor[lo:hi, None])
            w, w_order = sums.done(), sums.order
            entry, sa, sb = entry[i][sums.visited], na[sums.visited], nb[sums.visited]
            pref = (0.5j) ** t / math.factorial(t)
            levels.append((entry, t, sa + sb, w * pref, w_order))
        if not levels:
            none = np.zeros(0, dtype=np.int64)
            return [Contractions(none, none, np.zeros((0, 0), np.complex128), none)] * len(pairs)
        entry = np.concatenate([lv[0] for lv in levels])
        rank = np.argsort(entry, kind="stable")
        t = np.concatenate([np.full(len(lv[0]), lv[1]) for lv in levels])
        zt = np.concatenate([lv[2] for lv in levels])
        offsets = (t << codes.rshift) + (zt - (za + zb)[entry]) @ codes.zplace
        orders = np.concatenate([lv[4] for lv in levels])
        weights = _padded([lv[3] for lv in levels])
        del levels  # the weights live on in the padded stack only
        # each entry keeps a copy of its weights, cut to the widest of its rows
        tops = np.zeros(len(pairs), dtype=np.int64)
        np.maximum.at(tops, entry, _sizes(dim, orders))
        t, offsets, orders = t[rank], offsets[rank], orders[rank]
        out, lo = [], 0
        for hi, top in zip(np.cumsum(np.bincount(entry, minlength=len(pairs))).tolist(),
                           tops.tolist()):
            out.append(Contractions(t[lo:hi], offsets[lo:hi], weights[rank[lo:hi], :top],
                                    orders[lo:hi]))
            lo = hi
        return out

    def _gather(self, a, b, i, j, order, last=False):
        """The contraction rows of the pairs (a[i], b[j]) of terms, each
        read at its jet order `order`, or only each pair's last row (all
        slots contracted).  Returns _Rows over the distinct (za, zb) and,
        per pair, its (za, zb), first row and row count."""
        if not a.dim == b.dim == self.dim:
            raise ValueError(f"jets of dimensions {a.dim}, {b.dim} and a pairing of "
                             f"dimension {self.dim} do not combine")
        # the distinct z exponents of each side, and each term's index into them
        zbits = ((1 << self.codes.rshift) - 1) & ~((1 << self.codes.n2) - 1)
        (za, ia), (zb, ib) = (np.unique(x.code & zbits, return_inverse=True) for x in (a, b))
        za, zb, nb = self.codes.z(za), self.codes.z(zb), len(zb)
        uniq, combo = np.unique(ia.reshape(-1)[i] * nb + ib.reshape(-1)[j], return_inverse=True)
        combo = combo.reshape(-1)
        need = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(need, combo, order)
        live = np.nonzero((za.sum(axis=1)[uniq // nb] > 0) & (zb.sum(axis=1)[uniq % nb] > 0))[0]
        read = self._read([(tuple(za[c // nb].tolist()), tuple(zb[c % nb].tolist()))
                           for c in uniq[live].tolist()], need[live].tolist())
        none = Contractions(*(np.zeros((0,) * k, np.int64) for k in (1, 1, 2, 1)))
        entries = [none] * len(uniq)
        for k, e in zip(live.tolist(), read):
            entries[k] = Contractions(*(x[-1:] for x in e)) if last else e
        counts = np.array([len(e.t) for e in entries], dtype=np.int64)
        starts = np.cumsum(counts) - counts
        rows = _Rows([e.weights for e in entries], starts, counts,
                     np.concatenate([e.offsets for e in entries] + [np.zeros(1, np.int64)]),
                     np.concatenate([e.orders for e in entries]
                                    + [np.full(1, np.iinfo(np.int64).max)]))
        return rows, combo, starts[combo], counts[combo]


class _Rows(NamedTuple):
    """The contraction rows a product reads, numbered across its distinct
    (za, zb) in order: the weights of each (za, zb), the number of its
    first row, and every row's key code offset and jet order.  A final
    row with offset 0 and no order bound, number -1, stands for "no
    contraction"."""

    weights: list
    starts: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    orders: np.ndarray

    def stack(self, combos, rows, width):
        """The weights of rows `rows` of the (za, zb) `combos` as a stack
        `width` wide; only the (za, zb) they name are gathered, so a
        chunk holds the weights it reads and no more."""
        used = np.flatnonzero(np.bincount(combos))
        first = np.zeros(len(self.weights), dtype=np.int64)
        first[used] = np.cumsum(self.counts[used]) - self.counts[used]
        return _padded([self.weights[c][:, :width] for c in used.tolist()])[
            first[combos] + rows - self.starts[combos]]


@lru_cache(maxsize=None)
def _submultisets(z):
    """counts[k]: the sub-multisets of size k of the multiset with
    multiplicities z."""
    counts = [1]
    for m in z:
        counts = [sum(counts[max(0, k - m) : k + 1]) for k in range(len(counts) + m)]
    return counts


def _walk_rows(za, zb):
    """The rows of the walk of (za, zb): at level t, every pair of a
    sub-multiset of za and one of zb, each t smaller."""
    ca, cb = _submultisets(za), _submultisets(zb)
    sa, sb = len(ca) - 1, len(cb) - 1
    return sum(ca[sa - t] * cb[sb - t] for t in range(1, min(sa, sb) + 1))


def _contract(a, b, i, j, sign, rows, combo, start, count, base):
    """The sums of a pair plan.  Pair k = (a[i[k]], b[j[k]]) of terms with
    disjoint forms has the base a-coefficient times b-coefficient times
    sign[k] and the key a.code[i[k]] + b.code[j[k]]; it contributes that
    base if base[k], then the base times each of the count[k] rows of
    `rows` (a _Rows, where the pair's (za, zb) is combo[k]) from start[k]
    on, under the pair's key plus the row's offset.  The pairs are taken
    in visit order, in chunks of whole pairs whose contributions stack at
    most jets.CHUNK coefficients.  Returns the keys in visit order, their
    jet orders, and the summed rows."""
    order = np.minimum(a.order[i], b.order[j])
    per = base + count
    cpair = np.repeat(np.arange(len(i)), per)
    step = np.arange(len(cpair)) - np.repeat(np.cumsum(per) - per, per) - base[cpair]
    crow = np.where(step >= 0, start[cpair] + step, -1)
    corder = np.minimum(order[cpair], rows.orders[crow])
    keys = a.code[i[cpair]] + b.code[j[cpair]] + rows.offsets[crow]
    sums = _Sums(keys, corder, a.dim)
    sizes = _sizes(a.dim, order)
    ends = np.cumsum(per)
    for p0, p1 in _chunks(per, sizes):
        c0, c1 = (int(ends[p0 - 1]) if p0 else 0), int(ends[p1 - 1])
        # the stacks are as wide as the chunk's highest order needs
        width = int(sizes[p0:p1].max())
        values = _mul_grouped(a.dim, order[p0:p1], a.coeffs[i[p0:p1], :width],
                              b.coeffs[j[p0:p1], :width], width) * sign[p0:p1, None]
        values = values[cpair[c0:c1] - p0]
        weighted = np.nonzero(crow[c0:c1] >= 0)[0]
        if len(weighted):
            at = c0 + weighted
            values[weighted] = _mul_grouped(a.dim, corder[at], values[weighted],
                                            rows.stack(combo[cpair[at]], crow[at], width),
                                            width)
        sums.add(c0, values)
    return keys[sums.visited], sums.order, sums.done()


def wick_product(a, b, lam, cap=None):
    """Exponential bidifferential product with the pairing lam, a
    WickPairing, whose table gives the contractions of each pair of terms;
    the wedge combines form factors with sign, and the result is
    re-truncated at d_max.

    Deg = 2 deg_v + deg_s is additive: a contraction trades two fiber
    variables for one v, so every key a pair of terms feeds has the Deg sum
    of that pair.  A caller that keeps only Deg <= cap passes it here, and
    pairs above min(cap, d_max) are skipped.  The kept keys receive exactly
    the pieces, in the same order, as without the cap, so the result equals
    the uncapped product restricted to cap, bit for bit; the container
    stays at d_max.

    The pairs are visited left term major, and each feeds its base
    coefficient product (times the wedge sign) and then that base times
    each contraction row; the keys of the result are in first-visit order
    and each sums its pieces in visit order (see _contract)."""
    a._check(b)
    top = a.d_max if cap is None else min(cap, a.d_max)
    if not len(a.code) or not len(b.code):
        return WickElement.zero(a.n, a.d_max)
    codes = lam.codes
    ma, mb = codes.mask(a.code), codes.mask(b.code)
    i, j = np.nonzero((codes.deg(a.code)[:, None] + codes.deg(b.code) <= top)
                      & ((ma[:, None] & mb) == 0))
    if not len(i):
        return WickElement.zero(a.n, a.d_max)
    order = np.minimum(a.order[i], b.order[j])
    rows, combo, start, count = lam._gather(a, b, i, j, order)
    keys, orders, summed = _contract(a, b, i, j, codes.sign[ma[i], mb[j]], rows, combo,
                                     start, count, np.ones(len(i), dtype=bool))
    return _built(a.n, a.d_max, a.dim, keys, orders, summed)


def wick_scalar_parts(a, b, lam, v_max):
    """scalar_parts(v_max) of a o b, without forming the product.

    The scalar key (r, 0, ()) has Deg 2 r, and only a form-free pair with
    |za| = |zb| = s reaches it, through the row that contracts all s slots.
    So only such pairs with 2 (ra + rb + s) <= min(2 v_max, d_max) are
    visited, in wick_product's order, and the result equals
    wick_product(a, b, lam, cap=2 v_max).scalar_parts(v_max) bit for bit."""
    a._check(b)
    top = min(2 * v_max, a.d_max)
    if not len(a.code) or not len(b.code):
        return {}
    codes = lam.codes
    ra, rb = a.code >> codes.rshift, b.code >> codes.rshift
    sa, sb = codes.z(a.code).sum(axis=1), codes.z(b.code).sum(axis=1)
    i, j = np.nonzero((codes.mask(a.code) == 0)[:, None] & (codes.mask(b.code) == 0)
                      & (sa[:, None] == sb) & (2 * (ra[:, None] + rb + sa[:, None]) <= top))
    if not len(i):
        return {}
    order = np.minimum(a.order[i], b.order[j])
    rows, combo, start, count = lam._gather(a, b, i, j, order, last=True)
    # the wedge sign of two empty forms: a complex multiply by 1 can turn
    # -0.0 into +0.0, so it stays
    sign = np.ones(len(i), dtype=np.int8)
    keys, orders, summed = _contract(a, b, i, j, sign, rows, combo, start, count, count == 0)
    parts = _built(a.n, a.d_max, a.dim, keys, orders, summed).terms
    return {r: c for (r, _, _), c in sorted(parts.items(), key=lambda kc: kc[0])}


def ad_wick(x, a, lam, cap=None):
    """deg_a-graded commutator x o a - (-1)^{deg_a x deg_a a} a o x,
    with both products capped at Deg <= cap (see wick_product)."""
    out, a_parts = wick_product(x, a, lam, cap), a.form_split()
    for xp, xel in enumerate(x.form_split()):
        for ap, ael in enumerate(a_parts):
            if len(xel.code) and len(ael.code):
                out = out + wick_product(ael, xel, lam, cap).scale(1.0 if xp * ap else -1.0)
    return out


def v_divide(a, tol=1e-12):
    """Drop one power of v; the v^0 part must already vanish."""
    rshift = _key_codes(2 * a.n).rshift
    r = a.code >> rshift
    floor = _max_abs(_row_max(a.coeffs[r == 0]))
    # a NaN floor fails too: the v^0 part is not known to vanish
    if not floor <= tol * max(1.0, a.max_abs()):
        raise StarquantError(
            f"v-division of an element with v^0 part of size {floor:.3g}"
        )
    up = r > 0
    return _built(a.n, a.d_max, a.dim, a.code[up] - (1 << rshift), a.order[up], a.coeffs[up])


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

    Since Deg adds under the Wick product and the division by v lowers it
    by 2, a product read up to degree k after the division needs pairs up
    to k + 2 only, and each caller caps its products there: the scalar
    reads of v^0 .. v^r at 2 r, and the closure references at the degrees
    they read.  The containers themselves stay at d_alg.

    geometry owns the point's tensors: the operators of the state read
    its stacks, and the state keeps no copy of them.  lam is the state's
    own WickPairing, whose table goes with the state.

    A state built with a read order keeps comp[k] of r only to
    r_order(read, d_max, k), and r is None: the closure references, the
    only readers of r, differentiate the components once more, so they
    need a state built without one."""

    geometry: GeometryAtPoint
    d_max: int
    d_alg: int
    lam: WickPairing
    torsion_lift: WickElement
    curvature_lift: WickElement
    r: WickElement = None  # set by fedosov_r
    r_components: dict = field(default_factory=dict)
    residual: float = None  # closure residual, stored by fedosov_r

    @property
    def n(self):
        return self.geometry.n


def build_state(generator, point, d_max, order=None, read=None):
    """Evaluate the oblique-frame geometry at the point and run the
    degree recursion.  Jet order defaults to 3 + d_max (at least 5).

    read is the jet order at which the caller reads the scalar parts of
    products of its lifts: comp[k] of r is then kept to r_order(read,
    d_max, k), which is all that lifts read at that order need.  None
    keeps every component at its full order, as the closure references
    need."""
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    if order is None:
        order = max(5, 3 + d_max)
    geo = GeometryAtPoint(as_generator(generator), point, order)
    basis = geo._basis("phi_pair")
    lam = basis.metric_inverse * (-1j)
    lam[..., 0] += basis.theta[..., 0]
    lam = WickPairing(_jets(basis.space, lam))
    d_alg = d_max + 2
    t_lift, r_lift = lifted_torsion_curvature(geo, d_alg)
    state = FedosovState(geometry=geo, d_max=d_max, d_alg=d_alg, lam=lam,
                         torsion_lift=t_lift, curvature_lift=r_lift)
    fedosov_r(state, read)
    return state


def lift_order(read, d_max, m):
    """The jet order of t[m] of a lift that a reader of its products'
    scalar parts at order `read` needs: at most d_max - m further
    covariant derivatives act on t[m] before the last degree."""
    return read + d_max - m


def r_order(read, d_max, k):
    """The jet order of comp[k] of r that lifts read at order `read`
    need: comp[k] first enters the lift step k - 1, whose t[k - 1] is
    kept to lift_order(read, d_max, k - 1); the recursion of r itself
    asks no more, since comp[k] feeds comp[k + 1] through one
    derivative."""
    return read + d_max - k + 1


def _cut(a, order):
    """a with every coefficient truncated to at most jet order `order`;
    a itself for order None."""
    if order is None or not (a.order > order).any():
        return a
    orders = np.minimum(a.order, order)
    sizes = _sizes(a.dim, orders)
    rows = a.coeffs[:, : int(sizes.max(initial=0))].copy()
    rows[np.arange(rows.shape[1]) >= sizes[:, None]] = 0.0
    return _element(a.n, a.d_max, a.dim, a.code, orders, rows)


def _solve_degrees(total, x, degrees, source, read=None):
    """Solve delta x[m] = src_m = source(m) for m in degrees, in order, by
    x[m] = delta_inv(src_m); source(m) reads only the x[k] already solved.
    A step is exact where src_m is delta-closed, so the largest defect
    |delta x[m] - src_m| is the residual of the whole equation on Deg m - 1
    for each m.  Returns (total + the sum of the x[m], that defect).

    read(m), when given, is the highest jet order anything after step m
    reads of x[m]: the defect is taken from the whole x[m], and x[m] is
    then cut to that order (capped at each jet's own) before the sum and
    the later steps read it.  The sources cut the factors of their Wick
    products to read(m) as well: a product is kept to the lower order of
    its factors, so the orders x[m] would drop are never formed, and the
    kept ones have the bits of the uncut product."""
    defects = []
    for m in degrees:
        src = source(m)
        x[m] = delta_inv_pair(src)
        defects.append((delta_pair(x[m]) - src).max_abs())
        if read is not None:
            x[m] = _cut(x[m], read(m))
    # summed after the steps, whose products then run without the total
    return reduce(operator.add, (x[m] for m in degrees), total), _max_abs(defects)


def fedosov_r(state, read=None):
    """Degree-by-degree solution of the flatness equation
    delta r = T_lift + R_lift + D r - (i/v) r o r:  comp[2] = delta_inv
    T_lift, comp[3] picks up the curvature lift, and each later degree m
    solves comp[m] = delta_inv(D comp[m-1] - (i/v) sum_{a+b=m+1} comp[a] o
    comp[b]).  The closure defect, on Deg 1 .. d_max - 1, is state.residual.
    With a read order, comp[k] is kept to r_order(read, d_max, k), and the
    sum r is returned but not stored (see FedosovState)."""
    comp = {}
    orders = None if read is None else (lambda k: r_order(read, state.d_max, k))

    def source(m):
        if m == 2:
            return state.torsion_lift
        acc = extended_D(comp[m - 1], state.geometry)
        if m == 3:
            acc = acc + state.curvature_lift
        top = None if orders is None else orders(m)
        pairs = [wick_product(_cut(comp[p], top), _cut(comp[m + 1 - p], top), state.lam)
                 for p in range(2, m)]
        return acc - v_divide(sum(pairs[1:], pairs[0]).scale(1j))

    zero = WickElement.zero(state.n, state.d_alg)
    r, resid = _solve_degrees(zero, comp, range(2, state.d_max + 1), source, orders)
    state.r, state.r_components, state.residual = (r if read is None else None), comp, resid
    if resid > 1e-6:
        raise StarquantError(f"degree recursion failed to close: residual {resid:.3g}")
    return r


def recursion_residual(state):
    """Max coefficient of delta r - (T + R + D r - (i/v) r o r), restricted
    to the degrees the truncation determines completely."""
    r = state.r
    lhs = delta_pair(r)
    rhs = state.torsion_lift + state.curvature_lift + extended_D(r, state.geometry)
    # read at d_max - 1 after the division by v
    square = wick_product(r, r, state.lam, cap=state.d_max + 1)
    if len(square.code):
        rhs = rhs - v_divide(square.scale(1j))
    return (lhs - rhs).restrict(state.d_max - 1).max_abs()


def flat_connection_apply(a, state, cap=None):
    """The candidate flat connection: -delta + D - (i/v) ad(r).  With a cap
    the Wick products skip pairs above Deg cap, so the result is exact
    through degree cap - 2 only."""
    if a.d_max != state.d_alg:
        a = _built(a.n, state.d_alg, a.dim, a.code, a.order, a.coeffs)
    out = extended_D(a, state.geometry) - delta_pair(a)
    if len(state.r.code):
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


def tau_lift(f, state, read=None):
    """The flat section projecting to f, degree by degree:
    t[m] = delta_inv(D t[m-1] - (i/v) sum_l ad(comp[l+2]) t[m-1-l]).
    Returns (lift, defect): the closure defect of these steps is the
    flatness residual on Deg 0 .. d_max - 1.

    read is the jet order at which the caller reads the scalar parts of
    the lift's products: t[m], t[0] = f included, is then kept to
    lift_order(read, d_max, m).  None keeps the full orders."""
    f0 = _observable_jet(f, state.geometry)
    t = {0: WickElement.from_jet(f0, state.n, state.d_alg)}
    orders = None if read is None else (lambda m: lift_order(read, state.d_max, m))
    if orders is not None:
        t[0] = _cut(t[0], orders(0))

    def source(m):
        acc = extended_D(t[m - 1], state.geometry)
        top = None if orders is None else orders(m)
        pieces = [ad_wick(_cut(state.r_components[l + 2], top), _cut(t[m - 1 - l], top),
                          state.lam)
                  for l in range(m) if l + 2 in state.r_components]
        if pieces:
            acc = acc - v_divide(sum(pieces[1:], pieces[0]).scale(1j))
        return acc

    return _solve_degrees(t[0], t, range(1, state.d_max + 1), source, orders)


def tau_flatness(lifted, state):
    """Residual of the flat-section property of a lift from tau_lift."""
    applied = flat_connection_apply(lifted, state, cap=state.d_max + 1)
    return applied.restrict(state.d_max - 1).max_abs()


def star_product(f, g, state, v_max=None):
    """Complex coefficients C_r(f, g) of v^r, r = 0 .. v_max.  Only their
    values are read, so the lifts keep the orders of read 0."""
    if v_max is None:
        v_max = state.d_max // 2
    fj = _observable_jet(f, state.geometry)
    gj = _observable_jet(g, state.geometry)
    (tf, _), (tg, _) = tau_lift(fj, state, read=0), tau_lift(gj, state, read=0)
    coeffs = wick_scalar_parts(tf, tg, state.lam, v_max)
    want = fj.value * gj.value
    got = coeffs[0].value if 0 in coeffs else 0.0
    if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
        raise StarquantError(
            f"zeroth star coefficient {got:.6g} disagrees with fg = {want:.6g}"
        )
    return [coeffs[r].value if r in coeffs else 0.0 + 0.0j for r in range(v_max + 1)]


# ---------------------------------------------------------------------------
# the closed characteristic 2-form, on the stacks of the geometry


def chern_weyl(state):
    """Curvature trace 2-form, its torsion-corrected companion, and the
    zero-degree class representative, as complex component matrices.

    gamma is the geometry's trace stack; xi[b] = J[a', t] T[t][a'][b],
    folded over a' and then t, and d xi[a][b] = e_a xi_b - e_b xi_a -
    W^c_ab xi_c, folded over c.  Only values of d xi are read, so its
    products are taken at order 0."""
    geo, n2 = state.geometry, 2 * state.n
    gamma_vals = _values(geo._trace_stack("phi_pair")[1])
    basis = geo._basis("phi_pair")
    x_space, xi = _j_trace((basis.space, basis.J), geo._torsion_stack("phi_pair"))
    value, F, W = _value_frame(geo)
    dxi_parts = _partials(x_space, xi)
    a, b = np.triu_indices(n2, 1)
    acc = _along(value, F[a], dxi_parts[:, b]) - _along(value, F[b], dxi_parts[:, a])
    for c in range(n2):
        acc = acc - batched_mul(value, W[c, a, b], xi[c])
    dxi = np.zeros((n2, n2), dtype=np.complex128)
    dxi[a, b] = acc[:, 0]
    dxi[b, a] = -acc[:, 0]
    kappa = 0.5j * gamma_vals - (1j / 6.0) * dxi
    c0 = 0.5j * gamma_vals
    return gamma_vals, kappa, c0


def chern_weyl_closedness(state):
    """Max component of the exterior derivative of the curvature trace."""
    return _max_abs(_closedness_components(state))


def _closedness_components(state):
    """The components of the exterior derivative of the curvature trace,
    over a < b < c in lexicographic order: e_a gamma_bc - e_b gamma_ac +
    e_c gamma_ab, then over d the terms -W^d_ab gamma_dc + W^d_ac gamma_db
    - W^d_bc gamma_da.  Only values are read, so the products are taken
    at order 0."""
    geo, n2 = state.geometry, 2 * state.n
    if n2 < 3:
        # no index triple, and gamma may have no order to lose
        return np.zeros(0, dtype=np.complex128)
    space, gamma = geo._trace_stack("phi_pair")
    value, F, W = _value_frame(geo)
    parts = _partials(space, gamma)
    a, b, c = np.array(list(combinations(range(n2), 3)), dtype=np.int64).T
    acc = (_along(value, F[a], parts[:, b, c]) - _along(value, F[b], parts[:, a, c])
           + _along(value, F[c], parts[:, a, b]))
    for d in range(n2):
        acc = acc - batched_mul(value, W[d, a, b], gamma[d, c])
        acc = acc + batched_mul(value, W[d, a, c], gamma[d, b])
        acc = acc - batched_mul(value, W[d, b, c], gamma[d, a])
    return acc[:, 0]


def _value_frame(geo):
    """The order 0 space, and the phi_pair frame rows and anholonomy
    stack that the exterior derivatives at the point read."""
    value, basis = jet_space(2 * geo.n, 0), geo._basis("phi_pair")
    return (value, _at(basis.space, basis.frame, value),
            geo._anholonomy_stack("phi_pair")[1])
