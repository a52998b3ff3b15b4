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

The pairing lam = theta - i g of a state is a WickPairing.  It owns the
table of contraction weights that all of the state's Wick products read,
so the table lives and dies with the state, and it keeps each weight at
the highest jet order read so far (see WickPairing).

The Wick product runs on arrays.  Each key (r, z, form) is one int64
code (KeyCodes), so the key a pair of terms feeds is a sum of codes and
a contraction row's key that sum plus the row's offset.  The pair plan
is a mask over the grid of left and right terms (the degree cap and the
disjoint forms), the wedge signs come from one table, and the weights of
each (za, zb) are one stack of coefficient rows (Contractions).  The
numbers go through jets.batched_mul, grouped by jet order, and every
result key sums its pieces in visit order from its first piece (_Sums),
so each coefficient has the bits of the per-jet loop: one Jet product
and one Jet sum per piece, as tests/oracles.py keeps it.  The pairs are
taken in chunks whose stacks stay within jets.CHUNK coefficients.  The
element itself stays a dict of Jets; the other operators still loop
over its terms.

The degree recursions keep only the jet orders their readers need.  A
caller that reads the scalar parts of products of lifts at jet order q
(q = 0 for values) passes read=q to build_state and tau_lift: each
covariant derivative costs one order, and t[m] of a lift meets at most
d_max - m more of them, so it is kept to order q + d_max - m
(lift_order); comp[k] of r first enters the lift step k - 1, so it is
kept to q + d_max - k + 1 (r_order).  Both are capped at the jet's own
order, and each step cuts the factors of its Wick products to the order
it keeps, so no product forms orders that are dropped.  By the jet order
rule the kept prefix has the bits it would have had uncut, so what the
caller reads does not move; only the closure defects, whose maxima run
over the coefficients that are kept, can fall.  A term whose kept
prefix is below PRUNE_TOL is pruned where its uncut jet would have been
kept.  read=None keeps the full orders, which the closure references
(recursion_residual, tau_flatness, flat_connection_defect) need, since
they differentiate the stored components once more.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import StarquantError
from .geometry import (
    GeometryAtPoint,
    _max_abs,
    as_generator,
    frame_deriv,
    jsum,
    values,
)
from .jets import Jet, batched_mul, jet_space

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
        return _max_abs(float(np.abs(c.coeffs).max()) for c in self.terms.values())

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
        store[key] = cur + coeff


def _negligible(c):
    return np.abs(c.coeffs).max() <= PRUNE_TOL


def _built(n, d_max, store):
    clean = {}
    for key, c in store.items():
        if 2 * key[0] + sum(key[1]) > d_max:
            continue
        if _negligible(c):
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
                    coeff = G[slot, al, src] * c * (-sign * z[slot])
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
                    coeff = W[eps, mu, nu] * c * (-psign * s2)
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
# the fiberwise product on key codes and coefficient stacks


class KeyCodes:
    """Integer codes of the keys (r, z, form) of elements with n2 = 2n
    fiber slots.  The form is an n2-bit mask in the low bits; above it
    each z exponent, then r, has a field of `width` bits.  Codes add as
    the keys do while no field overflows: the key of a pair of terms is
    the sum of their codes with the masks replaced by their union, and a
    contraction row's key is the pair's key plus the row's offset."""

    def __init__(self, n2):
        self.n2 = n2
        self.width = (62 - n2) // (n2 + 1)
        self.zshift = n2 + self.width * np.arange(n2, dtype=np.int64)
        self.zplace = np.left_shift(1, self.zshift)
        self.rshift = n2 + self.width * n2
        self.forms = [tuple(k for k in range(n2) if m >> k & 1) for m in range(1 << n2)]
        self.masks = {f: m for m, f in enumerate(self.forms)}
        # the wedge sign of two disjoint masks: -1 to the number of pairs
        # of a left index above a right one, as wedge_merge counts them
        bits = (np.arange(1 << n2)[:, None] >> np.arange(n2)) & 1
        above = np.cumsum(bits[:, ::-1], axis=1)[:, ::-1] - bits
        self.sign = np.where((above @ bits.T) % 2, -1, 1).astype(np.int8)

    def keys(self, codes):
        """The (r, z, form) keys of an array of codes."""
        z = (codes[:, None] >> self.zshift) & ((1 << self.width) - 1)
        forms = [self.forms[m] for m in (codes & ((1 << self.n2) - 1)).tolist()]
        return list(zip((codes >> self.rshift).tolist(), map(tuple, z.tolist()), forms))


class _Stack:
    """The terms of one element as arrays, in the element's order: the
    code of each key without its form, the form mask, r, |z| and Deg, an
    index into the distinct z exponents (and their |z|), and the
    coefficients as one stack of rows padded with zeros past each jet's
    order."""

    def __init__(self, a, codes):
        if a.d_max >= 1 << codes.width:
            raise ValueError(f"Deg {a.d_max} overflows the {codes.width}-bit key fields")
        keys, coeffs = list(a.terms), list(a.terms.values())
        dims = {c.dim for c in coeffs}
        if len(dims) != 1:
            raise ValueError(f"jets of dimensions {sorted(dims)} do not combine")
        (self.dim,) = dims
        z = np.array([k[1] for k in keys], dtype=np.int64).reshape(len(keys), codes.n2)
        self.r = np.array([k[0] for k in keys], dtype=np.int64)
        self.s = z.sum(axis=1)
        self.deg = 2 * self.r + self.s
        self.mask = np.array([codes.masks[k[2]] for k in keys], dtype=np.int64)
        self.code = (self.r << codes.rshift) + z @ codes.zplace
        zs = {}
        self.zidx = np.array([zs.setdefault(k[1], len(zs)) for k in keys], dtype=np.int64)
        self.zs = list(zs)
        self.zs_deg = self.s[np.unique(self.zidx, return_index=True)[1]]
        self.order = np.array([c.order for c in coeffs], dtype=np.int64)
        self.coeffs = np.zeros((len(coeffs), max(c.space.size for c in coeffs)), np.complex128)
        for row, c in zip(self.coeffs, coeffs):
            row[: c.space.size] = c.coeffs


def _stacks(a, b, lam):
    """The operands of a product as _Stacks, checked to have their jets
    and the pairing's in one dimension."""
    A, B = _Stack(a, lam.codes), _Stack(b, lam.codes)
    if not A.dim == B.dim == lam.dim:
        raise ValueError(f"jets of dimensions {A.dim}, {B.dim} and a pairing of "
                         f"dimension {lam.dim} do not combine")
    return A, B


def _sizes(dim, orders):
    """Coefficient counts of the jet spaces of an array of orders: the
    monomials of degree <= o in dim variables."""
    counts = [math.comb(dim + o, o) for o in range(int(orders.max(initial=0)) + 1)]
    return np.array(counts, dtype=np.int64)[orders]


def _mul_grouped(dim, orders, left, right, width):
    """Row-by-row products of two stacks, each pair in the jet space of its
    order, through batched_mul; padded with zeros to `width`."""
    out = np.zeros((len(orders), width), np.complex128)
    # not np.unique: without its optional outputs it imports numpy.ma
    uniq = np.flatnonzero(np.bincount(orders)).tolist()
    for o in uniq:
        space = jet_space(dim, int(o))
        sel = slice(None) if len(uniq) == 1 else np.nonzero(orders == o)[0]
        out[sel, : space.size] = batched_mul(space, left[sel], right[sel])
    return out


class _Sums:
    """Contributions summed into keys as _accumulate sums jets: the keys in
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
        self.codes = KeyCodes(matrix.shape[0])
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

    def _gather(self, A, B, i, j, order, last=False):
        """The contraction rows of the pairs (A[i], B[j]), each read at its
        jet order `order`, or only each pair's last row (all slots
        contracted).  Returns _Rows over the distinct (za, zb) and, per
        pair, its (za, zb), first row and row count."""
        nb = len(B.zs)
        uniq, combo = np.unique(A.zidx[i] * nb + B.zidx[j], return_inverse=True)
        combo = combo.reshape(-1)
        need = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(need, combo, order)
        live = np.nonzero((A.zs_deg[uniq // nb] > 0) & (B.zs_deg[uniq % nb] > 0))[0]
        read = self._read([(A.zs[c // nb], B.zs[c % nb]) for c in uniq[live].tolist()],
                          need[live].tolist())
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


def _chunks(count, size):
    """(lo, hi) runs of consecutive items, item k stacking count[k] rows
    of size[k] coefficients, whose rows padded to the run's widest size
    make at most jets.CHUNK coefficients; one item at least."""
    rows = np.cumsum(count)
    lo = 0
    while lo < len(rows):
        stacked = (rows[lo:] - (rows[lo - 1] if lo else 0)) * np.maximum.accumulate(size[lo:])
        hi = lo + max(1, int(np.searchsorted(stacked, jets.CHUNK, side="right")))
        yield lo, hi
        lo = hi


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


def _contract(A, B, i, j, sign, masks, rows, combo, start, count, base):
    """The sums of a pair plan.  Pair k = (A[i[k]], B[j[k]]) has the base
    A-coefficient times B-coefficient times sign[k]; it contributes that
    base if base[k], then the base times each of the count[k] rows of
    `rows` (a _Rows, where the pair's (za, zb) is combo[k]) from start[k]
    on.  The pairs are taken in visit order, in chunks of whole pairs
    whose contributions stack at most jets.CHUNK coefficients.  Returns
    the keys in visit order, their jet orders, and the summed rows."""
    order = np.minimum(A.order[i], B.order[j])
    per = base + count
    cpair = np.repeat(np.arange(len(i)), per)
    step = np.arange(len(cpair)) - np.repeat(np.cumsum(per) - per, per) - base[cpair]
    crow = np.where(step >= 0, start[cpair] + step, -1)
    corder = np.minimum(order[cpair], rows.orders[crow])
    keys = A.code[i[cpair]] + B.code[j[cpair]] + masks[cpair] + rows.offsets[crow]
    sums = _Sums(keys, corder, A.dim)
    sizes = _sizes(A.dim, order)
    ends = np.cumsum(per)
    for p0, p1 in _chunks(per, sizes):
        c0, c1 = (int(ends[p0 - 1]) if p0 else 0), int(ends[p1 - 1])
        # the stacks are as wide as the chunk's highest order needs
        width = int(sizes[p0:p1].max())
        values = _mul_grouped(A.dim, order[p0:p1], A.coeffs[i[p0:p1], :width],
                              B.coeffs[j[p0:p1], :width], width) * sign[p0:p1, None]
        values = values[cpair[c0:c1] - p0]
        weighted = np.nonzero(crow[c0:c1] >= 0)[0]
        if len(weighted):
            at = c0 + weighted
            values[weighted] = _mul_grouped(A.dim, corder[at], values[weighted],
                                            rows.stack(combo[cpair[at]], crow[at], width),
                                            width)
        sums.add(c0, values)
    return keys[sums.visited], sums.order, sums.done()


def _jets_of(dim, orders, rows):
    """(jet, not negligible) for each summed row; each jet owns a copy
    of its coefficients, so the stack is freed with the product."""
    sizes = _sizes(dim, orders).tolist()
    keep = ~(np.abs(rows).max(axis=1) <= PRUNE_TOL)
    return [(Jet(jet_space(dim, o), row[:size].copy()), k)
            for o, size, row, k in zip(orders.tolist(), sizes, rows, keep.tolist())]


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
    if not a.terms or not b.terms:
        return WickElement(a.n, a.d_max, {})
    codes = lam.codes
    A, B = _stacks(a, b, lam)
    i, j = np.nonzero((A.deg[:, None] + B.deg <= top) & ((A.mask[:, None] & B.mask) == 0))
    if not len(i):
        return WickElement(a.n, a.d_max, {})
    order = np.minimum(A.order[i], B.order[j])
    rows, combo, start, count = lam._gather(A, B, i, j, order)
    keys, orders, summed = _contract(A, B, i, j, codes.sign[A.mask[i], B.mask[j]],
                                     A.mask[i] | B.mask[j], rows, combo, start, count,
                                     np.ones(len(i), dtype=bool))
    terms = {key: jet for key, (jet, keep) in zip(codes.keys(keys),
                                                  _jets_of(A.dim, orders, summed)) if keep}
    return WickElement(a.n, a.d_max, terms)


def wick_scalar_parts(a, b, lam, v_max):
    """scalar_parts(v_max) of a o b, without forming the product.

    The scalar key (r, 0, ()) has Deg 2 r, and only a form-free pair with
    |za| = |zb| = s reaches it, through the row that contracts all s slots.
    So only such pairs with 2 (ra + rb + s) <= min(2 v_max, d_max) are
    visited, in wick_product's order, and the result equals
    wick_product(a, b, lam, cap=2 v_max).scalar_parts(v_max) bit for bit."""
    a._check(b)
    top = min(2 * v_max, a.d_max)
    if not a.terms or not b.terms:
        return {}
    codes = lam.codes
    A, B = _stacks(a, b, lam)
    i, j = np.nonzero((A.mask == 0)[:, None] & (B.mask == 0) & (A.s[:, None] == B.s)
                      & (2 * (A.r[:, None] + B.r + A.s[:, None]) <= top))
    if not len(i):
        return {}
    order = np.minimum(A.order[i], B.order[j])
    rows, combo, start, count = lam._gather(A, B, i, j, order, last=True)
    # the wedge sign of two empty forms: a complex multiply by 1 can turn
    # -0.0 into +0.0, so it stays
    sign = np.ones(len(i), dtype=np.int8)
    keys, orders, summed = _contract(A, B, i, j, sign, np.zeros(len(i), np.int64), rows,
                                     combo, start, count, count == 0)
    parts = dict(zip((keys >> codes.rshift).tolist(), _jets_of(A.dim, orders, summed)))
    return {r: parts[r][0] for r in sorted(parts) if parts[r][1]}


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
    floor = _max_abs(float(np.abs(c.coeffs).max()) for (r, _, _), c in a.terms.items() if r == 0)
    # a NaN floor fails too: the v^0 part is not known to vanish
    if not floor <= tol * max(1.0, a.max_abs()):
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
    degrees they read.  The containers themselves stay at d_alg.

    lam is the state's own WickPairing: every Wick product at this point
    reads the contraction weights from its table, which stores each weight
    at the highest jet order read so far and goes with the state.

    A state built with a read order keeps comp[k] of r only to
    r_order(read, d_max, k); the closure references differentiate the
    components once more, so they need a state built without one."""

    geometry: GeometryAtPoint
    d_max: int
    d_alg: int
    ctx: ConnectionContext
    lam: WickPairing
    torsion_lift: WickElement
    curvature_lift: WickElement
    r: WickElement = None  # set by fedosov_r
    r_components: dict = field(default_factory=dict)
    residual: float = None  # closure residual, stored by fedosov_r

    @property
    def n(self):
        return self.geometry.n


def build_state(generator, point, d_max, order=None, hessian_tol=1e-10, read=None):
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
    geo = GeometryAtPoint(as_generator(generator), point, order, hessian_tol)
    ctx = connection_context(geo, "phi_pair")
    n2 = 2 * geo.n
    ginv = geo.metric_frame_inverse("phi_pair")
    lam = np.empty((n2, n2), dtype=object)
    for al in range(n2):
        for be in range(n2):
            lam[al, be] = ginv[al, be] * (-1j) + ctx.theta_low[al, be]
    lam = WickPairing(lam)
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
    if order is None:
        return a
    return a._like({k: c if c.order <= order else c.truncate(order)
                    for k, c in a.terms.items()})


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
        total = total + x[m]
    return total, _max_abs(defects)


def fedosov_r(state, read=None):
    """Degree-by-degree solution of the flatness equation
    delta r = T_lift + R_lift + D r - (i/v) r o r:  comp[2] = delta_inv
    T_lift, comp[3] picks up the curvature lift, and each later degree m
    solves comp[m] = delta_inv(D comp[m-1] - (i/v) sum_{a+b=m+1} comp[a] o
    comp[b]).  The closure defect, on Deg 1 .. d_max - 1, is state.residual.
    With a read order, comp[k] is kept to r_order(read, d_max, k)."""
    comp = {}
    orders = None if read is None else (lambda k: r_order(read, state.d_max, k))

    def source(m):
        if m == 2:
            return state.torsion_lift
        acc = extended_D(comp[m - 1], state.ctx)
        if m == 3:
            acc = acc + state.curvature_lift
        top = None if orders is None else orders(m)
        pairs = [wick_product(_cut(comp[p], top), _cut(comp[m + 1 - p], top), state.lam)
                 for p in range(2, m)]
        return acc - v_divide(sum(pairs[1:], pairs[0]).scale(1j))

    zero = WickElement.zero(state.n, state.d_alg)
    r, resid = _solve_degrees(zero, comp, range(2, state.d_max + 1), source, orders)
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
        acc = extended_D(t[m - 1], state.ctx)
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
# the closed characteristic 2-form


def _chern_jets(state):
    n2 = 2 * state.n
    J = state.geometry.complex_structure_frame("phi_pair")
    R = state.ctx.curvature
    gamma = np.empty((n2, n2), dtype=object)
    for a in range(n2):
        for b in range(n2):
            gamma[a, b] = jsum(
                [J[ap, t] * R[t, ap, a, b] for ap in range(n2) for t in range(n2)]
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
        jsum([J[ap, t] * T[t, ap, b] for ap in range(n2) for t in range(n2)])
        for b in range(n2)
    ]
    dxi = np.zeros((n2, n2), dtype=np.complex128)
    for a in range(n2):
        for b in range(a + 1, n2):
            pieces = [
                frame_deriv(xi[b], F[a]),
                -frame_deriv(xi[a], F[b]),
            ]
            pieces += [-(W[c, a, b] * xi[c]) for c in range(n2)]
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
    components = []
    for a in range(n2):
        for b in range(a + 1, n2):
            for c in range(b + 1, n2):
                pieces = [
                    frame_deriv(gamma[b, c], F[a]),
                    -frame_deriv(gamma[a, c], F[b]),
                    frame_deriv(gamma[a, b], F[c]),
                ]
                for d in range(n2):
                    pieces.append(-(W[d, a, b] * gamma[d, c]))
                    pieces.append(W[d, a, c] * gamma[d, b])
                    pieces.append(-(W[d, b, c] * gamma[d, a]))
                components.append(jsum(pieces).value)
    return _max_abs(components)
