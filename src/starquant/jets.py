"""Dense truncated multivariate Taylor (jet) arithmetic.

A jet of order K in d variables stores one complex coefficient per monomial
of total degree <= K.  The coefficient at exponent alpha equals the partial
derivative d^alpha f / alpha! at the expansion point, so jets propagate
exact derivatives through arithmetic, composition with elementary
functions, and matrix inversion.

Monomials are listed degree first (graded lexicographic), which makes
truncation to a lower order a prefix slice of the coefficient vector and
keeps multiplication tables reusable across orders.

Order rule: a sum, difference or product of two jets of one dimension is
known up to the lower of their orders, so `+`, `-` and `*` truncate the
higher-order operand to it.  Truncating first gives the same bits as
truncating the result, since the product table lists its pairs by
ascending left index at every order.

Cost: a product of two jets is one scatter-add over the product table,
whose pairs outnumber the coefficients (1,287 pairs for 126 coefficients
at dim 4, order 5).  Scaling by a constant (`Jet.scale`), the first step
of a series in `_horner`, and the derivative reads `gradient` and
`hessian` touch each coefficient once instead, and give the bits that
the table product, or `partial`, would give.  A tensor of jets is
cheaper as a stack of coefficient rows: `batched_mul` multiplies whole
stacks through one scatter-add per chunk of rows, and `batched_partial`
differentiates them, each row with the bits of `Jet.__mul__` or
`Jet.partial`, so the per-jet Python overhead is paid once per stack.

Arrays first: the products, integer powers, series compositions and
scalings are functions of raw coefficient arrays of one space
(`_mul_rows`, `_int_pow_rows`, `_pow_rows`, `_unary_rows`, `_horner`,
`_scale_rows`), and the `Jet` operations and `pow_const` and
`apply_unary` wrap them.  The compiled DSL expressions call them
directly, with no `Jet` between nodes.  `_mul_rows` is the one product
kernel: `Jet.__mul__`, `batched_mul` and the compiled expressions all
call it.  Seeded variable rows and the constant rows a compiled
expression hands out are shared, so they are read-only.

Stacked jets: a `Jet` may carry a leading row axis, coefficients of
shape (rows, size), one row per expansion point; `JetSpace.variables`
seeds them from a (rows, dim) array.  Sums, differences, scaling and the
derivative reads broadcast over the rows, and a product of stacked jets
goes through the kernel's stacked path.  The series of `exp`, `sin` and
`cos` are numpy arithmetic on the row values, formed for all rows at
once; those of `log`, `sqrt` and `pow_const` are built row by row with
the scalar arithmetic of a single jet, its domain checks included, so
the first row that fails raises its own message.  Every row then has
the bits the same evaluation gives on that row alone, so a compiled DSL
expression evaluates many points in one pass.  A constant jet without
row axes combines with a stack as with each of its rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegenerateHessian, InsufficientJetOrder, JetDomainError

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)

# Tolerance for treating a nominally complex value as real when checking
# domains of log/sqrt/fractional powers.
_TINY_IMAG = 1e-12

# A matrix whose value part has |det| <= HESSIAN_TOL * scale^n, scale its
# largest entry magnitude, is degenerate: the fiber Hessians and every jet
# matrix the package inverts are held to it.
HESSIAN_TOL = 1e-10

# The most index triples one product table may hold (about 60 MB of
# int64).  A config whose table would be larger is refused.
TABLE_CAP = 25 * 10 ** 5

# The chunk budget of the stacked kernels: the most pair products one
# scatter-add of `batched_mul` forms, and the most coefficients a chunk of
# a Wick product's pair plan stacks.  A pair product holds about 72 bytes
# while its chunk is alive (two gathered factors, their product, its
# destination and the scatter's copy), so a chunk stays near 0.3 MB; a
# larger budget saves no time and raises the peak resident memory.
CHUNK = 2 ** 12


def _monomials(dim, order):
    monos = []
    for deg in range(order + 1):
        batch = []
        for combo in combinations_with_replacement(range(dim), deg):
            exp = [0] * dim
            for var in combo:
                exp[var] += 1
            batch.append(tuple(exp))
        batch.sort()
        monos.extend(batch)
    return monos


class JetSpace:
    """Shared description of one truncation (dim, order).

    Obtain instances through :func:`jet_space`; the factory caches them so
    the index tables are built once per (dim, order) and jets can share
    them.
    """

    def __init__(self, dim, order):
        if dim < 1 or order < 0:
            raise ValueError(f"need dim >= 1 and order >= 0, got ({dim}, {order})")
        self.dim = int(dim)
        self.order = int(order)
        self.monos = _monomials(self.dim, self.order)
        self.size = len(self.monos)
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.degrees = np.array([sum(m) for m in self.monos], dtype=np.int64)
        # prefix[d] = number of monomials of degree <= d; relies on the
        # graded ordering.
        self.prefix = np.searchsorted(self.degrees, np.arange(self.order + 1), side="right")
        self._mul_table = None
        self._product_plan = None
        self._seed_rows = None
        self._seed_block = (None, None)
        self._partial_tables = {}
        self._derivative_table = None

    def __repr__(self):
        return f"JetSpace(dim={self.dim}, order={self.order})"

    def variables(self, values):
        """Seed one first-order-identity jet per variable at the point.  A
        (rows, dim) array of points seeds stacked jets instead, each of
        shape (rows, size)."""
        vals = np.asarray(values, dtype=np.complex128)
        stacked = vals.ndim == 2
        if not stacked:
            vals = vals.ravel()
        if vals.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} values, got {vals.shape}")
        if self._seed_rows is None:
            # first-order identity parts of the coordinate jets, built once
            self._seed_rows = _frozen(np.array(
                [jet_var(self, i, 0.0).coeffs for i in range(self.dim)]
            ))
        if stacked:
            # variable-major, so each variable's stack is contiguous; the
            # seed block of the last stack length is kept, since a flow
            # seeds stacks of one length at every stage
            count, block = self._seed_block
            if count != len(vals):
                block = _frozen(np.repeat(self._seed_rows[:, None, :], len(vals), axis=1))
                self._seed_block = (len(vals), block)
            rows = block.copy()
            rows[:, :, 0] = vals.T
        else:
            rows = self._seed_rows.copy()
            rows[:, 0] = vals
        # a compiled expression may hand a seeded row back as its result
        _frozen(rows)
        return [_wrap(self, rows[i]) for i in range(self.dim)]

    def _mul(self):
        # ii, jj -> kk index triples for the truncated product; built once.
        # Pairs are listed by ascending ii, so each output kk accumulates
        # its terms in that order; the product kernel keeps it.
        if self._mul_table is None:
            expmat = np.array(self.monos, dtype=np.int64)
            # Digit encoding is additive because exponent sums stay <= order.
            pows = (self.order + 1) ** np.arange(self.dim, dtype=np.int64)
            keys = expmat @ pows
            sortidx = np.argsort(keys)
            sorted_keys = keys[sortidx]
            ii, jj, kk = [], [], []
            for i in range(self.size):
                room = self.order - int(self.degrees[i])
                stop = int(self.prefix[room])
                pos = np.searchsorted(sorted_keys, keys[:stop] + keys[i])
                kk.append(sortidx[pos])
                ii.append(np.full(stop, i, dtype=np.int64))
                jj.append(np.arange(stop, dtype=np.int64))
            self._mul_table = (
                np.concatenate(ii),
                np.concatenate(jj),
                np.concatenate(kk),
            )
        return self._mul_table

    def _plan(self):
        # the product plan: (the CHUNK it was built for, rows per chunk,
        # the table's index triples, flat destinations of a full chunk's
        # pair products, row by row in table order); a chunk of fewer rows
        # reads a prefix.  Built again only when CHUNK changes.
        ii, jj, kk = self._mul()
        step = max(1, CHUNK // len(kk))
        dest = (kk + self.size * np.arange(step)[:, None]).ravel()
        self._product_plan = (CHUNK, step, ii, jj, kk, dest)
        return self._product_plan

    def _partial(self, var):
        tab = self._partial_tables.get(var)
        if tab is None:
            lower = jet_space(self.dim, self.order - 1)
            src, dst, fac = [], [], []
            for s, m in enumerate(self.monos):
                if m[var]:
                    shifted = m[:var] + (m[var] - 1,) + m[var + 1 :]
                    src.append(s)
                    dst.append(lower.index[shifted])
                    fac.append(m[var])
            tab = (
                np.array(src, dtype=np.int64),
                np.array(dst, dtype=np.int64),
                np.array(fac, dtype=np.float64),
                lower,
            )
            self._partial_tables[var] = tab
        return tab

    def _derivative_rows(self):
        # Coefficient rows of the first and second partials at the point,
        # with the factor `partial` multiplies by: d_a reads the monomial
        # e_a times 1, and d_a d_b reads e_a + e_b times its exponent of a
        # (then times 1).  The Hessian part is None below order 2.
        if self._derivative_table is None:
            units = [tuple(int(a == b) for b in range(self.dim))
                     for a in range(self.dim)]
            grad = np.array([self.index[u] for u in units], dtype=np.int64)
            hess = fac = None
            if self.order >= 2:
                sums = [[tuple(i + j for i, j in zip(u, w)) for w in units]
                        for u in units]
                hess = np.array([[self.index[m] for m in row] for row in sums],
                                dtype=np.int64)
                fac = np.array([[m[a] for m in row] for a, row in enumerate(sums)],
                               dtype=np.float64)
            self._derivative_table = (grad, hess, fac)
        return self._derivative_table


@lru_cache(maxsize=None)
def jet_space(dim, order):
    return JetSpace(dim, order)


class Jet:
    """One truncated Taylor expansion, or a stack of them along a leading
    row axis.  Treat instances as immutable.

    Combining two jets of one dimension works at the lower of their
    orders; jets of different dimensions do not combine."""

    __slots__ = ("space", "coeffs")

    # Keep numpy scalars from hijacking the reflected operators.
    __array_ufunc__ = None

    def __init__(self, space, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.shape[-1:] != (space.size,):
            raise ValueError(f"expected {space.size} coefficients, got {arr.shape}")
        self.space = space
        self.coeffs = arr

    @property
    def value(self):
        """The value at the point; for a stack, a complex array of the
        row values."""
        if self.coeffs.ndim == 1:
            return complex(self.coeffs[0])
        return self.coeffs[:, 0].copy()

    @property
    def dim(self):
        return self.space.dim

    @property
    def order(self):
        return self.space.order

    def __repr__(self):
        if self.coeffs.ndim > 1:
            return f"Jet(dim={self.dim}, order={self.order}, rows={self.coeffs.shape[:-1]})"
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value:.6g})"

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.space is self.space:
                return _wrap(self.space, self.coeffs + other.coeffs)
            space = _lower(self, other)
            return _wrap(space, self.coeffs[..., : space.size] + other.coeffs[..., : space.size])
        if isinstance(other, _SCALARS):
            out = self.coeffs.copy()
            out.T[0] += other  # coefficient 0 of every row
            return _wrap(self.space, out)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            if other.space is self.space:
                return _wrap(self.space, self.coeffs - other.coeffs)
            space = _lower(self, other)
            return _wrap(space, self.coeffs[..., : space.size] - other.coeffs[..., : space.size])
        if isinstance(other, _SCALARS):
            out = self.coeffs.copy()
            out.T[0] -= other
            return _wrap(self.space, out)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            out = -self.coeffs
            out.T[0] += other
            return _wrap(self.space, out)
        return NotImplemented

    def __neg__(self):
        return _wrap(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            space = self.space if other.space is self.space else _lower(self, other)
            return _wrap(space, _mul_rows(space, self.coeffs, other.coeffs))
        if isinstance(other, _SCALARS):
            return _wrap(self.space, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        """jet_const(space, c) * self, without the product table (see
        `_scale_rows`)."""
        return _wrap(self.space, _scale_rows(c, self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * pow_const(other, -1)
        if isinstance(other, _SCALARS):
            return _wrap(self.space, self.coeffs / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return pow_const(self, -1) * other
        return NotImplemented

    def __pow__(self, power):
        if isinstance(power, (float, np.floating)) and float(power).is_integer():
            power = int(power)
        if isinstance(power, (int, np.integer)):
            return pow_const(self, int(power))
        if isinstance(power, (float, np.floating)):
            return pow_const(self, float(power))
        return NotImplemented

    def partial(self, var):
        """Derivative with respect to variable `var`; drops one order."""
        space = self.space
        if not 0 <= var < space.dim:
            raise ValueError(f"variable index {var} out of range for dim {space.dim}")
        if space.order == 0:
            raise InsufficientJetOrder("cannot differentiate an order-0 jet")
        src, dst, fac, lower = space._partial(var)
        if self.coeffs.ndim > 1:
            return _wrap(lower, batched_partial(space, self.coeffs, var))
        out = np.zeros(lower.size, dtype=np.complex128)
        out[dst] = self.coeffs[src] * fac
        return _wrap(lower, out)

    def gradient(self):
        """Values of the first partials at the point, one per variable, as
        a complex vector (one per row of a stack): entry a has the bits of
        partial(a).value."""
        if self.space.order == 0:
            raise InsufficientJetOrder("cannot differentiate an order-0 jet")
        grad, _, _ = self.space._derivative_rows()
        coeffs = self.coeffs
        return (coeffs[grad] if coeffs.ndim == 1 else coeffs.take(grad, axis=1)) * 1.0

    def hessian(self):
        """Values of the second partials at the point, as a complex
        (dim, dim) matrix (one per row of a stack): entry (a, b) has the
        bits of partial(a).partial(b).value."""
        if self.space.order < 2:
            raise InsufficientJetOrder(
                f"the Hessian needs order 2, the jet has order {self.space.order}"
            )
        _, hess, fac = self.space._derivative_rows()
        # two factors, as two partials apply them: times a real factor can
        # change the sign of a zero part of a complex number
        coeffs = self.coeffs
        return (coeffs[hess] if coeffs.ndim == 1 else coeffs.take(hess, axis=1)) * fac * 1.0

    def truncate(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise InsufficientJetOrder(
                f"cannot extend an order-{self.order} jet to order {order}"
            )
        tgt = jet_space(self.dim, order)
        return _wrap(tgt, self.coeffs[..., : tgt.size].copy())

    def coefficient(self, mono):
        mono = tuple(int(a) for a in mono)
        if len(mono) != self.dim or any(a < 0 for a in mono):
            raise ValueError(f"bad exponent tuple {mono} for dim {self.dim}")
        if sum(mono) > self.order:
            raise InsufficientJetOrder(
                f"degree {sum(mono)} exceeds jet order {self.order}"
            )
        return complex(self.coeffs[self.space.index[mono]])

    def derivative(self, mono):
        """Partial derivative value d^mono f at the point (coefficient times mono!)."""
        fact = 1
        for a in mono:
            fact *= math.factorial(int(a))
        return self.coefficient(mono) * fact


def _mul_rows(space, a, b):
    """The jet product kernel, on coefficient arrays: row (size,) times
    row, or row by row where either is a stack (..., size).  Operands may
    hold more coefficients than `space`, which reads the lower ones, as
    the order rule truncates.  Every jet product, of a `Jet`, of a
    compiled expression or of `batched_mul`, is a call of it.

    Each output row is one unbuffered scatter-add over the product
    table: it sums its terms one by one from +0.0 in table order, so
    results do not depend on numpy's pairwise-summation blocking, and a
    row of a stack has the bits it has alone.  Two stacks of one length
    that fit in one chunk, the stages of a flow, take the space's plan
    as it is; other stacks broadcast, and go in chunks of at most CHUNK
    pair products (one row at least), so the intermediates stay bounded
    whatever the stack's length.
    """
    plan = space._product_plan
    if plan is None or plan[0] != CHUNK:
        plan = space._plan()
    _, step, ii, jj, kk, dest = plan
    size = space.size
    if a.ndim == 1 and b.ndim == 1:
        # the lower order's table only indexes coefficients it keeps
        out = np.zeros(size, dtype=np.complex128)
        np.add.at(out, kk, a[ii] * b[jj])
        return out
    # not `*=`: numpy's in-place complex multiply can round a product
    # differently from the out-of-place one of a single row
    rows = len(a)
    if a.ndim == b.ndim == 2 and rows == len(b):
        if rows <= step:  # one chunk
            terms = a.take(ii, axis=1) * b.take(jj, axis=1)
            out = np.zeros(rows * size, dtype=np.complex128)
            np.add.at(out, dest[: terms.size], terms.ravel())
            return out.reshape(rows, size)
        shape = a.shape[:1]  # two stacks of rows, nothing to broadcast
    else:
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        a, b = _row_stack(a, shape, size), _row_stack(b, shape, size)
        rows = len(a)
    out = np.zeros(rows * size, dtype=np.complex128)
    for lo in range(0, rows, step):
        terms = a[lo:lo + step].take(ii, axis=1) * b[lo:lo + step].take(jj, axis=1)
        at = dest[: terms.size]
        np.add.at(out, at + size * lo if lo else at, terms.ravel())
    return out.reshape(shape + (size,))


def batched_mul(space, a, b):
    """Row-by-row products of two stacks of coefficient rows in `space`.

    `a` and `b` have shapes (..., m) with m >= space.size; their leading
    axes broadcast, and each row is truncated to `space` first, as the
    order rule does.  Every output row has the bits of `Jet.__mul__` on
    the two rows; both are the kernel `_mul_rows`.
    """
    return _mul_rows(space, a, b)


def _row_stack(a, shape, size):
    # the rows of `a` broadcast to `shape`, as one 2-D stack; the table
    # reads only the first `size` columns, so a stack that needs no
    # broadcasting is used in place, and one that does is cut first
    if a.shape[:-1] == shape and a.flags.c_contiguous:
        return a.reshape(-1, a.shape[-1])
    return np.broadcast_to(a[..., :size], shape + (size,)).reshape(-1, size)


def batched_partial(space, a, var):
    """Derivative by variable `var` of each row of a stack in `space`
    (rows of at least space.size coefficients), one order lower, with
    the bits of `Jet.partial`."""
    if space.order == 0:
        raise InsufficientJetOrder("cannot differentiate an order-0 jet")
    src, dst, fac, lower = space._partial(var)
    out = np.zeros(a.shape[:-1] + (lower.size,), dtype=np.complex128)
    out[..., dst] = a[..., src] * fac
    return out


def _lower(a, b):
    # the space two jets of one dimension combine in
    if a.space.dim != b.space.dim:
        raise ValueError(f"jet mismatch: {a.space!r} vs {b.space!r}")
    return a.space if a.space.order <= b.space.order else b.space


def _wrap(space, coeffs):
    # Constructor for internal results: `coeffs` is already a complex128
    # array of rows of length space.size, so the checks of Jet() are skipped.
    jet = object.__new__(Jet)
    jet.space = space
    jet.coeffs = coeffs
    return jet


def _frozen(arr):
    # a shared array, read-only, so a kernel that writes into an operand
    # fails instead of changing rows that other results share
    arr.flags.writeable = False
    return arr


def jet_const(space, value):
    out = np.zeros(space.size, dtype=np.complex128)
    out[0] = value
    return _wrap(space, out)


def jet_var(space, var, value):
    if not 0 <= var < space.dim:
        raise ValueError(f"variable index {var} out of range for dim {space.dim}")
    out = np.zeros(space.size, dtype=np.complex128)
    out[0] = value
    if space.order >= 1:
        unit = tuple(1 if t == var else 0 for t in range(space.dim))
        out[space.index[unit]] = 1.0
    return Jet(space, out)


# ---------------------------------------------------------------------------
# Operations on coefficient arrays of one space: a row (size,) for one
# point or a stack (rows, size).  The compiled DSL expressions call them
# directly, and the Jet operations of the same name wrap them.


def _scale_rows(c, a):
    # jet_const(space, c) * a, without the product table.  For finite
    # coefficients it has that product's bits: there each coefficient is
    # c times this one, summed from +0.0, so a -0.0 turns into +0.0 here
    # too (`a * c` keeps it).  numpy may fuse a complex product into FMAs,
    # so c stays the left factor; for a real c the order of the factors
    # does not change the bits.
    out = c * a
    out += 0.0
    return out


def _int_pow_rows(space, a, n):
    # Exact on polynomials: repeated squaring, no series expansion.  The
    # running product starts from the first factor it needs, not from 1.
    if n == 0:
        return jet_const(space, 1.0).coeffs
    out = None
    base = a
    while True:
        if n & 1:
            out = base if out is None else _mul_rows(space, out, base)
        n >>= 1
        if not n:
            return out
        base = _mul_rows(space, base, base)


def _row_series(a, make, *args):
    # make(c, *args) -> the series at the value c.  A stack gets one
    # series per row, each from the scalar arithmetic a single jet takes,
    # as an array whose entry m holds term m of every row.
    if a.ndim == 1:
        return make(complex(a[0]), *args)
    rows = [make(c, *args) for c in a[:, 0].tolist()]
    return np.array(rows, dtype=np.complex128).T


def _horner(space, a, series):
    # Compose the univariate series with the nilpotent part u of `a`: u
    # is `a` minus its value, the first step scales u by the leading
    # term, as `_scale_rows` does, and each later step is a table product
    # by u; every step then adds its term at order 0, as Jet + scalar
    # does.  The terms are scalars, or per-row arrays for a stack.
    if len(series) == 1:
        out = np.zeros(np.shape(series[0]) + (space.size,), dtype=np.complex128)
        out[..., 0] = series[0]
        return out
    u = a.copy()
    u[..., 0] -= a[..., 0]
    lead = series[-1]
    out = (lead[:, None] if isinstance(lead, np.ndarray) else lead) * u
    out += 0.0
    out[..., 0] += series[-2]
    for m in range(len(series) - 3, -1, -1):
        out = _mul_rows(space, out, u)
        out[..., 0] += series[m]
    return out


def _require_positive_real(fn, c):
    if abs(c.imag) > _TINY_IMAG * max(1.0, abs(c.real)) or c.real <= 0.0:
        raise JetDomainError(f"{fn} needs a positive real value, got {c}")
    return c.real


def _pow_rows(space, a, exponent):
    # the array form of pow_const
    if isinstance(exponent, (int, np.integer)) and exponent >= 0:
        return _int_pow_rows(space, a, int(exponent))
    return _horner(space, a, _row_series(a, _pow_series, exponent, space.order))


def pow_const(jet, exponent):
    """Raise a jet to a constant real power via the binomial series.

    Non-negative integer exponents take the exact polynomial route and
    work for any jet; everything else needs a nonzero value, and
    fractional exponents additionally need the value off the negative
    real axis.
    """
    out = _pow_rows(jet.space, jet.coeffs, exponent)
    return jet if out is jet.coeffs else _wrap(jet.space, out)  # jet ** 1 is jet


def _pow_series(c, exponent, order):
    # the binomial series of c**exponent to `order`, after the domain checks
    if abs(c) == 0.0:
        raise JetDomainError(f"power {exponent} of a jet whose value vanishes")
    is_int = float(exponent).is_integer()
    if not is_int and c.real < 0.0 and abs(c.imag) <= _TINY_IMAG * max(1.0, abs(c.real)):
        raise JetDomainError(
            f"fractional power {exponent} at a negative real value {c}"
        )
    r = float(exponent)
    try:
        term = c**r if not is_int else c ** int(r)
    except OverflowError:
        raise JetDomainError(f"power {exponent} of {c} overflows") from None
    series = [term]
    for m in range(1, order + 1):
        term = term * (r - m + 1) / (m * c)
        series.append(term)
    # complex arithmetic returns inf or nan where it does not raise
    if not all(map(cmath.isfinite, series)):
        raise JetDomainError(f"power {exponent} of {c} leaves the finite range")
    return series


def _unary_rows(space, a, fn):
    # the array form of apply_unary.  The exp, sin and cos series are
    # numpy arithmetic on the values, so a stack's are formed for all
    # rows at once; the log and sqrt series use Python's complex
    # arithmetic and checks, so they stay row by row, and the first row
    # that fails raises.
    if fn in ("exp", "sin", "cos"):
        series = _entire_series(a[..., 0], fn, space.order)
    elif fn in ("log", "sqrt"):
        series = _row_series(a, _unary_series, fn, space.order)
    else:
        raise ValueError(f"unknown function {fn!r}")
    return _horner(space, a, series)


def apply_unary(jet, fn):
    """Compose a named scalar function with a jet.

    Supported names: sin, cos, exp, log, sqrt.  log and sqrt require a
    positive real value at the expansion point (at every row of a stack).
    """
    return _wrap(jet.space, _unary_rows(jet.space, jet.coeffs, fn))


@lru_cache(maxsize=None)
def _factorials(K, ndim):
    # 0!, ..., K!, along the first of `ndim` + 1 axes
    return _frozen(np.array([math.factorial(m) for m in range(K + 1)],
                            dtype=np.float64).reshape((K + 1,) + (1,) * ndim))


def _entire_series(c, fn, K):
    # the Taylor series of exp, sin or cos at the value c (one per row of
    # a stack) to order K, as an array whose entry m holds term m; each
    # term is one division by m!
    if fn == "exp":
        terms = np.exp(c)
    else:
        s, co = np.sin(c), np.cos(c)
        cycle = (s, co, -s, -co) if fn == "sin" else (co, -s, -co, s)
        terms = np.array([cycle[m % 4] for m in range(K + 1)])
    return terms / _factorials(K, c.ndim)


def _unary_series(c, fn, K):
    # the Taylor series of log or sqrt at the value c to order K
    if fn == "log":
        c = _require_positive_real("log", c)
        series = [np.log(c)]
        for m in range(1, K + 1):
            series.append((-1.0) ** (m - 1) / (m * c**m))
    else:
        _require_positive_real("sqrt", c)
        series = _pow_series(c, 0.5, K)
    return series


def _obj_matmul(A, B):
    n, m = A.shape
    m2, k = B.shape
    out = np.empty((n, k), dtype=object)
    for i in range(n):
        for j in range(k):
            acc = A[i, 0] * B[0, j]
            for t in range(1, m):
                acc = acc + A[i, t] * B[t, j]
            out[i, j] = acc
    return out


def jet_matrix_inverse(matrix):
    """Invert a square matrix of jets sharing one space.

    Splits M = M0 + Delta with M0 the value part.  When |det M0| falls at
    or below HESSIAN_TOL * scale^n (scale = largest entry magnitude) the
    matrix is declared degenerate.  Otherwise the truncation-exact
    iteration X <- X0 - (X0 Delta) X runs `order` times, which is enough
    because Delta is nilpotent in the truncated algebra.  Entries may be
    stacked jets: each row is then inverted as it would be alone, and the
    first degenerate row raises.
    """
    mat = np.asarray(matrix, dtype=object)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    space = mat[0, 0].space
    lead = np.broadcast_shapes(*(jet.coeffs.shape[:-1] for jet in mat.flat))
    M0 = np.empty(lead + (n, n), dtype=np.complex128)
    for a, b in np.ndindex(n, n):
        M0[..., a, b] = mat[a, b].value
    det = np.linalg.det(M0)
    for row_scale, row_det in zip(np.abs(M0).max(axis=(-2, -1)).flat, det.flat):
        scale = max(float(row_scale), 1e-300)
        if abs(row_det) <= HESSIAN_TOL * scale**n:
            raise DegenerateHessian(
                f"matrix value part is singular: |det| = {abs(row_det):.3e} "
                f"against scale^{n} = {scale**n:.3e}"
            )
    X0v = np.linalg.inv(M0)
    X0 = np.empty((n, n), dtype=object)
    delta = np.empty((n, n), dtype=object)
    for a, b in np.ndindex(n, n):
        const = np.zeros(lead + (space.size,), dtype=np.complex128)
        const[..., 0] = X0v[..., a, b]
        X0[a, b] = _wrap(space, const)
        entry = mat[a, b]
        shifted = np.broadcast_to(entry.coeffs, lead + entry.coeffs.shape[-1:]).copy()
        shifted[..., 0] -= M0[..., a, b]
        delta[a, b] = _wrap(entry.space, shifted)
    X = X0
    for _ in range(space.order):
        X = X0 - _obj_matmul(_obj_matmul(X0, delta), X)
    return X


@dataclass(frozen=True)
class PhasePoint:
    """Point of the bundle: base coordinates x plus fiber coordinates.

    The fiber slot is momenta for cotangent work and velocities for
    tangent work; `p` and `y` name the same data.
    """

    x: tuple
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if len(self.x) != len(self.p):
            raise ValueError("base and fiber must have the same dimension")
        if not self.x:
            raise ValueError("need at least one dimension")

    @property
    def n(self):
        return len(self.x)

    @property
    def y(self):
        return self.p

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=float).ravel()
        if arr.size % 2:
            raise ValueError(f"need an even number of coordinates, got {arr.size}")
        n = arr.size // 2
        return cls(tuple(arr[:n]), tuple(arr[n:]))

    def as_array(self):
        return np.array(self.x + self.p, dtype=float)

    def jets(self, order):
        """Seed coordinate jets at this point.

        Returns (space, base_jets, fiber_jets); base variables occupy
        slots 0..n-1, fiber variables slots n..2n-1.
        """
        space = jet_space(2 * self.n, order)
        seeded = space.variables(self.as_array())
        return space, seeded[: self.n], seeded[self.n :]
