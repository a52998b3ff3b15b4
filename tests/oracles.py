"""Independent numerical oracles shared by the test modules.

The finite-difference oracles deliberately avoid the package's jet
machinery so that agreement between the two routes means something.
`reference_jet` uses the jets but not the expression compiler: it is the
plain walk the compiler must reproduce bit for bit.  `reference_curvature`
and `reference_compat_residual` are the per-entry jet loops that the
geometry's coefficient-tensor contractions must reproduce bit for bit.
`reference_contraction_rows`, `reference_wick_product`,
`reference_wick_scalar_parts`, `reference_sum`, `reference_delta_pair`,
`reference_delta_inv_pair`, `reference_extended_D` and
`reference_v_divide` are the per-jet loops of the Wick algebra, one Jet
product and one Jet sum per piece, on a dict of jets per element
(`DictElement`), with the form indices merged by `wedge_merge`; the key
codes and coefficient stacks of the package must reproduce them bit for
bit.  `reference_chern_weyl` and `reference_chern_weyl_closedness` are
the per-jet loops of the curvature trace form, one jet per entry, which
the trace form on the geometry's stacks must reproduce bit for bit.
"""

import math
import weakref

import numpy as np

from starquant.errors import StarquantError
from starquant.expr import Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var
from starquant.fedosov import PRUNE_TOL, WickElement
from starquant.geometry import _max_abs, frame_deriv, jsum, values
from starquant.jets import apply_unary, jet_const, jet_space


def reference_jet(node, values, space):
    """Jet of an AST over a list of variable jets in `space`, by a
    recursive walk: every Const becomes jet_const and every operation a
    Jet operator, with a divisor evaluated before its numerator."""
    if isinstance(node, Const):
        return jet_const(space, node.value)
    if isinstance(node, Var):
        return values[node.slot]
    if isinstance(node, Neg):
        return -reference_jet(node.arg, values, space)
    if isinstance(node, Div):
        den = reference_jet(node.right, values, space)
        return reference_jet(node.left, values, space) / den
    if isinstance(node, (Add, Sub, Mul)):
        a = reference_jet(node.left, values, space)
        b = reference_jet(node.right, values, space)
        if isinstance(node, Add):
            return a + b
        return a - b if isinstance(node, Sub) else a * b
    if isinstance(node, Pow):
        e = int(node.exponent) if float(node.exponent).is_integer() else node.exponent
        return reference_jet(node.base, values, space) ** e
    if isinstance(node, Call):
        return apply_unary(reference_jet(node.arg, values, space), node.fname)
    raise TypeError(f"not an AST node: {node!r}")


def nested_central(f, point, mono, step):
    """Mixed partial d^mono f by recursively nested central differences."""
    point = np.asarray(point, dtype=float)
    mono = tuple(int(a) for a in mono)
    if sum(mono) == 0:
        return f(point)
    var = next(i for i, a in enumerate(mono) if a)
    lower = mono[:var] + (mono[var] - 1,) + mono[var + 1 :]
    plus = point.copy()
    plus[var] += step
    minus = point.copy()
    minus[var] -= step
    return (nested_central(f, plus, lower, step) - nested_central(f, minus, lower, step)) / (
        2.0 * step
    )


def central_derivative(f, point, mono, step=None):
    """Richardson-extrapolated central finite difference for d^mono f.

    The h^2 error term of the nested central scheme is eliminated by
    combining steps h and h/2, which keeps third-order derivatives
    accurate in float64.
    """
    point = np.asarray(point, dtype=float)
    if step is None:
        step = 1e-3 * max(1.0, float(np.abs(point).max()))
    coarse = nested_central(f, point, mono, step)
    fine = nested_central(f, point, mono, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def check_jet_against_fd(jet, f, point, max_order=3, tol=1e-5):
    """Compare every stored coefficient of order <= max_order with the
    finite-difference oracle.  Returns the worst floored-relative error."""
    import math

    worst = 0.0
    for mono in jet.space.monos:
        deg = sum(mono)
        if deg == 0 or deg > max_order:
            continue
        fd = central_derivative(f, point, mono)
        fact = 1.0
        for a in mono:
            fact *= math.factorial(a)
        fd_coeff = fd / fact
        got = jet.coefficient(mono)
        err = abs(got - fd_coeff) / max(1.0, abs(fd_coeff))
        worst = max(worst, err)
        assert err <= tol, f"mono {mono}: jet {got}, fd {fd_coeff}, err {err:.3e}"
    return worst


def reference_curvature(G, W, F):
    """R[g][ph][a][b] of the connection G with anholonomy W along the frame
    rows F, one jet per entry: e_a G_{g,b,ph} - e_b G_{g,a,ph} plus the
    sums over d of G_{d,b,ph} G_{g,a,d} - G_{d,a,ph} G_{g,b,d}
    - W_{d,a,b} G_{g,d,ph}, each a left fold in that order."""
    n2 = G.shape[0]
    R = np.empty((n2, n2, n2, n2), dtype=object)
    min_order = None
    for g in range(n2):
        for ph in range(n2):
            for a in range(n2):
                for b in range(a + 1, n2):
                    terms = [
                        frame_deriv(G[g, b, ph], F[a]),
                        -frame_deriv(G[g, a, ph], F[b]),
                    ]
                    for d in range(n2):
                        terms.append(G[d, b, ph] * G[g, a, d])
                        terms.append(-(G[d, a, ph] * G[g, b, d]))
                        terms.append(-(W[d, a, b] * G[g, d, ph]))
                    r = jsum(terms)
                    R[g, ph, a, b] = r
                    R[g, ph, b, a] = -r
                    min_order = (
                        r.order if min_order is None else min(min_order, r.order)
                    )
    zero = jet_const(jet_space(n2, min_order if min_order is not None else 0), 0.0)
    for g in range(n2):
        for ph in range(n2):
            for a in range(n2):
                R[g, ph, a, a] = zero
    return R


def reference_compat_residual(G, F, form):
    """Max component of the covariant derivative of a frame 2-tensor, one
    jet per component: e_a form_bc - G_{d,a,b} form_dc - G_{d,a,c} form_bd."""
    n2 = G.shape[0]
    worst = 0.0
    for a in range(n2):
        for b in range(n2):
            for c in range(n2):
                terms = [frame_deriv(form[b, c], F[a])]
                for d in range(n2):
                    terms.append(-(G[d, a, b] * form[d, c]))
                    terms.append(-(G[d, a, c] * form[b, d]))
                worst = max(worst, abs(jsum(terms).value))
    return float(worst)


def _accumulate(store, key, coeff):
    cur = store.get(key)
    store[key] = coeff if cur is None else cur + coeff


def _negligible(c, tol=PRUNE_TOL):
    return np.abs(c.coeffs).max() <= tol


def _bump(z, slot, by):
    return z[:slot] + (z[slot] + by,) + z[slot + 1 :]


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


class DictElement:
    """The element container of the per-jet loops: terms maps
    (v_power, z_exponents, form_indices) -> Jet."""

    def __init__(self, n, d_max, terms):
        self.n, self.d_max, self.terms = n, d_max, terms

    def max_abs(self):
        return _max_abs(float(np.abs(c.coeffs).max()) for c in self.terms.values())


def _built(n, d_max, store):
    return DictElement(n, d_max, {key: c for key, c in store.items()
                                  if 2 * key[0] + sum(key[1]) <= d_max and not _negligible(c)})


def reference_sum(a, b):
    """a + b of two elements: a's terms, then b's summed into them."""
    out = dict(a.terms)
    for key, c in b.terms.items():
        _accumulate(out, key, c)
    return _built(a.n, a.d_max, out)


def reference_delta_pair(a):
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


def reference_delta_inv_pair(a):
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


def reference_extended_D(a, geo):
    n2 = 2 * geo.n
    F, G, W = geo.frames("phi_pair")[0], geo.connection("phi_pair"), geo.anholonomy("phi_pair")
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


def reference_v_divide(a, tol=1e-12):
    floor = _max_abs(float(np.abs(c.coeffs).max()) for (r, _, _), c in a.terms.items() if r == 0)
    if not floor <= tol * max(1.0, a.max_abs()):
        raise StarquantError(f"v-division of an element with v^0 part of size {floor:.3g}")
    out = {}
    for (r, z, f), c in a.terms.items():
        if r > 0:
            out[(r - 1, z, f)] = c
    return _built(a.n, a.d_max, out)


def _zadd(za, zb):
    return tuple(x + y for x, y in zip(za, zb))


def reference_contraction_rows(matrix, za, zb, order):
    """Rows (t, z left uncontracted, weight jet) of contracting z^za with
    z^zb through the pairing matrix of jets truncated to `order`, by the
    breadth-first walk over t with one jet per state."""
    lam = np.empty_like(matrix)
    for idx, e in np.ndenumerate(matrix):
        lam[idx] = e.truncate(min(order, e.order))
    n2 = len(za)
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
                    piece = lam[al, be] * (w if t == 1 else 1.0)
                    if t > 1:
                        piece = w * piece
                    _accumulate(new, (_bump(sa, al, -1), _bump(sb, be, -1)),
                                piece * (sa[al] * sb[be]))
        states = new
        pref = (0.5j) ** t / math.factorial(t)
        for (sa, sb), w in states.items():
            rows.append((t, _zadd(sa, sb), w * pref))
    return rows


# rows already walked, per pairing and (za, zb, order)
_ROWS = weakref.WeakKeyDictionary()


def _rows_of(lam, za, zb, order):
    memo = _ROWS.setdefault(lam, {})
    key = (za, zb, min(order, lam.order))
    if key not in memo:
        memo[key] = reference_contraction_rows(lam.matrix, za, zb, key[2])
    return memo[key]


def reference_wick_product(a, b, lam, cap=None):
    """wick_product by the loop over pairs of terms: per pair one Jet
    product for the base, one per contraction row, and one Jet sum per
    piece, in visit order."""
    top = a.d_max if cap is None else min(cap, a.d_max)
    out = {}
    for (ra, za, fa), ca in a.terms.items():
        for (rb, zb, fb), cb in b.terms.items():
            if 2 * ra + sum(za) + 2 * rb + sum(zb) > top:
                continue
            merged = wedge_merge(fa, fb)
            if merged is None:
                continue
            sign, form = merged
            base = ca * cb * sign
            _accumulate(out, (ra + rb, _zadd(za, zb), form), base)
            for t, zt, w in _rows_of(lam, za, zb, base.order):
                _accumulate(out, (ra + rb + t, zt, form), base * w)
    return WickElement(a.n, a.d_max, {k: c for k, c in out.items() if not _negligible(c)})


def reference_wick_scalar_parts(a, b, lam, v_max):
    """wick_scalar_parts by the loop over the form-free pairs with
    |za| = |zb| that reach a scalar key at most 2 v_max."""
    top = min(2 * v_max, a.d_max)
    out = {}
    for (ra, za, fa), ca in a.terms.items():
        s = sum(za)
        if fa or 2 * (ra + s) > top:
            continue
        for (rb, zb, fb), cb in b.terms.items():
            if fb or sum(zb) != s or 2 * (ra + rb + s) > top:
                continue
            base = ca * cb * 1
            if s == 0:
                _accumulate(out, ra + rb, base)
                continue
            t, _, w = _rows_of(lam, za, zb, base.order)[-1]
            _accumulate(out, ra + rb + t, base * w)
    return {r: out[r] for r in sorted(out) if not _negligible(out[r])}


def _reference_chern_jets(state):
    n2 = 2 * state.n
    J = state.geometry.complex_structure_frame("phi_pair")
    R = state.geometry.curvature("phi_pair")
    gamma = np.empty((n2, n2), dtype=object)
    for a in range(n2):
        for b in range(n2):
            gamma[a, b] = jsum(
                [J[ap, t] * R[t, ap, a, b] for ap in range(n2) for t in range(n2)]
            ) * (-0.25)
    return gamma


def reference_chern_weyl(state):
    """chern_weyl by one jet per entry: gamma, kappa and c0 as complex
    component matrices."""
    n2 = 2 * state.n
    J = state.geometry.complex_structure_frame("phi_pair")
    T = state.geometry.torsion("phi_pair")
    W = state.geometry.anholonomy("phi_pair")
    F = state.geometry.frames("phi_pair")[0]
    gamma = _reference_chern_jets(state)
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


def reference_chern_weyl_closedness(state):
    """The components of the exterior derivative of the curvature trace,
    one jet per component, over a < b < c in lexicographic order; their
    largest modulus is chern_weyl_closedness."""
    n2 = 2 * state.n
    W = state.geometry.anholonomy("phi_pair")
    F = state.geometry.frames("phi_pair")[0]
    gamma = _reference_chern_jets(state)
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
    return np.array(components, dtype=np.complex128)
