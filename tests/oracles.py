"""Independent numerical oracles shared by the test modules.

The finite-difference oracles deliberately avoid the package's jet
machinery so that agreement between the two routes means something.
`reference_jet` uses the jets but not the expression compiler: it is the
plain walk the compiler must reproduce bit for bit.  `reference_curvature`
and `reference_compat_residual` are the per-entry jet loops that the
geometry's coefficient-tensor contractions must reproduce bit for bit.
"""

import numpy as np

from starquant.expr import Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var
from starquant.geometry import frame_deriv, jsum
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
