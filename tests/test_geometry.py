"""Geometry tower tests: symbolic and finite-difference oracles plus the
structural identities that define the frames and connections."""

from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from starquant import fedosov as fd
from starquant import geometry as geo
from starquant.errors import DegenerateHessian, InsufficientJetOrder, StarquantError
from starquant.expr import parse
from starquant.jets import PhasePoint
from oracles import reference_compat_residual, reference_curvature


def pt(*vals):
    arr = np.asarray(vals, dtype=float)
    n = arr.size // 2
    return PhasePoint(arr[:n], arr[n:])


FLAT2 = parse("0.5*(p1^2 + p2^2)", 2)
OSC2 = parse("0.5*(p1^2 + p2^2 + x1^2 + x2^2)", 2)
CONF2 = parse("0.5 * exp(2*x1) * (p1^2 + p2^2)", 2)
EXP1 = parse("0.5 * exp(2*x1) * p1^2", 1)
QUARTIC2 = parse("0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2", 2)
PT2 = pt(0.3, -0.1, 0.7, 0.4)

FAMILIES2 = [FLAT2, OSC2, CONF2]


def sample_points(count, n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(-0.8, 0.8, n), rng.uniform(0.2, 1.0, n))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# symbolic oracle: the same tower built with sympy instead of jets


class SymbolicTower:
    """Cotangent tower for a sympy Hamiltonian, usable as an independent
    route for g, N, the horizontal connection block, torsion and
    curvature (curvature only for momentum-independent fiber metrics,
    where the vertical corrections drop out)."""

    def __init__(self, H, n):
        self.n = n
        self.xs = sp.symbols(f"x1:{n + 1}")
        self.ps = sp.symbols(f"p1:{n + 1}")
        self.H = H
        self.gu = sp.Matrix(n, n, lambda a, b: sp.diff(H, self.ps[a], self.ps[b]))
        self.gl = self.gu.inv()
        self.N = sp.Matrix(n, n, self._nc)
        self.L = [
            [
                [self._koszul(i, j, k) for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]

    def _pb(self, f, g):
        return sum(
            sp.diff(f, self.ps[k]) * sp.diff(g, self.xs[k])
            - sp.diff(f, self.xs[k]) * sp.diff(g, self.ps[k])
            for k in range(self.n)
        )

    def _nc(self, i, j):
        sym = sum(
            sp.diff(self.H, self.ps[k], self.xs[i]) * self.gl[j, k]
            + sp.diff(self.H, self.ps[k], self.xs[j]) * self.gl[i, k]
            for k in range(self.n)
        )
        return sp.Rational(1, 2) * (self._pb(self.gl[i, j], self.H) - sym)

    def horiz(self, i, f):
        return sp.diff(f, self.xs[i]) + sum(
            self.N[i, a] * sp.diff(f, self.ps[a]) for a in range(self.n)
        )

    def _koszul(self, i, j, k):
        # L[i][j][k]: output i, direction j, source k
        return sp.Rational(1, 2) * sum(
            self.gu[i, s]
            * (
                self.horiz(j, self.gl[s, k])
                + self.horiz(k, self.gl[j, s])
                - self.horiz(s, self.gl[j, k])
            )
            for s in range(self.n)
        )

    def omega(self, i, j, a):
        return self.horiz(i, self.N[j, a]) - self.horiz(j, self.N[i, a])

    def mixed_torsion(self, a, i, c):
        return self.L[c][i][a] - sp.diff(self.N[i, a], self.ps[c])

    def curvature_h(self, i, j, k, m):
        # valid when the fiber metric has no momentum dependence
        n = self.n
        out = self.horiz(k, self.L[i][m][j]) - self.horiz(m, self.L[i][k][j])
        for s in range(n):
            out += self.L[s][m][j] * self.L[i][k][s]
            out -= self.L[s][k][j] * self.L[i][m][s]
        return out

    def at(self, expr, point):
        subs = dict(zip(self.xs, point.x)) | dict(zip(self.ps, point.p))
        return complex(sp.N(sp.sympify(expr).subs(subs)))


x1s, x2s, p1s, p2s = sp.symbols("x1 x2 p1 p2")
CONF2_SYM = sp.Rational(1, 2) * sp.exp(2 * x1s) * (p1s**2 + p2s**2)


# ---------------------------------------------------------------------------
# fundamental tensor


def test_fundamental_tensor_exp_family():
    G = geo.GeometryAtPoint(EXP1, pt(0.3, 0.7), 2)
    assert G.g_upper[0, 0].value == pytest.approx(np.exp(0.6))
    assert G.g_lower[0, 0].value == pytest.approx(np.exp(-0.6))


def test_fundamental_tensor_cross_term_inverse():
    H = parse("0.5*(p1^2 + p1*p2 + p2^2)", 2)
    G = geo.GeometryAtPoint(H, pt(0.1, 0.2, 0.3, 0.4), 2)
    up = geo.real_values(G.g_upper)
    lo = geo.real_values(G.g_lower)
    assert np.allclose(up, [[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(lo, (4.0 / 3.0) * np.array([[1.0, -0.5], [-0.5, 1.0]]))


def test_degenerate_hessian_raises():
    H = parse("x1^2 + p1", 1)
    with pytest.raises(DegenerateHessian):
        geo.GeometryAtPoint(H, pt(0.5, 0.5), 2).g_lower


def test_fundamental_tensor_lagrange():
    L = parse("0.5 * exp(0 - 2*x1) * y1^2", 1, bundle="tangent")
    upper, lower = geo.fundamental_tensor_lagrange(L, pt(0.3, 0.7), order=2)
    assert lower[0, 0].value == pytest.approx(np.exp(-0.6))
    assert upper[0, 0].value == pytest.approx(np.exp(0.6))


# ---------------------------------------------------------------------------
# nonlinear connection


def test_nconnection_hand_value():
    # H = (1/2) e^{2x} p^2 gives N_11 = -p
    N = geo.GeometryAtPoint(EXP1, pt(0.3, 0.7), 3).nconnection
    assert N[0, 0].value == pytest.approx(-0.7)


def test_nconnection_symbolic_oracle():
    tower = SymbolicTower(CONF2_SYM, 2)
    for point in sample_points(3, 2, seed=1):
        N = geo.GeometryAtPoint(CONF2, point, 3).nconnection
        for i in range(2):
            for j in range(2):
                want = tower.at(tower.N[i, j], point)
                assert N[i, j].value == pytest.approx(want, abs=1e-12)


def test_nconnection_symmetric():
    for H in FAMILIES2:
        for point in sample_points(4, 2, seed=2):
            N = geo.real_values(geo.GeometryAtPoint(H, point, 3).nconnection)
            assert abs(N - N.T).max() <= 1e-10


def test_nconnection_flat_zero():
    N = geo.real_values(geo.GeometryAtPoint(FLAT2, pt(0.4, -0.2, 0.6, 0.3), 3).nconnection)
    assert abs(N).max() == 0.0


# ---------------------------------------------------------------------------
# frames and almost structures


def test_frame_identities_all_families():
    for H in FAMILIES2:
        for point in sample_points(3, 2, seed=3):
            G = geo.GeometryAtPoint(H, point, 4)
            res = geo.frame_identity_residuals(G)
            assert res["plain_frame_pairing"] <= 1e-12
            assert res["oblique_frame_pairing"] <= 1e-12
            assert res["plain_J_squared"] <= 1e-10
            assert res["oblique_J_squared"] <= 1e-10
            assert res["plain_theta_vs_gJ"] <= 1e-10
            assert res["oblique_theta_vs_gJ"] <= 1e-10
            th = geo.values(G.theta_frame("canonical_d"))
            assert abs(th + th.T).max() <= 1e-12


def test_frame_pairing_catches_a_wrong_coframe_entry():
    # F C^T = I holds only while the plain coframe is dual to the frame,
    # whichever block of the coframe is wrong
    G = geo.GeometryAtPoint(QUARTIC2, PT2, 4)
    basis = G._basis("canonical_d")
    assert geo.frame_identity_residuals(G)["plain_frame_pairing"] <= 1e-12
    for entry, bad in (((0, 0), 1e-3), ((2, 0), 0.5)):
        coframe = basis.coframe.copy()
        coframe[entry][0] += bad
        G._cache[("basis", "canonical_d")] = basis._replace(coframe=coframe)
        assert geo.frame_identity_residuals(G)["plain_frame_pairing"] == pytest.approx(bad)


def test_theta_frame_is_canonical_block():
    G = geo.GeometryAtPoint(CONF2, pt(0.3, -0.2, 0.7, 0.4), 3)
    want = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    for kind in ("canonical_d", "phi_pair"):
        assert abs(geo.values(G.theta_frame(kind)) - want).max() <= 1e-12


def test_adapted_frames_variants():
    G = geo.GeometryAtPoint(EXP1, pt(0.3, 0.7), 3)
    for kind in ("canonical_d", "phi_pair"):
        F, C = G.frames(kind)
        Fv, Cv = geo.real_values(F), geo.real_values(C)
        assert abs(Fv @ Cv.T - np.eye(2)).max() <= 1e-12


def test_almost_structures_coordinate_identities():
    for point in sample_points(2, 2, seed=4):
        G = geo.GeometryAtPoint(CONF2, point, 4)
        eye = np.eye(4)
        for kind in ("canonical_d", "phi_pair"):
            J = geo.real_values(
                G.operator_to_coord(G.complex_structure_frame(kind), kind))
            assert abs(J @ J + eye).max() <= 1e-10
        theta = geo.real_values(G.theta_coord)
        assert abs(theta + theta.T).max() <= 1e-12


def test_theta_lift_is_canonical_in_coordinates():
    # the assembled two-form must come out as dp_i ^ dx^i exactly
    for H in FAMILIES2:
        G = geo.GeometryAtPoint(H, pt(0.3, -0.2, 0.7, 0.4), 3)
        th = geo.real_values(G.theta_coord)
        want = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        assert abs(th - want).max() <= 1e-12


def test_dtheta_check_families():
    for H in FAMILIES2:
        assert geo.dtheta_check(H, pt(0.3, -0.2, 0.7, 0.4)) <= 1e-8


def test_dtheta_residual_matches_finite_differences():
    # the jet route the CLI reads against the 4n-build reference, on flat,
    # the quartic and exp-conformal (at n = 1 there is no index triple)
    for H in (FLAT2, QUARTIC2, CONF2):
        for point in sample_points(3, 2, seed=7) + [PT2]:
            jet = geo.dtheta_residual(geo.GeometryAtPoint(H, point, 5))
            fd = geo.dtheta_check(H, point)
            assert jet <= 1e-8 and fd <= 1e-8
            assert abs(jet - fd) <= 1e-8


def test_dtheta_residual_catches_a_form_that_is_not_closed():
    # x1 dx2 ^ dp1 at n = 2 has d = dx1 ^ dx2 ^ dp1, so one component is 1
    space, base, _ = pt(0.3, -0.1, 0.7, 0.4).jets(2)
    form = np.zeros((4, 4, space.size), dtype=np.complex128)
    form[1, 2], form[2, 1] = base[0].coeffs, -base[0].coeffs
    assert geo.dtheta_residual(SimpleNamespace(_theta_coord_stack=lambda: (space, form))) == 1.0


def test_metric_lift_against_hand_blocks():
    G = geo.GeometryAtPoint(EXP1, pt(0.3, 0.7), 3)
    _, C = G.frames("canonical_d")
    Cv = geo.real_values(C)
    lift = Cv.T @ geo.real_values(G.metric_frame("canonical_d")) @ Cv
    gl, gu, Nv = np.exp(-0.6), np.exp(0.6), -0.7
    want = np.array(
        [[gl + Nv * gu * Nv, -Nv * gu], [-gu * Nv, gu]]
    )
    assert abs(lift - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# anholonomy


def test_anholonomy_closed_form_all_families():
    for H in FAMILIES2:
        for point in sample_points(2, 2, seed=5):
            G = geo.GeometryAtPoint(H, point, 4)
            assert geo.anholonomy_closed_form_residual(G) <= 1e-8


def test_anholonomy_omega_symbolic():
    tower = SymbolicTower(CONF2_SYM, 2)
    point = pt(0.25, -0.4, 0.6, 0.9)
    G = geo.GeometryAtPoint(CONF2, point, 4)
    W = geo.values(G.anholonomy("canonical_d"))
    for i in range(2):
        for j in range(2):
            for a in range(2):
                want = tower.at(tower.omega(i, j, a), point)
                assert W[2 + a, i, j] == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# connections: compatibility, torsion, curvature


def test_canonical_coefficient_hand_value():
    # Lhat^1_11 = -1 for the 1d exponential family, at any point
    Gam = geo.GeometryAtPoint(EXP1, pt(0.3, 0.7), 4).connection("canonical_d")
    assert Gam[0, 0, 0].value == pytest.approx(-1.0)
    assert abs(Gam[0, 1, 0].value) <= 1e-12


def test_canonical_coefficients_symbolic():
    tower = SymbolicTower(CONF2_SYM, 2)
    point = pt(0.3, -0.2, 0.7, 0.4)
    Gam = geo.GeometryAtPoint(CONF2, point, 4).connection("canonical_d")
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want = tower.at(tower.L[i][k][j], point)
                assert Gam[i, k, j].value == pytest.approx(want, abs=1e-10)


def test_vertical_coefficient_momentum_dependent():
    # H = p^2/2 + p^4/12 has g^{11} = 1 + p^2, so
    # Chat_1^{11} = -(1/2) g_{11} d(g^{11})/dp = -p/(1+p^2)
    H = parse("0.5*p1^2 + p1^4/12", 1)
    point = pt(0.2, 0.6)
    Gam = geo.GeometryAtPoint(H, point, 4).connection("canonical_d")
    assert Gam[0, 1, 0].value == pytest.approx(-0.6 / (1 + 0.36))


def test_metric_compatibility_both_connections():
    for H in FAMILIES2:
        for point in sample_points(2, 2, seed=6):
            G = geo.GeometryAtPoint(H, point, 5)
            assert geo.metric_compat_residual(G, "canonical_d") <= 1e-8
            assert geo.metric_compat_residual(G, "phi_pair") <= 1e-8
            assert geo.theta_compat_residual(G, "phi_pair") <= 1e-8


def test_torsion_blocks_canonical():
    point = pt(0.3, -0.2, 0.7, 0.4)
    ct = geo.GeometryAtPoint(CONF2, point, 4).curvature_torsion("canonical_d")
    assert abs(ct.T_hij).max() <= 1e-10
    assert abs(ct.S_abc).max() <= 1e-10


def test_phi_connection_torsion_free():
    point = pt(0.3, -0.2, 0.7, 0.4)
    G = geo.GeometryAtPoint(CONF2, point, 5)
    ct = G.curvature_torsion("phi_pair")
    assert abs(ct.T_hij).max() <= 1e-10
    assert abs(ct.S_abc).max() <= 1e-10
    assert G.curvature_torsion("phi_pair") is ct  # memoised


def test_mixed_torsion_symbolic():
    tower = SymbolicTower(CONF2_SYM, 2)
    point = pt(0.15, 0.45, 0.8, 0.35)
    ct = geo.GeometryAtPoint(CONF2, point, 4).curvature_torsion("canonical_d")
    for a in range(2):
        for i in range(2):
            for c in range(2):
                want = tower.at(tower.mixed_torsion(a, i, c), point)
                assert ct.P_aic[a, i, c] == pytest.approx(want, abs=1e-10)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                want = tower.at(tower.omega(i, j, a), point)
                assert ct.Omega[i, j, a] == pytest.approx(want, abs=1e-10)


def test_curvature_symbolic():
    tower = SymbolicTower(CONF2_SYM, 2)
    point = pt(0.3, -0.2, 0.7, 0.4)
    ct = geo.GeometryAtPoint(CONF2, point, 4).curvature_torsion("canonical_d")
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    want = tower.at(tower.curvature_h(i, j, k, m), point)
                    assert ct.R_ijkm[i, j, k, m] == pytest.approx(want, abs=1e-9)


def test_curvature_antisymmetry_last_pair():
    point = pt(0.3, -0.2, 0.7, 0.4)
    ct = geo.GeometryAtPoint(CONF2, point, 5).curvature_torsion("phi_pair")
    R = ct.R_ijkm
    assert abs(R + R.transpose(0, 1, 3, 2)).max() <= 1e-12


def test_curvature_finite_difference_route():
    # rebuild e_alpha(Gamma) by displacing the point and re-deriving the
    # coefficients, then reassemble the oblique curvature independently
    point = pt(0.3, -0.2, 0.7, 0.4)
    n, n2 = 2, 4
    G = geo.GeometryAtPoint(CONF2, point, 5)
    R_jet = geo.values(G.curvature("phi_pair"))
    Gv = geo.values(G.connection("phi_pair"))
    W = geo.values(G.anholonomy("phi_pair"))
    Fv = geo.values(G.frames("phi_pair")[0])

    def gamma_at(arr):
        gp = geo.GeometryAtPoint(CONF2, PhasePoint.from_array(arr), 4)
        return geo.values(gp.connection("phi_pair"))

    h = 1e-5
    base = point.as_array()
    dG = np.empty((n2, n2, n2, n2), dtype=np.complex128)
    for A in range(n2):
        plus, minus = base.copy(), base.copy()
        plus[A] += h
        minus[A] -= h
        dG[A] = (gamma_at(plus) - gamma_at(minus)) / (2 * h)
    worst = 0.0
    for g_ in range(n2):
        for ph in range(n2):
            for a in range(n2):
                for b in range(n2):
                    val = sum(Fv[a, A] * dG[A][g_, b, ph] for A in range(n2))
                    val -= sum(Fv[b, A] * dG[A][g_, a, ph] for A in range(n2))
                    for d in range(n2):
                        val += Gv[d, b, ph] * Gv[g_, a, d]
                        val -= Gv[d, a, ph] * Gv[g_, b, d]
                        val -= W[d, a, b] * Gv[g_, d, ph]
                    worst = max(worst, abs(val - R_jet[g_, ph, a, b]))
    assert worst <= 1e-6


def test_flat_tower_vanishes():
    # constant-coefficient quadratic generators kill the whole tower
    H = parse("0.5*(p1^2 + p1*p2 + p2^2) + 0.3*x1*x2 + x1 + 2", 2)
    point = pt(0.4, -0.6, 0.8, 0.3)
    G = geo.GeometryAtPoint(H, point, 5)
    assert abs(geo.real_values(G.nconnection)).max() <= 1e-12
    for kind in ("canonical_d", "phi_pair"):
        Gam = geo.values(G.connection(kind))
        assert abs(Gam[:2, :2, :2]).max() <= 1e-12  # hL
        assert abs(Gam[:2, 2:, :2]).max() <= 1e-12  # vC
        ct = G.curvature_torsion(kind)
        for block in (ct.Omega, ct.T_hij, ct.S_abc, ct.P_aic,
                      ct.R_ijkm, ct.P_ijkc, ct.S_ijbc):
            assert abs(block).max() <= 1e-12


# ---------------------------------------------------------------------------
# Ricci, scalar, field-equation residual


def test_ricci_flat_zero():
    G = geo.GeometryAtPoint(FLAT2, pt(0.3, 1.1, 0.6, -0.4), 5)
    ric, scalar = geo.values(G.ricci_phi), G.scalar_phi.value.real
    assert abs(ric).max() <= 1e-12
    assert abs(scalar) <= 1e-12


def test_einstein_flat_lambda():
    G = geo.GeometryAtPoint(FLAT2, pt(0.3, 1.1, 0.6, -0.4), 5)
    assert abs(G.einstein_residual(0.0)).max() <= 1e-12
    Cv = geo.real_values(G.frames("phi_pair")[1])
    res = G.einstein_residual(1.0)
    assert abs(res + 0.5 * Cv).max() <= 1e-12


def test_einstein_recombination():
    G = geo.GeometryAtPoint(CONF2, pt(0.3, -0.2, 0.7, 0.4), 5)
    ric, scalar = geo.values(G.ricci_phi), G.scalar_phi.value.real
    ginv = geo.values(G.metric_frame_inverse("phi_pair"))
    Cv = geo.values(G.frames("phi_pair")[1])
    lam = 0.7
    want = (ginv @ ric @ Cv - 0.5 * (scalar + lam) * Cv).real
    got = G.einstein_residual(lam)
    assert abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# Nijenhuis


def test_nijenhuis_flat_zero():
    nij = geo.GeometryAtPoint(FLAT2, pt(0.5, -0.1, 0.9, 0.2), 4).nijenhuis
    assert abs(nij).max() <= 1e-12


def test_nijenhuis_overlap_with_omega():
    # for H = |p|^2/2 + x2^2 p1 the fiber metric is the identity and the
    # vertical part of the Nijenhuis tensor on horizontal pairs reduces
    # to minus the nonlinear-connection curvature
    H = parse("0.5*(p1^2 + p2^2) + x2^2 * p1", 2)
    point = pt(0.4, 0.9, 0.2, -0.5)
    G = geo.GeometryAtPoint(H, point, 4)
    nij = G.nijenhuis
    basis = G._basis("phi_pair")
    Om = geo._omega(G.nconnection, (basis.space, basis.frame))[1][..., 0]
    for i in range(2):
        for j in range(2):
            for a in range(2):
                assert nij[2 + a, i, j] == pytest.approx(-Om[i, j, a], abs=1e-10)


# ---------------------------------------------------------------------------
# vielbein lifts and the tangent-side operations


def test_vielbein_identity():
    one, zero = parse("1", 2), parse("0", 2)
    ident = [[one, zero], [zero, one]]
    upper, _ = geo.vielbein_lift(ident, ident, pt(0.5, -0.3, 0.8, 0.2), order=2)
    assert abs(geo.real_values(upper) - np.eye(2)).max() <= 1e-14


def test_vielbein_base_metric():
    one, zero = parse("1", 2), parse("0", 2)
    gb = [[one, zero], [zero, parse("x1^2 + 1", 2)]]
    ident = [[one, zero], [zero, one]]
    upper, lower = geo.vielbein_lift(gb, ident, pt(0.5, -0.3, 0.8, 0.2), order=2)
    assert upper[1, 1].value == pytest.approx(1 / 1.25)
    assert lower[1, 1].value == pytest.approx(1.25)


def test_vielbein_momentum_dependent():
    one, zero = parse("1", 2), parse("0", 2)
    ident = [[one, zero], [zero, one]]
    viel = [[parse("1 + 0.1*p1", 2), zero], [zero, one]]
    upper, _ = geo.vielbein_lift(ident, viel, pt(0.5, -0.3, 0.8, 0.2), order=2)
    assert upper[0, 0].value == pytest.approx(1.08**2)


def test_induced_hamiltonian_matches_lift():
    # with a momentum-independent vielbein the momentum Hessian of the
    # induced quadratic generator recovers the lifted metric
    one, zero = parse("1", 2), parse("0", 2)
    gb = [[one, zero], [zero, parse("x1^2 + 1", 2)]]
    ident = [[one, zero], [zero, one]]
    point = pt(0.5, -0.3, 0.8, 0.2)
    lift, _ = geo.vielbein_lift(gb, ident, point, order=2)
    H = geo.induced_hamiltonian(gb, ident)
    G = geo.GeometryAtPoint(H, point, 2)
    assert abs(geo.values(G.g_upper) - geo.values(lift)).max() <= 1e-12


def test_semi_spray_hand_value():
    # L = (1/2) e^{-2x} y^2: the geodesic equation gives ydot = y^2,
    # hence G = -y^2/2
    L = parse("0.5 * exp(0 - 2*x1) * y1^2", 1, bundle="tangent")
    sp_ = geo.semi_spray(L, pt(0.3, 0.7), order=2)
    assert sp_[0].value == pytest.approx(-0.245)
    N = geo.nconnection_tangent(L, pt(0.3, 0.7), order=3)
    assert N[0, 0].value == pytest.approx(-0.7)


def test_semi_spray_oscillator():
    L = parse("0.5*(y1^2 - x1^2)", 1, bundle="tangent")
    sp_ = geo.semi_spray(L, pt(0.4, 0.9), order=2)
    assert sp_[0].value == pytest.approx(0.2)
    N = geo.nconnection_tangent(L, pt(0.4, 0.9), order=3)
    assert abs(N[0, 0].value) <= 1e-12


# ---------------------------------------------------------------------------
# Poisson bracket and error paths


def test_poisson_bracket_sign():
    point = pt(0.3, 0.7)
    br = geo.poisson_bracket(parse("x1", 1), parse("p1", 1), point, order=1)
    assert br.value == pytest.approx(-1.0)
    # {H, x} is the x-velocity along the flow
    br2 = geo.poisson_bracket(EXP1, parse("x1", 1), point, order=1)
    assert br2.value == pytest.approx(np.exp(0.6) * 0.7)


def test_insufficient_order_gates():
    point = pt(0.3, 0.7)
    G = geo.GeometryAtPoint(EXP1, point, 2)
    with pytest.raises(InsufficientJetOrder):
        G.nconnection
    G4 = geo.GeometryAtPoint(EXP1, point, 4)
    with pytest.raises(InsufficientJetOrder):
        G4.curvature("phi_pair")
    with pytest.raises(InsufficientJetOrder):
        geo.GeometryAtPoint(EXP1, point, 3).torsion("canonical_d")
    # at seed order 3 the frames have order 0, and these read first derivatives
    for residual in (lambda G: geo.metric_compat_residual(G, "canonical_d"),
                     lambda G: geo.theta_compat_residual(G, "canonical_d"),
                     geo.dtheta_residual):
        with pytest.raises(InsufficientJetOrder, match="need jet order >= 1, have 0"):
            residual(geo.GeometryAtPoint(EXP1, point, 3))


# ---------------------------------------------------------------------------
# the curvature and torsion blocks of the per-point owner


def test_canonical_torsion_guard_raises():
    G = geo.GeometryAtPoint(CONF2, pt(0.3, -0.2, 0.7, 0.4), 5)
    W, R, intact = (geo.values(x("canonical_d")) for x in (G.anholonomy, G.curvature,
                                                          G.torsion))
    omega = geo.values(G.omega)
    geo._curvature_torsion_blocks("canonical_d", omega, intact, R, W)
    for bad in (1e-6, float("nan")):
        T = intact.copy()
        T[0, 0, 1] = T[0, 0, 1] + bad
        with pytest.raises(StarquantError, match="torsion"):
            geo._curvature_torsion_blocks("canonical_d", omega, T, R, W)
    # the oblique connection carries no such theorem, so no guard
    T = geo.values(G.torsion("phi_pair"))
    T[0, 0, 1] = T[0, 0, 1] + 1e-6
    geo._curvature_torsion_blocks("phi_pair", omega, T, geo.values(G.curvature("phi_pair")),
                                  geo.values(G.anholonomy("phi_pair")))


# ---------------------------------------------------------------------------
# the contractions on coefficient stacks against the per-entry jet loops

ROUGH1 = parse("sqrt(1 + x1^2) * p1^2 + log(2 + cos(x1)) * p1^2.5", 1)


@pytest.mark.parametrize("order", [5, 7])
@pytest.mark.parametrize("H,point", [(QUARTIC2, PT2), (CONF2, PT2), (ROUGH1, pt(0.3, 0.7))],
                         ids=["quartic", "exp-conformal", "rough-n1"])
def test_contractions_match_the_per_entry_references(H, point, order):
    G = geo.GeometryAtPoint(H, point, order)
    for kind in ("canonical_d", "phi_pair"):
        F = G.frames(kind)[0]
        gamma = G.connection(kind)
        want = reference_curvature(gamma, G.anholonomy(kind), F)
        got = G.curvature(kind)
        for idx in np.ndindex(want.shape):
            assert got[idx].space is want[idx].space, (kind, idx)
            assert got[idx].coeffs.tobytes() == want[idx].coeffs.tobytes(), (kind, idx)
        assert geo.metric_compat_residual(G, kind) == reference_compat_residual(
            gamma, F, G.metric_frame(kind))
        assert geo.theta_compat_residual(G, kind) == reference_compat_residual(
            gamma, F, G.theta_frame(kind))


def test_residual_maxima_keep_nan():
    assert np.isnan(geo._max_abs(np.array([1.0, float("nan")])))
    assert geo._max_abs(np.array([1.0, -2.0 + 0.5j])) == abs(-2.0 + 0.5j)
    # one NaN coefficient in the cached connection stack reaches the residual
    G = geo.GeometryAtPoint(QUARTIC2, PT2, 5)
    assert np.isfinite(geo.metric_compat_residual(G, "canonical_d"))
    space, gamma = G._connection_stack("canonical_d")
    gamma = gamma.copy()
    gamma[0, 0, 0, 0] = float("nan")
    G._cache[("connection_stack", "canonical_d")] = space, gamma
    assert np.isnan(geo.metric_compat_residual(G, "canonical_d"))
    # the folds over iterables: a NaN anywhere wins, finite values keep their bits
    assert np.isnan(geo._max_abs([0.5, float("nan"), 2.0]))
    assert geo._max_abs(x for x in (-3.0, 1.0)) == 3.0
    assert geo._max_abs([]) == 0.0
    # a NaN in S_abc alone still stops the canonical torsion blocks
    G = geo.GeometryAtPoint(QUARTIC2, PT2, 5)
    T = geo.values(G.torsion("canonical_d"))
    n = PT2.n
    T[n, n, n] = float("nan")
    with pytest.raises(StarquantError, match="torsion blocks"):
        geo._curvature_torsion_blocks("canonical_d", geo.values(G.omega), T,
                                      geo.values(G.curvature("canonical_d")),
                                      geo.values(G.anholonomy("canonical_d")))
    # one NaN coefficient of the curvature stack reaches the closedness
    # residual of the curvature trace; the stack is poked on a fresh state,
    # before the trace is first built from it, so its memo cannot hide it
    state = fd.build_state(QUARTIC2, PT2, d_max=4)
    assert np.isfinite(fd.chern_weyl_closedness(state))
    state = fd.build_state(QUARTIC2, PT2, d_max=4)
    space, R = state.geometry._curvature_stack("phi_pair")
    R = R.copy()
    R[0, 1, 0, 1, 0] = float("nan")
    state.geometry._cache[("curvature_stack", "phi_pair")] = space, R
    assert np.isnan(fd.chern_weyl_closedness(state))
