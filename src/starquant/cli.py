"""Command line front end.

JSON-configured batch runs over lists of phase-space points: geometry
inspection, flow integration, star-product evaluation, and the full
check battery.  Reports are deterministic: the same config produces
byte-identical output (timing is omitted unless requested in the
config), every complex number is serialized as an [re, im] pair, and
per-point results are assembled in point-index order regardless of the
worker pool.

Exit codes: 0 all checks pass, 1 at least one check failed, 2
configuration or expression-parse error, 3 mathematical failure
(degenerate Hessian, Newton divergence, insufficient jet order).
"""

import argparse
import io
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import ParseError, StarquantError, UnknownVariable
from .expr import jet_function, parse
from .fedosov import (
    build_state,
    chern_weyl,
    chern_weyl_closedness,
    tau_lift,
    wick_scalar_parts,
)
from .geometry import (
    GeometryAtPoint,
    anholonomy_closed_form_residual,
    bracket_jets,
    dtheta_residual,
    frame_identity_residuals,
    induced_hamiltonian,
    metric_compat_residual,
    theta_compat_residual,
    values,
)
from .jets import PhasePoint
from .mechanics import (
    hamilton_flow,
    lagrange_flow,
    legendre_to_hamiltonian,
    legendre_to_lagrangian,
)

SCHEMA_VERSION = 1

_RUN_COMMANDS = ("inspect", "flow", "star", "check")

_CONFIG_KEYS = {
    "schema_version",
    "n",
    "bundle_tag",
    "generator",
    "points",
    "jet_order",
    "D_max",
    "v_max",
    "flow",
    "lambda",
    "workers",
    "timing",
    "output",
    "star",
}

_FAMILIES = ("flat", "oscillator", "exp-conformal", "vielbein-lift")

# fixed observables used by the quantization probes of `check`; they
# only involve x1 and p1 so the same sources work for every n
_PROBE_F = "x1*p1"
_PROBE_G = "x1^2 + p1"

TOL = {
    "frame_identity": 1e-10,
    "anholonomy": 1e-8,
    "dtheta": 1e-8,
    "compat": 1e-8,
    "canonical_torsion": 1e-10,
    "energy_drift": 1e-8,  # per unit time
    "flow_duality": 1e-5,
    "recursion": 1e-8,
    "tau_flat": 1e-8,
    "star_c0": 1e-10,
    "star_c1": 1e-9,
    "associativity": 1e-7,
    "trace_closed": 1e-7,
}

# the most work one config may ask for; 17 = 2 * 8 + 1 is the order that
# star with h resolves to at D_max 8
CAPS = {"n": 4, "D_max": 8, "v_max": 8, "jet_order": 17,
        "flow_steps": 10 ** 6, "points": 10 ** 4}


class ConfigError(Exception):
    """Malformed or inconsistent job configuration."""


# ---------------------------------------------------------------------------
# configuration


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _as_number(value, name):
    # the bound rejects NaN, the infinities and integers beyond float range
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max, f"{name} must be a finite number",
    )
    return float(value)


def _capped(value, key, what=None):
    _require(value <= CAPS[key], f"{what or key} must be at most {CAPS[key]}")


def _parse_point_flag(text, n):
    """Parse 'x=0.3,-0.1 p=0.7,0.4' into a point spec dict."""
    parts = {}
    for token in text.replace(";", " ").split():
        key, eq, rest = token.partition("=")
        _require(eq == "=" and key in ("x", "p"), f"bad point token {token!r}")
        try:
            parts[key] = [float(v) for v in rest.split(",")]
        except ValueError:
            raise ConfigError(f"bad point values in {token!r}") from None
    _require(set(parts) == {"x", "p"}, "--point needs both x=... and p=...")
    for key in ("x", "p"):
        _require(len(parts[key]) == n, f"--point {key} needs {n} values")
    return {"x": parts["x"], "p": parts["p"]}


def effective_config(raw, command, args):
    """Merge defaults, flag overrides, and validation into one dict."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    schema = raw.get("schema_version", SCHEMA_VERSION)
    _require(schema == SCHEMA_VERSION, f"unsupported schema_version {schema!r}")

    n = raw.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "n must be an integer >= 1")
    _capped(n, "n")
    bundle = raw.get("bundle_tag", "cotangent")
    _require(bundle in ("cotangent", "tangent"),
             "bundle_tag must be 'cotangent' or 'tangent'")
    # the geometric tower, the Wick recursion, and the check battery all
    # live on the cotangent side; the tangent tag only selects the
    # Lagrangian integrator
    _require(bundle == "cotangent" or command == "flow",
             f"bundle_tag 'tangent' is only valid for flow, not {command}")
    _require("generator" in raw, "config needs a generator")

    jet_order = raw.get("jet_order", "auto")
    if jet_order != "auto":
        _require(isinstance(jet_order, int) and not isinstance(jet_order, bool)
                 and jet_order >= 2, "jet_order must be 'auto' or an integer >= 2")
        _capped(jet_order, "jet_order")

    d_max = args.dmax if getattr(args, "dmax", None) is not None else raw.get("D_max", 4)
    _require(isinstance(d_max, int) and not isinstance(d_max, bool) and d_max >= 1,
             "D_max must be an integer >= 1")
    _capped(d_max, "D_max")
    _require(d_max >= 2 or command not in ("star", "check"),
             "star and check need D_max >= 2")
    v_max = args.vmax if getattr(args, "vmax", None) is not None else raw.get("v_max", 3)
    _require(isinstance(v_max, int) and not isinstance(v_max, bool) and v_max >= 0,
             "v_max must be an integer >= 0")
    _capped(v_max, "v_max")

    flow_raw = raw.get("flow", {})
    _require(isinstance(flow_raw, dict), "flow must be an object")
    _require(not set(flow_raw) - {"t_end", "dt"},
             f"unknown flow keys: {sorted(set(flow_raw) - {'t_end', 'dt'})}")
    t_end = _as_number(flow_raw.get("t_end", 5.0), "flow.t_end")
    dt = _as_number(flow_raw.get("dt", 1e-3), "flow.dt")
    _require(t_end > 0 and 0 < dt <= t_end, "flow needs 0 < dt <= t_end")
    # RK4 takes ceil(t_end / dt) steps, the last one landing on t_end
    _capped(t_end / dt, "flow_steps", "flow.t_end / flow.dt")

    lam = _as_number(raw.get("lambda", 0.0), "lambda")
    workers = raw.get("workers", 1)
    _require(isinstance(workers, int) and not isinstance(workers, bool)
             and workers >= 1, "workers must be an integer >= 1")
    timing = raw.get("timing", False)
    _require(isinstance(timing, bool), "timing must be a boolean")

    if getattr(args, "point", None) is not None:
        points = [_parse_point_flag(args.point, n)]
    else:
        _require("points" in raw, "config needs points (or pass --point)")
        points = raw["points"]

    star = dict(raw.get("star", {}))
    _require(not set(star) - {"f", "g", "h"},
             f"unknown star keys: {sorted(set(star) - {'f', 'g', 'h'})}")
    for name in ("f", "g", "h"):
        value = getattr(args, name, None)
        if value is not None:
            star[name] = value
    if command == "star":
        _require("f" in star and "g" in star,
                 "star needs observables f and g (positional or config)")

    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "n": n,
        "bundle_tag": bundle,
        "generator": raw["generator"],
        "points": points,
        "jet_order": jet_order,
        "D_max": d_max,
        "v_max": v_max,
        "flow": {"t_end": t_end, "dt": dt},
        "lambda": lam,
        "workers": workers,
        "timing": timing,
        "output": args.out if getattr(args, "out", None) is not None else raw.get("output"),
        "format": getattr(args, "format", "json"),
        "star": star,
    }


def _jet_order(cfg):
    """Resolve the 'auto' jet order for the command at hand.

    Quantization consumes 3 + D_max derivatives (curvature depth plus
    the recursion's polynomial degree), and at n >= 2 at least 6, since
    the closedness of the curvature trace differentiates the curvature
    once more (at n = 1 that check has no index triple).  Inspection
    needs the full curvature tower (order 5), and flows only
    differentiate the generator twice per step.
    """
    jo = cfg["jet_order"]
    if jo != "auto":
        if cfg["command"] == "inspect" and jo < 5:
            raise ConfigError("inspect needs jet_order >= 5 for the curvature tower")
        return jo
    if cfg["command"] in ("star", "check"):
        order = 3 + cfg["D_max"]
        return max(order, 6) if cfg["n"] >= 2 else order
    if cfg["command"] == "inspect":
        return 5
    return 3


# ---------------------------------------------------------------------------
# generator families


def _family_source(name, params, n, bundle):
    """DSL text of a builtin generator on the requested bundle.

    Every closed-form family is written out on both bundles so flow
    runs can cross-check the Hamiltonian and Lagrangian integrators
    without a numeric Legendre inversion at each sample.
    """
    fiber = "p" if bundle == "cotangent" else "y"
    squares = " + ".join(f"{fiber}{k + 1}^2" for k in range(n))
    if name == "flat":
        _require(not params, "flat takes no parameters")
        return f"0.5*({squares})"
    if name == "oscillator":
        _require(not set(params) - {"omega"},
                 f"unknown oscillator parameters: {sorted(set(params) - {'omega'})}")
        omega = _as_number(params.get("omega", 1.0), "omega")
        _require(omega > 0, "omega must be positive")
        xsquares = " + ".join(f"x{k + 1}^2" for k in range(n))
        sign = "+" if bundle == "cotangent" else "-"
        return f"0.5*({squares} {sign} {omega ** 2!r}*({xsquares}))"
    if name == "exp-conformal":
        _require(not params, "exp-conformal takes no parameters")
        scale = "2" if bundle == "cotangent" else "-2"
        return f"0.5 * exp({scale}*x1) * ({squares})"
    raise ConfigError(f"unknown generator family {name!r}")


def _parse_matrix(entries, n, what):
    _require(
        isinstance(entries, list) and len(entries) == n
        and all(isinstance(row, list) and len(row) == n for row in entries)
        and all(isinstance(e, str) for row in entries for e in row),
        f"{what} must be an {n} x {n} matrix of DSL strings",
    )
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = entries[i][j]
    return out


def resolve_generator(cfg):
    """(generator, dual generator or None, echo metadata).

    Generators come back as compiled jet functions, so every geometry
    build and Legendre push of a run reuses one compiled AST.  The dual
    is the same family written on the opposite bundle; it is only
    produced for the closed-form families, and it is what the flow
    equivalence check integrates against.
    """
    spec = cfg["generator"]
    n, bundle = cfg["n"], cfg["bundle_tag"]
    if isinstance(spec, str):
        spec = {"dsl": spec}
    _require(isinstance(spec, dict), "generator must be a string or an object")
    if "dsl" in spec:
        _require(not set(spec) - {"dsl"}, "generator cannot mix dsl and family")
        _require(isinstance(spec["dsl"], str), "generator dsl must be a string")
        return jet_function(parse(spec["dsl"], n, bundle)), None, {"dsl": spec["dsl"]}
    name = spec.get("family")
    _require(name in _FAMILIES,
             f"generator family must be one of {', '.join(_FAMILIES)}")
    _require(not set(spec) - {"family", "params"},
             "generator object takes only 'family' and 'params'")
    params = spec.get("params", {})
    _require(isinstance(params, dict), "generator params must be an object")
    if name == "vielbein-lift":
        _require(bundle == "cotangent", "vielbein-lift is a Hamiltonian family")
        _require(not set(params) - {"g_base", "vielbein"},
                 "vielbein-lift takes 'g_base' and 'vielbein'")
        g_base = _parse_matrix(params.get("g_base"), n, "g_base")
        viel = _parse_matrix(params.get("vielbein"), n, "vielbein")
        gm = np.empty((n, n), dtype=object)
        vm = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                gm[i, j] = parse(g_base[i, j], n)
                vm[i, j] = parse(viel[i, j], n)
        return induced_hamiltonian(gm, vm), None, {"family": name, "params": params}
    src = _family_source(name, params, n, bundle)
    other = "tangent" if bundle == "cotangent" else "cotangent"
    dual = jet_function(parse(_family_source(name, params, n, other), n, other))
    return jet_function(parse(src, n, bundle)), dual, {
        "family": name, "params": params, "dsl": src}


def resolve_points(cfg):
    """Expand the points spec into a list of (x, p) value pairs."""
    spec = cfg["points"]
    n = cfg["n"]
    if isinstance(spec, dict):
        grid = spec.get("grid")
        _require(isinstance(grid, dict) and not set(spec) - {"grid"},
                 "points must be a list of {x, p} objects or {'grid': {...}}")
        _require(not set(grid) - {"x", "p"}, "grid takes axes 'x' and 'p'")
        axes = []
        for key in ("x", "p"):
            ax = grid.get(key)
            _require(isinstance(ax, list) and len(ax) == n,
                     f"grid.{key} needs one axis per coordinate ({n})")
            for a in ax:
                _require(isinstance(a, list) and a, f"grid.{key} axes must be nonempty lists")
                axes.append([_as_number(v, f"grid.{key}") for v in a])
        _capped(math.prod(map(len, axes)), "points", "the number of grid points")
        # x axes vary slowest; within a point the full Cartesian product
        # is taken in axis order, which fixes the point indexing
        return [
            (list(combo[:n]), list(combo[n:]))
            for combo in itertools.product(*axes)
        ]
    _require(isinstance(spec, list) and spec, "points must be a nonempty list")
    _capped(len(spec), "points", "the number of points")
    out = []
    for entry in spec:
        _require(isinstance(entry, dict) and set(entry) == {"x", "p"},
                 "each point needs exactly the keys x and p")
        for key in ("x", "p"):
            _require(isinstance(entry[key], list) and len(entry[key]) == n,
                     f"point {key} needs {n} values")
        out.append((
            [_as_number(v, "point.x") for v in entry["x"]],
            [_as_number(v, "point.p") for v in entry["p"]],
        ))
    return out


# ---------------------------------------------------------------------------
# serialization


def jsonable(obj):
    """Recursively convert report data to JSON types; complex -> [re, im].
    A NaN or an infinity raises StarquantError."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise StarquantError(f"non-finite number {obj} in the results")
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _check(name, residual, tol, point=None):
    residual = float(residual)
    return {
        "name": name,
        "point": point,
        "residual": residual,
        "tolerance": float(tol),
        "pass": bool(residual <= tol),
    }


# ---------------------------------------------------------------------------
# per-point work


_CONNECTIONS = (("canonical_d", "canonical"), ("phi_pair", "phi"))


def _geometry_checks(geo):
    """The identity battery of one point's geometry, shared by inspect
    and check; every tensor, dtheta included, is read from the jets of
    `geo`, so no geometry is built at a neighbouring point."""
    checks = []
    fid = frame_identity_residuals(geo)
    for key in sorted(fid):
        checks.append(_check(f"frame_{key}", fid[key], TOL["frame_identity"]))
    checks.append(_check("anholonomy_closed_form",
                         anholonomy_closed_form_residual(geo), TOL["anholonomy"]))
    checks.append(_check("dtheta", dtheta_residual(geo), TOL["dtheta"]))
    for kind, label in _CONNECTIONS:
        checks.append(_check(f"metric_compat_{label}",
                             metric_compat_residual(geo, kind), TOL["compat"]))
        checks.append(_check(f"theta_compat_{label}",
                             theta_compat_residual(geo, kind), TOL["compat"]))
    tc = geo.curvature_torsion("canonical_d")
    worst = max(abs(tc.T_hij).max(), abs(tc.S_abc).max())
    checks.append(_check("canonical_torsion_blocks", worst, TOL["canonical_torsion"]))
    return checks


def _inspect_point(cfg, gen, pt):
    geo = GeometryAtPoint(gen, pt, _jet_order(cfg))
    checks = _geometry_checks(geo)
    blocks = {}
    for kind, label in _CONNECTIONS:
        tc = geo.curvature_torsion(kind)
        blocks[label] = {
            "omega": tc.Omega,
            "torsion": {"T_hij": tc.T_hij, "S_abc": tc.S_abc, "P_aic": tc.P_aic},
            "curvature": {"R_ijkm": tc.R_ijkm, "P_ijkc": tc.P_ijkc, "S_ijbc": tc.S_ijbc},
        }
    block = {
        "index": None,
        "x": list(pt.x),
        "p": list(pt.p),
        "hamiltonian": geo.H.value,
        "g_upper": values(geo.g_upper),
        "g_lower": values(geo.g_lower),
        "nconnection": values(geo.nconnection),
        "connections": blocks,
        "ricci": values(geo.ricci_phi),
        "scalar": geo.scalar_phi.value.real,
        "einstein_residual": geo.einstein_residual(cfg["lambda"]),
    }
    return block, checks


def _flow_duality(hamiltonian, lagrangian, primary, cfg):
    """Sup distance between the two flows of one closed-form family.

    Positions are compared directly; momenta are compared after pushing
    the Lagrangian samples through the fiber derivative of L, which is
    a pointwise jet read, not a Newton solve.
    """
    t_end, dt = cfg["flow"]["t_end"], cfg["flow"]["dt"]
    start = primary.states[0]
    if cfg["bundle_tag"] == "cotangent":
        y0, _ = legendre_to_lagrangian(hamiltonian, start)
        ct, tm = primary, lagrange_flow(lagrangian, PhasePoint(start.x, y0), t_end, dt)
    else:
        p0, _ = legendre_to_hamiltonian(lagrangian, start)
        ct = hamilton_flow(hamiltonian, PhasePoint(start.x, p0), t_end, dt)
        tm = primary
    m = len(ct.states)
    stride = max(1, (m - 1) // 256)
    worst = 0.0
    for k in [*range(0, m, stride), m - 1]:
        sc, st = ct.states[k], tm.states[k]
        worst = max(worst, float(np.abs(np.subtract(sc.x, st.x)).max()))
        push, _ = legendre_to_hamiltonian(lagrangian, st)
        worst = max(worst, float(np.abs(np.subtract(sc.p, push)).max()))
    return worst


def _flow_checks(cfg, gen, dual, traj):
    """Energy drift along the trajectory of gen, and its distance to the
    flow of the dual generator when the family has one."""
    energy = np.asarray(traj.energy)
    drift = float(np.abs(energy - energy[0]).max())
    checks = [_check("energy_drift", drift,
                     TOL["energy_drift"] * max(1.0, cfg["flow"]["t_end"]))]
    if dual is not None:
        pair = (gen, dual) if cfg["bundle_tag"] == "cotangent" else (dual, gen)
        checks.append(_check("flow_duality", _flow_duality(*pair, traj, cfg),
                             TOL["flow_duality"]))
    return checks


def _flow_point(cfg, gen, dual, pt, keep_trajectory):
    t_end, dt = cfg["flow"]["t_end"], cfg["flow"]["dt"]
    if cfg["bundle_tag"] == "cotangent":
        traj = hamilton_flow(gen, pt, t_end, dt)
    else:
        traj = lagrange_flow(gen, pt, t_end, dt)
    checks = _flow_checks(cfg, gen, dual, traj)
    energy = traj.energy
    last = traj.states[-1]
    block = {
        "index": None,
        "x": list(pt.x),
        "p": list(pt.p),
        "t_end": t_end,
        "dt": dt,
        "steps": len(traj.times) - 1,
        "energy": {"initial": float(energy[0]),
                   "final": float(energy[-1]),
                   "drift": checks[0]["residual"]},
        "final_state": {"x": last.x, "p": last.p},
    }
    extra = traj if keep_trajectory else None
    return block, checks, extra


def _coeff_values(coeffs, v_max):
    return [coeffs[r].value if r in coeffs else 0.0 + 0.0j
            for r in range(v_max + 1)]


def _assoc_defects(tf, fg, gh, th, state, v_max):
    """|((f*g)*h - f*(g*h))_r| for r = 0 .. v_max.

    The inner coefficients are re-lifted, so their jets must still carry
    d_max derivative orders; the caller provides a state seeded deeply
    enough for that.
    """
    left = {q: wick_scalar_parts(tau_lift(fg[q], state)[0], th, state.lam, v_max)
            for q in sorted(fg)}
    right = {q: wick_scalar_parts(tf, tau_lift(gh[q], state)[0], state.lam, v_max)
             for q in sorted(gh)}
    out = []
    for r in range(v_max + 1):
        total = 0.0 + 0.0j
        for q in range(r + 1):
            if (c := left.get(q, {}).get(r - q)) is not None:
                total += c.value
            if (c := right.get(q, {}).get(r - q)) is not None:
                total -= c.value
        out.append(abs(total))
    return out


def _quantization_probes(state, f_src, g_src, v_max, flat_labels):
    """Probes shared by star and check.  f and g are compiled, evaluated on
    the state's own seed jets and lifted once each; the checks read those:
    recursion closure and flatness of the lifts named in flat_labels, both
    the closure defect their degree recursions computed, c0(f,g) = fg,
    c1(f,g) - c1(g,f) = i{f,g}, closedness of the curvature trace.
    Returns (checks, (tf, tg), (fg, gf) jets to v^v_max, {f,g} value)."""
    geo = state.geometry
    fj, gj = [jet_function(parse(src, geo.n))(geo.base_jets, geo.fiber_jets)
              for src in (f_src, g_src)]
    (tf, f_defect), (tg, g_defect) = tau_lift(fj, state), tau_lift(gj, state)
    fg = wick_scalar_parts(tf, tg, state.lam, v_max)
    gf = wick_scalar_parts(tg, tf, state.lam, v_max)
    fv, gv = fj.value, gj.value
    c0 = fg[0].value if 0 in fg else 0.0
    c1_fg = fg[1].value if 1 in fg else 0.0
    c1_gf = gf[1].value if 1 in gf else 0.0
    pb = bracket_jets(fj, gj, geo.n).value
    checks = [_check("recursion_residual", state.residual, TOL["recursion"])]
    checks += [_check(label, defect, TOL["tau_flat"])
               for label, defect in zip(flat_labels, (f_defect, g_defect))]
    checks += [
        _check("star_normalization", abs(c0 - fv * gv) / max(1.0, abs(fv * gv)),
               TOL["star_c0"]),
        _check("c1_antisymmetry", abs((c1_fg - c1_gf) - 1j * pb), TOL["star_c1"]),
        _check("trace_form_closed", chern_weyl_closedness(state), TOL["trace_closed"]),
    ]
    return checks, (tf, tg), (fg, gf), pb


def _star_point(cfg, gen, pt):
    n, v_max = cfg["n"], cfg["v_max"]
    h_src = cfg["star"].get("h")
    order = _jet_order(cfg)
    if h_src is not None and cfg["jet_order"] == "auto":
        # the associativity probe lifts star coefficients a second time,
        # which consumes another d_max derivative orders, and the first
        # lift needs one more
        order = max(order, 2 * cfg["D_max"] + 1)
    state = build_state(gen, pt, cfg["D_max"], order=order)
    checks, (tf, tg), (fg, gf), pb = _quantization_probes(
        state, cfg["star"]["f"], cfg["star"]["g"], v_max, ("tau_flat_f", "tau_flat_g"))
    gamma, kappa, c0_form = chern_weyl(state)

    block = {
        "index": None,
        "x": list(pt.x),
        "p": list(pt.p),
        "f": cfg["star"]["f"],
        "g": cfg["star"]["g"],
        "coefficients": {
            "fg": _coeff_values(fg, v_max),
            "gf": _coeff_values(gf, v_max),
        },
        # coefficients beyond D_max // 2 still receive truncated
        # recursion data; this records where completeness ends
        "complete_orders": cfg["D_max"] // 2,
        "poisson_bracket": pb,
        "curvature_trace": gamma,
        "kappa": kappa,
        "c0_form": c0_form,
    }
    if h_src is not None:
        th, _ = tau_lift(parse(h_src, n), state)
        gh = wick_scalar_parts(tg, th, state.lam, v_max)
        block["h"] = h_src
        # only the complete orders are probed: beyond D_max // 2 the
        # coefficients carry truncated recursion data
        defects = _assoc_defects(tf, fg, gh, th, state,
                                 min(v_max, cfg["D_max"] // 2))
        block["associativity_defects"] = defects
        for r, d in enumerate(defects):
            checks.append(_check(f"associativity_v{r}", d, TOL["associativity"]))
    return block, checks


def _check_point(cfg, gen, dual, pt, first):
    """Geometry identities plus quantization probes, all read from one
    Fedosov state's geometry; flows on the first point only, since one
    trajectory already sweeps through many."""
    state = build_state(gen, pt, cfg["D_max"], order=_jet_order(cfg))
    checks = _geometry_checks(state.geometry)
    if first:
        traj = hamilton_flow(gen, pt, cfg["flow"]["t_end"], cfg["flow"]["dt"])
        checks += _flow_checks(cfg, gen, dual, traj)
    # the star checks read c0 and c1 only
    checks += _quantization_probes(state, _PROBE_F, _PROBE_G, 1, ("tau_flat_probe",))[0]
    block = {"index": None, "x": list(pt.x), "p": list(pt.p)}
    return block, checks


_MATH_ERRORS = (StarquantError, np.linalg.LinAlgError)


def _run_point(payload):
    """Worker entry: everything in the payload is picklable, and the
    generator is rebuilt here so process pools never ship closures."""
    command, cfg, index, x, p = payload
    gen, dual, _ = resolve_generator(cfg)
    pt = PhasePoint(x, p)
    extra = None
    try:
        # a non-finite number makes the point an error block, whether numpy
        # makes it (underflow stays silent: flows underflow legitimately)
        # or it reaches the results
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if command == "inspect":
                block, checks = _inspect_point(cfg, gen, pt)
            elif command == "flow":
                keep = cfg["format"] == "csv"
                block, checks, extra = _flow_point(cfg, gen, dual, pt, keep)
            elif command == "star":
                block, checks = _star_point(cfg, gen, pt)
            else:
                block, checks = _check_point(cfg, gen, dual, pt, index == 0)
        block, checks = jsonable([block, checks])
    except (*_MATH_ERRORS, FloatingPointError) as exc:
        message = str(exc)
        if isinstance(exc, FloatingPointError):
            message = f"non-finite number: {message}"
        block = {
            "index": index,
            "x": list(x),
            "p": list(p),
            "error": {"type": type(exc).__name__, "message": message},
        }
        return index, block, [], extra, True
    block["index"] = index
    for c in checks:
        c["point"] = index
    return index, block, checks, extra, False


# ---------------------------------------------------------------------------
# report assembly and output


def _render_json(report):
    """Blocks and checks arrive converted by jsonable in the worker, and
    the rest is config data, so the report is plain JSON data here."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _render_checks_csv(checks):
    buf = io.StringIO()
    buf.write("point,name,residual,tolerance,pass\n")
    for c in checks:
        point = "" if c["point"] is None else c["point"]
        buf.write(f"{point},{c['name']},{c['residual']:.17g},"
                  f"{c['tolerance']:.17g},{str(c['pass']).lower()}\n")
    return buf.getvalue()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_flow_csv(cfg, extras, n_points):
    """Trajectory tables; with several points the point index goes into
    the file name, so errored points leave visible gaps."""
    label = "p" if cfg["bundle_tag"] == "cotangent" else "y"
    out = cfg["output"]
    _require(out is not None or n_points == 1,
             "flow csv for several points needs --out for the file pattern")
    stem, dot, ext = (out or "").rpartition(".")
    if not dot:
        stem, ext = out, "csv"
    for i, traj in extras:
        if out is None:
            traj.write_csv(sys.stdout, fiber_label=label)
        else:
            with open(out if n_points == 1 else f"{stem}-{i}.{ext}", "w") as fh:
                traj.write_csv(fh, fiber_label=label)


def _finite_float(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _load_json(path, what):
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _cmd_run(command, args):
    start = time.perf_counter()
    raw = _load_json(args.config, "config")
    cfg = effective_config(raw, command, args)
    order_resolved = _jet_order(cfg)
    _, _, meta = resolve_generator(cfg)  # validates the DSL up front
    points = resolve_points(cfg)
    if command == "star":
        for key in ("f", "g", "h"):
            if key in cfg["star"]:
                parse(cfg["star"][key], cfg["n"])

    payloads = [(command, cfg, i, x, p) for i, (x, p) in enumerate(points)]
    # the pool forks every worker up front, so more than one per point or
    # per CPU only costs processes; the echo keeps the configured value
    pool_size = min(cfg["workers"], len(payloads), os.cpu_count() or 1)
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(_run_point, payloads))
    else:
        results = [_run_point(p) for p in payloads]
    results.sort(key=lambda r: r[0])

    blocks, checks, extras = [], [], []
    any_error = False
    for idx, block, point_checks, extra, failed in results:
        blocks.append(block)
        checks.extend(point_checks)
        if extra is not None:
            extras.append((idx, extra))
        any_error = any_error or failed

    # the destination path is invocation surface, not job content, and
    # echoing it would break byte-identity across --out choices
    echo = {k: cfg[k] for k in (
        "schema_version", "n", "bundle_tag", "points", "jet_order",
        "D_max", "v_max", "flow", "lambda", "workers",
    )}
    echo["generator"] = meta
    echo["jet_order_resolved"] = order_resolved
    if command == "star":
        echo["star"] = cfg["star"]
    report = {
        "tool": {"name": "starquant", "version": __version__},
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": echo,
        "points": blocks,
        "checks": checks,
        "timing": {"total_s": round(time.perf_counter() - start, 6)}
        if cfg["timing"] else None,
    }

    if command == "flow" and cfg["format"] == "csv":
        _emit_flow_csv(cfg, extras, len(points))
    elif cfg["format"] == "csv":
        _emit(_render_checks_csv(checks), cfg["output"])
    else:
        _emit(_render_json(report), cfg["output"])

    return _exit_code(any_error, checks)


def _exit_code(any_error, checks):
    if any_error:
        return 3
    return 1 if any(not c.get("pass") for c in checks) else 0


_CHECK_FIELDS = {"name": str, "residual": (int, float), "tolerance": (int, float),
                 "pass": bool}


def _is_check_row(c):
    """A check object as a run writes it, with every field the CSV reads."""
    return (isinstance(c, dict)
            and all(isinstance(c.get(k), t) for k, t in _CHECK_FIELDS.items())
            and "point" in c
            and (c["point"] is None or isinstance(c["point"], int)))


def _cmd_report(args):
    report = _load_json(args.path, "report")
    _require(isinstance(report, dict), "report must be a JSON object")
    checks = report.get("checks", [])
    points = report.get("points", [])
    _require(isinstance(checks, list) and all(map(_is_check_row, checks)),
             "report checks must be a list of check objects")
    _require(isinstance(points, list) and all(isinstance(b, dict) for b in points),
             "report points must be a list of objects")
    errors = [b for b in points if "error" in b]
    if args.format == "json":
        _emit(_render_json(report), args.out)
    else:
        _emit(_render_checks_csv(checks), args.out)
    return _exit_code(bool(errors), checks)


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="starquant",
        description="geometry, flows, and star products of Hamilton spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", required=True, metavar="PATH",
                           help="JSON job configuration")
    run_flags.add_argument("--point", metavar="SPEC",
                           help='override points: "x=0.3,-0.1 p=0.7,0.4"')
    run_flags.add_argument("--dmax", type=int, metavar="N",
                           help="override D_max")
    run_flags.add_argument("--vmax", type=int, metavar="N",
                           help="override v_max")
    run_flags.add_argument("--out", metavar="PATH",
                           help="write the report here instead of stdout")
    run_flags.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_parser("inspect", parents=[run_flags],
                   help="metric, connection, and curvature data per point")
    sub.add_parser("flow", parents=[run_flags],
                   help="integrate the flow and check energy and duality")
    star = sub.add_parser("star", parents=[run_flags],
                          help="star-product coefficients of two observables")
    star.add_argument("f", nargs="?", help="observable DSL, e.g. 'x1*p1'")
    star.add_argument("g", nargs="?", help="observable DSL")
    star.add_argument("h", nargs="?",
                      help="optional third observable for the associativity check")
    sub.add_parser("check", parents=[run_flags],
                   help="run the full identity and quantization battery")
    rep = sub.add_parser("report", help="re-render a stored report")
    rep.add_argument("path", help="report JSON produced by a run")
    rep.add_argument("--format", choices=("json", "csv"), default="csv")
    rep.add_argument("--out", metavar="PATH")
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_run(args.command, args)
    except (ParseError, UnknownVariable, ConfigError, OSError) as exc:
        print(f"starquant: {exc}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as exc:
        print(f"starquant: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
