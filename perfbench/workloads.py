"""The three pinned workloads: their configs, drawn from a seed, and the
checks of their reports against closed forms and method properties.

Nothing here imports starquant: the expected values are computed from
the formulas written out below, not from the program.
"""

import math
import random

QUARTIC = "0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2"

# star_curved is pinned: one point at D_max 4 already takes about 14 s,
# and the seed moves neither the point nor the observables
STAR_POINT = {"x": [0.3, -0.1], "p": [0.7, 0.4]}
STAR_F, STAR_G = "x1*p1", "x1^2 + p2"

INSPECT_AXIS_VALUES = 2  # per coordinate, so 2^4 = 16 grid points
FLOW_POINTS = 2
FLOW_T_END, FLOW_DT = 5.0, 1e-3

TOL_INSPECT = 1e-12
TOL_FLOW = 1e-9
TOL_STAR = 1e-12


def _draw(rng, lo, hi):
    # three decimals keep the configs readable and exactly reproducible
    return round(rng.uniform(lo, hi), 3)


def make_config(workload, seed):
    """(command, config dict, number of points) for one run's inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "inspect_grid":
        axis = lambda: [_draw(rng, -0.9, 0.9) for _ in range(INSPECT_AXIS_VALUES)]
        grid = {"x": [axis(), axis()], "p": [axis(), axis()]}
        cfg = {"n": 2, "generator": QUARTIC, "points": {"grid": grid}, "workers": 1}
        return "inspect", cfg, INSPECT_AXIS_VALUES ** 4
    if workload == "flow_dual":
        # p < 0 keeps e^x p = c negative, so the exact flow exists for all
        # t > 0; with p > 0 it blows up at t = e^{-x0} / c
        points = [{"x": [_draw(rng, -0.5, 0.5)], "p": [_draw(rng, -1.0, -0.3)]}
                  for _ in range(FLOW_POINTS)]
        cfg = {"n": 1, "generator": {"family": "exp-conformal"}, "points": points,
               "flow": {"t_end": FLOW_T_END, "dt": FLOW_DT}, "workers": 1}
        return "flow", cfg, FLOW_POINTS
    if workload == "star_curved":
        cfg = {"n": 2, "generator": QUARTIC, "points": [STAR_POINT], "D_max": 4,
               "star": {"f": STAR_F, "g": STAR_G}, "workers": 1}
        return "star", cfg, 1
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# report checks; each returns a list of problems, empty when the point passes


def _c(pair):
    return complex(pair[0], pair[1])


def _matrix(rows):
    return [[_c(e) for e in row] for row in rows]


def check_inspect_point(block):
    x1, x2 = block["x"]
    p1, p2 = block["p"]
    problems = []
    h_exact = 0.5 * (p1 ** 2 + p2 ** 2) + x2 ** 2 * p1 ** 2 / 2
    if abs(_c(block["hamiltonian"]) - h_exact) > TOL_INSPECT:
        problems.append(f"hamiltonian {block['hamiltonian']} != {h_exact}")
    upper = _matrix(block["g_upper"])
    upper_exact = [[1 + x2 ** 2, 0.0], [0.0, 1.0]]
    lower = _matrix(block["g_lower"])
    for i in range(2):
        for j in range(2):
            if abs(upper[i][j] - upper_exact[i][j]) > TOL_INSPECT:
                problems.append(f"g_upper[{i}][{j}] = {upper[i][j]} != {upper_exact[i][j]}")
            prod = sum(upper[i][k] * lower[k][j] for k in range(2))
            if abs(prod - (1.0 if i == j else 0.0)) > TOL_INSPECT:
                problems.append(f"(g_upper g_lower)[{i}][{j}] = {prod}")
    return problems


def check_flow_point(block):
    x0, p0 = block["x"][0], block["p"][0]
    c = math.exp(x0) * p0  # e^x p is conserved by this family
    s = math.exp(-x0) - c * block["t_end"]
    x_exact, p_exact = -math.log(s), c * s
    problems = []
    fx, fp = block["final_state"]["x"][0], block["final_state"]["p"][0]
    if abs(fx - x_exact) > TOL_FLOW * max(1.0, abs(x_exact)):
        problems.append(f"final x {fx} != {x_exact}")
    if abs(fp - p_exact) > TOL_FLOW * max(1.0, abs(p_exact)):
        problems.append(f"final p {fp} != {p_exact}")
    e_exact = 0.5 * math.exp(2 * x0) * p0 ** 2
    if abs(block["energy"]["initial"] - e_exact) > TOL_FLOW * max(1.0, e_exact):
        problems.append(f"initial energy {block['energy']['initial']} != {e_exact}")
    return problems


def check_star_point(block):
    x1, _ = block["x"]
    p1, p2 = block["p"]
    fg = [_c(v) for v in block["coefficients"]["fg"]]
    gf = [_c(v) for v in block["coefficients"]["gf"]]
    problems = []
    product = (x1 * p1) * (x1 ** 2 + p2)
    if abs(fg[0] - product) > TOL_STAR:
        problems.append(f"c0 {fg[0]} != f g = {product}")
    # {f, g} by hand with {x1, p1} = -1: f_p1 g_x1 - f_x1 g_p1 = 2 x1^2
    bracket = 2 * x1 ** 2
    if abs((fg[1] - gf[1]) - 1j * bracket) > TOL_STAR:
        problems.append(f"c1(f,g) - c1(g,f) = {fg[1] - gf[1]} != i {bracket}")
    for r in range(block["complete_orders"] + 1):
        if abs(gf[r] - fg[r].conjugate()) > TOL_STAR * max(1.0, abs(fg[r])):
            problems.append(f"c{r}(g,f) = {gf[r]} != conj c{r}(f,g) = {fg[r].conjugate()}")
    return problems


POINT_CHECKS = {
    "inspect": check_inspect_point,
    "flow": check_flow_point,
    "star": check_star_point,
}


def failed_points(command, report, n_points):
    """Indices of the points that errored, failed a check of the report,
    or failed a closed-form check; and the closed-form problems found."""
    if report is None:
        return set(range(n_points)), []
    failed = {c["point"] for c in report["checks"] if not c["pass"]}
    problems = []
    seen = set()
    for block in report["points"]:
        seen.add(block["index"])
        if "error" in block:
            failed.add(block["index"])
            continue
        found = POINT_CHECKS[command](block)
        if found:
            failed.add(block["index"])
            problems.extend(f"point {block['index']}: {p}" for p in found)
    failed |= set(range(n_points)) - seen
    return failed, problems


def perturbed(command, report):
    """A copy of the first point's block with one value moved, which the
    closed-form check of that command must reject."""
    block = dict(report["points"][0])
    if command == "inspect":
        upper = [[list(e) for e in row] for row in block["g_upper"]]
        upper[0][0][0] += 1e-6
        block["g_upper"] = upper
    elif command == "flow":
        final = dict(block["final_state"])
        final["x"] = [final["x"][0] + 1e-6]
        block["final_state"] = final
    else:
        coeffs = dict(block["coefficients"])
        coeffs["gf"] = list(coeffs["fg"])
        block["coefficients"] = coeffs
    return block


def checks_reject_perturbation(command, report):
    """True when the closed-form check passes the point as reported and
    fails it once one value is perturbed."""
    check = POINT_CHECKS[command]
    return not check(report["points"][0]) and bool(check(perturbed(command, report)))

