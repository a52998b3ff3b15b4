"""End-to-end tests of the command line front end: config validation,
exit codes, determinism, and the shape of the emitted reports."""

import argparse
import contextlib
import copy
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starquant import cli, fedosov, geometry
from starquant.errors import InsufficientJetOrder, StarquantError


def write_config(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def base_config(**overrides):
    data = {
        "schema_version": 1,
        "n": 1,
        "generator": {"family": "exp-conformal"},
        "points": [{"x": [0.3], "p": [-0.7]}],
    }
    data.update(overrides)
    return data


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# configuration surface


def test_config_validation_exit_codes(tmp_path, capsys):
    bad = [
        {},  # no n
        base_config(n=0),
        base_config(schema_version=2),
        base_config(bundle_tag="vertical"),
        base_config(dmax=3),  # wrong key name
        base_config(points=[]),
        base_config(points=[{"x": [0.1]}]),
        base_config(flow={"t_end": -1.0}),
        base_config(generator={"family": "unknown"}),
        base_config(generator={"family": "flat", "params": {"omega": 2.0}}),
        base_config(**{"lambda": float("nan")}),  # written as the token NaN
        base_config(**{"lambda": 10 ** 400}),  # beyond float range
        # an integer or a boolean would open as a file descriptor
        base_config(output=2),
        base_config(output=True),
        base_config(output=["a"]),
    ]
    for data in bad:
        path = write_config(tmp_path, data)
        code, out, err = run(["inspect", "--config", path], capsys)
        assert code == 2, data
        assert out == ""
        assert err.startswith("starquant:")


@pytest.mark.parametrize("command", ["inspect", "flow", "star", "check"])
@pytest.mark.parametrize("star", [
    "s", 3, 2.5, True, None, [1],
    {"f": 3, "g": "p1"},
    {"f": "x1", "g": None},
    {"f": "x1", "g": "p1", "h": None},
    {"f": "x1", "g": "p1", "h": 2},
])
def test_star_must_be_an_object_of_dsl_strings(tmp_path, capsys, command, star):
    path = write_config(tmp_path, base_config(star=star))
    code, out, err = run([command, "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("starquant:")


def test_tangent_bundle_only_flows(tmp_path, capsys):
    data = base_config(bundle_tag="tangent",
                       generator={"family": "oscillator"})
    path = write_config(tmp_path, data)
    for command in ("inspect", "check"):
        code, _, err = run([command, "--config", path], capsys)
        assert code == 2
        assert "tangent" in err
    code, _, _ = run(["flow", "--config", path], capsys)
    assert code == 0


def test_malformed_dsl_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, base_config(generator="0.5*(p1^2"))
    code, _, err = run(["inspect", "--config", path], capsys)
    assert code == 2
    assert "offset" in err

    path = write_config(tmp_path, base_config(generator="0.5*q1^2"))
    code, _, err = run(["inspect", "--config", path], capsys)
    assert code == 2
    assert "q1" in err


def test_missing_config_file(capsys):
    code, _, err = run(["inspect", "--config", "/no/such/file.json"], capsys)
    assert code == 2
    assert err.startswith("starquant:")


def test_point_flag_parsing():
    spec = cli._parse_point_flag("x=0.3,-0.1 p=0.7,0.4", 2)
    assert spec == {"x": [0.3, -0.1], "p": [0.7, 0.4]}
    with pytest.raises(cli.ConfigError):
        cli._parse_point_flag("x=0.3", 1)
    with pytest.raises(cli.ConfigError):
        cli._parse_point_flag("x=0.3 p=0.7,0.4", 1)
    with pytest.raises(cli.ConfigError):
        cli._parse_point_flag("x=a p=0.1", 1)


def test_family_sources_on_both_bundles():
    assert cli._family_source("flat", {}, 2, "cotangent") == "0.5*(p1^2 + p2^2)"
    assert cli._family_source("flat", {}, 1, "tangent") == "0.5*(y1^2)"
    osc = cli._family_source("oscillator", {"omega": 2.0}, 1, "tangent")
    assert osc == "0.5*(y1^2 - 4.0*(x1^2))"
    conf = cli._family_source("exp-conformal", {}, 1, "tangent")
    assert conf == "0.5 * exp(-2*x1) * (y1^2)"
    with pytest.raises(cli.ConfigError):
        cli._family_source("torus", {}, 1, "cotangent")


def test_grid_expansion_order():
    cfg = {"n": 1, "points": {"grid": {"x": [[-1.0, 1.0]], "p": [[0.2, 0.4]]}}}
    pts = cli.resolve_points(cfg)
    assert pts == [([-1.0], [0.2]), ([-1.0], [0.4]),
                   ([1.0], [0.2]), ([1.0], [0.4])]


def test_jsonable_complex_pairs():
    data = cli.jsonable({"z": np.array([[1.0 + 2.0j]]), "r": np.float64(0.5)})
    assert data == {"z": [[[1.0, 2.0]]], "r": 0.5}
    with pytest.raises(TypeError):
        cli.jsonable(object())
    with pytest.raises(StarquantError):
        cli.jsonable({"r": [1.0, np.complex128(complex(0.0, np.inf))]})


# ---------------------------------------------------------------------------
# inspect


def test_inspect_report_shape(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code, out, _ = run(["inspect", "--config", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["tool"]["name"] == "starquant"
    assert rep["command"] == "inspect"
    assert rep["config"]["jet_order_resolved"] == 5

    blk = rep["points"][0]
    # H = 0.5 exp(0.6) 0.49 at the configured point, as an [re, im] pair
    want = 0.5 * np.exp(0.6) * 0.49
    assert blk["hamiltonian"][0] == pytest.approx(want)
    assert blk["hamiltonian"][1] == 0.0
    assert blk["g_upper"][0][0][0] == pytest.approx(np.exp(0.6))
    assert set(blk["connections"]) == {"canonical", "phi"}
    assert all(c["pass"] for c in rep["checks"])


def test_inspect_point_override(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code, out, _ = run(
        ["inspect", "--config", path, "--point", "x=0.1 p=0.9"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["points"]) == 1
    assert rep["points"][0]["x"] == [0.1]
    assert rep["points"][0]["p"] == [0.9]
    code, _, err = run(["inspect", "--config", path, "--point", "x=inf p=0.9"], capsys)
    assert code == 2
    assert err.startswith("starquant:")


def test_degenerate_generator_reports_cleanly(tmp_path, capsys):
    path = write_config(tmp_path, base_config(generator="x1*p1"))
    code, out, _ = run(["inspect", "--config", path], capsys)
    assert code == 3
    rep = json.loads(out)
    err = rep["points"][0]["error"]
    assert err["type"] == "DegenerateHessian"
    assert rep["checks"] == []


# ---------------------------------------------------------------------------
# flow


def test_flow_checks_and_block(tmp_path, capsys):
    data = base_config(flow={"t_end": 2.0, "dt": 1e-3})
    path = write_config(tmp_path, data)
    code, out, _ = run(["flow", "--config", path], capsys)
    assert code == 0
    rep = json.loads(out)
    names = {c["name"]: c for c in rep["checks"]}
    assert names["energy_drift"]["pass"]
    assert names["flow_duality"]["pass"]
    assert names["flow_duality"]["residual"] < 1e-8
    assert rep["points"][0]["steps"] == 2000


def test_flow_coarse_step_fails_checks(tmp_path, capsys):
    data = base_config(flow={"t_end": 5.0, "dt": 0.5})
    path = write_config(tmp_path, data)
    code, out, _ = run(["flow", "--config", path], capsys)
    assert code == 1
    rep = json.loads(out)
    assert not all(c["pass"] for c in rep["checks"])


@pytest.mark.parametrize("generator", [
    "0.5 * exp(2*x1) * p1^2",  # no dual flow: only the energy shows it
    {"family": "exp-conformal"},  # the dual Lagrangian underflows there
])
def test_flow_that_blows_up_exits_3(tmp_path, capsys, generator):
    # the exact flow from (0.1, 0.5) leaves every chart near t = 1.64
    data = base_config(generator=generator, points=[{"x": [0.1], "p": [0.5]}],
                       flow={"t_end": 5.0, "dt": 0.01})
    code, out, _ = run(["flow", "--config", write_config(tmp_path, data)], capsys)
    assert code == 3
    error = json.loads(out)["points"][0]["error"]
    assert error["type"] == "FlowNotResolved"
    assert error["message"].startswith("flow is not resolved by dt at t=1.63:")


def _solo_runs(tmp_path, capsys, data, command="flow"):
    """(code, report) of one run per point of `data`, each alone."""
    out = []
    for k, point in enumerate(data["points"]):
        solo = dict(data, points=[point])
        code, text, _ = run([command, "--config", write_config(tmp_path, solo, f"solo{k}.json")],
                            capsys)
        out.append((code, json.loads(text)))
    return out


def _block(report, k, index):
    # point k's block and checks, renumbered as point `index`, as JSON text
    block = dict(report["points"][k], index=index)
    checks = [dict(c, point=index) for c in report["checks"] if c["point"] == k]
    return json.dumps([block, checks], sort_keys=True)


@pytest.mark.parametrize("data,failure", [
    # the exact flow from (0.1, 0.5) leaves every chart near t = 1.64
    (base_config(points=[{"x": [0.3], "p": [-0.7]}, {"x": [0.1], "p": [0.5]},
                         {"x": [-0.2], "p": [-0.4]}], flow={"t_end": 5.0, "dt": 0.01}),
     ("FlowNotResolved", "flow is not resolved by dt at t=1.63:")),
    # the first stage at x1 = 3 steps x1 past 1e150, where (1 + x1^2)^200 overflows
    (base_config(generator="0.5*p1^2*(1 + x1^2)^200",
                 points=[{"x": [0.0], "p": [0.1]}, {"x": [3.0], "p": [0.5]},
                         {"x": [0.01], "p": [-0.1]}], flow={"t_end": 0.1, "dt": 0.01}),
     ("FloatingPointError", "non-finite number: overflow encountered")),
    (base_config(generator="0.5*p1^2 + log(x1)",
                 points=[{"x": [1.0], "p": [0.5]}, {"x": [-1.0], "p": [0.5]},
                         {"x": [2.0], "p": [-0.3]}], flow={"t_end": 0.5, "dt": 0.01}),
     ("JetDomainError", "log needs a positive real value")),
])
def test_a_failing_point_leaves_the_others_of_its_stack_alone(tmp_path, capsys, data, failure):
    # the three points run as one stack; the middle one fails, so the stack
    # runs again point by point, and every block is the block of its solo run
    code, out, err = run(["flow", "--config", write_config(tmp_path, data)], capsys)
    assert code == 3 and err == ""
    report = json.loads(out)
    error = report["points"][1]["error"]
    assert error["type"] == failure[0]
    assert error["message"].startswith(failure[1])
    assert [b["index"] for b in report["points"]] == [0, 1, 2]
    for k, (solo_code, solo) in enumerate(_solo_runs(tmp_path, capsys, data)):
        assert solo_code == (3 if k == 1 else 0)
        assert _block(report, k, 0) == _block(solo, 0, 0)


def test_flow_tangent_bundle(tmp_path, capsys):
    data = base_config(bundle_tag="tangent",
                       generator={"family": "oscillator", "params": {"omega": 2.0}},
                       points=[{"x": [0.4], "p": [0.1]}],
                       flow={"t_end": 2.0, "dt": 1e-3})
    path = write_config(tmp_path, data)
    code, out, _ = run(["flow", "--config", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["generator"]["dsl"] == "0.5*(y1^2 - 4.0*(x1^2))"
    assert all(c["pass"] for c in rep["checks"])


def test_flow_csv_single_and_multi(tmp_path, capsys):
    data = base_config(generator={"family": "oscillator"},
                       flow={"t_end": 0.5, "dt": 1e-2})
    path = write_config(tmp_path, data)
    out_file = tmp_path / "traj.csv"
    code, _, _ = run(["flow", "--config", path, "--format", "csv",
                      "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,x1,p1,H"
    assert len(lines) == 52

    data["points"] = [{"x": [0.3], "p": [-0.7]}, {"x": [0.1], "p": [0.2]}]
    path = write_config(tmp_path, data, "multi.json")
    out_file = tmp_path / "many.csv"
    code, _, _ = run(["flow", "--config", path, "--format", "csv",
                      "--out", str(out_file)], capsys)
    assert code == 0
    assert (tmp_path / "many-0.csv").exists()
    assert (tmp_path / "many-1.csv").exists()


# ---------------------------------------------------------------------------
# star


def test_star_normalization_and_bracket(tmp_path, capsys):
    data = base_config(D_max=3, v_max=1)
    path = write_config(tmp_path, data)
    code, out, _ = run(["star", "--config", path, "x1*p1", "p1"], capsys)
    assert code == 0
    rep = json.loads(out)
    blk = rep["points"][0]
    c0 = complex(*blk["coefficients"]["fg"][0])
    fg = (0.3 * -0.7) * -0.7
    assert c0 == pytest.approx(fg)
    names = {c["name"] for c in rep["checks"]}
    assert {"recursion_residual", "star_normalization",
            "c1_antisymmetry", "trace_form_closed"} <= names
    assert all(c["pass"] for c in rep["checks"])
    assert len(blk["coefficients"]["fg"]) == 2
    assert blk["complete_orders"] == 1


def test_star_associativity_probe(tmp_path, capsys):
    data = base_config(generator={"family": "flat"}, D_max=2, v_max=1,
                       points=[{"x": [0.5], "p": [0.4]}])
    path = write_config(tmp_path, data)
    code, out, _ = run(["star", "--config", path, "x1*p1", "x1^2 + p1", "p1"],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    blk = rep["points"][0]
    assert blk["h"] == "p1"
    assert len(blk["associativity_defects"]) == 2
    assert max(blk["associativity_defects"]) < 1e-12


def test_star_associativity_auto_order_curved(tmp_path, capsys):
    # the second lift of the probe needs 2*D_max + 1 orders, and only the
    # complete orders r <= D_max // 2 are probed
    data = base_config(n=2, generator="0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2",
                       points=[{"x": [0.3, -0.1], "p": [0.7, 0.4]}], D_max=3)
    path = write_config(tmp_path, data)
    code, out, _ = run(["star", "--config", path, "x1*p1", "x1^2 + p2", "p2 - x2"],
                       capsys)
    assert code == 0
    blk = json.loads(out)["points"][0]
    assert len(blk["coefficients"]["fg"]) == 4
    assert len(blk["associativity_defects"]) == 2
    assert max(blk["associativity_defects"]) < 1e-12
    # the echo reports the order the point was seeded at
    assert json.loads(out)["config"]["jet_order_resolved"] == 2 * 3 + 1


def test_star_observables_from_config(tmp_path, capsys):
    data = base_config(D_max=3, v_max=1,
                       star={"f": "x1*p1", "g": "p1"})
    path = write_config(tmp_path, data)
    code, out, _ = run(["star", "--config", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["star"] == {"f": "x1*p1", "g": "p1"}


def test_star_requires_observables(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code, _, err = run(["star", "--config", path], capsys)
    assert code == 2
    assert "observables" in err


def test_star_malformed_observable(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code, _, _ = run(["star", "--config", path, "x1*", "p1"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# check and report


def test_check_passes_and_report_roundtrip(tmp_path, capsys):
    data = base_config(generator={"family": "oscillator", "params": {"omega": 1.5}},
                       points=[{"x": [0.3], "p": [0.7]}, {"x": [-0.2], "p": [0.5]}],
                       D_max=3, flow={"t_end": 2.0, "dt": 1e-3})
    path = write_config(tmp_path, data)
    report_file = tmp_path / "report.json"
    code, _, _ = run(["check", "--config", path, "--out", str(report_file)],
                     capsys)
    assert code == 0
    rep = json.loads(report_file.read_text())
    assert all(c["pass"] for c in rep["checks"])
    # flow checks only run on the first point
    flow_points = [c["point"] for c in rep["checks"]
                   if c["name"] in ("energy_drift", "flow_duality")]
    assert flow_points == [0, 0]

    code, out, _ = run(["report", str(report_file)], capsys)
    assert code == 0
    assert out.startswith("point,name,residual,tolerance,pass")

    code, out, _ = run(["report", str(report_file), "--format", "json"], capsys)
    assert code == 0
    assert out == report_file.read_text()


def test_report_propagates_failure_codes(tmp_path, capsys):
    data = base_config(flow={"t_end": 5.0, "dt": 0.5})
    path = write_config(tmp_path, data)
    report_file = tmp_path / "fail.json"
    code, _, _ = run(["flow", "--config", path, "--out", str(report_file)],
                     capsys)
    assert code == 1
    code, _, _ = run(["report", str(report_file)], capsys)
    assert code == 1

    data = base_config(generator="x1*p1")
    path = write_config(tmp_path, data, "degen.json")
    report_file = tmp_path / "err.json"
    code, _, _ = run(["inspect", "--config", path, "--out", str(report_file)],
                     capsys)
    assert code == 3
    code, _, _ = run(["report", str(report_file)], capsys)
    assert code == 3


def test_check_degenerate_hessian(tmp_path, capsys):
    path = write_config(tmp_path, base_config(generator="x1*p1"))
    code, out, _ = run(["check", "--config", path], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["points"][0]["error"]["type"] == "DegenerateHessian"


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical(tmp_path, capsys, monkeypatch):
    data = base_config(points={"grid": {"x": [[-0.2, 0.3]], "p": [[-0.5]]}},
                       workers=2)
    path = write_config(tmp_path, data)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["inspect", "--config", path, "--out", str(first)], capsys)[0] == 0
    assert run(["inspect", "--config", path, "--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    # the destination must not leak into the content
    code, out, _ = run(["inspect", "--config", path], capsys)
    assert code == 0
    assert out.encode() == first.read_bytes()
    # a three-point flow, in JSON and in CSV, with one and with two workers:
    # block for block and table for table the bytes of each point run alone
    for bundle in ("cotangent", "tangent"):
        data = base_config(bundle_tag=bundle, flow={"t_end": 0.5, "dt": 1e-2},
                           points=[{"x": [0.3], "p": [-0.7]}, {"x": [-0.2], "p": [-0.5]},
                                   {"x": [0.1], "p": [-0.9]}])
        solos = _solo_runs(tmp_path, capsys, data)
        for k, point in enumerate(data["points"]):
            solo = write_config(tmp_path, dict(data, points=[point]), f"solo{k}.json")
            csv_out = str(tmp_path / f"solo{k}.csv")
            assert run(["flow", "--config", solo, "--format", "csv", "--out", csv_out],
                       capsys)[0] == 0
        reports = {}
        for workers in (1, 2):
            path = write_config(tmp_path, dict(data, workers=workers), f"w{workers}.json")
            code, out, _ = run(["flow", "--config", path], capsys)
            assert code == 0
            reports[workers] = json.loads(out)
            for k, (_, solo) in enumerate(solos):
                assert _block(reports[workers], k, 0) == _block(solo, 0, 0)
            csv_out = str(tmp_path / f"w{workers}.csv")
            assert run(["flow", "--config", path, "--format", "csv", "--out", csv_out],
                       capsys)[0] == 0
            for k in range(3):
                assert (tmp_path / f"w{workers}-{k}.csv").read_bytes() == (
                    tmp_path / f"solo{k}.csv").read_bytes()
        assert reports[1]["points"] == reports[2]["points"]
        assert reports[1]["checks"] == reports[2]["checks"]
        # stacks of one and of two points, as a small byte budget makes them
        for size in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_stack_points", lambda cfg, dual: size)
                code, out, _ = run(["flow", "--config", write_config(tmp_path, data)], capsys)
            assert code == 0
            assert json.loads(out)["points"] == reports[1]["points"]
    # the budget admits one point at least, and fewer as flows get longer
    cfg = {"n": 4, "flow": {"t_end": 1000.0, "dt": 1e-3}}
    assert cli._stack_points(cfg, dual=object()) == 1
    cfg = {"n": 1, "flow": {"t_end": 0.5, "dt": 1e-2}}
    assert cli._stack_points(cfg, None) > cli._stack_points(cfg, dual=object()) > 3


def test_vielbein_lift_matches_conformal_family(tmp_path, capsys):
    lifted = base_config(
        generator={"family": "vielbein-lift",
                   "params": {"g_base": [["exp(-2*x1)"]], "vielbein": [["1"]]}},
        points=[{"x": [0.3], "p": [0.7]}])
    direct = base_config(points=[{"x": [0.3], "p": [0.7]}])
    rep = {}
    for tag, data in (("lift", lifted), ("direct", direct)):
        path = write_config(tmp_path, data, f"{tag}.json")
        code, out, _ = run(["inspect", "--config", path], capsys)
        assert code == 0
        rep[tag] = json.loads(out)
    a = rep["lift"]["points"][0]
    b = rep["direct"]["points"][0]
    assert a["hamiltonian"][0] == pytest.approx(b["hamiltonian"][0])
    assert a["g_upper"][0][0][0] == pytest.approx(b["g_upper"][0][0][0])
    assert np.allclose(np.asarray(a["nconnection"]), np.asarray(b["nconnection"]))


# ---------------------------------------------------------------------------
# robustness and resource bounds


def test_overflowing_literals_are_config_errors(tmp_path, capsys):
    for source in ("x1^2^3^4^5 + p1^2", "1e400*p1^2"):
        path = write_config(tmp_path, base_config(generator=source))
        code, _, err = run(["inspect", "--config", path], capsys)
        assert code == 2, source
        assert err.startswith("starquant:")
        assert "Traceback" not in err


def test_overflowing_jet_power_is_a_math_error(tmp_path, capsys):
    # x1^4 underflows to a subnormal whose reciprocal overflows; at
    # x1 = 1e-150 the leading power 1e300 is finite and the next term of
    # the binomial series is not, which must stop before numpy sees it
    for source, x in (("p1^2/x1^4", 1e-80), ("p1^2/x1^2", 1e-150)):
        data = base_config(generator=source, points=[{"x": [x], "p": [0.5]}])
        path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["inspect", "--config", path], capsys)
        assert code == 3, source
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], source
        assert json.loads(out)["points"][0]["error"]["type"] == "JetDomainError"


def test_work_caps_are_config_errors(tmp_path, capsys, monkeypatch):
    # each key one above its cap, and the extremes that once passed
    # validation; every one is refused before a point starts
    def unreachable(payload):
        raise AssertionError("a point started above a cap")

    monkeypatch.setattr(cli, "_run_slice", unreachable)
    caps = cli.CAPS

    def of_dim(n, points=None):
        return base_config(n=n, generator="p1^2",
                           points=points or [{"x": [0.1] * n, "p": [0.5] * n}])

    wide_grid = {"grid": {"x": [[0.1] * 1000] * 2, "p": [[0.5] * 1000] * 2}}
    over = [
        (of_dim(caps["n"] + 1), []),
        (of_dim(60), []),
        (base_config(D_max=caps["D_max"] + 1), []),
        (base_config(), ["--dmax", str(caps["D_max"] + 1)]),
        (base_config(D_max=10 ** 6, v_max=10 ** 6), []),
        (base_config(v_max=caps["v_max"] + 1), []),
        (base_config(), ["--vmax", str(caps["v_max"] + 1)]),
        (base_config(jet_order=caps["jet_order"] + 1), []),
        (base_config(jet_order=100000), []),
        (base_config(flow={"t_end": (caps["flow_steps"] + 1) * 1e-6, "dt": 1e-6}), []),
        (base_config(flow={"t_end": 1e300, "dt": 1e-300}), []),
        (base_config(points=[{"x": [0.3], "p": [-0.7]}] * (caps["points"] + 1)), []),
        (base_config(points={"grid": {"x": [[0.1] * (caps["points"] + 1)], "p": [[0.5]]}}),
         []),
        (of_dim(2, wide_grid), []),  # 10^12 points
    ]
    for case, (data, flags) in enumerate(over):
        path = write_config(tmp_path, data)
        for command in ("inspect", "flow", "star", "check"):
            observables = ["x1", "p1"] if command == "star" else []
            code, out, err = run([command, "--config", path, *flags, *observables], capsys)
            assert code == 2, (case, command)
            assert err.startswith("starquant:") and err.count("\n") == 1, err
            assert "at most" in err and out == ""
    # at the caps every key is accepted
    at_cap = base_config(n=caps["n"], D_max=caps["D_max"], v_max=caps["v_max"],
                         jet_order=caps["jet_order"], generator="p1^2",
                         flow={"t_end": caps["flow_steps"] * 1e-3, "dt": 1e-3},
                         points={"grid": {"x": [[0.1] * 10] * 4, "p": [[0.5]] * 4}})
    cfg = cli.effective_config(at_cap, "check", argparse.Namespace())
    assert len(cli.resolve_points(cfg)) == caps["points"]


def test_jet_table_cap_is_a_config_error(tmp_path, capsys, monkeypatch):
    # at n = 4 and D_max 8 the product table would hold C(16 + order, 16)
    # index triples: 1.3e7 for check (order 11), 1.2e9 for star with h
    # (order 17); both are refused before any table is built
    class Reached(Exception):
        pass

    def reached(payload):
        raise Reached

    monkeypatch.setattr(cli, "_run_slice", reached)
    data = base_config(n=4, generator="p1^2", D_max=8,
                       points=[{"x": [0.1] * 4, "p": [0.5] * 4}])
    path = write_config(tmp_path, data)
    for argv, table in ((["check"], math.comb(27, 16)),
                        (["star", "x1", "p1", "x2"], math.comb(33, 16))):
        assert table > cli.CAPS["jet_table"]
        code, out, err = run([argv[0], "--config", path, *argv[1:]], capsys)
        assert code == 2 and out == ""
        assert err.startswith("starquant:") and err.count("\n") == 1, err
        assert f"({table} index triples" in err
        assert f"must be at most {cli.CAPS['jet_table']}" in err
    # n = 2 reaches order 17 under the cap: C(25, 8) = 1081575 triples
    data = base_config(n=2, generator="p1^2", jet_order=17,
                       points=[{"x": [0.1] * 2, "p": [0.5] * 2}])
    with pytest.raises(Reached):
        cli.main(["star", "--config", write_config(tmp_path, data), "x1", "p1", "x2"])


def _strict(token):
    raise ValueError(f"non-finite JSON token {token}")


def test_nonfinite_results_are_error_blocks(tmp_path, capsys):
    # H is about 2.5e199 here, and the oblique frame pairing overflows
    data = base_config(generator="p1^2*(1+x1^2)^200", points=[{"x": [3.0], "p": [0.5]}])
    path = write_config(tmp_path, data)
    code, out, err = run(["inspect", "--config", path], capsys)
    assert code == 3
    assert err == ""  # numpy raised inside the point instead of warning
    report = json.loads(out, parse_constant=_strict)
    assert report["checks"] == []
    assert "non-finite" in report["points"][0]["error"]["message"]


def test_inspect_builds_geometry_once_per_point(tmp_path, capsys, monkeypatch):
    # dtheta is read from the point's own jets, check runs its battery on
    # the Fedosov state's geometry, and star reads every probe from it
    builds = []
    init = cli.GeometryAtPoint.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.GeometryAtPoint, "__init__", counting_init)
    quartic = base_config(n=2, generator="0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2",
                          points=[{"x": [0.3, -0.1], "p": [0.7, 0.4]}])
    for data in (base_config(), quartic):
        builds.clear()
        path = write_config(tmp_path, data)
        code, _, _ = run(["inspect", "--config", path], capsys)
        assert code == 0
        assert len(builds) == 1
    two = base_config(D_max=2, flow={"t_end": 0.5, "dt": 1e-2},
                      points=[{"x": [0.3], "p": [-0.7]}, {"x": [-0.2], "p": [0.5]}])
    path = write_config(tmp_path, two)
    for argv in (["check", "--config", path], ["star", "--config", path, "x1*p1", "p1"]):
        builds.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0, argv[0]
        assert len(builds) == 2, argv[0]  # one per point


def test_a_point_holds_jets_only_for_its_seed(tmp_path, capsys, monkeypatch):
    # from the frames on, a point's tensors are cached as coefficient stacks
    # and its jet accessors are views; only g, g^-1 and N stay arrays of jets
    geometries = []
    init = cli.GeometryAtPoint.__init__

    def recording_init(self, *args, **kwargs):
        geometries.append(self)
        init(self, *args, **kwargs)

    def object_arrays(value):
        if isinstance(value, np.ndarray):
            return [value] if value.dtype == object else []
        if isinstance(value, tuple):
            return [a for v in value for a in object_arrays(v)]
        return []

    monkeypatch.setattr(cli.GeometryAtPoint, "__init__", recording_init)
    quartic = base_config(n=2, generator="0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2",
                          points=[{"x": [0.3, -0.1], "p": [0.7, 0.4]}], D_max=3)
    path = write_config(tmp_path, quartic)
    for argv in (["inspect", "--config", path], ["star", "--config", path, "x1*p1", "p2"]):
        geometries.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0, argv[0]
        (geo,) = geometries
        held = {key for key, value in geo._cache.items() if object_arrays(value)}
        assert held == {"g_upper", "g_lower", "nconnection"}, argv[0]


def test_star_and_check_build_the_trace_once_per_point(tmp_path, capsys, monkeypatch):
    # chern_weyl and chern_weyl_closedness read one curvature trace stack,
    # which the point's geometry builds once
    builds = []
    build = geometry._curvature_trace

    def counting_build(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(geometry, "_curvature_trace", counting_build)
    two = base_config(n=2, generator="0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2", D_max=2,
                      flow={"t_end": 0.1, "dt": 1e-2},
                      points=[{"x": [0.3, -0.1], "p": [0.7, 0.4]},
                              {"x": [-0.2, 0.1], "p": [0.5, -0.3]}])
    path = write_config(tmp_path, two)
    for argv in (["check", "--config", path], ["star", "--config", path, "x1*p1", "p1"]):
        builds.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0, argv[0]
        assert len(builds) == 2, argv[0]  # one per point


def test_workers_are_bounded(tmp_path, capsys, monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    path = write_config(tmp_path, base_config(workers=5000))
    code, out, _ = run(["inspect", "--config", path], capsys)
    assert code == 0
    assert pools == []  # one point runs serially
    assert json.loads(out)["config"]["workers"] == 5000

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    data = base_config(workers=5000, points=[{"x": [0.3], "p": [-0.7]},
                                             {"x": [0.1], "p": [0.5]}])
    path = write_config(tmp_path, data, "two.json")
    code, _, _ = run(["inspect", "--config", path], capsys)
    assert code == 0
    assert pools == [2]


def test_report_rejects_malformed_input(tmp_path, capsys):
    for name, data in (("garbled.json", b"not json {"), ("list.json", b"[1, 2]"),
                       ("binary.json", b"\xff\xfe\x00"),
                       ("check_int.json", b'{"checks": [1]}'),
                       ("point_int.json", b'{"points": [1]}'),
                       ("checks_int.json", b'{"checks": 5}'),
                       ("check_partial.json", b'{"checks": [{"name": "c"}]}'),
                       ("nan.json", b'{"points": [{"x": NaN}]}'),
                       ("inf.json", b'{"checks": [{"name": "c", "point": 0, "residual": '
                                    b'Infinity, "tolerance": 1, "pass": false}]}'),
                       ("huge.json", b'{"points": [{"x": 1e400}]}')):
        path = tmp_path / name
        path.write_bytes(data)
        code, _, err = run(["report", str(path)], capsys)
        assert code == 2, name
        assert err.startswith("starquant:")
        assert "Traceback" not in err
    # no checks and no points is a valid, empty report
    path = tmp_path / "empty.json"
    path.write_bytes(b"{}")
    assert run(["report", str(path)], capsys) == (0, "point,name,residual,tolerance,pass\n", "")


def test_quantization_at_dmax2_n2_auto_order(tmp_path, capsys):
    # the closedness of the curvature trace needs order 6 at n >= 2
    data = base_config(n=2, generator="0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2",
                       points=[{"x": [0.3, -0.1], "p": [0.7, 0.4]}], D_max=2,
                       flow={"t_end": 0.5, "dt": 1e-2})
    path = write_config(tmp_path, data)
    for argv in (["star", "--config", path, "x1*p1", "x1^2 + p2"],
                 ["check", "--config", path]):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv[0]
        assert json.loads(out)["config"]["jet_order_resolved"] == 6


def test_star_and_check_lift_each_observable_once(tmp_path, capsys, monkeypatch):
    # the closure and flatness residuals are the defects the degree
    # recursions computed, so no command applies the closure references, and
    # both the flatness checks and the star coefficients read the one lift
    # per observable
    from starquant import fedosov

    references = ("recursion_residual", "tau_flatness", "flat_connection_apply")
    calls = dict.fromkeys((*references, "lift"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in references:
        monkeypatch.setattr(fedosov, name, counting(name, getattr(fedosov, name)))
    monkeypatch.setattr(cli, "tau_lift", counting("lift", cli.tau_lift))
    assert not any(hasattr(cli, name) for name in references)  # none imported there
    path = write_config(tmp_path, base_config(D_max=2, flow={"t_end": 0.5, "dt": 1e-2}))
    for argv in (["star", "--config", path, "x1*p1", "p1"], ["check", "--config", path]):
        calls.update(dict.fromkeys(calls, 0))
        code, _, _ = run(argv, capsys)
        assert code == 0, argv[0]
        assert calls == {**dict.fromkeys(references, 0), "lift": 2}, argv[0]


# ---------------------------------------------------------------------------
# jet orders by demand: star and check keep only the orders they read

QUARTIC = "0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2"
# generator, n, point, f and g of each family the star tests run on
STAR_FAMILIES = {
    "flat": ({"family": "flat"}, 2, {"x": [0.3, -0.1], "p": [0.7, 0.4]},
             "x1*p1*p2 + x2^2*p2 + p1^3", "p1*p2^2 + x1^2*x2 + x1^3"),
    "exp-conformal": ({"family": "exp-conformal"}, 1, {"x": [0.3], "p": [-0.7]},
                      "x1*p1", "p1"),
    "quartic": (QUARTIC, 2, {"x": [0.3, -0.1], "p": [0.7, 0.4]}, "x1*p1", "x1^2 + p2"),
}
# the checks that are the closure defects of the degree recursions: maxima
# over the coefficients the recursions keep
CLOSURE_DEFECTS = {"recursion_residual", "tau_flat_f", "tau_flat_g", "tau_flat_probe"}


def _quantization_config(family, d_max, f=None, g=None, h=None):
    gen, n, point, f0, g0 = STAR_FAMILIES[family]
    star = {"f": f or f0, "g": g or g0}
    if h is not None:
        star["h"] = h
    return {"schema_version": 1, "n": n, "generator": gen, "points": [point],
            "D_max": d_max, "star": star, "flow": {"t_end": 0.5, "dt": 1e-2},
            "workers": 1}


def _report(tmp_path, command, data):
    path = write_config(tmp_path, data)
    out = tmp_path / "report.json"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _full_orders(monkeypatch):
    # states and lifts kept at their full jet orders, as library callers
    # get them by default
    build, lift = cli.build_state, cli.tau_lift
    monkeypatch.setattr(cli, "build_state", lambda *args, read=None, **kw: build(*args, **kw))
    monkeypatch.setattr(cli, "tau_lift", lambda f, state, read=None: lift(f, state))


def _count_pair_products(monkeypatch):
    # coefficient pair products of the product tables that the Wick algebra
    # forms: per row of every stacked product in fedosov, counted only
    # inside the outermost wick_product or wick_scalar_parts call
    count, depth = [0], [0]
    batched = fedosov.batched_mul

    def counted_batched(space, a, b):
        out = batched(space, a, b)
        if depth[0]:
            count[0] += len(out) * len(space._mul()[0])
        return out

    def inside(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(fedosov, "batched_mul", counted_batched)
    for module in (fedosov, cli):
        monkeypatch.setattr(module, "wick_scalar_parts", inside(module.wick_scalar_parts))
    monkeypatch.setattr(fedosov, "wick_product", inside(fedosov.wick_product))
    return count


# the quartic's star at D_max 4, star with h at 3 and check at 4 are the
# star_quartic, star_quartic_h and check_quartic goldens, whose bytes are
# those of the full-order route
@pytest.mark.parametrize("family,command,d_max,h", [
    ("quartic", "star", 3, None), ("quartic", "star", 5, None),
    ("quartic", "star", 4, "p2 - x2"),
    ("quartic", "check", 3, None), ("quartic", "check", 5, None),
    *[("exp-conformal", command, d_max, h) for d_max in (3, 4, 5)
      for command, h in (("star", None), ("star", "x1 + p1^2"), ("check", None))],
])
def test_read_orders_keep_the_report_fields(tmp_path, monkeypatch, family, command, d_max, h):
    data = _quantization_config(family, d_max, h=h)
    cut = _report(tmp_path, command, data)
    with monkeypatch.context() as patch:
        _full_orders(patch)
        full = _report(tmp_path, command, data)
    assert cut["config"] == full["config"]
    assert [c["name"] for c in cut["checks"]] == [c["name"] for c in full["checks"]]
    for a, b in zip(cut["checks"], full["checks"]):
        if a["name"] in CLOSURE_DEFECTS:
            # the cut components carry fewer coefficients to take a maximum over
            assert a["pass"] and b["pass"] and a["residual"] <= b["residual"]
        else:
            assert json.dumps(a) == json.dumps(b)
    (a,), (b,) = cut["points"], full["points"]
    if "coefficients" in a:
        complete = a["complete_orders"]
        for key in ("fg", "gf"):
            ca, cb = a["coefficients"].pop(key), b["coefficients"].pop(key)
            assert json.dumps(ca[: complete + 1]) == json.dumps(cb[: complete + 1])
            if family == "quartic":
                assert json.dumps(ca) == json.dumps(cb)
            else:
                # on exp-conformal at D_max 4 and 5 the incomplete C_3 is
                # roundoff of size 1e-16 either way: a term whose kept
                # prefix is below fedosov.PRUNE_TOL is pruned where its
                # whole jet would be kept
                for x, y in zip(ca[complete + 1:], cb[complete + 1:]):
                    assert abs(complex(*x) - complex(*y)) <= 1e-14
    assert json.dumps(a) == json.dumps(b)


def test_read_orders_cut_the_pair_products(tmp_path, monkeypatch):
    # the star_quartic golden config, which is the star_curved workload
    data = _quantization_config("quartic", 4)
    count = _count_pair_products(monkeypatch)
    _report(tmp_path, "star", data)
    cut, count[0] = count[0], 0
    _full_orders(monkeypatch)
    _report(tmp_path, "star", data)
    assert (cut, count[0]) == (635_150, 5_679_318)
    assert cut <= 0.6 * count[0]


def _read_orders_fit(cfg):
    """Raise InsufficientJetOrder where a read rule asks a component for
    more orders than the seed order gives it, or leaves a component that
    a later degree differentiates with no order to lose."""
    d_max, seed, read = cfg["D_max"], cli._jet_order(cfg), cli._read_order(cfg)
    lift_order, r_order = fedosov.lift_order, fedosov.r_order
    # (component, order asked, differentiated later, order available)
    asked = [(f"t[{m}]", lift_order(read, d_max, m), m < d_max, seed)
             for m in range(d_max + 1)]
    asked += [(f"comp[{k}]", r_order(read, d_max, k), k < d_max, seed)
              for k in range(2, d_max + 1)]
    if cfg["star"].get("h") is not None:
        # the C_r jets carry order `read`, and their second lifts are read
        # as values
        asked += [(f"t[{m}] of a second lift", lift_order(0, d_max, m), m < d_max, read)
                  for m in range(d_max + 1)]
    for what, order, differentiated, top in asked:
        if not int(differentiated) <= order <= top:
            raise InsufficientJetOrder(f"{what} asks order {order} of {top} at {cfg}")


def test_read_orders_fit_the_seed_order():
    # orders only: no state is built, since D_max 8 takes minutes
    for n, d_max, command, h in itertools.product(
            range(1, 4), range(2, 9), ("star", "check"), (None, "p1")):
        if command == "check" and h is not None:
            continue
        star = {"f": "x1", "g": "p1"} if h is None else {"f": "x1", "g": "p1", "h": h}
        cfg = {"command": command, "n": n, "D_max": d_max, "jet_order": "auto",
               "star": star}
        _read_orders_fit(cfg)


@pytest.mark.parametrize("family", list(STAR_FAMILIES))
def test_star_is_hermitian_with_a_unit(tmp_path, family):
    # C_r(g, f) = conj C_r(f, g) for real f and g, at every order the
    # report gives, and the constant 1 is a unit: C_r(f, 1) = C_r(1, f) = 0
    # for r >= 1
    blk = _report(tmp_path, "star", _quantization_config(family, 4))["points"][0]
    fg, gf = ([complex(*c) for c in blk["coefficients"][k]] for k in ("fg", "gf"))
    assert len(fg) == 4 and abs(fg[2]) > 0.1
    for a, b in zip(fg, gf):
        assert abs(b - a.conjugate()) <= 1e-12 * max(1.0, abs(a))
    blk = _report(tmp_path, "star", _quantization_config(family, 4, g="1"))["points"][0]
    f_value = complex(*blk["coefficients"]["fg"][0])
    for key in ("fg", "gf"):
        c = [complex(*x) for x in blk["coefficients"][key]]
        assert c[0] == f_value and c[1:] == [0.0] * 3


def test_star_complete_orders_do_not_move_with_d_max(tmp_path):
    # C_0 .. C_2 are complete at D_max 4, and do not change at D_max 5
    blocks = [_report(tmp_path, "star", _quantization_config("quartic", d_max))["points"][0]
              for d_max in (4, 5)]
    assert [b["complete_orders"] for b in blocks] == [2, 2]
    for key in ("fg", "gf"):
        low, high = (b["coefficients"][key] for b in blocks)
        assert json.dumps(low[:3]) == json.dumps(high[:3])
        assert low[3] != high[3]  # C_3 is incomplete, and moves


# ---------------------------------------------------------------------------
# the exit-code contract over generated configs

# values of a wrong type for most keys, or of the right type and out of
# range; JSON writes the non-finite floats as NaN and Infinity tokens
ODD_VALUES = [None, True, False, 0, -1, 2.5, float("nan"), float("inf"), 10 ** 400,
              "", "x1", [], [1], ["a"], {}, {"a": 1}]

# the keys a mutation may replace, nested ones as paths
CONFIG_PATHS = [(key,) for key in sorted(cli._CONFIG_KEYS)] + [
    ("flow", "t_end"), ("flow", "dt"), ("points", 0), ("points", 0, "x"),
    ("points", 0, "p"), ("star", "f"), ("star", "g"), ("generator", "family"),
    ("generator", "params"),
]


def _over_cap(key):
    """A mutation that takes one CAPS entry one step past its cap."""
    caps = cli.CAPS

    def of_dim(cfg, n, order=None):
        cfg.update(n=n, generator="p1^2", points=[{"x": [0.1] * n, "p": [0.5] * n}])
        if order is not None:
            cfg["jet_order"] = order

    def mutate(cfg):
        if key == "n":
            of_dim(cfg, caps["n"] + 1)
        elif key == "flow_steps":
            cfg["flow"] = {"t_end": (caps["flow_steps"] + 1) * 1e-3, "dt": 1e-3}
        elif key == "points":
            cfg["points"] = [{"x": [0.3], "p": [-0.7]}] * (caps["points"] + 1)
        elif key == "jet_table":
            # at n = 4, order 9 holds C(25, 16) triples, under the cap, and
            # order 10 holds C(26, 16), over it
            assert math.comb(25, 16) <= caps["jet_table"] < math.comb(26, 16)
            of_dim(cfg, 4, order=10)
        else:
            cfg[key] = caps[key] + 1

    return mutate


def _wrong_value(path, value):
    def mutate(cfg):
        node = cfg
        try:
            for step in path[:-1]:
                node = node[step]
            if isinstance(node, (dict, list)):
                node[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier change cut the path

    return mutate


mutations = st.one_of(
    st.builds(_wrong_value, st.sampled_from(CONFIG_PATHS), st.sampled_from(ODD_VALUES)),
    st.builds(_over_cap, st.sampled_from(sorted(cli.CAPS))),
)


def _no_work(payload):
    # every point a plain block: the config surface and the report
    # assembly run, and no math does
    _, _, first, points = payload
    return [(index, {"index": index, "x": list(x), "p": list(p)}, [], None, False)
            for index, (x, p) in enumerate(points, first)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(command=st.sampled_from(cli._RUN_COMMANDS),
       changes=st.lists(mutations, min_size=1, max_size=2))
def test_generated_configs_keep_the_exit_code_contract(command, changes):
    data = base_config(D_max=3, flow={"t_end": 0.5, "dt": 1e-2},
                       star={"f": "x1*p1", "g": "x1^2 + p1"})
    for change in changes:
        change(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_run_slice", _no_work)
        patch.chdir(tmp)  # a string `output` writes its file here
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(data))
        observables = ["x1", "p1"] if command == "star" else []
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(path), *observables])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if stdout.getvalue():
        json.loads(stdout.getvalue(), parse_constant=_strict)
