"""End-to-end tests of the command line front end: config validation,
exit codes, determinism, and the shape of the emitted reports."""

import argparse
import json
import warnings

import numpy as np
import pytest

from starquant import cli
from starquant.errors import StarquantError


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
    ]
    for data in bad:
        path = write_config(tmp_path, data)
        code, _, err = run(["inspect", "--config", path], capsys)
        assert code == 2, data
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


def test_reports_are_byte_identical(tmp_path, capsys):
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

    monkeypatch.setattr(cli, "_run_point", unreachable)
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
