"""Byte-identity regression: eight small runs, covering every command, against
reports stored under tests/golden/.

A change that moves any byte of these reports must say why and
regenerate the file; a refactor must leave them untouched.
"""

import json
from pathlib import Path

import pytest

from starquant import cli

GOLDEN = Path(__file__).parent / "golden"

QUARTIC = "0.5*(p1^2 + p2^2) + x2^2 * p1^2 / 2"
QUARTIC_POINT = {"x": [0.3, -0.1], "p": [0.7, 0.4]}

CASES = {
    "inspect_quartic": ("inspect", {"n": 2, "generator": QUARTIC,
                                    "points": [QUARTIC_POINT]}),
    "check_exp_conformal": ("check", {"n": 1, "generator": {"family": "exp-conformal"},
                                      "points": [{"x": [0.3], "p": [-0.7]}], "D_max": 3,
                                      "flow": {"t_end": 0.5, "dt": 1e-2}}),
    "flow_exp_conformal": ("flow", {"n": 1, "generator": {"family": "exp-conformal"},
                                    "points": [{"x": [0.3], "p": [-0.7]},
                                               {"x": [-0.2], "p": [0.5]}],
                                    "flow": {"t_end": 0.5, "dt": 1e-2}}),
    "check_quartic": ("check", {"n": 2, "generator": QUARTIC, "points": [QUARTIC_POINT],
                                "D_max": 4}),
    # the star_curved workload of perfbench/workloads.py
    "star_quartic": ("star", {"n": 2, "generator": QUARTIC, "points": [QUARTIC_POINT],
                              "D_max": 4, "star": {"f": "x1*p1", "g": "x1^2 + p2"},
                              "workers": 1}),
    "star_quartic_h": ("star", {"n": 2, "generator": QUARTIC, "points": [QUARTIC_POINT],
                                "D_max": 3, "star": {"f": "x1*p1", "g": "x1^2 + p2",
                                                     "h": "p2 - x2"}}),
    # three points per run, so the flows of a run are compared block by block
    "flow_oscillator_tangent": ("flow", {
        "n": 2, "bundle_tag": "tangent",
        "generator": {"family": "oscillator", "params": {"omega": 1.5}},
        "points": [{"x": [0.3, -0.2], "p": [0.1, 0.4]},
                   {"x": [-0.5, 0.1], "p": [0.2, -0.3]},
                   {"x": [0.8, 0.6], "p": [-0.4, 0.05]}],
        "flow": {"t_end": 0.5, "dt": 1e-2}}),
    # sqrt, log and a fractional power: every series the DSL composes
    "flow_dsl_series": ("flow", {
        "n": 1,
        "generator": "0.5*p1^2*sqrt(1 + x1^2) + log(2 + x1^2) / (3 + p1^2)"
                     " + 0.1*(1.5 + x1)^2.5",
        "points": [{"x": [0.3], "p": [-0.7]}, {"x": [-0.4], "p": [0.5]},
                   {"x": [0.9], "p": [1.2]}],
        "flow": {"t_end": 0.5, "dt": 1e-2}}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    command, config = CASES[name]
    config_path = tmp_path / "job.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    code = cli.main([command, "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
