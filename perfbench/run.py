"""starquant benchmark: the CLI run the way a user runs it, one process at
a time, timed from outside; with --trace 1, a traced in-process run and
the jet-kernel microbenchmark give the per-layer numbers.

    python3 perfbench/run.py --workload inspect_grid --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. It builds nothing but the
bytecode of src/, and writes only under perfbench/out/. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; every metric carries its unit. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

WORKLOADS = ("inspect_grid", "flow_dual", "star_curved")

# (span label, metric name) for the inclusive times the README names
TIMED_CALLS = (
    ("geometry.torsion_curvature", "geometry.torsion_curvature_s"),
    ("geometry.ricci_scalar_phi", "geometry.ricci_scalar_phi_s"),
    ("geometry.einstein_residual", "geometry.einstein_residual_s"),
    ("geometry.dtheta_check", "geometry.dtheta_check_s"),
    ("geometry.metric_compat_residual", "geometry.metric_compat_residual_s"),
    ("geometry.theta_compat_residual", "geometry.theta_compat_residual_s"),
    ("mechanics.hamilton_flow", "mechanics.hamilton_flow_s"),
    ("mechanics.lagrange_flow", "mechanics.lagrange_flow_s"),
    ("fedosov.fedosov_r", "fedosov.fedosov_r_s"),
    ("fedosov.recursion_residual", "fedosov.recursion_residual_s"),
    ("fedosov.tau_lift", "fedosov.tau_lift_s"),
    ("fedosov.flat_connection_apply", "fedosov.flat_apply_s"),
    ("fedosov.wick_product", "fedosov.wick_product_s"),
)

# (span label or labels, metric name) for call counts
CALL_COUNTS = (
    (("expr.jet_function",), "expr.compiles"),
    (("expr.eval",), "expr.eval_calls"),
    (("geometry.GeometryAtPoint",), "geometry.builds"),
    (("mechanics.legendre_to_hamiltonian", "mechanics.legendre_to_lagrangian"),
     "mechanics.legendre_calls"),
    (("fedosov.recursion_residual",), "fedosov.residual_calls"),
    (("fedosov.wick_product",), "fedosov.wick_calls"),
)

LAYERS = ("cli", "expr", "jets", "geometry", "mechanics", "fedosov")

# a star_curved process takes 13 to 20 s, so 25 s alone would leave most
# runs with a median of two samples, which is their mean
MIN_SAMPLES = 3


class Runner:
    """Spawns child processes one at a time and reaps each one; a child
    still running when the benchmark is interrupted is killed."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def spawn(self, args, tag):
        """(exit code, wall s, cpu s, peak rss MB) of one child process."""
        errpath = self.workdir / f"{tag}.err"
        with open(errpath, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=err, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        # wait4 reaped the child; tell Popen so it does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0

    def output(self, tag):
        return (self.workdir / f"{tag}.err").read_text()


def _load_report(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


class Tally:
    """Points attempted and failed, and what made the outputs incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def score(self, command, code, report, n_points, label):
        """Count one CLI run's points; returns the indices that failed."""
        self.attempted += n_points
        bad, problems = workloads.failed_points(command, report, n_points)
        self.failed += len(bad)
        self.problems.extend(f"{label}: {p}" for p in problems)
        if code != 0 and not bad:
            self.problems.append(f"{label}: exit code {code} with no failed point")
        return bad


def measure_setup(runner):
    """Wall time of a fresh interpreter that imports starquant.cli; the
    child prints where the package came from, which must be src/."""
    code, wall, _, _ = runner.spawn(
        ["-c", "import starquant.cli as c; print(c.__file__)"], "setup")
    origin = runner.output("setup").strip()
    if code != 0 or not Path(origin).resolve().is_relative_to(SRC):
        raise SystemExit(f"starquant.cli did not import from {SRC}: {origin}")
    return wall


def untraced_runs(runner, tally, command, cfg_path, n_points, seconds):
    """CLI runs back to back until `seconds` have passed and at least
    MIN_SAMPLES have run. Each run is whole, so every run attempts the
    same points."""
    samples = []
    first_report = None
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        tag = f"cli{len(samples)}"
        report_path = runner.workdir / f"{tag}.json"
        code, wall, cpu, rss = runner.spawn(
            ["-m", "starquant.cli", command, "--config", str(cfg_path),
             "--out", str(report_path)], tag)
        report = _load_report(report_path)
        bad = tally.score(command, code, report, n_points, tag)
        if first_report is None:
            first_report = report_path.read_bytes() if report is not None else b""
            if not bad and not workloads.checks_reject_perturbation(command, report):
                tally.problems.append("closed-form check accepted a perturbed report")
        samples.append((wall, cpu, rss))
    return samples, first_report


def _outermost(labels_of, parent, rows, label_id):
    """Rows of `rows` with no ancestor span of the same name."""
    out = []
    for row in rows:
        up = parent[row]
        while up >= 0 and labels_of[up] != label_id:
            up = parent[up]
        if up < 0:
            out.append(row)
    return out


def layer_metrics(spans, meta):
    labels = meta["labels"]
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    layer_of = np.array([LAYERS.index(lab.split(".")[0]) for lab in labels])
    per_layer = np.bincount(layer_of[name], weights=self_time, minlength=len(LAYERS))
    metrics = {f"{layer}.self_s": (float(per_layer[i]), "s")
               for i, layer in enumerate(LAYERS)}

    rows_of = {lab: np.flatnonzero(name == i) for i, lab in enumerate(labels)}
    empty = np.array([], dtype=np.int64)
    inclusive = {}
    for label, metric in TIMED_CALLS:
        rows = rows_of.get(label, empty)
        top = _outermost(name, parent, rows, labels.index(label)) if rows.size else []
        inclusive[label] = float(dur[top].sum()) if top else 0.0
        metrics[metric] = (inclusive[label], "s")
    for group, metric in CALL_COUNTS:
        metrics[metric] = (sum(int(rows_of.get(lab, empty).size) for lab in group), "count")
    # the two transforms never call each other, so their spans do not nest
    legendre = np.concatenate([rows_of.get(lab, empty) for lab in (
        "mechanics.legendre_to_hamiltonian", "mechanics.legendre_to_lagrangian")])
    metrics["mechanics.legendre_s"] = (float(dur[legendre].sum()), "s")

    counts = meta["counts"]
    steps = counts["mechanics.rk4_steps"]
    flow_s = inclusive["mechanics.hamilton_flow"] + inclusive["mechanics.lagrange_flow"]
    metrics["mechanics.rk4_step_us"] = (flow_s / steps * 1e6 if steps else 0.0, "us")
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics["trace.spans"] = (int(name.size), "count")
    return metrics


def traced_run(runner, tally, command, cfg_path, n_points, untraced_report):
    prefix = runner.workdir / "trace"
    report_path = runner.workdir / "traced.json"
    code, wall, _, _ = runner.spawn(
        [str(HERE / "trace_run.py"), str(prefix), command, "--config", str(cfg_path),
         "--out", str(report_path)], "traced")
    report = _load_report(report_path)
    tally.score(command, code, report, n_points, "traced")
    if report is not None and report_path.read_bytes() != untraced_report:
        tally.problems.append("traced report differs from the untraced one")
    if not Path(f"{prefix}.json").is_file():
        raise SystemExit(f"traced run wrote no spans (exit {code}):\n{runner.output('traced')}")
    with open(f"{prefix}.json") as fh:
        meta = json.load(fh)
    with np.load(f"{prefix}.npz") as spans:
        metrics = layer_metrics(dict(spans), meta)
    return wall, metrics


def kernel_metrics(runner, tally, seed):
    code, _, _, _ = runner.spawn([str(HERE / "kernel.py"), str(seed)], "kernel")
    text = runner.output("kernel")
    if code != 0:
        raise SystemExit(f"kernel microbenchmark failed:\n{text}")
    result = json.loads(text.strip().splitlines()[-1])
    if not result["correct"]:
        tally.problems.append("a jet product disagreed with the polynomial oracle")
    return {k: (v, "us") for k, v in result["metrics"].items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM, unwind through Runner.spawn so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "starquant" / "cli.py").is_file():
        print(f"no starquant sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(workdir)
        # the build: bytecode for src/, so set-up times an import, not a compile
        code, _, _, _ = runner.spawn(["-m", "compileall", "-q", str(SRC)], "build")
        if code != 0:
            raise SystemExit(f"compileall failed:\n{runner.output('build')}")
        setup_s = measure_setup(runner)

        command, cfg, n_points = workloads.make_config(args.workload, args.seed)
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        tally = Tally()
        samples, first_report = untraced_runs(
            runner, tally, command, cfg_path, n_points, args.seconds)
        wall_s = statistics.median(s[0] for s in samples)
        if args.trace:
            traced_wall, metrics = traced_run(
                runner, tally, command, cfg_path, n_points, first_report)
            metrics.update(kernel_metrics(runner, tally, args.seed))
            metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        else:
            metrics = {
                "wall_s": (wall_s, "s"),
                "cpu_s": (statistics.median(s[1] for s in samples), "s"),
                "peak_rss_mb": (statistics.median(s[2] for s in samples), "MB"),
                "setup_s": (setup_s, "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
