"""Run one starquant CLI command in this process with the calls into each
module traced, then write the spans and counters to files.

    PYTHONPATH=src python3 perfbench/trace_run.py OUT_PREFIX inspect --config job.json --out report.json

Everything after OUT_PREFIX is handed to `starquant.cli.main`. The run
writes OUT_PREFIX.npz (one row per span: name id, parent row, start, end)
and OUT_PREFIX.json (the span names and the counters).

Every public function of every module is wrapped where it is a module
attribute, including the names a module imports from another, so calls
inside a module are traced as well as calls between modules. A span is
named after the module that defines the function. `GeometryAtPoint`
gets spans on its constructor and its public methods and properties.
Jet products and truncations, and the helpers in COUNTED, are only
counted: they are the innermost and most frequent calls (millions in one
`star` run), and a span on each would dominate the run. Their time falls
into the self time of the function that called them.
"""

import array
import importlib
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("cli", "expr", "jets", "geometry", "mechanics", "fedosov")
# the innermost helpers: called up to millions of times per run, each for
# a few microseconds, so they get a call counter and no span
COUNTED = ("jets.align", "jets.jet_space", "jets.jet_const", "geometry.jmul",
           "geometry.jsum", "geometry.jsub", "fedosov.wedge_merge")


class Tracer:
    """Span arrays, a stack of open spans, and the counters."""

    def __init__(self):
        self.labels = []
        self.label_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts = {
            "jets.mul_calls": 0,
            "jets.truncate_calls": 0,
            "jets.truncate_same_order": 0,
            "mechanics.rk4_steps": 0,
            "fedosov.wick_pairs": 0,
            "fedosov.wick_terms_out": 0,
            "fedosov.r_terms": 0,
        }
        self.counts.update({f"{label}_calls": 0 for label in COUNTED})

    def wrap(self, fn, label, after=None):
        """fn with a span around each call; after(args, result) may
        record counts and returns the result handed to the caller."""
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        nid = self.label_ids[label]
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(row)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[row] = clock()
                stack.pop()
            return out if after is None else after(args, out)

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, label):
        """fn with a call counter and no span."""
        counts, key = self.counts, f"{label}_calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def save(self, prefix):
        np.savez(
            f"{prefix}.npz",
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        with open(f"{prefix}.json", "w") as fh:
            json.dump({"labels": self.labels, "counts": self.counts}, fh)


def _hooks(tracer):
    """Counters read from the arguments or results of a few calls."""
    counts = tracer.counts

    def compiled(args, fn):
        return tracer.wrap(fn, "expr.eval")

    def flow_steps(args, traj):
        counts["mechanics.rk4_steps"] += len(traj.times) - 1
        return traj

    def wick_sizes(args, out):
        a, b = args[0], args[1]
        counts["fedosov.wick_pairs"] += len(a.terms) * len(b.terms)
        counts["fedosov.wick_terms_out"] += len(out.terms)
        return out

    def r_size(args, r):
        counts["fedosov.r_terms"] = len(r.terms)
        return r

    return {
        "expr.jet_function": compiled,
        "mechanics.hamilton_flow": flow_steps,
        "mechanics.lagrange_flow": flow_steps,
        "fedosov.wick_product": wick_sizes,
        "fedosov.fedosov_r": r_size,
    }


def _count_jet_kernels(tracer, Jet):
    counts = tracer.counts
    mul, truncate = Jet.__mul__, Jet.truncate

    def counted_mul(self, other):
        if isinstance(other, Jet):
            counts["jets.mul_calls"] += 1
        return mul(self, other)

    def counted_truncate(self, order):
        counts["jets.truncate_calls"] += 1
        if order == self.space.order:
            counts["jets.truncate_same_order"] += 1
        return truncate(self, order)

    Jet.__mul__ = Jet.__rmul__ = counted_mul
    Jet.truncate = counted_truncate


def _trace_geometry_class(tracer, cls):
    label = "geometry.GeometryAtPoint"
    cls.__init__ = tracer.wrap(cls.__init__, label)
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(value, property):
            setattr(cls, attr, property(tracer.wrap(value.fget, f"{label}.{attr}")))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(value, f"{label}.{attr}"))


def install(tracer):
    """Wrap the package's public functions in every module namespace."""
    modules = {m: importlib.import_module(f"starquant.{m}") for m in MODULES}
    hooks = _hooks(tracer)
    wrapped = {}
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            home = getattr(value, "__module__", "") or ""
            if not home.startswith("starquant."):
                continue
            if id(value) not in wrapped:
                label = f"{home.rpartition('.')[2]}.{value.__name__}"
                if label in COUNTED:
                    wrapped[id(value)] = tracer.count(value, label)
                else:
                    wrapped[id(value)] = tracer.wrap(value, label, hooks.get(label))
            setattr(module, attr, wrapped[id(value)])
    _count_jet_kernels(tracer, modules["jets"].Jet)
    _trace_geometry_class(tracer, modules["geometry"].GeometryAtPoint)
    return modules["cli"]


def main(argv):
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(cli_args)
    tracer.save(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
