"""Microbenchmark of the jet product kernel at the four (dim, order)
sizes the workloads use, checked against an independent oracle.

    PYTHONPATH=src python3 perfbench/kernel.py SEED

Prints one JSON object: microseconds per product for each size (the
median over timed batches) and whether every timed product matched the
oracle. The oracle multiplies truncated polynomials over exponent
tuples, reading and writing coefficients by monomial, so it shares no
code with the kernel's index tables.
"""

import itertools
import json
import sys
import time

import numpy as np

from starquant.jets import Jet, jet_space

# (dim, order) of the Hamilton flow, the Lagrange flow, inspect and star
SIZES = {"d2o1": (2, 1), "d2o2": (2, 2), "d4o5": (4, 5), "d4o7": (4, 7)}
PAIRS = 4  # distinct random operand pairs per size
BATCHES = 15
BATCH_S = 0.02  # target length of one timed batch
TOL = 1e-12


def random_jet(rng, space):
    return Jet(space, rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size))


def oracle_product(a, b, dim, order):
    """{exponent tuple: coefficient} of the truncated product."""
    monos = [m for m in itertools.product(range(order + 1), repeat=dim) if sum(m) <= order]
    ca = {m: a.coefficient(m) for m in monos}
    cb = {m: b.coefficient(m) for m in monos}
    out = dict.fromkeys(monos, 0j)
    for ma in monos:
        room = order - sum(ma)
        for mb in monos:
            if sum(mb) <= room:
                out[tuple(x + y for x, y in zip(ma, mb))] += ca[ma] * cb[mb]
    return out


def matches(jet, expected):
    scale = max(1.0, max(abs(v) for v in expected.values()))
    return all(abs(jet.coefficient(m) - v) <= TOL * scale for m, v in expected.items())


def time_size(rng, dim, order):
    """(median us per product, all products correct) for one size."""
    space = jet_space(dim, order)
    pairs = [(random_jet(rng, space), random_jet(rng, space)) for _ in range(PAIRS)]
    ok = True
    for a, b in pairs:
        ok = ok and matches(a * b, oracle_product(a, b, dim, order))
    reference = [(a * b).coeffs for a, b in pairs]
    # size the batch from one warm pass so each batch takes about BATCH_S
    t0 = time.perf_counter()
    for a, b in pairs:
        a * b
    per = (time.perf_counter() - t0) / PAIRS
    rounds = max(1, int(BATCH_S / (per * PAIRS)))
    samples = []
    for _ in range(BATCHES):
        out = []
        t0 = time.perf_counter()
        for _ in range(rounds):
            for a, b in pairs:
                out.append(a * b)
        samples.append((time.perf_counter() - t0) / len(out) * 1e6)
        ok = ok and all(np.array_equal(jet.coeffs, reference[k % PAIRS])
                        for k, jet in enumerate(out))
    return float(np.median(samples)), ok


def main(argv):
    rng = np.random.default_rng(int(argv[0]))
    result, ok = {}, True
    for tag, (dim, order) in SIZES.items():
        us, size_ok = time_size(rng, dim, order)
        result[f"jets.mul_us.{tag}"] = us
        ok = ok and size_ok
    print(json.dumps({"metrics": result, "correct": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
