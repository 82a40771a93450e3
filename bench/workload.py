"""One workload in its own process: set up, run whole rounds, save results.

Started by run.py with the checkout root as working directory:

    python3 bench/workload.py --workload NAME --seed N --seconds S --out FILE
        [--trace] [--setup-only]

It prints ``ready`` once ``import hsep`` has finished and the inputs are
generated (run.py times set-up up to that line), then runs whole rounds:
as many as fill --seconds at the nominal round length of the workload on
the reference machine (ROUND_SECONDS), and at least enough for MIN_OPS
operations.  The count depends only on --seconds, so every run of a
workload does the same amount of work, and counts such as the memory held by
the library's caches after the last round do not depend on machine speed.
Each operation is one public hsep call, timed alone; what the check needs is
read from its result outside the timed region and pickled to --out together
with the latencies, the peak resident memory and, with --trace, the
per-layer metrics.  Nothing is checked here.
"""

from __future__ import annotations

import argparse
import math
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

MIN_OPS = 100  # op_p90_ms needs ten samples beyond the 90th percentile
# Seconds one untraced round takes on the reference machine (2 cores).
ROUND_SECONDS = {"tasep_exact": 4.8, "asep_contour": 3.8, "oracles": 6.8}


def round_count(workload, seconds, ops_per_round):
    return max(round(seconds / ROUND_SECONDS[workload]), math.ceil(MIN_OPS / ops_per_round), 1)


def _import_hsep():
    sys.path.insert(0, str(ROOT / "src"))
    import hsep

    if Path(hsep.__file__).resolve().parent != ROOT / "src" / "hsep":
        raise ImportError(f"hsep was imported from {hsep.__file__}, not from this checkout")
    from hsep import asep_integral, conditional, markov_oracle, tasep_formulas
    from hsep.kernels import ModelParams

    return ModelParams, tasep_formulas, conditional, asep_integral, markov_oracle


def _masks(s_max, k_read):
    return np.array(
        [sum(1 << (s - 1) for s in c) for c in inputs.configs_upto(s_max, k_read)],
        dtype=np.int64,
    )


def prepare(op, lib):
    """(call, read): the timed public call, and the read-out of what the check
    needs from its result, as (payload, number of probabilities in it)."""
    ModelParams, tf, cd, ai, mo = lib
    kind = op["kind"]
    p = ModelParams(q=op.get("q", 0.0), alpha=op["alpha"], gamma=op.get("gamma", 0.0), t=op["t"])
    t = op["t"]

    def one(r):
        return float(r), 1

    if kind == "tasep":
        return (lambda: tf.tasep_transition_probability(op["y"], op["x"], t, p)), one
    if kind == "joint":
        return (lambda: tf.joint_distribution(op["y"], op["s"], t, p)), one
    if kind == "current":
        return (lambda: tf.boundary_current_probability(op["n"], op["y"], t, p)), one
    if kind == "cond":
        n, m = op["n"], len(op["y"])
        return (
            lambda: cd.conditional_distribution(op["labels"], op["thresholds"], n, m, op["y"], t, p)
        ), one
    if kind == "gt":
        return (lambda: tf.gt_pattern_sum(op["x"], op["y"], t, p)), (lambda r: ((float(r[0]), float(r[1])), 1))
    if kind == "asep":
        xs = inputs.asep_targets(op["n"])

        def read_asep(r):
            vals, diag = r
            return (np.array([vals[x] for x in xs]), float(diag["max_imag"])), len(xs)

        return (lambda: ai.asep_transition_batch(op["y"], op["n"], xs, t, p)), read_asep
    if kind == "oracle":
        def read_oracle(dist):
            vals = dist.probs[_masks(dist.s_max, op["k_read"])]
            return (dist.s_max, vals, float(dist.tail_bound)), len(vals)

        return (lambda: mo.oracle_distribution(op["y"], t, p, op["s_max"])), read_oracle
    if kind in ("mc", "mc_repeat"):
        return (
            lambda: mo.simulate(op["y"], t, p, op["n_traj"], op["mc_seed"])
        ), (lambda emp: (dict(emp.counts), inputs.MC_TARGETS))
    raise ValueError(f"unknown operation kind {kind!r}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    lib = _import_hsep()
    first = inputs.make_round(args.workload, args.seed, 0)
    count = round_count(args.workload, args.seconds, len(first))
    rounds = [first] + [inputs.make_round(args.workload, args.seed, r) for r in range(1, count)]
    prepared = [[prepare(op, lib) for op in ops] for ops in rounds]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()

    records = []  # (round, index, error or None, seconds, payload, values)
    round_seconds = []
    for rnd, ops in enumerate(prepared):
        busy = 0.0
        for idx, (call, read) in enumerate(ops):
            span = tracer.begin("op." + rounds[rnd][idx]["kind"]) if tracer else None
            t0 = time.perf_counter()
            try:
                result = call()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, "".join(traceback.format_exception_only(exc)).strip()
            t1 = time.perf_counter()
            if tracer:
                tracer.end(span)
            busy += t1 - t0
            payload, values = read(result) if error is None else (None, 0)
            records.append((rnd, idx, error, t1 - t0, payload, values))
        round_seconds.append(busy)

    out = {
        "records": records,
        "round_seconds": round_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": tracer.per_layer(len(round_seconds)) if tracer else None,
    }
    if tracer:
        tracer.save(str(Path(args.out).with_suffix(".spans.npz")))
    with open(args.out, "wb") as fh:
        pickle.dump(out, fh)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
