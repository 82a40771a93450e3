"""The hsep benchmark: run one workload, check it, print its metrics.

    python3 bench/run.py --workload {tasep_exact,asep_contour,oracles} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
The workload runs in its own process (workload.py) with one BLAS thread.
This process never imports hsep: it times set-up from outside, checks every
value the workload read against the independent reference (checks.py,
reference.py) and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same rounds untraced and then traced, for half the time each, and
reports the per-layer metrics.  Details of the last run of each workload go
to bench/out/.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

SETUPS = 6  # set-up-only processes; setup_s is their median with the measured one
BUDGET_SECONDS = 165.0  # every workload process is stopped by then
SELF_TEST_TOL = 1e-12


def _env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, seconds, out, deadline, trace=False, setup_only=False):
    """Run workload.py; returns the seconds from process start to 'ready'.

    The process is killed, and the error raised, if it is not ready or has
    not ended by the perf_counter() time ``deadline``."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - t0, 1.0))[0]:
            raise RuntimeError("workload process did not get ready in time")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode}): {ready}{rest}")
    return setup


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    s = sorted(values)
    return s[max(math.ceil(p / 100.0 * len(s)), 1) - 1]


def load(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def measure(workload, seed, seconds, out, deadline, trace):
    spawn(workload, seed, seconds, out, deadline, trace=trace)
    return load(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + BUDGET_SECONDS

    if not (ROOT / "src" / "hsep" / "__init__.py").is_file():
        print(f"no hsep sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-trace{args.trace}"

    self_test = reference.self_test()
    rep = checks.Report()
    for name, dev in self_test.items():
        if not dev <= SELF_TEST_TOL:
            rep.fail(f"reference self-test {name}", f"deviation {dev:.3e}")

    if args.trace == 0:
        pkl = stem.with_suffix(".pkl")
        setups = [spawn(args.workload, args.seed, 0.0, pkl, deadline, setup_only=True)
                  for _ in range(SETUPS)]
        # the measured process's own set-up, timed the same way
        setups.append(spawn(args.workload, args.seed, args.seconds, pkl, deadline))
        runs = [load(pkl)]
    else:
        half = args.seconds / 2.0
        runs = [measure(args.workload, args.seed, half, stem.with_suffix(".plain.pkl"), deadline, False),
                measure(args.workload, args.seed, half, stem.with_suffix(".pkl"), deadline, True)]

    raised = [f"round {rnd} op {idx} raised: {error}"
              for run in runs for rnd, idx, error, *_ in run["records"] if error is not None]
    attempted = sum(len(run["records"]) for run in runs)
    for run in runs:
        checks.check(args.workload, args.seed, run["records"], rep)

    if args.trace == 0:
        run = runs[0]
        ok = [r for r in run["records"] if r[2] is None]
        lat = [r[3] for r in ok]
        run_s = sum(run["round_seconds"])
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "values_per_s": sum(r[5] for r in ok) / run_s,
            "op_p50_ms": 1e3 * percentile(lat, 50),
            "op_p90_ms": 1e3 * percentile(lat, 90),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        plain, traced = runs
        metrics = dict(traced["per_layer"])
        metrics["check.worst_abs_err"] = rep.worst_abs_err
        metrics["trace.overhead_s"] = sum(traced["round_seconds"]) - sum(plain["round_seconds"])
        wanted = [m["name"] for m in spec["per_layer"]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": [len(r["round_seconds"]) for r in runs],
        "raised": raised[:50], "failures": rep.failures[:50], "worst_abs_err": rep.worst_abs_err,
        "worst_mc_sigmas": rep.worst_mc_sigmas, "reference_self_test": self_test,
    }
    stem.with_suffix(".json").write_text(json.dumps({**details, "metrics": metrics}, indent=1))
    for line in raised[:20]:
        print("FAILED:", line, file=sys.stderr)
    for line in rep.failures[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    result = {
        "correct": not rep.failures,
        "attempted": attempted,
        "failed": len(raised),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
