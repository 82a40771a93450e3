"""Seeded inputs of the three workloads.

A run is a sequence of rounds.  Round r of workload w under seed s is drawn
from its own generator, keyed by (w, s, r), so the benchmark process and the
checker regenerate exactly the same operations without sharing state, and
every round holds the same kinds of operation in the same order.  Inputs are
plain tuples and floats; the library never sees the seed.
"""

from __future__ import annotations

import random
from itertools import combinations

# tasep_exact: one parameter point per alpha stratum, including the pole
# collisions alpha = 0.5 and alpha = 1, each with its own t slot.  The slots
# are jittered so that no point repeats within a process.  The pairing is
# fixed because the cost of a point depends on (alpha, t): so every round
# costs about the same.
ALPHA_STRATA = ((0.2, 0.5), 0.5, (0.5, 1.0), 1.0, (1.0, 1.6))
T_SLOTS = (2.2, 0.9, 2.9, 1.5, 0.4)
T_JITTER = 0.02
GENERAL_NM = ((1, 1), (2, 1), (3, 2), (4, 2), (3, 3), (4, 3))
# (N, M, extra separation).  Left out because hsep gets them wrong today (see
# the FOUND lines in CHANGES.md): N = 4, M = 0 at the t = 0.4 and 0.9 slots,
# which conditional_distribution can refuse with a skew-biorthogonality residual
# above 1e-9, and N = 4, M = 2 with y_2 = 4, where it can return values
# 3e-5 off.
CONDITIONAL_NM = ((2, 0, 0), (3, 1, 0), (4, 0, 0), (2, 2, 0), (4, 2, 1))
CONDITIONAL_40_MIN_T = 1.5
GT3_X = (4, 2, 1)

# asep_contour: every target with n particles on sites 1..ASEP_SITES.  At
# q = 0.3 and alpha above about 1.49 the N = 3 doubling path needs 192 nodes
# per dimension (8-10 s and 490 MB an operation), so alpha stays below 1.4;
# on the Richardson path y = (y1, 1) stays at y1 <= 6 because its error
# passes 1e-6 at t = 2 for y1 = 8 (see CHANGES.md).
ASEP_SITES = 8
ASEP_ALPHA = (0.2, 1.4)
RICHARDSON_MAX_Y1 = 6
ASEP_TIMES = (0.3, 1.0, 2.0)
ASEP_QS = (0.3, 0.7)

# oracles: (label, q, gamma, t, s_max, number of y).  The small sets use
# s_max = 13 = default_cutoff((3,), 0.4), the library's own cutoff for their
# top site and time, and draw y from the subsets of {1, 2, 3}, so that the
# many cheap calls all cost about the same and the median latency falls
# inside their cluster.
ORACLE_SETS = (
    ("big", 0.0, 0.0, 0.8, 20, 2),
    ("q", 0.3, 0.0, 1.0, 16, 3),
    ("gamma", 0.0, 0.2, 1.0, 16, 3),
    ("q_gamma", 0.3, 0.2, 0.6, 16, 3),
    ("small_gamma", 0.0, 0.2, 0.4, 13, 7),
    ("small_q", 0.3, 0.0, 0.4, 13, 7),
    ("small_q_gamma", 0.3, 0.2, 0.4, 13, 7),
    ("small_gamma_b", 0.0, 0.2, 0.4, 13, 7),
    ("small_q_b", 0.3, 0.0, 0.4, 13, 7),
    ("small_q_gamma_b", 0.3, 0.2, 0.4, 13, 7),
)
SMALL_YS = tuple(tuple(sorted(c, reverse=True)) for k in range(4) for c in combinations((1, 2, 3), k))
# (q, gamma, alpha stratum): the cost of a simulation grows with alpha
MC_SETS = (
    (0.0, 0.0, (0.2, 0.55)),
    (0.3, 0.0, (0.55, 0.9)),
    (0.0, 0.2, (0.9, 1.25)),
    (0.3, 0.2, (1.25, 1.6)),
)
MC_T = 1.0
MC_TRAJECTORIES = 100_000
MC_TARGETS = 6  # most probable configurations under the reference

WORKLOADS = ("tasep_exact", "asep_contour", "oracles")


def _rng(workload, seed, rnd):
    return random.Random(f"hsep-bench/{workload}/{seed}/{rnd}")


def _decreasing(rng, n, lo, hi):
    return tuple(sorted(rng.sample(range(lo, hi + 1), n), reverse=True))


def _separated(rng, n, m, span=4, extra=0):
    """y with m particles and y_m > n - m + 1 (the Pfaffian validity domain)."""
    lo = n - m + 2 + extra
    return _decreasing(rng, m, lo, lo + m - 1 + span)


def _target(rng, y, n):
    """An n-particle x the process started at y can reach."""
    x = []
    prev = None
    for yk in y:
        hi = yk + 2 if prev is None else min(yk + 2, prev - 1)
        prev = rng.randint(yk, hi)
        x.append(prev)
    top = prev - 1 if prev is not None else n + 4
    return tuple(x) + _decreasing(rng, n - len(y), 1, top)


def _alpha(rng, stratum):
    if isinstance(stratum, tuple):
        return round(rng.uniform(*stratum), 6)
    return stratum


def tasep_round(rng):
    ops = []
    for stratum, t0 in zip(ALPHA_STRATA, T_SLOTS):
        alpha = _alpha(rng, stratum)
        t = round(t0 + rng.uniform(0.0, T_JITTER), 6)
        pt = {"alpha": alpha, "t": t}
        for n in range(1, 5):
            for _ in range(2):
                ops.append({"kind": "tasep", **pt, "y": (), "x": _decreasing(rng, n, 1, n + 4)})
        for n, m in GENERAL_NM:
            y = _separated(rng, n, m)
            ops.append({"kind": "tasep", **pt, "y": y, "x": _target(rng, y, n)})
        ops.append({"kind": "joint", **pt, "y": (), "s": _decreasing(rng, 2, 1, 5)})
        ops.append({"kind": "joint", **pt, "y": _separated(rng, 3, 1), "s": _decreasing(rng, 3, 1, 6)})
        ops.append({"kind": "current", **pt, "y": (), "n": 2})
        ops.append({"kind": "current", **pt, "y": _separated(rng, 3, 1), "n": 3})
        for n, m, extra in CONDITIONAL_NM:
            if (n, m) == (4, 0) and t0 < CONDITIONAL_40_MIN_T:
                continue
            y = _separated(rng, n, m, extra=extra) if m else ()
            labels = tuple(sorted(rng.sample(range(1, n + 1), 2)))
            # four threshold points in all: one Pfaffian size per family
            a = rng.randint(1, 3)
            thr = (a, 4 - a)
            ops.append({"kind": "cond", **pt, "n": n, "y": y, "labels": labels, "thresholds": thr})
        ops.append({"kind": "gt", **pt, "y": (), "x": _decreasing(rng, 2, 1, 5)})
        y = _separated(rng, 2, 2)
        ops.append({"kind": "gt", **pt, "y": y, "x": _target(rng, y, 2)})
        # the pattern count, and so the cost, grows fast with x: one shape
        ops.append({"kind": "gt", **pt, "y": (), "x": GT3_X})
    return ops


def asep_round(rng, rnd):
    ops = []
    for i, t in enumerate(ASEP_TIMES):
        q = ASEP_QS[(rnd + i) % 2]
        alpha = round(rng.uniform(*ASEP_ALPHA), 6)
        pt = {"kind": "asep", "path": "doubling", "q": q, "alpha": alpha, "t": t}
        for n, m in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 2)):
            ops.append({**pt, "n": n, "y": _decreasing(rng, m, 1, ASEP_SITES)})
        alpha = round(rng.uniform(*ASEP_ALPHA), 6)
        pt = {"kind": "asep", "path": "richardson", "q": 0.0, "alpha": alpha, "t": t}
        # non-separated initial data: y_m <= n - m + 1
        ops.append({**pt, "n": 1, "y": (1,)})
        ops.append({**pt, "n": 2, "y": (rng.randint(1, 2),)})
        ops.append({**pt, "n": 2, "y": (rng.randint(2, RICHARDSON_MAX_Y1), 1)})
        ops.append({**pt, "n": 3, "y": (rng.randint(1, 3),)})
    # one t = 0 batch, costing what the n = 2, M = 2 batches above cost, so
    # that the median latency falls inside that cluster
    q = ASEP_QS[rnd % 2]
    alpha = round(rng.uniform(*ASEP_ALPHA), 6)
    ops.append({"kind": "asep", "path": "t0", "q": q, "alpha": alpha, "t": 0.0,
                "n": 2, "y": _decreasing(rng, 2, 1, ASEP_SITES)})
    return ops


def oracle_round(rng):
    ops = []
    for label, q, gamma, t, s_max, ny in ORACLE_SETS:
        alpha = round(rng.uniform(0.2, 1.6), 6)
        if label.startswith("small"):
            ys = rng.sample(SMALL_YS, ny)
        else:
            # the big and mid sets share the top site 3, and so their cost
            ys = [(3,), (3, rng.randint(1, 2)), (3, 2, 1)][:ny]
        for y in ys:
            ops.append(
                {"kind": "oracle", "set": label, "q": q, "alpha": alpha, "gamma": gamma,
                 "t": t, "s_max": s_max, "y": y, "k_read": len(y) + 2}
            )
    for q, gamma, stratum in MC_SETS:
        ops.append(
            {"kind": "mc", "q": q, "alpha": _alpha(rng, stratum), "gamma": gamma, "t": MC_T,
             "y": _decreasing(rng, 1, 1, 3),
             "n_traj": MC_TRAJECTORIES, "mc_seed": rng.randrange(2**32)}
        )
    # the same call again: a fixed seed and batch must reproduce the counts
    ops.append({**ops[-1], "kind": "mc_repeat"})
    return ops


def make_round(workload, seed, rnd):
    rng = _rng(workload, seed, rnd)
    if workload == "tasep_exact":
        return tasep_round(rng)
    if workload == "asep_contour":
        return asep_round(rng, rnd)
    if workload == "oracles":
        return oracle_round(rng)
    raise ValueError(f"unknown workload {workload!r}")


def configs(s_max, k):
    """Ascending site tuples with k particles on 1..s_max."""
    return list(combinations(range(1, s_max + 1), k))


def configs_upto(s_max, k_max):
    """Ascending site tuples with at most k_max particles on 1..s_max, in the
    order the oracle read-out and its check share."""
    return [c for k in range(k_max + 1) for c in configs(s_max, k)]


def asep_targets(n):
    """Every n-particle configuration on sites 1..ASEP_SITES, as hsep takes it."""
    return [c[::-1] for c in configs(ASEP_SITES, n)]
