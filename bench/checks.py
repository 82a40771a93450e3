"""Checks of every value a run read, against the independent reference.

The checker regenerates each round's operations from the seed (inputs.py),
evolves the reference chains they need (reference.py) and compares.  It
never imports hsep.  Tolerances (absolute):

* Pfaffian transition, joint and boundary-current probabilities: 1e-9
* GT sums: 1e-8
* conditional distributions: 1e-6, against the reference conditioned on
  |X_t| = N
* contour integrals: 1e-6; t = 0 batches: delta_{x,y} within 1e-7
* oracle probabilities: the oracle's own tail_bound plus 1e-12
* Monte Carlo: 5 standard errors of the reference probability on the
  MC_TARGETS most probable configurations, and a repeated call with the same
  seed and batch must give identical counts

Each reference tolerance is widened by the mass the reference truncation
removed (its bound), which the cutoffs keep below 1e-13 (3e-12 for the Monte
Carlo reference at gamma > 0).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import inputs
from reference import Chain, poisson_reach

TOL = {"tasep": 1e-9, "joint": 1e-9, "current": 1e-9, "gt": 1e-8, "cond": 1e-6,
       "asep": 1e-6, "t0": 1e-7, "oracle": 1e-12}
MC_SIGMAS = 5.0
TASEP_CAP = 4  # the most particles any tasep_exact operation asks about
ASEP_CAP = 3
MC_EXTRA = 4  # particles beyond the initial ones kept by the Monte Carlo reference


def _sites(op):
    out = [1]
    for key in ("y", "x", "s"):
        out.extend(op.get(key, ()))
    return max(out)


class Report:
    def __init__(self):
        self.failures = []
        self.worst_abs_err = 0.0
        self.worst_mc_sigmas = 0.0

    def value(self, where, got, want, tol):
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
        self.worst_abs_err = max(self.worst_abs_err, err)
        if not err <= tol:
            self.failures.append(f"{where}: |error| {err:.3e} > {tol:.3e}")

    def fail(self, where, what):
        self.failures.append(f"{where}: {what}")


def _tasep(rep, ops, got):
    points = defaultdict(list)
    for i, op in enumerate(ops):
        if i in got:
            points[(op["alpha"], op["t"])].append(i)
    for (alpha, t), idxs in points.items():
        sources = sorted({tuple(ops[i]["y"]) for i in idxs})
        s_max = max(_sites(ops[i]) for i in idxs) + poisson_reach(t)
        ev = Chain(0.0, alpha, 0.0, s_max, TASEP_CAP).evolve(sources, t)
        for i in idxs:
            op, val = ops[i], got[i]
            y = op["y"]
            where = f"{op['kind']} #{i} alpha={alpha} t={t} y={y}"
            slack = ev.bound(y)
            kind = op["kind"]
            if kind == "tasep":
                rep.value(where + f" x={op['x']}", val, ev.prob(y, op["x"]), TOL[kind] + slack)
            elif kind == "joint":
                rep.value(where + f" s={op['s']}", val, ev.joint(y, op["s"]), TOL[kind] + slack)
            elif kind == "current":
                rep.value(where + f" n={op['n']}", val, ev.count_prob(y, op["n"]), TOL[kind] + slack)
            elif kind == "gt":
                rep.value(where + f" x={op['x']}", val[0], ev.prob(y, op["x"]), TOL[kind] + slack)
            elif kind == "cond":
                want = ev.conditional(y, op["n"], op["labels"], op["thresholds"])
                slack /= ev.count_prob(y, op["n"])
                rep.value(where + f" n={op['n']} labels={op['labels']} a={op['thresholds']}",
                          val, want, TOL[kind] + slack)


def _asep(rep, ops, got):
    groups = defaultdict(list)
    for i, op in enumerate(ops):
        if i in got:
            groups[(op["q"], op["alpha"], op["t"])].append(i)
    for (q, alpha, t), idxs in groups.items():
        ev = None
        if t > 0.0:
            sources = sorted({tuple(ops[i]["y"]) for i in idxs})
            s_max = max(inputs.ASEP_SITES, *(_sites(ops[i]) for i in idxs)) + poisson_reach(t)
            ev = Chain(q, alpha, 0.0, s_max, ASEP_CAP).evolve(sources, t)
        for i in idxs:
            op = ops[i]
            vals, _max_imag = got[i]
            xs = inputs.asep_targets(op["n"])
            y = tuple(op["y"])
            where = f"asep #{i} {op['path']} q={q} alpha={alpha} t={t} y={y} n={op['n']}"
            if ev is None:
                want = [1.0 if x == y else 0.0 for x in xs]
                rep.value(where, vals, want, TOL["t0"])
            else:
                want = [ev.prob(y, x) for x in xs]
                rep.value(where, vals, want, TOL["asep"] + ev.bound(y))


def _oracle_reference(q, alpha, gamma, t, y, s_max, k_read):
    if gamma == 0.0:
        s_ref = max(s_max, _sites({"y": y}) + poisson_reach(t))
        return Chain(q, alpha, gamma, s_ref, k_read).evolve([y], t)
    # the particle count can fall: keep every count on the oracle's lattice
    return Chain(q, alpha, gamma, s_max, s_max).evolve([y], t)


def _oracles(rep, ops, got):
    last_mc = None
    for i, op in enumerate(ops):
        if i not in got:
            continue
        y = tuple(op["y"])
        q, alpha, gamma, t = op["q"], op["alpha"], op["gamma"], op["t"]
        where = f"{op['kind']} #{i} q={q} alpha={alpha} gamma={gamma} t={t} y={y}"
        if op["kind"] == "oracle":
            s_max, vals, tail = got[i]
            ev = _oracle_reference(q, alpha, gamma, t, y, s_max, op["k_read"])
            want = []
            for k in range(op["k_read"] + 1):
                want.append(ev.probs[ev.chain.indices(inputs.configs(s_max, k)), 0])
            rep.value(where + f" s_max={s_max}", vals, np.concatenate(want),
                      tail + ev.bound(y) + TOL["oracle"])
            continue
        counts = got[i]
        if op["kind"] == "mc_repeat":
            if last_mc is None or counts != last_mc:
                rep.fail(where, "the same seed and batch gave different counts")
        last_mc = counts
        chain = Chain(q, alpha, gamma, _sites({"y": y}) + poisson_reach(t), len(y) + MC_EXTRA)
        ev = chain.evolve([y], t)
        col = ev.probs[: chain.n_states, 0]
        bound = ev.bound(y)
        n = op["n_traj"]
        for idx in np.argsort(-col, kind="stable")[: inputs.MC_TARGETS]:
            k = int(np.searchsorted(chain.offsets, idx, side="right") - 1)
            sites = chain.positions[k][idx - chain.offsets[k]]
            mask = sum(1 << (int(s) - 1) for s in sites)
            p_ref = float(col[idx])
            p_mc = counts.get(mask, 0) / n
            se = np.sqrt(max(p_ref * (1.0 - p_ref), 1.0 / n) / n)
            rep.worst_mc_sigmas = max(rep.worst_mc_sigmas, abs(p_mc - p_ref) / se)
            if not abs(p_mc - p_ref) <= MC_SIGMAS * se + bound:
                rep.fail(where + f" x={tuple(int(s) for s in sites[::-1])}",
                         f"Monte Carlo {p_mc:.5f} vs reference {p_ref:.5f} (stderr {se:.1e})")


CHECKERS = {"tasep_exact": _tasep, "asep_contour": _asep, "oracles": _oracles}


def check(workload, seed, records, report=None):
    """Check every record of a run; returns the Report (failures empty = pass)."""
    rep = report or Report()
    by_round = defaultdict(dict)
    for rnd, idx, error, _seconds, payload, _values in records:
        if error is None:
            by_round[rnd][idx] = payload
    for rnd, got in sorted(by_round.items()):
        CHECKERS[workload](rep, inputs.make_round(workload, seed, rnd), got)
    return rep
