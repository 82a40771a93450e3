"""The acceptance criteria: one registry behind `hsep verify` and the tests.

Each check runs one acceptance criterion on fixed inputs (fixed RNG seeds) and
returns rows (name, residual, threshold); a row passes when its residual is
at or below its threshold, or is exactly zero when the threshold is 0.
Runtime budgets, oracle tail bounds and Monte Carlo reproducibility are rows
too, so a failure is reported rather than raised.  `CHECKS` tags each check
`quick` or `full`: `hsep verify --level quick` runs the quick ones in
seconds, and `--level full` runs all thirteen, which is what
`tests/test_acceptance.py` runs.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from itertools import combinations

import mpmath as mp
import numpy as np

from . import asep_integral as ai
from . import conditional as cond
from . import kernels as ker
from . import markov_oracle as orc
from . import tasep_formulas as tf
from .kernels import ModelParams
from .pfaffian import (
    identity_suite,
    skew_borel,
    skew_borel_explicit_inverse,
    stembridge_pfaffian_pair,
)

__all__ = ["CHECKS", "evaluate", "format_row", "run_checks"]

Check = namedtuple("Check", "name level fn")


def _configs(max_site, n):
    return [tuple(sorted(c, reverse=True)) for c in combinations(range(1, max_site + 1), n)]


def _asep_oracle_equivalence():
    t_start = time.perf_counter()
    worst, tail = 0.0, 0.0
    by_n = {n: _configs(6, n) for n in range(4)}
    for q in (0.0, 0.3, 0.7):
        for alpha in (0.4, 1.2):
            for t in (0.3, 1.0):
                params = ModelParams(q=q, alpha=alpha, gamma=0.0, t=t)
                s_max = 6 + (11 if t >= 1.0 else 9)
                for m in range(0, 4):
                    for y in by_n[m]:
                        dist = orc.oracle_distribution(y, t, params, s_max)
                        tail = max(tail, dist.tail_bound)
                        for n in range(m, 4):
                            vals, _ = ai.asep_transition_batch(
                                y, n, by_n[n], t, params, nodes=24, tol=2e-7
                            )
                            for x, v in vals.items():
                                worst = max(worst, abs(v - dist.probability(x)))
    return [
        ("asep-integral-vs-oracle", worst, 1e-6),
        ("asep-oracle-tail-bound", tail, 1e-7),
        ("asep-oracle-runtime-s", time.perf_counter() - t_start, 1800),
    ]


def _tasep_pfaffian_oracle_equivalence():
    t_start = time.perf_counter()
    p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
    worst = 0.0
    for y in [(), (8,), (8, 6), (8, 6, 4), (8, 6, 4, 2)]:
        dist = orc.oracle_distribution(y, 1.0, p, s_max=20)
        for n in range(len(y), 5):
            for x in _configs(8, n):
                f = tf.tasep_transition_probability(y, x, 1.0, p)
                worst = max(worst, abs(f - dist.probability(x)))
    sum_rule = 0.0  # |1 - sum_{n<60} P(|X_5| = n)|; a refused law reads 1
    for alpha in (0.5, 1.0, 1.6):
        law = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=5.0)
        try:
            total = sum(tf.boundary_current_probability(n, (), 5.0, law) for n in range(60))
        except ArithmeticError:
            total = 0.0
        sum_rule = max(sum_rule, abs(1.0 - total))
    return [
        ("tasep-pfaffian-vs-oracle", worst, 1e-9),
        ("current-law-sum-rule", sum_rule, 1e-9),
        ("tasep-pfaffian-runtime-s", time.perf_counter() - t_start, 300),
    ]


def _t0_orthogonality():
    worst = 0.0
    for (q, alpha) in ((0.3, 0.6), (0.7, 1.2)):
        params = ModelParams(q=q, alpha=alpha, gamma=0.0, t=0.0)
        for n in (1, 2, 3):
            xs = _configs(5, n)
            for m in range(0, n + 1):
                for y in _configs(5, m):
                    vals, _ = ai.asep_transition_batch(
                        y, n, xs, 0.0, params, nodes=24, tol=2e-8
                    )
                    for x, v in vals.items():
                        worst = max(worst, abs(v - (1.0 if x == y else 0.0)))
    return [("t0-orthogonality", worst, 1e-7)]


def _eigenvector_residual():
    rng = np.random.default_rng(7)
    params = ModelParams(q=0.45, alpha=0.7, gamma=0.0, t=1.0)
    slices = {
        0: [()],
        1: [(3,), (1,)],
        2: [(4, 3), (2, 1), (5, 1)],
        3: [(5, 4, 3), (3, 2, 1), (6, 4, 1)],
    }
    worst = 0.0
    for n in range(1, 5):
        for m in range(0, min(n, 3) + 1):
            ys = slices[m]
            for rep in range(50):
                y = ys[rep % len(ys)]
                w = 0.3 + 0.25 * rng.normal(size=n) + 0.25j * rng.normal(size=n)
                worst = max(worst, ai.test_eigenvector_relation(y, w, params))
    return [("generator-eigenvector-relation", worst, 1e-9)]


def _symmetrization_identities():
    rng = np.random.default_rng(11)
    worst_fac = 0.0
    for q in (0.25, 0.6):
        for n in (2, 3, 4):
            w = 0.3 + 0.3 * rng.normal(size=n) + 0.3j * rng.normal(size=n)
            s = ai.bc_symmetrization_sum(w, q)
            worst_fac = max(worst_fac, abs(s - 1.0 / ai.V_constant(n, q)) / abs(s))
            for m in range(1, n):
                sp = ai.bc_symmetrization_sum(w, q, m_fixed=m)
                expected = 1.0 / ai.V_constant(n - m, q)
                for i in range(m):
                    for j in range(i + 1, n):
                        expected *= ai._cross(w[i], w[j], q)
                worst_fac = max(worst_fac, abs(sp - expected) / abs(expected))
    worst_f1 = 0.0
    params = ModelParams(q=0.4, alpha=0.7, gamma=0.0, t=1.0)
    for n in (1, 2, 3, 4):
        w = 0.3 + 0.3 * rng.normal(size=n) + 0.3j * rng.normal(size=n)
        v = ai.eval_F((1,), w, params)
        rhs = params.alpha ** (n - 1) * sum(
            (1 - params.q) ** 2 * wi / ((1 - wi) * (1 - params.q * wi)) for wi in w
        )
        worst_f1 = max(worst_f1, abs(v - rhs) / max(abs(rhs), 1e-12))
    return [
        ("bc-symmetrization-factorization", worst_fac, 1e-9),
        ("f-at-config-1-evaluation", worst_f1, 1e-10),
    ]


def _pfaffian_core():
    suite = identity_suite(seed=13)["checks"]
    rng = np.random.default_rng(13)
    worst_st = 0.0
    for m in range(2, 8):
        for _ in range(5):
            x = rng.uniform(-0.95, 0.95, size=m)
            lhs, rhs = stembridge_pfaffian_pair(x)
            worst_st = max(worst_st, abs(lhs - rhs))
    return [
        ("pfaffian-squared-is-det", suite["pfaffian-squared-is-det"], 1e-9),
        ("stembridge-both-parities", worst_st, 1e-10),
        ("pfaffian-identity-suite", max(suite.values()), 1e-9),
    ]


def _skew_borel():
    # moment-matrix instances; the 6x6 case is intrinsically ill-conditioned
    # (cond ~ 1e11 at every parameter choice), so the two inverse paths are
    # compared at extended precision, which validates the sub-Pfaffian
    # formula itself rather than float64 round-off
    p = ModelParams(q=0.0, alpha=1.2, gamma=0.0, t=3.0)
    worst_rec, worst_inv = 0.0, 0.0
    with mp.workdps(40):
        for n in (2, 4, 6):
            nmat = cond.moment_matrix(n, p)
            fac64 = skew_borel(nmat)
            scale = np.max(np.abs(nmat))
            worst_rec = max(
                worst_rec, np.max(np.abs(fac64.reconstruct() - nmat)) / scale
            )
            nmp = np.array([[mp.mpc(v) for v in row] for row in nmat], dtype=object)
            prod = skew_borel_explicit_inverse(nmp) @ skew_borel(nmp).r
            worst_inv = max(worst_inv, float(np.max(np.abs(prod - np.eye(n)))))
    return [
        ("skew-borel-reconstruction", worst_rec, 1e-10),
        ("skew-borel-explicit-inverse", worst_inv, 1e-9),
    ]


def _gt_decomposition():
    worst = 0.0
    p = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=0.8)
    for (x, y) in (((3, 1), ()), ((5, 2), (6, 4)), ((4, 2, 1), ())):
        v, _ = tf.gt_pattern_sum(x, y, 0.8, p)
        worst = max(worst, abs(v - tf.tasep_transition_probability(y, x, 0.8, p)))
    return [("gt-decomposition", worst, 1e-8)]


def _kernel_recurrences():
    rng = np.random.default_rng(17)
    worst = 0.0
    for alpha in (0.5, 1.3):
        p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=0.9)
        for _ in range(250):
            i, j = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            xx = s + int(rng.integers(1, 5))
            xj = int(rng.integers(1, 7))
            if rng.integers(2):
                lhs = ker.kernel_Q(i + 1, j, s, xj, p) - ker.kernel_Q(i + 1, j, xx, xj, p)
                rhs = sum(ker.kernel_Q(i, j, np.arange(s, xx), xj, p).tolist())
            else:
                lhs = ker.kernel_Q(i, j + 1, xj, s, p) - ker.kernel_Q(i, j + 1, xj, xx, p)
                rhs = sum(ker.kernel_Q(i, j, xj, np.arange(s, xx), p).tolist())
            worst = max(worst, abs(lhs - rhs))
            lhs = ker.kernel_p(i + 1, s, p) - ker.kernel_p(i + 1, xx, p)
            rhs = sum(ker.kernel_p(i, np.arange(s, xx), p).tolist())
            worst = max(worst, abs(lhs - rhs))
            nm = int(rng.integers(0, 3))
            k = int(rng.integers(-2, 3))
            lhs = ker.kernel_U(k + 1, s, nm, p) - ker.kernel_U(k + 1, xx, nm, p)
            rhs = sum(ker.kernel_U(k, np.arange(s, xx), nm, p).tolist())
            worst = max(worst, abs(lhs - rhs))
    p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=1.1)
    a, b, x, y = rng.integers([1, 1, 1, 1], [6, 6, 10, 10], size=(200, 4)).T
    anti = float(np.max(np.abs(ker.kernel_Q(a, b, x, y, p) + ker.kernel_Q(b, a, y, x, p))))
    return [
        ("kernel-finite-recurrences", worst, 1e-11),
        ("q-kernel-antisymmetry", anti, 1e-12),
    ]


def _conditional_distribution():
    p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
    worst = worst_r = 0.0
    for n, y, events in (
        (2, (), (((1,), (4,)), ((2,), (2,)), ((2,), (4,)), ((1, 2), (4, 2)), ((1, 2), (3, 3)))),
        (3, (6,), (((2,), (3,)), ((3,), (2,)), ((1, 3), (4, 2)), ((2, 3), (4, 1)))),
    ):
        dist = orc.oracle_distribution(y, 1.0, p, s_max=17)
        for labels, thr in events:
            f = cond.conditional_kernel(n, len(y), y, p).gap_probability(labels, thr)
            o, _ = orc.conditional_event_probability(dist, n, labels, thr)
            worst = max(worst, abs(f - o))
            ratio = cond.conditional_distribution(labels, thr, n, len(y), y, 1.0, p)
            worst_r = max(worst_r, abs(ratio - f))
    worst_k = 0.0
    for n, y, x_max, x1s, x2s in (
        (2, (), 16, range(1, 7), range(1, 7)),
        (3, (6,), 20, (1, 3, 5), (2, 4, 6)),
    ):
        ens = cond.correlation_kernel_bruteforce(n, len(y), y, p, x_max)
        kern = cond.conditional_kernel(n, len(y), y, p)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for x1 in x1s:
                    for x2 in x2s:
                        diff = ens.kernel_block(i, x1, j, x2) - kern.block(i, x1, j, x2)
                        worst_k = max(worst_k, np.max(np.abs(diff)))
    return [
        ("conditional-pfaffian-vs-oracle", worst, 1e-6),
        ("conditional-kernel-brute-vs-analytic", worst_k, 1e-7),
        ("conditional-ratio-vs-fredholm", worst_r, 1e-10),
    ]


def _fullspace_reduction():
    y, x = (7, 5, 2), (9, 6, 3)
    vals = []
    for alpha in (0.3, 0.9):
        p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=1.0)
        vals.append(tf.tasep_transition_probability(y, x, 1.0, p) * math.exp(alpha))
    p = ModelParams(q=0.0, alpha=0.3, gamma=0.0, t=1.0)
    # [U]_{i,j} = U_{i-j}(x_{4-i} - y_{4-j}) for i, j = 1..3
    i = np.arange(1, 4)
    det = np.linalg.det(ker.kernel_U(i[:, None] - i, np.subtract.outer(x[::-1], y[::-1]), 0, p))
    worst_fd = 0.0
    for alpha in (0.0, 0.5):
        p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=1.0)
        f_pf = cond.conditional_kernel(2, 2, (5, 3), p).gap_probability((1, 2), (6, 4))
        f_det = cond.fullspace_distribution((1, 2), (6, 4), (5, 3), 1.0)
        worst_fd = max(worst_fd, abs(f_pf - f_det))
    return [
        ("schutz-alpha-independence", max(abs(vals[0] - vals[1]), abs(vals[0] - det)), 1e-10),
        ("fullspace-pf-vs-det", worst_fd, 1e-8),
    ]


def _monte_carlo():
    t_start = time.perf_counter()
    p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=1.0)
    emp = orc.simulate((), 1.0, p, 1_000_000, seed=20260811)
    targets = [()] + [(x,) for x in range(1, 7)] + _configs(5, 2) + [(3, 2, 1), (4, 2, 1), (4, 3, 2)]
    worst_z = 0.0
    for x in targets:
        f = tf.tasep_transition_probability((), x, 1.0, p)
        worst_z = max(worst_z, abs(emp.probability(x) - f) / emp.stderr(x))
    emp2 = orc.simulate((), 1.0, p, 1_000_000, seed=20260811)
    mismatched = set(emp.counts.items()) ^ set(emp2.counts.items())
    return [
        ("monte-carlo-z-score", worst_z, 4.0),
        ("monte-carlo-repeat-count-mismatch", len(mismatched), 0),
        ("monte-carlo-runtime-s", time.perf_counter() - t_start, 600),
    ]


def _vanishing_permutation_sum():
    rng = np.random.default_rng(23)
    worst = 0.0
    for q in (0.2, 0.6):
        p = ModelParams(q=q, alpha=0.6, gamma=0.0, t=1.0)
        for n in (2, 3):
            for _ in range(3):
                x = tuple(sorted(rng.choice(range(1, 9), size=n, replace=False), reverse=True))
                y = tuple(sorted(rng.choice(range(1, 9), size=n, replace=False), reverse=True))
                worst = max(worst, ai.test_tw_vanishing_sum(x, y, p))
    return [("tw-vanishing-sum", worst, 1e-8)]


CHECKS = (
    Check("criterion_01_asep_oracle_equivalence", "full", _asep_oracle_equivalence),
    Check("criterion_02_tasep_pfaffian_oracle_equivalence", "quick", _tasep_pfaffian_oracle_equivalence),
    Check("criterion_03_t0_orthogonality", "full", _t0_orthogonality),
    Check("criterion_04_eigenvector_residual", "quick", _eigenvector_residual),
    Check("criterion_05_symmetrization_identities", "quick", _symmetrization_identities),
    Check("criterion_06_pfaffian_core", "quick", _pfaffian_core),
    Check("criterion_07_skew_borel", "quick", _skew_borel),
    Check("criterion_08_gt_decomposition", "quick", _gt_decomposition),
    Check("criterion_09_kernel_recurrences", "quick", _kernel_recurrences),
    Check("criterion_10_conditional_distribution", "quick", _conditional_distribution),
    Check("criterion_11_fullspace_reduction", "quick", _fullspace_reduction),
    Check("criterion_12_monte_carlo", "full", _monte_carlo),
    Check("criterion_13_vanishing_permutation_sum", "quick", _vanishing_permutation_sum),
)


def evaluate(check):
    """Run one check; rows of (name, residual, threshold, passed)."""
    rows = []
    for name, residual, threshold in check.fn():
        res, thr = float(residual), float(threshold)
        rows.append((name, res, thr, res <= thr if thr > 0 else res == 0.0))
    return rows


def run_checks(level="quick"):
    """Run the checks of a level; returns (rows, all_passed)."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}; use quick or full")
    rows = [
        row
        for check in CHECKS
        if level == "full" or check.level == "quick"
        for row in evaluate(check)
    ]
    return rows, all(r[3] for r in rows)


def format_row(row):
    name, residual, threshold, passed = row
    status = "PASS" if passed else "FAIL"
    return f"{name:<36}  {residual:10.3e}  (<= {threshold:g})  {status}"
