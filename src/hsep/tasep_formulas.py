"""Pfaffian formulas for the totally asymmetric half-line process (q = 0).

Transition probabilities from empty and general (well separated) initial
data, joint threshold distributions, the particle-number (boundary current)
probability, and the Gelfand-Tsetlin decomposition of the transition
probability as a sum of Pfaffian weights over interlacing patterns.

Parity note: the odd-parity (N+M odd) assemblies carry a prefactor alpha
that the even ones do not (the p-column absorbs one boundary-rate factor,
not two like the Q block); both parities are validated against the Markov
oracle throughout the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import (
    ModelParams,
    kernel_Q,
    kernel_U,
    kernel_Xi,
    kernel_p,
)
from .markov_oracle import as_config
from .pfaffian import pfaffian

__all__ = [
    "require_well_separated",
    "tasep_transition_probability",
    "joint_distribution",
    "boundary_current_probability",
    "GTPattern",
    "PatternCapError",
    "enumerate_gt_patterns",
    "gt_pattern_sum",
    "w_measure",
    "suggest_z_max",
]

_IMAG_TOL = 1e-9


def _real(value, what="Pfaffian value"):
    v = complex(value)
    if abs(v.imag) > _IMAG_TOL * max(1.0, abs(v)):
        raise ArithmeticError(f"{what} has imaginary part {v.imag:g}")
    return v.real


def require_well_separated(y, n):
    """The Pfaffian formulas with M > 0 need y_M > N - M + 1."""
    y = as_config(y)
    m = len(y)
    if m > n:
        raise ValueError("more initial than final particles (probability 0)")
    if m > 0 and y[-1] <= n - m + 1:
        raise ValueError(
            f"initial data must satisfy y_M > N-M+1 (= {n - m + 1}); the "
            "Pfaffian formula is outside its validity domain"
        )
    return y


def _assemble(qblock, pvec, ublock):
    """Skew matrix [[Q, p, U], [-p^T, 0, 0], [-U^T, 0, 0]] (p, U optional)."""
    n = qblock.shape[0]
    m = ublock.shape[1] if ublock is not None else 0
    extra = (1 if pvec is not None else 0) + m
    dim = n + extra
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:n, :n] = qblock
    col = n
    if pvec is not None:
        mat[:n, col] = pvec
        mat[col, :n] = -pvec
        col += 1
    if m:
        mat[:n, col:] = ublock
        mat[col:, :n] = -ublock.T
    return mat


def _blocks(x, y, params, shift=0):
    """Kernel blocks with the standard index reversal built in.

    [Q]_{i,j} = Q_{i+shift, j+shift}(x_{N-i+1}, x_{N-j+1}) and analogously for
    p and U; shift = 0 gives the transition probability, shift = 1 the joint
    distribution (threshold) variant.
    """
    n, m = len(x), len(y)
    qb = np.zeros((n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, i):
            v = kernel_Q(i + shift, j + shift, x[n - i], x[n - j], params)
            qb[i - 1, j - 1] = v
            qb[j - 1, i - 1] = -v
    pv = np.array(
        [kernel_p(i + shift, x[n - i], params) for i in range(1, n + 1)]
    )
    ub = np.zeros((n, m), dtype=complex)
    for i in range(1, n + 1):
        for k in range(1, m + 1):
            ub[i - 1, k - 1] = kernel_U(
                i - k + shift, x[n - i] - y[m - k], n - m, params
            )
    return qb, pv, ub


def _pfaffian_value(x, y, params, shift=0):
    n, m = len(x), len(y)
    qb, pv, ub = _blocks(x, y, params, shift=shift)
    odd = (n + m) % 2 == 1
    mat = _assemble(qb, pv if odd else None, ub if m else None)
    prefactor = (-1.0) ** math.comb(n, 2) * math.exp(-params.alpha * params.t)
    if odd:
        prefactor *= params.alpha
    return prefactor * pfaffian(mat)


def tasep_transition_probability(y, x, t, params: ModelParams):
    """P_t(y -> x) for the half-line TASEP via the Schuetz-type Pfaffian.

    Requires q = gamma = 0 and, for M > 0, the separation y_M > N - M + 1.
    """
    params.require_tasep()
    if params.t != t:
        params = ModelParams(q=0.0, alpha=params.alpha, gamma=0.0, t=t)
    x = as_config(x)
    n = len(x)
    y = require_well_separated(y, n)
    if n == 0:
        return math.exp(-params.alpha * t)
    return _real(_pfaffian_value(x, y, params, shift=0))


def joint_distribution(y, s, t, params: ModelParams):
    """P(X_t(k) >= s_k for all k and |X_t| = N | X_0 = y).

    s must be strictly decreasing with s_N >= 1; uses the shifted-index
    Pfaffian (kernels Q_{i+1,j+1}, p_{i+1}, U_{i-k+1} at the thresholds).
    """
    params.require_tasep()
    s = as_config(s)
    n = len(s)
    y = require_well_separated(y, n)
    if n == 0:
        raise ValueError("need at least one threshold")
    return _real(_pfaffian_value(s, y, params, shift=1))


def boundary_current_probability(n, y, t, params: ModelParams):
    """P(|X_t| = n | X_0 = y): the joint distribution at s_1 = ... = s_n = 1.

    All thresholds equal 1; the row-reduced form of the joint distribution
    stays valid there even though the s_k are no longer strictly decreasing.
    """
    params.require_tasep()
    y = require_well_separated(y, n)
    if n == 0:
        if len(y) > 0:
            return 0.0
        return math.exp(-params.alpha * t)
    s = tuple([1] * n)
    return _real(_pfaffian_value(s, y, params, shift=1))


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin decomposition
# ---------------------------------------------------------------------------


class GTPattern:
    """Triangular array z_i^k (1 <= i <= k <= N) with interlacing rows.

    Interlacing: z_i^(k+1) < z_i^k <= z_(i+1)^(k+1); when anchored at x the
    left edge satisfies z_1^k = x_k.
    """

    def __init__(self, rows):
        self.rows = [tuple(r) for r in rows]
        n = len(self.rows)
        for k, r in enumerate(self.rows, start=1):
            if len(r) != k:
                raise ValueError("row k must have k entries")
        for k in range(n - 1):
            upper, lower = self.rows[k], self.rows[k + 1]
            for i in range(k + 1):
                if not (lower[i] < upper[i] <= lower[i + 1]):
                    raise ValueError("rows do not interlace")

    @property
    def size(self):
        return len(self.rows)

    @property
    def top(self):
        return self.rows[-1]

    def left_edge(self):
        return tuple(r[0] for r in self.rows)


def is_interlacing(rows):
    """Boolean interlacing test on raw rows (no exceptions)."""
    for k in range(len(rows) - 1):
        upper, lower = rows[k], rows[k + 1]
        for i in range(len(upper)):
            if not (lower[i] < upper[i] <= lower[i + 1]):
                return False
    return True


class PatternCapError(RuntimeError):
    """The GT enumeration would exceed its pattern cap."""


def enumerate_gt_patterns(x, z_max, cap=10**7):
    """All GT patterns with left edge x (decreasing) and entries <= z_max.

    Depth-first over rows; raises if the count would exceed cap.
    """
    x = as_config(x)
    n = len(x)
    if n == 0:
        yield GTPattern([])
        return
    count = 0

    def extend(rows):
        nonlocal count
        k = len(rows)
        if k == n:
            count += 1
            if count > cap:
                raise PatternCapError(f"more than {cap} GT patterns; lower z_max or raise cap")
            yield GTPattern(rows)
            return
        # build row k+1 (length k+1): first entry pinned to x_{k+1}
        prev = rows[-1] if rows else ()
        row = [x[k]]

        def fill(i):
            # choose entry i (0-based) of the new row, i >= 1
            if i == k + 1:
                if not rows or all(
                    row[j] < prev[j] <= row[j + 1] for j in range(k)
                ):
                    yield from extend(rows + [tuple(row)])
                return
            lo = prev[i - 1]  # z_i^k <= z_{i+1}^{k+1}
            hi = prev[i] - 1 if i < k else z_max  # interior also < z_{i+1}^k
            for v in range(lo, hi + 1):
                row.append(v)
                yield from fill(i + 1)
                row.pop()

        yield from fill(1)

    yield from extend([])


def suggest_z_max(x, t, margin=1e-13):
    """Entry cutoff: top-row weights decay on the Poisson tail of e^(tw)."""
    top = max(x) if x else 1
    k = 0
    term = math.exp(-t)
    acc = term
    while 1.0 - acc > margin and k < 500:
        k += 1
        term *= t / k
        acc += term
    return top + k + 4


def _gt_summand(zrow, y, n, params):
    """Pfaffian weight of one pattern: Psi block, Xi columns (M > 0), and the
    p-column augmentation when N + M is odd (M = 0 only)."""
    m = len(y)
    nn = len(zrow)
    psi = np.zeros((nn, nn), dtype=complex)
    for i in range(nn):
        for j in range(i + 1, nn):
            v = kernel_Q(1, 1, zrow[i], zrow[j], params)
            psi[i, j] = v
            psi[j, i] = -v
    if m:
        xib = np.zeros((nn, m), dtype=complex)
        for i in range(nn):
            for k in range(1, m + 1):
                xib[i, k - 1] = kernel_Xi(n, k, y[k - 1], zrow[i], params)
        return _assemble(psi, None, xib)
    if nn % 2 == 1:
        pv = np.array([kernel_p(1, z, params) for z in zrow])
        return _assemble(psi, pv, None)
    return _assemble(psi, None, None)


def gt_pattern_sum(x, y, t, params: ModelParams, z_max=None, cap=10**7):
    """Transition probability as a sum of Pfaffian weights over GT patterns.

    Returns (value, remainder_estimate): the remainder is the total absolute
    weight of patterns touching the z_max boundary layer (the kernels decay
    super-exponentially, so this bounds the truncation honestly).
    N + M even per the decomposition; the N odd, M = 0 case uses the p-column
    augmentation of the odd transition-probability Pfaffian.
    """
    params.require_tasep()
    x = as_config(x)
    n = len(x)
    y = require_well_separated(y, n)
    m = len(y)
    if m and (n + m) % 2 == 1:
        raise ValueError("GT decomposition with M > 0 needs N + M even")
    if z_max is None:
        z_max = suggest_z_max(x, t)
    sign = (-1.0) ** math.comb(n, 2) * math.exp(-params.alpha * t)
    if (n + m) % 2 == 1:
        sign *= params.alpha
    total = 0.0
    boundary = 0.0
    for pat in enumerate_gt_patterns(x, z_max, cap=cap):
        w = _real(pfaffian(_gt_summand(pat.top, y, n, params)), "GT weight")
        total += w
        if any(v >= z_max for v in pat.top):
            boundary += abs(w)
    return sign * total, abs(sign) * boundary


def w_measure(rows, y, n, params: ModelParams):
    """The triangular-array measure: product of interlacing-indicator
    determinants times the Pfaffian block of the top row.

    rows is a full triangular array (list of rows, row k of length k); the
    measure vanishes off GT patterns whenever the left edge is strictly
    decreasing.  N + M must be even.
    """
    params.require_tasep()
    y = as_config(y)
    m = len(y)
    if (n + m) % 2 == 1:
        raise ValueError("the measure is defined for N + M even")
    rows = [tuple(r) for r in rows]
    if len(rows) != n:
        raise ValueError("need N rows")
    det_prod = 1.0
    for k in range(1, n + 1):
        # phi_k block: rows are z^{k-1} entries plus the virtual dagger row
        # (all ones), columns the k entries of row k.
        mat = np.zeros((k, k))
        prev = rows[k - 2] if k >= 2 else ()
        for i in range(k - 1):
            for j in range(k):
                mat[i, j] = 1.0 if prev[i] <= rows[k - 1][j] else 0.0
        mat[k - 1, :] = 1.0
        det_prod *= np.linalg.det(mat)
    pf = pfaffian(_gt_summand(rows[-1], y, n, params))
    return det_prod * pf
