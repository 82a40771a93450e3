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

import itertools
import math
from collections import defaultdict

import numpy as np

from .kernels import (
    ModelParams,
    kernel_Q,
    kernel_U,
    kernel_Xi,
    kernel_p,
)
from .markov_oracle import as_config
from .pfaffian import matching_sum, pfaffian

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

_PROB_TOL = 1e-9  # how far a probability may round past 0 or 1
_Z_MAX_TAIL = 1e-13  # Poisson tail mass that suggest_z_max leaves out


def _real(value, what="Pfaffian value"):
    """A real value as a float (an array as a float64 array), refused when it
    is not finite."""
    v = np.asarray(value, dtype=float)
    if not np.isfinite(v).all():
        raise ArithmeticError(f"{what} is not finite")
    return v if v.ndim else float(v)


def _probability(value):
    """A Pfaffian probability, refused (beyond _real) when it lies outside
    [0, 1] by more than rounding: its kernel sums have lost their accuracy."""
    p = _real(value)
    if not -_PROB_TOL <= p <= 1.0 + _PROB_TOL:
        raise ArithmeticError(f"probability {p:g} lies outside [0, 1]")
    return p


def _separated(y, n):
    """y_M > N - M + 1, the Pfaffian formulas' separation (M = 0 needs none)."""
    return not y or y[-1] > n - len(y) + 1


def require_well_separated(y, n):
    """y as a configuration, refused unless M <= N and y_M > N - M + 1."""
    y = as_config(y)
    if len(y) > n:
        raise ValueError("more initial than final particles (probability 0)")
    if not _separated(y, n):
        raise ValueError(
            f"initial data must satisfy y_M > N-M+1 (= {n - len(y) + 1}); the "
            "Pfaffian formula is outside its validity domain"
        )
    return y


def _matrix(x, y, params, shift=0):
    """The skew matrix [[Q, B], [-B^T, 0]], as mat - mat.T from Q's lower
    triangle and the border B: the p column for N + M odd, then the U columns.

    [Q]_{i,j} = Q_{i+shift, j+shift}(x_{N-i+1}, x_{N-j+1}), and analogously
    for p and U; shift = 0 gives the transition probability, shift = 1 the
    joint distribution (threshold) variant.  Q's triangle and the U block
    are one block call each.
    """
    n, m = len(x), len(y)
    odd = (n + m) % 2
    mat = np.zeros((n + odd + m, n + odd + m))
    sites = np.array(x[::-1], dtype=int)
    labels = np.arange(1, n + 1) + shift
    i, j = np.tril_indices(n, -1)
    mat[i, j] = kernel_Q(labels[i], labels[j], sites[i], sites[j], params)
    if odd:
        mat[:n, n] = kernel_p(labels, sites, params)
    # [U]_{i,k} = U_{i-k+shift}(x_{N-i+1} - y_{M-k+1})
    ys = np.array(y[::-1], dtype=int)
    mat[:n, n + odd :] = kernel_U(
        labels[:, None] - np.arange(1, m + 1), sites[:, None] - ys, n - m, params
    )
    return mat - mat.T


def _prefactor(n, m, params):
    """(-1)^C(N,2) e^(-alpha t), times alpha for N + M odd: the Pfaffian's factor."""
    sign = (-1.0) ** math.comb(n, 2)
    return sign * math.exp(-params.alpha * params.t) * (params.alpha if (n + m) % 2 else 1.0)


def _pfaffian_probability(y, x, t, params, shift):
    """The Pfaffian probability at the validated sites (shift 0) or thresholds
    (shift 1) x.  M > N is exactly 0: particles never leave.  N = 0 is
    e^(-alpha t) times the empty Pfaffian, 1.
    """
    params = params.at(t)
    params.require_tasep()
    y = as_config(y)
    n, m = len(x), len(y)
    if m > n:
        return 0.0
    if not _separated(y, n):
        require_well_separated(y, n)  # refuses, naming the bound
    return _probability(_prefactor(n, m, params) * pfaffian(_matrix(x, y, params, shift)))


def tasep_transition_probability(y, x, t, params: ModelParams):
    """P_t(y -> x) for the half-line TASEP via the Schuetz-type Pfaffian.

    Requires q = gamma = 0 and, for 0 < M <= N, the separation y_M > N - M + 1.
    """
    return _pfaffian_probability(y, as_config(x), t, params, shift=0)


def joint_distribution(y, s, t, params: ModelParams):
    """P(X_t(k) >= s_k for all k and |X_t| = N | X_0 = y).

    s must be strictly decreasing with s_N >= 1 (the empty s gives
    P(|X_t| = 0)); uses the shifted-index Pfaffian (kernels Q_{i+1,j+1},
    p_{i+1}, U_{i-k+1} at the thresholds).
    """
    return _pfaffian_probability(y, as_config(s), t, params, shift=1)


def boundary_current_probability(n, y, t, params: ModelParams):
    """P(|X_t| = n | X_0 = y): the joint distribution at s_1 = ... = s_n = 1.

    All thresholds equal 1; the row-reduced form of the joint distribution
    stays valid there even though the s_k are no longer strictly decreasing.
    """
    if n < 0:
        raise ValueError(f"particle count n = {n} is negative")
    return _pfaffian_probability(y, (1,) * n, t, params, shift=1)


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
        for k, r in enumerate(self.rows, start=1):
            if len(r) != k:
                raise ValueError("row k must have k entries")
        if not is_interlacing(self.rows):
            raise ValueError("rows do not interlace")

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


def _rows_above(prev, first, z_max):
    """The rows that interlace above prev (row k + 1 over row k): z_1 = first,
    prev_(i-1) <= z_i < prev_i and prev_k <= z_(k+1) <= z_max.  A strictly
    decreasing left edge gives first < prev_1, the remaining condition."""
    bounds = [*(b - 1 for b in prev[1:]), z_max]
    return itertools.product((first,), *(range(lo, hi + 1) for lo, hi in zip(prev, bounds)))


def enumerate_gt_patterns(x, z_max, cap=10**7):
    """All GT patterns with left edge x (decreasing) and entries <= z_max.

    Depth-first over rows; raises if the count would exceed cap.
    """
    x = as_config(x)
    n = len(x)
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
        for row in _rows_above(rows[-1] if rows else (), x[k], z_max):
            yield from extend(rows + [row])

    yield from extend([])


def _top_rows(x, z_max, cap):
    """{top row: number of GT patterns with left edge x under it}.

    Built row by row: each row of layer k + 1 gets the summed counts of the
    layer-k rows it interlaces above.  Every row has a row above it, so the
    layer totals never fall and a total beyond cap already refuses the sum.
    """
    layer = {(): 1}
    for first in x:
        nxt = defaultdict(int)
        for prev, count in layer.items():
            for row in _rows_above(prev, first, z_max):
                nxt[row] += count
        layer = nxt
        if sum(layer.values()) > cap:
            raise PatternCapError(f"more than {cap} GT patterns; lower z_max or raise cap")
    return layer


def suggest_z_max(x, t):
    """Entry cutoff: top-row weights decay on the Poisson tail of e^(tw)."""
    top = max(x) if x else 1
    k = 0
    term = math.exp(-t)
    acc = term
    while 1.0 - acc > _Z_MAX_TAIL and k < 500:
        k += 1
        term *= t / k
        acc += term
    return top + k + 4


def _weights(tops, y, n, params):
    """Pfaffian weights of the (R, N) top rows, from one broadcast matching sum.

    The matrix is the Psi block Q_{1,1}(z_i, z_j), bordered by the Xi columns
    (M > 0) or, for N odd and M = 0, by the p column.  Each entry is an
    R-array: Q is one block call over the distinct (z_i, z_j) pairs of all
    column pairs, the p or Xi border is one block call over the distinct
    sites, and only the upper triangle, the one matching_sum reads, is
    written.  The matching sum has (d - 1)!! terms, d = N + M (plus 1 for odd
    N with M = 0), so it suits small d.
    """
    r = len(tops)
    sites, at = np.unique(tops, return_inverse=True)
    at = at.reshape(tops.shape)
    if y:
        ks = np.arange(1, len(y) + 1)[:, None]
        border = list(kernel_Xi(n, ks, np.array(y)[:, None], sites, params))
    else:
        border = [kernel_p(1, sites, params)] if n % 2 else []
    dim = n + len(border)
    mat = [[0.0] * dim for _ in range(dim)]
    cols = list(itertools.combinations(range(n), 2))
    if cols:
        pairs, inv = np.unique(np.concatenate([tops[:, c] for c in cols]), axis=0, return_inverse=True)
        q = kernel_Q(1, 1, pairs[:, 0], pairs[:, 1], params)[inv.reshape(len(cols), r)]
        for (i, j), qij in zip(cols, q):
            mat[i][j] = qij
    for i in range(n):
        for c, col in enumerate(border, start=n):
            mat[i][c] = col[at[:, i]]
    return np.broadcast_to(matching_sum(mat), (r,)).astype(float)


def gt_pattern_sum(x, y, t, params: ModelParams, z_max=None, cap=10**7):
    """Transition probability as a sum of Pfaffian weights over GT patterns.

    A pattern's weight is the Pfaffian of its top row alone (the interlacing
    determinants are 0/1 indicators), so the sum runs over distinct top rows:
    P_t(y -> x) = sign * sum_top (number of patterns under top) * Pf(top),
    with the counts from _top_rows and every weight from one _weights call.
    Returns (value, remainder_estimate): the remainder is the total absolute
    weight of the patterns whose top row reaches z_max (the kernels decay
    super-exponentially, so this bounds the truncation honestly).  N + M even
    per the decomposition; the N odd, M = 0 case uses the p-column
    augmentation of the odd transition-probability Pfaffian.  The empty x is
    one pattern of weight 1.  cap bounds the number of patterns, not of top
    rows.
    """
    params = params.at(t)
    params.require_tasep()
    x = as_config(x)
    n = len(x)
    y = require_well_separated(y, n)
    m = len(y)
    if m and (n + m) % 2 == 1:
        raise ValueError("GT decomposition with M > 0 needs N + M even")
    if z_max is None:
        z_max = suggest_z_max(x, params.t)
    if x and z_max < x[0]:
        raise ValueError(f"z_max = {z_max} is below x_1 = {x[0]}: no GT pattern fits")
    # (-1)^M: the Xi columns take y_1..y_M where the U columns take y_M..y_1,
    # and Xi_{N-k} carries (-1)^k, so (-1)^(C(M,2) + C(M+1,2)) = (-1)^M.
    sign = (-1.0) ** m * _prefactor(n, m, params)
    counted = _top_rows(x, z_max, cap)
    tops = np.array(list(counted), dtype=int).reshape(len(counted), n)
    counts = np.array(list(counted.values()), dtype=float)
    w = _real(_weights(tops, y, n, params), "GT weight")
    edge = (tops == z_max).any(axis=1)
    return sign * float(counts @ w), abs(sign) * float(counts[edge] @ np.abs(w[edge]))


def w_measure(rows, y, n, params: ModelParams):
    """The triangular-array measure: product of interlacing-indicator
    determinants times the Pfaffian weight of the top row (_weights).

    rows is a full triangular array (list of rows, row k of length k); the
    measure vanishes off GT patterns whenever the left edge is strictly
    decreasing.  N + M must be even; the empty array (N = 0) has measure 1.
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
    for prev, row in zip([()] + rows, rows):
        # phi_k block: rows are the z^{k-1} entries plus the virtual dagger
        # row (all ones), columns the k entries of row k.
        det_prod *= np.linalg.det(np.vstack([np.less_equal.outer(prev, row), np.ones(len(row))]))
    top = np.array(rows[-1:], dtype=int).reshape(1, n)
    return det_prod * _weights(top, y, n, params)[0]
