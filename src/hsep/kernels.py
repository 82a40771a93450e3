"""The integral kernels of the half-line TASEP layer.

Every q = 0 kernel is a contour integral of

    (w-1)^a e^(t(w-1)) w^(-b) / (w-alpha)^e,      e in {0, 1},

around every finite pole of the integrand, so it is the w^(-1) coefficient
of the expansion beyond all poles: with the Poisson weights
pi[j] = e^(-t) t^j / j! and the 1/w coefficients T[m, s] of
(1 - alpha/w)^(-e) (1 - 1/w)^(-m), one entry g(m, j) = sum_s T[m, s] pi[j+s].
T[m] is the running sum of T[m-1], so summing by parts gives one recurrence,

    g(m, j) = g(m-1, j) + g(m, j+1),    g(0, j) = pi[j] + e alpha g(0, j+1),

with g = 0 past the support of pi.  For m >= 0 it adds positive terms only,
over the whole support; a negative m is a forward difference.  ``kernel_p``
and ``kernel_Q`` read the table with e = 1; ``kernel_U`` and the three
``kernel_Xi`` kernels read the one with e = 0 (see KernelTable).  All six
take broadcast integer arguments and return a float, or a float64 array of
the broadcast shape read in one gather: every q = 0 kernel value is real.
``phi_conv``, ``phi_neg``, ``phi_virtual`` and ``theta`` are the binomial
convolution algebra with virtual coordinates.  Torus quadrature with unequal
radii (``tests/test_kernels.py``) and per-pole jet residues through
``hsep.numerics.residue_at`` (``tests/residue_oracle.py``) are the
independent cross-check paths.

The module also holds the checks on model inputs that every layer shares:
``ModelParams`` for the rates, ``as_config`` for a configuration and
``require_event`` for a conditioning event.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "ModelParams",
    "as_config",
    "require_event",
    "KernelTable",
    "table_for",
    "kernel_Q",
    "kernel_p",
    "kernel_U",
    "kernel_Xi",
    "kernel_Xi_upper",
    "kernel_Xi_virtual",
    "phi_conv",
    "phi_neg",
    "phi_virtual",
    "theta",
    "rising",
]


@dataclass(frozen=True)
class ModelParams:
    """Model rates: right rate 1, left rate q, injection alpha, exit gamma."""

    q: float = 0.0
    alpha: float = 0.5
    gamma: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.q, self.alpha, self.gamma, self.t)):
            raise ValueError("rates and time must be finite and non-negative")

    def at(self, t):
        """These rates at time t: the one time an evaluator reads."""
        return self if t == self.t else replace(self, t=t)

    def require_exact(self):
        """The exact integral formulas all require gamma = 0."""
        if self.gamma != 0.0:
            raise ValueError("exact formulas require gamma = 0")

    def require_tasep(self):
        self.require_exact()
        if self.q != 0.0:
            raise ValueError("Pfaffian formulas require q = 0 (TASEP)")


def as_config(sites):
    """Validate and normalize a half-space configuration (decreasing sites)."""
    c = tuple(int(s) for s in sites)
    if any(s < 1 for s in c):
        raise ValueError("sites must be >= 1")
    if any(a <= b for a, b in zip(c, c[1:])):
        raise ValueError("sites must be strictly decreasing")
    return c


def require_event(labels, thresholds, n):
    """Labels p_k in 1..n paired with thresholds a_k >= 0, as two lists (else ValueError)."""
    labels, thresholds = list(labels), list(thresholds)
    if len(labels) != len(thresholds):
        raise ValueError("labels and thresholds must pair up")
    if any(not 1 <= p <= n for p in labels):
        raise ValueError("labels must lie in 1..N")
    if any(a < 0 for a in thresholds):
        raise ValueError("thresholds must be >= 0")
    return labels, thresholds


def _poisson_weights(t):
    """e^(-t) t^j / j! up to the last normal one, computed iteratively.

    The weights rise to the mode and then fall.  Those left out (9 of 222 at
    t = 2.9) move no entry above about 1e-300, and the tables' sums stay
    fast.  Raises ArithmeticError once e^(-t) is subnormal (t > ~708).
    """
    w = [math.exp(-t)]
    if w[0] < sys.float_info.min:
        raise ArithmeticError(f"e^(-t) underflows at t = {t:g}; kernels need t <= 708")
    while (nxt := w[-1] * t / len(w)) >= sys.float_info.min:
        w.append(nxt)
    return np.array(w)


def _ints(*args):
    """The arguments broadcast against each other, one per row of a 2-D int
    array, and their shape."""
    arrays = [np.asarray(v, dtype=np.int64) for v in args]
    out = np.empty((len(arrays),) + np.broadcast(*arrays).shape, dtype=np.int64)
    for k, v in enumerate(arrays):
        out[k] = v
    return out.reshape(len(arrays), -1), out.shape[1:]


def _windows(rows, width, step=1):
    """The view v[r, c, k] = rows[r, c + k] of a C-contiguous 2-D float array,
    no copy; with step = -1, v[r, c, k] = rows[r, -1 - c - k]."""
    n, m = rows.shape
    shape, strides = (n, m - width + 1, width), (8 * m, 8 * step, 8 * step)
    return np.ndarray(shape, buffer=rows, offset=4 * (m - 1) * (1 - step), strides=strides)


def _values(v, shape):
    """One float for scalar arguments, else a float64 array of their shape."""
    v = v.reshape(shape)
    return float(v) if v.ndim == 0 else v


# Q gathers about this many k-sum terms at once, to bound a block's memory.
_CHUNK = 1 << 15


class KernelTable:
    """Kernel evaluations for one parameter set (gamma = 0).

    pi holds the Poisson weights pi[j], j < J (J = 145 at t = 0.4, 213 at
    t = 2.9, 293 at t = 10).  memo holds the arrays every entry is read from,
    each built on first use and rebuilt larger when a request leaves it: "w"
    and "u", the rows of g for e = 1 and e = 0 (_rows), and "d", the
    diagonals of the e = 1 table (_diagonals).  No entry is memoized on its
    own, so these arrays bound a table's memory.
    """

    def __init__(self, params: ModelParams):
        params.require_exact()
        self.params = params
        self.pi = _poisson_weights(params.t)
        self.memo = {}

    def _rows(self, key, m_lo, m_hi, lo):
        """memo[key] = (span, rows), rows[m - span[0], j - span[2]] = g(m, j)
        for span[0] <= m <= span[1], span[2] <= j <= J and e = 1 (key "w") or
        e = 0 ("u"), covering m_lo..m_hi and j >= lo.  The rows are built by
        the recurrence from j = J down, so no entry depends on the span; column
        J is 0 and stands for every j >= J.  The span holds m = 0 and
        j >= 1 - J (all Q reads for sites >= 1) and grows by union.
        """
        n = len(self.pi)
        got = self.memo.get(key)
        m0, m1, j0 = got[0] if got else (0, 0, 1 - n)
        if got and m0 <= m_lo and m_hi <= m1 and j0 <= lo:
            return got
        m_lo, m_hi, lo = min(m_lo, m0), max(m_hi, m1), min(lo, j0)
        rows = np.zeros((m_hi - m_lo + 1, n + 1 - lo))
        rows[-m_lo, -lo : n - lo] = self.pi
        alpha = self.params.alpha
        if key == "w" and alpha:
            row, acc = rows[-m_lo].tolist(), 0.0
            for j in range(n - 1 - lo, -1, -1):
                acc = row[j] = row[j] + alpha * acc
            rows[-m_lo] = row
        for r in range(1 - m_lo, len(rows)):
            np.cumsum(rows[r - 1, ::-1], out=rows[r, ::-1])
        for r in range(-m_lo - 1, -1, -1):
            np.subtract(rows[r + 1, :-1], rows[r + 1, 1:], out=rows[r, :-1])
        self.memo[key] = (m_lo, m_hi, lo), rows
        return self.memo[key]

    def _diagonals(self, b_hi, y_lo, y_hi):
        """memo["d"] = ((b_hi, y_lo, y_hi), diag), diag[d + y_hi, j - y_lo] =
        (-1)^j D_d[j] with D_d[j] = g(j + d, j) (e = 1), for every d = b + 1 - y
        and b - y with 0 <= b <= b_hi, y_lo <= y <= y_hi; the rows run
        y_hi - y_lo zeros past j = J, so Q reads windows of one length.
        D_d is D_{d-1}[j] + D_{d-1}[j+1] where j + d > 0, row 0 of the table
        at j = -d and 0 below, from D_{-J} = 0 up, so no entry depends on the
        span.  A request beyond the span rebuilds it with b_hi and y_hi twice
        the largest asked for (y_hi <= J): a few builds per table at most.
        When only b_hi grows, the run continues from the stored top diagonal.
        """
        got = self.memo.get("d")
        b1, y0, y1 = got[0] if got else (0, 1, 1)
        if got and b_hi <= b1 and y0 <= y_lo and y_hi <= y1:
            return got
        n = len(self.pi)
        b_hi = b1 if b_hi <= b1 else 2 * b_hi
        y_lo, y_hi = min(y_lo, y0), y1 if y_hi <= y1 else min(2 * y_hi, n)
        d_hi, end = b_hi + 1 - y_lo, n - y_lo  # end: the column of j = J
        diag = np.zeros((d_hi + y_hi + 1, end + 1 + y_hi - y_lo))
        if got and (y_lo, y_hi) == (y0, y1):
            top = len(got[1])  # the stored rows, d < top - y_hi, stay as they are
            diag[:top] = got[1]
            prev = diag[top - 1].copy()
            prev[(y_lo + 1) % 2 :: 2] *= -1.0  # exact: the stored signs undone
            d_lo = top - y_hi
        else:
            (m_lo, _, lo), rows = self._rows("w", 0, 0, y_lo)
            row0 = rows[-m_lo, y_lo - lo :]
            below = np.zeros((2, end + 1))  # the diagonals below the span
            top, d_lo, prev = 0, 1 - n, below[1]
        for d in range(d_lo, d_hi + 1):
            cur = diag[d + y_hi] if d >= -y_hi else below[d % 2]
            i = max(-d - y_lo, 0)  # the entries left of j = -d are 0
            np.add(prev[i:end], prev[i + 1 : end + 1], out=cur[i:end])
            if -d >= y_lo:
                cur[i] = row0[i]
            prev = cur
        diag[top:, (y_lo + 1) % 2 :: 2] *= -1.0
        self.memo["d"] = (b_hi, y_lo, y_hi), diag
        return self.memo["d"]

    def read(self, key, m, j, k=0):
        """(-1)^k g(m, j) of the e = 1 (key "w") or e = 0 ("u") table for
        broadcast m, j, k: one gather from the rows (_rows).  An e = 0 entry
        is the integral around all the poles of (w-1)^(-m) e^(t(w-1)) / w^(j-m+1)."""
        v, shape = _ints(m, j, k)
        (m_lo, j_lo, _), (m_hi, _, _) = v.min(1, initial=0).tolist(), v.max(1, initial=0).tolist()
        (m0, _, lo), rows = self._rows(key, m_lo, m_hi, j_lo)
        m, j, k = v
        g = rows[m - m0, np.minimum(j - lo, rows.shape[1] - 1)]
        return _values((1 - 2 * (k & 1)) * g, shape)

    def q_kernel(self, a, b, x, y):
        """Q_{a,b}(x,y) for broadcast a, b >= 0, x, y, one block of entries at once.

        Inner w-integral first (coupling pole excluded, per the unequal-radii
        contour choice); expanding the coupling as
        (u-w)/(1-u-w) = sum_k (u A[k] - A[k+1]) w^k leaves

            Q = alpha^2 sum_k (A_{a,x}[k] G_{b,y}[k] - A_{a,x}[k+1] G_{b,y+1}[k])

        with the w-side row A_{a,x}[k] = g(a, x-k) and the u-side row
        G_{b,y}[k] = -(-1)^k g(b+1+k, y+k), 0 once y + k >= J, which lies on
        the diagonal b + 1 - y of the table (_diagonals).  Both are read as
        windows over the block's whole support, and each sum runs over k in
        order, so a value does not depend on the block it is asked for in.
        """
        v, shape = _ints(a, b, x, y)
        n = len(self.pi)
        np.minimum(v[3], n, out=v[3])
        lows, highs = v.min(1, initial=n).tolist(), v.max(1, initial=0).tolist()
        (a_lo, b_lo, x_lo, y_lo), (a_hi, b_hi, x_hi, y_hi) = lows, highs
        if b_lo < 0:
            raise ValueError("Q_{a,b} needs b >= 0")
        width = n - y_lo  # the k-sum's length; 0 for an empty block
        if width <= 0:
            return _values(np.zeros(v.shape[1]), shape)
        (_, j_lo, d_off), diag = self._diagonals(b_hi, y_lo, y_hi)
        (m_lo, _, lo), rows = self._rows("w", a_lo, a_hi, x_lo - width)
        if x_hi > n:  # the rows end at J; past n + width every A[k] is 0
            x_hi = min(x_hi, n + width + 1)
            np.minimum(v[2], x_hi, out=v[2])
            rows = np.pad(rows, ((0, 0), (0, x_hi - n)))
        a, b, x, y = v
        # A_{a,x} = aw[a - m_lo, c - x] and G_{b,y} = -(-1)^y gw[b + 1 - y + d_off, y - j_lo]
        aw = _windows(rows, width + 1, step=-1)
        gw = _windows(diag, width)
        c = rows.shape[1] - 1 + lo
        total = np.empty(v.shape[1])
        chunk = max(_CHUNK // (width + 1), 1)
        for s in range(0, len(total), chunk):
            sel = slice(s, s + chunk)
            w = aw[a[sel] - m_lo, c - x[sel]]
            d, j = b[sel] + 1 - y[sel] + d_off, y[sel] - j_lo
            total[sel] = (
                np.add.accumulate(w[:, :-1] * gw[d, j], axis=1)[:, -1]
                + np.add.accumulate(w[:, 1:] * gw[d - 1, j + 1], axis=1)[:, -1]
            )
        return _values((2 * (y & 1) - 1) * (self.params.alpha**2 * total), shape)


@lru_cache(maxsize=64)
def table_for(params: ModelParams) -> KernelTable:
    return KernelTable(params)


# -- module-level entry points (thin wrappers over the kernel table) -----------


def kernel_Q(a, b, x, y, params):
    """Q_{a,b}(x,y); a, b, x, y broadcast, and arrays give one block call."""
    return table_for(params).q_kernel(a, b, x, y)


def kernel_p(i, x, params):
    """p_i(x) = g(i, x) (e = 1), the k = 0 entry of Q's w-side row A_{i,x}: the
    integrand w^(i-x) e^(t(w-1)) / ((w-alpha)(w-1)^i) has its contour around
    0 (iff x > i), alpha and 1.  i and x broadcast."""
    return table_for(params).read("w", i, x)


def kernel_U(k, z, n_minus_m, params):
    """U_k(z): residues at the origin and (for k > N-M) at w = 1.

    The (w-1)^(N-M-k) factor has a pole at 1 once k exceeds N-M; the
    contour must enclose it along with the origin — that choice is what
    makes the summation recurrence U_{k+1}(z) = sum_{y>=z} U_k(y) hold
    and the general-initial-data Pfaffians match the Markov oracle.
    With the 1-pole absent and z - k + N - M + 1 <= 0 the kernel is 0.
    k, z and n_minus_m broadcast.
    """
    return table_for(params).read("u", np.subtract(k, n_minus_m), z)


# The three Xi kernels below carry (-1)^k: (1-u)^(-m) = (-1)^m (u-1)^(-m),
# so each is its own sign times the one that turns its (1-u) power into a
# (u-1) power.  Their arguments broadcast.


def kernel_Xi_upper(i, k, y_k, x, params):
    """Xi^(i)_{N-k}(x) = phi_{(i,N]} * Xi_{N-k}, as the closed contour form.

    (-1)^i times the integral over a contour around both 0 and 1 of
    (1-u)^(i-k) e^(t(u-1)) / u^(x-y_k+i-k+1).
    """
    return table_for(params).read("u", np.subtract(k, i), np.subtract(x, y_k), k)


def kernel_Xi(n, k, y_k, z, params):
    """Xi_{N-k}(z) = (-1)^k * residue at 0 of (w-1)^(N-k) e^(t(w-1)) / w^(z-y_k+N-k+1),
    which is Xi^(N)_{N-k}(z).  For k <= N the origin is the only pole.
    """
    if np.any(np.greater(k, n)):
        raise ValueError("Xi_{N-k} needs k <= N")
    return kernel_Xi_upper(n, k, y_k, z, params)


def kernel_Xi_virtual(i, k, y_k, params):
    """Xi^[i)_{N-k}(dagger_i) = Xi^(i-1)_{N-k}(1): the virtual-coordinate pairing.

    (-1)^(i+1) times the integral over a contour around both 0 and 1 of
    (1-u)^(i-k-1) e^(t(u-1)) / u^(i-k+1-y_k).
    """
    return kernel_Xi_upper(np.subtract(i, 1), k, y_k, 1, params)


# -- binomial convolution algebra ---------------------------------------------


def phi_conv(k, l, x, y):
    """phi_{(k,l]}(x,y): iterated half-space convolution of indicator kernels."""
    if k > l:
        return 0
    if k == l:
        return 1 if x == y else 0
    if x > y:
        return 0
    return math.comb(y - x + l - k - 1, l - k - 1)


def phi_neg(j, m, x, y):
    """phi_{-(j,m]}(x,y) = (-1)^(y-x) C(m-j, y-x) on x <= y (any integers)."""
    d = y - x
    if d < 0 or d > m - j:
        return 0
    return (-1) ** d * math.comb(m - j, d)


def rising(x, n):
    """Pochhammer (x)_n = x (x+1) ... (x+n-1); 1 for n = 0, 0 for n < 0."""
    if n < 0:
        return 0
    out = 1
    for i in range(n):
        out *= x + i
    return out


def phi_virtual(k, l, x):
    """phi_{[k,l]}(dagger_k, x) = (x)_{l-k} / (l-k)!, a polynomial in x."""
    if k > l:
        return 0
    n = l - k
    num = rising(x, n)
    if isinstance(num, int):
        from fractions import Fraction

        return Fraction(num, math.factorial(n))
    return num / math.factorial(n)


def theta(i, x):
    """Theta_i(x) = C(x+i-2, x-1), the degree-(i-1) virtual-pairing polynomial."""
    if isinstance(x, int) and x >= 1:
        return math.comb(x + i - 2, x - 1)
    v = phi_virtual(1, i, x)
    return v
