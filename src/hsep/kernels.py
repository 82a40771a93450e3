"""The integral kernels of the half-line TASEP layer.

Every q = 0 kernel is a contour integral of

    (w-1)^a e^(t(w-1)) w^(-b) / (w-alpha)^e,      e in {0, 1},

whose contour encloses every finite pole of the integrand.  Its value is
therefore the w^(-1) coefficient of the expansion in the annulus beyond all
poles, one Poisson-weighted sum evaluated here for all six kernels:

* ``kernel_Q``     -- the universal double-contour kernel Q_{a,b}(x,y)
* ``kernel_p``     -- the single-contour column kernel p_i(x)
* ``kernel_U``     -- the origin-residue kernel U_k(z) (depends on N - M)
* ``kernel_Xi``    -- the initial-data kernels Xi_{N-k} and the convolved /
                      virtual variants Xi^(i), Xi^[i)
* ``phi_conv``, ``phi_neg``, ``phi_virtual``, ``theta`` -- the binomial
  convolution algebra with virtual coordinates

In Q the coupling factor (u-w)/(1-u-w) is expanded in powers of w, which
turns the double integral into a contraction over k of two rows of annulus
coefficients: A_{a,x} from the w-side and G_{b,y} from the u-side.  Each
KernelTable builds what these rows are read from once: one correlation of
each w-side series with the Poisson weights, whose entries are A_{a,x}[k] and
p_a(x) alike, and one triangle of running sums shared by every u-side row.
``kernel_Q`` and ``kernel_p`` take arrays, so an assembly asks for a whole
block of entries in one call, which builds each G row it needs once.  Torus
quadrature with unequal radii (``tests/test_kernels.py``) and per-pole jet
residues through ``hsep.numerics.residue_at`` (``tests/residue_oracle.py``)
are the independent cross-check paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ModelParams",
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


def _series(alpha, e, m, smax):
    """Coefficients h_s, s <= smax, in 1/w of (1 - alpha/w)^(-e) (1 - 1/w)^(-m).

    For m > 0 the factor (1 - 1/w)^(-m) is m running sums of the series of
    the alpha factor; for m <= 0 it is the finite alternating binomial row.
    Summing *all* enclosed poles through this single expansion avoids the
    catastrophic cancellation that per-pole residues suffer when alpha < 1
    and the site argument is large.
    """
    if e:
        h = alpha ** np.arange(smax + 1)
    else:
        h = np.zeros(smax + 1)
        h[0] = 1.0
    if m > 0:
        for _ in range(m):
            h = np.cumsum(h)  # convolution with the all-ones series of 1/(w-1)
        return h
    row = np.array([(-1.0) ** s * math.comb(-m, s) for s in range(-m + 1)])
    return np.convolve(h, row)[: smax + 1]


def _extract(h, pois, j0):
    """sum_s h_s pois[j0 + s]; pois[j] is 0 for j < 0 and past its end."""
    lo = min(max(0, -j0), len(h))
    seg = np.zeros(len(h) - lo)
    got = pois[j0 + lo : j0 + len(h)]
    seg[: len(got)] = got
    return np.dot(h[lo:], seg)


def _poisson_weights(t):
    """e^(-t) t^j / j! up to the last nonzero one, computed iteratively.

    The weights rise to the mode and then fall to a first exact zero, after
    which every weight is 0, so the loop stops there.  Raises ArithmeticError
    once e^(-t) is subnormal (t > ~708): the weights would lose precision and
    then vanish, and every kernel would read 0.
    """
    w = [math.exp(-t)]
    if w[0] < sys.float_info.min:
        raise ArithmeticError(f"e^(-t) underflows at t = {t:g}; kernels need t <= 708")
    while (nxt := w[-1] * t / len(w)) != 0.0:
        w.append(nxt)
    return np.array(w)


def _ints(*args):
    """The arguments broadcast against each other, as flat int arrays, and their shape."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in args))
    return [v.ravel() for v in arrays], arrays[0].shape


def _strided(flat, start, rows, width, step):
    """The (rows, width) view flat[start + r * step + c] of a 1-D array, no copy."""
    return np.ndarray((rows, width), buffer=flat, offset=8 * start, strides=(8 * step, 8))


def _values(v, shape):
    """One complex value for scalar arguments, else a complex array of their shape."""
    v = v.reshape(shape)
    return complex(v) if v.ndim == 0 else v.astype(complex)


class KernelTable:
    """Kernel evaluations for one parameter set (gamma = 0).

    memo holds the arrays every entry is read from, each built on first use,
    and the memoized U and Xi coefficients:

    * "pi": the Poisson weights pi[j] = e^(-t) t^j / j!, j < J, where J is
      the end of their support (J = 151 at t = 0.4, 222 at t = 2.9, 304 at
      t = 10; every later weight underflows to 0);
    * ("corr", a, lo): corr_a[j] = sum_s h_s pi[j+s], h the series of
      1/((w-alpha)(w-1)^a), for j from lo to J (_corr).  Q's w-side row is
      A_{a,x}[k] = corr_a[x-k], and p_a(x) = corr_a[x];
    * "T": the triangle of running sums that Q's u-side rows are read from,
      with its span (_triangle).
    """

    # The w-side series h_s stops at s = _SMAX.  That cuts A_{a,x}[k] where
    # x - k + _SMAX < J - 1: at k near _KCAP from t = 15 on (J = 342), and
    # p_a(x) = A_{a,x}[0] from t = 105 on (J = 705).
    _SMAX = 700
    # The coupling expansion of Q stops at k = _KCAP.  G_{b,y}[k] = 0 once
    # y + k >= J, so this cuts the k-sum only where J - y > _KCAP + 1: from
    # t = 18 on (J = 362) at y = 1.
    _KCAP = 360

    def __init__(self, params: ModelParams):
        params.require_exact()
        self.params = params
        self.memo = {}

    def _support(self):
        """The Poisson weights up to the last nonzero one; later ones underflow to 0."""
        if "pi" not in self.memo:
            self.memo["pi"] = _poisson_weights(self.params.t)
        return self.memo["pi"]

    # -- the w-side: one correlation per a ----------------------------------

    def _corr(self, a, jmin):
        """(corr, row, lo): corr_v over j = lo..J for the distinct v of a,
        stacked, and the row of each entry of a; lo <= jmin.

        Each corr_v is one sliding-window product with h, every entry a sum
        in s order, so an entry does not depend on the range of j it is built
        over.  lo = -_KCAP covers
        every site x >= 1; a lower jmin takes lo = -_SMAX - 1, the whole
        range where corr_v can be nonzero (corr_v[lo] = 0).
        """
        pi = self._support()
        lo = -self._KCAP if jmin >= -self._KCAP else -self._SMAX - 1
        keys = sorted(set(a.tolist()))
        for v in keys:
            if ("corr", v, lo) not in self.memo:
                pad = np.zeros(len(pi) - lo + 1 + self._SMAX)
                pad[-lo:][: len(pi)] = pi
                h = _series(self.params.alpha, 1, v, self._SMAX)
                self.memo["corr", v, lo] = sliding_window_view(pad, self._SMAX + 1) @ h
        corr = np.stack([self.memo["corr", v, lo] for v in keys])
        return corr, np.searchsorted(keys, a), lo

    def p(self, i, x):
        """p_i(x): contour surrounds 0 (iff x > i), alpha and 1; i, x broadcast.

        The integrand is w^(i-x) e^(t(w-1)) / ((w-alpha)(w-1)^i), so
        p_i(x) = sum_s h_s e^(-t) t^(x+s) / (x+s)! = corr_i[x], the k = 0
        entry of Q's w-side row A_{i,x}.
        """
        (i, x), shape = _ints(i, x)
        if not len(i):
            return _values(np.zeros(0), shape)
        corr, row, lo = self._corr(i, int(x.min()))
        return _values(corr[row, np.clip(x - lo, 0, corr.shape[1] - 1)], shape)

    # -- the u-side: one triangle of running sums ------------------------------

    def _fold(self, m_lo, bmax, y0):
        """(width, c, rows, half): the layout of the triangle for b <= bmax,
        y >= y0, whose row r = m - m_lo (r < rows) is min(width, c - r) long."""
        n0 = max(len(self._support()) - y0, 1)
        width = min(self._SMAX + 1, n0)
        c = n0 + bmax + 1 - m_lo
        rows = bmax + 1 - m_lo + min(self._KCAP + 1, n0)
        half = min(rows, max(-(-(2 * c - width + 1) // 2), -(-(rows + c - width) // 2)))
        return width, c, rows, half

    @staticmethod
    def _start(r, width, c, half):
        """Where row r of the folded triangle starts in its flat array."""
        return r * width if r < half else (2 * half - r) * width - min(width, c - r)

    def _triangle(self, bmin, bmax, ymin):
        """memo["T"] = (span, flat): the triangle T[m, s] of running sums,
        [w^(-s)] 1/((1-alpha/w)(1-1/w)^m), folded into the 1-D array flat,
        with the rows of G_{b,y} for every b and y its span (m_lo, bmax, y0)
        covers: m_lo <= b + 1, b <= bmax, y >= y0.  It covers bmin..bmax and
        y >= ymin on return.

        G_{b,y}[k] reads T[b+1+k, s] for s < J - y - k; later s meet only
        zero weights.  Row m is the running sum of a prefix of row m - 1, and
        a running sum is the same on every prefix, so no entry depends on the
        span.  Over b <= bmax and y >= y0 these rows form a trapezoid: row
        r = m - m_lo has length l_r = min(width, c - r).  Row r < half starts
        line r of a (half + 1, width) array; row r >= half ends line
        2 half - 1 - r, whose own row leaves it room (l_r plus that row's
        length is at most width).  So the rows of each part are a constant
        stride apart (width, and -(width - 1)), a block of them is one strided
        view, and the triangle takes about half the memory of a rectangle.
        What a view reads past the end of a row is another finite coefficient,
        and it meets a zero weight.  A b or y beyond the span rebuilds it, for
        b up to twice the largest b asked for, so a table builds it a few
        times at most.  The span and the array are replaced together, so a
        reader never pairs one with the other's layout.
        """
        got = self.memo.get("T")
        if got and got[0][0] <= bmin + 1 and bmax <= got[0][1] and got[0][2] <= ymin:
            return got
        m_lo, b_hi, y0 = got[0] if got else (2, 1, 1)
        span = (min(m_lo, bmin + 1), max(b_hi, 2 * bmax), min(y0, ymin))
        width, c, rows, half = self._fold(*span)
        flat = np.zeros((half + 1) * width)
        prev = _series(self.params.alpha, 1, span[0], width - 1)
        for r in range(rows):
            row = flat[self._start(r, width, c, half) :][: min(width, c - r)]
            if r:
                np.add.accumulate(prev[: len(row)], out=row)
            else:
                row[:] = prev
            prev = row
        self.memo["T"] = span, flat
        return span, flat

    def _g_rows(self, pairs):
        """{(b, y): G_{b,y}} for the given pairs, where

            G_{b,y}[k] = (-1)^(k+1) sum_s T[b+1+k, s] pi[y+k+s],   k < min(_KCAP + 1, n),

        is [u^(-1)] u^(b-y) e^(t(u-1)) / ((u-alpha)(u-1)^(b+k+1)).  With
        n = max(J - y, 1), the sum runs over s < min(_SMAX + 1, n) for every
        k, so its terms and their order depend on (b, y) alone, whichever
        pairs are asked for with it.  The weights below the smallest normal
        float (the last few of the support) are read as 0 here: they change
        no entry above about 1e-240 in size, and multiplying them costs
        several times more.
        """
        bs, ys = zip(*pairs)
        span, flat = self._triangle(min(bs), max(bs), min(ys))
        step, c, _, half = self._fold(*span)
        pi = self._support()
        lo = min(min(ys), 0)
        pad = np.zeros(2 * (len(pi) - lo))
        pad[-lo:][: len(pi)] = np.where(pi < sys.float_info.min, 0.0, pi)
        out = {}
        for b, y in pairs:
            n = max(len(pi) - y, 1)
            rows, width = min(self._KCAP + 1, n), min(self._SMAX + 1, n)
            win = _strided(pad, min(y, len(pi)) - lo, rows, width, 1)
            r = b + 1 - span[0]
            fwd = min(max(half - r, 0), rows)
            g = np.einsum("ks,ks->k", _strided(flat, r * step, fwd, width, step), win[:fwd])
            if fwd < rows:
                back = _strided(flat, self._start(r + fwd, step, c, half), rows - fwd, width, 1 - step)
                g = np.concatenate([g, np.einsum("ks,ks->k", back, win[fwd:])])
            g[::2] *= -1.0
            out[b, y] = g
        return out

    def q_kernel(self, a, b, x, y):
        """Q_{a,b}(x,y) for broadcast a, b, x, y, one block of entries at once.

        Inner w-integral first (coupling pole excluded, per the unequal-radii
        contour choice); expanding the coupling as
        (u-w)/(1-u-w) = sum_k (u A[k] - A[k+1]) w^k clears the w-integral and
        leaves, for each k, a u-integral: the signed annulus coefficient G[k],

            Q = alpha^2 sum_k (A_{a,x}[k] G_{b,y}[k] - A_{a,x}[k+1] G_{b,y+1}[k]).

        Each distinct G row is built once per call, the entries are taken in
        groups of equal y (whose G rows have one length), and each sum runs
        over k in order (np.add.accumulate), so a value does not depend on the
        block it is asked for in.
        """
        (a, b, x, y), shape = _ints(a, b, x, y)
        if not len(a):
            return _values(np.zeros(0), shape)
        pairs = sorted(set(zip(b.tolist(), y.tolist())))
        g = self._g_rows(sorted(set(pairs) | {(bv, yv + 1) for bv, yv in pairs}))
        corr, row, lo = self._corr(a, int(x.min()) - self._KCAP - 1)
        total = np.empty(len(a))
        for yv in sorted(set(y.tolist())):
            sel = y == yv
            bs = sorted({bv for bv, v in pairs if v == yv})
            at = np.searchsorted(bs, b[sel])
            g1 = np.stack([g[bv, yv] for bv in bs])[at]
            g0 = np.stack([g[bv, yv + 1] for bv in bs])[at]
            j = np.clip(x[sel, None] - lo - np.arange(g1.shape[1] + 1), 0, corr.shape[1] - 1)
            w = corr[row[sel, None], j]
            total[sel] = (
                np.add.accumulate(w[:, :-1] * g1, axis=1)[:, -1]
                - np.add.accumulate(w[:, 1 : g0.shape[1] + 1] * g0, axis=1)[:, -1]
            )
        return _values(self.params.alpha**2 * total, shape)

    # -- U and the initial-data kernels ----------------------------------------

    def annulus(self, m, j0):
        """Memoized sum_s h_s pi[j0+s], h the series of (1 - 1/w)^(-m): the
        integral around all the poles of

            (w-1)^(-m) e^(t(w-1)) / w^(j0-m+1).

        U_k and the three Xi kernels are each one such coefficient.
        """
        key = ("ann", m, j0)
        if key not in self.memo:
            h = _series(self.params.alpha, 0, m, self._SMAX)
            self.memo[key] = complex(_extract(h, self._support(), j0))
        return self.memo[key]


@lru_cache(maxsize=64)
def table_for(params: ModelParams) -> KernelTable:
    return KernelTable(params)


# -- module-level entry points (thin wrappers over the kernel table) -----------


def kernel_Q(a, b, x, y, params):
    """Q_{a,b}(x,y); a, b, x, y broadcast, and arrays give one block call."""
    return table_for(params).q_kernel(a, b, x, y)


def kernel_p(i, x, params):
    """p_i(x); i and x broadcast, and arrays give one block call."""
    return table_for(params).p(i, x)


def kernel_U(k, z, n_minus_m, params):
    """U_k(z): residues at the origin and (for k > N-M) at w = 1.

    The (w-1)^(N-M-k) factor has a pole at 1 once k exceeds N-M; the
    contour must enclose it along with the origin — that choice is what
    makes the summation recurrence U_{k+1}(z) = sum_{y>=z} U_k(y) hold
    and the general-initial-data Pfaffians match the Markov oracle.
    With the 1-pole absent and z - k + N - M + 1 <= 0 the kernel is 0.
    """
    return table_for(params).annulus(k - n_minus_m, z)


# The three Xi kernels below carry (-1)^k: (1-u)^(-m) = (-1)^m (u-1)^(-m),
# so each is its own sign times the one that turns its (1-u) power into a
# (u-1) power.  Xi_{N-k} is Xi^(N)_{N-k}, and Xi^[i)_{N-k}(dagger_i) is
# Xi^(i-1)_{N-k}(1).


def kernel_Xi(n, k, y_k, z, params):
    """Xi_{N-k}(z) = (-1)^k * residue at 0 of (w-1)^(N-k) e^(t(w-1)) / w^(z-y_k+N-k+1).

    For k <= N the origin is the only pole.
    """
    if k > n:
        raise ValueError("Xi_{N-k} needs k <= N")
    return (-1.0) ** k * table_for(params).annulus(k - n, z - y_k)


def kernel_Xi_upper(i, k, y_k, x, params):
    """Xi^(i)_{N-k}(x) = phi_{(i,N]} * Xi_{N-k}, as the closed contour form.

    (-1)^i times the integral over a contour around both 0 and 1 of
    (1-u)^(i-k) e^(t(u-1)) / u^(x-y_k+i-k+1).
    """
    return (-1.0) ** k * table_for(params).annulus(k - i, x - y_k)


def kernel_Xi_virtual(i, k, y_k, params):
    """Xi^[i)_{N-k}(dagger_i): the virtual-coordinate pairing.

    (-1)^(i+1) times the integral over a contour around both 0 and 1 of
    (1-u)^(i-k-1) e^(t(u-1)) / u^(i-k+1-y_k).
    """
    return (-1.0) ** k * table_for(params).annulus(k + 1 - i, 1 - y_k)


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
