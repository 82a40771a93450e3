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
turns the double integral into the contraction of two memoized rows of
such annulus coefficients, one per (a, x) and one per (b, y).  Torus
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
    """sum_s h_s pois[j0 + s]; the terms with j0 + s < 0 are zero."""
    lo = min(max(0, -j0), len(h))
    return np.dot(h[lo:], pois[j0 + lo : j0 + len(h)])


def _poisson_weights(t, jmax):
    """e^(-t) t^j / j! for j = 0..jmax, computed iteratively (no overflow).

    Raises ArithmeticError once e^(-t) is subnormal (t > ~708): the weights
    would lose precision and then vanish, and every kernel would read 0.
    """
    w = np.zeros(jmax + 1)
    w[0] = math.exp(-t)
    if w[0] < sys.float_info.min:
        raise ArithmeticError(f"e^(-t) underflows at t = {t:g}; kernels need t <= 708")
    for j in range(1, jmax + 1):
        w[j] = w[j - 1] * t / j
    return w


class KernelTable:
    """Memoized kernel evaluations for one parameter set (gamma = 0)."""

    _SMAX = 700  # annulus series cap; terms die off on a Poisson tail scale
    _KCAP = 360  # cap on the order k of Q's coupling expansion

    def __init__(self, params: ModelParams):
        params.require_exact()
        self.params = params
        self.memo = {}

    def _pois(self, jmax):
        w = self.memo.get("_pois")
        if w is None or len(w) <= jmax:
            w = _poisson_weights(self.params.t, max(jmax, 64) * 2)
            self.memo["_pois"] = w
        return w

    def _annulus(self, e, m, j0):
        """sum_s h_s e^(-t) t^(j0+s) / (j0+s)!, h the series of _series(e, m).

        This is the contour integral of (w-1)^(-m) e^(t(w-1)) w^(-b) /
        (w-alpha)^e around all its poles, with j0 = b + m + e - 1.
        """
        h = _series(self.params.alpha, e, m, self._SMAX)
        return complex(_extract(h, self._pois(j0 + len(h)), j0))

    # -- single-contour kernels ---------------------------------------------

    def p(self, i, x):
        """p_i(x): contour surrounds 0 (iff x > i), alpha and 1.

        The integrand is w^(i-x) e^(t(w-1)) / ((w-alpha)(w-1)^i), so
        p_i(x) = sum_s h_s e^(-t) t^(x+s) / (x+s)!.
        """
        key = ("p", i, x)
        if key not in self.memo:
            self.memo[key] = self._annulus(1, i, x)
        return self.memo[key]

    # -- the double-contour kernel ------------------------------------------

    def _support(self):
        """The Poisson weights up to the last nonzero one; later ones underflow to 0."""
        return np.trim_zeros(self._pois(self._KCAP + self._SMAX), "b")

    def _window(self, j0, rows, width):
        """The (rows, width) view pi[j0 + r + c]; weights outside the support are 0."""
        pad = np.zeros(rows + width - 1)
        seg = self._support()[max(j0, 0) : max(j0 + len(pad), 0)]
        pad[max(-j0, 0) :][: len(seg)] = seg
        return sliding_window_view(pad, width)

    def _f1_annulus(self, a, x):
        """A[k] = [w^(-k-1)] f1(w) for k <= _KCAP + 1, f1 the w-side of Q_{a,b}.

        A[k] = sum_s h_s pi[x+s-k]: one sliding-window product with h.
        """
        key = ("f1ann", a, x)
        if key not in self.memo:
            n = self._KCAP + 2
            h = _series(self.params.alpha, 1, a, self._SMAX)
            self.memo[key] = (self._window(x - n + 1, n, len(h)) @ h)[::-1]
        return self.memo[key]

    def _g_row(self, b, y):
        """G[k] = (-1)^(k+1) sum_s (C^k h)_s pi[y+k+s], C the running sum.

        The sum is [u^(-1)] u^(b-y) e^(t(u-1)) / ((u-alpha)(u-1)^(b+k+1)), h
        the series of 1/((u-alpha)(u-1)^(b+1)).  Only s + k <= J - y meets a
        nonzero weight (J the end of the support), so row k of the temporary
        (k, s) table stops there, which also keeps it far from overflow.
        """
        key = ("G", b, y)
        if key not in self.memo:
            n = max(len(self._support()) - y, 1)  # weights from index y on
            rows, width = min(self._KCAP + 1, n), min(self._SMAX + 1, n)
            c = np.zeros((rows, width))
            c[0] = _series(self.params.alpha, 1, b + 1, width - 1)
            for k in range(1, rows):
                np.add.accumulate(c[k - 1, : n - k], out=c[k, : n - k])
            g = np.einsum("ks,ks->k", c, self._window(y, rows, width))
            g[::2] *= -1.0
            self.memo[key] = g
        return self.memo[key]

    def q_kernel(self, a, b, x, y):
        """Q_{a,b}(x,y) as the contraction of two memoized coefficient rows.

        Inner w-integral first (coupling pole excluded, per the unequal-radii
        contour choice); expanding the coupling as
        (u-w)/(1-u-w) = sum_k (u A[k] - A[k+1]) w^k clears the w-integral and
        leaves, for each k, a u-integral: the signed annulus coefficient G[k],

            Q = alpha^2 sum_k (A_{a,x}[k] G_{b,y}[k] - A_{a,x}[k+1] G_{b,y+1}[k]).
        """
        key = ("Q", a, b, x, y)
        if key not in self.memo:
            A, g1, g0 = self._f1_annulus(a, x), self._g_row(b, y), self._g_row(b, y + 1)
            total = A[: len(g1)] @ g1 - A[1 : len(g0) + 1] @ g0
            self.memo[key] = complex(self.params.alpha**2 * total)
        return self.memo[key]

    # -- U and the initial-data kernels ----------------------------------------

    def annulus(self, m, j0):
        """Memoized _annulus(0, m, j0): the integral around all the poles of

            (w-1)^(-m) e^(t(w-1)) / w^(j0-m+1).

        U_k and the three Xi kernels are each one such coefficient.
        """
        key = ("ann", m, j0)
        if key not in self.memo:
            self.memo[key] = self._annulus(0, m, j0)
        return self.memo[key]


@lru_cache(maxsize=64)
def table_for(params: ModelParams) -> KernelTable:
    return KernelTable(params)


# -- module-level entry points (thin wrappers over the memo table) ------------


def kernel_Q(a, b, x, y, params):
    return table_for(params).q_kernel(a, b, x, y)


def kernel_p(i, x, params):
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
