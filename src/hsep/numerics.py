"""Truncated Laurent series ("jets"), residue extraction, and circle quadrature.

Everything downstream of this module evaluates contour integrals one of two
ways: exactly, by expanding the integrand as a jet around each enclosed pole
and reading off the coefficient of (z - pole)^(-1), or numerically, by
trapezoid quadrature on circles (spectrally accurate for analytic integrands).
The two paths are kept independent so each can serve as the other's oracle.

The finite-q integral runs over nested circles C_i: |w - 1| = r_i, with
r_1 < ... < r_N.  Moebius maps send circles to circles, so each of its four
constraint groups compares one point with a radius: C_i excludes 0, 1/q and
(q + alpha - 1)/alpha; q*C_j, nearest 1 at q(1 + r_j), stays outside C_i for
i <= j; 1/(q*C_l), nearest 1 at 1/(q(1 + r_l)), stays outside every C_k; and
C_j encloses 1/C_i, farthest from 1 at r_i/(1 - r_i), for i < j.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "residue_at",
    "CircleContour",
    "circle_quadrature",
    "QuadratureError",
    "NestedContourFamily",
    "ContourValidationError",
    "validate_nested_contours",
]

# Leading denominator coefficients below this (relative to the largest
# coefficient) are treated as an exact zero of the series.  Pole clustering in
# the kernel evaluators guarantees genuine coefficients sit far above it.
_STRIP_TOL = 1e-13
_CONTOUR_MARGIN = 0.01  # relative clearance of every constraint by a default family


class JetError(ArithmeticError):
    pass


class Jet:
    """Truncated Laurent expansion sum_m c[m] (z - center)^m, val <= m <= order.

    `coeffs[i]` holds the coefficient of (z - center)^(val + i).  A jet built
    with val = 0 is a plain truncated Taylor series; arithmetic keeps
    the window length, shifting `val` when factors vanish or are inverted, so
    a residue is just `coeff(-1)` of the assembled integrand.  Instances are
    immutable; all operations return new jets.
    """

    __slots__ = ("center", "val", "coeffs")

    def __init__(self, center, val, coeffs):
        self.center = complex(center)
        self.val = int(val)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise JetError("jet needs a one-dimensional, non-empty coefficient window")

    # -- construction -------------------------------------------------------

    @classmethod
    def variable(cls, center, order):
        """The identity function z, expanded to the given order about center."""
        if order < 0:
            raise JetError("order must be >= 0")
        c = np.zeros(order + 1, dtype=complex)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return cls(center, 0, c)

    @classmethod
    def constant(cls, value, center, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(center, 0, c)

    # -- inspection ----------------------------------------------------------

    @property
    def order(self):
        """Highest exponent retained in the window."""
        return self.val + len(self.coeffs) - 1

    def coeff(self, exponent):
        """Coefficient of (z - center)^exponent; raises if outside the window."""
        i = exponent - self.val
        if i < 0:
            return 0.0 + 0.0j
        if i >= len(self.coeffs):
            raise JetError(
                f"exponent {exponent} beyond retained order {self.order}"
            )
        return complex(self.coeffs[i])

    def __repr__(self):
        return f"Jet(center={self.center}, val={self.val}, coeffs={list(self.coeffs)})"

    # -- helpers -------------------------------------------------------------

    def _promote(self, other):
        if isinstance(other, Jet):
            if other.center != self.center:
                raise JetError("jets expanded about different centers")
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            # A scalar is known to every order; give it a window wide enough
            # that the sum keeps this jet's order.
            hi = max(self.order, 0)
            c = np.zeros(hi + 1, dtype=complex)
            c[0] = complex(other)
            return Jet(self.center, 0, c)
        return None

    def _strip(self):
        """Drop negligible leading coefficients, shifting the valuation up."""
        a = self.coeffs
        scale = np.max(np.abs(a))
        if scale == 0.0:
            return None
        k = 0
        while k < len(a) and abs(a[k]) <= _STRIP_TOL * scale:
            k += 1
        if k == 0:
            return self
        return Jet(self.center, self.val + k, a[k:])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        lo = min(self.val, o.val)
        hi = min(self.order, o.order)
        if hi < lo:
            raise JetError("windows do not overlap")
        n = hi - lo + 1
        c = np.zeros(n, dtype=complex)
        _acc(c, lo, hi, self)
        _acc(c, lo, hi, o)
        return Jet(self.center, lo, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, self.val, -self.coeffs)

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return Jet(self.center, self.val, self.coeffs * complex(other))
        if not isinstance(other, Jet):
            return NotImplemented
        if other.center != self.center:
            raise JetError("jets expanded about different centers")
        # Strip exact leading zeros first: (z-1)^2 stored with val 0 would
        # otherwise erode the product window by its hidden valuation.
        sa = self._strip()
        sb = other._strip()
        lo = self.val + other.val
        hi = min(self.order + other.val, other.order + self.val)
        if sa is None or sb is None:
            return Jet(self.center, lo, np.zeros(max(hi - lo + 1, 1), dtype=complex))
        full = np.convolve(sa.coeffs, sb.coeffs)
        val = sa.val + sb.val
        # Terms beyond min(sa.order + sb.val, sb.order + sa.val) would need
        # unknown coefficients of the factors.
        hi = min(sa.order + sb.val, sb.order + sa.val)
        return Jet(self.center, val, full[: hi - val + 1])

    __rmul__ = __mul__

    def reciprocal(self):
        s = self._strip()
        if s is None:
            raise JetError("division by an identically zero jet")
        a = s.coeffs
        n = len(a)
        inv = np.zeros(n, dtype=complex)
        inv[0] = 1.0 / a[0]
        for k in range(1, n):
            inv[k] = -inv[0] * np.dot(a[1 : k + 1], inv[k - 1 :: -1][:k])
        return Jet(self.center, -s.val, inv)

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return Jet(self.center, self.val, self.coeffs / complex(other))
        if not isinstance(other, Jet):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        if n == 0:
            return Jet.constant(1.0, self.center, self.order - self.val)
        if n < 0:
            return self.reciprocal() ** (-n)
        result = self
        for _ in range(int(n) - 1):
            result = result * self
        return result

    def exp(self):
        if self.val < 0:
            raise JetError("exp of a jet with a pole (essential singularity)")
        n_window = self.order + 1
        a = np.zeros(n_window, dtype=complex)
        a[self.val : self.val + len(self.coeffs)] = self.coeffs
        c0 = a[0]
        h = a.copy()
        h[0] = 0.0
        term = np.zeros(n_window, dtype=complex)
        term[0] = 1.0
        acc = term.copy()
        for k in range(1, n_window):
            term = np.convolve(term, h)[:n_window] / k
            acc += term
            if not np.any(term):
                break
        return Jet(self.center, 0, acc * cmath.exp(c0))


def _acc(target, lo, hi, jet):
    """Add jet's coefficients for exponents in [lo, hi] into target."""
    for i, c in enumerate(jet.coeffs):
        e = jet.val + i
        if lo <= e <= hi:
            target[e - lo] += c


def residue_at(f, pole, pole_order_bound):
    """Residue of f at `pole`, assuming a pole of order <= pole_order_bound.

    f is called with a Jet argument; the coefficient of (z - pole)^(-1) of the
    result is returned.  Overestimating the order is safe (the window is just
    wider than needed); underestimating raises, since the -1 coefficient then
    falls outside the retained window.
    """
    if pole_order_bound < 1:
        raise ValueError("pole_order_bound must be >= 1")
    # Each inversion of a factor vanishing to order m costs m retained orders,
    # so a window of twice the pole bound (plus margin) accommodates the
    # rational-times-entire integrands this package builds.
    z = Jet.variable(pole, 2 * pole_order_bound + 2)
    g = f(z)
    if not isinstance(g, Jet):
        # f did not actually depend on z: analytic, residue 0.
        return 0.0 + 0.0j
    if g.val > -1:
        return 0.0 + 0.0j
    if g.order < -1:
        raise JetError(
            f"pole order at {pole} exceeds the stated bound {pole_order_bound}"
        )
    r = g.coeff(-1)
    if not (math.isfinite(r.real) and math.isfinite(r.imag)):
        raise JetError(f"non-finite residue at {pole}")
    return r


# ---------------------------------------------------------------------------
# Quadrature on circles
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class CircleContour:
    """Positively oriented circle |z - center| = radius with trapezoid nodes."""

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.nodes < 8 or self.nodes % 2 != 0:
            raise ValueError("nodes must be an even integer >= 8")

    def points(self, n=None):
        n = self.nodes if n is None else n
        theta = 2.0 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * theta)


def circle_quadrature(f, contour, tol=1e-12, node_cap=2**16):
    """(1/2*pi*i) * contour integral of f, by node-doubling trapezoid rule.

    Returns (value, nodes_used).  f may be vectorized over numpy arrays or
    scalar-only; scalar callables are wrapped.  Raises QuadratureError if the
    estimates have not stabilized to tol by node_cap (a singularity on or near
    the contour).
    """
    n = contour.nodes

    def estimate(n):
        z = contour.points(n)
        try:
            fz = np.asarray(f(z), dtype=complex)
            if fz.shape != z.shape:
                raise TypeError
        except TypeError:
            fz = np.array([f(zi) for zi in z], dtype=complex)
        # dz/(2 pi i) = r e^{i theta} dtheta / (2 pi)
        return np.sum(fz * (z - contour.center)) / n

    prev = estimate(n)
    while True:
        n *= 2
        if n > node_cap:
            raise QuadratureError(
                f"no convergence to {tol:g} within {node_cap} nodes"
            )
        cur = estimate(n)
        if abs(cur - prev) <= tol:
            return cur, n
        prev = cur


# ---------------------------------------------------------------------------
# Nested contour families for the finite-q multiple integral
# ---------------------------------------------------------------------------


class ContourValidationError(ValueError):
    """Carries the list of violated constraints, one name per violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class NestedContourFamily:
    """Circles C_i: |w - 1| = r_i, r_1 < ... < r_N, obeying the four groups:
    C_i excludes 0, 1/q and (q + alpha - 1)/alpha; q*C_j, nearest 1 at
    q(1 + r_j), stays outside C_i for i <= j; 1/(q*C_l), nearest 1 at
    1/(q(1 + r_l)), stays outside every C_k; and C_j encloses 1/C_i, farthest
    from 1 at r_i/(1 - r_i), for i < j.  Use validate_nested_contours to build one.
    """

    q: float
    alpha: float
    radii: tuple

    @property
    def size(self):
        return len(self.radii)


def _forbidden_points(q, alpha):
    """0, 1/q (at q > 0) and the pole of the per-variable factor (at alpha > 0)."""
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    points = [0.0]
    if q > 0.0:
        points.append(1.0 / q)
    if alpha > 0.0:
        # where the per-variable factor 1/(q+alpha-1-alpha*w) blows up; the
        # conventional exclusion point (1-q-alpha)/alpha is its mirror and
        # binds nothing when the two differ (checked against the exact
        # Markov oracle), so only the genuine pole is enforced
        points.append((q + alpha - 1.0) / alpha)
    return points


def _violations(q, alpha, radii, margin=0.0):
    """The violated constraints of the family, named as in validate_nested_contours;
    with a margin, each distance d > r from a radius r must clear r (1 + margin)."""
    points = _forbidden_points(q, alpha)
    widen = 1.0 + margin
    out = []
    for i, r in enumerate(radii):
        for p in points:
            if abs(p - 1.0) <= r * widen:
                out.append(f"encloses-forbidden-point: circle {i + 1} (radius {r:g}) encloses {p:g}")
    if q > 0.0:
        for j, rj in enumerate(radii):
            for i, ri in enumerate(radii[: j + 1]):
                if abs(q * (1.0 + rj) - 1.0) <= ri * widen:
                    out.append(f"q-image-overlap: q*circle {j + 1} meets circle {i + 1}")
        for el, rl in enumerate(radii):
            for k, rk in enumerate(radii):
                if abs(1.0 / (q * (1.0 + rl)) - 1.0) <= rk * widen:
                    out.append(f"inverse-image-overlap: (q*circle {el + 1})^-1 meets circle {k + 1}")
    for j, rj in enumerate(radii):
        for i, ri in enumerate(radii[:j]):
            if rj * abs(1.0 - ri) <= ri * widen:  # r_j <= r_i/|1 - r_i|, exact past r_i = 1 too
                out.append(f"inverse-circle-overlap: 1/circle {i + 1} meets circle {j + 1}")
    return out


def validate_nested_contours(q, alpha, radii):
    """Check the four constraint groups of NestedContourFamily; return the family.

    Raises ContourValidationError listing every violated constraint by name:
    encloses-forbidden-point (|p - 1| <= r_i for a forbidden p),
    q-image-overlap (|q(1 + r_j) - 1| <= r_i, i <= j), inverse-image-overlap
    (|1/(q(1 + r_l)) - 1| <= r_k) and inverse-circle-overlap
    (r_j <= r_i/(1 - r_i), i < j).  The forms need only r < 1: a radius of
    1 or more encloses 0.
    """
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    violations = _violations(q, alpha, radii)
    if violations:
        raise ContourValidationError(violations)
    return NestedContourFamily(q=q, alpha=alpha, radii=radii)


def default_nested_contours(q, alpha, n):
    """Geometric radii r1 * grow^(i-1) with grow <= 1.6, validated.

    Larger contours keep the (1-w)^(-y) initial-data factors small on the
    circles (roundoff scales like r^(-y_1)), so the largest base radius that
    validates with a safety margin to every forbidden point is preferred;
    at large q the nesting constraints force the radii small again.  Every
    constraint must clear by _CONTOUR_MARGIN: a barely valid family gives
    values far off that the node ladder does not see.
    """
    r_hi = 0.55 * min(abs(p - 1.0) for p in _forbidden_points(q, alpha))
    violations = [f"no valid nested family found for q={q}, alpha={alpha}, n={n}"]
    # prefer the largest inner radius the window allows: the exponential
    # factor has amplitude ~ e^(t/r_1) on the innermost circle and the
    # initial-data poles contribute (1-w)^(-y) there, so small circles cost
    # precision even when they validate
    for r1 in (0.15, 0.12, 0.1, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02, 0.012):
        if n > 1:
            grow = min(1.6, (r_hi / r1) ** (1.0 / (n - 1)))
            if grow < 1.22:
                continue  # circles too close together: slow convergence
        else:
            grow = 1.0
            if n and r1 > r_hi:
                continue  # no circle, N = 0, always fits
        radii = tuple(r1 * grow**i for i in range(n))
        violations = _violations(q, alpha, radii, _CONTOUR_MARGIN)
        if not violations:
            return NestedContourFamily(q=q, alpha=alpha, radii=radii)
    raise ContourValidationError(violations)
