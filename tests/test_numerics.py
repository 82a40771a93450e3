"""Jets, residues, circle quadrature, nested contour validation."""

import cmath
import gc
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsep.numerics import (
    CircleContour,
    ContourValidationError,
    Jet,
    JetError,
    QuadratureError,
    circle_quadrature,
    default_nested_contours,
    residue_at,
    validate_nested_contours,
)


class TestJetAlgebra:
    def test_arithmetic_matches_function_values(self):
        # exp((z^2+1)/(3-z)) expanded at 0.4, compared to direct evaluation
        center, order = 0.4, 12
        z = Jet.variable(center, order)
        jet = ((z * z + 1.0) / (3.0 - z)).exp()
        for dz in (0.01, -0.02, 0.03j):
            w = center + dz
            direct = cmath.exp((w * w + 1.0) / (3.0 - w))
            series = sum(
                jet.coeff(k) * dz**k for k in range(jet.val, order - 2)
            )
            assert abs(series - direct) < 1e-12

    def test_division_by_zero_jet_raises(self):
        z = Jet.variable(1.0, 4)
        zero = z * 0.0
        with pytest.raises(JetError):
            (1.0 + z).reciprocal() * zero.reciprocal()

    def test_pole_order_tracked_through_valuation(self):
        z = Jet.variable(2.0, 6)
        f = 1.0 / ((z - 2.0) ** 3)
        assert f.val == -3
        assert abs(f.coeff(-3) - 1.0) < 1e-15

    @given(
        st.lists(
            st.complex_numbers(
                min_magnitude=0.0, max_magnitude=3.0, allow_infinity=False, allow_nan=False
            ),
            min_size=6,
            max_size=6,
        ),
        st.lists(
            st.complex_numbers(
                min_magnitude=0.0, max_magnitude=3.0, allow_infinity=False, allow_nan=False
            ),
            min_size=6,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_div_roundtrip(self, ac, bc):
        # (a*b)/b recovers a through the window when b has a unit-scale lead
        bc = list(bc)
        bc[0] = 1.0 + bc[0] / 6.0  # |b_0| in [1/2, 3/2]: invertible, well scaled
        a = Jet(0.2, 0, ac)
        b = Jet(0.2, 0, bc)
        c = (a * b) / b
        scale = max(np.max(np.abs(a.coeffs)), 1.0)
        # exact leading zeros of a legitimately shift the window (valuation
        # tracking), so compare through the coefficient accessor
        tol = 1e-9 * scale * max(np.max(np.abs(bc)) ** 2, 1.0)
        for k in range(0, c.order + 1):
            assert abs(c.coeff(k) - a.coeff(k)) < tol


class TestResidues:
    def test_simple_pole_of_reciprocal(self):
        assert abs(residue_at(lambda z: 1.0 / (z - 2.0), 2.0, 1) - 1.0) < 1e-14

    def test_taylor_coefficient_of_exp(self):
        t, k = 0.7, 5
        r = residue_at(lambda z: (z * t).exp() / z ** (k + 1), 0.0, k + 1)
        assert abs(r - t**k / math.factorial(k)) < 1e-15

    def test_rational_exponential_example(self):
        # e^{t(w-1)}/((w-alpha)(w-1)) at alpha = 0.5, t = 1: -2 e^{-1/2}
        r = residue_at(
            lambda w: ((w - 1.0) * 1.0).exp() / ((w - 0.5) * (w - 1.0)), 0.5, 1
        )
        assert abs(r - (-2.0 * math.exp(-0.5))) < 1e-12
        assert f"{r.real:.5f}" == "-1.21306"

    def test_overestimated_bound_is_safe(self):
        r = residue_at(lambda z: 1.0 / (z - 2.0), 2.0, 5)
        assert abs(r - 1.0) < 1e-13

    def test_residue_matches_quadrature_randomized(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(0.2, 0.8)
            t = rng.uniform(0.2, 2.0)
            k = int(rng.integers(1, 4))

            def f_jet(w):
                return ((w - 1.0) * t).exp() / ((w - a) * (w - 1.0) ** k)

            def f_num(w):
                return np.exp(t * (w - 1.0)) / ((w - a) * (w - 1.0) ** k)

            r = residue_at(f_jet, 1.0, k)
            circle = CircleContour(1.0, min(0.4 * abs(1.0 - a), 0.3), 16)
            q, _ = circle_quadrature(f_num, circle, tol=1e-13)
            worst = max(worst, abs(r - q))
        assert worst < 1e-10


class TestQuadrature:
    def test_cauchy_integral(self):
        v, n = circle_quadrature(lambda z: 1.0 / z, CircleContour(0.0, 1.0, 8))
        assert abs(v - 1.0) < 1e-13

    def test_poisson_mass(self):
        v, _ = circle_quadrature(
            lambda w: np.exp(w - 1.0) / w**4, CircleContour(0.0, 0.3, 8)
        )
        assert abs(v - math.exp(-1.0) / 6.0) < 1e-12

    def test_essential_singularity(self):
        # exp(w/(1-w)) on |w| = 0.5: the unit residue coefficient of the
        # Laurent expansion at 1 is invisible; compare against the Taylor
        # coefficient sum of exp(w/(1-w)) = sum c_k w^k, contour integral of
        # f/w gives c_0 = 1.
        v, _ = circle_quadrature(
            lambda w: np.exp(w / (1.0 - w)) / w, CircleContour(0.0, 0.5, 16)
        )
        assert abs(v - 1.0) < 1e-12

    def test_nonconvergence_detected(self):
        # singularity sitting exactly on the contour, so its division by zero is expected
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(QuadratureError):
            circle_quadrature(
                lambda z: 1.0 / (z - 1.0), CircleContour(0.0, 1.0, 8), node_cap=256
            )

    def test_node_doubling_bounds_true_error(self):
        circle = CircleContour(0.0, 0.5, 8)
        prev = None
        f = lambda z: np.exp(z) / z  # noqa: E731
        import numpy as _np

        for n in (8, 16, 32):
            z = circle.points(n)
            cur = _np.sum(f(z) * z) / n
            if prev is not None:
                assert abs(cur - 1.0) <= abs(cur - prev) + 1e-15
            prev = cur


class TestNestedContours:
    def test_q_zero_degenerate(self):
        fam = validate_nested_contours(0.0, 0.6, (0.1, 0.2, 0.3))
        assert fam.size == 3

    def test_explicit_inequalities(self):
        fam = validate_nested_contours(0.3, 0.6, (0.05, 0.1, 0.15))
        assert fam.radii == (0.05, 0.1, 0.15)

    def test_forbidden_point_detected(self):
        # the genuine pole of the per-variable factor sits at (q+alpha-1)/alpha
        q, alpha = 0.3, 1.2
        bad = abs(1.0 - (q + alpha - 1.0) / alpha) + 0.05
        with pytest.raises(ContourValidationError) as err:
            validate_nested_contours(q, alpha, (0.05, 0.1, bad))
        assert any("encloses-forbidden-point" in v for v in err.value.violations)

    def test_q_image_overlap_detected(self):
        with pytest.raises(ContourValidationError) as err:
            validate_nested_contours(0.9, 1.5, (0.05, 0.2))
        assert any(
            "overlap" in v or "encloses" in v for v in err.value.violations
        )

    def test_inverse_circle_constraint(self):
        # 1/C_1 reaches 0.2/0.8 = 0.25 from 1
        with pytest.raises(ContourValidationError) as err:
            validate_nested_contours(0.3, 0.6, (0.2, 0.245))
        assert err.value.violations == ["inverse-circle-overlap: 1/circle 1 meets circle 2"]
        assert validate_nested_contours(0.3, 0.6, (0.2, 0.26)).radii == (0.2, 0.26)

    @given(
        st.floats(0.0, 0.95, exclude_max=True),
        st.floats(0.0, 5.0),
        st.lists(st.floats(0.005, 1.5), min_size=1, max_size=5, unique=True).map(sorted),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_match_sampled_circles(self, q, alpha, radii):
        # at r_j = r_i/(1 - r_i) the two sides differ only by rounding
        assume(all(abs(b * abs(1.0 - a) - a) > 1e-12 for a, b in combinations(radii, 2)))
        try:
            validate_nested_contours(q, alpha, radii)
            closed = []
        except ContourValidationError as err:
            closed = [
                (v.split(":")[0], re.findall(r"circle (\d+)", v)) for v in err.violations
            ]
        assert closed == _sampled_violations(q, alpha, radii)

    def test_defaults_valid_on_acceptance_grid(self):
        for q in (0.0, 0.3, 0.7):
            for alpha in (0.4, 1.2):
                fam = default_nested_contours(q, alpha, 3)
                assert fam.size == 3

    def test_rejected_radii_leave_no_reference_cycle(self):
        # garbage left by rejected candidates, such as an exception with its
        # traceback, would hold the caller's grid arrays until the collector runs
        gc.collect()
        gc.disable()
        try:
            default_nested_contours(0.7, 0.6, 3)  # rejects four radii first
            assert gc.collect() == 0
        finally:
            gc.enable()


def _sampled_violations(q, alpha, radii):
    """(name, circle indices) of each violated constraint, from 720 points
    per circle: the reference for the closed forms of the validator."""
    unit = np.exp(2j * np.pi * np.arange(720) / 720)
    out = []
    forbidden = [0.0]
    if q > 0.0:
        forbidden.append(1.0 / q)
    if alpha > 0.0:
        forbidden.append((q + alpha - 1.0) / alpha)
    for i, r in enumerate(radii):
        out += [("encloses-forbidden-point", [str(i + 1)]) for p in forbidden if abs(p - 1.0) <= r]
    if q > 0.0:
        for j, rj in enumerate(radii):
            image = q * (1.0 + rj * unit)
            for i, ri in enumerate(radii[: j + 1]):
                if np.min(np.abs(image - 1.0)) <= ri:
                    out.append(("q-image-overlap", [str(j + 1), str(i + 1)]))
        for el, rl in enumerate(radii):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # q ~ 1e-308
                dist = np.abs(1.0 / (q * (1.0 + rl * unit)) - 1.0)
            for k, rk in enumerate(radii):
                if np.min(dist) <= rk:
                    out.append(("inverse-image-overlap", [str(el + 1), str(k + 1)]))
    for j, rj in enumerate(radii):
        for i, ri in enumerate(radii[:j]):
            if np.max(np.abs(1.0 / (1.0 + ri * unit) - 1.0)) >= rj:
                out.append(("inverse-circle-overlap", [str(i + 1), str(j + 1)]))
    return out
