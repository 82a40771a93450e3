"""Schuetz-type Pfaffian formulas, joint distributions, GT decomposition."""

import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from hsep.kernels import ModelParams, kernel_p, kernel_Q, kernel_U, kernel_Xi
from hsep.markov_oracle import oracle_distribution, particle_count_distribution
from hsep.pfaffian import pfaffian_definition
from hsep.tasep_formulas import (
    GTPattern,
    PatternCapError,
    _matrix,
    _probability,
    _real,
    _top_rows,
    boundary_current_probability,
    enumerate_gt_patterns,
    gt_pattern_sum,
    is_interlacing,
    joint_distribution,
    suggest_z_max,
    tasep_transition_probability,
    w_measure,
)

P = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)


class TestTransitionProbability:
    def test_empty_target(self):
        assert tasep_transition_probability((), (), 1.0, P) == pytest.approx(
            math.exp(-0.5)
        )

    def test_single_particle_vs_oracle(self):
        dist = oracle_distribution((), 1.0, P, s_max=16)
        for x in range(1, 7):
            f = tasep_transition_probability((), (x,), 1.0, P)
            assert abs(f - dist.probability((x,))) < 1e-9

    def test_tiny_values_vs_matching_sum(self):
        # far from the boundary the probability is tiny, yet not 0
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=0.5)
        for x in ((12, 1), (12, 2, 1), (9, 7, 5, 3)):
            n = len(x)
            pre = (-1.0) ** math.comb(n, 2) * math.exp(-0.25) * (0.5 if n % 2 else 1.0)
            expect = pre * pfaffian_definition(_matrix(x, (), p))
            assert expect > 0.0
            v = tasep_transition_probability((), x, 0.5, p)
            assert abs(v - expect) <= 1e-12 * expect

    def test_both_parities_empty(self):
        dist = oracle_distribution((), 1.0, P, s_max=17)
        for n in (2, 3):
            for sites in combinations(range(1, 7), n):
                x = tuple(sorted(sites, reverse=True))
                f = tasep_transition_probability((), x, 1.0, P)
                assert abs(f - dist.probability(x)) < 1e-10

    def test_general_initial_data(self):
        y = (6, 4)
        dist = oracle_distribution(y, 1.0, P, s_max=17)
        for n in (2, 3):
            for sites in combinations(range(1, 9), n):
                x = tuple(sorted(sites, reverse=True))
                f = tasep_transition_probability(y, x, 1.0, P)
                assert abs(f - dist.probability(x)) < 1e-10

    @pytest.mark.parametrize("alpha", [2.76, 3.0, 5.0])
    def test_large_alpha_matches_oracle(self, alpha):
        # alpha^700 overflows above alpha = 2.757; the kernels form no such power
        p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=1.0)
        dist = oracle_distribution((), 1.0, p, s_max=16)
        for n in range(1, 5):
            for sites in combinations(range(1, 8), n):
                x = tuple(sorted(sites, reverse=True))
                f = tasep_transition_probability((), x, 1.0, p)
                assert math.isfinite(f) and abs(f - dist.probability(x)) < 1e-12, x

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, np.array([0.25, math.nan])]
    )
    def test_non_finite_value_refused(self, value):
        # NaN fails every comparison, so a bound alone would not refuse it
        with pytest.raises(ArithmeticError, match="not finite"):
            _real(value)

    @pytest.mark.parametrize("value", [-1e-6, 1.5, -1.5e17])
    def test_probability_outside_unit_interval_refused(self, value):
        # what the alternating k-sum of Q returns once it has lost all accuracy
        with pytest.raises(ArithmeticError, match="outside"):
            _probability(value)
        assert _probability(-1e-12) == -1e-12

    def test_validity_domain_rejected(self):
        with pytest.raises(ValueError):
            tasep_transition_probability((2, 1), (4, 2, 1), 1.0, P)

    def test_requires_tasep(self):
        with pytest.raises(ValueError):
            tasep_transition_probability(
                (), (1,), 1.0, ModelParams(q=0.3, alpha=0.5, gamma=0.0, t=1.0)
            )

    def test_probabilities_in_unit_interval(self):
        for sites in combinations(range(1, 7), 2):
            x = tuple(sorted(sites, reverse=True))
            v = tasep_transition_probability((), x, 1.0, P)
            assert -1e-12 <= v <= 1.0

    def test_full_space_reduction_alpha_independent(self):
        y, x = (7, 5, 2), (9, 6, 3)
        vals = []
        for alpha in (0.3, 0.9):
            p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=1.0)
            vals.append(
                tasep_transition_probability(y, x, 1.0, p) * math.exp(alpha)
            )
        assert abs(vals[0] - vals[1]) < 1e-12
        det = np.linalg.det(
            [[kernel_U(i - j, x[3 - i] - y[3 - j], 0, P) for j in (1, 2, 3)] for i in (1, 2, 3)]
        )
        assert abs(vals[0] - det) < 1e-12


class TestJointAndCurrent:
    def test_joint_by_brute_force(self):
        s = (4, 2)
        brute = sum(
            tasep_transition_probability((), (x1, x2), 1.0, P)
            for x1 in range(4, 18)
            for x2 in range(2, x1)
        )
        assert abs(joint_distribution((), s, 1.0, P) - brute) < 1e-9

    def test_minimal_packing_equals_current(self):
        v = joint_distribution((), (2, 1), 1.0, P)
        assert abs(v - boundary_current_probability(2, (), 1.0, P)) < 1e-12

    def test_current_vs_oracle(self):
        counts, _ = particle_count_distribution((), 1.0, P, s_max=16)
        for n in range(0, 5):
            f = boundary_current_probability(n, (), 1.0, P)
            assert abs(f - counts[n]) < 1e-9

    def test_current_normalization(self):
        total = sum(
            boundary_current_probability(n, (), 1.0, P) for n in range(0, 12)
        )
        assert abs(total - 1.0) < 1e-10

    def test_shift_property(self):
        y = (8, 6)
        for n in (2, 3, 4):
            a = boundary_current_probability(n, y, 1.0, P)
            b = boundary_current_probability(n - 2, (), 1.0, P)
            assert abs(a - b) < 1e-12


def per_pattern_sum(x, y, t, params, z_max):
    """Reference GT sum: one matching-sum Pfaffian per pattern's top row."""
    n, m = len(x), len(y)
    total = 0.0
    for pat in enumerate_gt_patterns(x, z_max):
        z = pat.top
        d = n + m + (1 if m == 0 and n % 2 else 0)
        mat = np.zeros((d, d))
        for i in range(n):
            for j in range(i + 1, n):
                mat[i, j] = kernel_Q(1, 1, z[i], z[j], params)
            for k in range(m):
                mat[i, n + k] = kernel_Xi(n, k + 1, y[k], z[i], params)
            if d > n + m:
                mat[i, n] = kernel_p(1, z[i], params)
        total += pfaffian_definition(mat - mat.T)
    sign = (-1.0) ** (math.comb(n, 2) + m) * math.exp(-params.alpha * t)
    return sign * total * (params.alpha if (n + m) % 2 else 1.0)


class TestGTDecomposition:
    def test_pattern_validation(self):
        GTPattern([(3,), (1, 4)])
        with pytest.raises(ValueError):
            GTPattern([(3,), (1, 2)])
        assert is_interlacing([(3,), (1, 4)])
        assert is_interlacing([(3,), (1, 3)])  # the upper bound is weak
        assert not is_interlacing([(3,), (3, 4)])

    def test_enumeration_matches_direct_check(self):
        pats = list(enumerate_gt_patterns((3, 1), 8))
        # z_2^2 ranges over [x_1, z_max]
        assert len(pats) == 8 - 3 + 1
        for pat in pats:
            assert pat.left_edge() == (3, 1)
            assert is_interlacing(pat.rows)

    def test_even_case_matches_pfaffian(self):
        p = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=0.8)
        v, rem = gt_pattern_sum((3, 1), (), 0.8, p)
        f = tasep_transition_probability((), (3, 1), 0.8, p)
        assert abs(v - f) < 1e-10
        assert rem < 1e-10

    def test_odd_case_matches_pfaffian(self):
        p = ModelParams(q=0.0, alpha=0.9, gamma=0.0, t=0.8)
        v, rem = gt_pattern_sum((4, 2, 1), (), 0.8, p)
        f = tasep_transition_probability((), (4, 2, 1), 0.8, p)
        assert abs(v - f) < 1e-9

    def test_initial_data_case(self):
        v, _ = gt_pattern_sum((5, 2), (6, 4), 1.0, P)
        f = tasep_transition_probability((6, 4), (5, 2), 1.0, P)
        assert abs(v - f) < 1e-10

    @pytest.mark.parametrize("x, y", [((4,), (3,)), ((6, 4, 3), (5,)), ((8, 6, 4), (7, 5, 3))])
    def test_odd_m_matches_pfaffian(self, x, y):
        p = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=0.8)
        v, rem = gt_pattern_sum(x, y, 0.8, p)
        f = tasep_transition_probability(y, x, 0.8, p)
        assert f > 1e-6
        assert abs(v - f) <= rem + 1e-12 * f

    def test_z_max_suggestion_covers_tail(self):
        z = suggest_z_max((3, 1), 0.8)
        v1, _ = gt_pattern_sum((3, 1), (), 0.8, P, z_max=z)
        v2, _ = gt_pattern_sum((3, 1), (), 0.8, P, z_max=z + 5)
        assert abs(v1 - v2) < 1e-12

    def test_z_max_below_left_edge_refused(self):
        # every top row has an entry >= x_1, so no pattern fits below it
        with pytest.raises(ValueError, match="z_max"):
            gt_pattern_sum((4, 2, 1), (), 1.0, P, z_max=3)
        v, _ = gt_pattern_sum((4, 2, 1), (), 1.0, P, z_max=4)
        assert v > 0.0

    @pytest.mark.parametrize("x", [(3, 1), (4, 2, 1), (5, 3, 2, 1), (4, 3, 2, 1), (6,)])
    def test_top_row_counts_vs_brute_force(self, x):
        for z_max in (x[0], x[0] + 1, x[0] + 3):
            candidates = [
                [(x[k],) + c for c in combinations(range(x[k] + 1, z_max + 1), k)]
                for k in range(len(x))
            ]
            counts = Counter(rows[-1] for rows in product(*candidates) if is_interlacing(rows))
            total = sum(counts.values())
            assert _top_rows(x, z_max, cap=total) == dict(counts)
            assert total == len(list(enumerate_gt_patterns(x, z_max)))
            with pytest.raises(PatternCapError):
                _top_rows(x, z_max, cap=total - 1)

    @pytest.mark.parametrize(
        "x, y",
        [((3, 1), ()), ((4, 2, 1), ()), ((4, 3, 2, 1), ()), ((3,), ()),
         ((7, 5), (6, 4)), ((7, 5, 2, 1), (6, 4)), ((6, 4, 3), (5,))],
    )
    def test_grouped_sum_vs_per_pattern(self, x, y):
        p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=1.1)
        z_max = x[0] + 4
        v, _ = gt_pattern_sum(x, y, 1.1, p, z_max=z_max)
        ref = per_pattern_sum(x, y, 1.1, p, z_max)
        assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("x, y", [((3, 1), ()), ((4, 2, 1), ()), ((5, 2), (6, 4))])
    def test_remainder_bounds_truncation(self, x, y):
        p = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=0.8)
        f = tasep_transition_probability(y, x, 0.8, p)
        for dz in (2, 5, 8, 12):
            v, rem = gt_pattern_sum(x, y, 0.8, p, z_max=x[0] + dz)
            assert abs(v - f) <= rem + 1e-15

    def test_empty_pattern(self):
        v, rem = gt_pattern_sum((), (), 1.0, P)
        assert v == pytest.approx(math.exp(-0.5), rel=1e-15) and rem == 0.0
        assert w_measure([], (), 0, P) == 1.0

    def test_pattern_cap(self):
        with pytest.raises(RuntimeError):
            list(enumerate_gt_patterns((9, 5, 1), 40, cap=10))


class TestWMeasure:
    def test_vanishes_off_interlacing(self):
        assert w_measure([(3,), (1, 2)], (), 2, P) == 0.0

    def test_equals_pfaffian_weight_on_patterns(self):
        from hsep.kernels import kernel_Q
        from hsep.pfaffian import pfaffian

        rows = [(3,), (1, 5)]
        v = w_measure(rows, (), 2, P)
        psi = np.zeros((2, 2))
        psi[0, 1] = kernel_Q(1, 1, 1, 5, P)
        psi[1, 0] = -psi[0, 1]
        expected = (-1) ** math.comb(2, 2) * pfaffian(psi)
        assert abs(v - expected) < 1e-14

    def test_sum_recovers_transition_probability(self):
        total = sum(
            w_measure(pat.rows, (), 2, P)
            for pat in enumerate_gt_patterns((3, 1), 30)
        )
        f = tasep_transition_probability((), (3, 1), 1.0, P)
        assert abs(math.exp(-0.5) * total - f) < 1e-11
