"""The finite-q symmetrization, nested quadrature, and section-6 identities."""

import math
from itertools import combinations

import numpy as np
import pytest

from hsep.asep_integral import (
    V_constant,
    _contract,
    _cross,
    _terms,
    asep_transition_batch,
    asep_transition_probability,
    bc_symmetrization_sum,
    eval_F,
    eval_F_alternative,
    eval_F_pfaffian_limit,
    signed_permutations,
    test_eigenvector_relation as eigenvector_residual,
    test_tw_vanishing_sum as tw_vanishing_sum,
)
from hsep.kernels import ModelParams
from hsep.markov_oracle import oracle_distribution, transition_probability_exact
from hsep.numerics import QuadratureError, default_nested_contours
from hsep.pfaffian import pfaffian
from hsep.tasep_formulas import tasep_transition_probability

P = ModelParams(q=0.4, alpha=0.6, gamma=0.0, t=1.0)


def alphabet(rng, n, center=0.3, spread=0.3):
    return center + spread * rng.normal(size=n) + 1j * spread * rng.normal(size=n)


class TestGroupAndConstants:
    def test_group_order(self):
        assert sum(1 for _ in signed_permutations(3)) == 2**3 * math.factorial(3)

    def test_v_values(self):
        assert V_constant(0, 0.3) == 1.0
        assert V_constant(1, 0.3) == 0.5

    def test_v_ratio_identity(self):
        for q in (0.2, 0.55):
            for m in (1, 2, 3, 4):
                lhs = V_constant(m - 1, q) / V_constant(m, q)
                rhs = sum(q**j + q ** (-j) for j in range(m))
                assert abs(lhs - rhs) < 1e-12 * rhs


class TestEvalF:
    def test_empty_configuration(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            w = alphabet(rng, n)
            assert abs(eval_F((), w, P) - P.alpha**n) < 1e-12

    def test_config_one_closed_form(self):
        rng = np.random.default_rng(1)
        q = P.q
        for n in (1, 2, 3):
            w = alphabet(rng, n)
            rhs = P.alpha ** (n - 1) * sum(
                (1 - q) ** 2 * wi / ((1 - wi) * (1 - q * wi)) for wi in w
            )
            assert abs(eval_F((1,), w, P) - rhs) < 1e-10 * max(abs(rhs), 1.0)

    def test_more_parts_than_alphabet(self):
        assert eval_F((5, 3, 1), [0.2, 0.3], P) == 0.0

    def test_zero_slice_recursion(self):
        rng = np.random.default_rng(2)
        w = list(alphabet(rng, 3))
        w[1] = 0.0
        lhs = eval_F((4, 2), w, P)
        rhs = P.alpha * eval_F((4, 2), [w[0], w[2]], P)
        assert abs(lhs - rhs) < 1e-8 * max(abs(rhs), 1.0)

    def test_alternative_formula(self):
        rng = np.random.default_rng(3)
        # every (N, M) with M >= 1 that the quadrature runs, N <= 3, and N = 4;
        # q = 0.015 and 0.06 are Richardson legs, where the two flips of a
        # folded factor differ in size by about 1/q
        cases = (((2,), 1), ((3,), 2), ((3, 1), 2), ((4,), 3), ((4, 2), 3),
                 ((5, 3), 3), ((5, 3, 1), 3), ((5, 3), 4), ((5, 3, 1), 4),
                 ((5, 3, 2, 1), 4))
        for q in (P.q, 0.015, 0.06):
            params = ModelParams(q=q, alpha=P.alpha, gamma=0.0, t=P.t)
            for (y, n) in cases:
                w = alphabet(rng, n)
                a = eval_F(y, w, params)
                b = eval_F_alternative(y, w, params)
                assert abs(a - b) < 1e-10 * max(abs(a), 1.0)

    def test_folded_term_counts(self):
        # the flips of the last two positions are summed inside one factor:
        # C(N, M) M! 2^min(M, N - 2) terms instead of C(N, M) M! 2^M
        counts = {(1, 1): 1, (2, 1): 2, (2, 2): 2, (3, 1): 6, (3, 2): 12,
                  (3, 3): 12, (4, 2): 48, (4, 3): 96, (4, 4): 96}
        rng = np.random.default_rng(10)
        for (n, m), count in counts.items():
            nodes = [alphabet(rng, 2) for _ in range(n)]
            y = tuple(range(2 * m, 0, -2))
            assert len(list(_terms(y, nodes, P))) == count

    def test_bounded_near_removable_locus(self):
        # w_i -> w_j: the symmetrized function stays bounded as the distance
        # shrinks toward the validation threshold
        rng = np.random.default_rng(4)
        w = alphabet(rng, 3)
        base = eval_F((3, 1), w, P)
        for eps in (1e-2, 1e-3, 1e-4):
            w2 = list(w)
            w2[1] = w2[0] + eps
            v = eval_F((3, 1), w2, P)
            assert abs(v) < 50 * max(abs(base), 1.0)

    def test_singular_alphabet_rejected(self):
        with pytest.raises(ValueError):
            eval_F((2,), [1.0 + 1e-10, 0.3], P)

    def test_pfaffian_limit_matches_small_q(self):
        rng = np.random.default_rng(5)
        for (y, n) in (((), 2), ((5,), 2), ((6, 4), 3), ((8, 6, 4), 4)):
            w = alphabet(rng, n)
            lim = eval_F_pfaffian_limit(
                y, w, ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=1.0)
            )
            v1 = eval_F(y, w, ModelParams(q=1e-4, alpha=0.6, gamma=0.0, t=1.0))
            v2 = eval_F(y, w, ModelParams(q=5e-5, alpha=0.6, gamma=0.0, t=1.0))
            extrap = 2.0 * v2 - v1
            assert abs(extrap - lim) < 1e-6 * max(abs(lim), 1.0)

    def test_pfaffian_limit_is_block_pfaffian(self):
        # the paper's q = 0 form, which production sums as the unflipped
        # partial symmetrization: (-1)^C(M,2) alpha^(N-M) Pf[[A, B], [-B^T, 0]]
        # / prod_{a<b} A_ab, A_ab = (w_a - w_b)/(1 - w_a w_b), and B a ones
        # column if N + M is odd, then g_k(w) = (1 - alpha + alpha w)
        # w^(N-k+1) / (1 - w)^(y_k) for k = 1..M
        rng = np.random.default_rng(12)
        for n in range(1, 6):
            for m in range(n + 1):
                y = tuple(int(v) + n - m + 1 for v in np.cumsum(rng.integers(1, 3, size=m))[::-1])
                alpha = rng.uniform(0.2, 1.6)
                w = alphabet(rng, n)
                a = (w[:, None] - w) / (1.0 - w[:, None] * w)
                ones = (n + m) % 2
                b = np.ones((n, ones + m), dtype=complex)
                for k in range(1, m + 1):
                    b[:, ones + k - 1] = (1 - alpha + alpha * w) * w ** (n - k + 1) / (1 - w) ** y[k - 1]
                zero = np.zeros((ones + m, ones + m))
                pf = pfaffian(np.block([[a, b], [-b.T, zero]]))
                expected = (-1) ** math.comb(m, 2) * alpha ** (n - m) * pf / np.prod(a[np.triu_indices(n, 1)])
                got = eval_F_pfaffian_limit(y, w, ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=1.0))
                assert abs(got - expected) <= 1e-11 * abs(expected), (n, y)


class TestSymmetrizationIdentities:
    def test_full_factorization(self):
        rng = np.random.default_rng(6)
        for q in (0.25, 0.6):
            for n in (2, 3, 4):
                w = alphabet(rng, n)
                s = bc_symmetrization_sum(w, q)
                assert abs(s - 1.0 / V_constant(n, q)) < 1e-9 * abs(s)

    def test_partial_factorization(self):
        rng = np.random.default_rng(7)
        q = 0.35
        for (n, m) in ((3, 1), (4, 2), (4, 1)):
            w = alphabet(rng, n)
            s = bc_symmetrization_sum(w, q, m_fixed=m)
            expected = 1.0 / V_constant(n - m, q)
            for i in range(m):
                for j in range(i + 1, n):
                    expected *= _cross(w[i], w[j], q)
            assert abs(s - expected) < 1e-9 * abs(expected)

    def test_reflection_identity(self):
        # S(a, 1/(q b)) = S(a, b), on which _terms folds the flip sums
        rng = np.random.default_rng(11)
        for q in (0.015, 0.3, 0.7):
            a, b = alphabet(rng, 50), alphabet(rng, 50)
            lhs, rhs = _cross(a, 1.0 / (q * b), q), _cross(a, b, q)
            assert np.all(np.abs(lhs - rhs) <= 1e-13 * np.abs(rhs))


class TestEigenvector:
    def test_residuals_including_scattering(self):
        rng = np.random.default_rng(8)
        cases = [((), 2), ((3,), 2), ((4, 3), 3), ((3, 2, 1), 3), ((2, 1), 2), ((5, 1), 2)]
        for (y, n) in cases:
            for _ in range(4):
                w = alphabet(rng, n, spread=0.25)
                assert eigenvector_residual(y, w, P) < 1e-9


class TestTransitionQuadrature:
    def test_t_zero_orthogonality_small(self):
        p = ModelParams(q=0.3, alpha=0.6, gamma=0.0, t=0.0)
        xs = [(2,), (4,)]
        for y in ((), (2,), (4,)):
            vals, _ = asep_transition_batch(y, 1, xs, 0.0, p, nodes=24, tol=1e-9)
            for x, v in vals.items():
                assert abs(v - (1.0 if x == y else 0.0)) < 1e-8

    def test_matches_oracle(self):
        p = ModelParams(q=0.3, alpha=0.6, gamma=0.0, t=0.5)
        dist = oracle_distribution((3, 1), 0.5, p, s_max=13)
        xs = [tuple(sorted(s, reverse=True)) for s in combinations(range(1, 6), 2)]
        vals, diag = asep_transition_batch((3, 1), 2, xs, 0.5, p, nodes=24, tol=1e-8)
        assert diag["max_imag"] < 1e-9
        for x, v in vals.items():
            assert abs(v - dist.probability(x)) < 1e-7

    def test_n4_matches_oracle(self):
        # N = 4 is the first N whose contraction keeps a grid of two variables
        p = ModelParams(q=0.3, alpha=0.6, gamma=0.0, t=0.3)
        dist = oracle_distribution((4, 2), 0.3, p, s_max=14)
        xs = [tuple(sorted(s, reverse=True)) for s in combinations(range(1, 7), 4)]
        vals, _ = asep_transition_batch((4, 2), 4, xs, 0.3, p, nodes=24, tol=1e-8)
        for x, v in vals.items():
            assert abs(v - dist.probability(x)) < 1e-9

    def test_q_zero_matches_pfaffian(self):
        p = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=0.5)
        v = asep_transition_probability((4, 2), (5, 3), 0.5, p, tol=1e-8, nodes=24)
        f = tasep_transition_probability((4, 2), (5, 3), 0.5, p)
        assert abs(v - f) < 1e-8

    def test_q_zero_non_separated_fallback(self):
        p = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=0.5)
        dist = oracle_distribution((2, 1), 0.5, p, s_max=13)
        v = asep_transition_probability((2, 1), (4, 2, 1), 0.5, p, tol=1e-7, nodes=24)
        assert abs(v - dist.probability((4, 2, 1))) < 1e-7

    @pytest.mark.parametrize("y1", [5, 6, 7, 8])
    def test_richardson_certified_or_refused(self, y1):
        # the q -> 0 legs climb the node ladder; their noise floor grows with
        # y1 (at t = 2), and a batch the ladder cannot certify is refused
        p = ModelParams(q=0.0, alpha=0.4, gamma=0.0, t=2.0)
        xs = [tuple(sorted(s, reverse=True)) for s in combinations(range(1, 9), 2)]
        try:
            vals, diag = asep_transition_batch((y1, 1), 2, xs, 2.0, p, tol=1e-7)
        except QuadratureError:
            return
        assert diag["q_extrapolated"] and diag["last_delta"] <= 1e-7
        dist = oracle_distribution((y1, 1), 2.0, p, s_max=22)
        for x, v in vals.items():
            assert abs(v - dist.probability(x)) <= 1e-7 + dist.tail_bound

    def test_nodes_below_one_refused(self):
        # with no nodes every pass sums to 0, and two passes agree at once
        p = ModelParams(q=0.3, alpha=0.5, gamma=0.0, t=1.0)
        for nodes in (0, -4):
            with pytest.raises(ValueError, match="nodes"):
                asep_transition_batch((), 1, [(1,)], 1.0, p, nodes=nodes)
        vals, diag = asep_transition_batch((), 1, [(1,)], 1.0, p, nodes=1)
        assert vals[(1,)] == pytest.approx(0.2476, abs=1e-4)
        ladder = [1]  # a pass takes half again the nodes of the last, rounded up
        while ladder[-1] < diag["nodes"]:
            ladder.append(ladder[-1] + (ladder[-1] + 1) // 2)
        assert ladder[:4] == [1, 2, 3, 5] and ladder[-1] == diag["nodes"]

    def test_tol_outside_unit_interval_refused(self):
        # at tol >= 1 any two passes agree, so a far-off first pass returned;
        # at tol <= 0 or nan none do, and the ladder ran to its cap
        p = ModelParams(q=0.3, alpha=0.5, gamma=0.0, t=1.0)
        for tol in (math.inf, 1e300, 1.0, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="tol"):
                asep_transition_batch((), 1, [(1,)], 1.0, p, tol=tol)

    def test_doubling_returns_only_agreeing_passes(self):
        # a value is returned only when two passes agree, and then it must
        # match the oracle; at alpha = 2.46 the widest default family would
        # put C_3 inside 1/C_2, so the validator moves to smaller radii
        p = ModelParams(q=0.0, alpha=2.46, gamma=0.0, t=1.0)
        try:
            vals, _ = asep_transition_batch((), 3, [(3, 2, 1)], 1.0, p, tol=1e-7)
        except QuadratureError:
            return
        exact, tail = transition_probability_exact((), (3, 2, 1), 1.0, p)
        assert abs(vals[(3, 2, 1)] - exact) <= 1e-7 + tail

    @pytest.mark.parametrize(
        "x, q, alpha",
        [((4, 3, 2, 1), 0.0, 1.2), ((4, 3, 2, 1), 0.3, 1.2), ((3, 2, 1), 0.0, 2.46), ((3, 2, 1), 0.3, 1.71)],
    )
    def test_circles_enclose_inverse_circles(self, x, q, alpha):
        # radii with C_j inside 1/C_i left the pole w_j = 1/w_i between the
        # circles: 1.6e-6 and 3.0e-6 off at N = 4, no convergence at N = 3
        p = ModelParams(q=q, alpha=alpha, gamma=0.0, t=1.0)
        v = asep_transition_probability((), x, 1.0, p)
        exact, _ = transition_probability_exact((), x, 1.0, p, s_max=16)
        assert abs(v - exact) <= 1e-9

    @pytest.mark.parametrize(
        "n, q, alpha, radii",
        [(3, 0.7, 0.9351, (0.06, 0.096, 0.1536)), (5, 0.29, 1.73, (0.08, 0.1037, 0.1344, 0.1742, 0.2257))],
    )
    def test_contours_clear_constraints_with_margin(self, n, q, alpha, radii):
        # without the margin the default radii cleared the q-image bound by
        # 1e-4 (N = 3) and 1/C_i by 9.9e-7 (N = 5), relative: 7e-11 and
        # 2e-10 off the oracle, while two agreeing passes at 48 nodes hid it
        assert default_nested_contours(q, alpha, n).radii == pytest.approx(radii, abs=1e-4)
        p = ModelParams(q=q, alpha=alpha, gamma=0.0, t=1.0)
        xs = [tuple(sorted(c, reverse=True)) for c in combinations(range(1, 6), n)]
        vals, _ = asep_transition_batch((), n, xs, 1.0, p)
        dist = oracle_distribution((), 1.0, p, s_max=16)
        for x in xs:
            assert abs(vals[x] - dist.probability(x)) <= 1e-13 + dist.tail_bound, x

    def test_n_zero(self):
        p = ModelParams(q=0.3, alpha=0.6, gamma=0.0, t=0.7)
        assert asep_transition_probability((), (), 0.7, p) == pytest.approx(
            math.exp(-0.42)
        )
        for q in (0.3, 0.0):
            empty = asep_transition_batch((), 2, [], 0.7, ModelParams(q=q, alpha=0.6))
            assert empty == ({}, {"nodes": 0, "max_imag": 0.0})


def _full_grid_sum(terms, pairs, singles, rows):
    """The sum _contract computes, over the full N-dimensional node grid."""
    n = len(rows)
    size = [r.shape[1] for r in rows]

    def lay(f, axes):
        shape = [1] * n
        for ax, s in zip(axes, np.shape(f)):
            shape[ax] = s
        return np.reshape(f, shape)

    grid = np.zeros(size, dtype=complex)
    for coef, tpairs, tsingles in terms:
        term = np.full(size, coef, dtype=complex)
        for ab, f in tpairs.items():
            term = term * lay(f, ab)
        for d, f in tsingles.items():
            term = term * lay(f, (d,))
        grid += term
    for ab, f in pairs.items():
        grid = grid * lay(f, ab)
    for d, f in singles.items():
        grid = grid * lay(f, (d,))
    nodes, sites = "abcd"[:n], "ABCD"[:n]
    spec = ",".join(s + k for s, k in zip(sites, nodes))
    return np.einsum(f"{nodes},{spec}->{sites}", grid, *rows)


class TestContraction:
    def test_matches_full_grid_sum(self):
        rng = np.random.default_rng(9)

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for n in (1, 2, 3, 4):
            size = [int(v) for v in rng.integers(5, 9, size=n)]
            ab_all = list(combinations(range(n), 2))
            pairs = {ab: cplx(size[ab[0]], size[ab[1]]) for ab in ab_all}
            singles = {d: cplx(size[d]) for d in range(n) if d != 1}
            rows = [cplx(int(rng.integers(1, 4)), s) for s in size]
            terms = []
            for _ in range(4):
                # each term leaves some factors out (an absent factor is 1)
                tp = {ab: cplx(size[ab[0]], size[ab[1]]) for ab in ab_all if rng.random() < 0.7}
                ts = {d: cplx(size[d]) for d in range(n) if rng.random() < 0.7}
                terms.append((complex(*rng.normal(size=2)), tp, ts))
            got = _contract(iter(terms), pairs, singles, rows)
            want = _full_grid_sum(terms, pairs, singles, rows)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestVanishingSum:
    def test_n1_empty_sum(self):
        p = ModelParams(q=0.4, alpha=0.6, gamma=0.0, t=1.0)
        assert tw_vanishing_sum((3,), (2,), p) == 0.0

    def test_n2(self):
        p = ModelParams(q=0.4, alpha=0.6, gamma=0.0, t=1.0)
        assert tw_vanishing_sum((3, 1), (4, 2), p) < 1e-9

    def test_n3(self):
        p = ModelParams(q=0.2, alpha=0.6, gamma=0.0, t=1.0)
        assert tw_vanishing_sum((5, 3, 1), (6, 4, 2), p) < 1e-8
