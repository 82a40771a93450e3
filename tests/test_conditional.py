"""The pairing matrices, the conditional kernel, and its oracles."""

import math
from itertools import combinations

import numpy as np
import pytest

from hsep.conditional import (
    BruteForceEnsemble,
    build_skew_biorthogonal,
    conditional_distribution,
    conditional_kernel,
    correlation_kernel_bruteforce,
    fullspace_biorthogonal,
    fullspace_distribution,
    moment_matrix,
    virtual_pairing_matrix,
)
from hsep.kernels import ModelParams, kernel_Q
from hsep.markov_oracle import (
    conditional_event_probability,
    oracle_distribution,
)
from hsep.pfaffian import pfaffian, skew_borel, skew_borel_explicit_inverse
from hsep.tasep_formulas import tasep_transition_probability, w_measure

P = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)


class TestFamilies:
    """The pairings whose Gram matrix Phi and Upsilon factor."""

    def test_gram_certificate(self):
        gram = build_skew_biorthogonal(4, 2, (9, 7), P)
        pmat = virtual_pairing_matrix(4, 2, (9, 7), P)
        g = np.block([[moment_matrix(4, P), pmat], [-pmat.T, np.zeros((2, 2))]])
        s = np.diag(gram.scale)
        assert np.max(np.abs(gram.matrix - s @ g @ s)) < 1e-15
        assert np.max(np.abs(gram.matrix + gram.matrix.T)) == 0.0
        assert np.max(np.abs(gram.matrix)) == pytest.approx(1.0)
        assert gram.residuals["gram_cond"] == pytest.approx(np.linalg.cond(gram.matrix))
        assert gram.residuals["gram_cond"] < 1e2
        assert build_skew_biorthogonal(0, 0, (), P).residuals == {"gram_cond": 1.0}

    def test_equilibration_keeps_full_data_certified(self):
        # at M = N the moment matrix outgrows the pairing block as alpha t
        # grows; cond(G) is 7e6 here, its equilibrated form 8e4, and the
        # conditional law at M = N does not depend on alpha
        y = (7, 6, 5, 4, 3)
        vals = []
        for alpha in (0.3, 1.6):
            p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=2.9)
            assert build_skew_biorthogonal(5, 5, y, p).residuals["gram_cond"] < 2e5
            vals.append(conditional_distribution((1, 5), (1, 3), 5, 5, y, 2.9, p))
        assert abs(vals[0] - vals[1]) < 1e-12

    def test_ill_conditioned_gram_refused(self):
        # (N, M) = (4, 0) at t = 0.4: cond(G) ~ 1e7
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=0.4)
        with pytest.raises(ArithmeticError, match="condition number"):
            build_skew_biorthogonal(4, 0, (), p)
        with pytest.raises(ArithmeticError):
            conditional_distribution((1,), (4,), 4, 0, (), 0.4, p)

    def test_explicit_inverse_path_matches(self):
        # the skew-Borel factor of the moment matrix (one factorization of
        # its inverse) agrees with the sub-Pfaffian explicit inverse
        nmat = moment_matrix(4, P)
        fac = skew_borel(nmat)
        direct = np.linalg.inv(fac.r)
        explicit = skew_borel_explicit_inverse(nmat)
        assert np.max(np.abs(direct - explicit)) < 1e-9 * max(
            1.0, np.max(np.abs(direct))
        )

    def test_pairing_matrix_structure(self):
        # [P] = [S_M; 0] with S_M upper triangular, diagonal (-1)^k
        pmat = virtual_pairing_matrix(4, 2, (9, 7), P)
        assert np.max(np.abs(pmat[2:, :])) < 1e-13
        assert abs(pmat[0, 0] - (-1.0)) < 1e-13
        assert abs(pmat[1, 1] - 1.0) < 1e-13
        assert abs(pmat[1, 0]) < 1e-13

    def test_block_inverse_lemma(self):
        # [[A, B], [-B^T, D]]^{-1} block formula on random skew data
        rng = np.random.default_rng(0)
        na, nd = 4, 6
        a = rng.normal(size=(na, na))
        a = a - a.T
        d = rng.normal(size=(nd, nd))
        d = d - d.T
        b = rng.normal(size=(na, nd))
        full = np.block([[a, b], [-b.T, d]])
        dinv = np.linalg.inv(d)
        h = a + b @ dinv @ b.T
        hinv = np.linalg.inv(h)
        inv = np.block(
            [
                [hinv, -hinv @ b @ dinv],
                [dinv @ b.T @ hinv, dinv - dinv @ b.T @ hinv @ b @ dinv],
            ]
        )
        assert np.max(np.abs(inv - np.linalg.inv(full))) < 1e-10


class TestBruteForceEnsemble:
    def test_w_measure_proportionality(self):
        ens = correlation_kernel_bruteforce(2, 0, (), P, 10)
        ratios = []
        for rows in ([(3,), (1, 4)], [(3,), (1, 3)], [(5,), (2, 6)]):
            a = [(1, rows[0][0]), (2, rows[1][0]), (2, rows[1][1])]
            ratios.append(ens.pf_l_restricted(a) / w_measure(rows, (), 2, P))
        assert np.max(np.abs(np.diff(ratios))) < 1e-10

    def test_wrong_fiber_counts_vanish(self):
        ens = correlation_kernel_bruteforce(2, 0, (), P, 8)
        assert ens.pf_l_restricted([(1, 2), (1, 3), (2, 4)]) == 0.0
        assert ens.pf_l_restricted([(2, 2), (2, 3)]) == 0.0
        assert ens.pf_l_restricted([(1, 2), (2, 3)]) == 0.0

    def test_measure_total_is_one(self):
        ens = correlation_kernel_bruteforce(2, 0, (), P, 6)
        points = [(i, x) for i in (1, 2) for x in range(1, 7)]
        total = 0.0
        for r in range(len(points) + 1):
            for sub in combinations(points, r):
                total += ens.measure(list(sub))
        assert abs(total - 1.0) < 1e-9

    def test_gap_probability_is_fredholm_pfaffian(self):
        ens = correlation_kernel_bruteforce(2, 0, (), P, 6)
        points = [(i, x) for i in (1, 2) for x in range(1, 7)]
        forbidden = [(2, 1), (2, 2)]
        brute = 0.0
        for r in range(len(points) + 1):
            for sub in combinations(points, r):
                if any(z in forbidden for z in sub):
                    continue
                brute += ens.measure(list(sub))
        npts = len(forbidden)
        mat = np.zeros((2 * npts, 2 * npts))
        jblk = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for aa in range(npts):
            for bb in range(npts):
                blk = -ens.kernel_block(*forbidden[aa], *forbidden[bb])
                if aa == bb:
                    blk = blk + jblk
                mat[2 * aa : 2 * aa + 2, 2 * bb : 2 * bb + 2] = blk
        mat = (mat - mat.T) / 2
        assert abs(brute - pfaffian(mat)) < 1e-8

    def test_correlation_functions_are_pfaffians(self):
        ens = correlation_kernel_bruteforce(2, 0, (), P, 6)
        points = [(i, x) for i in (1, 2) for x in range(1, 7)]
        for zset in ([(1, 2)], [(1, 2), (2, 3)], [(1, 1), (2, 1)]):
            brute = 0.0
            for r in range(len(points) + 1):
                for sub in combinations(points, r):
                    if all(z in sub for z in zset):
                        brute += ens.measure(list(sub))
            npts = len(zset)
            mat = np.zeros((2 * npts, 2 * npts))
            for aa in range(npts):
                for bb in range(npts):
                    mat[2 * aa : 2 * aa + 2, 2 * bb : 2 * bb + 2] = ens.kernel_block(
                        *zset[aa], *zset[bb]
                    )
            mat = (mat - mat.T) / 2
            assert abs(brute - pfaffian(mat)) < 1e-9


class TestKernelAgreement:
    def test_empty_data_kernels_agree(self):
        ens = correlation_kernel_bruteforce(2, 0, (), P, 16)
        kern = conditional_kernel(2, 0, (), P)
        worst = 0.0
        for i in (1, 2):
            for j in (1, 2):
                for x1 in range(1, 7):
                    for x2 in range(1, 7):
                        worst = max(
                            worst,
                            np.max(
                                np.abs(
                                    ens.kernel_block(i, x1, j, x2)
                                    - kern.block(i, x1, j, x2)
                                )
                            ),
                        )
        assert worst < 1e-7

    def test_initial_data_kernels_agree(self):
        ens = correlation_kernel_bruteforce(3, 1, (6,), P, 20)
        kern = conditional_kernel(3, 1, (6,), P)
        worst = 0.0
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for x1 in (1, 2, 4, 6):
                    for x2 in (1, 3, 5):
                        worst = max(
                            worst,
                            np.max(
                                np.abs(
                                    ens.kernel_block(i, x1, j, x2)
                                    - kern.block(i, x1, j, x2)
                                )
                            ),
                        )
        assert worst < 1e-7

    @pytest.mark.parametrize("n, y", [(2, (5, 3)), (2, (3, 2)), (3, (5, 4, 3))])
    def test_full_data_kernels_agree(self, n, y):
        # M = N: the blocks agree entry by entry, not only as gap probabilities
        ens = correlation_kernel_bruteforce(n, n, y, P, 20)
        kern = conditional_kernel(n, n, y, P)
        points = [(i, x) for i in range(1, n + 1) for x in range(1, 8)]
        mat = kern.matrix(points)
        worst = 0.0
        for a, za in enumerate(points):
            for b, zb in enumerate(points):
                blk = mat[2 * a : 2 * a + 2, 2 * b : 2 * b + 2]
                worst = max(worst, np.max(np.abs(ens.kernel_block(*za, *zb) - blk)))
        assert worst < 1e-8

    def test_kernel_block_skew_structure(self):
        kern = conditional_kernel(3, 1, (6,), P)
        for (i, x1, j, x2) in ((1, 2, 3, 4), (2, 1, 2, 5), (3, 3, 1, 1)):
            blk = kern.block(i, x1, j, x2)
            swapped = kern.block(j, x2, i, x1)
            assert np.max(np.abs(blk + swapped.T)) < 1e-10
        mat = kern.matrix([(1, 2), (3, 4), (2, 1), (2, 5)])
        assert np.array_equal(mat, -mat.T)

    def test_matrix_is_the_blocks(self):
        kern = conditional_kernel(4, 2, (9, 7), P)
        points = [(1, 2), (4, 1), (2, 3)]
        mat = kern.matrix(points)
        for a, za in enumerate(points):
            for b, zb in enumerate(points):
                blk = kern.block(*za, *zb)
                assert np.max(np.abs(mat[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] - blk)) < 1e-12

    def test_k0_off_diagonal_indicator(self):
        kern = conditional_kernel(2, 0, (), P)
        blk = kern.k0(1, 3, 2, 5)
        assert blk[0, 1] == -1.0  # -phi_{(1,2]}(3,5) = -1_{3<=5}
        blk = kern.k0(1, 5, 2, 3)
        assert blk[0, 1] == 0.0


class TestConditionalDistribution:
    def test_non_finite_gap_probability_refused(self, monkeypatch):
        import hsep.conditional

        kernel = conditional_kernel(2, 0, (), P)
        monkeypatch.setattr(hsep.conditional, "pfaffian", lambda mat: math.nan)
        with pytest.raises(ArithmeticError, match="not finite"):
            kernel.gap_probability((1, 2), (1, 2))

    def test_trivial_projection(self):
        assert conditional_distribution((2,), (0,), 2, 0, (), 1.0, P) == 1.0
        assert conditional_distribution((), (), 0, 0, (), 1.0, P) == 1.0

    def test_empty_data_vs_oracle(self):
        dist = oracle_distribution((), 1.0, P, s_max=17)
        for (labels, thr) in (((2,), (1,)), ((1,), (3,)), ((1, 2), (4, 2))):
            f = conditional_distribution(labels, thr, 2, 0, (), 1.0, P)
            o, _ = conditional_event_probability(dist, 2, labels, thr)
            assert abs(f - o) < 1e-9

    def test_initial_data_vs_oracle_odd_case(self):
        dist = oracle_distribution((6,), 1.0, P, s_max=17)
        for (labels, thr) in (((2,), (2,)), ((3,), (1,)), ((2, 3), (4, 2))):
            f = conditional_distribution(labels, thr, 3, 1, (6,), 1.0, P)
            o, _ = conditional_event_probability(dist, 3, labels, thr)
            assert abs(f - o) < 1e-9

    @pytest.mark.parametrize(
        "n, m, y, s_max, events",
        [
            # M = N: the core has no S block
            (3, 3, (7, 5, 3), 20, [((1, 3), (8, 3)), ((2,), (6,)), ((1, 2, 3), (7, 5, 2))]),
            # both the S block and the Upsilon blocks
            (4, 2, (9, 7), 20, [((1, 4), (9, 2)), ((2, 3), (7, 4)), ((3,), (5,))]),
            # M = 0: the S block only
            (4, 0, (), 18, [((1, 4), (5, 1)), ((2, 3), (3, 2)), ((4,), (2,))]),
            # y_M = N - M + 2 with y_(M-1) = y_M + 1
            (4, 2, (5, 4), 18, [((1, 4), (1, 3))]),
            (5, 3, (6, 5, 4), 19, [((1, 5), (1, 3))]),
        ],
    )
    def test_coupled_labels_vs_oracle(self, n, m, y, s_max, events):
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.5)
        dist = oracle_distribution(y, 1.5, p, s_max=s_max)
        for labels, thr in events:
            f = conditional_distribution(labels, thr, n, m, y, 1.5, p)
            o, _ = conditional_event_probability(dist, n, labels, thr)
            assert abs(f - o) < 1e-9 + dist.tail_bound

    def test_repeated_label_vs_oracle(self):
        # the projection is a set: a label given twice keeps each point once
        dist = oracle_distribution((), 1.0, P, s_max=17)
        for labels, thr in (((1, 1), (3, 2)), ((2, 1, 2), (1, 4, 3))):
            f = conditional_distribution(labels, thr, 2, 0, (), 1.0, P)
            o, _ = conditional_event_probability(dist, 2, labels, thr)
            assert abs(f - o) < 1e-9
        once = conditional_distribution((1,), (3,), 2, 0, (), 1.0, P)
        assert conditional_distribution((1, 1), (3, 2), 2, 0, (), 1.0, P) == once

    def test_oracle_event_refuses_bad_labels(self):
        dist = oracle_distribution((), 1.0, P, s_max=12)
        for labels, thr in (((0,), (1,)), ((3,), (1,)), ((1, 2), (1,)), ((1,), (-1,))):
            with pytest.raises(ValueError):
                conditional_event_probability(dist, 2, labels, thr)

    def test_monotone_in_thresholds(self):
        vals = [
            conditional_distribution((2,), (a,), 2, 0, (), 1.0, P)
            for a in range(0, 5)
        ]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


class TestFullSpaceReduction:
    def test_pf_equals_det_at_alpha_zero(self):
        p0 = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=1.0)
        y = (5, 3)
        f_pf = conditional_distribution((1, 2), (6, 4), 2, 2, y, 1.0, p0)
        f_det = fullspace_distribution((1, 2), (6, 4), y, 1.0)
        assert abs(f_pf - f_det) < 1e-10

    def test_pf_equals_det_at_positive_alpha(self):
        # with M = N the K_22 block vanishes for every alpha, so the
        # conditional law is alpha-free and equals full-space TASEP
        y = (5, 3)
        f_pf = conditional_distribution((1, 2), (6, 4), 2, 2, y, 1.0, P)
        f_det = fullspace_distribution((1, 2), (6, 4), y, 1.0)
        assert abs(f_pf - f_det) < 1e-9

    def test_det_vs_oracle(self):
        p0 = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=1.0)
        y = (5, 3)
        dist = oracle_distribution(y, 1.0, p0, s_max=16)
        f = fullspace_distribution((1, 2), (6, 4), y, 1.0)
        o, _ = conditional_event_probability(dist, 2, (1, 2), (6, 4))
        assert abs(f - o) < 1e-9

    def test_biorthogonality_solved(self):
        y = (5, 3)
        j = 2
        g = fullspace_biorthogonal(j, y, 1.0)
        from hsep.conditional import _fullspace_f, _support_range

        p0 = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=1.0)
        lo, hi = _support_range(y, 1.0)
        xs = np.arange(lo, hi + 1)
        f = _fullspace_f(j, xs, y[:j], p0)
        for k in range(1, j + 1):
            for l in range(1, j + 1):
                acc = sum(
                    fx * float(np.polyval(g[l - 1][::-1], x))
                    for fx, x in zip(f[:, k - 1].tolist(), xs.tolist())
                )
                assert abs(acc - (1.0 if k == l else 0.0)) < 1e-9

    def test_translation_covariance(self):
        v1 = fullspace_distribution((1, 2), (6, 4), (5, 3), 1.0)
        v2 = fullspace_distribution((1, 2), (13, 11), (12, 10), 1.0)
        v3 = fullspace_distribution((1, 2), (-2, -4), (-3, -5), 1.0)
        assert abs(v1 - v2) < 1e-12
        assert abs(v1 - v3) < 1e-12

    def test_repeated_label_counts_each_point_once(self):
        once = fullspace_distribution((1,), (6,), (5, 3), 1.0)
        assert fullspace_distribution((1, 1), (6, 6), (5, 3), 1.0) == once

    def test_empty_event_is_one(self):
        assert fullspace_distribution((), (), (5, 3), 1.0) == 1.0

    @pytest.mark.parametrize(
        "labels, thr, y",
        [
            ((0,), (4,), (5, 3)),
            ((3,), (4,), (5, 3)),
            ((1, 2), (6,), (5, 3)),
            ((1, 2), (6, 4), (3, 5)),
            ((1, 2), (6, 4), (5, 5)),
        ],
    )
    def test_refuses_malformed_event(self, labels, thr, y):
        with pytest.raises(ValueError):
            fullspace_distribution(labels, thr, y, 1.0)

    def test_g_degree_structure(self):
        g = fullspace_biorthogonal(3, (7, 5, 2), 1.0)
        # g^3_{3-k} has degree 3-k: higher monomial coefficients vanish
        assert abs(g[2][2]) < 1e-8 and abs(g[2][1]) < 1e-8  # g^3_0 constant
        assert abs(g[1][2]) < 1e-8  # g^3_1 linear
