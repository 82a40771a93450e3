"""Pfaffian core, skew-Borel factorization, and the identity suite."""

import math

import mpmath as mp
import numpy as np
import pytest

from hsep.kernels import ModelParams
from hsep.pfaffian import (
    SingularTrailingMinorError,
    as_skew,
    identity_suite,
    matching_sum,
    pfaffian,
    pfaffian_definition,
    skew_borel,
    skew_borel_explicit_inverse,
    stembridge_pfaffian_pair,
    symplectic_j,
)


def random_skew(rng, n, complex_entries=True):
    a = rng.normal(size=(n, n))
    if complex_entries:
        a = a + 1j * rng.normal(size=(n, n))
    return a - a.T


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian([[0.0, 3.5], [-3.5, 0.0]]) == 3.5

    def test_four_by_four_expansion(self):
        rng = np.random.default_rng(0)
        a = random_skew(rng, 4)
        expect = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        assert abs(pfaffian(a) - expect) < 1e-13

    def test_stembridge_matrix_value(self):
        x = np.array([0.2, 0.5, 0.7, 0.9])
        s = np.subtract.outer(x, x) / (1.0 - np.multiply.outer(x, x))
        np.fill_diagonal(s, 0.0)
        prod = 1.0
        for i in range(4):
            for j in range(i + 1, 4):
                prod *= (x[i] - x[j]) / (1.0 - x[i] * x[j])
        assert abs(pfaffian(s) - prod) < 1e-14

    def test_odd_dimension_is_zero(self):
        rng = np.random.default_rng(1)
        assert pfaffian(random_skew(rng, 5)) == 0.0

    def test_squares_to_determinant(self):
        rng = np.random.default_rng(2)
        for n in range(2, 21, 2):
            a = random_skew(rng, n)
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf * pf - det) <= 1e-9 * max(abs(det), 1.0)

    def test_matches_matching_sum(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6, 8):
            a = random_skew(rng, n)
            assert abs(pfaffian(a) - pfaffian_definition(a)) < 1e-11

    def test_matching_sum_on_broadcast_grid(self):
        # matching_sum takes rows of entries that vary along different grid
        # axes, mixed with scalars
        rng = np.random.default_rng(12)
        grid = (3, 4)
        shapes = [(3, 1), (1, 4), grid, ()]
        for dim in (2, 4, 6):
            mat = [[0.0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i + 1, dim):
                    sh = shapes[(i + 2 * j) % 4]
                    v = rng.normal(size=sh) + 1j * rng.normal(size=sh)
                    mat[i][j], mat[j][i] = v, -v
            values = np.broadcast_to(matching_sum(mat), grid)
            for p in np.ndindex(*grid):
                a = np.array([[np.broadcast_to(e, grid)[p] for e in row] for row in mat])
                assert abs(values[p] - pfaffian(a)) < 1e-12 * max(1.0, abs(values[p]))

    def test_scaling_keeps_relative_accuracy(self):
        # Pf(cA) = c^(d/2) Pf(A): a tiny Pfaffian is not cut to 0
        rng = np.random.default_rng(5)
        for d in (2, 4, 6):
            a = random_skew(rng, d)
            for c in (1e-20, 1e-8, 1e8):
                expect = c ** (d // 2) * pfaffian(a)
                assert abs(pfaffian(c * a) - expect) <= 1e-12 * abs(expect)

    def test_swap_flips_sign(self):
        rng = np.random.default_rng(4)
        a = random_skew(rng, 8)
        b = a.copy()
        b[[1, 6], :] = b[[6, 1], :]
        b[:, [1, 6]] = b[:, [6, 1]]
        assert abs(pfaffian(b) + pfaffian(a)) < 1e-12

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(13)
        for n in range(2, 17, 2):
            a = random_skew(rng, n, complex_entries=False)
            pf = pfaffian(a)
            assert isinstance(pf, float)
            assert as_skew(a).dtype == np.float64
            ref = pfaffian(a.astype(complex))
            assert abs(pf - ref) <= 1e-14 * abs(ref), n

    def test_extended_precision_passes_through(self):
        with mp.workdps(40):
            rng = np.random.default_rng(14)
            a = random_skew(rng, 4, complex_entries=False)
            a = np.array([[mp.mpf(v) for v in row] for row in a.tolist()], dtype=object)
            assert as_skew(a) is a
            pf = pfaffian(a)
            assert isinstance(pf, mp.mpf)
            expect = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
            assert abs(pf - expect) < mp.mpf(10) ** -35

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            pfaffian([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            as_skew([[0.0, 1.0], [1.0, 0.0]])


class TestStembridge:
    def test_both_parities_up_to_seven(self):
        rng = np.random.default_rng(5)
        for m in range(2, 8):
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, size=m) * 0.95
                lhs, rhs = stembridge_pfaffian_pair(x)
                assert abs(lhs - rhs) < 1e-10


class TestSkewBorel:
    def test_identity_block_gives_identity(self):
        j = symplectic_j(6)
        fac = skew_borel(j)
        assert np.max(np.abs(fac.r - np.eye(6))) < 1e-14

    def test_reconstruction_random(self):
        # complex matrices, then a real one, whose factor stays real
        rng = np.random.default_rng(6)
        for n, complex_entries in ((4, True), (6, True), (10, True), (8, False)):
            a = random_skew(rng, n, complex_entries)
            fac = skew_borel(a)
            assert fac.r.dtype == a.dtype
            assert np.max(np.abs(fac.reconstruct() - a)) < 1e-10
            assert np.max(np.abs(np.tril(fac.r, -1))) == 0.0
            for b in range(n // 2):
                assert fac.r[2 * b, 2 * b + 1] == 0.0
                assert fac.r[2 * b + 1, 2 * b + 1] == 1.0

    def test_explicit_inverse_two_by_two(self):
        rinv = skew_borel_explicit_inverse([[0.0, 4.0], [-4.0, 0.0]])
        assert np.allclose(rinv, np.diag([0.25, 1.0]))

    def test_explicit_inverse_matches_direct(self):
        rng = np.random.default_rng(7)
        for n in (4, 6):
            a = random_skew(rng, n)
            fac = skew_borel(a)
            direct = np.linalg.inv(fac.r)
            explicit = skew_borel_explicit_inverse(a)
            assert np.max(np.abs(direct - explicit)) < 1e-10

    def test_moment_matrix_instance(self):
        # the kernel moment matrix is factorizable iff its Pfaffian (a
        # particle-count probability, up to sign) is nonzero
        from hsep.conditional import moment_matrix

        p = ModelParams(q=0.0, alpha=0.8, gamma=0.0, t=2.0)
        nmat = moment_matrix(4, p)
        assert abs(pfaffian(nmat)) > 0
        fac = skew_borel(nmat)
        scale = np.max(np.abs(nmat))
        assert np.max(np.abs(fac.reconstruct() - nmat)) < 1e-10 * scale
        explicit = skew_borel_explicit_inverse(nmat)
        assert np.max(np.abs(explicit - np.linalg.inv(fac.r))) < 1e-9 * np.max(
            np.abs(explicit)
        )

    def test_singular_trailing_minor_reported(self):
        a = np.zeros((4, 4))
        a[0, 1] = 1.0
        a[1, 0] = -1.0  # trailing 2x2 block is zero
        with pytest.raises(SingularTrailingMinorError) as err:
            skew_borel(a)
        assert err.value.block == 2


class TestIdentitySuite:
    def test_all_identities_pass(self):
        rep = identity_suite(seed=11)
        assert rep["passed"], rep["checks"]
        assert max(rep["checks"].values()) <= 1e-9
