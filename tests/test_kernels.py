"""The integral kernels and the binomial convolution algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest

import residue_oracle as per_pole
from hsep.kernels import (
    ModelParams,
    kernel_p,
    kernel_p_quadrature,
    kernel_Q,
    kernel_Q_quadrature,
    kernel_U,
    kernel_Xi,
    kernel_Xi_upper,
    kernel_Xi_virtual,
    phi_conv,
    phi_neg,
    phi_virtual,
    table_for,
    theta,
)

P = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)


class TestQKernel:
    def test_vanishes_on_diagonal(self):
        for k in (1, 2, 3):
            for x in (1, 3, 6):
                assert abs(kernel_Q(k, k, x, x, P)) < 1e-14

    def test_antisymmetry_small(self):
        for (x, y) in ((1, 2), (3, 5), (2, 7)):
            assert abs(kernel_Q(1, 1, x, y, P) + kernel_Q(1, 1, y, x, P)) < 1e-14

    def test_matches_torus_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x, y = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            v = kernel_Q(a, b, x, y, P)
            q = kernel_Q_quadrature(a, b, x, y, P)
            assert abs(v - q) < 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("t", [0.4, 2.9])
    def test_matches_torus_quadrature_on_benchmark_range(self, alpha, t):
        p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=t)
        rng = np.random.default_rng(2)
        cases = [(1, 1, 25, 24), (4, 4, 25, 25), (4, 1, 1, 25)]
        for _ in range(12):
            a, b = (int(v) for v in rng.integers(1, 5, 2))
            x, y = (int(v) for v in rng.integers(1, 26, 2))
            cases.append((a, b, x, y))
        with np.errstate(over="raise", invalid="raise"):
            for a, b, x, y in cases:
                v = kernel_Q(a, b, x, y, p)
                assert abs(v - kernel_Q_quadrature(a, b, x, y, p)) < 1e-10

    def test_matches_per_pole_jets(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x, y = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            assert abs(
                kernel_Q(a, b, x, y, P) - per_pole.kernel_Q(a, b, x, y, P)
            ) < 1e-11

    def test_pole_collisions(self):
        for alpha in (0.0, 0.5, 1.0, 1.5):
            p = ModelParams(q=0.0, alpha=alpha, gamma=0.0, t=0.8)
            v = kernel_Q(2, 2, 3, 5, p)
            q = kernel_Q_quadrature(2, 2, 3, 5, p)
            assert abs(v - q) < 1e-12

    def test_large_arguments_stay_stable(self):
        # per-pole residues cancel catastrophically here; the annulus path is
        # antisymmetric to machine precision even at 1e-70 magnitudes
        v1 = kernel_Q(1, 1, 30, 31, P)
        v2 = kernel_Q(1, 1, 31, 30, P)
        assert abs(v1) < 1e-60
        assert abs(v1 + v2) < 1e-75

    def test_real_parameters_give_real_values(self):
        assert kernel_Q(2, 3, 4, 1, P).imag == 0.0
        assert kernel_p(3, 4, P).imag == 0.0


class TestPKernel:
    def test_matches_quadrature(self):
        for i in (1, 2, 4):
            for x in (1, 3, 8):
                assert abs(kernel_p(i, x, P) - kernel_p_quadrature(i, x, P)) < 1e-12

    def test_alpha_zero_poisson_tail(self):
        p0 = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=1.0)
        for x in (1, 2, 5):
            tail = sum(math.exp(-1.0) / math.factorial(m) for m in range(x, 80))
            assert abs(kernel_p(1, x, p0) - tail) < 1e-14

    def test_t_zero(self):
        p0 = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=0.0)
        v = kernel_p(1, 1, p0)
        q = kernel_p_quadrature(1, 1, p0)
        assert abs(v - q) < 1e-13


class TestUKernel:
    def test_full_space_poisson(self):
        for z in range(0, 7):
            assert abs(
                kernel_U(0, z, 0, P) - math.exp(-1.0) * 1.0**z / math.factorial(z)
            ) < 1e-14

    def test_zero_when_no_pole(self):
        # exponent <= 0 with non-negative (w-1) power: no pole anywhere
        assert kernel_U(0, -1, 0, P) == 0.0
        assert kernel_U(-2, -5, 1, P) == 0.0

    def test_finite_recurrence(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            k = int(rng.integers(-2, 3))
            nm = int(rng.integers(0, 3))
            s = int(rng.integers(-2, 3))
            z = s + int(rng.integers(1, 6))
            lhs = kernel_U(k + 1, s, nm, P) - kernel_U(k + 1, z, nm, P)
            rhs = sum(kernel_U(k, v, nm, P) for v in range(s, z))
            assert abs(lhs - rhs) < 1e-13

    def test_infinite_recurrence_with_tail(self):
        lhs = kernel_U(1, 3, 0, P)
        rhs = sum(kernel_U(0, v, 0, P) for v in range(3, 90))
        assert abs(lhs - rhs) < 1e-13


class TestXiKernels:
    def test_virtual_diagonal(self):
        y = (9, 7, 5)
        for k in (1, 2, 3):
            assert abs(kernel_Xi_virtual(4, k, k, y[k - 1], P) - (-1.0) ** k) < 1e-13

    def test_virtual_vanishing(self):
        # i > k with y_k > i - k
        assert kernel_Xi_virtual(4, 3, 1, 9, P) == 0.0
        assert kernel_Xi_virtual(5, 4, 2, 8, P) == 0.0

    def test_upper_matches_truncated_convolution(self):
        n, i, k, yk = 3, 1, 1, 6
        lhs = kernel_Xi_upper(n, i, k, yk, 4, P)
        rhs = sum(
            phi_conv(i, n, 4, v) * kernel_Xi(n, k, yk, v, P) for v in range(1, 120)
        )
        assert abs(lhs - rhs) < 1e-10

    def test_upper_at_top_label_is_xi(self):
        n, k, yk = 3, 2, 7
        for z in (1, 4, 8):
            assert abs(
                kernel_Xi_upper(n, n, k, yk, z, P) - kernel_Xi(n, k, yk, z, P)
            ) < 1e-14


class TestPerPoleOracle:
    @pytest.mark.parametrize("t", (0.0, 0.4, 1.0, 2.9, 5.0))
    def test_u_and_xi_kernels_match_per_pole_residues(self, t):
        # N <= 4 and sites -8..15; Xi^(i) and Xi^[i) do not depend on N
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=t)
        cases = []
        for z in range(-8, 16):
            for nm in range(0, 5):
                for k in range(-2, 6):
                    cases.append((kernel_U, per_pole.kernel_U, (k, z, nm)))
            for yk in (1, 5):
                for k in range(1, 5):
                    for n in range(k, 5):
                        cases.append((kernel_Xi, per_pole.kernel_Xi, (n, k, yk, z)))
                    for i in range(1, 5):
                        args = (4, i, k, yk, z)
                        cases.append((kernel_Xi_upper, per_pole.kernel_Xi_upper, args))
        for yk in range(-2, 9):
            for i in range(1, 5):
                for k in range(1, 5):
                    args = (4, i, k, yk)
                    cases.append((kernel_Xi_virtual, per_pole.kernel_Xi_virtual, args))
        for fn, oracle, args in cases:
            v = fn(*args, p)
            assert abs(v - oracle(*args, p)) <= 1e-12 * max(1.0, abs(v)), (fn, args)


class TestPhiAlgebra:
    def test_examples(self):
        assert phi_conv(1, 3, 2, 4) == 3
        assert phi_neg(1, 3, 2, 3) == -2
        assert phi_virtual(2, 2, 9) == 1
        assert theta(1, 17) == 1
        assert theta(3, 2) == 3

    def test_identity_and_zero_cases(self):
        assert phi_conv(2, 2, 5, 5) == 1
        assert phi_conv(2, 2, 5, 6) == 0
        assert phi_conv(3, 2, 1, 1) == 0
        assert phi_virtual(3, 2, 5) == 0

    def test_composition_exact(self):
        for k, l, m in ((1, 2, 4), (1, 3, 5), (2, 3, 4)):
            for x in range(1, 7):
                for y in range(1, 9):
                    lhs = phi_conv(k, m, x, y)
                    rhs = sum(
                        phi_conv(k, l, x, v) * phi_conv(l, m, v, y)
                        for v in range(1, 15)
                    )
                    assert lhs == rhs

    def test_annihilation_exact(self):
        for (l, j, n) in ((1, 2, 4), (3, 2, 4), (2, 2, 5), (1, 3, 4)):
            for x in range(1, 6):
                for y in range(1, 6):
                    lhs = sum(
                        phi_conv(l, n, x, v) * phi_neg(j, n, v, y)
                        for v in range(1, 40)
                    )
                    rhs = phi_conv(l, j, x, y) if l <= j else phi_neg(j, l, x, y)
                    assert lhs == rhs

    def test_virtual_annihilation_as_polynomials(self):
        # phi_[l,N] diamond phi_-(j,N] = phi_[l,j] for every integer x
        for (l, j, n) in ((1, 2, 4), (2, 3, 4), (1, 1, 3)):
            for x in range(-3, 10):
                lhs = sum(
                    Fraction(phi_virtual(l, n, v)) * phi_neg(j, n, v, x)
                    for v in range(x - (n - j) - 1, x + 1)
                )
                assert lhs == Fraction(phi_virtual(l, j, x))

    def test_virtual_pochhammer_values(self):
        assert phi_virtual(1, 4, 2) == Fraction(
            2 * 3 * 4, math.factorial(3)
        )

    def test_theta_pairing_identity(self):
        # sum Theta_i Q_{1,1} Theta_j = Q_{i+1,j+1}(1,1) via truncated sums
        i, j = 2, 3
        acc = 0.0
        for xx in range(1, 70):
            for yy in range(1, 70):
                acc += theta(i, xx) * kernel_Q(1, 1, xx, yy, P) * theta(j, yy)
        assert abs(acc - kernel_Q(i + 1, j + 1, 1, 1, P)) < 1e-12


class TestConvReduce:
    """Star-convolutions of Q_{1,1} with phi and Theta reduce to one Q value."""

    def test_psi_extended_reduces_to_q(self):
        # Psi^N_{(k,l)} = phi_{(k,N]} * Q_{1,1} * phi_{(l,N]}^T = Q_{N-k+1,N-l+1},
        # checked one convolution at a time: Q_{4,3} from Q_{1,3} and Q_{4,1}
        n, k, l = 4, 1, 2
        x, y = 3, 5
        q = kernel_Q(n - k + 1, n - l + 1, x, y, P)
        left = sum(
            phi_conv(k, n, x, v) * kernel_Q(1, n - l + 1, v, y, P)
            for v in range(x, 90)
        )
        right = sum(
            kernel_Q(n - k + 1, 1, x, v, P) * phi_conv(l, n, y, v)
            for v in range(y, 90)
        )
        assert abs(q - left) < 1e-12
        assert abs(q - right) < 1e-12

    def test_psi_star_theta_vs_truncated_sum(self):
        # Psi * Theta_3 = Q_{1,4}(., 1)
        x = 5
        truncated = sum(kernel_Q(1, 1, x, y, P) * theta(3, y) for y in range(1, 220))
        assert abs(kernel_Q(1, 4, x, 1, P) - truncated) < 1e-9


class TestMemoReproducibility:
    def test_recomputation_matches_memo(self):
        p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=0.9)
        first = kernel_Q(2, 3, 4, 5, p)
        fresh = type(table_for(p))(p).q_kernel(2, 3, 4, 5)
        assert abs(first - fresh) < 1e-12
