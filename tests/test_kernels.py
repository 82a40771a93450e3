"""The integral kernels and the binomial convolution algebra."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import residue_oracle as per_pole
from hsep.kernels import (
    KernelTable,
    ModelParams,
    kernel_p,
    kernel_Q,
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
SRC = Path(__file__).resolve().parents[1] / "src"


# -- torus quadrature: the independent cross-check of the annulus path -------


def _torus_radii(params):
    a = params.alpha
    rw = max(1.0, a, abs(1.0 - a)) + 0.5
    return rw, rw + 2.0


def _tight_radii(params):
    """Circles just outside the poles 0, alpha and 1 (R_u > R_w + 1 still keeps
    the coupling pole out), so the integrand, of size about e^(t(R-1)) on
    them, and with it the rounding of the quadrature, stay small up to t = 10."""
    rw = max(1.0, params.alpha) + 0.15
    return rw, rw + 1.15


def kernel_Q_quadrature(a, b, x, y, params, nodes=256, radii=_torus_radii):
    """Q_{a,b}(x,y) by trapezoid quadrature on circles |w| = R_w, |u| = R_u.

    R_u > R_w + 1 keeps the coupling pole w = 1 - u outside the inner circle
    for every outer node, so this integrates the same iterated-contour object
    as the residue path, fully independently.
    """
    params.require_exact()
    al, t = params.alpha, params.t
    rw, ru = radii(params)
    w = rw * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    u = ru * np.exp(2j * np.pi * (np.arange(nodes) + 0.5) / nodes)
    wg, ug = np.meshgrid(w, u)
    f1 = wg ** (a - x) * np.exp(t * (wg - 1.0)) / ((wg - al) * (wg - 1.0) ** a)
    f2 = ug ** (b - y) * np.exp(t * (ug - 1.0)) / ((ug - al) * (ug - 1.0) ** b)
    coupling = (ug - wg) / (1.0 - ug - wg)
    val = np.sum(f1 * f2 * coupling * wg * ug) / nodes**2
    return al**2 * val


def kernel_p_quadrature(i, x, params, nodes=256):
    params.require_exact()
    al, t = params.alpha, params.t
    rw, _ = _torus_radii(params)
    w = rw * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    f = w ** (i - x) * np.exp(t * (w - 1.0)) / ((w - al) * (w - 1.0) ** i)
    return np.sum(f * w) / nodes


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
        # a float for scalar arguments, a float64 array for a block
        scalars = (
            kernel_Q(2, 3, 4, 1, P),
            kernel_p(3, 4, P),
            kernel_U(1, 4, 0, P),
            kernel_Xi(2, 1, 3, 4, P),
            kernel_Xi_upper(1, 2, 3, 4, P),
            kernel_Xi_virtual(2, 1, 3, P),
        )
        for v in scalars:
            assert type(v) is float, type(v)
        sites = np.arange(1, 6)
        blocks = (
            kernel_Q(2, 3, sites, 1, P),
            kernel_p(3, sites, P),
            kernel_U(1, sites, 0, P),
            kernel_Xi(2, 1, 3, sites, P),
            kernel_Xi_upper(1, 2, 3, sites, P),
            kernel_Xi_virtual(2, 1, sites, P),
        )
        for v in blocks:
            assert v.dtype == np.float64 and v.shape == (5,)


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

    def test_refused_where_e_minus_t_underflows(self):
        # e^(-t) is subnormal above t ~ 708.4 and 0 above ~745; the Poisson
        # weights built from it would make every kernel read 0
        for t in (709.0, 760.0):
            with pytest.raises(ArithmeticError, match="underflows"):
                kernel_p(1, 760, ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=t))
        v = kernel_p(1, 700, ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=700.0))
        assert 0.9 < abs(v) < 1.0


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
            assert abs(kernel_Xi_virtual(k, k, y[k - 1], P) - (-1.0) ** k) < 1e-13

    def test_virtual_vanishing(self):
        # i > k with y_k > i - k
        assert kernel_Xi_virtual(3, 1, 9, P) == 0.0
        assert kernel_Xi_virtual(4, 2, 8, P) == 0.0

    def test_upper_matches_truncated_convolution(self):
        n, i, k, yk = 3, 1, 1, 6
        lhs = kernel_Xi_upper(i, k, yk, 4, P)
        rhs = sum(
            phi_conv(i, n, 4, v) * kernel_Xi(n, k, yk, v, P) for v in range(1, 120)
        )
        assert abs(lhs - rhs) < 1e-10

    def test_upper_at_top_label_is_xi(self):
        n, k, yk = 3, 2, 7
        for z in (1, 4, 8):
            assert abs(
                kernel_Xi_upper(n, k, yk, z, P) - kernel_Xi(n, k, yk, z, P)
            ) < 1e-14


class TestPerPoleOracle:
    @pytest.mark.parametrize("t", (0.0, 0.4, 1.0, 2.9, 5.0))
    def test_u_and_xi_kernels_match_per_pole_residues(self, t):
        # N <= 4 and sites -8..15; Xi^(i) and Xi^[i) take no N
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
                        args = (i, k, yk, z)
                        cases.append((kernel_Xi_upper, per_pole.kernel_Xi_upper, args))
        for yk in range(-2, 9):
            for i in range(1, 5):
                for k in range(1, 5):
                    args = (i, k, yk)
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

    @pytest.mark.parametrize("alpha, t", [(0.7, 2.9), (1.3, 0.4), (0.0, 1.0)])
    def test_grown_diagonals_match_a_fresh_build(self, alpha, t):
        # a growth in b alone continues from the stored top diagonal; a
        # growth in y rebuilds from D_{-J}; both equal one build of the span
        p = ModelParams(alpha=alpha, t=t)
        grown = KernelTable(p)
        for ask in ((0, 1, 3), (2, 1, 3), (9, 1, 3), (9, -2, 3), (30, -2, 3), (30, -2, 20)):
            span, diag = grown._diagonals(*ask)
            fresh_span, fresh = KernelTable(p)._diagonals(*ask)
            assert span == fresh_span and diag.shape == fresh.shape
            assert diag.tobytes() == fresh.tobytes()


def _block_is_scalar(f, axes, p):
    """f on the grid of axes, checked entry by entry against its scalar calls."""
    grid = np.meshgrid(*axes, indexing="ij")
    block = f(*grid, p)
    assert block.shape == grid[0].shape and block.dtype == np.float64
    for at in np.ndindex(block.shape):
        args = tuple(int(g[at]) for g in grid)
        assert block[at] == f(*args, p), (f.__name__, args)
    return grid, block


class TestBlockEvaluation:
    """Every kernel takes arrays: an assembly asks for a block at once."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("t", [0.4, 2.9, 10.0])
    def test_block_matches_scalar_and_quadrature(self, alpha, t):
        p = ModelParams(alpha=alpha, t=t)
        grid = np.meshgrid(*(np.arange(1, n + 1) for n in (5, 5, 40, 40)), indexing="ij")
        block = kernel_Q(*grid, p)
        assert block.shape == grid[0].shape and block.dtype == np.float64
        rng = np.random.default_rng(round(10 * alpha + t))
        for k, at in enumerate(zip(*(rng.integers(0, n, 40) for n in block.shape))):
            a, b, x, y = (int(g[at]) for g in grid)
            v = kernel_Q(a, b, x, y, p)
            assert abs(block[at] - v) <= 1e-15 * abs(v), (a, b, x, y)
            if k < 5:
                q = kernel_Q_quadrature(a, b, x, y, p, nodes=320, radii=_tight_radii)
                assert abs(v - q) <= 1e-9 * max(1.0, abs(q)), (a, b, x, y)
        # U and the Xi kernels read the e = 0 rows in one gather: every block
        # entry is its scalar call, over sites below 1 and over m = k - (N - M)
        # and k - i below 0 (the forward differences)
        _block_is_scalar(kernel_U, (np.arange(-3, 5), np.arange(-4, 14), np.arange(3)), p)
        axes = (np.arange(-1, 5), np.arange(1, 4), np.array([3, 9]), np.arange(-3, 13))
        _block_is_scalar(kernel_Xi_upper, axes, p)
        axes = (np.array([3, 4]), np.arange(1, 4), np.array([2, 8]), np.arange(-3, 13))
        (n, k, yk, z), xi = _block_is_scalar(kernel_Xi, axes, p)
        assert np.array_equal(xi, kernel_Xi_upper(n, k, yk, z, p))
        axes = (np.arange(1, 6), np.arange(1, 5), np.arange(1, 11))
        (i, k, yk), virtual = _block_is_scalar(kernel_Xi_virtual, axes, p)
        assert np.array_equal(virtual, kernel_Xi_upper(i - 1, k, yk, 1, p))

    def test_rows_beyond_the_support(self):
        # the Poisson weights end at j = 151 for t = 0.4 and at j = 1 for
        # t = 0, where every u-side row is 0 and so is Q for y >= 1
        for t, sites in ((0.4, (1, 75, 148, 150, 151, 152, 160)), (0.0, (1, 2, 5, 40))):
            p = ModelParams(alpha=0.5, t=t)
            x, y = np.meshgrid(sites, sites, indexing="ij")
            block = kernel_Q(2, 3, x, y, p)
            for (i, j), v in np.ndenumerate(block):
                assert v == kernel_Q(2, 3, sites[i], sites[j], p)
                assert abs(v - kernel_Q_quadrature(2, 3, sites[i], sites[j], p)) < 1e-10
            if t == 0.0:
                assert not block.any()

    def test_span_growth_and_sites_below_one(self):
        # a later b above the diagonals' span, a y below 1 and an x below 1
        # rebuild the shared arrays; the values match one block on a fresh table
        p = ModelParams(alpha=1.5, t=0.8)
        entries = [(1, 1, 2, 3), (5, 6, 4, 1), (3, 2, 5, -1), (2, 4, -3, 2), (6, 1, 0, 0)]
        table = KernelTable(p)
        seq = [table.q_kernel(*e) for e in entries]
        fresh = KernelTable(p).q_kernel(*np.array(entries).T)
        assert np.array_equal(seq, fresh)
        for e, v in zip(entries, seq):
            assert abs(v - kernel_Q_quadrature(*e, p)) < 1e-10

    def test_shapes(self):
        assert isinstance(kernel_Q(1, 2, 3, 4, P), float)
        assert isinstance(kernel_p(1, 3, P), float)
        assert isinstance(kernel_U(1, 3, 0, P), float)
        assert isinstance(kernel_Xi(2, 1, 3, 4, P), float)
        assert isinstance(kernel_Xi_upper(1, 1, 3, 4, P), float)
        assert isinstance(kernel_Xi_virtual(2, 1, 3, P), float)
        col, row = np.arange(1, 4)[:, None], np.arange(1, 5)
        assert kernel_Q(1, 2, col, row, P).shape == (3, 4)
        assert kernel_p([1, 2], 3, P).shape == (2,)
        assert kernel_U(col, row, 0, P).shape == (3, 4)
        assert kernel_Xi(3, col, 5, row, P).shape == (3, 4)
        assert kernel_Xi_upper(col, 2, [5, 6, 7, 8], 4, P).shape == (3, 4)
        assert kernel_Xi_virtual(row, col, 6, P).shape == (3, 4)
        empty = np.zeros(0, dtype=int)
        assert kernel_Q(1, 1, empty, empty, P).shape == (0,)
        assert kernel_p(1, empty, P).shape == (0,)
        assert kernel_U(1, empty, 0, P).shape == (0,)
        assert kernel_Xi(2, 1, 3, empty, P).shape == (0,)
        assert kernel_Xi_upper(1, 1, 3, empty, P).shape == (0,)
        assert kernel_Xi_virtual(empty, 1, 3, P).shape == (0,)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
    def test_p_is_the_k0_entry_of_the_w_side_row(self, alpha):
        # A_{i,x}[k] = g(i, x - k) is Q's w-side row; p_i(x) is its k = 0
        # entry, and the sum over s of h_s pi[x + s] that defines p, here
        # over the whole support with a series built apart from the table
        p = ModelParams(alpha=alpha, t=2.9)
        table = table_for(p)
        i, x = np.meshgrid(np.arange(1, 6), np.arange(1, 41), indexing="ij")
        values = kernel_p(i, x, p)
        kernel_Q(i, 1, x, 1, p)
        (m_lo, _, lo), rows = table.memo["w"]
        assert np.array_equal(values, rows[i - m_lo, x - lo])
        pi = table.pi
        for (r, c), v in np.ndenumerate(values):
            h = _w_series(alpha, int(i[r, c]), len(pi))
            direct = math.fsum(h[: len(pi) - x[r, c]] * pi[x[r, c] :])
            assert abs(v - direct) <= 1e-15 * abs(v), (i[r, c], x[r, c])


def _w_series(alpha, m, n):
    """h_s, s < n: the 1/w coefficients of 1/((1 - alpha/w)(1 - 1/w)^m), m >= 0."""
    h = alpha ** np.arange(n, dtype=float)
    for _ in range(m):
        h = np.cumsum(h)
    return h


class TestKernelTableMemory:
    """A table holds its shared arrays, not one row or value per entry."""

    def test_one_workload_point_holds_no_more_than_before(self):
        # the calls of one tasep_exact point of the benchmark (Pfaffians with
        # N <= 4, joint, current, conditional, GT with N <= 3).  Before the
        # shared arrays, the table held 249,488 bytes of arrays here, in 793
        # memo entries (an A row per (a, x), a G row per (b, y), a value per
        # Q and p entry); it now holds 199,368 bytes: the weights and 3 memo
        # entries, the rows of both tables and the diagonals, which span
        # y <= 64 after the GT sums ask for y <= 32.  At a point with no conditional call the figures
        # were 200,648 bytes before and 195,960 now.
        from hsep.conditional import conditional_distribution
        from hsep.tasep_formulas import (
            boundary_current_probability,
            gt_pattern_sum,
            joint_distribution,
            tasep_transition_probability,
        )

        table_for.cache_clear()
        t = 2.9
        p = ModelParams(alpha=0.7, t=t)
        for x in ((3,), (5,), (4, 2), (5, 1), (5, 3, 1), (7, 4, 2), (7, 5, 3, 1), (8, 6, 2, 1)):
            tasep_transition_probability((), x, t, p)
        for y, x in (((4,), (5,)), ((5,), (6, 2)), ((7, 5), (8, 6, 1)), ((8, 6), (9, 7, 4, 2)),
                     ((7, 6, 4), (8, 7, 5)), ((8, 6, 5), (9, 7, 6, 3))):
            tasep_transition_probability(y, x, t, p)
        joint_distribution((), (5, 2), t, p)
        joint_distribution((5,), (6, 4, 1), t, p)
        boundary_current_probability(2, (), t, p)
        boundary_current_probability(3, (5,), t, p)
        for n, y, labels, thr in ((2, (), (1, 2), (1, 3)), (3, (5,), (1, 3), (2, 2)),
                                  (4, (), (2, 4), (3, 1)), (2, (5, 3), (1, 2), (2, 2)),
                                  (4, (8, 6), (1, 3), (1, 3))):
            conditional_distribution(labels, thr, n, len(y), y, t, p)
        gt_pattern_sum((5, 2), (), t, p)
        gt_pattern_sum((6, 4), (5, 3), t, p)
        gt_pattern_sum((4, 2, 1), (), t, p)
        assert _array_bytes(table_for(p)) <= 249_488

    def test_cold_points_keep_memory_flat(self):
        # 100 parameter points, each asked for a block and for U and Xi at 200
        # sites in four blocks: the cache keeps the last 64 tables, each
        # bounded by its rows and diagonals, and new entries at a point add
        # no arrays and no memo entries after its first block
        table_for.cache_clear()
        grid = np.meshgrid(np.arange(1, 6), np.arange(1, 5), np.arange(1, 9), np.arange(1, 9))
        points = [ModelParams(alpha=0.2 + 0.013 * k, t=0.4 + 0.025 * k) for k in range(100)]
        sites = np.arange(-100, 100).reshape(4, 50)
        for p in points:
            kernel_Q(*grid, p)
            kernel_p(np.arange(1, 6), 3, p)
            table = table_for(p)
            for block, zs in enumerate(sites.tolist()):
                for z in zs:
                    kernel_U(2, z, 1, p)
                    kernel_Xi(3, 1, 4, z, p)
                if block == 0:
                    first = len(table.memo), _array_bytes(table)
            assert (len(table.memo), _array_bytes(table)) == first
        assert table_for.cache_info().currsize == table_for.cache_info().maxsize == 64
        sizes = [_array_bytes(table_for(p)) for p in points[-64:]]
        assert table_for.cache_info().currsize == 64 and max(sizes) <= 256 * 1024
        table = table_for(points[-1])
        before = _array_bytes(table)
        kernel_Q(grid[0], grid[1], grid[2] + 30, grid[3] + 1, points[-1])
        assert _array_bytes(table) == before


def _array_bytes(table):
    """The bytes of a table's Poisson weights and of the arrays its memo holds,
    alone or in a tuple."""
    items = [w for v in table.memo.values() for w in (v if isinstance(v, tuple) else (v,))]
    return table.pi.nbytes + sum(w.nbytes for w in items if isinstance(w, np.ndarray))


_ORACLE_AND_VERIFY = ("scipy", "mpmath", "hsep.markov_oracle")
# (statement, modules it must leave out of a fresh interpreter)
_IMPORT_CASES = (
    # the kernel tables need no filter: importing scipy.signal alone costs
    # about a second and 50 MB, which every process start would pay
    ("import hsep", ("scipy.signal",)),
    # the exact layers and the CLI load numpy only: scipy.sparse comes with
    # the oracle, mpmath with verify
    (
        "import hsep.kernels, hsep.pfaffian, hsep.tasep_formulas, hsep.conditional, "
        "hsep.asep_integral, hsep.cli",
        _ORACLE_AND_VERIFY,
    ),
    (
        "from hsep.cli import main; "
        "main(['tasep-prob', '--x', '3,1', '--alpha', '0.5', '--t', '1'])",
        _ORACLE_AND_VERIFY,
    ),
)


def test_import_leaves_scipy_signal_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for statement, left_out in _IMPORT_CASES:
        report = f"import sys; print([m for m in {left_out!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", f"{statement}\n{report}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]", statement
