"""Conditional multipoint distributions of the half-line TASEP.

`conditional_distribution` is a ratio of two joint-distribution Pfaffians, for
every parity of N + M.  The paper's route to the same law is the reference
that verify, the demos and the tests compare against: the skew correlation
kernel K = K0 + L G^-1 L^T of the conditioned point process (N + M even only)
and Pf(J - chi K chi), a finite Pfaffian after the threshold projection.  By
the Pfaffian Eynard-Mehta theorem the finite-rank part depends on the kernel
pairings only through the inverse of their bordered Gram matrix

    G = [[script-N, script-P], [-script-P^T, 0]],

so it is one linear solve against G.  The paper's skew-biorthogonal
family Phi and biorthogonal family Upsilon are one factorization of G^-1
(for example `skew_borel(moment_matrix(N, params))` at M = 0) and are
never formed.  A brute-force construction of the same kernel by dense
inversion of the point-process (J + L) matrix on a truncated lattice serves
as an independent oracle, as does the full-space Fredholm determinant
reduction at M = N.

All rows are stored in the virtual-pairing basis
e_l(x) = (x)_(N-l) / (N-l)!  (l = 1..N), in which the kernel pairings are
single kernel entries:
    <e_k, Psi, e_l>  = Q_{N-k+2, N-l+2}(1, 1)      (the matrix script-N)
    <e_l, Xi_{N-k}>  = Xi^[l)_{N-k}(dagger_l)      (the matrix script-P)
    e_l conv phi_{-(j,N]} = (x)_(j-l) / (j-l)!     (finite difference)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    ModelParams,
    as_config,
    kernel_Q,
    kernel_Xi,
    kernel_Xi_upper,
    kernel_Xi_virtual,
    phi_conv,
    phi_virtual,
    require_event,
)
from .pfaffian import pfaffian, symplectic_j
from .tasep_formulas import _probability, _real, boundary_current_probability
from .tasep_formulas import joint_distribution, require_well_separated

__all__ = [
    "moment_matrix",
    "virtual_pairing_matrix",
    "BorderedGram",
    "build_skew_biorthogonal",
    "ConditionalKernel",
    "conditional_kernel",
    "conditional_distribution",
    "BruteForceEnsemble",
    "correlation_kernel_bruteforce",
    "fullspace_biorthogonal",
    "fullspace_distribution",
]

# Refuse where cond(S G S) * eps, the relative error of the kernel's solve, passes 4e-10
GRAM_COND_MAX = 2e6


def moment_matrix(n, params):
    """script-N: [N]_{k,l} = Q_{N-k+2,N-l+2}(1,1), the e-basis Psi pairing."""
    mat = np.zeros((n, n))
    k, l = np.triu_indices(n, 1)
    mat[k, l] = kernel_Q(n - k + 1, n - l + 1, 1, 1, params)
    return mat - mat.T


def virtual_pairing_matrix(n, m, y, params):
    """script-P: [P]_{a,b} = Xi^[a)_{N-b}(dagger_a), an N x M matrix.

    Under the separation y_M > N-M+1 it has the block form [S_M; 0] with
    S_M upper triangular and diagonal (-1)^k.
    """
    a, b = np.arange(1, n + 1)[:, None], np.arange(1, m + 1)
    return kernel_Xi_virtual(a, b, np.asarray(y[:m], dtype=int), params)


@dataclass
class BorderedGram:
    """The bordered Gram matrix G = [[script-N, script-P], [-script-P^T, 0]].

    G is the (N + M) x (N + M) skew matrix of the pairings that define Phi
    and Upsilon.  It is stored equilibrated, matrix = S G S with
    S = diag(scale) and scale_k = 1 / sqrt(max_l |G_kl|), so that
    G^-1 = S matrix^-1 S.  residuals holds the certificate of solving with
    it, {"gram_cond": the 2-norm condition number of S G S}.  Without S,
    cond(G) grows with script-N against script-P; the kernel does not.
    """

    n: int
    m: int
    y: tuple
    params: ModelParams
    matrix: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    residuals: dict


def build_skew_biorthogonal(n, m, y, params: ModelParams):
    """The bordered Gram matrix of the pairings that define Phi and Upsilon.

    Every skew-biorthogonal Phi and biorthogonal Upsilon factor G^-1, and
    the kernel needs only G^-1, so this is all of the construction.  Raises
    ArithmeticError when cond(S G S) exceeds GRAM_COND_MAX.
    """
    params.require_tasep()
    y = as_config(y)
    if len(y) != m:
        raise ValueError("y must have M parts")
    if (n + m) % 2 != 0:
        raise ValueError("the kernel construction needs N + M even")
    if m > 0:
        require_well_separated(y, n)
    pmat = virtual_pairing_matrix(n, m, y, params)
    gram = np.block([[moment_matrix(n, params), pmat], [-pmat.T, np.zeros((m, m))]])
    rowmax = np.max(np.abs(gram), axis=1, initial=0.0)
    scale = 1.0 / np.sqrt(np.where(rowmax > 0.0, rowmax, 1.0))
    gram *= np.outer(scale, scale)
    cond = float(np.linalg.cond(gram)) if n else 1.0
    if not cond <= GRAM_COND_MAX:
        raise ArithmeticError(
            f"bordered Gram matrix condition number {cond:.3g} exceeds {GRAM_COND_MAX:g}"
        )
    return BorderedGram(n, m, y, params, gram, scale, {"gram_cond": cond})


# ---------------------------------------------------------------------------
# The analytic kernel
# ---------------------------------------------------------------------------


class ConditionalKernel:
    """The skew 2x2-block correlation kernel K = K0 + L G^-1 L^T.

    L G^-1 L^T has rank at most 2(N + M) and is one solve against the
    bordered Gram matrix G.  L interleaves two rows of length N + M per
    point z = (i, x),

        E(z) = (a(z), xi(z)),   D(z) = (d(z), 0),

    with a(z)_l = Q_{N-i+1,N-l+2}(x, 1) = (Psi_{(i,N)} star e_l)(x),
    d(z)_l = (e_l diamond phi_{-(i,N]})(x) = (x)_(i-l)/(i-l)! for l <= i,
    and xi(z)_k = Xi^(i)_{N-k}(x).  The paper's third row family F is -E, since
    (e_l star Psi_{(N,i)})(x) = Q_{N-l+2,N-i+1}(1, x) = -a(z)_l by the
    antisymmetry of Q, so the finite-rank block at (z1, z2) is

        [[E1 G^-1 E2^T, E1 G^-1 D2^T], [D1 G^-1 E2^T, D1 G^-1 D2^T]],

    from one solve with S G S against the rows times S for all points.
    Writing G^-1 through Phi and Upsilon gives the paper's KA + KB + KC.
    """

    def __init__(self, gram: BorderedGram):
        self.gram = gram
        self.params = gram.params
        self.n = gram.n
        self.m = gram.m

    def k0(self, i, x1, j, x2):
        """The K0 blocks [[Q_{N-i+1,N-j+1}(x1, x2), -phi_{(i,j]}(x1, x2)],
        [phi_{(j,i]}(x2, x1), 0]] for broadcast (i, x1; j, x2), shape (..., 2, 2)."""
        n = self.n
        i, x1, j, x2 = np.broadcast_arrays(i, x1, j, x2)
        blk = np.zeros(i.shape + (2, 2))
        blk[..., 0, 0] = kernel_Q(n - i + 1, n - j + 1, x1, x2, self.params)
        for at in np.ndindex(i.shape):
            a, u, b, v = int(i[at]), int(x1[at]), int(j[at]), int(x2[at])
            blk[at][0, 1] = -phi_conv(a, b, u, v) if a < b else 0.0
            blk[at][1, 0] = phi_conv(b, a, v, u) if b < a else 0.0
        return blk

    def _rows(self, points):
        """The rows E and D of every point, each a (P, N + M) array."""
        n, params = self.n, self.params
        i, x = (np.array(v, dtype=int)[:, None] for v in zip(*points))
        a = kernel_Q(n - i + 1, n - np.arange(1, n + 1) + 2, x, 1, params)
        d = [[float(phi_virtual(l, i, x)) for l in range(1, n + 1)] for i, x in points]
        k, y = np.arange(1, self.m + 1), np.asarray(self.gram.y, dtype=int)
        xi = kernel_Xi_upper(i, k, y, x, params)
        return np.hstack([a, xi]), np.hstack([np.array(d), np.zeros_like(xi)])

    def matrix(self, points):
        """The 2P x 2P skew matrix of the blocks K(z_a; z_b), z = (i, x), from
        its strict upper triangle.  K0's diagonal blocks vanish: Q_{a,a}(x, x) = 0."""
        e, d = (rows * self.gram.scale for rows in self._rows(points))
        rows = np.stack([e, d], axis=1).reshape(2 * len(points), -1)
        upper = np.triu(rows @ np.linalg.solve(self.gram.matrix, rows.T), 1)
        a, b = np.triu_indices(len(points), 1)
        i, x = np.array(points, dtype=int).T
        for blk, ra, rb in zip(self.k0(i[a], x[a], i[b], x[b]), a.tolist(), b.tolist()):
            upper[2 * ra : 2 * ra + 2, 2 * rb : 2 * rb + 2] += blk
        return upper - upper.T

    def block(self, i, x1, j, x2):
        """The 2x2 kernel block K(i, x1; j, x2)."""
        return self.matrix([(i, x1), (j, x2)])[:2, 2:]

    def gap_probability(self, p_labels, a_thresholds):
        """P[X_t(p_k) > a_k for all k | |X_t| = N] as a finite Fredholm Pfaffian.

        The chi-bar projection keeps the set of points {(p_k, x): 1 <= x <= a_k}
        (a repeated label contributes each point once), making Pf(J - chi K chi)
        a finite Pfaffian; an empty projection (all a_k = 0) gives exactly 1.
        """
        p_labels, a_thresholds = require_event(p_labels, a_thresholds, self.n)
        points = list(dict.fromkeys(
            (p, x) for p, a in zip(p_labels, a_thresholds) for x in range(1, a + 1)
        ))
        if not points:
            return 1.0
        value = pfaffian(symplectic_j(2 * len(points)) - self.matrix(points))
        return _real(value, "conditional Pfaffian")


def conditional_kernel(n, m, y, params: ModelParams):
    return ConditionalKernel(build_skew_biorthogonal(n, m, y, params))


def conditional_distribution(p_labels, a_thresholds, n, m, y, t, params: ModelParams):
    """P[X_t(p_k) > a_k for all k | |X_t| = N].  As X_t(1) > ... > X_t(N) >= 1,
    the event is {X_t(k) >= s_k for all k}, s_k = max(N - k + 1, a_j + 1 + p_j - k
    over p_j >= k), so this is joint_distribution(y, s) over P(|X_t| = N), the
    joint law at (N, ..., 1), refused (ArithmeticError) unless > 0."""
    params = params.at(t)
    y = require_well_separated(y, n)
    if len(y) != m:
        raise ValueError("y must have M parts")
    pairs = list(zip(*require_event(p_labels, a_thresholds, n)))
    s = [max([n - k + 1] + [a + 1 + p - k for p, a in pairs if p >= k]) for k in range(1, n + 1)]
    den = boundary_current_probability(n, y, t, params)
    if not den > 0.0:
        raise ArithmeticError(f"P(|X_t| = {n}) = {den:g} is not positive")
    return _probability(joint_distribution(y, s, t, params) / den)


# ---------------------------------------------------------------------------
# Brute-force point-process construction
# ---------------------------------------------------------------------------


class BruteForceEnsemble:
    """The (J + L) matrix of the conditional point process on a cut lattice.

    Points are ordered [dagger_1..dagger_(N+M), (1,1)..(1,X), ..., (N,X)],
    each contributing a prime/double-prime row pair.  The L blocks follow the
    proof's explicit chain matrices; the sign-matrix on the virtual pairs has
    +1 on the first superdiagonal (unit Pfaffian).
    """

    def __init__(self, n, m, y, params: ModelParams, x_max):
        params.require_tasep()
        if n > 3 or x_max > 24:
            raise ValueError("brute-force path capped at N <= 3, X_max <= 24")
        y = as_config(y)
        if m > 0:
            require_well_separated(y, n)
        self.n, self.m, self.y, self.params, self.x_max = n, m, y, params, x_max
        self.n_virtual = n + m
        self.points = [("v", a) for a in range(1, n + m + 1)]
        self.points += [("p", i, x) for i in range(1, n + 1) for x in range(1, x_max + 1)]
        self.index = {pt: 2 * k for k, pt in enumerate(self.points)}
        dim = 2 * len(self.points)
        lmat = np.zeros((dim, dim))

        def put(row, col, val):
            lmat[row, col] += val
            lmat[col, row] -= val

        # virtual-virtual sign matrix on the prime copies
        for a in range(1, n + m):
            put(self.index[("v", a)], self.index[("v", a + 1)], 1.0)
        # dagger_i'' -> (i, x)' for i <= N
        for i in range(1, n + 1):
            for x in range(1, x_max + 1):
                put(self.index[("v", i)] + 1, self.index[("p", i, x)], 1.0)
        # (i, x1)'' -> (i+1, x2)' indicator chain
        for i in range(1, n):
            for x1 in range(1, x_max + 1):
                for x2 in range(x1, x_max + 1):
                    put(
                        self.index[("p", i, x1)] + 1,
                        self.index[("p", i + 1, x2)],
                        1.0,
                    )
        # Psi on the top fiber's double-prime copies
        x1, x2 = np.triu_indices(x_max, 1)
        psi = kernel_Q(1, 1, x1 + 1, x2 + 1, params)
        for u, v, val in zip(x1.tolist(), x2.tolist(), psi):
            put(self.index[("p", n, u + 1)] + 1, self.index[("p", n, v + 1)] + 1, val)
        # Xi columns: (N, x)'' -> dagger_(N+l)''
        for l in range(1, m + 1):
            xi = kernel_Xi(n, l, y[l - 1], np.arange(1, x_max + 1), params)
            for x, val in enumerate(xi.tolist(), start=1):
                put(self.index[("p", n, x)] + 1, self.index[("v", n + l)] + 1, val)
        self.lmat = lmat
        jmat = np.zeros_like(lmat)
        for i in range(1, n + 1):
            for x in range(1, x_max + 1):
                r = self.index[("p", i, x)]
                jmat[r, r + 1] = 1.0
                jmat[r + 1, r] = -1.0
        self.jmat = jmat
        self._inv = None

    def pf_l_restricted(self, phys_points):
        """Pf[L restricted to all virtuals plus the given physical points]."""
        rows = []
        for a in range(1, self.n_virtual + 1):
            rows += [self.index[("v", a)], self.index[("v", a)] + 1]
        for pt in phys_points:
            r = self.index[("p",) + tuple(pt)]
            rows += [r, r + 1]
        sub = self.lmat[np.ix_(rows, rows)]
        return pfaffian(sub)

    def normalization(self):
        return pfaffian(self.jmat + self.lmat)

    def measure(self, phys_points):
        """mu(A) = Pf[L|_(V u U u A)] / Pf[J_X + L]."""
        return self.pf_l_restricted(phys_points) / self.normalization()

    def kernel_block(self, i, x1, j, x2):
        """K = J + (J + L)^{-1} restricted to the physical points."""
        if self._inv is None:
            self._inv = np.linalg.inv(self.jmat + self.lmat)
        r = self.index[("p", i, x1)]
        c = self.index[("p", j, x2)]
        blk = self._inv[r : r + 2, c : c + 2].copy()
        if (i, x1) == (j, x2):
            blk += np.array([[0.0, 1.0], [-1.0, 0.0]])
        return blk


def correlation_kernel_bruteforce(n, m, y, params: ModelParams, x_max):
    return BruteForceEnsemble(n, m, y, params, x_max)


# ---------------------------------------------------------------------------
# Full-space reduction (M = N)
# ---------------------------------------------------------------------------


def _fullspace_f(j, x, y, params):
    """f^j_{j-k}(x) = (-1)^k Xi^(j)_{N-k}(x) for k = 1..len(y) along a last
    axis, j and x broadcast; defined for any integer x, y_k."""
    k = np.arange(1, len(y) + 1)
    j, x = (np.asarray(v)[..., None] for v in (j, x))
    return (-1.0) ** k * kernel_Xi_upper(j, k, np.asarray(y), x, params)


def _fullspace_params(t):
    """The full-space process is the half-line one with no injection."""
    return ModelParams(alpha=0.0, t=t)


def _support_range(y, t):
    return min(y) - len(y) - 2, max(y) + math.ceil(4 * t + 60)


def fullspace_biorthogonal(j, y, t):
    """Solve the full-space biorthogonalization for particle label j.

    Returns the coefficient rows of g^j_0..g^j_{j-1} in the monomial basis:
    sum_{x in Z} f^j_k(x) g^j_l(x) = delta_{k,l}.  y may be any strictly
    decreasing integer configuration (full-space initial data).
    """
    y = tuple(int(v) for v in y)
    params = _fullspace_params(t)
    lo, hi = _support_range(y, params.t)
    xs = np.arange(lo, hi + 1)
    # row k-1 holds f^j_{j-k} over xs; kept row-major, since the product's
    # rounding follows the layout BLAS is handed
    fvals = np.ascontiguousarray(_fullspace_f(j, xs, y[:j], params).T)
    moments = fvals @ np.vander(xs.astype(float), j, increasing=True)
    # row k-1 of moments^-T holds the monomial coefficients of g^j_{j-k}
    return np.linalg.inv(moments).T


def fullspace_distribution(p_labels, a_thresholds, y, t):
    """P[X_t(p_k) > a_k for all k] for full-space TASEP from y, with N = len(y).

    det(I - chi K chi) = det(I + Phi - F G^T) over the projected points
    (i_r, x_r), each kept once: F[r, k] = f^{i_r}_k(x_r) for k = 1..N,
    G[c, k] = g^{i_c}_k(x_c) for k <= i_c and 0 above, and Phi[r, c] =
    phi_{(i_r, i_c]}(x_r, x_c) for i_r < i_c and 0 otherwise.  The set
    {(p_k, x): x <= a_k} is truncated below at min(y, a) - N - 25, far below
    the initial data, where the rows of F vanish.  y may be any strictly
    decreasing integer configuration and the thresholds any integers; an
    empty event has probability 1.
    """
    y = tuple(int(v) for v in y)
    n = len(y)
    p_labels, a_thresholds = list(p_labels), [int(a) for a in a_thresholds]
    if len(p_labels) != len(a_thresholds):
        raise ValueError("labels and thresholds must pair up")
    if any(not 1 <= p <= n for p in p_labels):
        raise ValueError("labels must lie in 1..N")
    if any(a <= b for a, b in zip(y, y[1:])):
        raise ValueError("sites must be strictly decreasing")
    if not p_labels:
        return 1.0
    x_min = min(min(y), min(a_thresholds)) - n - 25
    points = list(dict.fromkeys(
        (p, x) for p, a in zip(p_labels, a_thresholds) for x in range(x_min, a + 1)
    ))
    params = _fullspace_params(t)
    g = {j: fullspace_biorthogonal(j, y, params.t) for j in set(p_labels)}
    f = _fullspace_f(*np.array(points).T, y, params)
    gmat = np.zeros((len(points), n))
    for c, (j, x) in enumerate(points):
        gmat[c, :j] = g[j] @ float(x) ** np.arange(j)
    phi = np.array(
        [[phi_conv(i, j, x1, x2) if i < j else 0 for j, x2 in points] for i, x1 in points],
        dtype=float,
    )
    return float(np.linalg.det(np.eye(len(points)) + phi - f @ gmat.T))
