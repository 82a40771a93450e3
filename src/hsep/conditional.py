"""Conditional multipoint distributions of the half-line TASEP.

Builds the skew-biorthogonal polynomial family (Phi) and the biorthogonal
family (Upsilon) from the moment matrix of the universal kernel, assembles
the correlation kernel K = K0 - (KA + KB + KC), whose finite-rank correction
is one matrix product E C F^T over three rows per point, and evaluates the
conditional joint distribution Pf(J - chi K chi) as a finite Pfaffian after
the threshold projection.  A brute-force construction of the same kernel by
dense inversion of the point-process (J + L) matrix on a truncated lattice
serves as an independent oracle, as does the full-space Fredholm determinant
reduction at M = N.

All polynomials are stored in the virtual-pairing basis
e_l(x) = (x)_(N-l) / (N-l)!  (l = 1..N), in which the kernel pairings are
single moment-matrix entries:
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
    kernel_Q,
    kernel_Xi,
    kernel_Xi_upper,
    kernel_Xi_virtual,
    phi_conv,
    rising,
)
from .markov_oracle import as_config
from .pfaffian import pfaffian, skew_borel, symplectic_j
from .tasep_formulas import require_well_separated

__all__ = [
    "moment_matrix",
    "virtual_pairing_matrix",
    "SkewBiorthogonalFamily",
    "build_skew_biorthogonal",
    "ConditionalKernel",
    "conditional_kernel",
    "conditional_distribution",
    "BruteForceEnsemble",
    "correlation_kernel_bruteforce",
    "fullspace_biorthogonal",
    "fullspace_kernel",
    "fullspace_distribution",
]


def moment_matrix(n, params):
    """script-N: [N]_{k,l} = Q_{N-k+2,N-l+2}(1,1), the e-basis Psi pairing."""
    mat = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            v = kernel_Q(n - k + 2, n - l + 2, 1, 1, params)
            mat[k - 1, l - 1] = v
            mat[l - 1, k - 1] = -v
    return mat


def virtual_pairing_matrix(n, m, y, params):
    """script-P: [P]_{a,b} = Xi^[a)_{N-b}(dagger_a), an N x M matrix.

    Under the separation y_M > N-M+1 it has the block form [S_M; 0] with
    S_M upper triangular and diagonal (-1)^k.
    """
    mat = np.zeros((n, m), dtype=complex)
    for a in range(1, n + 1):
        for b in range(1, m + 1):
            mat[a - 1, b - 1] = kernel_Xi_virtual(n, a, b, y[b - 1], params)
    return mat


def _basis_poly(l, n, x):
    """e_l(x) = (x)_(N-l)/(N-l)! as a float (polynomial of degree N-l)."""
    d = n - l
    return float(rising(x, d)) / math.factorial(d)


@dataclass
class SkewBiorthogonalFamily:
    """Phi_0..Phi_{N-M-1} and Upsilon_{N-M}..Upsilon_{N-1}, e-basis coefficients.

    phi[k] holds the coefficients of Phi_k (degree k); upsilon[k-1] those of
    Upsilon_{N-k} (degree N-k), k = 1..M.  residuals records the verified
    (bi)orthogonality defects.
    """

    n: int
    m: int
    y: tuple
    params: ModelParams
    phi: np.ndarray
    upsilon: np.ndarray
    nmat: np.ndarray = field(repr=False)
    pmat: np.ndarray = field(repr=False)
    residuals: dict = field(default_factory=dict)

    def phi_value(self, k, x):
        return sum(
            self.phi[k][j] * _basis_poly(j + 1, self.n, x) for j in range(self.n)
        )

    def upsilon_value(self, k, x):
        """Upsilon_{N-k}(x) for 1 <= k <= M."""
        return sum(
            self.upsilon[k - 1][j] * _basis_poly(j + 1, self.n, x)
            for j in range(self.n)
        )

    def verify(self, tol=1e-9):
        """Recompute all defining pairings; store and return max residuals.

        The Psi pairings are evaluated in explicitly antisymmetrized form
        (x^T A y - y^T A x)/2: for exactly skew A this is the same bilinear
        form but does not pollute structural zeros (like diagonals) with
        rounding noise of size ||x||^2 eps.
        """
        n, m = self.n, self.m
        nm = n - m
        res_skew = 0.0
        if nm:
            raw = self.phi @ self.nmat @ self.phi.T
            pairs = (raw - raw.T) / 2.0
            for a in range(nm):
                for b in range(nm):
                    if a % 2 == 0 and b == a + 1:
                        want = -1.0
                    elif b % 2 == 0 and a == b + 1:
                        want = 1.0
                    else:
                        want = 0.0
                    res_skew = max(res_skew, abs(pairs[a, b] - want))
        res_bi = 0.0
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                pair = self.upsilon[k - 1] @ self.pmat[:, l - 1]
                res_bi = max(res_bi, abs(pair - (1.0 if k == l else 0.0)))
        res_cross = 0.0
        if m and nm:
            raw = self.upsilon @ self.nmat @ self.phi.T
            back = self.phi @ self.nmat @ self.upsilon.T
            cross = (raw - back.T) / 2.0
            res_cross = float(np.max(np.abs(cross)))
        self.residuals = {
            "skew_biorth": res_skew,
            "biorth": res_bi,
            "cross": res_cross,
        }
        if max(self.residuals.values()) > tol:
            raise ArithmeticError(f"residual check failed: {self.residuals}")
        return self.residuals


def build_skew_biorthogonal(n, m, y, params: ModelParams):
    """Construct the polynomial families from their defining relations.

    Phi: skew-Borel factorization of the trailing (N-M) x (N-M) minor of the
    moment matrix (always even-dimensional since N + M is even).  Upsilon:
    per-k square linear systems pairing against Xi (rows l >= k) and against
    Psi Phi (all cross rows); the remaining biorthogonality rows l < k then
    hold automatically and are verified.
    """
    params.require_tasep()
    y = as_config(y)
    if len(y) != m:
        raise ValueError("y must have M parts")
    if m > n:
        raise ValueError("need M <= N")
    if (n + m) % 2 != 0:
        raise ValueError("the kernel construction needs N + M even")
    if m > 0:
        require_well_separated(y, n)
    nm = n - m

    nmat = moment_matrix(n, params) if (nm > 0 or m > 0) else np.zeros((0, 0))
    pmat = virtual_pairing_matrix(n, m, y, params) if m else np.zeros((n, 0))

    phi = np.zeros((nm, n), dtype=complex)
    if nm > 0:
        trailing = nmat[m:, m:]
        fac = skew_borel(trailing)
        rinv = np.linalg.inv(fac.r)
        # Phi_{(N-M)-k} = sum_j [Rinv]_{k,j} e_{M+j}; row index by degree
        for k in range(1, nm + 1):
            phi[nm - k, m:] = rinv[k - 1, :]

    upsilon = np.zeros((m, n), dtype=complex)
    for k in range(1, m + 1):
        size = n - k + 1
        a = np.zeros((size, size), dtype=complex)
        rhs = np.zeros(size, dtype=complex)
        row = 0
        for l in range(k, m + 1):  # biorthogonality rows l >= k
            a[row, :] = pmat[k - 1 :, l - 1]
            rhs[row] = 1.0 if l == k else 0.0
            row += 1
        for i in range(nm):  # cross-orthogonality rows
            a[row, :] = nmat[k - 1 :, :] @ phi[i]
            row += 1
        if row != size:
            raise AssertionError("Upsilon system is not square")
        coeff = np.linalg.solve(a, rhs)
        upsilon[k - 1, k - 1 :] = coeff

    family = SkewBiorthogonalFamily(
        n=n, m=m, y=y, params=params, phi=phi, upsilon=upsilon,
        nmat=nmat, pmat=pmat,
    )
    family.verify()
    return family


# ---------------------------------------------------------------------------
# The analytic kernel
# ---------------------------------------------------------------------------


class ConditionalKernel:
    """The 2x2-block correlation kernel K = K0 - (KA + KB + KC).

    The correction KA + KB + KC is a finite sum over Phi and Upsilon, so it
    has rank at most 2(N + M) and is one product.  At a point z = (i, x)
    take the rows, each of length N + M,

        E(z) = (c a(z), xi(z)),   F(z) = (c b(z), xi(z)),   D(z) = (c d(z), 0),

    with c = (Phi; Upsilon) the N x N e-basis coefficients,
    a(z)_l = Q_{N-i+1,N-l+2}(x, 1) = (Psi_{(i,N)} star e_l)(x),
    b(z)_l = Q_{N-l+2,N-i+1}(1, x) = (e_l star Psi_{(N,i)})(x),
    d(z)_l = (e_l diamond phi_{-(i,N]})(x) = (x)_(i-l)/(i-l)! for l <= i,
    and xi(z)_k = Xi^(i)_{N-k}(x).  With the core

        C = [[S, 0, 0], [0, 0, I_M], [0, I_M, Upsilon N Upsilon^T]],

    S = symplectic_j(N - M) pairing Phi_(2k) with Phi_(2k+1), the correction
    block at (z1, z2) is [[E1 C F2, -E1 C D2], [D1 C F2, -D1 C D2]]: the S
    block is KA, the identity blocks KB and the Gram block KC.
    """

    def __init__(self, family: SkewBiorthogonalFamily):
        self.family = family
        self.params = family.params
        self.n = family.n
        self.m = family.m
        nm, m = self.n - self.m, self.m
        self.coef = np.vstack([family.phi, family.upsilon])
        core = np.zeros((nm + 2 * m, nm + 2 * m), dtype=complex)
        core[:nm, :nm] = symplectic_j(nm)
        core[nm : nm + m, nm + m :] = np.eye(m)
        core[nm + m :, nm : nm + m] = np.eye(m)
        core[nm + m :, nm + m :] = family.upsilon @ family.nmat @ family.upsilon.T
        self.core = core

    def k0(self, i, x1, j, x2):
        n = self.n
        b11 = kernel_Q(n - i + 1, n - j + 1, x1, x2, self.params)
        b12 = -phi_conv(i, j, x1, x2) if i < j else 0.0
        b21 = phi_conv(j, i, x2, x1) if j < i else 0.0
        return np.array([[b11, b12], [b21, 0.0]], dtype=complex)

    def _rows(self, points):
        """The rows E, F and D of every point, each a (P, N + M) array."""
        n, y, params = self.n, self.family.y, self.params
        span = range(1, n + 1)
        a = [[kernel_Q(n - i + 1, n - l + 2, x, 1, params) for l in span] for i, x in points]
        b = [[kernel_Q(n - l + 2, n - i + 1, 1, x, params) for l in span] for i, x in points]
        d = [[_basis_poly(l, i, x) if l <= i else 0.0 for l in span] for i, x in points]
        xi = np.array(
            [[kernel_Xi_upper(n, i, k, y[k - 1], x, params) for k in range(1, self.m + 1)]
             for i, x in points],
            dtype=complex,
        ).reshape(len(points), self.m)
        ct = self.coef.T
        return (
            np.hstack([np.array(a) @ ct, xi]),
            np.hstack([np.array(b) @ ct, xi]),
            np.hstack([np.array(d) @ ct, np.zeros_like(xi)]),
        )

    def matrix(self, points):
        """The 2P x 2P matrix of the blocks K(z_a; z_b) over points z = (i, x)."""
        e, f, d = self._rows(points)
        left = np.stack([e, d], axis=1).reshape(2 * len(points), -1)
        right = np.stack([f, -d], axis=1).reshape(2 * len(points), -1)
        mat = -(left @ self.core @ right.T)
        for a, (i, x1) in enumerate(points):
            for b, (j, x2) in enumerate(points):
                mat[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] += self.k0(i, x1, j, x2)
        return mat

    def block(self, i, x1, j, x2):
        """The 2x2 kernel block K(i, x1; j, x2)."""
        return self.matrix([(i, x1), (j, x2)])[:2, 2:]


def conditional_kernel(n, m, y, params: ModelParams):
    return ConditionalKernel(build_skew_biorthogonal(n, m, y, params))


def conditional_distribution(p_labels, a_thresholds, n, m, y, t, params: ModelParams):
    """P[X_t(p_k) > a_k for all k | |X_t| = N] as a finite Fredholm Pfaffian.

    The chi-bar projection keeps the points {(p_k, x): 1 <= x <= a_k}, making
    Pf(J - chi K chi) a finite Pfaffian; empty projection (all a_k = 0) gives
    exactly 1.
    """
    if params.t != t:
        params = ModelParams(q=params.q, alpha=params.alpha, gamma=0.0, t=t)
    p_labels = list(p_labels)
    a_thresholds = list(a_thresholds)
    if len(p_labels) != len(a_thresholds):
        raise ValueError("labels and thresholds must pair up")
    if any(not 1 <= p <= n for p in p_labels):
        raise ValueError("labels must lie in 1..N")
    if any(a < 0 for a in a_thresholds):
        raise ValueError("thresholds must be >= 0")
    kernel = conditional_kernel(n, m, y, params)
    points = [
        (p, x) for p, a in zip(p_labels, a_thresholds) for x in range(1, a + 1)
    ]
    if not points:
        return 1.0

    same = np.array([[za == zb for zb in points] for za in points])
    mat = np.kron(same, [[0.0, 1.0], [-1.0, 0.0]]) - kernel.matrix(points)
    # K is skew only up to rounding: take the blocks above the diagonal and
    # mirror them, then clean the diagonal blocks' symmetric noise
    blocks = np.arange(len(mat)) // 2
    mat = np.where(blocks[:, None] > blocks[None, :], -mat.T, mat)
    value = pfaffian((mat - mat.T) / 2.0)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
        raise ArithmeticError(f"conditional Pfaffian has imaginary part {value.imag:g}")
    return value.real


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
        lmat = np.zeros((dim, dim), dtype=complex)

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
        for x1 in range(1, x_max + 1):
            for x2 in range(x1 + 1, x_max + 1):
                put(
                    self.index[("p", n, x1)] + 1,
                    self.index[("p", n, x2)] + 1,
                    kernel_Q(1, 1, x1, x2, params),
                )
        # Xi columns: (N, x)'' -> dagger_(N+l)''
        for l in range(1, m + 1):
            for x in range(1, x_max + 1):
                put(
                    self.index[("p", n, x)] + 1,
                    self.index[("v", n + l)] + 1,
                    kernel_Xi(n, l, y[l - 1], x, params),
                )
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


def _fullspace_f(n, j, k, y, x, params):
    """f^j_{j-k}(x) = (-1)^k Xi^(j)_{N-k}(x), defined for any integer x, y_k."""
    return (-1.0) ** k * kernel_Xi_upper(n, j, k, y[k - 1], x, params)


def _support_range(n, y, t, margin=60):
    lo = min(y) - n - 2
    hi = max(y) + int(math.ceil(4 * t + margin))
    return lo, hi


def fullspace_biorthogonal(j, y, t, n=None, params: ModelParams = None):
    """Solve the full-space biorthogonalization for particle label j.

    Returns the coefficient rows of g^j_0..g^j_{j-1} in the monomial basis:
    sum_{x in Z} f^j_k(x) g^j_l(x) = delta_{k,l}.  y may be any strictly
    decreasing integer configuration (full-space initial data).
    """
    y = tuple(int(v) for v in y)
    if n is None:
        n = len(y)
    if params is None:
        params = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=t)
    lo, hi = _support_range(n, y, t)
    xs = np.arange(lo, hi + 1)
    fvals = np.zeros((j, len(xs)))
    for k in range(1, j + 1):
        fvals[k - 1] = [
            complex(_fullspace_f(n, j, k, y, int(x), params)).real for x in xs
        ]
    moments = np.zeros((j, j))
    for mdeg in range(j):
        moments[:, mdeg] = fvals @ (xs.astype(float) ** mdeg)
    ginv = np.linalg.inv(moments)
    # row k-1 of ginv^T gives g^j_{j-k}; reorder to degree order g^j_l
    coeffs = ginv.T
    return coeffs  # coeffs[k-1] are monomial coefficients of g^j_{j-k}


class FullSpaceKernel:
    """The determinantal kernel of the M = N (full-space) reduction."""

    def __init__(self, n, y, t, params: ModelParams = None):
        self.n = n
        self.y = tuple(int(v) for v in y)
        if params is None:
            params = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=t)
        self.params = params
        self.t = t
        self._g = {}

    def _gcoeffs(self, j):
        if j not in self._g:
            self._g[j] = fullspace_biorthogonal(
                j, self.y, self.t, self.n, self.params
            )
        return self._g[j]

    def value(self, i, x1, j, x2):
        out = 0.0
        if i < j:
            d = j - i
            if x1 <= x2:
                out -= math.comb(x2 - x1 + d - 1, d - 1)
        g = self._gcoeffs(j)
        for k in range(1, j + 1):
            fv = complex(_fullspace_f(self.n, i, k, self.y, x1, self.params)).real
            gv = float(np.polyval(g[k - 1][::-1], x2))
            out += fv * gv
        return out


def fullspace_kernel(n, y, t, params: ModelParams = None):
    return FullSpaceKernel(n, y, t, params)


def fullspace_distribution(p_labels, a_thresholds, n, y, t):
    """P[X_t(p_k) > a_k for all k] for full-space TASEP, via det(I - chi K chi).

    The projection set {(p_k, x): x <= a_k} is truncated below at
    min(y, a) - n - 25, far below the initial data, where the kernel rows
    vanish.
    """
    y = tuple(int(v) for v in y)
    kern = fullspace_kernel(n, y, t)
    x_min = min(min(y), min(a_thresholds)) - n - 25
    points = [
        (p, x)
        for p, a in zip(p_labels, a_thresholds)
        for x in range(x_min, a + 1)
    ]
    if not points:
        return 1.0
    dim = len(points)
    mat = np.eye(dim)
    for r, (pi, x1) in enumerate(points):
        for c, (pj, x2) in enumerate(points):
            mat[r, c] -= kern.value(pi, x1, pj, x2)
    return float(np.linalg.det(mat))
