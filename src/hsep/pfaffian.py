"""Dense skew-symmetric linear algebra: Pfaffians and skew-Borel factorization.

The Pfaffian uses Parlett-Reid-style congruence tridiagonalization with
partial pivoting (O(n^3), sign tracked through row/column swaps);
matching_sum expands the signed perfect-matching sum for small matrices
whose entries may be broadcast arrays (one call per grid).  The skew-Borel
factorization M = R J R^T (R upper triangular, J the standard symplectic
block form) is computed by trailing-column deflation, and an
independent entry-by-entry construction of R^{-1} from ratios of sub-Pfaffian
minors is provided as a cross-check.  identity_suite() runs randomized
instances of the classical Pfaffian identities (Stembridge, de Bruijn, block
evaluations) with discrete measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_skew",
    "pfaffian",
    "pfaffian_definition",
    "matching_sum",
    "SkewBorelFactorization",
    "SingularTrailingMinorError",
    "skew_borel",
    "skew_borel_explicit_inverse",
    "symplectic_j",
    "identity_suite",
]

_SKEW_TOL = 1e-12
_PIVOT_TOL = 1e-13


def as_skew(entries):
    """Validate skew-symmetry of a square real or complex matrix.

    Rejects asymmetry beyond 1e-12 relative.  Real entries stay real
    (float64) and complex ones complex.  Object-dtype arrays
    (extended-precision entries) pass through uncast, so the factorizations
    below run at the caller's precision.
    """
    if isinstance(entries, np.ndarray) and entries.dtype == object:
        a = entries
    else:
        a = np.asarray(entries)
        a = a.astype(complex if a.dtype.kind in "cO" else float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("skew matrix must be square")
    scale = max(np.max(np.abs(a), initial=0.0), 1.0)
    dev = np.max(np.abs(a + a.T), initial=0.0)
    if dev > _SKEW_TOL * scale:
        raise ValueError(f"matrix is not skew-symmetric (deviation {dev:g})")
    return a


def pfaffian(m):
    """Pfaffian of a skew-symmetric matrix; odd dimension returns 0.

    Satisfies pfaffian(M)^2 = det(M).  It is 0 only on an exactly zero pivot
    column: partial pivoting keeps every multiplier at most 1 in modulus, so
    small pivots are safe and tiny or widely scaled matrices keep their
    relative accuracy.
    """
    a = as_skew(m)
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    a = a.copy()
    pf = a.flat[0] * 0 + 1.0  # one, at the entry precision
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1 :, k])
        kp = k + 1 + int(np.argmax(col))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        pivot = a[k + 1, k]
        if pivot == 0:
            return 0.0
        pf *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k + 2 :, k] / pivot
            row = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, row) - np.outer(row, tau)
    return pf


def matching_sum(mat):
    """Pfaffian as the signed sum over perfect matchings of rows of entries.

    mat[i][j] may be scalars or mutually broadcastable arrays, so one call
    evaluates the Pfaffian at every point of a grid; odd dimension gives 0.
    Costs (dim - 1)!! products: for small matrices only.
    """

    def rec(items):
        if not items:
            return 1.0
        first, rest = items[0], items[1:]
        total = 0.0
        for pos, partner in enumerate(rest):
            remaining = rest[:pos] + rest[pos + 1 :]
            total = total + (-1.0) ** pos * mat[first][partner] * rec(remaining)
        return total

    return rec(list(range(len(mat))))


def pfaffian_definition(m):
    """Pfaffian straight from the signed perfect-matching sum (dim <= 10)."""
    a = as_skew(m)
    if a.shape[0] > 10:
        raise ValueError("combinatorial definition is for small matrices only")
    return matching_sum(a)


def symplectic_j(n):
    """Block-diagonal J with n/2 blocks [[0,1],[-1,0]] (n even)."""
    if n % 2 != 0:
        raise ValueError("J is even-dimensional")
    j = np.zeros((n, n))
    for b in range(0, n, 2):
        j[b, b + 1] = 1.0
        j[b + 1, b] = -1.0
    return j


class SingularTrailingMinorError(np.linalg.LinAlgError):
    def __init__(self, block):
        self.block = block
        super().__init__(
            f"trailing principal minor at block {block} is singular; "
            "skew-Borel factorization does not exist"
        )


@dataclass
class SkewBorelFactorization:
    """M = R J R^T with R upper triangular, R[2j-1,2j] = 0, R[2j,2j] = 1."""

    r: np.ndarray
    j: np.ndarray = field(repr=False)

    def reconstruct(self):
        return self.r @ self.j @ self.r.T


def skew_borel(m):
    """Skew-Borel factorization by deflating trailing column pairs.

    The trailing column pair of M determines the last two columns of R
    directly; subtracting their wedge leaves a skew matrix supported on the
    leading block, and the process repeats.  Requires the trailing principal
    minors to be invertible; violations raise SingularTrailingMinorError
    naming the offending block.
    """
    a = as_skew(m).copy()
    n = a.shape[0]
    if n % 2 != 0:
        raise ValueError("skew-Borel factorization needs even dimension")
    scale = max(np.max(np.abs(a)), 1.0)
    r = np.zeros((n, n), dtype=a.dtype)
    for blk in range(n // 2, 0, -1):
        c1, c2 = 2 * blk - 2, 2 * blk - 1  # 0-indexed columns of the pair
        pivot = a[c1, c2]
        if abs(pivot) <= _PIVOT_TOL * scale:
            raise SingularTrailingMinorError(blk)
        r1 = a[:, c2].copy()
        r2 = -a[:, c1] / pivot
        r1[c2:] = 0.0
        r1[c1] = pivot
        r2[c2 + 1 :] = 0.0
        r2[c2] = 1.0
        r2[c1] = 0.0
        r[:, c1] = r1
        r[:, c2] = r2
        a -= np.outer(r1, r2) - np.outer(r2, r1)
    return SkewBorelFactorization(r=r, j=symplectic_j(n))


def _pf_sub(m, index_list):
    idx = list(index_list)
    return pfaffian(m[np.ix_(idx, idx)])


def skew_borel_explicit_inverse(m):
    """R^{-1} assembled entry-by-entry from ratios of sub-Pfaffians.

    2x2 blocks (1-indexed block coordinates i, j, matrix size 2m):

        i < j:  [[-Pf M_{[2i-1,2m]\\{2i,2j-1}} / Pf M_{[2i-1,2m]},
                   Pf M_{[2i-1,2m]\\{2i,2j}}   / Pf M_{[2i-1,2m]}],
                 [-Pf M_{[2i,2m]\\{2j-1}}      / Pf M_{[2i+1,2m]},
                   Pf M_{[2i,2m]\\{2j}}        / Pf M_{[2i+1,2m]}]]
        i = j:  diag(Pf M_{[2i+1,2m]} / Pf M_{[2i-1,2m]}, 1)

    with Pf M_empty = 1.  Agrees with inverting skew_borel(M).r; a zero
    sub-Pfaffian in a denominator raises SingularTrailingMinorError.
    """
    a = as_skew(m)
    n = a.shape[0]
    if n % 2 != 0:
        raise ValueError("even dimension required")
    half = n // 2
    scale = float(max(np.max(np.abs(a)), 1.0)) ** (1 / 2)

    def rng(lo, hi):  # 1-indexed inclusive range -> 0-indexed list
        return list(range(lo - 1, hi))

    def without(lst, *drop):
        d = {x - 1 for x in drop}
        return [x for x in lst if x not in d]

    rinv = np.zeros((n, n), dtype=a.dtype)
    for bi in range(1, half + 1):
        lead = _pf_sub(a, rng(2 * bi - 1, n))
        sub = _pf_sub(a, rng(2 * bi + 1, n))
        if abs(lead) <= _PIVOT_TOL * scale:
            raise SingularTrailingMinorError(bi)
        for bj in range(bi, half + 1):
            ri, ci = 2 * bi - 2, 2 * bj - 2
            if bi == bj:
                rinv[ri, ci] = sub / lead
                rinv[ri + 1, ci + 1] = 1.0
                continue
            base1 = rng(2 * bi - 1, n)
            base2 = rng(2 * bi, n)
            rinv[ri, ci] = -_pf_sub(a, without(base1, 2 * bi, 2 * bj - 1)) / lead
            rinv[ri, ci + 1] = _pf_sub(a, without(base1, 2 * bi, 2 * bj)) / lead
            rinv[ri + 1, ci] = -_pf_sub(a, without(base2, 2 * bj - 1)) / sub
            rinv[ri + 1, ci + 1] = _pf_sub(a, without(base2, 2 * bj)) / sub
    return rinv


# ---------------------------------------------------------------------------
# Randomized identity suite (run by `hsep verify` and the tests)
# ---------------------------------------------------------------------------


def _stembridge_product(x):
    x = np.asarray(x, dtype=complex)
    prod = 1.0 + 0.0j
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            prod *= (x[i] - x[j]) / (1.0 - x[i] * x[j])
    return prod


def stembridge_matrix(x):
    x = np.asarray(x, dtype=complex)
    s = np.subtract.outer(x, x) / (1.0 - np.multiply.outer(x, x))
    np.fill_diagonal(s, 0.0)
    return s


def stembridge_pfaffian_pair(x):
    """(Pfaffian side, product side) of Stembridge's identity, any parity."""
    x = np.asarray(x, dtype=complex)
    m = len(x)
    s = stembridge_matrix(x)
    if m % 2 == 0:
        lhs = pfaffian(s)
    else:
        aug = np.zeros((m + 1, m + 1), dtype=complex)
        aug[:m, :m] = s
        aug[:m, m] = 1.0
        aug[m, :m] = -1.0
        lhs = pfaffian(aug)
    return lhs, _stembridge_product(x)


def _de_bruijn_discrete(rng, m, extra, odd_kernel):
    """One randomized generalized-de-Bruijn instance with a discrete measure.

    Integrals over X become weighted sums over a finite point set; `extra` is
    l - m (number of f columns); odd_kernel toggles the all-ones augmentation,
    which the identity needs exactly when l = m + extra is odd (otherwise both
    sides vanish identically).  Returns (lhs, rhs).  For this block layout the
    identity holds with no sign prefactor (verified empirically for
    extra <= 4; other row orderings in the literature carry a
    (-1)^binom(l-m,2) factor).
    """
    npts = 6
    pts = rng.normal(size=npts) + 1j * rng.normal(size=npts)
    wts = rng.normal(size=npts) + 1j * rng.normal(size=npts)
    g = rng.normal(size=(m, npts)) + 1j * rng.normal(size=(m, npts))
    f = rng.normal(size=(extra, npts)) + 1j * rng.normal(size=(extra, npts))
    h = rng.normal(size=(npts, npts)) + 1j * rng.normal(size=(npts, npts))
    h = h - h.T
    s = rng.normal(size=(extra, extra)) + 1j * rng.normal(size=(extra, extra))
    s = s - s.T

    dim = m + extra + (1 if odd_kernel else 0)

    def kernel_pf(widx):
        k = np.zeros((dim, dim), dtype=complex)
        k[:m, :m] = h[np.ix_(widx, widx)]
        c = m
        if odd_kernel:
            k[:m, c] = 1.0
            k[c, :m] = -1.0
            c += 1
        if extra:
            fcols = f[:, widx].T  # m x extra
            k[:m, c:] = fcols
            k[c:, :m] = -fcols.T
            k[c:, c:] = s
        return pfaffian(k)

    lhs = 0.0 + 0.0j
    for widx in np.ndindex(*([npts] * m)):
        widx = list(widx)
        weight = np.prod(wts[widx])
        det = np.linalg.det(g[:, widx].T) if m else 1.0
        lhs += weight * det * kernel_pf(widx)
    lhs /= math.factorial(m)

    a = np.einsum("ip,jq,p,q,pq->ij", g, g, wts, wts, h)
    c = np.einsum("ip,kp,p->ik", g, f, wts) if extra else np.zeros((m, 0))
    b = g @ wts
    rhs_mat = np.zeros((dim, dim), dtype=complex)
    rhs_mat[:m, :m] = a
    col = m
    if odd_kernel:
        rhs_mat[:m, col] = b
        rhs_mat[col, :m] = -b
        col += 1
    if extra:
        rhs_mat[:m, col:] = c
        rhs_mat[col:, :m] = -c.T
        rhs_mat[col:, col:] = s
    rhs = pfaffian(rhs_mat)
    return lhs, rhs


def identity_suite(seed=0, tol=1e-9):
    """Randomized checks of the Pfaffian identities; returns a report dict.

    Keys are identity names, values are max absolute deviations; the report
    carries an overall `passed` flag at threshold tol.
    """
    rng = np.random.default_rng(seed)
    report = {}

    # Pf^2 = det, dims up to 20
    dev = 0.0
    for n in range(2, 21, 2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - a.T
        pf = pfaffian(a)
        det = np.linalg.det(a)
        dev = max(dev, abs(pf * pf - det) / max(abs(det), 1.0))
    report["pfaffian-squared-is-det"] = dev

    # agreement with the combinatorial definition
    dev = 0.0
    for n in (2, 4, 6, 8):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - a.T
        dev = max(dev, abs(pfaffian(a) - pfaffian_definition(a)))
    report["matches-matching-sum"] = dev

    # swap antisymmetry
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = a - a.T
    b = a.copy()
    b[[2, 5], :] = b[[5, 2], :]
    b[:, [2, 5]] = b[:, [5, 2]]
    report["row-col-swap-flips-sign"] = abs(pfaffian(b) + pfaffian(a))

    # det(B) = (-1)^binom(m,2) Pf [[0, B], [-B^T, 0]]
    dev = 0.0
    for m in (2, 3, 4):
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        blk = np.zeros((2 * m, 2 * m), dtype=complex)
        blk[:m, m:] = b
        blk[m:, :m] = -b.T
        dev = max(
            dev, abs(np.linalg.det(b) - (-1) ** math.comb(m, 2) * pfaffian(blk))
        )
    report["block-pfaffian-is-det"] = dev

    # shuffle sign: Pf(A_hat) = (-1)^binom(n,2) Pf(A)
    dev = 0.0
    for half in (2, 3):
        n = 2 * half
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - a.T
        sigma = np.empty(n, dtype=int)
        for i in range(half):
            sigma[2 * i] = i
            sigma[2 * i + 1] = half + i
        ahat = a[np.ix_(sigma, sigma)]
        dev = max(dev, abs(pfaffian(ahat) - (-1) ** math.comb(half, 2) * pfaffian(a)))
    report["shuffle-sign"] = dev

    # block evaluation (even case): skew A (n x n), B (n x m)
    dev = 0.0
    for n, m in ((4, 2), (5, 3), (6, 2), (4, 4)):
        if (n + m) % 2 != 0:
            continue
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - a.T
        b = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        blk = np.zeros((n + m, n + m), dtype=complex)
        blk[:n, :n] = a
        blk[:n, n:] = b
        blk[n:, :n] = -b.T
        lhs = pfaffian(blk)
        if n == m:
            rhs = (-1) ** math.comb(n, 2) * np.linalg.det(b)
        else:
            total = 0.0 + 0.0j
            import itertools

            for s in itertools.combinations(range(1, n + 1), n - m):
                comp = [i for i in range(1, n + 1) if i not in s]
                sign = (-1) ** sum(s)
                idx = [i - 1 for i in s]
                total += sign * _pf_sub(a, idx) * np.linalg.det(b[[i - 1 for i in comp], :])
            rhs = (-1) ** math.comb(n, 2) * total
        dev = max(dev, abs(lhs - rhs))
    report["block-evaluation"] = dev

    # Stembridge, both parities, m <= 7
    dev = 0.0
    for m in range(2, 8):
        x = rng.uniform(-0.9, 0.9, size=m)
        lhs, rhs = stembridge_pfaffian_pair(x)
        dev = max(dev, abs(lhs - rhs))
    report["stembridge"] = dev

    # de Bruijn, m in {2,3,4}, l-m in {0,1,2}; l = m + extra parity decides
    # whether the ones-column augmentation enters, so both parities occur.
    dev = 0.0
    for m in (2, 3, 4):
        for extra in (0, 1, 2):
            odd_kernel = (m + extra) % 2 == 1
            lhs, rhs = _de_bruijn_discrete(rng, m, extra, odd_kernel)
            dev = max(dev, abs(lhs - rhs) / max(abs(rhs), 1.0))
    report["de-bruijn"] = dev

    # Andreief recovery: l = 2m, h = 0, S = 0 reduces to det * det
    m = 3
    npts = 6
    wts = rng.normal(size=npts)
    g = rng.normal(size=(m, npts))
    f = rng.normal(size=(m, npts))
    lhs = 0.0
    for widx in np.ndindex(*([npts] * m)):
        widx = list(widx)
        lhs += (
            np.prod(wts[widx])
            * np.linalg.det(g[:, widx].T)
            * np.linalg.det(f[:, widx].T)
        )
    lhs /= math.factorial(m)
    rhs = np.linalg.det(np.einsum("ip,kp,p->ik", g, f, wts))
    report["andreief-recovery"] = abs(lhs - rhs) / max(abs(rhs), 1.0)

    report_passed = all(v <= tol for v in report.values())
    return {"checks": report, "passed": report_passed, "tol": tol}
