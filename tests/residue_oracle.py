"""Per-pole jet residues of the q = 0 kernels: the cross-check for hsep.kernels.

The library evaluates every kernel as one annulus coefficient extraction;
these functions take the residue at each enclosed pole separately instead,
through ``hsep.numerics.residue_at``.  Per-pole contributions cancel heavily
when alpha < 1 and sites are large, so use them for modest arguments only.
"""

from hsep.numerics import Jet, residue_at

_CLUSTER_TOL = 1e-8


def _cluster_poles(candidates, tol=_CLUSTER_TOL):
    """Merge (point, order) candidates lying within tol; drop zero orders.

    Colliding poles (alpha = 1, alpha = 1/2, alpha = 0) become a single
    expansion point with the order bounds added, which is always safe.
    """
    merged = []
    for p, m in candidates:
        if m <= 0:
            continue
        p = complex(p)
        for entry in merged:
            if abs(entry[0] - p) <= tol:
                entry[1] += m
                break
        else:
            merged.append([p, m])
    return [(p, m) for p, m in merged]


def _jpow(z, n):
    """z**n that is exact for n == 0 (avoids a needless window truncation)."""
    if n == 0:
        return 1.0
    return z**n


def _origin_and_one(t, flip, power, expo):
    """Residues at 0 and 1 of (s (w-1))^power e^(t(w-1)) / w^expo, s = -1 if flip."""

    def f(w):
        base = 1.0 - w if flip else w - 1.0
        return _jpow(base, power) * ((w - 1.0) * t).exp() / _jpow(w, expo)

    poles = _cluster_poles([(0.0, expo), (1.0, -power)])
    return sum(residue_at(f, p0, m) for p0, m in poles)


def kernel_U(k, z, n_minus_m, params):
    return _origin_and_one(params.t, False, n_minus_m - k, z - k + n_minus_m + 1)


def kernel_Xi(n, k, y_k, z, params):
    return (-1.0) ** k * _origin_and_one(params.t, False, n - k, z - y_k + n - k + 1)


def kernel_Xi_upper(i, k, y_k, x, params):
    return (-1.0) ** i * _origin_and_one(params.t, True, i - k, x - y_k + i - k + 1)


def kernel_Xi_virtual(i, k, y_k, params):
    return (-1.0) ** (i + 1) * _origin_and_one(params.t, True, i - k - 1, i - k + 1 - y_k)


def _inner_laurent(a, x, params):
    """Laurent data of f1(w) = w^(a-x) e^(t(w-1)) / ((w-alpha)(w-1)^a).

    Returns [(pole, order, coeffs)] with coeffs[r] the Laurent coefficient
    at exponent -1-r, r = 0..order-1, for each enclosed pole of f1.
    """
    al, t = params.alpha, params.t

    def f1(w):
        return _jpow(w, a - x) * ((w - 1.0) * t).exp() / ((w - al) * _jpow(w - 1.0, a))

    data = []
    for p0, m in _cluster_poles([(0.0, x - a), (al, 1), (1.0, a)]):
        jet = f1(Jet.variable(p0, 2 * m + 6))
        data.append((p0, m, [jet.coeff(-1 - r) for r in range(m)]))
    return data


def kernel_Q(a, b, x, y, params):
    """Q_{a,b}(x,y) by per-pole jet residues (inner w, then outer u).

    The coupling factor (u-w)/(1-u-w) equals 1 + (2u-1)/(1-u-w), so the inner
    w-residues produce an explicit rational-times-entire function of u whose
    residues are then taken.
    """
    al, t = params.alpha, params.t
    inner = _inner_laurent(a, x, params)

    def outer_integrand(u):
        f2 = _jpow(u, b - y) * ((u - 1.0) * t).exp() / ((u - al) * _jpow(u - 1.0, b))
        total = 0.0
        for p0, m, coeffs in inner:
            inv = 1.0 / (1.0 - u - p0)
            acc = 0.0
            pw = inv
            for r in range(m):
                acc = acc + coeffs[r] * pw
                pw = pw * inv
            total = total + coeffs[0] + (2.0 * u - 1.0) * acc
        return f2 * total

    candidates = [(0.0, y - b), (al, 1), (1.0, b)]
    candidates += [(1.0 - p0, m) for p0, m, _ in inner]
    value = sum(
        residue_at(outer_integrand, p0, m) for p0, m in _cluster_poles(candidates)
    )
    return al**2 * value
