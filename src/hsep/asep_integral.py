"""The finite-q transition probability: nested contour quadrature and the
hyperoctahedral symmetrization.

eval_F is the initial-data symmetrization (the Bethe-ansatz eigenvector of
the generator) as its defining 2^N N! sum, kept as the reference; at q = 0 it
dispatches to the Pfaffian limit (Stembridge block form).  Production
evaluates F on tensor grids only: _grid_F (the partial-symmetrization form)
at q > 0 and _grid_F_q0 (the Pfaffian limit, through
pfaffian.matching_sum) at q = 0, and the scalar forms eval_F_alternative and
eval_F_pfaffian_limit are one-point calls of them.  asep_transition_batch
integrates the full multiple contour integrand on validated nested circles
by trapezoid quadrature, batched so one integrand tensor serves every target
configuration x; node doubling and the q -> 0 Richardson legs share one
evaluation path and one gate on the imaginary residual.  The
supporting identities (eigenvector relation, symmetrization factorization,
the t = 0 orthogonality, the vanishing permutation sum) are exposed as
numerical tests.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

import numpy as np

from .kernels import ModelParams
from .markov_oracle import as_config, generator_row
from .numerics import NestedContourFamily, QuadratureError, default_nested_contours
from .pfaffian import matching_sum

__all__ = [
    "signed_permutations",
    "V_constant",
    "eval_F",
    "eval_F_alternative",
    "eval_F_pfaffian_limit",
    "bc_symmetrization_sum",
    "asep_transition_batch",
    "asep_transition_probability",
    "test_eigenvector_relation",
    "test_tw_vanishing_sum",
]

_SING_TOL = 1e-8
_NODE_CAP = 384  # node doubling gives up beyond this many nodes per dimension


def signed_permutations(n):
    """All 2^n n! elements of the hyperoctahedral group as (perm, signs)."""
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield perm, signs


def V_constant(k, q):
    """q^binom(k,2) (1-q)^k / prod_{i=1..k} (1-q^i)(1+q^(i-1))."""
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    if k == 0:
        return 1.0
    num = q ** math.comb(k, 2) * (1.0 - q) ** k
    den = 1.0
    for i in range(1, k + 1):
        den *= (1.0 - q**i) * (1.0 + q ** (i - 1))
    return num / den


def _cross(a, b, q):
    """The scattering factor (a - q b)(1 - a b) / ((a - b)(1 - q a b))."""
    return (a - q * b) * (1.0 - a * b) / ((a - b) * (1.0 - q * a * b))


def _phi_y(w, y, q, alpha):
    return (
        (1.0 - q - alpha + alpha * w)
        / (1.0 - q * w * w)
        * (1.0 - q)
        * w
        / (1.0 - w)
        * ((1.0 - q * w) / (1.0 - w)) ** (y - 1)
    )


def _check_alphabet(w, q):
    n = len(w)
    for i in range(n):
        if abs(w[i] - 1.0) < _SING_TOL:
            raise ValueError("alphabet touches the genuine pole at w = 1")
        if q > 0 and abs(w[i] - 1.0 / q) < _SING_TOL:
            raise ValueError("alphabet touches the genuine pole at w = 1/q")
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) < _SING_TOL:
                raise ValueError("alphabet touches the removable locus w_i = w_j")
            if q > 0 and abs(1.0 - q * w[i] * w[j]) < _SING_TOL:
                raise ValueError(
                    "alphabet touches the removable locus w_i = 1/(q w_j)"
                )


def _signed_value(w, idx, sign, q):
    return w[idx] if sign > 0 else 1.0 / (q * w[idx])


def eval_F(y, w, params: ModelParams):
    """The symmetrized initial-data function on a complex alphabet.

    Vanishes when the configuration has more parts than the alphabet.  At
    q = 0 the hyperoctahedral action degenerates and the Pfaffian limit form
    is used instead (requires the separation y_M > N - M + 1).
    """
    y = as_config(y)
    w = [complex(v) for v in w]
    n, m = len(w), len(y)
    if m > n:
        return 0.0 + 0.0j
    q, alpha = params.q, params.alpha
    if q == 0.0:
        return eval_F_pfaffian_limit(y, w, params)
    # exact zeros collide with the signed action w -> 1/(q w); the function is
    # analytic there, so evaluate by a symmetric average (error O(eps^2)).
    zeros = [i for i, v in enumerate(w) if abs(v) < 1e-12]
    if zeros:
        i = zeros[0]
        eps = 3e-6
        wp, wm = list(w), list(w)
        wp[i] = eps
        wm[i] = -eps
        return 0.5 * (eval_F(y, wp, params) + eval_F(y, wm, params))
    _check_alphabet(w, q)
    total = 0.0 + 0.0j
    for perm, signs in signed_permutations(n):
        vals = [_signed_value(w, perm[i] - 1, signs[i], q) for i in range(n)]
        term = 1.0 + 0.0j
        for i in range(n):
            for j in range(i + 1, n):
                term *= _cross(vals[i], vals[j], q)
        for i in range(m):
            term *= _phi_y(vals[i], y[i], q, alpha)
        total += term
    return V_constant(n - m, q) * alpha ** (n - m) * total


def eval_F_alternative(y, w, params: ModelParams):
    """The partial-symmetrization form: sum over M-subsets and B_M only.

    A one-point call of the grid evaluator that the quadrature runs.
    """
    y = as_config(y)
    w = [complex(v) for v in w]
    n, m = len(w), len(y)
    if m > n:
        return 0.0 + 0.0j
    if params.q == 0.0:
        raise ValueError("use eval_F_pfaffian_limit at q = 0")
    _check_alphabet(w, params.q)
    bufs = np.empty((2,) + (1,) * n, dtype=complex)
    return complex(_grid_F(y, [np.array([v]) for v in w], params, bufs).reshape(()))


def eval_F_pfaffian_limit(y, w, params: ModelParams):
    """lim_{q->0} of the symmetrization, as the Stembridge-block Pfaffian.

    Requires y_M > N - M + 1 (the separation under which the limit has the
    simple Pfaffian structure); matches the small-q limit of eval_F with no
    extra constant.
    """
    y = as_config(y)
    w = [complex(v) for v in w]
    n, m = len(w), len(y)
    if m > n:
        return 0.0 + 0.0j
    if m > 0 and y[-1] <= n - m + 1:
        raise ValueError("Pfaffian limit needs y_M > N - M + 1")
    return complex(_grid_F_q0(y, [np.array([v]) for v in w], params).reshape(()))


def bc_symmetrization_sum(w, q, m_fixed=0):
    """The (partial) hyperoctahedral symmetrization of the cross factor.

    m_fixed = 0 gives the full sum (equals 1/V_N); with m_fixed = M > 0 the
    subgroup fixing w_1..w_M is summed, which equals
    (1/V_{N-M}) * prod_{i<=M<j} cross(w_i, w_j).
    """
    w = [complex(v) for v in w]
    n = len(w)
    free = n - m_fixed
    total = 0.0 + 0.0j
    for perm, signs in signed_permutations(free):
        vals = list(w[:m_fixed]) + [
            _signed_value(w, m_fixed + perm[i] - 1, signs[i], q) for i in range(free)
        ]
        term = 1.0 + 0.0j
        for i in range(n):
            for j in range(i + 1, n):
                term *= _cross(vals[i], vals[j], q)
        total += term
    return total


# ---------------------------------------------------------------------------
# Nested-contour quadrature of the transition probability
# ---------------------------------------------------------------------------


def _axis(arr, d, n):
    """The 1-d array arr laid along axis d of an n-dimensional grid."""
    sh = [1] * n
    sh[d] = len(arr)
    return arr.reshape(sh)


def _grid_F(y, nodes, params, bufs):
    """eval_F on a tensor grid, vectorized via the partial-symmetrization form.

    nodes[d] is the 1-d node array of dimension d; returns an N-dimensional
    array, computed in bufs (two arrays of the grid's shape, the result in
    the second).
    """
    y = as_config(y)
    n = len(nodes)
    m = len(y)
    q, alpha = params.q, params.alpha
    # signed[d][s]: the nodes of dimension d under sign s (0: w, 1: 1/(q w))
    signed = [(w, 1.0 / (q * w)) for w in nodes]

    def cross2(d1, s1, d2, s2):
        a = _axis(signed[d1][s1], d1, n)
        b = _axis(signed[d2][s2], d2, n)
        return _cross(a, b, q)

    total, term = bufs
    if m == 0:
        term.fill(alpha**n)
        return term
    total.fill(0.0)
    for tset in combinations(range(n), m):
        rest = [j for j in range(n) if j not in tset]
        for perm, signs in signed_permutations(m):
            dims = [tset[perm[i] - 1] for i in range(m)]
            ss = [0 if signs[i] > 0 else 1 for i in range(m)]
            term.fill(1.0)
            for i in range(m):
                for j in range(i + 1, m):
                    term *= cross2(dims[i], ss[i], dims[j], ss[j])
                for jdim in rest:
                    term *= cross2(dims[i], ss[i], jdim, 0)
                phi = _phi_y(signed[dims[i]][ss[i]], y[i], q, alpha)
                term *= _axis(phi, dims[i], n)
            total += term
    return np.multiply(alpha ** (n - m), total, out=term)


def _grid_F_q0(y, nodes, params):
    """q = 0 limit of the symmetrization on a tensor grid (Pfaffian form)."""
    y = as_config(y)
    n = len(nodes)
    m = len(y)
    alpha = params.alpha
    shape = tuple(len(v) for v in nodes)
    odd = (n + m) % 2 == 1
    dim = n + m + (1 if odd else 0)
    mat = [[0.0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            if i != j:
                a, b = _axis(nodes[i], i, n), _axis(nodes[j], j, n)
                mat[i][j] = (a - b) / (1.0 - a * b)
    col = n
    if odd:
        for i in range(n):
            mat[i][col] = 1.0
            mat[col][i] = -1.0
        col += 1
    for k in range(m):
        for i in range(n):
            wv = nodes[i]
            g = (1.0 - alpha + alpha * wv) * wv ** (n - k) / (1.0 - wv) ** y[k]
            mat[i][col + k] = _axis(g, i, n)
            mat[col + k][i] = -_axis(g, i, n)
    prefactor = np.ones(shape, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = _axis(nodes[i], i, n), _axis(nodes[j], j, n)
            prefactor = prefactor * (1.0 - a * b) / (a - b)
    sign = (-1.0) ** math.comb(m, 2)
    return sign * alpha ** (n - m) * prefactor * matching_sum(mat)


def _integrand_core(y, n, t, params, fam: NestedContourFamily, nodes, bufs):
    """The x-independent part of the integrand, summed against quadrature
    weights: returns (core array, per-dim base arrays for the x powers).
    The grid arrays are computed in bufs, three arrays of the grid's shape."""
    q, alpha = params.q, params.alpha
    node_arrays = []
    for d in range(n):
        r = fam.radii[d]
        theta = 2.0 * np.pi * (np.arange(nodes) + 0.5 * (d % 2)) / nodes
        node_arrays.append(1.0 + r * np.exp(1j * theta))
    # removable-singularity safety: rotate everything by a half step if any
    # cross-dimension node pair gets too close (cannot happen with strictly
    # increasing radii, but cheap to certify).
    for _ in range(2):
        bad = False
        for i in range(n):
            for j in range(i + 1, n):
                d = np.abs(node_arrays[i][:, None] - node_arrays[j][None, :])
                if d.min() < 1e-6:
                    bad = True
                if q > 0:
                    c = np.abs(
                        1.0 - q * node_arrays[i][:, None] * node_arrays[j][None, :]
                    )
                    if c.min() < 1e-6:
                        bad = True
        if not bad:
            break
        node_arrays = [
            1.0 + (v - 1.0) * np.exp(1j * np.pi / (2 * nodes)) for v in node_arrays
        ]

    # Factors accumulate in place, in the order of the written-out product,
    # in arrays the caller keeps: a full-grid array is 14 MB at N = 3 and 96
    # nodes, and a fresh one is faulted in again on every leg and doubling.
    core = bufs[0]
    core.fill(1.0)
    # inverted cross factor
    for i in range(n):
        for j in range(i + 1, n):
            a, b = _axis(node_arrays[i], i, n), _axis(node_arrays[j], j, n)
            core *= b - a
            core *= 1.0 - q * a * b
            core /= (q * b - a) * (1.0 - a * b)
    # per-variable factor (without the x power) and quadrature weight
    for d in range(n):
        w = node_arrays[d]
        fac = (
            (1.0 - q * w * w)
            / (w * (q + alpha - 1.0 - alpha * w) * (1.0 - q * w))
            * np.exp((1.0 - q) ** 2 * w * t / ((1.0 - w) * (1.0 - q * w)))
        )
        fac = fac * (w - 1.0) / nodes  # trapezoid weight, center 1
        core *= _axis(fac, d, n)
    # initial-data symmetrization
    if q == 0.0:
        core *= _grid_F_q0(y, node_arrays, params)
    else:
        core *= _grid_F(y, node_arrays, params, bufs[1:])
    bases = [((1.0 - v) / (1.0 - q * v)) for v in node_arrays]
    return core, bases


def _contract(core, bases, xs):
    """Contract the integrand tensor with per-dimension x powers for each x."""
    n = core.ndim
    site_values = sorted({x[d] for x in xs for d in range(n)})
    pos = {v: i for i, v in enumerate(site_values)}
    # result[v1, ..., vN] = sum core * prod_d bases[d]^(v_d - 1); tensordot
    # puts each new index first, so after N folds the order is v_N, ..., v_1
    cur = core
    for d in range(n):
        powers = np.array([bases[d] ** (v - 1) for v in site_values])
        cur = np.tensordot(powers, cur, axes=([1], [d]))
    cur = np.transpose(cur)
    return {tuple(x): cur[tuple(pos[v] for v in x)] for x in xs}


def asep_transition_batch(y, n, xs, t, params: ModelParams, nodes=48, tol=1e-7):
    """P_t(y -> x) for every x in xs (all with |x| = n), one integrand pass.

    Doubles the per-dimension node count until every target value moves by
    at most tol; at q = 0 with y_M <= N - M + 1 it extrapolates four 96-node
    legs at small q instead.  Returns (dict x -> probability, diagnostics).
    Raises QuadratureError if 384 nodes are reached without convergence, and
    ArithmeticError if a result keeps an imaginary part above max(tol, 1e-9).
    """
    params.require_exact()
    y = as_config(y)
    xs = [as_config(x) for x in xs]
    if any(len(x) != n for x in xs):
        raise ValueError("all target configurations must have n particles")
    if len(y) > n:
        return {tuple(x): 0.0 for x in xs}, {"nodes": 0, "max_imag": 0.0}
    pref = math.exp(-params.alpha * t)
    if n == 0:
        return {(): pref}, {"nodes": 0, "max_imag": 0.0}

    bufs = None  # three grid arrays of the current node count, for every leg

    def values(pq, fam, m_nodes):
        nonlocal bufs
        if bufs is None or bufs.shape[1] != m_nodes:
            bufs = np.empty((3,) + (m_nodes,) * n, dtype=complex)
        core, bases = _integrand_core(y, n, t, pq, fam, m_nodes, bufs)
        return {x: pref * v for x, v in _contract(core, bases, xs).items()}

    def finish(cur, nodes, **diag):
        max_imag = max(abs(v.imag) for v in cur.values())
        if max_imag > max(tol, 1e-9):
            raise ArithmeticError(
                f"imaginary residual {max_imag:g} exceeds tolerance"
            )
        return (
            {x: v.real for x, v in cur.items()},
            {"nodes": nodes, "max_imag": max_imag, **diag},
        )

    if params.q == 0.0 and y and y[-1] <= n - len(y) + 1:
        # The q = 0 symmetrization limit only has its simple Pfaffian form
        # for well-separated initial data (no closed form exists otherwise),
        # so Richardson-extrapolate four moderate-q legs to q = 0.  The legs
        # use a fixed 96-node grid: at small q the signed sum both roughens
        # the integrand (the flip-cross factor develops a 1 - w_j/w_i
        # singularity with a q^-k prefactor) and carries a cancellation
        # noise floor ~ q^-2 eps, which defeats node-doubling certificates;
        # the calibrated cubic extrapolation delivers ~5e-8 absolute, worst
        # over the desk-scale grid at boundary-occupied initial data.
        h = 0.015
        weights = (4.0, -6.0, 4.0, -1.0)
        runs = []
        for k in (1, 2, 3, 4):
            pq = ModelParams(q=k * h, alpha=params.alpha, gamma=0.0, t=params.t)
            fam = default_nested_contours(k * h, params.alpha, n)
            runs.append(values(pq, fam, 96))
        cur = {x: sum(wt * run[x] for wt, run in zip(weights, runs)) for x in runs[0]}
        return finish(cur, 96, q_extrapolated=True)

    fam = default_nested_contours(params.q, params.alpha, n)
    prev = values(params, fam, nodes)
    best_delta = math.inf
    while True:
        nodes *= 2
        if nodes > _NODE_CAP:
            # A delta plateau slightly above tol is a roundoff floor, not a
            # discretization failure (the node-doubling estimate is itself
            # noise-limited there); accept it as the reported accuracy.
            if best_delta <= 5.0 * tol:
                return finish(prev, nodes // 2, last_delta=best_delta)
            raise QuadratureError(
                f"ASEP quadrature did not stabilize to {tol:g} by {_NODE_CAP} nodes"
            )
        cur = values(params, fam, nodes)
        diff = max(abs(cur[x] - prev[x]) for x in cur)
        best_delta = min(best_delta, diff)
        if diff <= tol:
            return finish(cur, nodes, last_delta=diff)
        prev = cur


def asep_transition_probability(y, x, t, params: ModelParams, tol=1e-7, nodes=48):
    """P_t(y -> x) for the half-space process at general q (gamma = 0)."""
    x = as_config(x)
    vals, _ = asep_transition_batch(y, len(x), [x], t, params, nodes=nodes, tol=tol)
    return vals[tuple(x)]


# ---------------------------------------------------------------------------
# Identity tests (section-6 material)
# ---------------------------------------------------------------------------


def test_eigenvector_relation(y, w, params: ModelParams):
    """Relative residual of the generator eigenvector relation at alphabet w.

    sum_{y'} <y|L|y'> F_{y'}(w) should equal
    (-alpha + sum_i (1-q)^2 w_i/((1-w_i)(1-q w_i))) F_y(w).
    """
    params.require_exact()
    y = as_config(y)
    w = [complex(v) for v in w]
    targets, diag, _ = generator_row(y, params, None)
    lhs = diag * eval_F(y, w, params)
    for target, rate in targets:
        lhs += rate * eval_F(target, w, params)
    q = params.q
    eig = -params.alpha + sum(
        (1.0 - q) ** 2 * wi / ((1.0 - wi) * (1.0 - q * wi)) for wi in w
    )
    rhs = eig * eval_F(y, w, params)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


def test_tw_vanishing_sum(x, y, params: ModelParams):
    """|sum over non-identity permutations of I_{x,y}(sigma)| at M = N.

    The integrals use coincident small circles around 1; each individual term
    is generally nonzero, the sum vanishes.
    """
    params.require_exact()
    x = as_config(x)
    y = as_config(y)
    n = len(x)
    if len(y) != n:
        raise ValueError("the vanishing sum needs M = N")
    if n == 1:
        return 0.0
    q = params.q
    nodes = 64
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.37) / nodes
    wline = 1.0 + 0.08 * np.exp(1j * theta)
    dw = wline - 1.0
    shape = tuple(nodes for _ in range(n))
    total = 0.0 + 0.0j
    for perm in permutations(range(1, n + 1)):
        if perm == tuple(range(1, n + 1)):
            continue
        inv = [0] * n
        for i, pi in enumerate(perm):
            inv[pi - 1] = i + 1
        sign = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = np.ones(shape, dtype=complex) * sign
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    a = _axis(wline, perm[i] - 1, n)
                    b = _axis(wline, perm[j] - 1, n)
                    term = term * (a - q * b) / (b - q * a)
        for i in range(n):
            wv = wline
            f = (
                1.0
                / ((1.0 - wv) * (1.0 - q * wv))
                * ((1.0 - wv) / (1.0 - q * wv)) ** (x[i] - y[inv[i] - 1])
            )
            term = term * _axis(f * dw / nodes, i, n)
        total += term.sum()
    return abs((q - 1.0) ** n * total)
