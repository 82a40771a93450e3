"""The finite-q transition probability: nested contour quadrature and the
hyperoctahedral symmetrization.

eval_F is the initial-data symmetrization (the Bethe-ansatz eigenvector of
the generator) as its defining 2^N N! sum, kept as the reference; at q = 0 it
dispatches to the Pfaffian limit (Stembridge block form).  Production writes
F as signed products of pair and single factors (_terms: the partial
symmetrization at q > 0, the Stembridge block Pfaffian at q = 0) and sums
them with one pairwise contraction against the x powers (_contract), which
beyond N = 2 never forms the (nodes,)^N grid; eval_F_alternative and
eval_F_pfaffian_limit are one-point contractions.  asep_transition_batch integrates the multiple
contour integrand on validated nested circles by trapezoid quadrature, one
contraction for every target x; node doubling and the q -> 0 Richardson legs
share one evaluation path and one gate on the imaginary residual.  The
supporting identities (eigenvector relation, symmetrization factorization,
the t = 0 orthogonality, the vanishing permutation sum) are numerical tests.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np

from .kernels import ModelParams
from .markov_oracle import as_config, generator_row
from .numerics import NestedContourFamily, QuadratureError, default_nested_contours

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

    A one-point contraction of the terms that the quadrature sums.
    """
    y = as_config(y)
    w = [complex(v) for v in w]
    n, m = len(w), len(y)
    if m > n:
        return 0.0 + 0.0j
    if params.q == 0.0:
        raise ValueError("use eval_F_pfaffian_limit at q = 0")
    _check_alphabet(w, params.q)
    return _at_point(y, w, params)


def eval_F_pfaffian_limit(y, w, params: ModelParams):
    """lim_{q->0} of the symmetrization, as the Stembridge-block Pfaffian.

    Requires y_M > N - M + 1 (the separation under which the limit has the
    simple Pfaffian structure); matches the small-q limit of eval_F with no
    extra constant.  A one-point contraction of the q = 0 terms.
    """
    y = as_config(y)
    w = [complex(v) for v in w]
    n, m = len(w), len(y)
    if m > n:
        return 0.0 + 0.0j
    if m > 0 and y[-1] <= n - m + 1:
        raise ValueError("Pfaffian limit needs y_M > N - M + 1")
    return _at_point(y, w, replace(params, q=0.0))


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


def _parity(seq):
    """(-1)^(number of inversions of seq)."""
    return -1 if sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :]) % 2 else 1


def _terms(y, nodes, params):
    """F on the grid of the 1-d node arrays nodes[d], as signed product terms.

    Yields (coef, pairs, singles), pairs mapping a < b to a (len(nodes[a]),
    len(nodes[b])) array and singles d to a len(nodes[d]) array; F at grid
    point k is the sum of coef * prod pairs[a, b][k_a, k_b] * prod
    singles[d][k_d].  The terms of the partial symmetrization at q > 0, of
    the Stembridge block Pfaffian at q = 0 (y separated).
    """
    y = as_config(y)
    n, m = len(nodes), len(y)
    q, alpha = params.q, params.alpha
    coef = alpha ** (n - m)
    if q == 0.0:
        # Pf [[A, B], [-B^T, 0]], A_ab = (w_a - w_b)/(1 - w_a w_b), B = (ones column
        # if N + M is odd, g_k(w_a)), expanded over the rows sigma(c) that B's columns
        # meet.  By Schur's identity the rest of A has the Pfaffian prod A_ab, which
        # cancels against the prefactor prod 1/A_ab.
        ones = (n + m) % 2
        inv_a = {(a, b): (1.0 - nodes[a][:, None] * nodes[b]) / (nodes[a][:, None] - nodes[b])
                 for a, b in combinations(range(n), 2)}
        g = [[(1.0 - alpha + alpha * w) * w ** (n - k) / (1.0 - w) ** y[k] for k in range(m)]
             for w in nodes]
        base = (-1) ** (math.comb(m, 2) + math.comb(m + ones, 2))
        for sigma in permutations(range(n), m + ones):
            rest = [d for d in range(n) if d not in sigma]
            pairs = {ab: f for ab, f in inv_a.items() if not set(ab) <= set(rest)}
            singles = {d: g[d][k] for k, d in enumerate(sigma[ones:])}
            yield base * _parity(rest + list(sigma)) * coef, pairs, singles
        return
    signed = [(w, 1.0 / (q * w)) for w in nodes]  # w and 1/(q w)
    for tset in combinations(range(n), m):
        rest = [(d, nodes[d]) for d in range(n) if d not in tset]
        for perm, signs in signed_permutations(m):
            moved = [(tset[p - 1], signed[tset[p - 1]][s < 0]) for p, s in zip(perm, signs)]
            pairs = {}
            for i, (d1, v1) in enumerate(moved):
                for d2, v2 in moved[i + 1 :] + rest:
                    cross = _cross(v1[:, None], v2, q) if d1 < d2 else _cross(v1, v2[:, None], q)
                    pairs[min(d1, d2), max(d1, d2)] = cross
            singles = {d: _phi_y(v, yi, q, alpha) for (d, v), yi in zip(moved, y)}
            yield coef, pairs, singles


def _lay(f, axes, ndim):
    """Array f with its axes at the increasing positions axes of ndim; scalars as they are."""
    if not isinstance(f, np.ndarray):
        return f
    shape = [1] * ndim
    for ax, size in zip(axes, f.shape):
        shape[ax] = size
    return f.reshape(shape)


def _contract(terms, pairs, singles, rows):
    """The array over (v_1, ..., v_N) of sum_k prod_d rows[d][v_d, k_d] *
    prod pairs * prod singles * sum_terms coef prod pairs prod singles.

    pairs and singles are shared by every term, laid out as in _terms (an
    absent factor is 1); rows[d] is a (V_d, len(nodes[d])) array.  For each
    term the last two variables are summed by matrix products and the first
    N - 2 stay a broadcast grid (all of them at N <= 2), whose shared factors
    are applied once after the sum over terms.  Every shared single enters
    before the sum over its variable: after it, it costs up to ten times the
    roundoff on the q -> 0 legs, where it spans ten decades.
    """
    n = len(rows)
    size = [r.shape[1] for r in rows]
    g = n if n <= 2 else n - 2  # the grid variables; a and b are summed
    a, b = g, g + 1
    total = np.zeros(size[:g] + [len(r) for r in rows[g:]], dtype=complex)
    grid = np.empty(size[:g], dtype=complex)
    if n > 2:
        left = np.empty(size[:g] + list(rows[a].shape), dtype=complex)
        right = np.empty(size[:g] + [len(rows[a]), size[b]], dtype=complex)
        shared_ab = pairs.get((a, b), 1.0) * _lay(singles.get(a, 1.0), (0,), 2)
        shared_ab = np.broadcast_to(shared_ab * singles.get(b, 1.0), (size[a], size[b]))
    for coef, tpairs, tsingles in terms:
        grid.fill(coef)
        for (i, j), f in tpairs.items():
            if j < g:
                grid *= _lay(f, (i, j), g)
        for d, f in tsingles.items():
            if d < g:
                grid *= _lay(f, (d,), g)
        if g == n:
            total += grid
            continue
        left[...] = rows[a] * tsingles.get(a, 1.0)
        for i in range(g):
            left *= _lay(pairs.get((i, a), 1.0) * tpairs.get((i, a), 1.0), (i, g + 1), n)
        # one BLAS product each over k_a and k_b (np.dot on an N-d array is not)
        ab = shared_ab * tpairs.get((a, b), 1.0)
        np.matmul(left.reshape(-1, size[a]), ab, out=right.reshape(-1, size[b]))
        for i in range(g):
            right *= _lay(pairs.get((i, b), 1.0) * tpairs.get((i, b), 1.0), (i, g + 1), n)
        right *= tsingles.get(b, 1.0)
        vv = right.reshape(-1, size[b]) @ rows[b].T
        total += vv.reshape(total.shape) * _lay(grid, range(g), n)
    shared = 1.0
    for i, j in combinations(range(g), 2):
        shared = shared * _lay(pairs.get((i, j), 1.0), (i, j), n)
    for d in range(g):
        shared = shared * _lay(singles.get(d, 1.0), (d,), n)
    np.multiply(shared, total, out=total)  # operand order sets the rounding under FMA
    for d in range(g):  # each new v axis goes first: reverse them at the end
        total = np.tensordot(rows[d], total, axes=(1, d))
    return total.transpose(list(range(g))[::-1] + list(range(g, n)))


def _at_point(y, w, params):
    """The symmetrization at one alphabet point, through _contract."""
    ones = [np.ones((1, 1))] * len(w)
    vals = _contract(_terms(y, [np.array([v]) for v in w], params), {}, {}, ones)
    return complex(vals.reshape(()))


def _integrand_core(y, n, params, fam: NestedContourFamily, nodes, sites):
    """The arguments of _contract on the nodes: the terms of F, the inverted
    cross factor, the per-variable factor times the trapezoid weight, and
    per variable d the x powers for each value in sites[d]."""
    q, alpha, t = params.q, params.alpha, params.t
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

    # inverted cross factor
    pairs = {}
    for i, j in combinations(range(n), 2):
        a, b = node_arrays[i][:, None], node_arrays[j][None, :]
        pairs[i, j] = (b - a) * (1.0 - q * a * b) / ((q * b - a) * (1.0 - a * b))
    # per-variable factor and trapezoid weight (center 1); x powers
    singles, rows = {}, []
    for d, (w, vs) in enumerate(zip(node_arrays, sites)):
        fac = (
            (1.0 - q * w * w)
            / (w * (q + alpha - 1.0 - alpha * w) * (1.0 - q * w))
            * np.exp((1.0 - q) ** 2 * w * t / ((1.0 - w) * (1.0 - q * w)))
        )
        singles[d] = fac * (w - 1.0) / nodes
        base = (1.0 - w) / (1.0 - q * w)
        rows.append(np.array([base ** (v - 1) for v in vs]))
    return _terms(y, node_arrays, params), pairs, singles, rows


def asep_transition_batch(y, n, xs, t, params: ModelParams, nodes=48, tol=1e-7):
    """P_t(y -> x) for every x in xs (all with |x| = n), one integrand pass.

    Doubles the per-dimension node count until every target value moves by
    at most tol; at q = 0 with y_M <= N - M + 1 it extrapolates four 96-node
    legs at small q instead.  Returns (dict x -> probability, diagnostics).
    Raises QuadratureError if 384 nodes are reached without convergence, and
    ArithmeticError if a result keeps an imaginary part above max(tol, 1e-9).
    """
    params = params.at(t)
    params.require_exact()
    if nodes < 1:
        raise ValueError("nodes must be >= 1: with none, every pass sums to 0")
    y = as_config(y)
    xs = [as_config(x) for x in xs]
    if any(len(x) != n for x in xs):
        raise ValueError("all target configurations must have n particles")
    if not xs:
        return {}, {"nodes": 0, "max_imag": 0.0}
    if len(y) > n:
        return {tuple(x): 0.0 for x in xs}, {"nodes": 0, "max_imag": 0.0}
    pref = math.exp(-params.alpha * params.t)
    if n == 0:
        return {(): pref}, {"nodes": 0, "max_imag": 0.0}

    sites = [sorted({x[d] for x in xs}) for d in range(n)]
    pos = [{v: i for i, v in enumerate(vs)} for vs in sites]

    def values(pq, fam, m_nodes):
        vals = _contract(*_integrand_core(y, n, pq, fam, m_nodes, sites))
        return {tuple(x): pref * vals[tuple(p[v] for p, v in zip(pos, x))] for x in xs}

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
        # noise floor ~ q^-2 eps, which defeats node-doubling certificates.
        # The error grows with y_1 (n = 2, alpha = 0.4, t = 2: 6.1e-8 at y_1 = 5,
        # 2.1e-6 at y_1 = 8; < 3e-8 at t <= 1), and no error estimate is returned.
        h = 0.015
        weights = (4.0, -6.0, 4.0, -1.0)
        runs = []
        for k in (1, 2, 3, 4):
            pq = replace(params, q=k * h)
            fam = default_nested_contours(k * h, params.alpha, n)
            runs.append(values(pq, fam, 96))
        cur = {x: sum(wt * run[x] for wt, run in zip(weights, runs)) for x in runs[0]}
        return finish(cur, 96, q_extrapolated=True)

    fam = default_nested_contours(params.q, params.alpha, n)
    prev = values(params, fam, nodes)
    while True:
        nodes *= 2
        if nodes > _NODE_CAP:
            raise QuadratureError(
                f"ASEP quadrature did not stabilize to {tol:g} by {_NODE_CAP} nodes"
            )
        cur = values(params, fam, nodes)
        diff = max(abs(cur[x] - prev[x]) for x in cur)
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
    q = params.q
    nodes = 64
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.37) / nodes
    wline = 1.0 + 0.08 * np.exp(1j * theta)
    # the scattering factor (a - q b)/(b - q a) of an inverted pair, with a on
    # the later variable: rows index the earlier variable, columns the later
    inverted = (wline[None, :] - q * wline[:, None]) / (wline[:, None] - q * wline[None, :])
    # ((1 - w)/(1 - q w))^e / ((1 - w)(1 - q w)), e = x_i - y_j, as powers of the
    # accurate bases 1 - w and 1 - q w: the quotient's power costs ten times the error
    one_w, one_qw = 1.0 - wline, 1.0 - q * wline
    single = {(i, j): one_w ** (x[i] - y[j] - 1) * one_qw ** (y[j] - x[i] - 1)
              for i in range(n) for j in range(n)}
    terms = (
        (_parity(p), {(p[j], p[i]): inverted for i, j in combinations(range(n), 2) if p[i] > p[j]},
         {i: single[i, p.index(i)] for i in range(n)})
        for p in permutations(range(n))
        if p != tuple(range(n))
    )
    total = _contract(terms, {}, {}, [((wline - 1.0) / nodes)[None, :]] * n).sum()
    return abs((q - 1.0) ** n * total)
