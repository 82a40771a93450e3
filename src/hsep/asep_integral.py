"""The finite-q transition probability: nested contour quadrature and the
hyperoctahedral symmetrization.

eval_F is the initial-data symmetrization (the Bethe-ansatz eigenvector of
the generator) as its defining 2^N N! sum, kept as the reference; at q = 0 it
dispatches to the Pfaffian limit.  Production writes F as signed products of
pair and single factors (_terms: the partial symmetrization, whose flips
w -> 1/(q w) drop out at q = 0) and sums them with one pairwise contraction
against the x powers (_contract), which beyond N = 2 never forms the
(nodes,)^N grid; eval_F_alternative and eval_F_pfaffian_limit are one-point
contractions.  The scattering factor
S(a, b) = (a - q b)(1 - a b)/((a - b)(1 - q a b)) obeys S(a, 1/(q b)) =
S(a, b), so a flip w -> 1/(q w) changes only the factors of its own
position; in the last two positions these are one pair or single array,
and _terms sums both flips into it (half the terms at N = 3, M = 2).
asep_transition_batch integrates the multiple contour integrand on
validated nested circles by trapezoid quadrature, one contraction for every
target x.  The rule converges geometrically in the node count, so each pass
takes half again the nodes of the last (32, 48, 72, ...), and a value is
returned once two passes agree within tol; a pass at finite q and one of the
q -> 0 Richardson combination climb the same ladder, with one gate on the
imaginary residual.  The supporting identities
(eigenvector relation, symmetrization factorization, the reflection of S,
the t = 0 orthogonality, the vanishing permutation sum) are numerical tests.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np

from .kernels import ModelParams, as_config
from .numerics import NestedContourFamily, QuadratureError, default_nested_contours
from .tasep_formulas import _separated

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
NODE_START = 32  # the first rung of the node ladder
_NODE_CAP = 384  # the ladder gives up beyond this many nodes per dimension


def signed_permutations(n):
    """All 2^n n! elements of the hyperoctahedral group as (perm, signs)."""
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield perm, signs


def V_constant(k, q):
    """q^binom(k,2) (1-q)^k / prod_{i=1..k} (1-q^i)(1+q^(i-1))."""
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
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
    """The partial-symmetrization form: sum over M-subsets and B_M only, with
    the flips of the last two positions folded (S(a, 1/(q b)) = S(a, b)).

    A one-point contraction of the terms that the quadrature sums, so that
    the comparison with eval_F checks the fold.
    """
    y = as_config(y)
    w = [complex(v) for v in w]
    if params.q == 0.0:
        raise ValueError("use eval_F_pfaffian_limit at q = 0")
    _check_alphabet(w, params.q)
    return _at_point(y, w, params)


def eval_F_pfaffian_limit(y, w, params: ModelParams):
    """lim_{q->0} of the symmetrization: the partial symmetrization without
    its flips, equal to the Stembridge block Pfaffian of the paper.

    Requires y_M > N - M + 1, the separation under which every flipped term
    vanishes with q; matches the small-q limit of eval_F with no extra
    constant.  A one-point contraction of the q = 0 terms.
    """
    y = as_config(y)
    w = [complex(v) for v in w]
    if not _separated(y, len(w)):
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
    singles[d][k_d]: the partial symmetrization over M-subsets, their
    orders and the flips w -> 1/(q w) of the moved variables (none at q = 0,
    where y must be separated), folded: since S(a, 1/(q b)) = S(a, b) for
    the scattering factor S = _cross, the factors a flip changes are those
    of its own position, and in the last two positions these form one pair
    or one single array, into which both flips are summed.  So a term is an
    (M-subset, order, flips of the positions before N - 2): 12 terms instead
    of 24 at (N, M) = (3, 2), 96 instead of 384 at (4, 4).  Each term's own
    arrays are released before the next is built; the S arrays of unfolded
    positions are kept for the call.
    """
    y = as_config(y)
    n, m = len(nodes), len(y)
    q, alpha = params.q, params.alpha
    coef = alpha ** (n - m)
    # a pair factor S(v_p, v_e) depends only on the flip of the earlier position
    # p, so a later variable enters unflipped: S(v_p, w_e)
    sides = (0, 1) if q else (0,)  # at q = 0 no flip: see asep_transition_batch
    signed = [(w, 1.0 / (q * w)) if q else (w,) for w in nodes]  # w and 1/(q w)
    fold = max(n - 2, 0)  # moved positions from here on have their flips summed
    memo = {}  # the S arrays of unfolded positions, kept for the call

    def lay(d, e):
        """Indices that put d's and e's nodes on the axes (min(d, e), max(d, e))."""
        row, col = (slice(None), None), (None, slice(None))
        return (row, col) if d < e else (col, row)

    def cross(d, s, e):
        """S(signed[d][s], nodes[e]), laid out over (min(d, e), max(d, e))."""
        f = memo.get((d, s, e))
        if f is None:
            ld, le = lay(d, e)
            f = _cross(signed[d][s][ld], nodes[e][le], q)
            if m > 1:  # with one moved variable no S array recurs
                memo[d, s, e] = f
        return f

    def folded(d, e, yp):
        """sum over both flips v of d of S(v, nodes[e]) phi_yp(v), laid out as cross."""
        ld, le = lay(d, e)
        f = None
        for v in signed[d]:
            g = _cross(v[ld], nodes[e][le], q)
            g *= _phi_y(v, yp, q, alpha)[ld]
            if f is None:
                f = g
            else:
                f += g
        return f

    for tset in combinations(range(n), m):
        rest = [d for d in range(n) if d not in tset]
        for perm in permutations(tset):
            order = list(perm) + rest
            fpairs, fsingles = {}, {}  # releases the previous order's arrays first
            for p in range(fold, m):
                d = order[p]
                if p < n - 1:
                    e = order[p + 1]
                    fpairs[min(d, e), max(d, e)] = folded(d, e, y[p])
                else:
                    fsingles[d] = sum(_phi_y(v, y[p], q, alpha) for v in signed[d])
            for flips in product(sides, repeat=min(fold, m)):
                pairs, singles = dict(fpairs), dict(fsingles)
                for p, s in enumerate(flips):
                    d = order[p]
                    for e in order[p + 1 :]:
                        pairs[min(d, e), max(d, e)] = cross(d, s, e)
                    singles[d] = _phi_y(signed[d][s], y[p], q, alpha)
                yield coef, pairs, singles
                del pairs, singles


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
        else:
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
            del ab, vv
        del tpairs, tsingles  # before the next term is built
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
    per variable d the x powers for each value in sites[d].  On validated
    radii the nodes avoid every pole: |w_i - w_j| >= r_j - r_i, and the
    q-image, inverse-image and 1/C_i groups keep q w_j - w_i, 1 - q w_i w_j
    and 1 - w_i w_j off 0."""
    q, alpha, t = params.q, params.alpha, params.t
    node_arrays = []
    for d in range(n):
        r = fam.radii[d]
        theta = 2.0 * np.pi * (np.arange(nodes) + 0.5 * (d % 2)) / nodes
        node_arrays.append(1.0 + r * np.exp(1j * theta))
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


def asep_transition_batch(y, n, xs, t, params: ModelParams, nodes=NODE_START, tol=1e-7):
    """P_t(y -> x) for every x in xs (all with |x| = n), one integrand pass.

    Climbs the node ladder nodes += (nodes + 1) // 2 (32, 48, 72, 108, ...
    from the default) until every target value moves by at most tol between
    two passes; at q = 0 with y_M <= N - M + 1 a pass is the Richardson
    combination of four legs at small q instead.  M > N gives F no term (0.0)
    and N = 0 one empty term (e^(-alpha t)).  Returns (dict x ->
    probability, diagnostics with last_delta).  Raises QuadratureError if the
    ladder passes 384 nodes without agreement, and ArithmeticError if a
    result keeps an imaginary part above max(tol, 1e-9).
    """
    params = params.at(t)
    params.require_exact()
    if nodes < 1:
        raise ValueError("nodes must be >= 1: with none, every pass sums to 0")
    if not 0 < tol < 1:
        raise ValueError(f"tol must satisfy 0 < tol < 1, got {tol!r}")
    y = as_config(y)
    xs = [as_config(x) for x in xs]
    if any(len(x) != n for x in xs):
        raise ValueError("all target configurations must have n particles")
    if not xs:
        return {}, {"nodes": 0, "max_imag": 0.0}
    pref = math.exp(-params.alpha * params.t)
    sites = [sorted({x[d] for x in xs}) for d in range(n)]
    pos = [{v: i for i, v in enumerate(vs)} for vs in sites]
    diag = {}
    if params.q == 0.0 and not _separated(y, n):
        # A flip at position p carries phi_y(1/(q w)) = O(q^(y_p - 1)) and
        # S(1/(q w), w_e) = O(1/q) for each of its N - 1 - p later variables,
        # so a flipped term is O(q^(y_p - N + p)) (p from 0).  Separated y
        # (y_M > N - M + 1) puts every exponent at 1 or more, and the q = 0
        # terms are the unflipped ones.  Otherwise a pass Richardson-extrapolates
        # four legs at q = 0.015 k to q = 0, and the ladder certifies the
        # quadrature of the combination, not its extrapolation error.  At
        # small q the integrand roughens (the flip-cross factor has a q^-k
        # prefactor), so the legs may need many nodes.
        h = 0.015
        legs = [(wt, replace(params, q=k * h), default_nested_contours(k * h, params.alpha, n))
                for k, wt in zip((1, 2, 3, 4), (4.0, -6.0, 4.0, -1.0))]
        diag["q_extrapolated"] = True
    else:
        legs = [(1.0, params, default_nested_contours(params.q, params.alpha, n))]

    def evaluate(m_nodes):
        vals = sum(wt * _contract(*_integrand_core(y, n, pq, fam, m_nodes, sites))
                   for wt, pq, fam in legs)
        return {tuple(x): pref * vals[tuple(p[v] for p, v in zip(pos, x))] for x in xs}

    prev = evaluate(nodes)
    while True:
        nodes += (nodes + 1) // 2
        if nodes > _NODE_CAP:
            raise QuadratureError(
                f"ASEP quadrature did not stabilize to {tol:g} by {_NODE_CAP} nodes"
            )
        cur = evaluate(nodes)
        diff = max(abs(cur[x] - prev[x]) for x in cur)
        if diff <= tol:
            break
        prev = cur
    max_imag = max(abs(v.imag) for v in cur.values())
    if max_imag > max(tol, 1e-9):
        raise ArithmeticError(f"imaginary residual {max_imag:g} exceeds tolerance")
    return (
        {x: v.real for x, v in cur.items()},
        {"nodes": nodes, "max_imag": max_imag, "last_delta": diff, **diag},
    )


def asep_transition_probability(y, x, t, params: ModelParams, tol=1e-7, nodes=NODE_START):
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
    from .markov_oracle import generator_row  # this reference check is its only user here

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
