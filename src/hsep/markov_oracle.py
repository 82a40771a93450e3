"""Ground truth for the exclusion process on the half-line.

Two independent oracles, both on configurations stored as occupancy masks
(bit s - 1 for site s):

* exact transition probabilities by uniformization of the generator on a
  truncated lattice (probability that leaks past the cutoff is absorbed and
  reported as a rigorous tail bound).  Every move shifts the site sum by
  +-1, so only the states within n of the initial site sum, n the number of
  Poisson steps, are ever propagated.  The last window generator is kept, and
  a later call at the same cutoff and rates whose band it holds reuses it;
* a continuous-time Monte Carlo (Gillespie) simulator on 62 sites, one uint64
  mask per trajectory, stepping a shrinking live set of trajectories at once;
  counter-based randomness makes a fixed seed reproduce bit-identical counts
  under any batching.

Both support the full model including exit rate gamma > 0, unlike the exact
contour/Pfaffian formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .kernels import ModelParams, as_config, require_event

__all__ = [
    "config_to_mask",
    "mask_to_config",
    "OracleDistribution",
    "generator_row",
    "default_cutoff",
    "transition_probability_exact",
    "oracle_distribution",
    "particle_count_distribution",
    "conditional_event_probability",
    "EmpiricalDistribution",
    "simulate",
]

def config_to_mask(config) -> int:
    mask = 0
    for s in config:
        mask |= 1 << (s - 1)
    return mask


def mask_to_config(mask) -> tuple:
    sites = []
    s = 1
    m = int(mask)
    while m:
        if m & 1:
            sites.append(s)
        m >>= 1
        s += 1
    return tuple(reversed(sites))


def generator_row(x, params: ModelParams, s_max=None):
    """Transitions out of configuration x: ([(target, rate), ...], diagonal).

    Bulk right moves at rate 1, bulk left moves at rate q, injection at site 1
    at rate alpha (when empty), removal from site 1 at rate gamma (when
    occupied).  With a finite s_max, right moves past the cutoff are
    suppressed; their rate still enters the diagonal and is reported
    separately as the escape rate: returns (targets, diagonal, escape_rate).
    """
    x = as_config(x)
    if s_max is not None and any(s > s_max for s in x):
        raise ValueError("a site exceeds the cutoff")
    occupied = set(x)
    targets = []
    escape = 0.0
    for s in x:
        if s + 1 not in occupied:
            if s_max is not None and s + 1 > s_max:
                escape += 1.0
            else:
                targets.append((tuple(sorted((occupied - {s}) | {s + 1}, reverse=True)), 1.0))
        if params.q > 0 and s >= 2 and s - 1 not in occupied:
            targets.append((tuple(sorted((occupied - {s}) | {s - 1}, reverse=True)), params.q))
    if 1 not in occupied and params.alpha > 0:
        targets.append((tuple(sorted(occupied | {1}, reverse=True)), params.alpha))
    if 1 in occupied and params.gamma > 0:
        targets.append((tuple(sorted(occupied - {1}, reverse=True)), params.gamma))
    diagonal = -(sum(r for _, r in targets) + escape)
    return targets, diagonal, escape


def default_cutoff(y, t):
    """Cutoff so the chance of any particle passing it is a tiny Poisson tail.

    The maximal occupied site advances at rate at most 1, so the escape
    probability is bounded by P(Poisson(t) >= margin); margin t + 8*sqrt(t)+4
    puts that far below 1e-9 for desk-scale t.  The escape accumulator in the
    oracle certifies the bound a posteriori.
    """
    top = max(y) if y else 1
    return top + int(math.ceil(t + 8.0 * math.sqrt(t) + 4.0))


def _max_exit_rate(s_max, q, alpha, gamma):
    """Largest total exit rate over the box {1..s_max}, the uniformization Lambda.

    A two-state recursion over sites: e and o are the largest rates that
    sites 1..s can collect with site s empty or occupied.  Site 1 brings alpha
    (empty) or gamma (occupied); the bond (s, s+1) brings 1 for a right move
    (occupied, empty) and q for a left move (empty, occupied); an occupied
    site s_max escapes at rate 1.
    """
    e, o = alpha, gamma
    for _ in range(s_max - 1):
        e, o = max(e, o + 1.0), max(e + q, o)
    return max(e, o + 1.0)


def _window(s_max, lo, hi):
    """Ascending masks of the box whose site sum lies in [lo, hi].

    Built by doubling over sites, adding site b + 1 to every mask so far whose
    sum stays <= hi, so no pass over all 2^s_max states is made.
    """
    masks = sums = np.zeros(1, dtype=np.int64)
    for b in range(s_max):
        keep = sums + b + 1 <= hi
        masks = np.concatenate([masks, masks[keep] | (1 << b)])
        sums = np.concatenate([sums, sums[keep] + b + 1])
    return masks[sums >= lo]


def _window_generator(masks, s_max, q, alpha, gamma):
    """Sparse transposed generator Q^T on the window `masks` (ascending).

    Entry [target, source] = rate(source -> target).  The diagonal holds minus
    the total exit rate, including the escape past the cutoff and every move
    whose target lies outside the window: that probability leaks (is
    absorbed) instead of reflecting.
    """
    n = len(masks)
    total_rate = np.zeros(n)
    entries = []  # (rows, cols, vals)

    def add(mask, targets, rate):
        total_rate[mask] += rate
        src = np.flatnonzero(mask)
        idx = np.minimum(np.searchsorted(masks, targets[src]), n - 1)
        inside = masks[idx] == targets[src]
        entries.append((idx[inside], src[inside], np.full(int(inside.sum()), rate)))

    bit = [((masks >> b) & 1) == 1 for b in range(s_max)]
    for b in range(s_max - 1):  # bulk right moves within the box
        add(bit[b] & ~bit[b + 1], masks ^ (np.int64(0b11) << b), 1.0)
    total_rate[bit[s_max - 1]] += 1.0  # right move out of the box: escape
    if q > 0:  # bulk left moves
        for b in range(1, s_max):
            add(bit[b] & ~bit[b - 1], masks ^ (np.int64(0b11) << (b - 1)), q)
    if alpha > 0:  # boundary injection / removal
        add(~bit[0], masks | 1, alpha)
    if gamma > 0:
        add(bit[0], masks & ~np.int64(1), gamma)

    entries.append((np.arange(n), np.arange(n), -total_rate))
    rows, cols, vals = map(np.concatenate, zip(*entries))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


_last_window = None  # (key, lo, hi, masks, qt): the last window generator built


def _reused_window(s_max, params, lo, hi):
    """(masks, qt) for the band [lo, hi], clipped to the sums the box reaches:
    the kept pair if built at the same s_max and rates on a band holding it,
    else a new pair, which replaces it."""
    global _last_window
    key = (s_max, params.q, params.alpha, params.gamma)
    lo, hi = max(lo, 0), min(hi, s_max * (s_max + 1) // 2)
    entry = _last_window
    if entry is None or entry[0] != key or not entry[1] <= lo <= hi <= entry[2]:
        entry = _last_window = None  # one generator alive at a time
        masks = _window(s_max, lo, hi)
        entry = _last_window = (key, lo, hi, masks, _window_generator(masks, s_max, *key[1:]))
    return entry[3], entry[4]


@dataclass
class OracleDistribution:
    """Exact time-t distribution over the truncated state space (t = params.t)."""

    params: ModelParams
    source: tuple
    s_max: int
    probs: np.ndarray
    tail_bound: float

    def probability(self, config):
        m = config_to_mask(as_config(config))
        if m >= len(self.probs):
            raise ValueError("configuration outside the truncated space")
        return float(self.probs[m])

    def to_json(self):
        entries = [
            {"config": list(mask_to_config(m)), "p": float(self.probs[m])}
            for m in np.flatnonzero(self.probs > 1e-12)
        ]
        entries.sort(key=lambda e: -e["p"])
        return json.dumps(
            {
                "t": self.params.t,
                "params": {
                    "q": self.params.q,
                    "alpha": self.params.alpha,
                    "gamma": self.params.gamma,
                },
                "source": list(self.source),
                "s_max": self.s_max,
                "entries": entries,
                "tail_bound": self.tail_bound,
            }
        )


def oracle_distribution(y, t, params: ModelParams, s_max=None, poisson_tol=1e-13):
    """Evolve delta_y to time t by uniformization; returns OracleDistribution.

    P_t = e^(-Lambda t) sum_n (Lambda t)^n / n! * Phat^n with
    Phat = I + Q/Lambda and Lambda the box maximum of the exit rate; n is
    truncated once the Poisson tail drops below poisson_tol, so it is known
    before the first step.  Every move shifts the site sum by +-1, so after k
    steps the iterate lives on |sum x - sum y| <= k: only that window, for
    k = n, is propagated.  Moves out of it leave its rim only, which is never
    propagated again, so the window is exact.  The reported tail_bound covers
    both the Poisson truncation and the probability absorbed at the lattice
    cutoff.  probs is dense over all 2^s_max masks.

    The last window generator built is kept, and it serves this call when it
    was built at the same s_max, q, alpha and gamma on a band holding this
    one; else a new one is built and kept.  The values are bit-identical:
    a state of the wider band outside this one lies more than n moves from y,
    so it stays exactly 0.0, and the diagonal is the full exit rate.
    """
    params = params.at(t)
    y = as_config(y)
    if s_max is None:
        s_max = default_cutoff(y, params.t)
    if not 1 <= s_max <= 24:
        raise ValueError(
            "S_max must be in [1, 24] (2^S_max states are enumerated); "
            "pass a smaller cutoff or raise it consciously"
        )
    if y and y[0] > s_max:
        raise ValueError("configuration exceeds the lattice cutoff")
    probs = np.zeros(1 << s_max)
    probs[config_to_mask(y)] = 1.0
    lam = _max_exit_rate(s_max, params.q, params.alpha, params.gamma)
    mu = lam * params.t
    if mu == 0.0:
        return OracleDistribution(params, y, s_max, probs, 0.0)

    # Poisson(mu) weights, stopping once the kept weight covers
    # 1 - poisson_tol (or no weight is left past the mode): the weight left
    # out is missing from probs.sum(), so it enters the tail bound.
    logw = -mu
    w = kept = math.exp(logw)
    weights = [w]
    while kept < 1.0 - poisson_tol and (len(weights) - 1 < mu or w > 0.0):
        logw += math.log(mu) - math.log(len(weights))
        w = math.exp(logw)
        weights.append(w)
        kept += w
    steps = len(weights) - 1
    masks, qt = _reused_window(s_max, params, sum(y) - steps, sum(y) + steps)
    v = np.zeros(len(masks))
    v[np.searchsorted(masks, config_to_mask(y))] = 1.0
    out = weights[0] * v
    for w in weights[1:]:
        v = v + qt.dot(v) / lam
        out += w * v
    probs[masks] = out
    tail = max(0.0, 1.0 - float(probs.sum())) + poisson_tol
    return OracleDistribution(params, y, s_max, probs, tail)


def transition_probability_exact(y, x, t, params: ModelParams, s_max=None):
    """P_t(y -> x) with a rigorous truncation bound: (probability, tail_bound)."""
    dist = oracle_distribution(y, t, params, s_max)
    return dist.probability(x), dist.tail_bound


def particle_count_distribution(y, t, params: ModelParams, s_max=None):
    """P(|X_t| = n | X_0 = y) for all n, as an array indexed by n."""
    dist = oracle_distribution(y, t, params, s_max)
    nz = np.flatnonzero(dist.probs)
    out = np.bincount(np.bitwise_count(nz), dist.probs[nz], minlength=dist.s_max + 1)
    return out, dist.tail_bound


def conditional_event_probability(dist: OracleDistribution, n, labels, thresholds):
    """P(X_t(p_k) > a_k for all k | |X_t| = n) from an oracle distribution.

    X_t(k) is the k-th largest occupied site.  Enumerates the n-particle
    configurations directly (cheap for desk-scale n).
    """
    labels, thresholds = require_event(labels, thresholds, n)
    total = 0.0
    hits = 0.0
    for sites in combinations(range(1, dist.s_max + 1), n):
        config = tuple(sorted(sites, reverse=True))
        p = dist.probs[config_to_mask(config)]
        total += p
        if all(config[pk - 1] > ak for pk, ak in zip(labels, thresholds)):
            hits += p
    if total <= 0.0:
        raise ZeroDivisionError("conditioning event has no mass in the box")
    return hits / total, total


# ---------------------------------------------------------------------------
# Gillespie simulation
# ---------------------------------------------------------------------------


class EmpiricalDistribution:
    """Final-state counts of trajectories at time params.t, with standard errors."""

    def __init__(self, counts, n_traj, params, source, seed):
        self.counts = counts  # dict: bitmask -> count
        self.n_traj = n_traj
        self.params = params
        self.source = source
        self.seed = seed

    def probability(self, config):
        return self.counts.get(config_to_mask(as_config(config)), 0) / self.n_traj

    def stderr(self, config):
        p = self.probability(config)
        return math.sqrt(max(p * (1.0 - p), 1.0 / self.n_traj) / self.n_traj)

    def to_json(self):
        entries = [
            {
                "config": list(mask_to_config(m)),
                "p": c / self.n_traj,
                "stderr": self.stderr(mask_to_config(m)),
            }
            for m, c in sorted(self.counts.items(), key=lambda kv: -kv[1])
        ]
        return json.dumps(
            {
                "t": self.params.t,
                "params": {
                    "q": self.params.q,
                    "alpha": self.params.alpha,
                    "gamma": self.params.gamma,
                },
                "source": list(self.source),
                "n_traj": self.n_traj,
                "seed": self.seed,
                "entries": entries,
            }
        )


_SIM_SITES = 62  # particles cannot plausibly travel this far at desk-scale t
_BONDS = np.uint64((1 << (_SIM_SITES - 1)) - 1)  # bit s - 1: bond (s, s + 1)


def _kth_bit(masks, k):
    """The (k+1)-th lowest set bit of each mask: clear the k lowest, keep the next."""
    for j in range(int(k.max(initial=0))):
        masks = np.where(k > j, masks & (masks - 1), masks)
    return masks & -masks


def simulate(y, t, params: ModelParams, n_traj, seed, batch=None):
    """Gillespie simulation of n_traj trajectories up to time t.

    A trajectory is one uint64 occupancy mask (bit s - 1 for site s) on the
    sites 1.._SIM_SITES.  Each round steps every live trajectory at once and
    retires those whose next event falls past t.  The two uniforms that
    trajectory g consumes in its r-th round are draws 2g and 2g+1 of the
    Philox stream keyed by seed with counter (0, 0, 0, r), so results are
    bit-identical for a fixed seed regardless of batching.  An initial site
    beyond _SIM_SITES is refused, and so is a run in which any trajectory
    occupies site _SIM_SITES (ArithmeticError), because a particle there
    cannot jump on.
    """
    params = params.at(t)
    y = as_config(y)
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if y and y[0] > _SIM_SITES:
        raise ValueError(
            f"simulate runs on a {_SIM_SITES}-site lattice; site {y[0]} is beyond it"
        )
    q, alpha, gamma = params.q, params.alpha, params.gamma

    counts = {}
    batch = n_traj if batch is None else batch
    done = 0
    while done < n_traj:
        nb = min(batch, n_traj - done)
        live = np.arange(nb)  # batch indices of the live trajectories
        masks = np.full(nb, config_to_mask(y), dtype=np.uint64)
        times = np.zeros(nb)
        finished = []
        rnd = 0
        while len(live):
            if np.any(masks >> (_SIM_SITES - 1)):
                raise ArithmeticError(
                    f"simulate: a particle reached site {_SIM_SITES}, the edge of "
                    f"its {_SIM_SITES}-site lattice"
                )
            # each Philox counter value yields four draws, two trajectories
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=[done // 2, 0, 0, rnd])
            )
            skip = 2 * (done % 2)
            u = gen.random(2 * nb + skip)[skip:].reshape(nb, 2)[live]
            rnd += 1

            right = masks & ~(masks >> 1) & _BONDS  # bit s - 1: s occupied, s + 1 empty
            left = (masks >> 1) & ~masks & _BONDS  # bit s - 1: s empty, s + 1 occupied
            nr = np.bitwise_count(right).astype(float)
            nl = np.bitwise_count(left).astype(float)
            site1 = (masks & 1) == 1
            r_inj = np.where(~site1, alpha, 0.0)
            r_out = np.where(site1, gamma, 0.0)
            rate = nr + q * nl + r_inj + r_out

            with np.errstate(divide="ignore"):
                dt = np.where(rate > 0, -np.log1p(-u[:, 0]) / np.maximum(rate, 1e-300), np.inf)
            newt = times + dt
            fire = newt <= params.t

            xi = u[:, 1] * rate
            is_right = fire & (xi < nr)
            is_left = fire & ~is_right & (xi < nr + q * nl)
            is_inj = fire & ~is_right & ~is_left & (xi < nr + q * nl + r_inj)
            is_out = fire & ~is_right & ~is_left & ~is_inj

            # k-th movable particle: the k-th set bit of its move mask
            b = np.zeros_like(masks)
            b[is_right] = _kth_bit(right[is_right], np.floor(xi[is_right]).astype(int))
            b[is_left] = _kth_bit(left[is_left], np.floor((xi[is_left] - nr[is_left]) / q).astype(int))
            masks ^= b | b << 1 | (is_inj | is_out)

            finished.append(masks[~fire])
            live, masks, times = live[fire], masks[fire], newt[fire]

        vals, cnts = np.unique(np.concatenate(finished), return_counts=True)
        for m, c in zip(vals.tolist(), cnts.tolist()):
            counts[int(m)] = counts.get(int(m), 0) + int(c)
        done += nb
    return EmpiricalDistribution(counts, n_traj, params, y, seed)
