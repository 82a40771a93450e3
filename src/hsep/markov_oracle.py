"""Ground truth for the exclusion process on the half-line.

Two independent oracles:

* exact transition probabilities by uniformization of the generator on a
  truncated lattice (states are bitmasks of occupied sites, probability that
  leaks past the cutoff is absorbed and reported as a rigorous tail bound);
* a continuous-time Monte Carlo (Gillespie) simulator, vectorized over
  trajectories, with counter-based randomness so a fixed seed reproduces
  bit-identical counts under any execution schedule.

Both support the full model including exit rate gamma > 0, unlike the exact
contour/Pfaffian formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .kernels import ModelParams

__all__ = [
    "HalfSpaceConfig",
    "as_config",
    "config_to_mask",
    "mask_to_config",
    "TruncatedStateSpace",
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

HalfSpaceConfig = tuple  # strictly decreasing sites, all >= 1; () is empty


def as_config(sites) -> HalfSpaceConfig:
    """Validate and normalize a half-space configuration (decreasing sites)."""
    c = tuple(int(s) for s in sites)
    if any(s < 1 for s in c):
        raise ValueError("sites must be >= 1")
    if any(a <= b for a, b in zip(c, c[1:])):
        raise ValueError("sites must be strictly decreasing")
    return c


def config_to_mask(config) -> int:
    mask = 0
    for s in config:
        mask |= 1 << (s - 1)
    return mask


def mask_to_config(mask) -> HalfSpaceConfig:
    sites = []
    s = 1
    m = int(mask)
    while m:
        if m & 1:
            sites.append(s)
        m >>= 1
        s += 1
    return tuple(reversed(sites))


@dataclass(frozen=True)
class TruncatedStateSpace:
    """All subsets of {1..S_max}; the state index is the occupancy bitmask."""

    s_max: int

    def __post_init__(self):
        if not 1 <= self.s_max <= 24:
            raise ValueError(
                "S_max must be in [1, 24] (2^S_max states are enumerated); "
                "pass a smaller cutoff or raise it consciously"
            )

    @property
    def size(self):
        return 1 << self.s_max

    def index(self, config):
        m = config_to_mask(config)
        if m >= self.size:
            raise ValueError("configuration exceeds the lattice cutoff")
        return m

    def config(self, index):
        return mask_to_config(index)


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


def _popcounts(n_states, s_max):
    states = np.arange(n_states, dtype=np.int64)
    pc = np.zeros(n_states, dtype=np.int8)
    for b in range(s_max):
        pc += ((states >> b) & 1).astype(np.int8)
    return pc


_GEN_CACHE_SIZE = 4  # an s_max = 20 generator holds 6.5M nonzeros


@lru_cache(maxsize=_GEN_CACHE_SIZE)
def _generator_matrix(q, alpha, gamma, s_max):
    """Sparse transposed generator Q^T on the truncated space (cached).

    Entry [target, source] = rate(source -> target); diagonal rows sum to
    minus the total exit rate including the suppressed escape at the cutoff,
    so probability leaks (is absorbed) instead of reflecting.  The cache
    keeps the most recently used generators only.
    """
    n = 1 << s_max
    states = np.arange(n, dtype=np.int64)
    rows, cols, vals = [], [], []
    total_rate = np.zeros(n)

    def add(mask, targets, rate):
        rows.append(targets[mask].astype(np.int64))
        cols.append(states[mask])
        vals.append(np.full(int(mask.sum()), rate))

    # bulk right moves within the box
    for b in range(s_max - 1):
        mask = (((states >> b) & 1) == 1) & (((states >> (b + 1)) & 1) == 0)
        add(mask, states ^ (np.int64(0b11) << b), 1.0)
        total_rate[mask] += 1.0
    # right move out of the box: absorbed (escape)
    top = (((states >> (s_max - 1)) & 1) == 1)
    total_rate[top] += 1.0
    # bulk left moves
    if q > 0:
        for b in range(1, s_max):
            mask = (((states >> b) & 1) == 1) & (((states >> (b - 1)) & 1) == 0)
            add(mask, states ^ (np.int64(0b11) << (b - 1)), q)
            total_rate[mask] += q
    # boundary injection / removal
    if alpha > 0:
        mask = (states & 1) == 0
        add(mask, states | 1, alpha)
        total_rate[mask] += alpha
    if gamma > 0:
        mask = (states & 1) == 1
        add(mask, states & ~np.int64(1), gamma)
        total_rate[mask] += gamma

    rows.append(states)
    cols.append(states)
    vals.append(-total_rate)
    qt = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return qt, float(total_rate.max())


@dataclass
class OracleDistribution:
    """Exact time-t distribution over the truncated state space."""

    t: float
    params: ModelParams
    source: HalfSpaceConfig
    s_max: int
    probs: np.ndarray
    tail_bound: float

    def probability(self, config):
        m = config_to_mask(as_config(config))
        if m >= len(self.probs):
            raise ValueError("configuration outside the truncated space")
        return float(self.probs[m])

    def particle_count_probability(self, n):
        pc = _popcounts(len(self.probs), self.s_max)
        return float(self.probs[pc == n].sum())

    def to_json(self, min_prob=1e-12):
        entries = [
            {"config": list(mask_to_config(m)), "p": float(p)}
            for m, p in enumerate(self.probs)
            if p > min_prob
        ]
        entries.sort(key=lambda e: -e["p"])
        return json.dumps(
            {
                "t": self.t,
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
    Phat = I + Q/Lambda; n is truncated once the Poisson tail drops below
    poisson_tol.  The reported tail_bound covers both the Poisson truncation
    and the probability absorbed at the lattice cutoff.
    """
    y = as_config(y)
    if s_max is None:
        s_max = default_cutoff(y, t)
    space = TruncatedStateSpace(s_max)
    qt, lam = _generator_matrix(params.q, params.alpha, params.gamma, s_max)
    v = np.zeros(space.size)
    v[space.index(y)] = 1.0
    if lam * t == 0.0:
        return OracleDistribution(t, params, y, s_max, v, 0.0)

    mu = lam * t
    # Poisson(mu) weights on the fly, stopping once the kept weight covers
    # 1 - poisson_tol (or no weight is left past the mode): the weight left
    # out is missing from out.sum(), so it enters the tail bound.
    logw = -mu
    w = kept = math.exp(logw)
    out = w * v
    n_ = 0
    while kept < 1.0 - poisson_tol and (n_ < mu or w > 0.0):
        n_ += 1
        logw += math.log(mu) - math.log(n_)
        w = math.exp(logw)
        v = v + qt.dot(v) / lam
        out += w * v
        kept += w
    tail = max(0.0, 1.0 - float(out.sum())) + poisson_tol
    return OracleDistribution(t, params, y, s_max, out, tail)


def transition_probability_exact(y, x, t, params: ModelParams, s_max=None):
    """P_t(y -> x) with a rigorous truncation bound: (probability, tail_bound)."""
    dist = oracle_distribution(y, t, params, s_max)
    return dist.probability(x), dist.tail_bound


def particle_count_distribution(y, t, params: ModelParams, s_max=None):
    """P(|X_t| = n | X_0 = y) for all n, as an array indexed by n."""
    dist = oracle_distribution(y, t, params, s_max)
    pc = _popcounts(len(dist.probs), dist.s_max)
    out = np.zeros(dist.s_max + 1)
    for n in range(dist.s_max + 1):
        out[n] = dist.probs[pc == n].sum()
    return out, dist.tail_bound


def conditional_event_probability(dist: OracleDistribution, n, labels, thresholds):
    """P(X_t(p_k) > a_k for all k | |X_t| = n) from an oracle distribution.

    X_t(k) is the k-th largest occupied site.  Enumerates the n-particle
    configurations directly (cheap for desk-scale n).
    """
    labels = list(labels)
    thresholds = list(thresholds)
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
    """Final-state counts of a batch of trajectories, with standard errors."""

    def __init__(self, counts, n_traj, t, params, source, seed):
        self.counts = counts  # dict: bitmask -> count
        self.n_traj = n_traj
        self.t = t
        self.params = params
        self.source = source
        self.seed = seed

    def probability(self, config):
        return self.counts.get(config_to_mask(as_config(config)), 0) / self.n_traj

    def stderr(self, config):
        p = self.probability(config)
        return math.sqrt(max(p * (1.0 - p), 1.0 / self.n_traj) / self.n_traj)

    def to_json(self, min_count=1):
        entries = [
            {
                "config": list(mask_to_config(m)),
                "p": c / self.n_traj,
                "stderr": self.stderr(mask_to_config(m)),
            }
            for m, c in sorted(self.counts.items(), key=lambda kv: -kv[1])
            if c >= min_count
        ]
        return json.dumps(
            {
                "t": self.t,
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


def simulate(y, t, params: ModelParams, n_traj, seed, batch=None):
    """Gillespie simulation of n_traj trajectories up to time t.

    Vectorized synchronous stepping; the two uniforms that trajectory g
    consumes in its r-th step are draws 2g and 2g+1 of the Philox stream
    keyed by seed with counter (0, 0, 0, r), so results are bit-identical for
    a fixed seed regardless of batching.  Particles live on sites
    1.._SIM_SITES; an initial site beyond that is refused.
    """
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
        occ = np.zeros((nb, _SIM_SITES), dtype=bool)
        for s in y:
            occ[:, s - 1] = True
        times = np.zeros(nb)
        active = np.ones(nb, dtype=bool)
        rnd = 0
        while np.any(active):
            # each Philox counter value yields four draws, two trajectories
            gen = np.random.Generator(
                np.random.Philox(key=seed, counter=[done // 2, 0, 0, rnd])
            )
            skip = 2 * (done % 2)
            u = gen.random(2 * nb + skip)[skip:].reshape(nb, 2)
            rnd += 1

            right = occ[:, :-1] & ~occ[:, 1:]
            left = occ[:, 1:] & ~occ[:, :-1]
            nr = right.sum(axis=1).astype(float)
            nl = left.sum(axis=1).astype(float)
            r_inj = np.where(~occ[:, 0], alpha, 0.0)
            r_out = np.where(occ[:, 0], gamma, 0.0)
            rate = nr + q * nl + r_inj + r_out

            with np.errstate(divide="ignore"):
                dt = np.where(rate > 0, -np.log1p(-u[:, 0]) / np.maximum(rate, 1e-300), np.inf)
            newt = times + dt
            fire = active & (newt <= t)
            active = active & (newt <= t)
            times = np.where(fire, newt, times)
            if not np.any(fire):
                break

            xi = u[:, 1] * rate
            is_right = fire & (xi < nr)
            is_left = fire & ~is_right & (xi < nr + q * nl)
            is_inj = fire & ~is_right & ~is_left & (xi < nr + q * nl + r_inj)
            is_out = fire & ~is_right & ~is_left & ~is_inj

            if np.any(is_right):
                k = np.floor(xi[is_right]).astype(int)  # k-th movable particle
                rows = np.nonzero(is_right)[0]
                cs = np.cumsum(right[rows], axis=1)
                pos = np.argmax((cs == (k + 1)[:, None]) & right[rows], axis=1)
                occ[rows, pos] = False
                occ[rows, pos + 1] = True
            if np.any(is_left):
                k = np.floor((xi[is_left] - nr[is_left]) / q).astype(int)
                rows = np.nonzero(is_left)[0]
                cs = np.cumsum(left[rows], axis=1)
                pos = np.argmax((cs == (k + 1)[:, None]) & left[rows], axis=1)
                occ[rows, pos + 1] = False
                occ[rows, pos] = True
            if np.any(is_inj):
                occ[np.nonzero(is_inj)[0], 0] = True
            if np.any(is_out):
                occ[np.nonzero(is_out)[0], 0] = False

        powers = (np.uint64(1) << np.arange(_SIM_SITES, dtype=np.uint64))
        masks = (occ.astype(np.uint64) * powers).sum(axis=1)
        vals, cnts = np.unique(masks, return_counts=True)
        for m, c in zip(vals.tolist(), cnts.tolist()):
            counts[int(m)] = counts.get(int(m), 0) + int(c)
        done += nb
    return EmpiricalDistribution(counts, n_traj, t, params, y, seed)
