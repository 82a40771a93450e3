"""Independent reference for the benchmark checks.

The half-line exclusion process (right rate 1, left rate q, injection alpha
at site 1 when empty, exit gamma from site 1 when occupied) is truncated to
sites 1..s_max and to at most n_cap particles, and evolved with the action
of the matrix exponential, ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 2011).  Nothing here imports ``hsep``.

States are indexed by particle count and the colexicographic rank of the
ascending site tuple, so only the configurations the check needs exist.
Two absorbing states collect the mass the truncation removes:

* ESCAPE: a particle jumped past s_max.  This mass is reported as a bound.
* OVERFLOW: an injection would exceed n_cap particles.  At gamma = 0 the
  particle count never falls, so this mass never returns to a configuration
  with at most n_cap particles and every such probability is exact.  At
  gamma > 0 it can return, and the mass is added to the bound.

Every probability of the truncated chain is at most the true one, and the
shortfall is at most the bound.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply


def poisson_reach(t, tol=1e-13):
    """Smallest d with P(Poisson(t) >= d) <= tol.

    The right-most particle jumps right at rate at most 1, so with a cutoff d
    sites beyond it the chance of any escape is at most tol.
    """
    if t <= 0.0:
        return 1
    terms = [math.exp(-t)]
    k = 0
    while True:
        k += 1
        terms.append(terms[-1] * t / k)
        if k > t and terms[-1] < tol * 1e-3:
            break
    tail = 0.0
    for d in range(len(terms) - 1, -1, -1):
        tail += terms[d]
        if tail > tol:
            return d + 1


class Chain:
    """The truncated generator for one parameter set."""

    def __init__(self, q, alpha, gamma, s_max, n_cap):
        n_cap = min(n_cap, s_max)
        self.q, self.alpha, self.gamma = q, alpha, gamma
        self.s_max, self.n_cap = s_max, n_cap
        self._binom = np.array(
            [[math.comb(n, k) for k in range(n_cap + 2)] for n in range(s_max + 1)],
            dtype=np.int64,
        )
        self.offsets = [0]
        for k in range(n_cap + 1):
            self.offsets.append(self.offsets[-1] + math.comb(s_max, k))
        self.n_states = self.offsets[-1]
        self.escape = self.n_states
        self.overflow = self.n_states + 1
        # positions[k]: ascending site tuples with k particles, in index order
        self.positions = []
        for k in range(n_cap + 1):
            if k == 0:
                self.positions.append(np.zeros((1, 0), dtype=np.int64))
                continue
            combos = np.array(list(combinations(range(1, s_max + 1), k)), dtype=np.int64)
            order = np.argsort(self._rank(combos))
            self.positions.append(combos[order])
        self.generator = self._build()

    def _rank(self, pos):
        """Colex rank of ascending site rows (1-based sites)."""
        k = pos.shape[1]
        r = np.zeros(pos.shape[0], dtype=np.int64)
        for i in range(k):
            r += self._binom[pos[:, i] - 1, i + 1]
        return r

    def _index(self, pos):
        return self.offsets[pos.shape[1]] + self._rank(pos)

    def indices(self, configs):
        """State indices of ascending site tuples that all have one length."""
        pos = np.array(configs, dtype=np.int64).reshape(len(configs), -1)
        return self._index(pos)

    def index_of(self, config):
        """State index of a configuration given as sites in any order."""
        sites = sorted(int(s) for s in config)
        if len(sites) > self.n_cap or (sites and (sites[0] < 1 or sites[-1] > self.s_max)):
            raise ValueError(f"configuration {tuple(config)} is outside the truncation")
        return int(self._index(np.array([sites], dtype=np.int64).reshape(1, len(sites)))[0])

    def _build(self):
        rows, cols, vals = [], [], []
        total = np.zeros(self.n_states + 2)
        s_max, n_cap = self.s_max, self.n_cap

        def add(src, dst, rate):
            rows.append(dst)
            cols.append(src)
            vals.append(np.full(len(src), rate))
            total[src] += rate

        for k in range(n_cap + 1):
            pos = self.positions[k]
            src = self._index(pos) if k else np.array([0], dtype=np.int64)
            for i in range(k):
                # right jump of the i-th particle from the left
                nxt = pos[:, i + 1] if i + 1 < k else np.full(len(pos), s_max + 2)
                ok = nxt > pos[:, i] + 1
                esc = ok & (pos[:, i] == s_max)
                mv = ok & ~esc
                if esc.any():
                    add(src[esc], np.full(int(esc.sum()), self.escape), 1.0)
                if mv.any():
                    new = pos[mv].copy()
                    new[:, i] += 1
                    add(src[mv], self._index(new), 1.0)
                if self.q > 0.0:
                    prv = pos[:, i - 1] if i > 0 else np.zeros(len(pos), dtype=np.int64)
                    ok = (pos[:, i] >= 2) & (prv < pos[:, i] - 1)
                    if ok.any():
                        new = pos[ok].copy()
                        new[:, i] -= 1
                        add(src[ok], self._index(new), self.q)
            if self.alpha > 0.0:
                empty = pos[:, 0] > 1 if k else np.ones(1, dtype=bool)
                if empty.any():
                    if k + 1 > n_cap:
                        add(src[empty], np.full(int(empty.sum()), self.overflow), self.alpha)
                    else:
                        new = np.hstack([np.ones((int(empty.sum()), 1), dtype=np.int64), pos[empty]])
                        add(src[empty], self._index(new), self.alpha)
            if self.gamma > 0.0 and k:
                full = pos[:, 0] == 1
                if full.any():
                    add(src[full], self._index(pos[full][:, 1:]), self.gamma)
        size = self.n_states + 2
        rows.append(np.arange(size))
        cols.append(np.arange(size))
        vals.append(-total)
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )

    def evolve(self, sources, t):
        """Distributions at time t from each source configuration."""
        b = np.zeros((self.n_states + 2, len(sources)))
        for j, y in enumerate(sources):
            b[self.index_of(y), j] = 1.0
        probs = b if t == 0.0 else expm_multiply(t * self.generator, b)
        return Evolved(self, list(map(tuple, sources)), np.asarray(probs))


class Evolved:
    """Reference distributions of one chain at one time, one column per source."""

    def __init__(self, chain, sources, probs):
        self.chain = chain
        self.column = {y: j for j, y in enumerate(sources)}
        self.probs = probs

    def _col(self, y):
        return self.probs[:, self.column[tuple(y)]]

    def bound(self, y):
        """Mass the truncation removed from the source y's distribution."""
        col = self._col(y)
        out = col[self.chain.escape]
        if self.chain.gamma > 0.0:
            out += col[self.chain.overflow]
        return max(float(out), 0.0)

    def prob(self, y, x):
        return float(self._col(y)[self.chain.index_of(x)])

    def count_block(self, y, n):
        """(positions descending, probabilities) of every n-particle state."""
        pos = self.chain.positions[n]
        lo = self.chain.offsets[n]
        return pos[:, ::-1], self._col(y)[lo : lo + len(pos)]

    def count_prob(self, y, n):
        return float(self.count_block(y, n)[1].sum())

    def joint(self, y, s):
        """P(X_t(k) >= s_k for all k and |X_t| = len(s))."""
        pos, p = self.count_block(y, len(s))
        ok = np.all(pos >= np.asarray(s, dtype=np.int64), axis=1)
        return float(p[ok].sum())

    def conditional(self, y, n, labels, thresholds):
        """P(X_t(p_k) > a_k for all k | |X_t| = n)."""
        pos, p = self.count_block(y, n)
        ok = np.ones(len(p), dtype=bool)
        for lab, a in zip(labels, thresholds):
            ok &= pos[:, lab - 1] > a
        return float(p[ok].sum() / p.sum())


def self_test():
    """Worst deviations of the reference from closed forms; each must be tiny.

    * P_t(empty -> empty) = exp(-alpha t);
    * one particle at alpha = 0, q = 0 hops as a Poisson process;
    * all mass, the two absorbing states included, sums to 1.
    """
    worst = {}
    dev = 0.0
    for alpha, t in ((0.37, 1.3), (1.0, 2.9), (1.6, 0.4)):
        ev = Chain(0.0, alpha, 0.0, 12, 2).evolve([()], t)
        dev = max(dev, abs(ev.prob((), ()) - math.exp(-alpha * t)))
    worst["empty_survival"] = dev
    dev = 0.0
    for y, t in ((3, 0.8), (1, 2.5)):
        chain = Chain(0.0, 0.0, 0.0, y + poisson_reach(t), 1)
        ev = chain.evolve([(y,)], t)
        for x in range(y, chain.s_max + 1):
            law = math.exp(-t) * t ** (x - y) / math.factorial(x - y)
            dev = max(dev, abs(ev.prob((y,), (x,)) - law))
    worst["poisson_hop"] = dev
    dev = 0.0
    for q, alpha, gamma, cap in ((0.0, 0.8, 0.0, 3), (0.4, 1.2, 0.3, 4), (0.3, 0.5, 0.2, 10)):
        ev = Chain(q, alpha, gamma, 10, cap).evolve([(), (4, 2)], 1.7)
        dev = max(dev, float(np.max(np.abs(ev.probs.sum(axis=0) - 1.0))))
    worst["mass_conservation"] = dev
    return worst


if __name__ == "__main__":
    for name, value in self_test().items():
        print(f"{name}: {value:.3e}")
