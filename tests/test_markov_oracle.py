"""Uniformization oracle and the Gillespie simulator."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from hsep.kernels import ModelParams, kernel_p
from hsep.markov_oracle import (
    as_config,
    config_to_mask,
    generator_row,
    mask_to_config,
    oracle_distribution,
    particle_count_distribution,
    simulate,
    transition_probability_exact,
)


class TestConfigs:
    def test_roundtrip(self):
        for cfg in ((), (1,), (5, 3, 1), (8, 7)):
            assert mask_to_config(config_to_mask(cfg)) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            as_config((3, 3))
        with pytest.raises(ValueError):
            as_config((2, 0))
        with pytest.raises(ValueError):
            as_config((1, 2))


class TestGeneratorRow:
    def test_empty_configuration(self):
        p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=1.0)
        targets, diag, escape = generator_row((), p)
        assert targets == [((1,), 0.7)]
        assert diag == -0.7
        assert escape == 0.0

    def test_boundary_blocked(self):
        p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=1.0)
        targets, diag, _ = generator_row((1,), p)
        assert targets == [((2,), 1.0)]
        assert diag == -1.0

    def test_bulk_rules(self):
        p = ModelParams(q=0.5, alpha=0.0, gamma=0.0, t=1.0)
        targets, diag, _ = generator_row((3, 1), p)
        assert sorted(targets) == [((2, 1), 0.5), ((3, 2), 1.0), ((4, 1), 1.0)]
        assert diag == -2.5

    def test_escape_accounting(self):
        p = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=1.0)
        targets, diag, escape = generator_row((4,), p, s_max=4)
        assert targets == []
        assert escape == 1.0
        assert diag == -1.0

    def test_row_sums_nonpositive(self):
        p = ModelParams(q=0.3, alpha=0.6, gamma=0.2, t=1.0)
        for cfg in ((), (1,), (4, 2), (5, 4, 1)):
            targets, diag, escape = generator_row(cfg, p, s_max=5)
            assert sum(r for _, r in targets) + diag + escape == pytest.approx(0.0)


class TestUniformization:
    def test_empty_stays_empty(self):
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
        prob, tail = transition_probability_exact((), (), 1.0, p, s_max=14)
        assert abs(prob - math.exp(-0.5)) < 1e-12
        assert tail < 1e-10

    def test_single_particle_frozen(self):
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
        prob, _ = transition_probability_exact((4,), (4,), 1.0, p, s_max=15)
        assert abs(prob - math.exp(-1.5)) < 1e-11

    def test_single_particle_pfaffian_reference(self):
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
        dist = oracle_distribution((), 1.0, p, s_max=16)
        for x in (1, 2, 4):
            formula = p.alpha * math.exp(-0.5) * kernel_p(1, x, p)
            assert abs(dist.probability((x,)) - formula) < 1e-11

    def test_cutoff_stability(self):
        p = ModelParams(q=0.4, alpha=0.8, gamma=0.1, t=0.8)
        d1 = oracle_distribution((3, 1), 0.8, p, s_max=16)
        d2 = oracle_distribution((3, 1), 0.8, p, s_max=18)
        assert d1.tail_bound < 1e-12
        for cfg in ((), (2, 1), (4, 2), (5, 3, 1)):
            assert abs(d1.probability(cfg) - d2.probability(cfg)) < 1e-11

    def test_mass_accounting(self):
        p = ModelParams(q=0.3, alpha=0.9, gamma=0.2, t=1.0)
        dist = oracle_distribution((2,), 1.0, p, s_max=14)
        assert np.all(dist.probs >= -1e-15)
        assert dist.probs.sum() <= 1.0 + 1e-12
        assert 1.0 - dist.probs.sum() <= dist.tail_bound

    @pytest.mark.parametrize("poisson_tol", [1e-13, 1e-6])
    def test_matches_dense_expm_within_tail_bound(self, poisson_tol):
        # the same truncated chain, built state by state from generator_row
        from scipy.linalg import expm

        s_max, t = 8, 2.0
        p = ModelParams(q=0.3, alpha=0.9, gamma=0.2, t=t)
        qt = np.zeros((1 << s_max, 1 << s_max))
        for m in range(1 << s_max):
            targets, qt[m, m], _ = generator_row(mask_to_config(m), p, s_max=s_max)
            for cfg, rate in targets:
                qt[config_to_mask(cfg), m] += rate
        propagator = expm(t * qt)
        for y in ((), (3, 1), (6, 4, 2)):
            dist = oracle_distribution(y, t, p, s_max=s_max, poisson_tol=poisson_tol)
            err = np.abs(dist.probs - propagator[:, config_to_mask(y)]).max()
            assert err <= dist.tail_bound

    def test_lambda_is_box_maximum_of_exit_rate(self):
        from hsep.markov_oracle import _max_exit_rate

        # every box state's moves from generator_row, counted by kind through
        # their distinct rates: (right moves + escape, left moves, injection, exit)
        tagged = ModelParams(q=2.0, alpha=3.0, gamma=5.0, t=1.0)
        for s_max in range(1, 13):
            counts = []
            for m in range(1 << s_max):
                targets, _, escape = generator_row(mask_to_config(m), tagged, s_max=s_max)
                rates = [r for _, r in targets]
                counts.append([rates.count(1.0) + escape] + [rates.count(r) for r in (2.0, 3.0, 5.0)])
            counts = np.array(counts)
            for q, alpha, gamma in itertools.product((0.0, 0.3, 1.0, 2.5), (0.0, 0.2, 1.6, 5.0), (0.0, 0.2, 3.0)):
                brute = (counts @ np.array([1.0, q, alpha, gamma])).max()
                assert _max_exit_rate(s_max, q, alpha, gamma) == pytest.approx(brute, rel=1e-15, abs=0)

    def test_window_is_the_site_sum_band(self):
        from hsep.markov_oracle import _window

        for s_max in (1, 5, 9):
            sums = [sum(mask_to_config(m)) for m in range(1 << s_max)]
            for lo, hi in ((-3, 0), (0, 4), (2, 7), (5, 5), (-10, 100), (6, 2)):
                band = [m for m, x in enumerate(sums) if lo <= x <= hi]
                assert _window(s_max, lo, hi).tolist() == band

    @pytest.mark.parametrize("s_max", [8, 10])
    @pytest.mark.parametrize("q", [0.0, 0.3])
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_window_matches_full_box_uniformization(self, s_max, q, gamma):
        # the same Poisson sum with the same Lambda, propagated on all
        # 2^s_max states
        from hsep.markov_oracle import _max_exit_rate

        p = ModelParams(q=q, alpha=0.9, gamma=gamma, t=1.0)
        qt = np.zeros((1 << s_max, 1 << s_max))
        for m in range(1 << s_max):
            targets, qt[m, m], _ = generator_row(mask_to_config(m), p, s_max=s_max)
            for cfg, rate in targets:
                qt[config_to_mask(cfg), m] += rate
        lam = _max_exit_rate(s_max, q, p.alpha, gamma)
        # a loose poisson_tol leaves mass at the window's rim that a too
        # narrow window would lose
        for y, t, tol in itertools.product(((), (3, 1), (6, 4, 2)), (0.4, 2.0), (1e-13, 1e-6)):
            mu = lam * t
            v = np.zeros(1 << s_max)
            v[config_to_mask(y)] = 1.0
            logw = -mu
            w = kept = math.exp(logw)
            out = w * v
            n = 0
            while kept < 1.0 - tol and (n < mu or w > 0.0):
                n += 1
                logw += math.log(mu) - math.log(n)
                w = math.exp(logw)
                v = v + qt @ v / lam
                out += w * v
                kept += w
            dist = oracle_distribution(y, t, p, s_max=s_max, poisson_tol=tol)
            assert np.abs(dist.probs - out).max() <= 1e-15
            assert abs(dist.tail_bound - (max(0.0, 1.0 - out.sum()) + tol)) <= 1e-15

    def test_count_distribution(self):
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
        counts, _ = particle_count_distribution((), 1.0, p, s_max=15)
        assert abs(counts[0] - math.exp(-0.5)) < 1e-12
        assert abs(counts.sum() - 1.0) < 1e-10
        # with left moves and exits: the table's mass summed by particle number
        p = ModelParams(q=0.3, alpha=0.9, gamma=0.2, t=1.0)
        counts, tail = particle_count_distribution((4, 2), 1.0, p, s_max=12)
        dist = oracle_distribution((4, 2), 1.0, p, s_max=12)
        by_n = np.zeros(13)
        for m, prob in enumerate(dist.probs):
            by_n[len(mask_to_config(m))] += prob
        assert len(counts) == 13
        assert np.abs(counts - by_n).max() <= 1e-15
        assert tail == dist.tail_bound

    def test_box_is_capped_at_24_sites(self):
        # the oracle enumerates 2^s_max masks, so it refuses a box past 24
        # sites, and a cutoff below the initial configuration
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
        with pytest.raises(ValueError, match="S_max must be in"):
            oracle_distribution((30,), 1.0, p)
        for s_max in (0, 25):
            with pytest.raises(ValueError, match="S_max must be in"):
                oracle_distribution((), 1.0, p, s_max=s_max)
        with pytest.raises(ValueError, match="exceeds the lattice cutoff"):
            oracle_distribution((9, 2), 1.0, p, s_max=8)
        assert oracle_distribution((), 0.1, p, s_max=1).probability(()) > 0.0

    def test_serialization(self):
        import json

        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=0.5)
        payload = json.loads(oracle_distribution((), 0.5, p, s_max=10).to_json())
        assert payload["tail_bound"] < 1e-9
        assert payload["entries"][0]["config"] == []


class TestWindowReuse:
    """The last window generator is reused by calls at the same cutoff and
    rates whose site-sum band it holds."""

    @staticmethod
    def _count_builds(monkeypatch):
        from hsep import markov_oracle as mo

        monkeypatch.setattr(mo, "_last_window", None)
        builds = []  # (s_max, q, alpha, gamma) of each generator built
        build = mo._window_generator

        def counted(masks, *key):
            builds.append(key)
            return build(masks, *key)

        monkeypatch.setattr(mo, "_window_generator", counted)
        return builds

    def test_values_do_not_depend_on_call_history(self, monkeypatch):
        from hsep import markov_oracle as mo

        # (s_max, q, alpha, gamma, y, t, poisson_tol), each against a cold
        # build; each change of a key field lowers Lambda, so the band shrinks
        # and only the key tells the calls apart
        calls = [
            (10, 0.3, 0.9, 0.2, (4, 2, 1), 1.0, 1e-13),
            (10, 0.3, 0.9, 0.2, (3, 1), 0.4, 1e-13),  # contained band, another t
            (10, 0.3, 0.9, 0.2, (9, 8, 7), 1.0, 1e-13),  # wider band
            (10, 0.3, 0.9, 0.2, (2,), 1.0, 1e-6),  # mass on the rim
            (9, 0.3, 0.9, 0.2, (4, 2, 1), 1.0, 1e-13),  # s_max
            (9, 0.0, 0.9, 0.2, (4, 2, 1), 1.0, 1e-13),  # q
            (9, 0.0, 0.5, 0.2, (4, 2, 1), 1.0, 1e-13),  # alpha
            (9, 0.0, 0.5, 0.0, (4, 2, 1), 1.0, 1e-13),  # gamma
            (9, 0.0, 0.5, 0.0, (), 0.7, 1e-6),
        ]

        def run(s_max, q, alpha, gamma, y, t, tol):
            p = ModelParams(q=q, alpha=alpha, gamma=gamma, t=t)
            return oracle_distribution(y, t, p, s_max=s_max, poisson_tol=tol)

        builds = self._count_builds(monkeypatch)
        warm = [run(*c) for c in calls]
        assert len(builds) == 6  # calls 2, 4 and 9 reuse the last generator
        for c, dist in zip(calls, warm):
            mo._last_window = None
            cold = run(*c)
            assert np.array_equal(dist.probs, cold.probs)
            assert dist.tail_bound == cold.tail_bound

    def test_one_generator_is_kept(self):
        import gc
        import tracemalloc
        import weakref

        from hsep import markov_oracle as mo

        oracle_distribution((3, 1), 2.0, ModelParams(q=0.3, alpha=0.2, gamma=0.2, t=2.0), s_max=9)
        first = weakref.ref(mo._last_window[4])
        oracle_distribution((3, 1), 2.0, ModelParams(q=0.3, alpha=0.3, gamma=0.2, t=2.0), s_max=9)
        assert first() is None
        # every band at s_max = 9 and t = 2 is the whole box: 512 states and
        # a generator of about 46 kB, which a second entry would add
        sizes = []
        tracemalloc.start()
        try:
            for k in range(50):
                p = ModelParams(q=0.3, alpha=0.4 + 0.02 * k, gamma=0.2, t=2.0)
                oracle_distribution((3, 1), 2.0, p, s_max=9)
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert max(sizes) - sizes[0] <= 32 * 1024

    def test_one_build_for_the_small_subsets(self, monkeypatch):
        # (3, 2, 1) has the largest site sum of the subsets of {1, 2, 3}, so
        # its band holds the bands of the other seven
        builds = self._count_builds(monkeypatch)
        p = ModelParams(q=0.3, alpha=0.9, gamma=0.2, t=0.4)
        for y in ((3, 2, 1), (), (1,), (2,), (3,), (2, 1), (3, 1), (3, 2)):
            oracle_distribution(y, 0.4, p, s_max=13)
        assert len(builds) == 1
        oracle_distribution((), 0.3, p, s_max=13)  # t is no part of the key
        assert len(builds) == 1
        for s_max, q, alpha, gamma in ((12, 0.3, 0.9, 0.2), (12, 0.0, 0.9, 0.2),
                                       (12, 0.0, 0.5, 0.2), (12, 0.0, 0.5, 0.0)):
            oracle_distribution((), 0.4, ModelParams(q=q, alpha=alpha, gamma=gamma, t=0.4), s_max=s_max)
            assert builds[-1] == (s_max, q, alpha, gamma)
        assert len(builds) == 5


class TestSimulator:
    def test_alpha_zero_stays_put(self):
        p = ModelParams(q=0.0, alpha=0.0, gamma=0.0, t=1.0)
        emp = simulate((), 1.0, p, 500, seed=1)
        assert emp.probability(()) == 1.0

    def test_empty_probability_within_4_sigma(self):
        p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=1.0)
        emp = simulate((), 1.0, p, 200_000, seed=7)
        exact = math.exp(-0.7)
        assert abs(emp.probability(()) - exact) <= 4.0 * emp.stderr(())

    def test_bit_identical_reproducibility(self):
        p = ModelParams(q=0.2, alpha=0.7, gamma=0.3, t=0.8)
        a = simulate((2, 1), 0.8, p, 30_000, seed=42)
        b = simulate((2, 1), 0.8, p, 30_000, seed=42)
        assert a.counts == b.counts
        c = simulate((2, 1), 0.8, p, 30_000, seed=43)
        assert a.counts != c.counts

    def test_pinned_counts(self):
        # counts of this run as computed before the final masks were packed
        # with np.packbits; they must stay bit-identical
        p = ModelParams(q=0.2, alpha=0.7, gamma=0.3, t=0.8)
        emp = simulate((2, 1), 0.8, p, 400, seed=42)
        assert sorted(emp.counts.items()) == [
            (1, 3), (2, 29), (3, 149), (4, 19), (5, 96), (6, 23), (7, 8), (8, 7), (9, 17),
            (10, 23), (11, 2), (12, 2), (13, 1), (14, 1), (16, 6), (17, 5), (18, 2), (19, 3),
            (24, 1), (33, 3),
        ]

    def test_pinned_counts_many_particles(self):
        # up to five particles; the run makes 9,445 right moves (5,371 of them
        # by a particle other than the lowest movable one), 3,181 left moves
        # (1,270), 1,389 injections and 554 exits.  The digest pins the counts
        # that a boolean site-lattice implementation of the same draws gave.
        p = ModelParams(q=0.5, alpha=1.2, gamma=0.2, t=2.0)
        for batch in (None, 333):
            counts = sorted(simulate((5, 3, 1), 2.0, p, 2000, seed=9, batch=batch).counts.items())
            assert len(counts) == 206
            assert sorted(counts, key=lambda kv: -kv[1])[:3] == [(15, 78), (23, 64), (27, 64)]
            digest = hashlib.sha256(repr(counts).encode()).hexdigest()
            assert digest == "176e5838a1c4f060ad4f9c7b706b696fb1d83b03124ce4f94f2181259b713351"

    def test_counts_independent_of_batching(self):
        p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=1.0)
        whole = simulate((), 1.0, p, 2_000, seed=7)
        for batch in (500, 333):
            assert simulate((), 1.0, p, 2_000, seed=7, batch=batch).counts == whole.counts

    def test_matches_oracle_with_gamma(self):
        p = ModelParams(q=0.3, alpha=0.7, gamma=0.4, t=1.0)
        emp = simulate((2, 1), 1.0, p, 120_000, seed=3)
        dist = oracle_distribution((2, 1), 1.0, p, s_max=13)
        for cfg in ((), (1,), (2,), (2, 1), (3, 1), (3, 2, 1)):
            z = abs(emp.probability(cfg) - dist.probability(cfg)) / emp.stderr(cfg)
            assert z < 4.5

    def test_serialization(self):
        import json

        p = ModelParams(q=0.0, alpha=0.7, gamma=0.0, t=0.5)
        emp = simulate((), 0.5, p, 2_000, seed=5)
        payload = json.loads(emp.to_json())
        assert payload["n_traj"] == 2000
        assert all("stderr" in e for e in payload["entries"])
