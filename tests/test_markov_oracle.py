"""Uniformization oracle and the Gillespie simulator."""

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
    TruncatedStateSpace,
)


class TestConfigs:
    def test_roundtrip(self):
        space = TruncatedStateSpace(8)
        for cfg in ((), (1,), (5, 3, 1), (8, 7)):
            assert mask_to_config(config_to_mask(cfg)) == cfg
            assert space.config(space.index(cfg)) == cfg

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
            formula = p.alpha * math.exp(-0.5) * kernel_p(1, x, p).real
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

    def test_count_distribution(self):
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0)
        counts, _ = particle_count_distribution((), 1.0, p, s_max=15)
        assert abs(counts[0] - math.exp(-0.5)) < 1e-12
        assert abs(counts.sum() - 1.0) < 1e-10

    def test_serialization(self):
        import json

        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=0.5)
        payload = json.loads(oracle_distribution((), 0.5, p, s_max=10).to_json())
        assert payload["tail_bound"] < 1e-9
        assert payload["entries"][0]["config"] == []


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
