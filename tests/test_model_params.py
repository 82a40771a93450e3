"""ModelParams validation and the time rule: every evaluator that takes both a
time t and params evaluates at params.at(t), so t wins over params.t."""

import math

import numpy as np
import pytest

from hsep.asep_integral import asep_transition_batch, asep_transition_probability
from hsep.conditional import conditional_distribution
from hsep.kernels import ModelParams
from hsep.markov_oracle import (
    oracle_distribution,
    particle_count_distribution,
    simulate,
    transition_probability_exact,
)
from hsep.tasep_formulas import (
    boundary_current_probability,
    gt_pattern_sum,
    joint_distribution,
    tasep_transition_probability,
)

P = ModelParams(alpha=0.5, t=1.0)
PQ = ModelParams(q=0.3, alpha=0.5, t=1.0)

# name -> (params with t = 1, call(t, params))
EVALUATORS = {
    "tasep_transition_probability": (P, lambda t, p: tasep_transition_probability((), (3, 1), t, p)),
    "joint_distribution": (P, lambda t, p: joint_distribution((), (3, 1), t, p)),
    "boundary_current_probability": (P, lambda t, p: boundary_current_probability(2, (), t, p)),
    "gt_pattern_sum": (P, lambda t, p: gt_pattern_sum((3, 1), (), t, p)),
    "conditional_distribution": (P, lambda t, p: conditional_distribution((2,), (1,), 2, 0, (), t, p)),
    "asep_transition_batch": (PQ, lambda t, p: asep_transition_batch((), 1, [(1,), (2,)], t, p)),
    "asep_transition_probability": (PQ, lambda t, p: asep_transition_probability((), (1,), t, p)),
    "oracle_distribution": (P, lambda t, p: oracle_distribution((2,), t, p, 10)),
    "transition_probability_exact": (P, lambda t, p: transition_probability_exact((2,), (3, 1), t, p, 10)),
    "particle_count_distribution": (P, lambda t, p: particle_count_distribution((2,), t, p, 10)),
    "simulate": (P, lambda t, p: simulate((2,), t, p, 200, seed=7)),
}


def _canon(result):
    """A comparable form of any evaluator's result."""
    if hasattr(result, "probs"):
        return result.params, result.probs.tolist(), result.tail_bound
    if hasattr(result, "counts"):
        return result.params, result.counts
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, tuple):
        return tuple(_canon(r) for r in result)
    return result


class TestModelParams:
    @pytest.mark.parametrize("field", ["q", "alpha", "gamma", "t"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_refuses_negative_and_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ModelParams(**{field: value})

    def test_at(self):
        assert P.at(1.0) is P
        assert P.at(2.0) == ModelParams(alpha=0.5, t=2.0)
        with pytest.raises(ValueError):
            P.at(math.nan)


class TestTimeRule:
    @pytest.mark.parametrize("name", EVALUATORS)
    def test_argument_time_wins(self, name):
        params, call = EVALUATORS[name]
        assert _canon(call(2.0, params)) == _canon(call(2.0, params.at(2.0)))

    @pytest.mark.parametrize("name", EVALUATORS)
    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_bad_time_refused(self, name, t):
        params, call = EVALUATORS[name]
        with pytest.raises(ValueError):
            call(t, params)

    def test_values_at_the_argument_time(self):
        # t = 2 values; each evaluator once read t = 1 from params here
        assert joint_distribution((), (3, 1), 2.0, P) == pytest.approx(0.07625, abs=1e-5)
        assert boundary_current_probability(2, (), 2.0, P) == pytest.approx(0.1237, abs=1e-4)
        pfaffian = tasep_transition_probability((), (3, 1), 2.0, P)
        assert gt_pattern_sum((3, 1), (), 2.0, P)[0] == pytest.approx(pfaffian, abs=1e-12)
        assert pfaffian == pytest.approx(0.029976, abs=1e-6)
