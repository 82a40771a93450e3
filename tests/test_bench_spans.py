"""The library names that the benchmark's span tracer (bench/spans.py) wraps,
and the result fields that it and bench/workload.py read.

The benchmark reaches these names from outside the library, so renaming or
deleting one must fail here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from hsep.asep_integral import asep_transition_batch
from hsep.kernels import KernelTable, ModelParams, table_for
from hsep.markov_oracle import oracle_distribution, simulate

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS")


def test_traced_names_resolve():
    layers = _layers()
    assert layers
    for modname, names in layers.items():
        module = importlib.import_module(modname)
        for qual in names:
            obj = module
            for part in qual.split("."):
                assert hasattr(obj, part), f"{modname}.{qual} is gone"
                obj = getattr(obj, part)
            assert callable(obj), f"{modname}.{qual} is not callable"


def test_kernel_cache_hooks():
    assert table_for.cache_info().maxsize is not None
    table = KernelTable(ModelParams(alpha=0.5, t=1.0))
    table.q_kernel(1, 2, 3, 1)
    assert len(table.memo) > 0


def test_result_fields_read_by_the_benchmark():
    p = ModelParams(q=0.3, alpha=0.6, t=0.5)
    _, diag = asep_transition_batch((2,), 1, [(1,), (3,)], 0.5, p)
    assert int(diag["nodes"]) > 0 and float(diag["max_imag"]) >= 0.0
    assert not diag.get("q_extrapolated")
    # q = 0 with y = (1) not separated for N = 1: the Richardson path
    _, diag = asep_transition_batch((1,), 1, [(2,)], 0.5, ModelParams(alpha=0.6, t=0.5))
    assert diag["q_extrapolated"] is True
    assert int(diag["nodes"]) > 0 and float(diag["max_imag"]) >= 0.0
    dist = oracle_distribution((2,), 0.5, p, s_max=6)
    assert dist.s_max == 6 and len(dist.probs) == 2**6
    assert dist.probs[np.array([0, 2])].shape == (2,) and float(dist.tail_bound) >= 0.0
    emp = simulate((2,), 0.5, p, 100, 1)
    assert emp.n_traj == 100 and sum(dict(emp.counts).values()) == 100
