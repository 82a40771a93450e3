"""The library names that the benchmark's span tracer (bench/spans.py) wraps.

The tracer patches these names from outside the library, so renaming or
deleting one must fail here rather than in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

from hsep.kernels import KernelTable, ModelParams, table_for

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
