"""Span tracing of the hsep layers, installed from outside the library.

``Tracer.install()`` replaces the public functions of each layer module with
wrappers that record one span (name, start, end, parent) per call, and
rebinds every name under which an ``hsep`` module imported them, so calls
between modules are seen too.  Spans stay in flat arrays in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its child spans.

The kernel wrappers also count the growth of ``table_for(params).memo``
around each call: a call that adds no entry was served from the memo.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer modules and the public functions wrapped in each.  Trivial helpers
# (as_config, config_to_mask, phi_conv, ...) are left out: they do no layer
# work and a span around them would only add overhead.
LAYERS = {
    "hsep.kernels": (
        "kernel_Q", "kernel_p", "kernel_U", "kernel_Xi", "kernel_Xi_upper",
        "kernel_Xi_virtual",
    ),
    "hsep.numerics": (
        "residue_at", "circle_quadrature", "default_nested_contours",
        "validate_nested_contours",
    ),
    "hsep.pfaffian": ("pfaffian", "skew_borel", "skew_borel_explicit_inverse"),
    "hsep.tasep_formulas": (
        "tasep_transition_probability", "joint_distribution",
        "boundary_current_probability", "gt_pattern_sum", "w_measure",
    ),
    "hsep.conditional": (
        "moment_matrix", "virtual_pairing_matrix", "build_skew_biorthogonal",
        "conditional_kernel", "conditional_distribution", "ConditionalKernel.block",
    ),
    "hsep.asep_integral": (
        "eval_F", "eval_F_alternative", "eval_F_pfaffian_limit",
        "asep_transition_batch", "asep_transition_probability",
    ),
    "hsep.markov_oracle": (
        "oracle_distribution", "transition_probability_exact",
        "particle_count_distribution", "conditional_event_probability", "simulate",
    ),
}

TASEP_FORMULAS = ("tasep_transition_probability", "joint_distribution", "boundary_current_probability")
CONTOUR_FUNCTIONS = ("default_nested_contours", "validate_nested_contours")
START_NODES = 48  # asep_transition_batch's default first node count
RICHARDSON_NODES = 96
RICHARDSON_LEGS = 4


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.memo = [0, 0]  # memo entries added, calls that added none
        self.asep = []  # (path, n, final nodes, max_imag, seconds)
        self.oracle = []  # (states, tail_bound)
        self.trajectories = 0
        self.tables_before = 0

    def _nid(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    # -- recording ------------------------------------------------------------

    def begin(self, name):
        idx = len(self.span_name)
        self.span_name.append(self._nid(name))
        self.span_parent.append(self.stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, after=None, memo_of=None):
        nid = self._nid(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        memo = self.memo
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            table = memo_of(args, kwargs) if memo_of is not None else None
            before = len(table) if table is not None else 0
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if table is not None:
                grew = len(table) - before
                memo[0] += grew
                memo[1] += grew == 0
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation ---------------------------------------------------------

    def install(self):
        from hsep import kernels

        table_for = kernels.table_for
        self.table_for = table_for
        self.tables_before = table_for.cache_info().misses

        def memo_of(args, kwargs):
            return table_for(kwargs["params"] if "params" in kwargs else args[-1]).memo

        after = {
            "asep_transition_batch": self._after_asep,
            "oracle_distribution": self._after_oracle,
            "simulate": self._after_simulate,
        }
        hsep_modules = [m for n, m in sys.modules.items() if n == "hsep" or n.startswith("hsep.")]
        for modname, functions in LAYERS.items():
            module = sys.modules[modname]
            for qual in functions:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(getattr(cls, meth), qual))
                    continue
                orig = getattr(module, qual)
                wrapped = self._wrap(
                    orig, qual, after=after.get(qual),
                    memo_of=memo_of if modname == "hsep.kernels" else None,
                )
                for m in hsep_modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
        return self

    def _after_asep(self, args, kwargs, result, seconds):
        n = args[1] if len(args) > 1 else kwargs["n"]
        diag = result[1]
        path = "richardson" if diag.get("q_extrapolated") else "doubling"
        self.asep.append((path, n, int(diag["nodes"]), float(diag["max_imag"]), seconds))

    def _after_oracle(self, args, kwargs, result, seconds):
        self.oracle.append((len(result.probs), float(result.tail_bound)))

    def _after_simulate(self, args, kwargs, result, seconds):
        self.trajectories += result.n_traj

    # -- results --------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_layer(self, rounds):
        """The per-layer metrics, as means per round where they are sums."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - children
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(*names):
            wanted = [ids[n] for n in names if n in ids]
            return np.isin(a["name"], wanted)

        def count(*names):
            return int(mask(*names).sum())

        def self_s(*names):
            return float(own[mask(*names)].sum())

        kernel_names = LAYERS["hsep.kernels"]
        calls = count(*kernel_names)
        gt_spans = np.nonzero(mask("gt_pattern_sum"))[0]
        patterns = int(np.isin(a["parent"][mask("pfaffian")], gt_spans).sum())
        grid = 0
        doubling = richardson = 0.0
        for path, n, nodes, _, seconds in self.asep:
            if path == "richardson":
                grid += RICHARDSON_LEGS * RICHARDSON_NODES**n
                richardson += seconds
            else:
                m = START_NODES
                while m <= nodes:
                    grid += m**n
                    m *= 2
                doubling += seconds
        sim_s = float(dur[mask("simulate")].sum())
        r = max(rounds, 1)
        return {
            "kernels.calls": calls / r,
            "kernels.self_s": self_s(*kernel_names) / r,
            "kernels.q_self_s": self_s("kernel_Q") / r,
            "kernels.memo_misses": self.memo[0] / r,
            "kernels.hit_ratio": self.memo[1] / calls if calls else 0.0,
            "kernels.tables_built": (self.table_for.cache_info().misses - self.tables_before) / r,
            "numerics.residue_calls": count("residue_at") / r,
            "numerics.residue_self_s": self_s("residue_at") / r,
            "numerics.contour_self_s": self_s(*CONTOUR_FUNCTIONS) / r,
            "pfaffian.calls": count("pfaffian") / r,
            "pfaffian.self_s": self_s("pfaffian") / r,
            "pfaffian.skew_borel_self_s": self_s("skew_borel") / r,
            "tasep.formula_self_s": self_s(*TASEP_FORMULAS) / r,
            "gt.patterns": patterns / r,
            "gt.self_s": self_s("gt_pattern_sum") / r,
            "conditional.blocks": count("ConditionalKernel.block") / r,
            "conditional.self_s": self_s(*LAYERS["hsep.conditional"]) / r,
            "asep.doubling_s": doubling / r,
            "asep.richardson_s": richardson / r,
            "asep.final_nodes": sum(x[2] for x in self.asep) / r,
            "asep.grid_points": grid / r,
            "asep.max_imag": max((x[3] for x in self.asep), default=0.0),
            "oracle.uniformization_s": float(dur[mask("oracle_distribution")].sum()) / r,
            "oracle.states": sum(x[0] for x in self.oracle) / r,
            "oracle.max_tail_bound": max((x[1] for x in self.oracle), default=0.0),
            "mc.simulate_s": sim_s / r,
            "mc.trajectories_per_s": self.trajectories / sim_s if sim_s else 0.0,
        }
