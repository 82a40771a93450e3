"""Batch command-line interface.

Subcommands evaluate any of the closed formulas, run the exact or Monte
Carlo oracles, or execute the verification suite; results are written as
JSON (default) or CSV with residual/tail-bound metadata alongside every
number.  Exit codes: 0 success, 2 argument errors, 3 precondition
violations, 4 numerical non-convergence (or a failing verify run).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import asep_integral as ai
from . import conditional as cond
from . import markov_oracle as orc
from . import tasep_formulas as tf
from .kernels import ModelParams
from .numerics import ContourValidationError, QuadratureError
from .verify import format_row, run_checks

SCHEMA = 1

EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _parse_config(text):
    if text is None or text.strip() == "":
        return ()
    try:
        sites = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse configuration {text!r}; use e.g. '5,3,1'")
    return orc.as_config(sites)


def _params(args):
    return ModelParams(
        q=getattr(args, "q", 0.0),
        alpha=args.alpha,
        gamma=getattr(args, "gamma", 0.0),
        t=args.t,
    )


def _emit(args, payload):
    payload = {"schema": SCHEMA, "timestamp": time.time(), **payload}
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=float)
    else:
        # nested payloads flatten one level into dotted keys
        flat = {}
        for k, v in payload.items():
            if isinstance(v, dict):
                flat.update((f"{k}.{kk}", vv) for kk, vv in v.items())
            else:
                flat[k] = v
        flat = {k: v for k, v in flat.items() if isinstance(v, (int, float, str, bool))}
        text = _csv([flat.keys(), flat.values()])
    _write(args, text)


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().rstrip("\n")


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_table(args, text, columns):
    """A to_json table as it is, or under --format csv one row per entry, in
    its order: config (the sites joined by spaces), then columns."""
    if args.format == "csv":
        rows = ([" ".join(map(str, e["config"])), *(e[c] for c in columns)]
                for e in json.loads(text)["entries"])
        text = _csv([["config", *columns], *rows])
    _write(args, text)


def _emit_with_oracle(args, payload, oracle):
    """_emit, adding under --oracle the oracle's value, tail bound and difference.

    oracle() returns (probability, tail_bound); it runs only under --oracle.
    """
    if args.oracle:
        prob, tail = oracle()
        payload.update(oracle=prob, oracle_tail_bound=tail, difference=abs(payload["value"] - prob))
    _emit(args, payload)


def _cmd_asep_prob(args):
    params = _params(args)
    params.require_exact()
    x = _parse_config(args.x)
    y = _parse_config(args.y)
    vals, diag = ai.asep_transition_batch(
        y, len(x), [x], args.t, params, nodes=args.nodes, tol=args.tol
    )
    value = vals[tuple(x)]
    payload = {
        "command": "asep-prob",
        "q": params.q,
        "alpha": params.alpha,
        "t": args.t,
        "y": list(y),
        "x": list(x),
        "value": value,
        "tol": args.tol,
        # nodes, max_imag and last_delta, the change between the last two
        # passes of the node ladder; q_extrapolated on the q -> 0 Richardson path
        "diagnostics": diag,
    }
    _emit_with_oracle(
        args, payload, lambda: orc.transition_probability_exact(y, x, args.t, params, args.s_max)
    )


def _cmd_tasep_prob(args):
    params = _params(args)
    x = _parse_config(args.x)
    y = _parse_config(args.y)
    value = tf.tasep_transition_probability(y, x, args.t, params)
    payload = {
        "command": "tasep-prob",
        "formula": "pfaffian",
        "alpha": params.alpha,
        "t": args.t,
        "y": list(y),
        "x": list(x),
        "value": value,
    }
    _emit_with_oracle(
        args, payload, lambda: orc.transition_probability_exact(y, x, args.t, params, args.s_max)
    )


def _cmd_joint(args):
    params = _params(args)
    s = _parse_config(args.s)
    y = _parse_config(args.y)
    value = tf.joint_distribution(y, s, args.t, params)
    _emit(
        args,
        {
            "command": "joint",
            "formula": "joint",
            "alpha": params.alpha,
            "t": args.t,
            "y": list(y),
            "s": list(s),
            "value": value,
        },
    )


def _cmd_current(args):
    params = _params(args)
    y = _parse_config(args.y)
    value = tf.boundary_current_probability(args.n, y, args.t, params)
    payload = {
        "command": "current",
        "formula": "current",
        "alpha": params.alpha,
        "t": args.t,
        "y": list(y),
        "n": args.n,
        "value": value,
    }

    def oracle():
        counts, tail = orc.particle_count_distribution(y, args.t, params, args.s_max)
        return (counts[args.n] if args.n < len(counts) else 0.0), tail

    _emit_with_oracle(args, payload, oracle)


def _cmd_gt_sum(args):
    params = _params(args)
    x = _parse_config(args.x)
    y = _parse_config(args.y)
    z_max = tf.suggest_z_max(x, args.t) if args.z_max is None else args.z_max
    value, remainder = tf.gt_pattern_sum(x, y, args.t, params, z_max=z_max, cap=args.cap)
    _emit(
        args,
        {
            "command": "gt-sum",
            "formula": "gt_sum",
            "alpha": params.alpha,
            "t": args.t,
            "y": list(y),
            "x": list(x),
            "value": value,
            "truncation_remainder": remainder,
            "z_max": z_max,
        },
    )


def _cmd_conditional(args):
    params = _params(args)
    y = _parse_config(args.y)
    labels = [int(v) for v in args.p.split(",")]
    thresholds = [int(v) for v in args.a.split(",")]
    value = cond.conditional_distribution(labels, thresholds, args.n, len(y), y, args.t, params)
    payload = {
        "command": "conditional",
        "conditional": {
            "p": labels,
            "a": thresholds,
            "N": args.n,
            "M": len(y),
            "value": value,
        },
    }
    if args.oracle:
        dist = orc.oracle_distribution(y, args.t, params, args.s_max)
        o, total = orc.conditional_event_probability(dist, args.n, labels, thresholds)
        # the escaped mass over the conditioning event's box mass bounds a conditional value
        payload["conditional"].update(
            oracle=o, oracle_tail_bound=dist.tail_bound / total, difference=abs(value - o)
        )
    _emit(args, payload)


def _cmd_oracle(args):
    params = _params(args)
    y = _parse_config(args.y)
    dist = orc.oracle_distribution(y, args.t, params, args.s_max)
    if args.x is not None:
        x = _parse_config(args.x)
        _emit(
            args,
            {
                "command": "oracle",
                "q": params.q,
                "alpha": params.alpha,
                "gamma": params.gamma,
                "t": args.t,
                "y": list(y),
                "x": list(x),
                "value": dist.probability(x),
                "tail_bound": dist.tail_bound,
                "s_max": dist.s_max,
            },
        )
    else:
        _write_table(args, dist.to_json(), ["p"])


def _cmd_simulate(args):
    params = _params(args)
    y = _parse_config(args.y)
    _write_table(args, orc.simulate(y, args.t, params, args.n, args.seed).to_json(), ["p", "stderr"])


def _cmd_verify(args):
    rows, passed = run_checks(level=args.level)
    for row in rows:
        print(format_row(row))
    print(f"{'ALL CHECKS PASS' if passed else 'CHECKS FAILED'} [level={args.level}]")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "schema": SCHEMA,
                    "command": "verify",
                    "level": args.level,
                    "passed": bool(passed),
                    "checks": [
                        {"name": n, "residual": r, "threshold": t, "passed": bool(ok)}
                        for n, r, t, ok in rows
                    ],
                },
                fh,
                indent=2,
            )
    return 0 if passed else EXIT_NUMERICAL


def _add_common(sub, q=False, gamma=False, oracle=False):
    sub.add_argument("--alpha", type=float, required=True, help="injection rate")
    sub.add_argument("--t", type=float, required=True, help="time horizon")
    if q:
        sub.add_argument("--q", type=float, default=0.0, help="left jump rate")
    if gamma:
        sub.add_argument("--gamma", type=float, default=0.0, help="exit rate")
    if oracle:
        sub.add_argument(
            "--oracle", action="store_true", help="also run the uniformization oracle"
        )
        sub.add_argument("--s-max", type=int, default=None, help="oracle lattice cutoff")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsep",
        description="Exact formulas and oracles for half-line exclusion processes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("asep-prob", help="finite-q transition probability (contour integral)")
    s.add_argument("--y", default="", help="initial configuration, e.g. '4,2' ('' = empty)")
    s.add_argument("--x", required=True, help="target configuration")
    s.add_argument("--tol", type=float, default=1e-7)
    s.add_argument("--nodes", type=int, default=ai.NODE_START)
    _add_common(s, q=True, oracle=True)
    s.set_defaults(fn=_cmd_asep_prob)

    s = subs.add_parser("tasep-prob", help="q=0 Pfaffian transition probability")
    s.add_argument("--y", default="")
    s.add_argument("--x", required=True)
    _add_common(s, oracle=True)
    s.set_defaults(fn=_cmd_tasep_prob)

    s = subs.add_parser("joint", help="joint threshold distribution (q=0)")
    s.add_argument("--y", default="")
    s.add_argument("--s", required=True, help="thresholds, strictly decreasing")
    _add_common(s)
    s.set_defaults(fn=_cmd_joint)

    s = subs.add_parser("current", help="particle-number probability (q=0)")
    s.add_argument("--y", default="")
    s.add_argument("--n", type=int, required=True)
    _add_common(s, oracle=True)
    s.set_defaults(fn=_cmd_current)

    s = subs.add_parser("gt-sum", help="Gelfand-Tsetlin decomposition of the transition probability")
    s.add_argument("--y", default="")
    s.add_argument("--x", required=True)
    s.add_argument("--z-max", type=int, default=None)
    s.add_argument("--cap", type=int, default=10**7)
    _add_common(s)
    s.set_defaults(fn=_cmd_gt_sum)

    s = subs.add_parser("conditional", help="conditional multipoint distribution (q=0)")
    s.add_argument("--n", type=int, required=True, help="conditioned particle count N")
    s.add_argument("--y", default="", help="initial configuration (M = its size)")
    s.add_argument("--p", required=True, help="particle labels, e.g. '1,2'")
    s.add_argument("--a", required=True, help="thresholds, e.g. '4,2'")
    _add_common(s, oracle=True)
    s.set_defaults(fn=_cmd_conditional)

    s = subs.add_parser("oracle", help="exact distribution by uniformization")
    s.add_argument("--y", default="", help="initial configuration, e.g. '4,2' ('' = empty)")
    s.add_argument("--x", default=None, help="target configuration (omit for the full table)")
    _add_common(s, q=True, gamma=True)
    s.add_argument(
        "--s-max", type=int, default=None,
        help="lattice cutoff, at most 24 (default: default_cutoff(y, t), the top site "
        "of y plus ceil(t + 8 sqrt(t) + 4))",
    )
    s.set_defaults(fn=_cmd_oracle)

    s = subs.add_parser("simulate", help="continuous-time Monte Carlo")
    s.add_argument("--y", default="")
    s.add_argument("--n", type=int, required=True, help="number of trajectories")
    s.add_argument("--seed", type=int, required=True)
    _add_common(s, q=True, gamma=True)
    s.set_defaults(fn=_cmd_simulate)

    s = subs.add_parser("verify", help="run the acceptance criteria (hsep.verify.CHECKS)")
    s.add_argument("--level", choices=("quick", "full"), default="quick")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        return 0 if rc is None else rc
    except (ValueError, ContourValidationError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except tf.PatternCapError as exc:
        print(f"precondition violated: {exc} (--z-max / --cap)", file=sys.stderr)
        return EXIT_PRECONDITION
    except (QuadratureError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
