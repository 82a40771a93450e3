"""CLI dispatch, output formats, determinism, and exit codes."""

import csv
import json
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from hsep import verify
from hsep.asep_integral import asep_transition_batch
from hsep.cli import main
from hsep.kernels import ModelParams
from hsep.markov_oracle import conditional_event_probability, oracle_distribution
from hsep.pfaffian import pfaffian
from hsep.tasep_formulas import (
    boundary_current_probability,
    joint_distribution,
    suggest_z_max,
    tasep_transition_probability,
)


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


class TestSubcommands:
    def test_tasep_prob_with_oracle(self, capsys):
        rc, out = run_cli(
            [
                "tasep-prob", "--x", "3,1", "--t", "1", "--alpha", "0.5",
                "--oracle", "--s-max", "15",
            ],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["difference"] < 1e-9
        assert "residual_im" not in payload  # nothing measures it

    def test_tasep_prob_at_large_alpha(self, capsys):
        # alpha^700 overflows above alpha = 2.757; the kernels form no such power
        rc, out = run_cli(
            ["tasep-prob", "--y", "", "--x", "3,1", "--alpha", "3", "--t", "1", "--oracle"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert math.isfinite(payload["value"])
        assert round(payload["value"], 6) == 0.071932
        assert payload["difference"] < 1e-12

    def test_asep_prob(self, capsys):
        rc, out = run_cli(
            [
                "asep-prob", "--x", "2,1", "--y", "", "--q", "0.3",
                "--alpha", "0.6", "--t", "0.4", "--nodes", "24",
            ],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert 0.0 <= payload["value"] <= 1.0
        diag = payload["diagnostics"]
        assert diag["nodes"] > 24 and diag["max_imag"] < 1e-9
        assert 0.0 <= diag["last_delta"] <= 1e-7 and "q_extrapolated" not in diag

    def test_asep_prob_richardson_diagnostics(self, capsys):
        # q = 0 with y = (2, 1) not separated: the Richardson path, on the
        # node ladder from the default 32 and certified like a finite-q batch
        rc, out = run_cli(
            [
                "asep-prob", "--x", "3,1", "--y", "2,1", "--q", "0",
                "--alpha", "0.6", "--t", "0.4", "--format", "csv",
            ],
            capsys,
        )
        assert rc == 0
        head, row = (line.split(",") for line in out.strip().splitlines())
        diag = dict(zip(head, row))
        assert diag["diagnostics.q_extrapolated"] == "True"
        assert int(diag["diagnostics.nodes"]) in (48, 72, 108, 162, 243, 365)
        assert 0.0 <= float(diag["diagnostics.last_delta"]) <= 1e-7

    def test_asep_prob_q_zero_with_oracle(self, capsys):
        # q = 0 with y = (4) separated for N = 2: the partial symmetrization
        # without its flips, against the uniformization oracle
        rc, out = run_cli(
            ["asep-prob", "--y", "4", "--x", "5,3", "--alpha", "0.6", "--t", "0.5", "--oracle"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["q"] == 0.0 and "q_extrapolated" not in payload["diagnostics"]
        assert payload["oracle_tail_bound"] < 1e-9
        assert payload["difference"] < 1e-12

    @pytest.mark.parametrize("n, s_max", [(2, None), (30, 10)])
    def test_current_with_oracle(self, capsys, n, s_max):
        # n = 30 lies beyond the oracle's particle-count table, which reads 0
        args = ["current", "--n", str(n), "--t", "1", "--alpha", "0.5", "--oracle"]
        rc, out = run_cli(args + (["--s-max", str(s_max)] if s_max else []), capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["oracle_tail_bound"] < 1e-8
        assert payload["difference"] < 1e-12
        if n == 30:
            assert payload["oracle"] == 0.0 and 0.0 <= payload["value"] < 1e-100

    def test_joint_and_current(self, capsys):
        rc, out = run_cli(
            ["joint", "--s", "3,1", "--t", "1", "--alpha", "0.5"], capsys
        )
        assert rc == 0
        rc, out = run_cli(
            ["current", "--n", "2", "--t", "1", "--alpha", "0.5"], capsys
        )
        assert rc == 0
        assert 0 < json.loads(out)["value"] < 1

    def test_gt_sum(self, capsys):
        rc, out = run_cli(
            ["gt-sum", "--x", "3,1", "--t", "0.8", "--alpha", "0.6"], capsys
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["truncation_remainder"] < 1e-8

    def test_gt_reports_the_z_max_it_used(self, capsys):
        rc, out = run_cli(["gt-sum", "--x", "", "--z-max", "0", "--alpha", "0.5", "--t", "1"], capsys)
        assert rc == 0
        assert json.loads(out)["z_max"] == 0
        rc, out = run_cli(["gt-sum", "--x", "3,1", "--alpha", "0.5", "--t", "1"], capsys)
        assert json.loads(out)["z_max"] == suggest_z_max((3, 1), 1.0)

    def test_conditional(self, capsys):
        rc, out = run_cli(
            [
                "conditional", "--n", "2", "--p", "2", "--a", "1",
                "--t", "1", "--alpha", "0.5", "--oracle",
            ],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)["conditional"]
        assert "residuals" not in payload  # the Gram certificate belongs to the kernel path
        # the escaped mass bounds a conditional value relative to P_box(|X_t| = N)
        dist = oracle_distribution((), 1.0, ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=1.0))
        _, total = conditional_event_probability(dist, 2, (2,), (1,))
        assert payload["oracle_tail_bound"] == dist.tail_bound / total < 1e-9
        assert payload["difference"] < 1e-9

    def test_oracle_and_simulate(self, capsys):
        rc, out = run_cli(
            [
                "oracle", "--y", "", "--x", "2,1", "--q", "0", "--alpha", "0.5",
                "--t", "1", "--s-max", "14",
            ],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["tail_bound"] < 1e-9
        rc, out = run_cli(
            [
                "simulate", "--y", "", "--t", "0.5", "--alpha", "0.7",
                "--n", "1000", "--seed", "7",
            ],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["n_traj"] == 1000

    def test_oracle_json_is_pinned(self, capsys):
        # the full distribution as printed before the oracle ran on its
        # site-sum window; it must stay byte-identical
        import hashlib

        rc, out = run_cli(
            [
                "oracle", "--y", "3,1", "--t", "1", "--alpha", "0.6", "--q", "0.3",
                "--gamma", "0.2", "--s-max", "12",
            ],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 417
        assert payload["entries"][0] == {"config": [3, 2], "p": 0.14737899008117167}
        assert payload["tail_bound"] == 8.715559948412616e-08
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bcd8fa87ef3af3e71f4cc3c2f9df53193b4dcaa8934e47754dfd64f605cd9b89"
        )

    def test_oracle_help_names_the_cutoff(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--y Y initial configuration" in out
        assert "--s-max S_MAX lattice cutoff, at most 24 (default: default_cutoff(y, t)" in out

    def test_csv_format(self, capsys):
        rc, out = run_cli(
            [
                "tasep-prob", "--x", "2", "--t", "1", "--alpha", "0.5",
                "--format", "csv",
            ],
            capsys,
        )
        assert rc == 0
        header, row = out.strip().splitlines()
        assert "value" in header.split(",")
        # a nested payload flattens into dotted keys
        rc, out = run_cli(
            [
                "conditional", "--n", "2", "--p", "2", "--a", "1",
                "--t", "1", "--alpha", "0.5", "--format", "csv",
            ],
            capsys,
        )
        assert rc == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["conditional.N"] == "2"
        assert 0.0 < float(fields["conditional.value"]) < 1.0

    @pytest.mark.parametrize(
        "args, columns",
        [
            (["oracle", "--y", "2", "--q", "0.3", "--gamma", "0.2", "--s-max", "8"], ["p"]),
            (["simulate", "--y", "2", "--q", "0.3", "--n", "2000", "--seed", "5"], ["p", "stderr"]),
        ],
    )
    def test_table_csv_matches_json(self, capsys, args, columns):
        # one row per JSON entry, in its order: the sites joined by spaces, then the columns
        args = args + ["--alpha", "0.6", "--t", "0.8"]
        rc, out = run_cli(args, capsys)
        assert rc == 0
        entries = json.loads(out)["entries"]
        rc, out = run_cli(args + ["--format", "csv"], capsys)
        assert rc == 0
        header, *rows = csv.reader(out.splitlines())
        assert header == ["config", *columns]
        assert len(rows) == len(entries) > 3
        for row, e in zip(rows, entries):
            assert row[0].split() == [str(s) for s in e["config"]]
            assert [float(v) for v in row[1:]] == [e[c] for c in columns]


P0 = ModelParams(q=0.0, alpha=0.6, gamma=0.0, t=1.3)


def _sites(n):
    return tuple(range(n, 0, -1))


def _text(config):
    return ",".join(map(str, config))


def _cli(capsys, *args):
    rc, out = run_cli([*args, "--alpha", "0.6", "--t", "1.3"], capsys)
    assert rc == 0
    return json.loads(out)["value"]


def _asep(q):
    params = ModelParams(q=q, alpha=0.6, gamma=0.0, t=1.3)
    return lambda y, n, c: asep_transition_batch(y, n, [_sites(n)], 1.3, params)[0][_sites(n)]


# (y, n, capsys) -> P(y -> n particles at sites n, ..., 1) or its threshold analogue
EVALUATORS = {
    "tasep": lambda y, n, c: tasep_transition_probability(y, _sites(n), 1.3, P0),
    "joint": lambda y, n, c: joint_distribution(y, _sites(n), 1.3, P0),
    "current": lambda y, n, c: boundary_current_probability(n, y, 1.3, P0),
    "asep-q0": _asep(0.0),
    "asep-q0.3": _asep(0.3),
    "cli-tasep": lambda y, n, c: _cli(c, "tasep-prob", "--y", _text(y), "--x", _text(_sites(n))),
    "cli-joint": lambda y, n, c: _cli(c, "joint", "--y", _text(y), "--s", _text(_sites(n))),
    "cli-current": lambda y, n, c: _cli(c, "current", "--y", _text(y), "--n", str(n)),
    "cli-asep-q0": lambda y, n, c: _cli(c, "asep-prob", "--y", _text(y), "--x", _text(_sites(n))),
    "cli-asep-q0.3": lambda y, n, c: _cli(
        c, "asep-prob", "--q", "0.3", "--y", _text(y), "--x", _text(_sites(n))
    ),
}


class TestEdgeContract:
    """N = 0 gives e^(-alpha t) and M > N exactly 0, from the general formulas."""

    def test_empty_pfaffian_is_one(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_empty_target_and_more_initial_particles(self, capsys, name):
        evaluate = EVALUATORS[name]
        assert evaluate((), 0, capsys) == pytest.approx(math.exp(-0.6 * 1.3), rel=1e-15)
        for y, n in (((3,), 0), ((5, 3), 1), ((6, 4, 2), 2)):
            assert evaluate(y, n, capsys) == 0.0

    @pytest.mark.parametrize(
        "args",
        [
            ["gt-sum", "--y", "5,3", "--x", "2"],  # Xi needs k <= N
            ["conditional", "--n", "1", "--y", "5,3,1", "--p", "1", "--a", "1"],
            ["current", "--n", "-1"],
        ],
    )
    def test_refusals_stay_exit_3(self, capsys, args):
        assert main(args + ["--alpha", "0.6", "--t", "1.3"]) == 3
        assert "precondition violated" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_identical_output(self, capsys, tmp_path):
        args = [
            "simulate", "--y", "", "--t", "0.5", "--alpha", "0.7",
            "--n", "5000", "--seed", "11",
        ]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2  # simulate output carries no timestamp

    def test_json_identical_modulo_timestamp(self, capsys):
        args = ["tasep-prob", "--x", "3,1", "--t", "1", "--alpha", "0.5"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2


class TestExitCodes:
    def test_parse_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["tasep-prob", "--x", "3,1"])  # missing required arguments
        assert exc.value.code == 2

    def test_precondition_violation_is_3(self, capsys):
        # Pfaffian validity domain y_M > N-M+1 violated
        rc, _ = run_cli(
            [
                "tasep-prob", "--y", "2,1", "--x", "4,2,1", "--t", "1",
                "--alpha", "0.5",
            ],
            capsys,
        )
        assert rc == 3

    @pytest.mark.parametrize("t, alpha", [("nan", "0.5"), ("inf", "0.5"), ("1", "nan")])
    def test_non_finite_time_or_rate_is_3(self, capsys, t, alpha):
        rc = main(["tasep-prob", "--x", "1", "--alpha", alpha, "--t", t])
        assert rc == 3
        assert "finite and non-negative" in capsys.readouterr().err

    def test_non_finite_value_is_4(self, capsys, monkeypatch):
        import hsep.tasep_formulas

        monkeypatch.setattr(hsep.tasep_formulas, "pfaffian", lambda mat: math.nan)
        rc = main(["tasep-prob", "--x", "3,1", "--t", "1", "--alpha", "0.5"])
        assert rc == 4
        assert "not finite" in capsys.readouterr().err

    def test_bad_config_is_3(self, capsys):
        rc, _ = run_cli(
            ["tasep-prob", "--x", "1,3", "--t", "1", "--alpha", "0.5"], capsys
        )
        assert rc == 3

    def test_simulate_beyond_lattice_is_3(self, capsys):
        rc = main(
            ["simulate", "--y", "63", "--t", "1", "--alpha", "0.5", "--n", "10", "--seed", "7"]
        )
        assert rc == 3
        assert "62-site lattice" in capsys.readouterr().err

    def test_oracle_beyond_24_sites_is_3(self, capsys):
        rc = main(["oracle", "--y", "30", "--alpha", "0.5", "--t", "1"])
        assert rc == 3
        assert "S_max must be in [1, 24]" in capsys.readouterr().err

    def test_kernel_underflow_is_4(self, capsys):
        rc = main(["tasep-prob", "--x", "1", "--alpha", "0.5", "--t", "760"])
        assert rc == 4
        assert "underflows" in capsys.readouterr().err

    def test_conditional_ill_conditioned_is_4(self, capsys):
        # cond(S G S) ~ 1e7 refuses the kernel here, but not the joint Pfaffians
        rc, out = run_cli(
            ["conditional", "--n", "4", "--p", "1", "--a", "4", "--alpha", "0.5", "--t", "0.4"],
            capsys,
        )
        assert rc == 0
        p = ModelParams(q=0.0, alpha=0.5, gamma=0.0, t=0.4)
        dist = oracle_distribution((), 0.4, p, poisson_tol=0.0)
        want, _ = conditional_event_probability(dist, 4, (1,), (4,))
        assert abs(json.loads(out)["conditional"]["value"] - want) < 1e-8

    def test_conditional_underflow_is_4(self, capsys):
        rc = main(["conditional", "--n", "2", "--p", "1", "--a", "4", "--alpha", "0.5", "--t", "760"])
        assert rc == 4
        assert "underflows" in capsys.readouterr().err

    def test_asep_quadrature_unconverged_is_4(self, capsys):
        # the integrand reaches e^(t/r_1) ~ 1e14 on C_1 at t = 5, and its
        # roundoff keeps successive passes 1e-4 apart
        rc = main(["asep-prob", "--x", "3,2,1", "--alpha", "1.5", "--t", "5"])
        assert rc == 4
        assert "did not stabilize" in capsys.readouterr().err

    def test_gt_cap_exceeded_is_3(self, capsys):
        rc = main(["gt-sum", "--x", "5,3", "--cap", "10", "--alpha", "0.5", "--t", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "--z-max" in err and "--cap" in err

    def test_gt_empty_x_is_0(self, capsys):
        rc, out = run_cli(["gt-sum", "--x", "", "--alpha", "0.5", "--t", "1"], capsys)
        assert rc == 0
        assert json.loads(out)["value"] == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_asep_nodes_below_one_is_3(self, capsys):
        rc = main(
            ["asep-prob", "--x", "1", "--alpha", "0.5", "--t", "1", "--q", "0.3", "--nodes", "0"]
        )
        assert rc == 3
        assert "nodes" in capsys.readouterr().err

    def test_gt_zmax_below_left_edge_is_3(self, capsys):
        rc = main(["gt-sum", "--x", "4,2,1", "--alpha", "0.5", "--t", "1", "--z-max", "3"])
        assert rc == 3
        assert "z_max" in capsys.readouterr().err

    def test_simulate_reaching_lattice_edge_is_4(self, capsys):
        rc = main(
            ["simulate", "--y", "60", "--alpha", "0", "--t", "20", "--n", "200", "--seed", "1"]
        )
        assert rc == 4
        assert "site 62" in capsys.readouterr().err

    def test_verify_quick_passes(self, capsys, monkeypatch, tmp_path):
        # tests/test_acceptance.py runs the real checks; --level quick must
        # skip a full check
        quick = verify.Check("stub", "quick", lambda: [("stub-a", 0.25, 0.5), ("stub-b", 0, 0)])
        full = verify.Check("stub-full", "full", lambda: [("stub-full-row", 1.0, 0.5)])
        monkeypatch.setattr(verify, "CHECKS", (quick, full))
        out_file = tmp_path / "verify.json"
        rc, out = run_cli(["verify", "--level", "quick", "--out", str(out_file)], capsys)
        assert rc == 0
        assert "ALL CHECKS PASS" in out and "stub-full-row" not in out
        report = json.loads(out_file.read_text())
        assert report["level"] == "quick" and report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == ["stub-a", "stub-b"]
        assert len(names) == len(out.splitlines()) - 1  # one entry per printed row

    def test_verify_failing_row_is_4(self, capsys, monkeypatch, tmp_path):
        stub = verify.Check("stub", "quick", lambda: [("stub-row", 1.0, 0.5)])
        monkeypatch.setattr(verify, "CHECKS", (stub,))
        out_file = tmp_path / "verify.json"
        rc, out = run_cli(["verify", "--out", str(out_file)], capsys)
        assert rc == 4
        assert "stub-row" in out and "FAIL" in out and "CHECKS FAILED" in out
        report = json.loads(out_file.read_text())
        assert report["passed"] is False
        assert report["checks"] == [
            {"name": "stub-row", "residual": 1.0, "threshold": 0.5, "passed": False}
        ]

    def test_verify_restores_mpmath_precision(self):
        check = next(c for c in verify.CHECKS if c.name == "criterion_07_skew_borel")
        dps = mp.mp.dps
        assert all(row[3] for row in verify.evaluate(check))
        assert mp.mp.dps == dps

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hsep.cli", "current", "--n", "0",
             "--t", "1", "--alpha", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
