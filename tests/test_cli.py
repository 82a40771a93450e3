"""CLI dispatch, output formats, determinism, and exit codes."""

import json
import math
import subprocess
import sys

import mpmath as mp
import pytest

from hsep import verify
from hsep.cli import main


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
        assert payload["residuals"] == {"gram_cond": 1.0}
        assert payload["oracle_tail_bound"] < 1e-9
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
        rc = main(
            ["conditional", "--n", "4", "--p", "1", "--a", "4", "--alpha", "0.5", "--t", "0.4"]
        )
        assert rc == 4
        assert "condition number" in capsys.readouterr().err

    def test_asep_quadrature_unconverged_is_4(self, capsys):
        rc = main(["asep-prob", "--x", "3,2,1", "--alpha", "2.46", "--t", "1"])
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

    def test_verify_quick_passes(self, capsys, tmp_path):
        out_file = tmp_path / "verify.json"
        rc, out = run_cli(["verify", "--level", "quick", "--out", str(out_file)], capsys)
        assert rc == 0
        assert "ALL CHECKS PASS" in out
        report = json.loads(out_file.read_text())
        assert report["level"] == "quick" and report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(out.splitlines()) - 1  # one entry per printed row
        assert len(set(names)) == len(names)

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
