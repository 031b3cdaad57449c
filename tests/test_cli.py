"""Command-line interface: sweeps, validation report, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest

from nrayleigh import cli, montecarlo, schemes, validation
from nrayleigh.schemes import (
    ChannelConfig,
    ConvergenceError,
    OutageQuery,
    Scheme,
    outage_asymptotic,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_probe(monkeypatch):
    """c10 probes 1 000 trials instead of 120 000, for tests that need a
    whole report but not its probe size."""
    monkeypatch.setattr(validation, "_DETERMINISM_TRIALS", 1000)


def run_process(*argv):
    """(exit code, stdout, stderr) of ``nrayleigh`` in a child interpreter
    that imports this nrayleigh; a command that has not ended in 60 s fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "nrayleigh.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return result.returncode, result.stdout, result.stderr


class TestParams:
    def test_table_contents(self, capsys):
        code, out, _ = run(capsys, "params", "--n", "1,2", "--nt", "2", "--nr", "3")
        assert code == cli.EXIT_OK
        assert "1.6467" in out      # severity shape at n = 2
        assert "4.9401" in out      # diversity order at 2x3, n = 2
        assert "tas-mrc" in out and "tas-sc" in out

    def test_empty_n_list_usage_error(self, capsys):
        code, _, err = run(capsys, "params", "--n", ",")
        assert code == cli.EXIT_USAGE
        assert "empty" in err

    def test_bad_cascade_order(self, capsys):
        code, _, _ = run(capsys, "params", "--n", "0")
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag, name", [("--nt", "n_t"), ("--nr", "n_r")])
    def test_bad_antenna_count_writes_nothing(self, capsys, flag, name):
        code, out, err = run(capsys, "params", "--n", "2", flag, "0")
        assert code == cli.EXIT_USAGE
        assert f"usage error: {name} must be an integer >= 1, got 0" in err
        assert out == ""


class TestOutageSweep:
    def test_analytics_only(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "outage-sweep", "--scheme", "both", "--n", "2",
            "--snr-db", "0:10:5", "--trials", "0", "--out", str(out_file),
        )
        assert code == cli.EXIT_OK
        lines = out_file.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == (
            "scheme,n,n_t,n_r,snr_db,gamma_o,p_out_analytic,p_out_asymptotic,"
            "p_out_mc,ci_low,ci_high,trials,seed,low_confidence"
        )
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 6  # 2 schemes x 3 SNR points
        mc_col = header.split(",").index("p_out_mc")
        assert all(r[mc_col] == "" for r in rows)

    def test_low_confidence_column_is_the_estimate_flag(self, capsys, tmp_path, monkeypatch):
        # At 1077 trials 10 / 1077 * 1077 < 10 in floating point, so a rule
        # recomputed from the proportion would wrongly flag 10 events.
        trials = 1077
        nine, ten = (montecarlo._estimate(e / trials, 0.0, e) for e in (9, 10))
        # Thresholds ascend, so 10 dB (threshold 0.1) comes first.
        monkeypatch.setattr(
            cli.montecarlo, "empirical_cdf_pair",
            lambda cfg, settings, thresholds, orders: {
                n: {s: [nine, ten] for s in cli.Scheme} for n in orders
            },
        )
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "outage-sweep", "--n", "2", "--snr-db", "0:10:10",
            "--trials", str(trials), "--out", str(out_file),
        )
        assert code == cli.EXIT_OK
        lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 4
        assert {(r["snr_db"], r["low_confidence"]) for r in rows} == {
            ("10.0", "1"), ("0.0", "0")
        }

    def test_repeated_order_is_one_pass_and_printed_per_listing(
        self, capsys, tmp_path, monkeypatch
    ):
        # --n 2,2,5 makes one kernel pass, folding n = 2 once and n = 5
        # once, yet prints n = 2's rows twice, as listed; every row equals
        # the row of its order swept alone.
        passes = []
        original = montecarlo._map_blocks

        def spy(cfg, orders, settings, reduce):
            passes.append(orders)
            return original(cfg, orders, settings, reduce)

        monkeypatch.setattr(montecarlo, "_map_blocks", spy)
        args = ["outage-sweep", "--snr-db", "0:10:5", "--trials", "3000", "--seed", "4"]

        def data_rows(orders):
            out_file = tmp_path / f"sweep-{orders}.csv"
            code, _, _ = run(capsys, *args, "--n", orders, "--out", str(out_file))
            assert code == cli.EXIT_OK
            lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
            return lines[1:]

        rows = data_rows("2,2,5")
        assert passes == [(2, 5)]
        alone = {n: data_rows(str(n)) for n in (2, 5)}
        assert len(rows) == 3 * 2 * 3  # listed orders x schemes x SNR points
        for scheme in ("tas-mrc", "tas-sc"):
            mine = [r for r in rows if r.startswith(scheme + ",")]
            expected = [r for n in (2, 5) for r in alone[n] if r.startswith(scheme + ",")]
            doubled = [r for r in expected if r.split(",")[1] == "2"]
            assert mine == [r for r in doubled for _ in (0, 1)] + expected[len(doubled):]

    @pytest.mark.parametrize("settings", [montecarlo.SimSettings(trials=100), None],
                             ids=["settings", "no-settings"])
    def test_outage_curves_need_a_cascade_order(self, settings):
        # An empty order list raises the kernel's error, with or without a
        # simulation, in place of an IndexError or an empty table.
        omegas = {Scheme.TAS_MRC: None, Scheme.TAS_SC: None}
        with pytest.raises(ValueError, match="^orders must name at least one cascade order$"):
            validation.outage_curves([], 2, 3, OutageQuery(threshold=1.0), [0.0], omegas,
                                     settings)

    def test_analytic_column_monotone(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run(
            capsys, "outage-sweep", "--scheme", "tas-mrc", "--n", "3",
            "--snr-db", "0:20:2", "--trials", "0", "--out", str(out_file),
        )
        lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        idx = lines[0].split(",").index("p_out_analytic")
        values = [float(l.split(",")[idx]) for l in lines[1:]]
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_deterministic_output(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            code, _, _ = run(
                capsys, "outage-sweep", "--n", "2", "--snr-db", "0:10:5",
                "--trials", "20000", "--seed", "42", "--out", str(out_file),
            )
            assert code == cli.EXIT_OK
            files.append(out_file.read_bytes())
        assert files[0] == files[1]

    def test_header_embeds_resolved_config(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run(
            capsys, "outage-sweep", "--n", "2", "--snr-db", "0:10:5",
            "--trials", "0", "--out", str(out_file),
        )
        text = out_file.read_text()
        assert "# omega_tas_mrc=1.176" in text
        assert "# omega_tas_sc=1.0" in text
        assert "# seed=1" in text

    def test_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "outage-sweep", "--n", "2", "--snr-db", "0:10:10",
            "--trials", "0", "--format", "json", "--out", str(out_file),
        )
        assert code == cli.EXIT_OK
        data = json.loads(out_file.read_text())
        assert {"config", "rows"} <= set(data)
        assert data["rows"][0]["scheme"] in {"tas-mrc", "tas-sc"}

    def test_coefficient_past_the_float_range_gives_a_zero_row(self, capsys):
        # TAS/MRC n = 1 with 300 x 4 antennas: ln C is above ln(max float),
        # and both columns underflow to 0.0 instead of failing.
        code, out, _ = run(capsys, "outage-sweep", "--n", "1", "--nt", "300", "--nr", "4",
                           "--snr-db", "0", "--trials", "0", "--scheme", "tas-mrc")
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader(l for l in out.splitlines() if not l.startswith("#")))
        assert len(rows) == 1
        assert (rows[0]["p_out_analytic"], rows[0]["p_out_asymptotic"]) == ("0.0", "0.0")

    def test_asymptote_above_one_is_left_empty(self, capsys, tmp_path):
        # TAS/SC, n = 2, 2x3: the power law reads 1.50 at 4 dB and 0.154 at 6 dB.
        args = ["outage-sweep", "--scheme", "tas-sc", "--n", "2", "--snr-db", "4:6:2",
                "--trials", "0"]
        cfg = ChannelConfig(n=2, n_t=2, n_r=3, mean_snr=10.0 ** 0.6)
        kept, _ = outage_asymptotic(Scheme.TAS_SC, OutageQuery(threshold=1.0), cfg)
        assert kept < 1.0
        csv_file, json_file = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert run(capsys, *args, "--out", str(csv_file))[0] == cli.EXIT_OK
        assert run(capsys, *args, "--format", "json", "--out", str(json_file))[0] == cli.EXIT_OK
        lines = [l for l in csv_file.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert [r["snr_db"] for r in rows] == ["4.0", "6.0"]
        assert rows[0]["p_out_asymptotic"] == ""
        assert float(rows[1]["p_out_asymptotic"]) == pytest.approx(kept, rel=1e-12)
        rows = json.loads(json_file.read_text())["rows"]
        assert [r["snr_db"] for r in rows] == [4.0, 6.0]
        assert rows[0]["p_out_asymptotic"] is None
        assert rows[1]["p_out_asymptotic"] == pytest.approx(kept, rel=1e-12)

    def test_power_law_past_the_float_range_is_left_empty(self, capsys):
        # At gamma_o = 1e300 the power law exceeds the largest float.
        code, out, err = run(capsys, "outage-sweep", "--n", "2", "--trials", "0",
                             "--gamma-o", "1e300", "--snr-db", "0")
        assert code == cli.EXIT_OK and err == ""
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        assert [r["scheme"] for r in rows] == ["tas-mrc", "tas-sc"]
        assert all(r["p_out_asymptotic"] == "" for r in rows)

    # 1e309 overflows to inf as it is read.
    @pytest.mark.parametrize("flags", [("--gamma-o", "inf"), ("--gamma-o", "1e309")])
    def test_infinite_threshold_is_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "outage-sweep", "--n", "2", "--trials", "0",
                             "--snr-db", "0", *flags)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and "finite" in err
        assert out == ""

    @pytest.mark.parametrize("trials", ["0", "10"])
    def test_threshold_that_underflows_is_usage_error(self, capsys, trials):
        # 1e-300 / 10^30 is 0.0 in floating point.
        code, out, err = run(capsys, "outage-sweep", "--n", "2", "--trials", trials,
                             "--snr-db", "300", "--gamma-o", "1e-300")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and "not a positive float" in err
        assert "Traceback" not in err
        assert out == ""

    # 10^(4000/10) overflows; 1e-16 dB steps all give the linear SNR 1.0.
    @pytest.mark.parametrize("snr_db,message", [
        ("-4000", "no finite positive linear SNR"),
        ("0:4000:1000", "no finite positive linear SNR"),
        ("0:4e-16:1e-16", "thresholds must be distinct"),
        ("0:10000:1", "more than 10000 points"),
    ])
    def test_bad_snr_grid_is_usage_error(self, capsys, snr_db, message):
        code, out, err = run(capsys, "outage-sweep", "--n", "2", "--trials", "0",
                             "--snr-db", snr_db)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and message in err
        assert out == ""

    def test_grid_cap_keeps_every_point_up_to_it(self):
        # 0:9999:1 holds exactly the cap's 10000 points, each start + k*step.
        assert cli._parse_snr_grid("0:9999:1") == [float(k) for k in range(10_000)]
        assert cli._parse_snr_grid("-10:60:0.5") == [-10.0 + k * 0.5 for k in range(141)]

    @pytest.mark.parametrize("grid,points", [
        ("0:1e-10:1e-11", 11), ("0:3e-9:1e-9", 4), ("0:1:0.1", 11), ("-10:60:0.05", 1401),
    ])
    def test_stepped_grid_ends_at_stop_at_any_step(self, capsys, grid, points):
        # A point may fall past stop by at most 1e-9 steps, so a step of
        # 1e-9 dB or less cannot run on past stop.
        start, stop, step = (float(v) for v in grid.split(":"))
        got = cli._parse_snr_grid(grid)
        assert got == [start + k * step for k in range(points)]
        assert got[-1] <= stop + 1e-9 * step
        code, out, _ = run(capsys, "outage-sweep", "--n", "2", "--trials", "0",
                           "--scheme", "tas-sc", "--snr-db", grid)
        assert code == cli.EXIT_OK
        assert sum(line.startswith("tas-sc,") for line in out.splitlines()) == points

class TestValidatedDomain:
    """Cascade orders above fading.MAX_VALIDATED_CASCADE = 8 are refused."""

    # af-sweep gets explicit coefficients, so only the domain check can
    # refuse an order outside the fitted b-table.
    ARGS = {
        "params": [],
        "outage-sweep": ["--snr-db", "0", "--trials", "1000"],
        "af-sweep": ["--b1", "1.4", "--b2", "1.7", "--trials", "1000"],
    }

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize("orders", ["9", "40", "2,9"])
    def test_order_above_domain_is_usage_error(self, capsys, command, orders):
        code, out, err = run(capsys, command, "--n", orders, *self.ARGS[command])
        assert code == cli.EXIT_USAGE
        assert "validated domain n <= 8" in err
        assert out == ""

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_top_of_domain_runs(self, capsys, command):
        code, out, _ = run(capsys, command, "--n", "8", *self.ARGS[command])
        assert code == cli.EXIT_OK
        assert "tas-mrc" in out and "tas-sc" in out

class TestAfSweep:
    def test_missing_coefficients_error(self, capsys):
        code, _, err = run(capsys, "af-sweep", "--n", "7", "--trials", "0")
        assert code == cli.EXIT_USAGE
        assert "coefficients" in err and "7" in err

    def test_explicit_coefficients_allow_any_order(self, capsys, tmp_path):
        out_file = tmp_path / "af.csv"
        code, _, _ = run(
            capsys, "af-sweep", "--n", "7", "--b1", "1.4", "--b2", "1.7",
            "--trials", "0", "--out", str(out_file),
        )
        assert code == cli.EXIT_OK
        assert "b1" in out_file.read_text()

    def test_columns_and_bound_only_for_mrc(self, capsys, tmp_path):
        out_file = tmp_path / "af.csv"
        code, _, _ = run(
            capsys, "af-sweep", "--n", "2,3", "--trials", "0", "--out", str(out_file),
        )
        assert code == cli.EXIT_OK
        lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "scheme", "n", "n_t", "n_r", "b1", "b2", "af_closed", "af_bound",
            "af_oracle", "af_mc", "ci_low", "ci_high",
        ]
        bound_idx = header.index("af_bound")
        for line in lines[1:]:
            parts = line.split(",")
            if parts[0] == "tas-mrc":
                assert parts[bound_idx] != ""
            else:
                assert parts[bound_idx] == ""

    # AF is invariant to the mean SNR, so af-sweep takes none as input.
    def test_snr_db_flag_is_removed(self, capsys):
        code, _, err = run(capsys, "af-sweep", "--n", "2", "--trials", "0", "--snr-db", "10")
        assert code == cli.EXIT_USAGE
        assert "--snr-db" in err

class TestSweepOptions:
    """Both sweeps declare their shared options once; each parameter of
    theirs and of validate keeps its name, flags, type, default, help and
    place, so --help is unchanged."""

    CHOICE_SCHEME = ("choice", ("tas-mrc", "tas-sc", "both"))
    CHOICE_FORMAT = ("choice", ("csv", "json"))
    EXPECTED = {
        "outage-sweep": [
            ("scheme", ["--scheme"], CHOICE_SCHEME, "both", "Selection scheme, or both."),
            ("n_list", ["--n"], "text", "2,3,4,5", "Cascade orders, e.g. 2,3,4,5."),
            ("nt", ["--nt"], "integer", 2, "Transmit antennas."),
            ("nr", ["--nr"], "integer", 3, "Receive antennas."),
            ("snr_db", ["--snr-db"], "text", "0:30:2", "Mean-SNR grid start:stop:step in dB."),
            ("gamma_o", ["--gamma-o"], "float", 1.0, "Outage threshold (linear)."),
            ("omega", ["--omega"], "float", None, "Calibration override for both schemes."),
            ("trials", ["--trials"], "integer", 1_000_000,
             "Monte-Carlo trials (0 = analytics only)."),
            ("seed", ["--seed"], "integer", 1, "Master seed."),
            ("workers", ["--workers"], "integer", 1, "Worker threads."),
            ("out", ["--out"], "text", None, "Output path (default: stdout)."),
            ("fmt", ["--format"], CHOICE_FORMAT, "csv", None),
        ],
        "af-sweep": [
            ("scheme", ["--scheme"], CHOICE_SCHEME, "both", "Selection scheme, or both."),
            ("n_list", ["--n"], "text", "2,3,4,5,6", "Cascade orders, e.g. 2,3,4,5,6."),
            ("nt", ["--nt"], "integer", 2, "Transmit antennas."),
            ("nr", ["--nr"], "integer", 2, "Receive antennas."),
            ("b1", ["--b1"], "float", None, "TAS/MRC weighting override."),
            ("b2", ["--b2"], "float", None, "TAS/SC weighting override."),
            ("trials", ["--trials"], "integer", 1_000_000,
             "Monte-Carlo trials (0 = analytics only)."),
            ("seed", ["--seed"], "integer", 1, "Master seed."),
            ("workers", ["--workers"], "integer", 1, "Worker threads."),
            ("out", ["--out"], "text", None, "Output path (default: stdout)."),
            ("fmt", ["--format"], CHOICE_FORMAT, "csv", None),
        ],
        "validate": [
            ("trials", ["--trials"], "integer", 1_000_000, "Monte-Carlo trials per criterion."),
            ("seed", ["--seed"], "integer", 1, "Master seed."),
            ("workers", ["--workers"], "integer", 1, "Worker threads."),
            ("out", ["--out"], "text", None, "Report path (default: stdout)."),
        ],
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_parameters_are_pinned(self, command):
        got = [
            (
                p.name, p.opts,
                ("choice", tuple(p.type.choices)) if isinstance(p.type, click.Choice)
                else p.type.name,
                p.default, p.help,
            )
            for p in cli.cli.commands[command].params
        ]
        assert got == self.EXPECTED[command]


@pytest.mark.usefixtures("small_probe")
class TestValidate:
    def test_report_and_exit_code(self, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        code, _, err = run(
            capsys, "validate", "--trials", "20000", "--out", str(report_file),
        )
        report = json.loads(report_file.read_text())
        assert {"config", "criteria", "summary"} <= set(report)
        assert len(report["criteria"]) == 10
        assert all(
            {"id", "name", "passed", "details"} <= set(c) for c in report["criteria"]
        )
        # Known structural failures keep the gate red; see README.
        assert code == cli.EXIT_VALIDATION
        assert not report["summary"]["all_passed"]
        assert "criteria passed" in err
        # Checks that do not depend on the source approximations must pass.
        by_id = {c["id"]: c for c in report["criteria"]}
        for cid in ("c01", "c06", "c09", "c10"):
            assert by_id[cid]["passed"], cid

    def test_byte_identical_across_worker_counts(self, capsys, tmp_path):
        reports = []
        for workers, name in ((1, "w1.json"), (3, "w3.json")):
            report_file = tmp_path / name
            run(
                capsys, "validate", "--trials", "20000", "--workers", str(workers),
                "--out", str(report_file),
            )
            reports.append(report_file.read_bytes())
        assert reports[0] == reports[1]

    def test_corrupted_calibration_is_detected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(schemes.DEFAULT_CALIBRATION, Scheme.TAS_MRC, 5.0)
        report_file = tmp_path / "bad.json"
        code, _, _ = run(capsys, "validate", "--trials", "20000", "--out", str(report_file))
        assert code == cli.EXIT_VALIDATION
        report = json.loads(report_file.read_text())
        assert report["config"]["mrc_omega"] == 5.0
        by_id = {c["id"]: c for c in report["criteria"]}
        assert not by_id["c02"]["passed"]
        # The corrupted weight inflates the required-SNR spacing by
        # 10 log10(5) per cascade step, far outside any tolerance.
        assert by_id["c03"]["details"]["gaps_db"][0] > 8.0

    def test_c02_without_binding_points_fails(self, capsys, tmp_path, monkeypatch):
        # At gamma_o = 1e300 every analytic outage is 1.0, outside the
        # band, so no point binds and c02 cannot pass on its points alone.
        monkeypatch.setattr(validation, "_GATE_QUERY", OutageQuery(threshold=1e300))
        report_file = tmp_path / "report.json"
        code, _, err = run(
            capsys, "validate", "--trials", "2000", "--out", str(report_file),
        )
        assert code == cli.EXIT_VALIDATION
        assert "FAIL c02" in err
        c02 = json.loads(report_file.read_text())["criteria"][1]
        assert c02["id"] == "c02" and not c02["passed"]
        points = [p for c in c02["details"]["curves"].values() for p in c["points"]]
        assert len(points) == 128
        assert all(p["pass"] and not p["binding"] for p in points)

    def test_c02_equals_outage_sweep_at_its_defaults(self, capsys, tmp_path):
        # Both build the 2x3, n = 2..5, 0:30:2 dB, gamma_o = 1 calibrated
        # table from the same draws.
        report_file = tmp_path / "report.json"
        run(capsys, "validate", "--trials", "20000", "--seed", "3", "--out", str(report_file))
        curves = json.loads(report_file.read_text())["criteria"][1]["details"]["curves"]
        expected = {
            (p["scheme"], p["n"], p["snr_db"]): (
                p["analytic"], p["asymptotic"], p["empirical"], p["ci_low"], p["ci_high"]
            )
            for c in curves.values() for p in c["points"]
        }
        code, out, _ = run(capsys, "outage-sweep", "--trials", "20000", "--seed", "3",
                           "--format", "json")
        assert code == cli.EXIT_OK
        got = {
            (r["scheme"], r["n"], r["snr_db"]): (
                r["p_out_analytic"], r["p_out_asymptotic"], r["p_out_mc"],
                r["ci_low"], r["ci_high"]
            )
            for r in json.loads(out)["rows"]
        }
        assert len(expected) == 128
        assert got == expected

    def test_seed_flag_sets_the_report_seed(self, capsys, tmp_path):
        # The weight is the gate's own at every seed.
        report_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "validate", "--trials", "2000", "--seed", "7", "--out", str(report_file),
        )
        assert code == cli.EXIT_VALIDATION
        resolved = json.loads(report_file.read_text())["config"]
        assert resolved["master_seed"] == 7
        assert resolved["mrc_omega"] == 1.176

    def test_report_round_trips(self, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        run(capsys, "validate", "--trials", "5000", "--out", str(report_file))
        text = report_file.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_whole_float_counts_give_the_int_report(self):
        # The counts are stored as the ints SimSettings uses, so the report
        # cannot carry 2000.0 where the same run at trials=2000 says 2000.
        as_float = montecarlo.SimSettings(trials=2000.0, workers=2.0)
        as_int = montecarlo.SimSettings(trials=2000, workers=2)
        assert as_float == as_int
        assert validation.report_to_json(validation.build_report(as_float)) == (
            validation.report_to_json(validation.build_report(as_int))
        )


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        for command in ("outage-sweep", "af-sweep"):
            code, _, err = run(capsys, command, "--scheme", "bogus", "--trials", "0")
            assert code == cli.EXIT_USAGE
            assert err.startswith("usage error:") and "bogus" in err

    def test_numeric_error_is_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ConvergenceError("synthetic")

        monkeypatch.setattr(cli.validation, "build_report", boom)
        code, _, err = run(capsys, "validate", "--trials", "1000")
        assert code == cli.EXIT_NUMERIC
        assert "non-convergence" in err

    @pytest.mark.parametrize("flag", ["--nt", "--nr"])
    @pytest.mark.parametrize("argv", [
        ["params", "--n", "2"],
        ["outage-sweep", "--trials", "0", "--snr-db", "0"],
        ["af-sweep", "--trials", "0"],
    ], ids=lambda argv: argv[0])
    def test_antenna_count_past_the_float_range_is_one(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, flag, str(10**400))
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: n_t * n_r must convert to a float, got ")
        assert out == ""

    # n_t n_r is a float, but the TAS/MRC shape m n_r (or its lgamma) is not.
    @pytest.mark.parametrize("argv", [
        ["params", "--n", "2", "--nt", "1", "--nr", str(10**308)],
        ["outage-sweep", "--nt", "1", "--nr", str(10**308), "--trials", "0", "--snr-db", "0"],
        ["af-sweep", "--nt", "1", "--nr", str(int(sys.float_info.max)), "--trials", "0"],
    ], ids=lambda argv: argv[0])
    def test_law_past_the_float_range_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: the tas-mrc law of n=2, n_t=1, n_r=")
        assert argv[argv.index("--nr") + 1] in err
        assert out == ""

    # At the default --trials, a sweep that simulated first would loop over
    # the n_t n_r coefficients for as long as it was let run.
    @pytest.mark.parametrize("argv", [
        ["outage-sweep", "--n", "2", "--nt", "1", "--nr", str(10**308), "--snr-db", "0"],
        ["af-sweep", "--n", "2", "--nt", "1", "--nr", str(int(sys.float_info.max))],
    ], ids=lambda argv: argv[0])
    def test_law_past_the_float_range_is_refused_before_simulating(self, argv):
        code, out, err = run_process(*argv)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: the tas-mrc law of n=2, n_t=1, n_r=")
        assert out == ""

    def test_af_bound_past_its_antenna_count_is_refused_before_simulating(
        self, capsys, monkeypatch
    ):
        def spy(*args):
            raise AssertionError("a block was simulated")

        monkeypatch.setattr(montecarlo, "_map_blocks", spy)
        code, out, err = run(capsys, "af-sweep", "--nt", "5", "--nr", "5", "--n", "2")
        assert code == cli.EXIT_USAGE
        assert err == "usage error: AF bound validated for n <= 8 and N <= 16, got n=2, N=25\n"
        assert out == ""

    # Past the bound's N <= 16 the moment oracle's quadrature is not
    # converged; the range check runs first, so these exit 1, not 3.
    @pytest.mark.parametrize("nr", [262144, 2097152, 500000, 5000000])
    def test_af_bound_is_checked_before_the_moment_oracle(self, capsys, nr):
        code, out, err = run(capsys, "af-sweep", "--n", "2", "--trials", "0", "--nr", str(nr))
        assert code == cli.EXIT_USAGE
        assert err == (
            f"usage error: AF bound validated for n <= 8 and N <= 16, got n=2, N={2 * nr}\n"
        )
        assert out == ""

    def test_law_inside_the_float_range_prints(self, capsys):
        code, out, err = run(capsys, "params", "--n", "2", "--nt", "1", "--nr", str(10**300))
        assert (code, err) == (cli.EXIT_OK, "")
        assert "1.6467e+300" in out

    @pytest.mark.usefixtures("small_probe")
    def test_unwritable_validate_out_is_one(self, capsys, tmp_path):
        out = tmp_path / "missing_dir" / "r.json"
        code, _, err = run(capsys, "validate", "--trials", "2000", "--out", str(out))
        assert code == cli.EXIT_USAGE
        assert "cannot write output" in err

    # Each invocation would exit 0 (or 2 for validate) if the option existed.
    REMOVED_OPTION_ARGS = {
        "outage-sweep": ["--n", "2", "--snr-db", "0", "--trials", "0"],
        "af-sweep": ["--n", "2", "--trials", "0"],
        "validate": ["--trials", "1000"],
    }

    @pytest.mark.parametrize("command", sorted(REMOVED_OPTION_ARGS))
    def test_partition_width_flag_is_removed(self, capsys, command):
        code, _, err = run(
            capsys, command, *self.REMOVED_OPTION_ARGS[command], "--partition-width", "1000"
        )
        assert code == cli.EXIT_USAGE
        assert "--partition-width" in err

    # c10's probe size is a constant; it was --determinism-trials.
    def test_determinism_trials_flag_is_removed(self, capsys):
        code, out, err = run(capsys, "validate", "--trials", "1000",
                             "--determinism-trials", "4000")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and "--determinism-trials" in err
        assert out == ""

    @pytest.mark.parametrize("flag,value", [("--gamma-o", "1"), ("--omega", "1.176")],
                             ids=["gamma-o", "omega"])
    def test_operating_point_flag_is_removed(self, capsys, flag, value):
        code, out, err = run(capsys, "validate", "--trials", "1000", flag, value)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and flag in err
        assert out == ""

    # outage-sweep's threshold is --gamma-o alone; it was also --rate.
    def test_rate_flag_is_removed(self, capsys):
        code, out, err = run(capsys, "outage-sweep", "--n", "2", "--snr-db", "0",
                             "--trials", "0", "--rate", "2.5")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and "--rate" in err
        assert out == ""

    # Every option has one spelling, its flag; it could also be a key of a
    # JSON config file given as --config.
    @pytest.mark.parametrize("command", ["params", *sorted(REMOVED_OPTION_ARGS)])
    def test_config_option_is_removed(self, capsys, command):
        argv = self.REMOVED_OPTION_ARGS.get(command, ["--n", "2"])
        code, out, err = run(capsys, command, *argv, "--config", "x.json")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and "--config" in err
        assert out == ""

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "definitely-not-a-command")
        assert code == cli.EXIT_USAGE


@pytest.mark.usefixtures("small_probe")
class TestRobustness:
    """Bad flag values end in a documented exit code, never in a
    traceback.  Each option is set, one at a time, to every value of the
    pool for its type on a cheap base invocation; positive extremes of the
    integer options are left out, because --trials and --workers would do
    that much work."""

    BASE = {
        "params": {"--n": "2"},
        "outage-sweep": {"--n": "2", "--snr-db": "0:10:10", "--trials": "100"},
        "af-sweep": {"--n": "2", "--trials": "100"},
        "validate": {"--trials": "100"},
    }
    INT_VALUES = ["abc", "", "1.5", "nan", "0", "-1", str(-(2**63) - 1)]
    FLOAT_VALUES = ["abc", "", "nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "5e-324"]
    STRING_VALUES = {
        "n_list": ["", ",", "abc", "0", "-1", "9", "1.5", "nan", "2,,3"],
        "snr_db": ["", "abc", "a:b:c", "nan", "inf", "-inf", "1e308", "-4000", "0:10",
                   "10:0:1", "0:10:0", "0:10:-1", "0:inf:1", "-inf:0:1", "0:1e300:1"],
    }

    @staticmethod
    def check(capsys, argv):
        code, _, err = run(capsys, *argv)
        ok = code in (0, 1, 2, 3) and "Traceback" not in err
        if code == cli.EXIT_USAGE:
            ok = ok and err.startswith(("usage error:", "error:"))
        return None if ok else (argv, code, err[-300:])

    def flag_values(self, param, tmp_path):
        if isinstance(param.type, click.Choice):
            return ["bogus", ""]
        if param.type is click.INT:
            return self.INT_VALUES
        if param.type is click.FLOAT:
            return self.FLOAT_VALUES
        if param.name in self.STRING_VALUES:
            return self.STRING_VALUES[param.name]
        # --out: a missing directory, a directory, no path.
        return [str(tmp_path / "missing" / "x"), str(tmp_path), ""]

    @pytest.mark.parametrize("command", sorted(BASE))
    def test_bad_flag_values_exit_with_a_documented_code(
        self, capsys, tmp_path, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        failures = []
        for param in cli.cli.commands[command].params:
            flag = param.opts[0]
            for value in self.flag_values(param, tmp_path):
                argv = {**self.BASE[command], flag: value}
                failures.append(self.check(
                    capsys, [command, *(item for pair in argv.items() for item in pair)]
                ))
        assert [f for f in failures if f] == []

    @pytest.mark.parametrize("argv,message", [
        (["outage-sweep", "--n", "2", "--snr-db", "0", "--trials", "-1"], "trials must be"),
        (["af-sweep", "--n", "2", "--trials", "-1"], "trials must be"),
        (["outage-sweep", "--n", "2", "--snr-db", "0", "--trials", "0", "--omega", "inf"],
         "calibration_omega must be positive and finite"),
        (["outage-sweep", "--n", "2", "--snr-db", "0", "--trials", "100", "--omega", "0"],
         "calibration_omega must be positive and finite"),
        (["af-sweep", "--n", "2", "--trials", "0", "--b1", "inf"],
         "must be finite and exceed 1"),
        (["outage-sweep", "--n", "2", "--snr-db", "0", "--trials", "100", "--gamma-o", "inf"],
         "finite and positive"),
        (["outage-sweep", "--n", "2", "--trials", "100", "--gamma-o", "5e-324"],
         "not a positive float"),
        (["outage-sweep", "--n", "2", "--trials", "100", "--gamma-o", "1e-323"],
         "not a positive float"),
        (["outage-sweep", "--n", "2", "--trials", "0", "--snr-db", "0:inf:1"], "must be finite"),
        (["outage-sweep", "--n", "2", "--trials", "0", "--snr-db", "-inf:0:1"], "must be finite"),
        (["outage-sweep", "--n", "2", "--trials", "0", "--snr-db", "0:1e300:1"],
         "more than 10000 points"),
        (["outage-sweep", "--n", "2", "--trials", "0", "--snr-db", "0:10:inf"], "must be finite"),
        (["outage-sweep", "--n", "2", "--trials", "0", "--gamma-o", "1e308", "--snr-db", "-300"],
         "= inf, not a positive float"),
    ])
    def test_out_of_domain_value_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and message in err
        assert out == ""

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "0", "trials must be an integer >= 1, got 0"),
        ("--seed", "-1", "master_seed must be an int that fits in 64 bits, got -1"),
        ("--workers", "0", "workers must be an integer >= 1, got 0"),
    ], ids=["trials", "seed", "workers"])
    def test_validate_checks_its_settings_before_any_criterion(
        self, capsys, monkeypatch, flag, value, message
    ):
        def criterion_ran(config):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(cli.validation, "_CRITERIA", (criterion_ran,))
        monkeypatch.setattr(cli.validation, "_criterion_determinism", criterion_ran)
        argv = {"--trials": "1000", flag: value}
        code, out, err = run(capsys, "validate", *(item for pair in argv.items() for item in pair))
        assert code == cli.EXIT_USAGE
        assert err == f"usage error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("command,argv", [
        ("outage-sweep", ["--n", "2", "--snr-db", "0:4:2"]),
        ("af-sweep", ["--n", "2"]),
    ], ids=["outage-sweep", "af-sweep"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-5", "master_seed must be an int that fits in 64 bits, got -5"),
        ("--workers", "0", "workers must be an integer >= 1, got 0"),
        ("--workers", "-3", "workers must be an integer >= 1, got -3"),
    ], ids=["seed=-5", "workers=0", "workers=-3"])
    def test_analytics_only_sweep_checks_seed_and_workers(
        self, capsys, command, argv, flag, value, message
    ):
        # --trials 0 runs no simulation, yet its header names the seed.
        for trials in ("0", "100"):
            code, out, err = run(capsys, command, *argv, "--trials", trials, flag, value)
            assert code == cli.EXIT_USAGE
            assert err == f"usage error: {message}\n"
            assert out == ""

    @pytest.mark.parametrize("orders", ["Infinity", "1e400", "true", "2,2.5"])
    def test_cascade_order_that_is_not_a_whole_number_is_usage_error(self, capsys, orders):
        code, out, err = run(capsys, "outage-sweep", "--snr-db", "0", "--trials", "0",
                             "--n", orders)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: cannot parse cascade-order list")
        assert out == ""

    @pytest.mark.parametrize("trials", ["0", "100"])
    def test_repeated_grid_point_is_usage_error(self, capsys, trials):
        # 0 and 1e-16 dB both give the linear SNR 1.0, so one threshold.
        code, out, err = run(capsys, "outage-sweep", "--n", "2", "--trials", trials,
                             "--snr-db", "0:4e-16:1e-16")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and "thresholds must be distinct" in err
        assert out == ""

    def test_moment_term_past_the_float_range_leaves_af_closed_empty(self, capsys):
        code, out, err = run(capsys, "af-sweep", "--n", "2", "--trials", "0",
                             "--b1", "1e308", "--b2", "1e308")
        assert code == cli.EXIT_OK and err == ""
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        assert [r["af_closed"] for r in rows] == ["", ""]


class TestOutputBytes:
    """sha256 of small outputs, pinned so that any change to a report
    or table byte shows.  The digests hold for the numpy/scipy builds the
    project is tested with (numpy 2.4, scipy 1.17, x86-64); another build
    may move a float's last digit, so check such a diff before re-pinning."""

    def test_validate_report(self, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "validate", "--trials", "20000", "--seed", "3", "--out", str(report_file),
        )
        assert code == cli.EXIT_VALIDATION
        assert hashlib.sha256(report_file.read_bytes()).hexdigest() == (
            "233331326d877ee7c4cdbd9ceee2c791e33d4e98dfd1cacb9633da7da178d875"
        )

    def test_outage_sweep_json(self, capsys):
        # 4.656854249492381 is 2^2.5 - 1, the threshold of rate 2.5.
        code, out, _ = run(
            capsys, "outage-sweep", "--n", "2,3", "--trials", "20000",
            "--gamma-o", "4.656854249492381",
            "--omega", "1.0", "--format", "json",
        )
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dab61998a33a84871bf19d3bd415086a572a4f6b9ccc48bdb5a683de4c3b714e"
        )

    def test_deep_cascade_sweep_csv(self, capsys):
        # One pass serves n = 5..8; 30000 trials leave 2768 trials of the
        # final 16384-trial block unread.
        code, out, _ = run(
            capsys, "outage-sweep", "--n", "5,6,7,8", "--nt", "4", "--nr", "4",
            "--snr-db", "0:40:10", "--trials", "30000", "--seed", "1",
        )
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bd921ac8be2ed85f44e7c03bdb6ea3ec8a055a1ed8120a59b05a5a3e539452e4"
        )

    def test_af_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "af-sweep", "--trials", "20000", "--seed", "3")
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4329c3f1eb3178705791b7168f4bebc340a6ec27957a0fd99b385286fa73149f"
        )

    def test_params_table(self, capsys):
        code, out, _ = run(capsys, "params", "--n", "1,2,3,4,5,6,7,8")
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "674ab770ceab1702538054228b676c71d6b46d3071227f2e0842cad10d688830"
        )

    def test_analytic_outage_sweep_csv(self, capsys):
        # Every cascade order on a 0.5 dB grid: 2 x 8 x 141 analytic rows.
        code, out, _ = run(
            capsys, "outage-sweep", "--trials", "0", "--n", "1,2,3,4,5,6,7,8",
            "--snr-db", "-10:60:0.5",
        )
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "86b6aa9b5602ad5755be34d9baa627609cd2f1bd7b04f24c56c9d11404114b79"
        )
