"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Not part of the repository's test suite (``testpaths`` is ``tests``).
"""

import json
from pathlib import Path

import pytest

import nrayleigh
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "DEEP_TRIALS", 2000)
    monkeypatch.setattr(workloads, "LINK_SOLVES", 40)
    monkeypatch.setattr(workloads, "LINK_CURVE_DB", (0.0, 40.0, 2.0))


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["deep-cascade", "link-design"])
def test_end_to_end_metrics_emitted(tiny, capsys, workload):
    result = _result(capsys, ["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["deep-cascade", "link-design"])
def test_per_layer_metrics_emitted(tiny, capsys, workload):
    result = _result(capsys, ["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "1"])
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    if workload == "deep-cascade":
        assert metrics["montecarlo.trials"]["value"] == 4 * 2000
        assert metrics["montecarlo.unique_trial_share"]["value"] == 1.0
        assert metrics["cli.output_bytes"]["value"] > 0
    else:
        assert metrics["montecarlo.calls"]["value"] == 0
        assert metrics["schemes.outage_evals_per_solve"]["value"] > 2


def test_tracing_keeps_outputs_and_restores_entry_points():
    inputs = workloads.link_design_inputs(5)
    inputs["solves"] = inputs["solves"][:10]
    plain, _ = workloads.run_link_design(nrayleigh, inputs)
    original = nrayleigh.outage
    tracer = Tracer()
    tracer.install()
    try:
        assert nrayleigh.outage is not original
        traced, _ = workloads.run_link_design(nrayleigh, inputs)
    finally:
        tracer.uninstall()
    assert nrayleigh.outage is original
    assert json.dumps(traced) == json.dumps(plain)
    assert tracer.absent == []
    assert tracer.layer_metrics()["schemes.required_snr.us_per_call"] > 0


def test_absent_layer_is_reported(monkeypatch):
    monkeypatch.setattr("tracer.LAYERS", ("schemes", "no_such_layer"))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["no_such_layer"]
    assert tracer.layer_metrics()["montecarlo.calls"] == 0


# Negative controls: a corrupted output must register as a failed operation.

def _acceptance_report(passing):
    ids = [f"c{i:02d}" for i in range(1, 11)]
    return json.dumps({"criteria": [{"id": c, "passed": c in passing} for c in ids]}).encode()


def test_acceptance_check_rejects_changed_passing_set():
    good = _acceptance_report(workloads.ACCEPTANCE_PASSING)
    assert workloads.check_acceptance(2, good) == []
    assert workloads.check_acceptance(2, _acceptance_report({"c01", "c06", "c09"}))
    assert workloads.check_acceptance(0, good)


def _deep_table():
    header = ",".join(workloads.DEEP_COLUMNS)
    rows = []
    for scheme, p in (("tas-mrc", 0.25), ("tas-sc", 0.5)):
        for n in workloads.DEEP_ORDERS:
            for db in workloads.DEEP_GRID_DB:
                rows.append(f"{scheme},{n},4,4,{db},1.0,0.1,0.1,{p},{p - 0.01},{p + 0.01},"
                            f"1000,1,0")
    return ("# command=outage-sweep\n" + header + "\n" + "\n".join(rows) + "\n").encode()


def test_deep_cascade_check_rejects_flipped_byte():
    table = _deep_table()
    assert workloads.check_deep_cascade(0, table) == []
    # 0.25 -> 0.75 in the first TAS/MRC row: above TAS/SC and outside its CI.
    flipped = table.replace(b"tas-mrc,5,4,4,0.0,1.0,0.1,0.1,0.25", b"tas-mrc,5,4,4,0.0,1.0,0.1,0.1,0.75")
    assert sum(a != b for a, b in zip(table, flipped)) == 1
    assert len(workloads.check_deep_cascade(0, flipped)) == 2
    assert workloads.check_deep_cascade(0, table[: len(table) // 2])


def test_repeated_output_with_flipped_byte_fails_the_operation():
    runs = [run.Iteration(1.0, 0.5, 10.0, output, 1, 0, 0, [], {})
            for output in (b"report", b"reporT")]
    run._compare_outputs(runs, "repeated run")
    assert [r.failed for r in runs] == [0, 1]


def test_link_design_counts_refusals_and_wrong_solutions(monkeypatch):
    # A SISO n=8 link at outage 1e-12 needs more than the solver's 200 dB.
    deep = {"scheme": "tas-sc", "n": 8, "n_t": 1, "n_r": 1, "target": 1e-12, "rate": 4.0}
    inputs = {"solves": [deep] + workloads.link_design_inputs(5)["solves"][:10],
              "curves": [], "af_rows": []}
    _, tally = workloads.run_link_design(nrayleigh, inputs)
    assert (tally.attempted, tally.refused, tally.problems) == (11, 1, [])
    solve = nrayleigh.required_snr
    monkeypatch.setattr(nrayleigh, "required_snr", lambda *a: solve(*a) * 1.01)
    _, corrupted = workloads.run_link_design(nrayleigh, inputs)
    assert len(corrupted.problems) == 10
