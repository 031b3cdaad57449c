"""One workload operation in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the workload, its inputs and where to write outputs.  The
script imports ``nrayleigh`` and ``nrayleigh.cli`` before anything else
and records the monotonic clock at that point, so the parent can measure
set-up time from the moment it started this process.  With ``"trace":
true`` it installs the span tracer, runs the operation, then replays the
largest simulation to measure parallel efficiency and writes the spans.
"""

import time

import nrayleigh
import nrayleigh.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = {"ready": READY, "module": os.path.abspath(nrayleigh.__file__)}
    if spec["workload"] == "setup":
        _write(spec["result"], result)
        return
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["workload"] == "link-design":
        with open(spec["inputs"], encoding="utf-8") as handle:
            inputs = json.load(handle)
        start = time.perf_counter()
        outputs, tally = workloads.run_link_design(nrayleigh, inputs)
        result["op_s"] = time.perf_counter() - start
        result.update(attempted=tally.attempted, refused=tally.refused, problems=tally.problems)
        with open(spec["out"], "w", encoding="utf-8") as handle:
            json.dump(outputs, handle, sort_keys=True)
    else:
        start = time.perf_counter()
        try:
            result["exit_code"] = nrayleigh.cli.main(spec["argv"])
        except Exception as exc:  # an error cli.main does not map is a failed operation
            result["exit_code"] = None
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["op_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["layers"]["montecarlo.parallel_eff"] = tracer.parallel_efficiency()
        result["absent"] = tracer.absent
        tracer.save(spec["spans"])
    _write(spec["result"], result)


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
