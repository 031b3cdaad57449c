"""nrayleigh benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Every operation of the workload runs in a fresh
interpreter (``child.py``).  With ``--trace 0`` the workload is repeated
until ``--seconds`` have passed (at least twice, so output bytes can be
compared across runs) and the end-to-end metrics are reported.  With
``--trace 1`` it runs once plain and once traced, and the per-layer
metrics are reported.  Every output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are kept in ``.perfbench/``.

Exit status is 0 when a result was printed, 2 when the benchmark could not
run (for example, no ``src/nrayleigh`` in the current directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 2
SETUP_SAMPLES = 5
# Every child is killed if the whole invocation would run past this.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
PER_LAYER = {
    "montecarlo.calls": "count", "montecarlo.self_s": "s", "montecarlo.trials": "count",
    "montecarlo.hops": "count", "montecarlo.mhops_per_s": "Mhop/s",
    "montecarlo.unique_trial_share": "ratio", "montecarlo.parallel_eff": "ratio",
    "schemes.calls": "count", "schemes.self_s": "s", "schemes.outage.us_per_call": "us",
    "schemes.required_snr.us_per_call": "us", "schemes.outage_evals_per_solve": "count",
    "specfun.calls": "count", "specfun.self_s": "s", "specfun.us_per_call": "us",
    "moments.calls": "count", "moments.self_s": "s", "moments.moment_oracle.ms_per_call": "ms",
    "validation.self_s": "s", "cli.self_s": "s", "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Iteration:
    """One checked run of the workload in a fresh interpreter."""

    wall_s: float
    setup_s: float
    rss_mb: float
    output: bytes
    attempted: int
    refused: int
    failed: int
    problems: list[str]
    result: dict

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class Bench:
    """Starts children for one workload and seed; owns their scratch files."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.state = root / ".perfbench"
        self.workdir = self.state / f"run-{os.getpid()}"
        self.inputs = self.workdir / "inputs.json"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._count = 0

    def __enter__(self) -> "Bench":
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.workload == "link-design":
            self.inputs.write_text(json.dumps(workloads.link_design_inputs(self.seed)))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _tag(self) -> str:
        """A fresh path prefix for one child's files."""
        self._count += 1
        return str(self.workdir / str(self._count))

    def child(self, spec: dict, tag: str) -> tuple[dict, float, float]:
        """Run child.py on ``spec``; return its result, peak RSS (MB) and set-up time (s)."""
        spec = dict(spec, result=f"{tag}.result.json")
        Path(f"{tag}.spec.json").write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        with open(f"{tag}.stdout", "wb") as out, open(f"{tag}.stderr", "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), f"{tag}.spec.json"],
                                    cwd=self.root, env=env, stdout=out, stderr=err)
            usage = _wait(proc, self.deadline)
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            tail = Path(f"{tag}.stderr").read_text(errors="replace")[-2000:]
            raise BenchError(f"child exited {proc.returncode} without a result:\n{tail}") from None
        src = (self.root / "src").resolve()
        if not Path(result["module"]).resolve().is_relative_to(src):
            raise BenchError(f"imported {result['module']}, not the checkout under {src}")
        return result, usage.ru_maxrss / 1024.0, result["ready"] - started

    def setup_time(self) -> float:
        return self.child({"workload": "setup"}, self._tag())[2]

    def iteration(self, trace: bool) -> Iteration:
        tag = self._tag()
        out = Path(f"{tag}.out")
        spec = {"workload": self.workload, "trace": trace, "out": str(out),
                "spans": str(self.state / f"spans-{self.workload}-seed{self.seed}.npz")}
        if self.workload == "link-design":
            spec["inputs"] = str(self.inputs)
        else:
            spec["argv"] = workloads.cli_argv(self.workload, self.seed, str(out))
        result, rss_mb, setup_s = self.child(spec, tag)
        check_start = time.perf_counter()
        output = out.read_bytes() if out.exists() else b""
        if self.workload == "link-design":
            # One problem per failed operation.
            attempted, refused, problems = result["attempted"], result["refused"], result["problems"]
            failed = len(problems)
        else:
            attempted, refused = 1, 0
            problems = workloads.CHECKS[self.workload](result["exit_code"], output)
            if "error" in result:
                problems.append(result["error"])
            failed = int(bool(problems))
        wall_s = result["op_s"] + time.perf_counter() - check_start
        return Iteration(wall_s, setup_s, rss_mb, output, attempted, refused, failed, problems, result)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` and return its resource usage; kill it at ``deadline``."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > deadline:
                raise BenchError(f"the run did not finish within {RUN_LIMIT_S:.0f} s")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise


def _compare_outputs(runs: list[Iteration], what: str) -> None:
    """Outputs of one commit and seed must be byte-identical across runs."""
    for run in runs[1:]:
        if run.output != runs[0].output:
            run.fail(f"output bytes differ from the first run ({what})")


def measure(bench: Bench, seconds: float) -> tuple[list[Iteration], dict]:
    bench.setup_time()  # first import compiles bytecode; not a sample
    runs: list[Iteration] = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        runs.append(bench.iteration(trace=False))
        now = time.monotonic()
        if len(runs) >= MIN_ITERATIONS and now - begin + (now - started) > seconds:
            break
    _compare_outputs(runs, "repeated run")
    setups = [r.setup_s for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_time())
    attempted = sum(r.attempted for r in runs)
    ok = attempted - sum(r.failed + r.refused for r in runs)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "success_rate": ok / attempted,
    }
    return runs, metrics


def measure_traced(bench: Bench) -> tuple[list[Iteration], dict]:
    bench.setup_time()
    plain = bench.iteration(trace=False)
    traced = bench.iteration(trace=True)
    _compare_outputs([plain, traced], "traced run")
    metrics = dict(traced.result["layers"])
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["cli.output_bytes"] = len(traced.output) if bench.workload != "link-design" else 0
    for layer in traced.result["absent"]:
        print(f"layer {layer} is absent: its metrics read 0", file=sys.stderr)
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so that running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    root = Path.cwd()
    if not (root / "src" / "nrayleigh" / "__init__.py").is_file():
        print(f"no nrayleigh source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        with Bench(root, args.workload, args.seed) as bench:
            if args.trace:
                runs, metrics = measure_traced(bench)
                units = PER_LAYER
            else:
                runs, metrics = measure(bench, args.seconds)
                units = END_TO_END
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    refused = sum(r.refused for r in runs)
    for run in runs:
        for problem in run.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} runs={len(runs)} attempted={attempted} "
          f"failed={failed} refused={refused} error_rate={(failed + refused) / attempted!r} "
          f"wall_s={[round(r.wall_s, 4) for r in runs]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
