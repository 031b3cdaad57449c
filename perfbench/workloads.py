"""The benchmark's workloads: inputs made from the seed, and output checks.

acceptance    ``nrayleigh validate`` at 10^6 trials on 2 workers.  The
              release gate; almost all of its time is Monte-Carlo, and it
              is the only workload that simulates a channel twice.
deep-cascade  ``nrayleigh outage-sweep`` at n = 5..8, 4x4 antennas, one
              worker.  Few, large simulations; peak memory is chunk memory.
link-design   In-process analytics only: required-SNR solves, dense outage
              curves and amount-of-fading rows.  Bypasses Monte-Carlo.

Each workload is a closed loop with one caller.  The workload seed is the
master seed for the CLI workloads and the generator of every link-design
input; the program sees only the generated inputs.

Checks return a list of problems; an empty list means the output is
correct.  ``ConvergenceError`` and ``NonPhysicalMomentError`` are the
program's documented refusals: they are counted as refused operations,
never raised and never dropped.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

WORKLOADS = ("acceptance", "deep-cascade", "link-design")

ACCEPTANCE_TRIALS = 1_000_000
ACCEPTANCE_WORKERS = 2
# c02-c05, c07 and c08 fail by design of the published formulas.
ACCEPTANCE_PASSING = frozenset({"c01", "c06", "c09", "c10"})
ACCEPTANCE_EXIT = 2

DEEP_ORDERS = (5, 6, 7, 8)
DEEP_ANTENNAS = 4
DEEP_SNR_DB = (0, 40, 2)  # start, stop, step
DEEP_GRID_DB = [float(db) for db in range(DEEP_SNR_DB[0], DEEP_SNR_DB[1] + 1, DEEP_SNR_DB[2])]
# Four 65536-trial partitions per cascade order.
DEEP_TRIALS = 262_144
DEEP_COLUMNS = [
    "scheme", "n", "n_t", "n_r", "snr_db", "gamma_o", "p_out_analytic",
    "p_out_asymptotic", "p_out_mc", "ci_low", "ci_high", "trials", "seed",
    "low_confidence",
]

LINK_SOLVES = 2000
LINK_TARGET_LOG10 = (-12.0, -1.0)
LINK_RATE = (0.5, 4.0)
LINK_CURVE_DB = (-10.0, 60.0, 0.05)
LINK_AF_ORDERS = (2, 3, 4, 5, 6)
LINK_AF_ANTENNA_PAIRS = 4
ROUNDTRIP_REL_TOL = 1e-6
SCHEMES = ("tas-mrc", "tas-sc")


def cli_argv(workload: str, seed: int, out_path: str) -> list[str]:
    """Arguments for ``nrayleigh.cli.main`` of a CLI workload."""
    if workload == "acceptance":
        return ["validate", "--trials", str(ACCEPTANCE_TRIALS), "--seed", str(seed),
                "--workers", str(ACCEPTANCE_WORKERS), "--out", out_path]
    if workload == "deep-cascade":
        return ["outage-sweep", "--scheme", "both",
                "--n", ",".join(str(n) for n in DEEP_ORDERS),
                "--nt", str(DEEP_ANTENNAS), "--nr", str(DEEP_ANTENNAS),
                "--snr-db", ":".join(map(str, DEEP_SNR_DB)), "--trials", str(DEEP_TRIALS),
                "--seed", str(seed), "--workers", "1", "--out", out_path]
    raise ValueError(f"{workload} is not a CLI workload")


def link_design_inputs(seed: int) -> dict:
    """Every link-design input, drawn from ``seed``."""
    rng = random.Random(seed)

    def antennas() -> tuple[int, int]:
        return rng.randint(1, 4), rng.randint(1, 4)

    solve_list = []
    for _ in range(LINK_SOLVES):
        n_t, n_r = antennas()
        solve_list.append({
            "scheme": rng.choice(SCHEMES), "n": rng.randint(1, 8), "n_t": n_t, "n_r": n_r,
            "target": 10.0 ** rng.uniform(*LINK_TARGET_LOG10), "rate": rng.uniform(*LINK_RATE),
        })
    start, stop, step = LINK_CURVE_DB
    grid = [start + k * step for k in range(int(round((stop - start) / step)) + 1)]
    curves = []
    for scheme in SCHEMES:
        for n in range(1, 9):
            n_t, n_r = antennas()
            curves.append({"scheme": scheme, "n": n, "n_t": n_t, "n_r": n_r,
                           "rate": rng.uniform(*LINK_RATE), "snr_db": grid})
    pairs = [antennas() for _ in range(LINK_AF_ANTENNA_PAIRS)]
    af_rows = [{"scheme": scheme, "n": n, "n_t": n_t, "n_r": n_r}
               for n in LINK_AF_ORDERS for scheme in SCHEMES for n_t, n_r in pairs]
    return {"solves": solve_list, "curves": curves, "af_rows": af_rows}


def roundtrip_ok(target: float, achieved: float) -> bool:
    """outage(required_snr(target)) must give the target back."""
    return abs(achieved - target) <= ROUNDTRIP_REL_TOL * target


def _finite_positive(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value > 0.0


class Tally:
    """Operations attempted, refused (documented errors) and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.refused = 0
        self.problems: list[str] = []

    def run(self, label: str, op, refusals: tuple) -> object:
        """Run one operation; ``op`` returns (output, problem or None)."""
        self.attempted += 1
        try:
            output, problem = op()
        except refusals as exc:
            self.refused += 1
            return {"refused": type(exc).__name__}
        except Exception as exc:  # any other error is a failed operation
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return {"error": type(exc).__name__}
        if problem is not None:
            self.problems.append(f"{label}: {problem}")
        return output


def run_link_design(nr, inputs: dict) -> tuple[dict, Tally]:
    """Run every link-design operation through names in ``nr.__all__``.

    Returns the outputs (for byte comparison across runs) and the tally.
    """
    tally = Tally()
    refusals = (nr.ConvergenceError, nr.NonPhysicalMomentError)
    scheme_of = {s.value: s for s in nr.Scheme}

    def solve(q):
        scheme, query = scheme_of[q["scheme"]], nr.OutageQuery(rate=q["rate"])
        cfg = nr.ChannelConfig(n=q["n"], n_t=q["n_t"], n_r=q["n_r"], mean_snr=1.0)
        snr = nr.required_snr(scheme, q["target"], query, cfg)
        achieved = nr.outage(scheme, query, cfg.with_mean_snr(snr))
        if roundtrip_ok(q["target"], achieved):
            return snr, None
        return snr, f"outage at the solved SNR is {achieved!r}, target {q['target']!r}"

    def curve(c):
        scheme, query = scheme_of[c["scheme"]], nr.OutageQuery(rate=c["rate"])
        exact, asymptotic = [], []
        for db in c["snr_db"]:
            cfg = nr.ChannelConfig(n=c["n"], n_t=c["n_t"], n_r=c["n_r"], mean_snr=10.0 ** (db / 10.0))
            exact.append(nr.outage(scheme, query, cfg))
            asymptotic.append(nr.outage_asymptotic(scheme, query, cfg)[0])
        if not all(0.0 <= p <= 1.0 for p in exact):
            return [exact, asymptotic], "outage outside [0, 1]"
        if any(b > a * (1.0 + 1e-9) for a, b in zip(exact, exact[1:])):
            return [exact, asymptotic], "outage increases with mean SNR"
        if not all(math.isfinite(p) and p >= 0.0 for p in asymptotic):
            return [exact, asymptotic], "asymptotic outage not finite and nonnegative"
        return [exact, asymptotic], None

    def af_row(r):
        scheme = scheme_of[r["scheme"]]
        cfg = nr.ChannelConfig(n=r["n"], n_t=r["n_t"], n_r=r["n_r"], mean_snr=1.0,
                               calibration_omega=1.0)
        closed = nr.amount_of_fading(scheme, cfg, nr.default_weights(r["n"]))
        m1 = nr.moment_oracle(1, scheme, cfg)
        m2 = nr.moment_oracle(2, scheme, cfg)
        values = {"closed": closed, "oracle": m2 / (m1 * m1) - 1.0}
        if scheme is nr.Scheme.TAS_MRC:
            values["bound"] = nr.af_bound_tas_mrc(cfg)
        bad = sorted(k for k, v in values.items() if not _finite_positive(v))
        return values, (f"AF not finite and positive: {bad}" if bad else None)

    outputs = {
        "solves": [tally.run(f"solve {i}", lambda q=q: solve(q), refusals)
                   for i, q in enumerate(inputs["solves"])],
        "curves": [tally.run(f"curve {i}", lambda c=c: curve(c), refusals)
                   for i, c in enumerate(inputs["curves"])],
        "af_rows": [tally.run(f"af row {i}", lambda r=r: af_row(r), refusals)
                    for i, r in enumerate(inputs["af_rows"])],
    }
    return outputs, tally


def check_acceptance(exit_code: int | None, report: bytes) -> list[str]:
    problems = []
    if exit_code != ACCEPTANCE_EXIT:
        problems.append(f"exit code {exit_code}, expected {ACCEPTANCE_EXIT}")
    try:
        criteria = json.loads(report)["criteria"]
        passing = {c["id"] for c in criteria if c["passed"]}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if passing != ACCEPTANCE_PASSING:
        problems.append(f"passing criteria {sorted(passing)}, expected {sorted(ACCEPTANCE_PASSING)}")
    if len(criteria) != 10:
        problems.append(f"{len(criteria)} criteria, expected 10")
    return problems


def check_deep_cascade(exit_code: int | None, table: bytes) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    try:
        lines = [ln for ln in table.decode().splitlines() if not ln.startswith("#")]
        reader = csv.DictReader(io.StringIO("\n".join(lines)))
        rows = list(reader)
        header = reader.fieldnames
        mc = {(r["scheme"], int(r["n"]), float(r["snr_db"])): r for r in rows}
        values = {k: tuple(float(r[c]) for c in ("p_out_mc", "ci_low", "ci_high"))
                  for k, r in mc.items()}
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return problems + [f"unreadable table: {exc!r}"]
    if header != DEEP_COLUMNS:
        problems.append(f"columns {header}")
    expected = {(s, n, db) for s in SCHEMES for n in DEEP_ORDERS for db in DEEP_GRID_DB}
    if len(rows) != len(expected) or set(mc) != expected:
        return problems + [f"{len(rows)} rows, expected one per (scheme, n, snr_db): {len(expected)}"]
    for key, (p, low, high) in sorted(values.items()):
        if not low <= p <= high:
            problems.append(f"{key}: p_out_mc {p!r} outside [{low!r}, {high!r}]")
        # MRC's statistic is never below SC's on a shared channel draw.
        if key[0] == "tas-mrc" and p > values[("tas-sc",) + key[1:]][0]:
            problems.append(f"{key}: TAS/MRC outage {p!r} above TAS/SC")
    return problems


CHECKS = {"acceptance": check_acceptance, "deep-cascade": check_deep_cascade}
