"""Acceptance validation suite: every release gate as a runnable check.

The gate has one operating point: every outage is judged at the threshold
of ``_GATE_QUERY``, gamma_o = 1, with the default calibration weights in
c02 and c03 and with unit weights in c04 and c05, whose power law is
uncalibrated.
Each criterion c01-c10 is a function of the run's ``SimSettings``
returning (passed, details); ``_run`` alone makes each report entry
{"id", "name", "passed", "details"}, numbering them in table order, and
``build_report`` runs them all into a JSON-serializable report whose
bytes depend only on the trial count and the master seed, never on the
worker count (c10 checks this by comparing c01-c09's reports at one and two
workers, each at the fixed probe size ``_DETERMINISM_TRIALS``).
The one exception reads the wall clock: c01's ``runtime_under_budget`` is
true when its table takes under 1 s (milliseconds unless the host stalls).
Each criterion's details carry the gate constants it is judged by, so a
report can be re-judged from its own bytes.  c01 judges scipy's incomplete
gamma through ``schemes._ln_reg_lower_gamma``, as the analytics call it;
c02 judges the table of ``montecarlo.outage_curves``, whose rows
``outage-sweep`` prints.  Only ``validate`` uses this module.  The suite
computes in ``math``, c04's slope fit included, so only the Monte-Carlo
numbers from ``montecarlo`` follow numpy's CPU dispatch.

Several checks are known to fail for structural reasons (the calibrated
closed form for TAS/MRC does not track a unit-power channel simulation,
and the small-threshold power law converges too slowly to match the full
formulas at the probed outage depths).  They are implemented exactly as
specified and report honest failures; see the package README for the
analysis.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from importlib import resources

from . import montecarlo, moments, schemes
from .fading import fading_params
from .montecarlo import SimSettings
from .schemes import ChannelConfig, OutageQuery, Scheme

__all__ = [
    "build_report",
    "report_to_json",
]

_GAMMA_ABS_TOL = 1e-10
_GAMMA_TIME_BUDGET_S = 1.0
_MC_MATCH_BAND = (1e-3, 0.5)
_MC_MATCH_REL_TOL = 0.20
_GAP_TARGETS_DB = (5.0, 4.5, 3.9)
_GAP_TOL_DB = 0.5
_LEVEL_TARGETS_DB = (8.0, 13.0, 17.5, 21.4)
_LEVEL_TOL_DB = 1.0
_SLOPE_REL_TOL = 0.05
_ASYMPTOTE_SLOPE_REL_TOL = 1e-9
_ASYMPTOTE_RATIO_BAND = (0.9, 1.1)
_AF_TRADEOFF_REL_TOL = 0.15
_AF_LOWER_BOUND_MARGIN = 1.10
_MOMENT_REL_TOL = 0.25
_MOMENT_FAIL_FRACTION = 0.20
_BASE_CASE_SIGMAS = 4.0
# c10's trials per probe report.
_DETERMINISM_TRIALS = 120_000
# c02's mean-SNR grid.
_SNR_GRID_DB = tuple(float(v) for v in range(0, 31, 2))
# The gate's outage threshold, gamma_o = 1: c02-c05 judge every outage at it.
_GATE_QUERY = OutageQuery(threshold=1.0)


def _log_grid(lo: float, hi: float, num: int) -> tuple[float, list[float]]:
    """(step, points) of np.logspace(lo, hi, num), by its own float arithmetic."""
    step = (hi - lo) / (num - 1)
    return step, [10.0 ** (k * step + lo) for k in range(num - 1)] + [10.0 ** hi]


def _criterion_incomplete_gamma_accuracy(settings: SimSettings) -> tuple[bool, dict]:
    """Incomplete gamma against the frozen 60-digit series oracle."""
    table = json.loads(
        resources.files("nrayleigh.data")
        .joinpath("reg_lower_gamma_oracle.json")
        .read_text()
    )
    entries = table["entries"]
    pairs = [(e["a"], e["x"]) for e in entries]
    start = time.perf_counter()
    values = [math.exp(schemes._ln_reg_lower_gamma(a, x)) for a, x in pairs]
    elapsed = time.perf_counter() - start
    max_err = max(abs(v - e["p"]) for v, e in zip(values, entries))
    runtime_ok = elapsed < _GAMMA_TIME_BUDGET_S
    return max_err <= _GAMMA_ABS_TOL and runtime_ok, {
        "points": len(entries),
        "max_abs_error": max_err,
        "abs_tol": _GAMMA_ABS_TOL,
        "runtime_under_budget": runtime_ok,
    }


def _criterion_outage_vs_montecarlo(settings: SimSettings) -> tuple[bool, dict]:
    """Analytic outage curves against the channel simulator, per scheme and n.

    Binding wherever the analytic outage is inside the comparison band:
    relative error within 20% or analytic value inside the empirical 95% CI.
    A curve with no binding point fails, so the criterion cannot pass
    vacuously.
    """
    per_curve = {}
    by_order = montecarlo.outage_curves(
        ChannelConfig(5, 2, 3, 1.0), settings, _SNR_GRID_DB, _GATE_QUERY, orders=(2, 3, 4, 5)
    )
    for n, curves in by_order.items():
        for scheme, curve in curves.items():
            records = []
            for db, ana, asym, est in curve:
                in_band = _MC_MATCH_BAND[0] <= ana <= _MC_MATCH_BAND[1]
                rel = abs(est.value - ana) / ana
                ok = (not in_band) or rel <= _MC_MATCH_REL_TOL or (
                    est.ci95_low <= ana <= est.ci95_high
                )
                records.append(
                    {
                        "scheme": scheme.value,
                        "n": n,
                        "n_t": 2,
                        "n_r": 3,
                        "snr_db": db,
                        "analytic": ana,
                        "asymptotic": asym,
                        "empirical": est.value,
                        "ci_low": est.ci95_low,
                        "ci_high": est.ci95_high,
                        "rel_error": rel,
                        "binding": in_band,
                        "pass": ok,
                    }
                )
            records.sort(key=lambda r: r["snr_db"])
            per_curve[f"{scheme.value},n={n}"] = {
                "worst_binding_rel_error": max(
                    (r["rel_error"] for r in records if r["binding"]), default=0.0
                ),
                "points": records,
            }
    passed = all(
        all(r["pass"] for r in c["points"]) and any(r["binding"] for r in c["points"])
        for c in per_curve.values()
    )
    return passed, {"band": list(_MC_MATCH_BAND), "rel_tol": _MC_MATCH_REL_TOL, "curves": per_curve}


def _criterion_required_snr_gaps(settings: SimSettings) -> tuple[bool, dict]:
    """Required-SNR spacing across cascade orders at outage 1e-4 (TAS/MRC 2x3).

    The gaps are threshold-invariant (required SNR scales linearly with the
    threshold); the absolute levels are defined under the unit-threshold
    assumption, which is the gate's threshold.
    """
    levels_db = []
    for n in (2, 3, 4, 5):
        g = schemes.required_snr(Scheme.TAS_MRC, 1e-4, _GATE_QUERY, ChannelConfig(n, 2, 3, 1.0))
        levels_db.append(10.0 * math.log10(g))
    gaps = [levels_db[i + 1] - levels_db[i] for i in range(3)]
    gap_errors = [abs(g - t) for g, t in zip(gaps, _GAP_TARGETS_DB)]
    gaps_ok = all(e <= _GAP_TOL_DB for e in gap_errors)
    level_errors = [abs(l - t) for l, t in zip(levels_db, _LEVEL_TARGETS_DB)]
    levels_ok = all(e <= _LEVEL_TOL_DB for e in level_errors)
    return gaps_ok, {
        "levels_db": levels_db,
        "gaps_db": gaps,
        "gap_targets_db": list(_GAP_TARGETS_DB),
        "gap_tol_db": _GAP_TOL_DB,
        "gaps_ok": gaps_ok,
        # Absolute levels assume a unit threshold (rate 1 bit/s/Hz);
        # reported alongside but not gating.
        "absolute_levels_assumption": "gamma_o = 1",
        "absolute_level_targets_db": list(_LEVEL_TARGETS_DB),
        "absolute_level_tol_db": _LEVEL_TOL_DB,
        "absolute_levels_ok": levels_ok,
    }


def _criterion_diversity_slope(settings: SimSettings) -> tuple[bool, dict]:
    """Fitted log-log outage slope vs d = mN/n over the outage decade below 1e-6."""
    combos = []
    for scheme in Scheme:
        for n_t, n_r in ((2, 3), (2, 2)):
            for n in (2, 3, 4):
                base = ChannelConfig(n, n_t, n_r, 1.0, 1.0)
                d = schemes.diversity_order(scheme, base)
                g_lo = schemes.required_snr(scheme, 1e-6, _GATE_QUERY, base)
                g_hi = schemes.required_snr(scheme, 1e-7, _GATE_QUERY, base)
                step, pts = _log_grid(math.log10(g_lo), math.log10(g_hi), 11)

                def slope(outage) -> float:
                    # The least-squares slope over the exponents lo + k*step,
                    # k = 0..10: sum (k - 5) y_k / (step * sum (k - 5)^2), and
                    # sum (k - 5)^2 = 110; fsum rounds the sum once.
                    logs = [math.log10(outage(base.with_mean_snr(g))) for g in pts]
                    return abs(math.fsum((k - 5) * y for k, y in enumerate(logs)) / (110 * step))

                fitted = slope(lambda cfg: schemes.outage(scheme, _GATE_QUERY, cfg))
                rel = abs(fitted - d) / d
                # Power-law slope of the asymptote must be exact.
                asym_slope = slope(
                    lambda cfg: schemes.outage_asymptotic(scheme, _GATE_QUERY, cfg)[0]
                )
                asym_rel = abs(asym_slope - d) / d
                ok = rel <= _SLOPE_REL_TOL and asym_rel <= _ASYMPTOTE_SLOPE_REL_TOL
                combos.append(
                    {
                        "scheme": scheme.value,
                        "n": n,
                        "n_t": n_t,
                        "n_r": n_r,
                        "diversity": d,
                        "fitted_slope": fitted,
                        "rel_error": rel,
                        "asymptote_slope": asym_slope,
                        "asymptote_rel_error": asym_rel,
                        "pass": ok,
                    }
                )
    return all(c["pass"] for c in combos), {
        "rel_tol": _SLOPE_REL_TOL, "asymptote_rel_tol": _ASYMPTOTE_SLOPE_REL_TOL, "combos": combos,
    }


def _criterion_asymptote_consistency(settings: SimSettings) -> tuple[bool, dict]:
    """Power-law/full-formula ratio at the SNR where the full formula is 1e-7."""
    rows = []
    for scheme in Scheme:
        for n in (2, 3, 4):
            base = ChannelConfig(n, 2, 3, 1.0, 1.0)
            g_star = schemes.required_snr(scheme, 1e-7, _GATE_QUERY, base)
            at_star = base.with_mean_snr(g_star)
            full = schemes.outage(scheme, _GATE_QUERY, at_star)
            asym, _ = schemes.outage_asymptotic(scheme, _GATE_QUERY, at_star)
            ratio = asym / full
            ok = _ASYMPTOTE_RATIO_BAND[0] <= ratio <= _ASYMPTOTE_RATIO_BAND[1]
            rows.append(
                {"scheme": scheme.value, "n": n, "snr_db": 10 * math.log10(g_star),
                 "ratio": ratio, "pass": ok}
            )
    return all(r["pass"] for r in rows), {"band": list(_ASYMPTOTE_RATIO_BAND), "rows": rows}


def _criterion_af_anchors(settings: SimSettings) -> tuple[bool, dict]:
    """Closed-form AF anchor identities and trade-off approximations."""
    checks = []

    def check(name: str, value: float, target: float, rel_tol: float) -> None:
        rel = abs(value - target) / abs(target)
        checks.append(
            {"check": name, "value": value, "target": target,
             "rel_error": rel, "rel_tol": rel_tol, "pass": rel <= rel_tol}
        )

    m1 = fading_params(1).m
    check("af_siso(1) == 1/m", moments.af_siso(1), 1.0 / m1, 1e-12)
    for n_r in (1, 2, 3):
        check(
            f"af_simo(1,{n_r}) == af_siso(1)/{n_r}",
            moments.af_simo(1, n_r),
            moments.af_siso(1) / n_r,
            1e-12,
        )
    for n_r in (2, 3):
        check(
            f"af_simo(2,{n_r}) ~ af_siso(2)/{n_r}",
            moments.af_simo(2, n_r),
            moments.af_siso(2) / n_r,
            _AF_TRADEOFF_REL_TOL,
        )
        check(
            f"af_simo(2,{n_r}) ~ 2.5^(2/{n_r})-1",
            moments.af_simo(2, n_r),
            2.5 ** (2.0 / n_r) - 1.0,
            _AF_TRADEOFF_REL_TOL,
        )
    # The compact double-cascade form diverges from the gamma-ratio value at
    # a single receive antenna; recorded here, deliberately not asserted.
    excluded = {
        "check": "af_simo(2,1) vs 2.5^2-1 (excluded from gating)",
        "value": moments.af_simo(2, 1),
        "target": 2.5**2 - 1.0,
        "rel_error": abs(moments.af_simo(2, 1) - (2.5**2 - 1.0)) / (2.5**2 - 1.0),
    }
    passed = all(c["pass"] for c in checks)
    return passed, {"checks": checks, "excluded": excluded}


def _criterion_af_profile(settings: SimSettings) -> tuple[bool, dict]:
    """AF vs cascade order at 2x2: monotonicity, scheme ordering, bound side."""
    mrc, sc = Scheme.TAS_MRC, Scheme.TAS_SC
    # (closed-form AF, Monte-Carlo estimate) per scheme, in cascade order.
    af = {mrc: [], sc: []}
    rows = []
    orders = (2, 3, 4, 5, 6)
    by_order = montecarlo.estimate_af(ChannelConfig(orders[-1], 2, 2, 10.0), settings, orders)
    for n in orders:
        w = moments.default_weights(n)
        cfg = ChannelConfig(n, 2, 2, 10.0)
        row = {"n": n, "b1": w.b1, "b2": w.b2}
        for scheme, tag in ((mrc, "mrc"), (sc, "sc")):
            closed, est = moments.amount_of_fading(scheme, cfg, w), by_order[n][scheme]
            af[scheme].append((closed, est))
            row[f"af_closed_{tag}"] = closed
            row[f"af_mc_{tag}"] = est.value
            row[f"af_mc_{tag}_ci"] = [est.ci95_low, est.ci95_high]
        rows.append(row)

    def increasing(values: list) -> bool:
        return all(a < b for a, b in zip(values, values[1:]))

    increasing_ok = all(
        increasing([c for c, _ in af[s]]) and increasing([e.value for _, e in af[s]])
        for s in Scheme
    )
    ordering_ok = all(
        c_mrc < c_sc and e_mrc.value < e_sc.value and e_mrc.ci95_high < e_sc.ci95_low
        for (c_mrc, e_mrc), (c_sc, e_sc) in zip(af[mrc], af[sc])
    )
    bound_ok = all(
        c <= _AF_LOWER_BOUND_MARGIN * e.value for s in Scheme for c, e in af[s]
    )
    return increasing_ok and ordering_ok and bound_ok, {
        "increasing_ok": increasing_ok,
        "ordering_ok": ordering_ok,
        "lower_bound_ok": bound_ok,
        "lower_bound_margin": _AF_LOWER_BOUND_MARGIN,
        # Every moment on this fixed grid is physical; the key keeps the report's bytes.
        "issues": [],
        "rows": rows,
    }


def _criterion_moments_vs_oracle(settings: SimSettings) -> tuple[bool, dict]:
    """Closed-form moments against quadrature of the exact model CDF."""
    rows = []
    for n in (2, 3, 4, 5, 6):
        w = moments.default_weights(n)
        cfg = ChannelConfig(n, 2, 2, 10.0)
        for scheme in Scheme:
            for order in (1, 2):
                value = moments.moment(order, scheme, cfg, w)
                oracle = moments.moment_oracle(order, scheme, cfg)
                rel = abs(value - oracle) / oracle
                ok = rel <= _MOMENT_REL_TOL
                rows.append(
                    {"scheme": scheme.value, "n": n, "order": order,
                     "closed_form": value, "oracle": oracle,
                     "rel_error": rel, "pass": ok}
                )
    exceed = sum(not r["pass"] for r in rows)
    allowed = int(_MOMENT_FAIL_FRACTION * len(rows))
    return exceed <= allowed, {
        "rel_tol": _MOMENT_REL_TOL,
        "points": len(rows),
        "points_exceeding": exceed,
        "allowed_exceeding": allowed,
        "rows": rows,
    }


def _criterion_rayleigh_base_case(settings: SimSettings) -> tuple[bool, dict]:
    """Degenerate 1x1, n=1 channel against the exact exponential CDF."""
    cfg = ChannelConfig(1, 1, 1, 1.0)
    _, grid = _log_grid(math.log10(0.01), math.log10(4.0), 20)
    estimates = montecarlo.empirical_cdf_pair(cfg, settings, grid)[cfg.n][Scheme.TAS_MRC]
    rows = []
    for g, est in zip(grid, estimates):
        exact = -math.expm1(-g / cfg.mean_snr)
        se = math.sqrt(exact * (1.0 - exact) / settings.trials)
        ok = abs(est.value - exact) <= _BASE_CASE_SIGMAS * se
        rows.append(
            {"gamma": g, "exact": exact, "empirical": est.value,
             "sigmas": abs(est.value - exact) / se, "pass": ok}
        )
    return all(r["pass"] for r in rows), {"sigma_budget": _BASE_CASE_SIGMAS, "rows": rows}


def _criterion_determinism(settings: SimSettings) -> tuple[bool, dict]:
    """Report bytes must not depend on the worker count."""
    probes = []
    for workers in (1, 2):
        probe = replace(settings, trials=_DETERMINISM_TRIALS, workers=workers)
        probes.append(report_to_json(_run(probe, _CRITERIA)))
    identical = probes[0] == probes[1]
    return identical, {
        "probe_trials": _DETERMINISM_TRIALS,
        "worker_counts": [1, 2],
        "identical": identical,
    }


# (name, judge) of c01-c09, in report order; build_report appends c10.
_CRITERIA = (
    ("incomplete-gamma accuracy vs 60-digit series oracle",
     _criterion_incomplete_gamma_accuracy),
    ("outage curves vs Monte-Carlo (2x3, calibrated)", _criterion_outage_vs_montecarlo),
    ("required-SNR gaps across n at outage 1e-4 (TAS/MRC 2x3)", _criterion_required_snr_gaps),
    ("diversity order from fitted outage slope", _criterion_diversity_slope),
    ("asymptote/full-formula ratio at outage 1e-7", _criterion_asymptote_consistency),
    ("closed-form AF anchors (SISO/SIMO reductions)", _criterion_af_anchors),
    ("AF vs n profile at 2x2 (monotone, ordered, bound side)", _criterion_af_profile),
    ("closed-form moments vs quadrature oracle (2x2)", _criterion_moments_vs_oracle),
    ("Monte-Carlo base case vs exact exponential CDF", _criterion_rayleigh_base_case),
)


def build_report(settings: SimSettings) -> dict:
    """Run the validation suite (c01-c10) and assemble the report dict.

    The report embeds the resolved scenario configuration but deliberately
    excludes execution knobs (worker count, timings) so that equal seeds
    give byte-identical serializations regardless of parallelism.
    """
    return _run(settings, _CRITERIA + (
        ("byte-identical reports across worker counts", _criterion_determinism),
    ))


def _run(settings: SimSettings, criteria: tuple) -> dict:
    """The report of the (name, judge) pairs of ``criteria``: entry k is
    {"id": "c<k>", "name", "passed", "details"}, counting from c01, with
    the judge's (passed, details) at ``settings``."""
    results = []
    for k, (name, judge) in enumerate(criteria, start=1):
        passed, details = judge(settings)
        results.append({"id": f"c{k:02d}", "name": name, "passed": passed, "details": details})
    passed = sum(1 for r in results if r["passed"])
    return {
        "config": {
            "trials": settings.trials,
            "master_seed": settings.master_seed,
            "gamma_o": _GATE_QUERY.threshold,
            "mrc_omega": schemes.DEFAULT_CALIBRATION[Scheme.TAS_MRC],
            "sc_omega": schemes.DEFAULT_CALIBRATION[Scheme.TAS_SC],
            "snr_grid_db": list(_SNR_GRID_DB),
            "weighting_coefficients": {
                str(n): list(pair) for n, pair in moments.CAPTION_COEFFS.items()
            },
            "determinism_probe_trials": _DETERMINISM_TRIALS,
        },
        "criteria": results,
        "summary": {
            "criteria_total": len(results),
            "criteria_passed": passed,
            "all_passed": passed == len(results),
        },
    }


def report_to_json(report: dict) -> str:
    """Canonical serialization: sorted keys, round-trip floats."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
