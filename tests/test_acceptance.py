"""Acceptance criteria: how the report evaluates each release criterion.

Reads the report of ``nrayleigh validate`` at full scale (1e6 trials,
seed 1, 2 workers), built once per session by ``conftest.seed1_report``,
and prints one ``ACCEPTANCE cNN PASS/FAIL`` line per criterion.
The verdicts belong to the report: ``nrayleigh validate`` gives them
(4 of 10 criteria pass, exit code 2).  These tests check that each verdict
is computed correctly.

* c01, c06, c09 and c10 are fully under the implementation's control;
  their tests assert that they pass.
* c02-c05, c07 and c08 fail because of the published formulas (README,
  "Known deviations").  Their tests check the report's numbers against
  references built only from scipy (never ``nrayleigh.schemes`` or
  ``moments``), every sub-check that the README says the implementation
  meets, and that each verdict equals the criterion's stated rule applied
  to the reported rows.  A regression in the TAS/SC model, the
  required-SNR solver, the power law or the moment sums turns them red,
  and so does a verdict that disagrees with its own rows.  The program
  evaluates P with the same scipy ``gammainc`` and inverts it with the same
  ``gammaincinv``, so these references pin how the formulas are assembled;
  the special function itself is pinned by c01's frozen mpmath table.

The references, all for the exact model CDF F(g) = P(s, x)^k with
x = w (2s/Omega) (gamma_o / (rho g))^(1/n):

* c04/c05: with P(s, x) = x^s e^-x sum_j x^j / Gamma(s+j+1), the leading
  power law x^s / Gamma(s+1) exceeds P(s, x) by exactly
  e^x / M(1, s+1, x) (M is Kummer's function), and the local log-log
  slope is d / M(1, s+1, x).  The power law is promised only as z -> 0,
  so its promise is asserted where M(1, s+1, x) - 1 = 1e-3.
* c03: the required SNR inverts in closed form with ``gammaincinv``.
* c07/c08: the bound-derived moment sum and the moments of the maximum of
  k i.i.d. unit-scale Gamma(s) variables, by quadrature of its density.
"""

import copy
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, optimize, special

from nrayleigh import schemes
from nrayleigh.fading import fading_params
from nrayleigh.schemes import ChannelConfig, OutageQuery, Scheme
from nrayleigh.validation import _GATE_QUERY

# The gate's outage threshold, the one every report is judged at.
GAMMA_O = _GATE_QUERY.threshold

# Documented model constants (README): the TAS/MRC calibration weight and
# the per-n fitted moment weighting coefficients (b1 TAS/MRC, b2 TAS/SC).
MRC_WEIGHT = 1.176
WEIGHTING_COEFFICIENTS = {
    2: (2.3, 1.5),
    3: (2.1, 1.5),
    4: (2.0, 1.5),
    5: (1.57, 1.5),
    6: (1.44, 1.68),
}
# c07's bound side: closed-form AF <= 1.10 * Monte-Carlo AF.
AF_BOUND_MARGIN = 1.10
# c04: the power law's fitted slope equals d to this relative tolerance.
ASYMPTOTE_SLOPE_REL_TOL = 1e-9

# Agreement of the report with the scipy references.
ANALYTIC_REL_TOL = 1e-9
POWER_LAW_REL_TOL = 1e-8
LEVEL_TOL_DB = 1e-6
MOMENT_REL_TOL = 1e-7
# Depth of the power-law promise: M(1, s+1, x) - 1 at the probe point.
KUMMER_EXCESS = 1e-3


@pytest.fixture(scope="module")
def report(seed1_report):
    """The seed-1 report at 10^6 trials on 2 workers, shared with the README tests."""
    assert seed1_report["config"]["gamma_o"] == GAMMA_O
    return seed1_report


def criterion(report, cid):
    entry = next(c for c in report["criteria"] if c["id"] == cid)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"ACCEPTANCE {entry['id']} {status}: {entry['name']}")
    return entry


def _close(value, reference, rel_tol):
    return math.isclose(value, reference, rel_tol=rel_tol, abs_tol=0.0)


def _db(value):
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class Model:
    """Exact model CDF F(g) = P(s, x)^k, evaluated with scipy only.

    x = scale * (gamma_o / (rho * g))^(1/n): TAS/MRC has s = m n_r,
    k = n_t, rho = n_r; TAS/SC has s = m, k = n_t n_r, rho = 1; and
    scale = w * 2s/Omega with calibration weight w.
    """

    s: float
    k: int
    n: int
    rho: int
    scale: float

    @property
    def diversity(self):
        return self.s * self.k / self.n

    def beta(self, snr):
        return self.scale * (self.rho * snr) ** (-1.0 / self.n)

    def x(self, snr):
        return self.beta(snr) * GAMMA_O ** (1.0 / self.n)

    def snr(self, x):
        return GAMMA_O * (self.scale / x) ** self.n / self.rho

    def outage(self, snr):
        return float(special.gammainc(self.s, self.x(snr)) ** self.k)

    def x_at(self, outage):
        return float(special.gammaincinv(self.s, outage ** (1.0 / self.k)))

    def snr_at(self, outage):
        return self.snr(self.x_at(outage))

    def power_law_ratio(self, x):
        """Leading-order power law over the full formula, exact."""
        return float((math.exp(x) / special.hyp1f1(1.0, self.s + 1.0, x)) ** self.k)

    def kummer_depth(self):
        """x where M(1, s+1, x) = 1 + KUMMER_EXCESS."""
        return optimize.brentq(
            lambda x: special.hyp1f1(1.0, self.s + 1.0, x) - 1.0 - KUMMER_EXCESS,
            1e-12, self.s + 1.0, xtol=1e-15, rtol=1e-14,
        )

    def moment(self, order, snr):
        """E[g^order] = beta^-(n order) E[Y^(n order)], Y the maximum of k
        i.i.d. unit-scale Gamma(s) variables, by quadrature of its density."""
        p = self.n * order

        def integrand(y):
            if y <= 0.0:
                return 0.0
            ln_density = (p + self.s - 1.0) * math.log(y) - y - special.gammaln(self.s)
            return self.k * special.gammainc(self.s, y) ** (self.k - 1) * math.exp(ln_density)

        bulk = p + self.s
        total = sum(
            integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
            for a, b in ((0.0, bulk), (bulk, math.inf))
        )
        return float(self.beta(snr) ** (-p) * total)

    def bound_moment(self, order, b, snr):
        """E[g^order] from Q(s, y)^j ~ b^j y^(j(s-1)) e^(-jy) / Gamma(s)^j:
        sum_j (-1)^(j+1) C(k, j) p b^j Gamma(j(s-1)+p) / (Gamma(s)^j j^(j(s-1)+p))."""
        p = self.n * order
        total = 0.0
        for j in range(1, self.k + 1):
            a_j = j * (self.s - 1.0) + p
            ln_term = (
                j * (math.log(b) - special.gammaln(self.s))
                + special.gammaln(a_j)
                - a_j * math.log(j)
            )
            total += (-1.0) ** (j + 1) * special.binom(self.k, j) * p * math.exp(ln_term)
        return float(self.beta(snr) ** (-p) * total)

    def bound_af(self, b):
        m1 = self.bound_moment(1, b, 1.0)
        return self.bound_moment(2, b, 1.0) / (m1 * m1) - 1.0


def model(scheme, n, n_t, n_r, weight=1.0):
    fp = fading_params(n)
    if scheme == Scheme.TAS_MRC.value:
        s, k, rho = fp.m * n_r, n_t, n_r
    else:
        s, k, rho = fp.m, n_t * n_r, 1
    return Model(s=s, k=k, n=n, rho=rho, scale=weight * 2.0 * s / fp.omega)


def fitted_slope(outage_at, g_lo, g_hi):
    """|slope| of the least-squares line through log10 outage vs log10 SNR
    at 11 log-spaced points, the fit c04 makes, by np.polyfit as an
    independent reference."""
    pts = np.logspace(math.log10(g_lo), math.log10(g_hi), 11)
    logs = [math.log10(outage_at(g)) for g in pts]
    return abs(float(np.polyfit(np.log10(pts), logs, 1)[0]))


def program_config(n, n_t, n_r):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=1.0, calibration_omega=1.0)


# --- report-entry checks (no simulation; also run on tampered copies) ---


def check_c02(entry):
    details = entry["details"]
    assert details["band"] == [1e-3, 0.5] and details["rel_tol"] == 0.20
    lo, hi = details["band"]
    all_ok = True
    for key, curve in details["curves"].items():
        worst = 0.0
        binding_points = 0
        for p in curve["points"]:
            assert key == f"{p['scheme']},n={p['n']}"
            weight = MRC_WEIGHT if p["scheme"] == Scheme.TAS_MRC.value else 1.0
            ref = model(p["scheme"], p["n"], p["n_t"], p["n_r"], weight)
            expected = ref.outage(10.0 ** (p["snr_db"] / 10.0))
            assert _close(p["analytic"], expected, ANALYTIC_REL_TOL), (
                f"{key} at {p['snr_db']} dB: analytic {p['analytic']!r} vs "
                f"gammainc reference {expected!r}"
            )
            # The uncalibrated power law [x^s / Gamma(s+1)]^k, reported only
            # where it is a probability.
            power_law = model(p["scheme"], p["n"], p["n_t"], p["n_r"])
            x = power_law.x(10.0 ** (p["snr_db"] / 10.0))
            asymptotic = math.exp(
                power_law.k * (power_law.s * math.log(x) - special.gammaln(power_law.s + 1.0))
            )
            if asymptotic > 1.0:
                assert p["asymptotic"] is None, (key, p)
            else:
                assert _close(p["asymptotic"], asymptotic, POWER_LAW_REL_TOL), (key, p)
            binding = lo <= p["analytic"] <= hi
            rel = abs(p["empirical"] - p["analytic"]) / p["analytic"]
            ok = (not binding) or rel <= details["rel_tol"] or (
                p["ci_low"] <= p["analytic"] <= p["ci_high"]
            )
            assert (p["binding"], p["pass"]) == (binding, ok), (key, p)
            assert _close(p["rel_error"], rel, 1e-12), (key, p)
            if binding:
                binding_points += 1
                worst = max(worst, rel)
                all_ok = all_ok and ok
            if binding and p["scheme"] == Scheme.TAS_SC.value:
                assert ok, (
                    f"TAS/SC model misses the simulated channel at {key}, "
                    f"{p['snr_db']} dB: relative error {rel:.3f}, analytic "
                    f"{p['analytic']:.4g} outside CI [{p['ci_low']:.4g}, {p['ci_high']:.4g}]"
                )
        # A curve with no binding point fails the criterion.
        all_ok = all_ok and binding_points > 0
        assert binding_points > 0, f"{key} has no point inside the band"
        assert curve["worst_binding_rel_error"] == worst, key
    for n in (2, 3, 4, 5):
        mrc = details["curves"][f"tas-mrc,n={n}"]["points"]
        sc = details["curves"][f"tas-sc,n={n}"]["points"]
        assert [p["snr_db"] for p in mrc] == [p["snr_db"] for p in sc]
        for p_mrc, p_sc in zip(mrc, sc):
            assert p_mrc["empirical"] <= p_sc["empirical"], (
                f"n={n} {p_mrc['snr_db']} dB: simulated TAS/MRC outage "
                f"{p_mrc['empirical']} exceeds TAS/SC {p_sc['empirical']} on shared draws"
            )
    assert entry["passed"] == all_ok, (
        f"verdict {entry['passed']} disagrees with the 20%/CI and binding-point rule "
        f"on the rows ({all_ok})"
    )


def check_c03(entry):
    details = entry["details"]
    assert details["gap_targets_db"] == [5.0, 4.5, 3.9] and details["gap_tol_db"] == 0.5
    levels = details["levels_db"]
    assert len(levels) == 4
    expected = [_db(model("tas-mrc", n, 2, 3, MRC_WEIGHT).snr_at(1e-4)) for n in (2, 3, 4, 5)]
    for n, level, ref in zip((2, 3, 4, 5), levels, expected):
        assert abs(level - ref) <= LEVEL_TOL_DB, (
            f"n={n}: required SNR {level!r} dB vs closed-form inversion {ref!r} dB"
        )
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    assert details["gaps_db"] == pytest.approx(gaps, rel=0.0, abs=1e-12)
    gaps_ok = all(
        abs(g - t) <= details["gap_tol_db"]
        for g, t in zip(details["gaps_db"], details["gap_targets_db"])
    )
    levels_ok = all(
        abs(level - t) <= details["absolute_level_tol_db"]
        for level, t in zip(levels, details["absolute_level_targets_db"])
    )
    assert details["absolute_levels_ok"] == levels_ok
    assert details["gaps_ok"] == gaps_ok and entry["passed"] == gaps_ok, (
        f"verdict {entry['passed']} disagrees with gaps "
        f"{['%.2f' % g for g in details['gaps_db']]} dB vs "
        f"{details['gap_targets_db']} +-{details['gap_tol_db']} dB"
    )


def check_c04(entry):
    details = entry["details"]
    assert details["rel_tol"] == 0.05
    asym_tol = details["asymptote_rel_tol"]
    assert asym_tol == ASYMPTOTE_SLOPE_REL_TOL
    combos = details["combos"]
    assert {(c["scheme"], c["n_t"], c["n_r"], c["n"]) for c in combos} == {
        (s.value, 2, n_r, n) for s in Scheme for n_r in (2, 3) for n in (2, 3, 4)
    }
    all_ok = True
    for c in combos:
        label = f"{c['scheme']} {c['n_t']}x{c['n_r']} n={c['n']}"
        ref = model(c["scheme"], c["n"], c["n_t"], c["n_r"])
        d = ref.diversity
        assert _close(c["diversity"], d, 1e-12), label
        slope = fitted_slope(ref.outage, ref.snr_at(1e-6), ref.snr_at(1e-7))
        assert _close(c["fitted_slope"], slope, POWER_LAW_REL_TOL), (
            f"{label}: fitted slope {c['fitted_slope']!r} vs the same fit of "
            f"the exact curve {slope!r}"
        )
        assert _close(c["asymptote_slope"], d, asym_tol), label
        rel = abs(c["fitted_slope"] - c["diversity"]) / c["diversity"]
        asym_rel = abs(c["asymptote_slope"] - c["diversity"]) / c["diversity"]
        assert _close(c["rel_error"], rel, 1e-12), label
        assert c["asymptote_rel_error"] == pytest.approx(asym_rel, rel=0.0, abs=1e-15)
        ok = rel <= details["rel_tol"] and asym_rel <= asym_tol
        assert c["pass"] == ok, label
        all_ok = all_ok and ok
    assert entry["passed"] == all_ok, (
        f"verdict {entry['passed']} disagrees with the 5% slope rule on the rows ({all_ok})"
    )


def check_c05(entry):
    details = entry["details"]
    assert details["band"] == [0.9, 1.1]
    lo, hi = details["band"]
    all_ok = True
    for row in details["rows"]:
        label = f"{row['scheme']} n={row['n']}"
        ref = model(row["scheme"], row["n"], 2, 3)
        x = ref.x_at(1e-7)
        assert abs(row["snr_db"] - _db(ref.snr(x))) <= LEVEL_TOL_DB, label
        expected = ref.power_law_ratio(x)
        assert _close(row["ratio"], expected, POWER_LAW_REL_TOL), (
            f"{label}: ratio {row['ratio']!r} vs exact [e^x/M(1,s+1,x)]^k {expected!r}"
        )
        ok = lo <= row["ratio"] <= hi
        assert row["pass"] == ok, label
        all_ok = all_ok and ok
    assert {(r["scheme"], r["n"]) for r in details["rows"]} == {
        (s.value, n) for s in Scheme for n in (2, 3, 4)
    }
    assert entry["passed"] == all_ok, (
        f"verdict {entry['passed']} disagrees with the [0.9, 1.1] rule on the rows ({all_ok})"
    )


def check_c07(entry):
    details = entry["details"]
    margin = details["lower_bound_margin"]
    assert margin == AF_BOUND_MARGIN
    rows = details["rows"]
    assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
    assert details["issues"] == [], "closed-form moments went non-physical"
    for r in rows:
        b1, b2 = WEIGHTING_COEFFICIENTS[r["n"]]
        assert (r["b1"], r["b2"]) == (b1, b2), r["n"]
        for key, scheme, b in (("af_closed_mrc", "tas-mrc", b1), ("af_closed_sc", "tas-sc", b2)):
            expected = model(scheme, r["n"], 2, 2).bound_af(b)
            assert _close(r[key], expected, MOMENT_REL_TOL), (
                f"n={r['n']} {key}: {r[key]!r} vs scipy bound-derived AF {expected!r}"
            )

    def increasing(key):
        series = [r[key] for r in rows]
        return all(a < b for a, b in zip(series, series[1:]))

    increasing_ok = all(
        increasing(key) for key in ("af_closed_mrc", "af_closed_sc", "af_mc_mrc", "af_mc_sc")
    )
    ordering_ok = all(
        r["af_closed_mrc"] < r["af_closed_sc"]
        and r["af_mc_mrc"] < r["af_mc_sc"]
        and r["af_mc_mrc_ci"][1] < r["af_mc_sc_ci"][0]
        for r in rows
    )
    bound_ok = all(
        r["af_closed_mrc"] <= margin * r["af_mc_mrc"]
        and r["af_closed_sc"] <= margin * r["af_mc_sc"]
        for r in rows
    )
    assert (details["increasing_ok"], details["ordering_ok"], details["lower_bound_ok"]) == (
        increasing_ok, ordering_ok, bound_ok
    )
    assert increasing_ok, "AF is not increasing in n (closed form or Monte-Carlo)"
    assert bound_ok, "closed-form AF exceeds 1.10x the Monte-Carlo AF"
    assert entry["passed"] == (increasing_ok and ordering_ok and bound_ok), (
        f"verdict {entry['passed']} disagrees with increasing_ok={increasing_ok} "
        f"ordering_ok={ordering_ok} lower_bound_ok={bound_ok}"
    )


def check_c08(entry):
    details = entry["details"]
    assert details["rel_tol"] == 0.25
    rows = details["rows"]
    assert len(rows) == details["points"] == 20
    exceeding = 0
    for r in rows:
        label = f"{r['scheme']} n={r['n']} order {r['order']}"
        b1, b2 = WEIGHTING_COEFFICIENTS[r["n"]]
        b = b1 if r["scheme"] == Scheme.TAS_MRC.value else b2
        ref = model(r["scheme"], r["n"], 2, 2)
        closed = ref.bound_moment(r["order"], b, 10.0)
        oracle = ref.moment(r["order"], 10.0)
        assert r["closed_form"] > 0.0, label
        assert _close(r["closed_form"], closed, MOMENT_REL_TOL), (
            f"{label}: closed form {r['closed_form']!r} vs scipy bound sum {closed!r}"
        )
        assert _close(r["oracle"], oracle, MOMENT_REL_TOL), (
            f"{label}: oracle {r['oracle']!r} vs scipy density quadrature {oracle!r}"
        )
        rel = abs(r["closed_form"] - r["oracle"]) / r["oracle"]
        assert _close(r["rel_error"], rel, 1e-12), label
        assert r["pass"] == (rel <= details["rel_tol"]), label
        exceeding += rel > details["rel_tol"]
    allowed = int(0.20 * len(rows))
    assert (details["points_exceeding"], details["allowed_exceeding"]) == (exceeding, allowed)
    assert entry["passed"] == (exceeding <= allowed), (
        f"verdict {entry['passed']} disagrees with {exceeding}/{len(rows)} points "
        f"exceeding 25% (allowed {allowed})"
    )


CHECKS = {
    "c02": check_c02,
    "c03": check_c03,
    "c04": check_c04,
    "c05": check_c05,
    "c07": check_c07,
    "c08": check_c08,
}


# --- the criteria ---


def test_c01_special_function_accuracy(report):
    entry = criterion(report, "c01")
    details = entry["details"]
    assert entry["passed"], (
        f"max abs error {details['max_abs_error']:.3e} vs budget "
        f"{details['abs_tol']:.0e}, runtime_ok={details['runtime_under_budget']}"
    )


def test_c02_outage_curves_vs_montecarlo(report):
    check_c02(criterion(report, "c02"))


def test_c03_required_snr_gaps(report):
    check_c03(criterion(report, "c03"))


def test_c04_diversity_order_slope(report):
    entry = criterion(report, "c04")
    check_c04(entry)
    # The promise: the full formula's slope tends to d as z -> 0.  Fit the
    # program's outage over one outage decade below the probe depth.
    query = OutageQuery(threshold=GAMMA_O)
    for c in entry["details"]["combos"]:
        ref = model(c["scheme"], c["n"], c["n_t"], c["n_r"])
        g_top = ref.snr(ref.kummer_depth())
        g_bottom = ref.snr_at(ref.outage(g_top) / 10.0)
        base = program_config(c["n"], c["n_t"], c["n_r"])
        scheme = Scheme(c["scheme"])
        slope = fitted_slope(
            lambda g: schemes.outage(scheme, query, base.with_mean_snr(g)), g_top, g_bottom
        )
        rel = abs(slope - ref.diversity) / ref.diversity
        assert rel <= entry["details"]["rel_tol"], (
            f"{c['scheme']} {c['n_t']}x{c['n_r']} n={c['n']}: slope {slope:.4f} "
            f"vs d {ref.diversity:.4f} at outage {ref.outage(g_top):.3g}"
        )


def test_c05_asymptote_consistency(report):
    entry = criterion(report, "c05")
    check_c05(entry)
    # The promise: power law / full formula tends to 1 as z -> 0.
    lo, hi = entry["details"]["band"]
    query = OutageQuery(threshold=GAMMA_O)
    for row in entry["details"]["rows"]:
        ref = model(row["scheme"], row["n"], 2, 3)
        cfg = program_config(row["n"], 2, 3).with_mean_snr(ref.snr(ref.kummer_depth()))
        scheme = Scheme(row["scheme"])
        asym, _ = schemes.outage_asymptotic(scheme, query, cfg)
        ratio = asym / schemes.outage(scheme, query, cfg)
        assert lo <= ratio <= hi, (
            f"{row['scheme']} n={row['n']}: power-law/full ratio {ratio:.4f} at "
            f"outage {ref.outage(cfg.mean_snr):.3g}"
        )


def test_c06_af_closed_form_anchors(report):
    entry = criterion(report, "c06")
    failing = [c["check"] for c in entry["details"]["checks"] if not c["pass"]]
    assert entry["passed"], f"failing anchors: {failing}"


def test_c07_af_profile(report):
    check_c07(criterion(report, "c07"))


def test_c08_moments_vs_oracle(report):
    check_c08(criterion(report, "c08"))


def test_c09_montecarlo_base_case(report):
    entry = criterion(report, "c09")
    worst = max(r["sigmas"] for r in entry["details"]["rows"])
    assert entry["passed"], f"worst deviation {worst:.2f} sigma (budget 4)"


def test_c10_determinism(report):
    entry = criterion(report, "c10")
    assert entry["passed"], entry["details"]


def test_summary_accounting(report):
    passed = sum(1 for c in report["criteria"] if c["passed"])
    assert report["summary"]["criteria_passed"] == passed
    assert report["summary"]["criteria_total"] == len(report["criteria"]) == 10


# --- negative controls: each check rejects a tampered report entry ---

TAMPERED = [
    ("c02", ("details", "curves", "tas-mrc,n=3", "points", 4, "analytic")),
    ("c02", ("details", "curves", "tas-sc,n=2", "points", -1, "asymptotic")),
    ("c03", ("details", "levels_db", 2)),
    ("c04", ("details", "combos", 7, "fitted_slope")),
    ("c05", ("details", "rows", 4, "ratio")),
    ("c07", ("details", "rows", 1, "af_closed_sc")),
    ("c08", ("details", "rows", 9, "oracle")),
] + [(cid, ("passed",)) for cid in CHECKS]


@pytest.mark.parametrize(
    "cid,path", TAMPERED, ids=[f"{cid}-{path[-1]}" for cid, path in TAMPERED]
)
def test_check_rejects_tampered_entry(report, cid, path):
    """A number scaled by 1.001, or a flipped verdict, must fail the check."""
    entry = copy.deepcopy(next(c for c in report["criteria"] if c["id"] == cid))
    *parents, leaf = path
    node = functools.reduce(operator.getitem, parents, entry)
    value = node[leaf]
    node[leaf] = (not value) if isinstance(value, bool) else value * 1.001
    with pytest.raises(AssertionError):
        CHECKS[cid](entry)
