"""Post-processing SNR analytics: distributions, outage, asymptotics, gains."""

import math

import pytest

from nrayleigh.fading import branch_snr_params, fading_params, mrc_snr_cdf
from nrayleigh.schemes import (
    ChannelConfig,
    OutageQuery,
    Scheme,
    ConvergenceError,
    coding_gain,
    diversity_order,
    outage,
    outage_asymptotic,
    postproc_cdf,
    required_snr,
)

# mpmath, dps=50
ASYM_COEFF_MRC_2X3_N2 = 6617.5570150278958
CG_EXTRACTED_MRC_2X3_N2 = 0.50549437275247244
DB_PER_DOUBLING = 3.010299956639812


def cfg(n=2, n_t=2, n_r=3, mean_snr=10.0, omega=None):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr,
                         calibration_omega=omega)


class TestChannelConfig:
    def test_derived_total(self):
        assert cfg(n_t=2, n_r=3).total_antennas == 6

    def test_default_calibration_per_scheme(self):
        c = cfg()
        assert c.omega_for(Scheme.TAS_MRC) == 1.176
        assert c.omega_for(Scheme.TAS_SC) == 1.0
        forced = cfg(omega=1.0)
        assert forced.omega_for(Scheme.TAS_MRC) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0}, {"n_t": 0}, {"n_r": 0},
            {"mean_snr": 0.0}, {"mean_snr": -1.0}, {"omega": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        base = {"n": 2, "n_t": 2, "n_r": 3, "mean_snr": 10.0, "omega": None}
        base.update(kwargs)
        with pytest.raises(ValueError):
            cfg(**base)


class TestOutageQuery:
    def test_rate_maps_to_threshold(self):
        assert OutageQuery(rate=1.0).gamma_o == pytest.approx(1.0)
        assert OutageQuery(rate=2.0).gamma_o == pytest.approx(3.0)
        assert OutageQuery(threshold=0.5).gamma_o == 0.5

    def test_exactly_one_input(self):
        with pytest.raises(ValueError):
            OutageQuery()
        with pytest.raises(ValueError):
            OutageQuery(threshold=1.0, rate=1.0)
        with pytest.raises(ValueError):
            OutageQuery(threshold=0.0)


class TestPostprocCdf:
    def test_zero_snr(self):
        for scheme in Scheme:
            assert postproc_cdf(scheme, 0.0, cfg()) == 0.0

    def test_single_transmit_antenna_reduces_to_branch_cdf(self):
        # With one transmit antenna and unit calibration the TAS/MRC
        # distribution is exactly the combined-branch distribution.
        c = cfg(n_t=1, omega=1.0)
        params = branch_snr_params(c.n, c.n_r, c.mean_snr)
        for g in (0.01, 0.5, 1.0, 4.0, 25.0):
            assert postproc_cdf(Scheme.TAS_MRC, g, c) == pytest.approx(
                mrc_snr_cdf(g, params, c.n), rel=1e-12
            )

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_monotone_in_gamma(self, scheme, n):
        c = cfg(n=n)
        grid = [10 ** (i / 10 - 3) for i in range(61)]
        values = [postproc_cdf(scheme, g, c) for g in grid]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_nonincreasing_in_mean_snr(self, scheme):
        snrs = [0.5, 1.0, 3.0, 10.0, 50.0, 300.0]
        values = [postproc_cdf(scheme, 2.0, cfg(mean_snr=s)) for s in snrs]
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("n_r", [2, 3])
    def test_mrc_dominates_sc_at_unit_calibration_for_double_cascade(self, n_r):
        # Combining beats best-branch selection; for the fitted marginals
        # this ordering survives at n = 2 below saturation.
        c_m = cfg(n=2, n_r=n_r, omega=1.0)
        for g in (0.001, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
            p_mrc = postproc_cdf(Scheme.TAS_MRC, g, c_m)
            p_sc = postproc_cdf(Scheme.TAS_SC, g, c_m)
            if p_sc <= 0.9:
                assert p_mrc <= p_sc + 1e-15

    def test_model_ordering_inverts_for_higher_cascades(self):
        # Known model artifact: the combined-branch approximation
        # overestimates outage enough that its distribution crosses above
        # the best-pair one for n >= 3 (the simulated channel never does;
        # see the Monte-Carlo dominance tests).
        c_m = cfg(n=4, n_r=3, omega=1.0)
        inverted = [
            g
            for g in (0.001, 0.01, 0.1, 1.0)
            if postproc_cdf(Scheme.TAS_MRC, g, c_m)
            > postproc_cdf(Scheme.TAS_SC, g, c_m)
        ]
        assert inverted

    def test_scale_invariance(self):
        # Scaling threshold and mean SNR together leaves the CDF unchanged.
        for scheme in Scheme:
            for c_factor in (0.1, 2.0, 10.0):
                base = postproc_cdf(scheme, 1.5, cfg(mean_snr=8.0))
                scaled = postproc_cdf(scheme, 1.5 * c_factor, cfg(mean_snr=8.0 * c_factor))
                assert scaled == pytest.approx(base, rel=1e-12)


class TestOutage:
    def test_limits(self):
        q = OutageQuery(rate=1.0)
        assert outage(Scheme.TAS_MRC, q, cfg(mean_snr=1e9)) < 1e-12
        big = OutageQuery(threshold=1e12)
        assert outage(Scheme.TAS_SC, big, cfg()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_cdf_at_threshold(self):
        q = OutageQuery(threshold=2.5)
        for scheme in Scheme:
            assert outage(scheme, q, cfg()) == postproc_cdf(scheme, 2.5, cfg())


class TestAsymptotics:
    def test_diversity_values(self):
        assert diversity_order(Scheme.TAS_MRC, cfg(n=2, n_t=2, n_r=3)) == pytest.approx(
            4.9401, abs=1e-12
        )
        assert diversity_order(Scheme.TAS_SC, cfg(n=1, n_t=1, n_r=1)) == pytest.approx(
            1.0365, abs=1e-12
        )

    def test_schemes_share_diversity(self):
        for n in (1, 2, 4):
            c = cfg(n=n)
            assert diversity_order(Scheme.TAS_MRC, c) == diversity_order(
                Scheme.TAS_SC, c
            )

    def test_coefficient_value(self):
        _, form = outage_asymptotic(Scheme.TAS_MRC, OutageQuery(threshold=1.0), cfg())
        assert form.coefficient == pytest.approx(ASYM_COEFF_MRC_2X3_N2, rel=1e-12)
        assert form.diversity == pytest.approx(4.9401, abs=1e-12)
        assert form.z == pytest.approx(1.0 / 30.0, rel=1e-15)

    def test_sc_normalization_has_no_receive_factor(self):
        _, form = outage_asymptotic(Scheme.TAS_SC, OutageQuery(threshold=1.0), cfg())
        assert form.z == pytest.approx(0.1, rel=1e-15)
        assert "n_r" not in form.z_definition

    def test_power_law_slope_is_exact(self):
        q = OutageQuery(threshold=1.0)
        for scheme in Scheme:
            c = cfg(n=3)
            d = diversity_order(scheme, c)
            p1, _ = outage_asymptotic(scheme, q, c.with_mean_snr(100.0))
            p2, _ = outage_asymptotic(scheme, q, c.with_mean_snr(1000.0))
            slope = (math.log10(p1) - math.log10(p2))
            assert slope == pytest.approx(d, rel=1e-12)

    def test_converges_to_full_formula_in_the_deep_tail(self):
        # The power law is the true limit, but the approach is slow: the
        # ratio is still ~2.5x at outage 1e-7 and reaches 1% only around
        # outage 1e-30 (coefficient 2*shape/Omega >> 1 drives the
        # next-order term).
        q = OutageQuery(threshold=1.0)
        c = cfg(omega=1.0)
        g_deep = required_snr(Scheme.TAS_MRC, 1e-30, q, c)
        asym, _ = outage_asymptotic(Scheme.TAS_MRC, q, c.with_mean_snr(g_deep))
        full = outage(Scheme.TAS_MRC, q, c.with_mean_snr(g_deep))
        assert asym / full == pytest.approx(1.0, abs=0.01)
        # And the approach is monotone from above.
        g_mid = required_snr(Scheme.TAS_MRC, 1e-12, q, c)
        asym_mid, _ = outage_asymptotic(Scheme.TAS_MRC, q, c.with_mean_snr(g_mid))
        assert asym_mid / 1e-12 > asym / full > 1.0


class TestCodingGain:
    def test_sc_readings_coincide(self):
        for n in (1, 2, 4):
            g = coding_gain(Scheme.TAS_SC, cfg(n=n))
            assert g.printed == pytest.approx(g.extracted, rel=1e-12)

    def test_mrc_reading_ratio(self):
        # The two readings of the receive-count placement differ by exactly
        # n_r^2, independent of the cascade order.
        for n in (1, 2, 3, 5):
            for n_r in (1, 2, 3, 4):
                g = coding_gain(Scheme.TAS_MRC, cfg(n=n, n_r=n_r))
                assert g.extracted == pytest.approx(g.printed * n_r**2, rel=1e-12)

    def test_extracted_value(self):
        g = coding_gain(Scheme.TAS_MRC, cfg())
        assert g.extracted == pytest.approx(CG_EXTRACTED_MRC_2X3_N2, rel=1e-12)

    def test_extracted_reproduces_asymptote(self):
        # P_asym == (gamma_o / (CG * mean_snr))^d by construction.
        q = OutageQuery(threshold=1.0)
        for scheme in Scheme:
            for n in (2, 3):
                c = cfg(n=n, mean_snr=200.0)
                g = coding_gain(scheme, c)
                d = diversity_order(scheme, c)
                value, _ = outage_asymptotic(scheme, q, c)
                assert value == pytest.approx(
                    (q.gamma_o / (g.extracted * c.mean_snr)) ** d, rel=1e-9
                )

    def test_sc_gain_ignores_antenna_counts(self):
        ref = coding_gain(Scheme.TAS_SC, cfg(n_t=1, n_r=1))
        for n_t, n_r in ((2, 2), (2, 3), (4, 1)):
            g = coding_gain(Scheme.TAS_SC, cfg(n_t=n_t, n_r=n_r))
            assert g.extracted == pytest.approx(ref.extracted, rel=1e-12)

    def test_mrc_gain_ignores_transmit_count(self):
        ref = coding_gain(Scheme.TAS_MRC, cfg(n_t=1))
        for n_t in (2, 3, 4):
            g = coding_gain(Scheme.TAS_MRC, cfg(n_t=n_t))
            assert g.extracted == pytest.approx(ref.extracted, rel=1e-12)


class TestRequiredSnr:
    def test_monotone_in_target(self):
        q = OutageQuery(threshold=1.0)
        g_easy = required_snr(Scheme.TAS_MRC, 0.5, q, cfg())
        g_hard = required_snr(Scheme.TAS_MRC, 1e-4, q, cfg())
        assert g_hard > g_easy

    def test_round_trip(self):
        q = OutageQuery(threshold=1.0)
        for scheme in Scheme:
            for target in (0.3, 1e-2, 1e-6):
                g = required_snr(scheme, target, q, cfg())
                assert outage(scheme, q, cfg().with_mean_snr(g)) == pytest.approx(
                    target, rel=1e-7
                )

    def test_threshold_scale_law(self):
        # Doubling the threshold costs exactly one doubling of mean SNR.
        g1 = required_snr(Scheme.TAS_SC, 1e-3, OutageQuery(threshold=1.0), cfg())
        g2 = required_snr(Scheme.TAS_SC, 1e-3, OutageQuery(threshold=2.0), cfg())
        delta_db = 10.0 * math.log10(g2 / g1)
        assert delta_db == pytest.approx(DB_PER_DOUBLING, abs=1e-6)

    def test_out_of_bracket(self):
        # Outside any fixed search bracket (the solution is ~409 dB), yet the
        # closed-form inversion solves it and round-trips.
        q = OutageQuery(threshold=1.0)
        g = required_snr(Scheme.TAS_MRC, 1e-200, q, cfg())
        assert 10.0 * math.log10(g) == pytest.approx(409.2, abs=0.1)
        assert outage(Scheme.TAS_MRC, q, cfg().with_mean_snr(g)) == pytest.approx(
            1e-200, rel=1e-7
        )

    def test_overflowing_solution_raises_convergence_error(self):
        # The solution exceeds the float range: refused, never OverflowError.
        with pytest.raises(ConvergenceError):
            required_snr(Scheme.TAS_MRC, 1e-300, OutageQuery(threshold=1.0),
                         cfg(n=8, n_t=1, n_r=1))

    def test_target_validation(self):
        q = OutageQuery(threshold=1.0)
        with pytest.raises(ValueError):
            required_snr(Scheme.TAS_MRC, 0.0, q, cfg())
        with pytest.raises(ValueError):
            required_snr(Scheme.TAS_MRC, 1.0, q, cfg())
