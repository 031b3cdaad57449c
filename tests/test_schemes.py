"""Post-processing SNR analytics: distributions, outage, asymptotics, gains."""

import dataclasses
import math
import pickle
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from scipy import special

from nrayleigh import schemes
from nrayleigh.fading import fading_params
from nrayleigh.schemes import (
    ChannelConfig,
    OutageQuery,
    Scheme,
    ConvergenceError,
    coding_gain,
    diversity_order,
    outage,
    outage_asymptotic,
    required_snr,
)

# mpmath, dps=50
ASYM_COEFF_MRC_2X3_N2 = 6617.5570150278958
CG_EXTRACTED_MRC_2X3_N2 = 0.50549437275247244
DB_PER_DOUBLING = 3.010299956639812


def cfg(n=2, n_t=2, n_r=3, mean_snr=10.0, omega=None):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr,
                         calibration_omega=omega)


def cdf(scheme, g, c):
    """The post-processing SNR distribution at g: the outage at threshold g."""
    return outage(scheme, OutageQuery(threshold=g), c)


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
            {"omega": math.inf}, {"omega": math.nan},
            {"n": 2.5}, {"n": True}, {"n": math.inf}, {"n_t": True}, {"n_r": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        base = {"n": 2, "n_t": 2, "n_r": 3, "mean_snr": 10.0, "omega": None}
        base.update(kwargs)
        with pytest.raises(ValueError):
            cfg(**base)

    def test_antenna_product_must_convert_to_a_float(self):
        # The largest int that converts rounds to the largest float; the
        # next one up rounds to 2^1024, which overflows.
        largest = 2**1024 - 2**970 - 1
        assert float(largest) == sys.float_info.max
        assert cfg(n_t=1, n_r=largest).total_antennas == largest
        for n_t, n_r in ((1, largest + 1), (2, largest), (10**400, 1), (2, 10**400)):
            message = rf"^n_t \* n_r must convert to a float, got {n_t} \* {n_r}$"
            with pytest.raises(ValueError, match=message):
                cfg(n_t=n_t, n_r=n_r)

    def test_law_past_the_float_range_is_refused(self):
        # N = 10^308 is a float, but the TAS/MRC shape m n_r overflows lgamma;
        # TAS/SC's shape is m, and its law stays finite.
        big = cfg(n_t=1, n_r=10**308)
        message = rf"^the tas-mrc law of n=2, n_t=1, n_r={10**308} is outside the float range$"
        with pytest.raises(ValueError, match=message):
            diversity_order(Scheme.TAS_MRC, big)
        assert math.isfinite(diversity_order(Scheme.TAS_SC, big))


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

    @pytest.mark.parametrize("kwargs", [
        {"rate": 2000.0}, {"rate": 1024.0}, {"rate": math.inf}, {"threshold": math.inf},
        {"rate": 1e-300}, {"rate": 1e-16},
    ])
    def test_threshold_must_be_finite(self, kwargs):
        # 2^1024 - 1 is past the largest float; 2^1023.9 - 1 is not.  Below
        # R ~ 1.6e-16, 2^R - 1 rounds to 0.
        with pytest.raises(ValueError, match="finite"):
            OutageQuery(**kwargs)
        assert math.isfinite(OutageQuery(rate=1023.9).gamma_o)

    def test_threshold_is_computed_once_and_stays_out_of_the_fields(self):
        # gamma_o is kept from construction; equality, hashing, repr,
        # pickling and dataclasses.replace still see only threshold and rate.
        q = OutageQuery(rate=2.0)
        assert q == OutageQuery(rate=2.0) and hash(q) == hash(OutageQuery(rate=2.0))
        assert q != OutageQuery(threshold=3.0)
        assert repr(q) == "OutageQuery(threshold=None, rate=2.0)"
        assert [f.name for f in dataclasses.fields(q)] == ["threshold", "rate"]
        assert dataclasses.asdict(q) == {"threshold": None, "rate": 2.0}
        back = pickle.loads(pickle.dumps(q))
        assert back == q and back.gamma_o == q.gamma_o == 3.0
        assert dataclasses.replace(q, rate=3.0).gamma_o == 7.0
        assert dataclasses.replace(q, rate=None, threshold=0.25).gamma_o == 0.25
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(q, rate=2000.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.rate = 3.0


class TestPostprocCdf:
    """The post-processing SNR distribution, reached through ``outage``."""

    def test_single_transmit_antenna_reduces_to_branch_cdf(self):
        # With one transmit antenna and unit calibration the TAS/MRC
        # distribution is exactly the combined-branch distribution
        # P(m n_r, (2 m n_r / Omega) (n_r mean_snr)^(-1/n) g^(1/n)).
        c = cfg(n_t=1, omega=1.0)
        fp = fading_params(c.n)
        a = fp.m * c.n_r
        beta = (2.0 * a / fp.omega) * (c.n_r * c.mean_snr) ** (-1.0 / c.n)
        for g in (0.01, 0.5, 1.0, 4.0, 25.0):
            assert cdf(Scheme.TAS_MRC, g, c) == pytest.approx(
                float(special.gammainc(a, beta * g ** (1.0 / c.n))), rel=1e-12
            )

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_monotone_in_gamma(self, scheme, n):
        c = cfg(n=n)
        grid = [10 ** (i / 10 - 3) for i in range(61)]
        values = [cdf(scheme, g, c) for g in grid]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)
        assert cdf(scheme, 1e9, c) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_nonincreasing_in_mean_snr(self, scheme):
        snrs = [0.5, 1.0, 3.0, 10.0, 50.0, 300.0]
        values = [cdf(scheme, 2.0, cfg(mean_snr=s)) for s in snrs]
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("n_r", [2, 3])
    def test_mrc_dominates_sc_at_unit_calibration_for_double_cascade(self, n_r):
        # Combining beats best-branch selection; for the fitted marginals
        # this ordering survives at n = 2 below saturation.
        c_m = cfg(n=2, n_r=n_r, omega=1.0)
        for g in (0.001, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
            p_mrc = cdf(Scheme.TAS_MRC, g, c_m)
            p_sc = cdf(Scheme.TAS_SC, g, c_m)
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
            if cdf(Scheme.TAS_MRC, g, c_m)
            > cdf(Scheme.TAS_SC, g, c_m)
        ]
        assert inverted

    def test_scale_invariance(self):
        # Scaling threshold and mean SNR together leaves the CDF unchanged.
        for scheme in Scheme:
            for c_factor in (0.1, 2.0, 10.0):
                base = cdf(scheme, 1.5, cfg(mean_snr=8.0))
                scaled = cdf(scheme, 1.5 * c_factor, cfg(mean_snr=8.0 * c_factor))
                assert scaled == pytest.approx(base, rel=1e-12)


class TestOutage:
    def test_limits(self):
        q = OutageQuery(rate=1.0)
        assert outage(Scheme.TAS_MRC, q, cfg(mean_snr=1e9)) < 1e-12
        big = OutageQuery(threshold=1e12)
        assert outage(Scheme.TAS_SC, big, cfg()) == pytest.approx(1.0, abs=1e-9)

    def test_underflowed_incomplete_gamma_gives_exact_zero(self):
        # P(s, x) underflows to 0 here, so ln P is -inf and exp(k * ln P)
        # must come back as exactly 0.0.
        c = ChannelConfig(n=8, n_t=1, n_r=1, mean_snr=1e300)
        assert outage(Scheme.TAS_SC, OutageQuery(threshold=1e-300), c) == 0.0

    def test_matches_cdf_at_threshold(self):
        # P(s, beta * gamma_o^(1/n))^k with the channel's shape, exponent
        # and scale, calibrated by the scheme's weight.
        q = OutageQuery(threshold=2.5)
        for scheme in Scheme:
            s, k, scale = schemes._shape_exponent_scale(scheme, cfg())
            beta = cfg().omega_for(scheme) * scale
            assert outage(scheme, q, cfg()) == pytest.approx(
                float(special.gammainc(s, beta * 2.5 ** 0.5)) ** k, rel=1e-12
            )


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
        # C is the power law at z = 1: gamma_o = 3 over n_r * mean_snr = 3 * 1.
        coefficient, z = outage_asymptotic(
            Scheme.TAS_MRC, OutageQuery(threshold=3.0), cfg(mean_snr=1.0)
        )
        assert z == 1.0
        assert coefficient == pytest.approx(ASYM_COEFF_MRC_2X3_N2, rel=1e-12)
        _, z = outage_asymptotic(Scheme.TAS_MRC, OutageQuery(threshold=1.0), cfg())
        assert z == pytest.approx(1.0 / 30.0, rel=1e-15)

    def test_sc_normalization_has_no_receive_factor(self):
        _, z = outage_asymptotic(Scheme.TAS_SC, OutageQuery(threshold=1.0), cfg())
        assert z == 0.1

    def test_power_law_past_the_float_range_is_inf(self):
        # ln C + d ln z is above ln(max float) at gamma_o = 1e300, 0 dB.
        q, c = OutageQuery(threshold=1e300), cfg(mean_snr=1.0)
        for scheme in Scheme:
            value, z = outage_asymptotic(scheme, q, c)
            assert value == math.inf
            ln_coeff = schemes._law(scheme, c.n, c.n_t, c.n_r).ln_coeff
            assert ln_coeff + diversity_order(scheme, c) * math.log(z) > 710.0

    def test_coefficient_past_the_float_range_is_inf(self):
        # ln C is above ln(max float) for TAS/MRC n = 1 with 300 x 4
        # antennas; C itself is never formed, so the value and the coding
        # gain stay finite.
        c = cfg(n=1, n_t=300, n_r=4, mean_snr=10.0)
        value, _ = outage_asymptotic(Scheme.TAS_MRC, OutageQuery(threshold=1.0), c)
        assert schemes._law(Scheme.TAS_MRC, 1, 300, 4).ln_coeff > 710.0
        assert value == 0.0
        assert math.isfinite(coding_gain(Scheme.TAS_MRC, c).extracted)

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

    def test_inverse_equals_the_ufunc(self, monkeypatch):
        # The scalar inverse (cython_special) against scipy's gammaincinv
        # ufunc, over every law shape and targets from 1e-300 to 0.999:
        # the same solution bits, or the same refusal.  Channels are one per
        # shape: n = 1..8, n_r = 1..4, both schemes (n_t sets the exponent).
        channels = [(scheme, cfg(n=n, n_t=1, n_r=n_r)) for scheme in Scheme
                    for n in range(1, 9) for n_r in range(1, 5)]
        targets = [10.0 ** -e for e in range(300, 0, -3)] + [0.1, 0.5, 0.9, 0.999]
        q = OutageQuery(threshold=1.0)

        def solutions():
            got = []
            for scheme, c in channels:
                for target in targets:
                    try:
                        got.append(repr(required_snr(scheme, target, q, c)))
                    except ConvergenceError:
                        got.append("refused")
            return got

        scalar = solutions()
        ufunc = SimpleNamespace(gammaincinv=lambda a, y: float(special.gammaincinv(a, y)))
        monkeypatch.setattr(schemes, "cython_special", ufunc)
        assert solutions() == scalar
        assert "refused" in scalar and len(set(scalar)) > len(scalar) // 2

    def test_target_validation(self):
        q = OutageQuery(threshold=1.0)
        with pytest.raises(ValueError):
            required_snr(Scheme.TAS_MRC, 0.0, q, cfg())
        with pytest.raises(ValueError):
            required_snr(Scheme.TAS_MRC, 1.0, q, cfg())


# Exact float outputs of the analytics at mean SNR 10 and gamma_o = 1.
# Keyed (scheme, n, n_t, n_r, calibration): the outage at g = 0.1 and
# g = 2, and required_snr at outage 1e-3, for n = 1..8 under the default,
# unit and an explicit 1.3 calibration.
PINNED_CDF_AND_SNR = {
    ("tas-mrc", 1, 1, 1, None):
        (0.010147455230882594, 0.2017262599747535, 940.2386752102651),
    ("tas-mrc", 1, 1, 1, 1.0):
        (0.008585830044203142, 0.1736011669311387, 799.5226830019261),
    ("tas-mrc", 1, 1, 1, 1.3):
        (0.011251200124210539, 0.22102610953312823, 1039.379487902504),
    ("tas-mrc", 1, 2, 3, None):
        (2.5725717725670353e-14, 2.2400753276841514e-06, 1.670340727661191),
    ("tas-mrc", 1, 2, 3, 1.0):
        (9.412439200051505e-15, 8.631901318389175e-07, 1.4203577616166592),
    ("tas-mrc", 1, 2, 3, 1.3):
        (4.789324016206313e-14, 4.02102305910315e-06, 1.8464650901016568),
    ("tas-mrc", 1, 4, 4, None):
        (2.142955045825237e-38, 3.842484287860371e-17, 0.530517503805294),
    ("tas-mrc", 1, 4, 4, 1.0):
        (1.465309317379343e-39, 2.9352819107295718e-18, 0.45112032636504595),
    ("tas-mrc", 1, 4, 4, 1.3):
        (1.1251675316102452e-37, 1.866161374621121e-16, 0.5864564242745598),
    ("tas-mrc", 2, 1, 1, None):
        (0.05783941141386507, 0.41574283295479064, 16362.957918496624),
    ("tas-mrc", 2, 1, 1, 1.0):
        (0.04529144065126477, 0.34878610121967035, 11831.700563492517),
    ("tas-mrc", 2, 1, 1, 1.3):
        (0.06715547712586302, 0.4603156318383738, 19995.57395230236),
    ("tas-mrc", 2, 2, 3, None):
        (9.381339859766922e-09, 0.002303196753809448, 6.337940184555536),
    ("tas-mrc", 2, 2, 3, 1.0):
        (2.1005658105579222e-09, 0.0007292861381282493, 4.582827311938556),
    ("tas-mrc", 2, 2, 3, 1.3):
        (2.3455839645823318e-08, 0.00452274566936217, 7.74497815717616),
    ("tas-mrc", 2, 4, 4, None):
        (6.109944710629337e-23, 2.5314695327162258e-08, 1.3586205380851297),
    ("tas-mrc", 2, 4, 4, 1.0):
        (1.1002642240579146e-24, 1.0660749637614202e-09, 0.9823890928585383),
    ("tas-mrc", 2, 4, 4, 1.3):
        (7.166750179517573e-22, 1.6396098825895232e-07, 1.6602375669309297),
    ("tas-mrc", 3, 1, 1, None):
        (0.13829219304755927, 0.5681860976160481, 134307.7776704228),
    ("tas-mrc", 3, 1, 1, 1.0):
        (0.10375542539446626, 0.47608548826367264, 82580.82131391605),
    ("tas-mrc", 3, 1, 1, 1.3):
        (0.16414456643408373, 0.6260314939697265, 181430.0644266736),
    ("tas-mrc", 3, 2, 3, None):
        (5.773931060955823e-06, 0.039441242778673176, 20.877216734939278),
    ("tas-mrc", 3, 2, 3, 1.0):
        (9.825106449340287e-07, 0.012938100475131886, 12.836618508799805),
    ("tas-mrc", 3, 2, 3, 1.3):
        (1.666141547895691e-05, 0.07256254229132574, 28.20205086383318),
    ("tas-mrc", 3, 4, 4, None):
        (3.7005941856383286e-15, 0.00011254732890561874, 3.3777830145581085),
    ("tas-mrc", 3, 4, 4, 1.0):
        (3.0912774145659325e-17, 5.114095054379434e-06, 2.0768722437422324),
    ("tas-mrc", 3, 4, 4, 1.3):
        (6.520368003691609e-14, 0.0006166497394193423, 4.562888319501686),
    ("tas-mrc", 4, 1, 1, None):
        (0.2380048313334381, 0.6773159379212603, 829023.6981428065),
    ("tas-mrc", 4, 1, 1, 1.0):
        (0.1754677785166049, 0.5720658568922016, 433448.6536747824),
    ("tas-mrc", 4, 1, 1, 1.3):
        (0.28390350978811385, 0.739012630678983, 1237972.6997605464),
    ("tas-mrc", 4, 2, 3, None):
        (0.0003009753726917964, 0.1651540417496509, 63.88021777238008),
    ("tas-mrc", 4, 2, 3, 1.0):
        (4.6663377312962684e-05, 0.06157983298628147, 33.39927972133848),
    ("tas-mrc", 4, 2, 3, 1.3):
        (0.0008844558445205059, 0.27005102276372506, 95.3916828121148),
    ("tas-mrc", 4, 4, 4, None):
        (2.406414997759598e-10, 0.0076240983214552445, 8.220332694640902),
    ("tas-mrc", 4, 4, 4, 1.0):
        (1.5319872859065111e-12, 0.0005005986070406571, 4.297937618952265),
    ("tas-mrc", 4, 4, 4, 1.3):
        (4.514282542264824e-09, 0.02969270534639668, 12.275339633489565),
    ("tas-mrc", 5, 1, 1, None):
        (0.34322807087640217, 0.7566547189500198, 4395667.441567437),
    ("tas-mrc", 5, 1, 1, 1.0):
        (0.2525767193590846, 0.6465958106133171, 1954286.4430851096),
    ("tas-mrc", 5, 1, 1, 1.3):
        (0.40732743687602235, 0.8165454788001362, 7256128.763124003),
    ("tas-mrc", 5, 2, 3, None):
        (0.004023540719904003, 0.36072423622378236, 186.55297250414978),
    ("tas-mrc", 5, 2, 3, 1.0):
        (0.0006415938350928418, 0.15749565794910275, 82.94029289715463),
    ("tas-mrc", 5, 2, 3, 1.3):
        (0.011105596190305362, 0.5211552243115938, 307.9515017066323),
    ("tas-mrc", 5, 4, 4, None):
        (3.489530531562082e-07, 0.07288209980212, 19.702038513251868),
    ("tas-mrc", 5, 4, 4, 1.0):
        (2.3841608619162667e-09, 0.007661707629641059, 8.759403953875784),
    ("tas-mrc", 5, 4, 4, 1.3):
        (5.531478665457625e-06, 0.19600868811684774, 32.52305372246401),
    ("tas-mrc", 6, 1, 1, None):
        (0.44447325110755614, 0.8151404446682035, 21138164.127344716),
    ("tas-mrc", 6, 1, 1, 1.0):
        (0.32957903353708823, 0.7057237468919786, 7991408.573250975),
    ("tas-mrc", 6, 1, 1, 1.3):
        (0.521852299244343, 0.8702402708175611, 38573002.82404499),
    ("tas-mrc", 6, 2, 3, None):
        (0.023234025672589562, 0.5605698776678233, 527.2208007008414),
    ("tas-mrc", 6, 2, 3, 1.0):
        (0.004111768882508379, 0.2865740017285409, 199.31895699809732),
    ("tas-mrc", 6, 2, 3, 1.3):
        (0.05746462462063774, 0.7265182406384494, 962.0745355090288),
    ("tas-mrc", 6, 4, 4, None):
        (4.743916350614719e-05, 0.24969257397644432, 46.68191112655105),
    ("tas-mrc", 6, 4, 4, 1.0):
        (4.3395380554513386e-07, 0.042258777713454876, 17.648373933754737),
    ("tas-mrc", 6, 4, 4, 1.3):
        (0.0005523624259915761, 0.4847989360738676, 85.18533013881276),
    ("tas-mrc", 7, 1, 1, None):
        (0.5365352046076276, 0.8587407687377213, 94781433.39346813),
    ("tas-mrc", 7, 1, 1, 1.0):
        (0.4031419681904531, 0.7533829469617294, 30469969.54425296),
    ("tas-mrc", 7, 1, 1, 1.3):
        (0.6214353837482196, 0.9077387847522727, 191194540.19370395),
    ("tas-mrc", 7, 2, 3, None):
        (0.07746872971612487, 0.7210050848319959, 1453.7064339546953),
    ("tas-mrc", 7, 2, 3, 1.0):
        (0.015919435944771698, 0.42536084810844554, 467.331936044941),
    ("tas-mrc", 7, 2, 3, 1.3):
        (0.16774700065067732, 0.8577364904400522, 2932.438593355891),
    ("tas-mrc", 7, 4, 4, None):
        (0.0013549768175854708, 0.4869177098424769, 109.61844928386888),
    ("tas-mrc", 7, 4, 4, 1.0):
        (1.900466040159775e-05, 0.12676947627013968, 35.23971617206944),
    ("tas-mrc", 7, 4, 4, 1.3):
        (0.010772579288718897, 0.7359074890463018, 221.12399292982744),
    ("tas-mrc", 8, 1, 1, None):
        (0.6172469134956345, 0.8915373875163641, 402794130.1368839),
    ("tas-mrc", 8, 1, 1, 1.0):
        (0.4714811084090923, 0.792264238189408, 110109441.3200139),
    ("tas-mrc", 8, 1, 1, 1.3):
        (0.7044348325826759, 0.934113179598721, 898196539.5688215),
    ("tas-mrc", 8, 2, 3, None):
        (0.17797580335807253, 0.8324130413257365, 3931.335371560994),
    ("tas-mrc", 8, 2, 3, 1.0):
        (0.043494819707365, 0.5550884646339518, 1074.685823393412),
    ("tas-mrc", 8, 2, 3, 1.3):
        (0.33529097122259505, 0.9303821335345113, 8766.542415651875),
    ("tas-mrc", 8, 4, 4, None):
        (0.013356585432492057, 0.6947281398799959, 255.54239406261667),
    ("tas-mrc", 8, 4, 4, 1.0):
        (0.00030942469362759263, 0.25961213982928505, 69.8561079682353),
    ("tas-mrc", 8, 4, 4, 1.3):
        (0.07088753237488188, 0.8834623453482127, 569.837733191824),
    ("tas-sc", 1, 1, 1, None):
        (0.008585830044203142, 0.1736011669311387, 799.5226830019261),
    ("tas-sc", 1, 1, 1, 1.0):
        (0.008585830044203142, 0.1736011669311387, 799.5226830019261),
    ("tas-sc", 1, 1, 1, 1.3):
        (0.011251200124210539, 0.22102610953312823, 1039.379487902504),
    ("tas-sc", 1, 2, 3, None):
        (4.005841158323761e-13, 2.737258675041497e-05, 2.5557960301556046),
    ("tas-sc", 1, 2, 3, 1.0):
        (4.005841158323761e-13, 2.737258675041497e-05, 2.5557960301556046),
    ("tas-sc", 1, 2, 3, 1.3):
        (2.0285844733298702e-12, 0.00011659004669034208, 3.3225348392022864),
    ("tas-sc", 1, 4, 4, None):
        (8.720002279896968e-34, 6.805221136290562e-13, 0.9489153915863197),
    ("tas-sc", 1, 4, 4, 1.0):
        (8.720002279896968e-34, 6.805221136290562e-13, 0.9489153915863197),
    ("tas-sc", 1, 4, 4, 1.3):
        (6.594495743287201e-32, 3.244122685663135e-11, 1.2335900090622156),
    ("tas-sc", 2, 1, 1, None):
        (0.04529144065126477, 0.34878610121967035, 11831.700563492517),
    ("tas-sc", 2, 1, 1, 1.0):
        (0.04529144065126477, 0.34878610121967035, 11831.700563492517),
    ("tas-sc", 2, 1, 1, 1.3):
        (0.06715547712586302, 0.4603156318383738, 19995.57395230236),
    ("tas-sc", 2, 2, 3, None):
        (8.631709402913091e-09, 0.0018003420380885056, 5.936336161334806),
    ("tas-sc", 2, 2, 3, 1.0):
        (8.631709402913091e-09, 0.0018003420380885056, 5.936336161334806),
    ("tas-sc", 2, 2, 3, 1.3):
        (9.172519298013476e-08, 0.009513368949842978, 10.032408112655824),
    ("tas-sc", 2, 4, 4, None):
        (3.1351488304957204e-22, 4.796746047986666e-08, 1.341922025420034),
    ("tas-sc", 2, 4, 4, 1.0):
        (3.1351488304957204e-22, 4.796746047986666e-08, 1.341922025420034),
    ("tas-sc", 2, 4, 4, 1.3):
        (1.7112088764943352e-19, 4.063418685038195e-06, 2.267848222959858),
    ("tas-sc", 3, 1, 1, None):
        (0.10375542539446626, 0.47608548826367264, 82580.82131391605),
    ("tas-sc", 3, 1, 1, 1.0):
        (0.10375542539446626, 0.47608548826367264, 82580.82131391605),
    ("tas-sc", 3, 1, 1, 1.3):
        (0.16414456643408373, 0.6260314939697265, 181430.0644266736),
    ("tas-sc", 3, 2, 3, None):
        (1.2475699114118494e-06, 0.01164420017367946, 12.887333400609633),
    ("tas-sc", 3, 2, 3, 1.0):
        (1.2475699114118494e-06, 0.01164420017367946, 12.887333400609633),
    ("tas-sc", 3, 2, 3, 1.3):
        (1.955955936744202e-05, 0.06019731098125576, 28.313471481139366),
    ("tas-sc", 3, 4, 4, None):
        (1.803736299346447e-16, 6.965609128366577e-06, 2.013839465184666),
    ("tas-sc", 3, 4, 4, 1.0):
        (1.803736299346447e-16, 6.965609128366577e-06, 2.013839465184666),
    ("tas-sc", 3, 4, 4, 1.3):
        (2.77730885205337e-13, 0.0005565945009330354, 4.42440530501071),
    ("tas-sc", 4, 1, 1, None):
        (0.1754677785166049, 0.5720658568922016, 433448.6536747824),
    ("tas-sc", 4, 1, 1, 1.0):
        (0.1754677785166049, 0.5720658568922016, 433448.6536747824),
    ("tas-sc", 4, 1, 1, 1.3):
        (0.28390350978811385, 0.739012630678983, 1237972.6997605464),
    ("tas-sc", 4, 2, 3, None):
        (2.9186651116226424e-05, 0.03504904338233947, 27.07288891396029),
    ("tas-sc", 4, 2, 3, 1.0):
        (2.9186651116226424e-05, 0.03504904338233947, 27.07288891396029),
    ("tas-sc", 4, 2, 3, 1.3):
        (0.0005236300591797088, 0.1628962800230902, 77.322878027162),
    ("tas-sc", 4, 4, 4, None):
        (8.075288458358287e-13, 0.00013156381263739752, 3.1132502169287988),
    ("tas-sc", 4, 4, 4, 1.0):
        (8.075288458358287e-13, 0.00013156381263739752, 3.1132502169287988),
    ("tas-sc", 4, 4, 4, 1.3):
        (1.7812799730404355e-09, 0.007914614707801438, 8.891753944570345),
    ("tas-sc", 5, 1, 1, None):
        (0.2525767193590846, 0.6465958106133171, 1954286.4430851096),
    ("tas-sc", 5, 1, 1, 1.0):
        (0.2525767193590846, 0.6465958106133171, 1954286.4430851096),
    ("tas-sc", 5, 1, 1, 1.3):
        (0.40732743687602235, 0.8165454788001362, 7256128.763124003),
    ("tas-sc", 5, 2, 3, None):
        (0.0002596330099558076, 0.07307979468902856, 55.73693911303286),
    ("tas-sc", 5, 2, 3, 1.0):
        (0.0002596330099558076, 0.07307979468902856, 55.73693911303286),
    ("tas-sc", 5, 2, 3, 1.3):
        (0.004567325739700284, 0.29640277875928206, 206.94735334095327),
    ("tas-sc", 5, 4, 4, None):
        (2.7434249786309084e-10, 0.0009335254942129404, 4.903098816929975),
    ("tas-sc", 5, 4, 4, 1.0):
        (2.7434249786309084e-10, 0.0009335254942129404, 4.903098816929975),
    ("tas-sc", 5, 4, 4, 1.3):
        (5.742468616923433e-07, 0.03905584652860287, 18.204862690343823),
    ("tas-sc", 6, 1, 1, None):
        (0.32957903353708823, 0.7057237468919786, 7991408.573250975),
    ("tas-sc", 6, 1, 1, 1.0):
        (0.32957903353708823, 0.7057237468919786, 7991408.573250975),
    ("tas-sc", 6, 1, 1, 1.3):
        (0.521852299244343, 0.8702402708175611, 38573002.82404499),
    ("tas-sc", 6, 2, 3, None):
        (0.0012816146267038404, 0.12354022486831329, 113.1537166807893),
    ("tas-sc", 6, 2, 3, 1.0):
        (0.0012816146267038404, 0.12354022486831329, 113.1537166807893),
    ("tas-sc", 6, 2, 3, 1.3):
        (0.020196941505403042, 0.43434523330560515, 546.1713780582842),
    ("tas-sc", 6, 4, 4, None):
        (1.937997506764261e-08, 0.0037857828545295696, 7.82288959447985),
    ("tas-sc", 6, 4, 4, 1.0):
        (1.937997506764261e-08, 0.0037857828545295696, 7.82288959447985),
    ("tas-sc", 6, 4, 4, 1.3):
        (3.0252524439229078e-05, 0.10819989167329565, 37.7595939006417),
    ("tas-sc", 7, 1, 1, None):
        (0.4031419681904531, 0.7533829469617294, 30469969.54425296),
    ("tas-sc", 7, 1, 1, 1.0):
        (0.4031419681904531, 0.7533829469617294, 30469969.54425296),
    ("tas-sc", 7, 1, 1, 1.3):
        (0.6214353837482196, 0.9077387847522727, 191194540.19370395),
    ("tas-sc", 7, 2, 3, None):
        (0.004292873296737507, 0.18284989428790274, 227.3255618417557),
    ("tas-sc", 7, 2, 3, 1.0):
        (0.004292873296737507, 0.18284989428790274, 227.3255618417557),
    ("tas-sc", 7, 2, 3, 1.3):
        (0.05759381762339229, 0.5594552466404644, 1426.4341881761957),
    ("tas-sc", 7, 4, 4, None):
        (4.867749133645703e-07, 0.010770914279913052, 12.60326479436385),
    ("tas-sc", 7, 4, 4, 1.0):
        (4.867749133645703e-07, 0.010770914279913052, 12.60326479436385),
    ("tas-sc", 7, 4, 4, 1.3):
        (0.0004946928630882984, 0.2125075036042725, 79.0836175204641),
    ("tas-sc", 8, 1, 1, None):
        (0.4714811084090923, 0.792264238189408, 110109441.3200139),
    ("tas-sc", 8, 1, 1, 1.0):
        (0.4714811084090923, 0.792264238189408, 110109441.3200139),
    ("tas-sc", 8, 1, 1, 1.3):
        (0.7044348325826759, 0.934113179598721, 898196539.5688215),
    ("tas-sc", 8, 2, 3, None):
        (0.01098463865296667, 0.2472978366421385, 452.95929322746355),
    ("tas-sc", 8, 2, 3, 1.0):
        (0.01098463865296667, 0.2472978366421385, 452.95929322746355),
    ("tas-sc", 8, 2, 3, 1.3):
        (0.12219260843980423, 0.6643500898069347, 3694.9281084808945),
    ("tas-sc", 8, 4, 4, None):
        (5.962504688641874e-06, 0.02409466241096949, 20.4599381347528),
    ("tas-sc", 8, 4, 4, 1.0):
        (5.962504688641874e-06, 0.02409466241096949, 20.4599381347528),
    ("tas-sc", 8, 4, 4, 1.3):
        (0.0036766573908986254, 0.3360407882767307, 166.89800086277296),
}
# Keyed (scheme, n, n_t, n_r): outage_asymptotic value and z, coding_gain
# printed and extracted, and diversity_order.  All five ignore the
# calibration weight.
PINNED_ASYMPTOTE_AND_GAIN = {
    ("tas-mrc", 1, 1, 1):
        (0.09387944717879351, 0.1, 0.9800514869094364, 0.9800514869094364, 1.0365),
    ("tas-mrc", 1, 2, 3):
        (1.5831058167537125e-08, 0.03333333333333333, 0.1995525243995474, 1.7959727195959267, 6.218999999999999),
    ("tas-mrc", 1, 4, 4):
        (5.813370256223277e-23, 0.025, 0.13698235551753077, 2.191717688280492, 16.584),
    ("tas-mrc", 2, 1, 1):
        (0.34308065115819286, 0.1, 0.3666778357970775, 0.3666778357970776, 0.82335),
    ("tas-mrc", 2, 2, 3):
        (0.00033386506778207816, 0.03333333333333333, 0.05616604141694142, 0.5054943727524726, 4.9401),
    ("tas-mrc", 2, 4, 4):
        (7.005201641861378e-11, 0.025, 0.036872958820712995, 0.5899673411314079, 13.1736),
    ("tas-mrc", 3, 1, 1):
        (0.9300477971688058, 0.1, 0.11011959124063807, 0.11011959124063816, 0.7523),
    ("tas-mrc", 3, 2, 3):
        (0.3703380443715916, 0.03333333333333333, 0.013846226612459024, 0.12461603951213104, 4.5138),
    ("tas-mrc", 3, 4, 4):
        (0.015638292733162314, 0.025, 0.008828850544083874, 0.14126160870534174, 12.0368),
    ("tas-mrc", 4, 1, 1):
        (2.3805412215975723, 0.1, 0.02981847507006001, 0.029818475070060017, 0.7167749999999999),
    ("tas-mrc", 4, 2, 3):
        (203.8335514106739, 0.03333333333333333, 0.003226991378407353, 0.029042922405666194, 4.300649999999999),
    ("tas-mrc", 4, 4, 4):
        (436834.74578761414, 0.025, 0.0020140313925198316, 0.03222450228031727, 11.468399999999999),
    ("tas-mrc", 5, 1, 1):
        (6.000390137688949, 0.1, 0.00760427610605412, 0.007604276106054118, 0.69546),
    ("tas-mrc", 5, 2, 3):
        (86144.9009903464, 0.03333333333333333, 0.000729511277479692, 0.006565601497317249, 4.172759999999999),
    ("tas-mrc", 5, 4, 4):
        (5490557140233.709, 0.025, 0.00044770178797091486, 0.007163228607534639, 11.12736),
    ("tas-mrc", 6, 1, 1):
        (15.06878418998264, 0.1, 0.0018651376110189958, 0.0018651376110189958, 0.68125),
    ("tas-mrc", 6, 2, 3):
        (32174305.398373857, 0.03333333333333333, 0.0001618296135477197, 0.0014564665219294769, 4.0875),
    ("tas-mrc", 6, 4, 4):
        (4.710187468756604e+19, 0.025, 9.7952184987813e-05, 0.0015672349598050102, 10.9),
    ("tas-mrc", 7, 1, 1):
        (37.8504608603874, 0.1, 0.000445174740730625, 0.00044517474073062436, 0.6711),
    ("tas-mrc", 7, 2, 3):
        (11253294516.782717, 0.03333333333333333, 3.544356784315054e-05, 0.00031899211058835557, 4.0266),
    ("tas-mrc", 7, 4, 4):
        (3.281765632556542e+26, 0.025, 2.1203954484554555e-05, 0.00033926327175287337, 10.7376),
    ("tas-mrc", 8, 1, 1):
        (95.22795353990605, 0.1, 0.00010414325596683134, 0.00010414325596683138, 0.6634875),
    ("tas-mrc", 8, 2, 3):
        (3789692895504.335, 0.03333333333333333, 7.69198762023089e-06, 6.92278885820778e-05, 3.980925),
    ("tas-mrc", 8, 4, 4):
        (2.0208151530118928e+33, 0.025, 4.555390805297553e-06, 7.288625288476085e-05, 10.6158),
    ("tas-sc", 1, 1, 1):
        (0.09387944717879351, 0.1, 0.9800514869094364, 0.9800514869094364, 1.0365),
    ("tas-sc", 1, 2, 3):
        (6.845783198734364e-07, 0.1, 0.9800514869094364, 0.9800514869094364, 6.218999999999999),
    ("tas-sc", 1, 4, 4):
        (3.640226245695895e-17, 0.1, 0.9800514869094364, 0.9800514869094364, 16.584),
    ("tas-sc", 2, 1, 1):
        (0.34308065115819286, 0.1, 0.3666778357970775, 0.3666778357970776, 0.82335),
    ("tas-sc", 2, 2, 3):
        (0.0016307123268226166, 0.1, 0.3666778357970775, 0.3666778357970776, 4.9401),
    ("tas-sc", 2, 4, 4):
        (3.684169568899942e-08, 0.1, 0.3666778357970775, 0.3666778357970776, 13.1736),
    ("tas-sc", 3, 1, 1):
        (0.9300477971688058, 0.1, 0.11011959124063807, 0.11011959124063816, 0.7523),
    ("tas-sc", 3, 2, 3):
        (0.6471897206919489, 0.1, 0.11011959124063807, 0.11011959124063816, 4.5138),
    ("tas-sc", 3, 4, 4):
        (0.31338939455259696, 0.1, 0.11011959124063807, 0.11011959124063816, 12.0368),
    ("tas-sc", 4, 1, 1):
        (2.3805412215975723, 0.1, 0.02981847507006001, 0.029818475070060017, 0.7167749999999999),
    ("tas-sc", 4, 2, 3):
        (181.992812616996, 0.1, 0.02981847507006001, 0.029818475070060017, 4.300649999999999),
    ("tas-sc", 4, 4, 4):
        (1063680.7467551818, 0.1, 0.02981847507006001, 0.029818475070060017, 11.468399999999999),
    ("tas-sc", 5, 1, 1):
        (6.000390137688949, 0.1, 0.00760427610605412, 0.007604276106054118, 0.69546),
    ("tas-sc", 5, 2, 3):
        (46674.20522318423, 0.1, 0.00760427610605412, 0.007604276106054118, 4.172759999999999),
    ("tas-sc", 5, 4, 4):
        (2824046329335.416, 0.1, 0.00760427610605412, 0.007604276106054118, 11.12736),
    ("tas-sc", 6, 1, 1):
        (15.06878418998264, 0.1, 0.0018651376110189958, 0.0018651376110189958, 0.68125),
    ("tas-sc", 6, 2, 3):
        (11707637.812441682, 0.1, 0.0018651376110189958, 0.0018651376110189976, 4.0875),
    ("tas-sc", 6, 4, 4):
        (7.06726554356465e+18, 0.1, 0.0018651376110189958, 0.0018651376110189958, 10.9),
    ("tas-sc", 7, 1, 1):
        (37.8504608603874, 0.1, 0.000445174740730625, 0.00044517474073062436, 0.6711),
    ("tas-sc", 7, 2, 3):
        (2940539587.628344, 0.1, 0.000445174740730625, 0.00044517474073062436, 4.0266),
    ("tas-sc", 7, 4, 4):
        (1.7747563884871576e+25, 0.1, 0.000445174740730625, 0.00044517474073062436, 10.7376),
    ("tas-sc", 8, 1, 1):
        (95.22795353990605, 0.1, 0.00010414325596683134, 0.00010414325596683138, 0.6634875),
    ("tas-sc", 8, 2, 3):
        (745738746391.8025, 0.1, 0.00010414325596683134, 0.00010414325596683138, 3.980925),
    ("tas-sc", 8, 4, 4):
        (4.57331612223862e+31, 0.1, 0.00010414325596683134, 0.00010414325596683138, 10.6158),
}


class TestAnalyticBytes:
    """The analytics reproduce pinned floats bit for bit.

    A refactor that reorders the float operations of the scale, z or a
    gain (say, (w * 2s/Omega) * ... for w * ((2s/Omega) * ...)) changes
    the CLI tables and the validation report; these literals catch it.
    """

    def test_cdf_and_required_snr(self):
        changed = []
        for (scheme, n, n_t, n_r, omega), pinned in PINNED_CDF_AND_SNR.items():
            c = cfg(n=n, n_t=n_t, n_r=n_r, omega=omega)
            got = (
                cdf(Scheme(scheme), 0.1, c),
                cdf(Scheme(scheme), 2.0, c),
                required_snr(Scheme(scheme), 1e-3, OutageQuery(threshold=1.0), c),
            )
            if list(map(repr, got)) != list(map(repr, pinned)):
                changed.append(((scheme, n, n_t, n_r, omega), got))
        assert changed == []

    def test_asymptote_and_coding_gain(self):
        changed = []
        for (scheme, n, n_t, n_r), pinned in PINNED_ASYMPTOTE_AND_GAIN.items():
            for omega in (None, 1.0, 1.3):
                c = cfg(n=n, n_t=n_t, n_r=n_r, omega=omega)
                value, z = outage_asymptotic(Scheme(scheme), OutageQuery(threshold=1.0), c)
                gain = coding_gain(Scheme(scheme), c)
                got = (value, z, gain.printed, gain.extracted,
                       diversity_order(Scheme(scheme), c))
                if list(map(repr, got)) != list(map(repr, pinned)):
                    changed.append(((scheme, n, n_t, n_r, omega), got))
        assert changed == []


def all_outputs(scheme, c):
    """Every scalar analytic output for one channel, as reprs."""
    q = OutageQuery(threshold=1.0)
    value, z = outage_asymptotic(scheme, q, c)
    gain = coding_gain(scheme, c)
    return tuple(map(repr, (
        cdf(scheme, 0.1, c), outage(scheme, q, c), value, z,
        diversity_order(scheme, c), gain.printed, gain.extracted,
        required_snr(scheme, 1e-3, q, c),
    )))


class TestLawCache:
    """Each channel's law is built once per process and never changes a value."""

    def test_warm_cache_gives_fresh_values(self):
        cases = [
            (scheme, cfg(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr, omega=omega))
            for scheme in Scheme
            for n in range(1, 9)
            for n_t in range(1, 5)
            for n_r in range(1, 5)
            for mean_snr in (0.5, 10.0, 3.0e4)
            for omega in (None, 1.0, 1.3)
        ]
        fresh = []
        for scheme, c in cases:
            schemes._law.cache_clear()
            fresh.append(all_outputs(scheme, c))
        schemes._law.cache_clear()
        order = list(range(len(cases)))
        random.Random(5).shuffle(order)
        changed = [i for i in order if all_outputs(*cases[i]) != fresh[i]]
        assert changed == []

    def test_checks_still_raise_with_a_cached_law(self):
        diversity_order(Scheme.TAS_MRC, cfg(n=2, n_t=2, n_r=3))
        assert schemes._law.cache_info().currsize >= 1
        with pytest.raises(ValueError):
            cfg(n=0)
        with pytest.raises(ValueError):
            cfg(n=2.5)
        with pytest.raises(ValueError):
            fading_params(0)

    def test_each_law_is_built_once(self, monkeypatch):
        built = Counter()

        def counting_fading_params(n):
            built[n] += 1
            return fading_params(n)

        monkeypatch.setattr(schemes, "fading_params", counting_fading_params)
        schemes._law.cache_clear()
        channels = [(2, 2, 3), (5, 4, 4)]
        q = OutageQuery(rate=2.0)
        for n, n_t, n_r in channels:
            for scheme in Scheme:
                for k in range(1401):
                    c = cfg(n=n, n_t=n_t, n_r=n_r, mean_snr=10.0 ** ((-100 + k) / 20.0))
                    outage(scheme, q, c)
                    outage_asymptotic(scheme, q, c)
                for k in range(50):
                    required_snr(scheme, 10.0 ** (-1 - k / 5.0), q, cfg(n=n, n_t=n_t, n_r=n_r))
        # One law per (scheme, n, n_t, n_r): both schemes for each channel.
        assert built == Counter({2: 2, 5: 2})
