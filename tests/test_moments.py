"""Closed-form moments, amount of fading and their quadrature oracle."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import integrate, special

import nrayleigh
from nrayleigh import moments, validation
from nrayleigh.fading import fading_params
from nrayleigh.moments import (
    CAPTION_COEFFS,
    NonPhysicalMomentError,
    WeightingCoefficients,
    _moment_sum,
    af_bound_tas_mrc,
    af_simo,
    af_siso,
    amount_of_fading,
    default_weights,
    moment,
    moment_oracle,
)
from nrayleigh.schemes import ChannelConfig, ConvergenceError, Scheme

# mpmath, dps=50 (direct gamma-recurrence arithmetic)
AF_SISO_1 = 0.964785335262904
AF_SISO_2 = 2.8879929490460258
AF_SIMO_2_3 = 0.87785564430678028
AF_SIMO_2_2 = 1.3559941932081936
AF_BOUND_2_2X2 = 1.4344497575632685
AF_BOUND_3_2X3 = 2.3557748777708897
AF_BOUND_6_2X2 = 9.9203050634652932
SISO_MEAN_COEFF = 1.0004  # Omega(1)/2


def cfg(n=2, n_t=2, n_r=2, mean_snr=10.0):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr,
                         calibration_omega=1.0)


def model(scheme, c):
    """(s, K, beta) of the uncalibrated model CDF P(s, beta g^(1/n))^K, from
    the stdlib and scipy only: beta = (2s/Omega) (G mean_snr)^(-1/n), with
    s = m n_r, K = n_t, G = n_r for TAS/MRC and s = m, K = n_t n_r, G = 1
    for TAS/SC."""
    fp = fading_params(c.n)
    if scheme is Scheme.TAS_MRC:
        s, big_k, gain = fp.m * c.n_r, c.n_t, c.n_r
    else:
        s, big_k, gain = fp.m, c.n_t * c.n_r, 1
    return s, big_k, 2.0 * s / fp.omega * (gain * c.mean_snr) ** (-1.0 / c.n)


def printed_moment(l, scheme, c, b):
    """The l-th moment sum as printed: one b / Gamma(s) multiplies every
    expansion term k = 1..K,

        sum_k (-1)^(k+1) C(K, k) b nl Gamma(a_k + nl) / (Gamma(s) k^(a_k+nl) beta^nl)

    with a_k = k(s - 1) and (s, K, beta) from ``model``.
    """
    s, big_k, beta = model(scheme, c)
    nl = c.n * l
    return sum(
        (-1) ** (k + 1) * special.binom(big_k, k) * b * nl * math.exp(
            special.gammaln(k * (s - 1.0) + nl) - special.gammaln(s)
            - (k * (s - 1.0) + nl) * math.log(k) - nl * math.log(beta)
        )
        for k in range(1, big_k + 1)
    )


def quadpack_moment(l, scheme, c):
    """E[g^l] = l n beta^(-nl) int_0^inf t^(nl-1) (1 - P(s, t)^K) dt by
    QUADPACK, with 1 - P^K taken from ``gammaincc`` alone."""
    s, big_k, beta = model(scheme, c)
    nl = c.n * l

    def integrand(t):
        return t ** (nl - 1) * -math.expm1(big_k * special.log1p(-special.gammaincc(s, t)))

    knee = s + nl
    total = sum(
        integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for a, b in ((0.0, knee), (knee, math.inf))
    )
    return l * c.n * total / beta ** nl


def subprocess_env(**extra):
    """The environment for a child interpreter that imports this nrayleigh."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(nrayleigh.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    return env


class TestWeights:
    def test_caption_table(self):
        assert default_weights(2) == WeightingCoefficients(2.3, 1.5)
        assert default_weights(6) == WeightingCoefficients(1.44, 1.68)

    def test_no_extrapolation(self):
        with pytest.raises(ValueError, match="coefficients"):
            default_weights(7)
        # A non-whole order is refused, not truncated to n = 2's row.
        for bad in (2.5, True, math.inf):
            with pytest.raises(ValueError, match="cascade order must be an integer"):
                default_weights(bad)

    def test_bounds(self):
        for b1, b2 in ((1.0, 1.5), (math.inf, 1.5), (1.5, math.inf), (math.nan, 1.5)):
            with pytest.raises(ValueError):
                WeightingCoefficients(b1=b1, b2=b2)


class TestBracketIdentity:
    @pytest.mark.parametrize("a,n,l,k", [
        (4.9401, 2, 1, 1),
        (4.9401, 2, 1, 2),
        (3.2934, 2, 2, 1),
        (1.6467, 3, 2, 4),
    ])
    def test_gamma_recurrence(self, a, n, l, k):
        # a_k G(a_k + nl) - G(a_k + nl + 1) == -nl G(a_k + nl): the direct
        # subtractive form agrees with the cancellation-free form used by
        # the implementation.
        a_k = k * (a - 1.0)
        nl = n * l
        direct = a_k * math.gamma(a_k + nl) - math.gamma(a_k + nl + 1)
        assert direct == pytest.approx(-nl * math.gamma(a_k + nl), rel=1e-12)


class TestMomentFormulas:
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("factor", [2.0, 10.0])
    def test_scale_law(self, l, factor):
        w = default_weights(2)
        base_mrc = moment(l, Scheme.TAS_MRC, cfg(mean_snr=5.0), w)
        scaled_mrc = moment(l, Scheme.TAS_MRC, cfg(mean_snr=5.0 * factor), w)
        assert scaled_mrc == pytest.approx(base_mrc * factor**l, rel=1e-12)
        base_sc = moment(l, Scheme.TAS_SC, cfg(mean_snr=5.0), w)
        scaled_sc = moment(l, Scheme.TAS_SC, cfg(mean_snr=5.0 * factor), w)
        assert scaled_sc == pytest.approx(base_sc * factor**l, rel=1e-12)

    @pytest.mark.parametrize("l", [1, 2])
    def test_siso_reduction_is_algebraic(self, l):
        # With one term (N = 1) the closed form equals the exact model
        # moment times b * nl / (m + nl - 1); checking the identity checks
        # formula and oracle against each other with no fitted slack.
        n = 2
        w = WeightingCoefficients(b1=1.5, b2=1.5)
        c = cfg(n=n, n_t=1, n_r=1)
        m = fading_params(n).m
        nl = n * l
        expected_ratio = w.b2 * nl / (m + nl - 1.0)
        formula = moment(l, Scheme.TAS_SC, c, w)
        oracle = moment_oracle(l, Scheme.TAS_SC, c)
        assert formula / oracle == pytest.approx(expected_ratio, rel=1e-7)

    def test_against_oracle_at_reference_config(self):
        # First moments at the fitted coefficients stay well inside the
        # loose comparison band.
        w = default_weights(2)
        for scheme in Scheme:
            value = moment(1, scheme, cfg(), w)
            oracle = moment_oracle(1, scheme, cfg())
            assert abs(value - oracle) / oracle <= 0.25

    # README "Known deviations" 3: the shipped bound-derived form against
    # the printed sum.
    def test_printed_form_matches_bound_form_for_single_term(self):
        # With N = 1 there is exactly one expansion term, so the printed
        # and bound-derived forms coincide.
        w = WeightingCoefficients(b1=2.0, b2=2.0)
        c = cfg(n=3, n_t=1, n_r=1)
        assert printed_moment(1, Scheme.TAS_SC, c, w.b2) == pytest.approx(
            moment(1, Scheme.TAS_SC, c, w), rel=1e-12
        )

    def test_printed_form_goes_nonphysical_for_mrc(self):
        # As printed (single 1/Gamma(a) across terms), the k = 2 term
        # outgrows the k = 1 term and the alternating sum turns negative:
        # at 2x2 from n = 4 on, at 2x3 already at n = 2.  The shipped form
        # stays positive there.
        for n, n_r in ((4, 2), (5, 2), (6, 2), (2, 3)):
            w = default_weights(n)
            c = cfg(n=n, n_r=n_r)
            assert printed_moment(1, Scheme.TAS_MRC, c, w.b1) <= 0.0, (n, n_r)
            assert moment(1, Scheme.TAS_MRC, c, w) > 0.0, (n, n_r)

    def test_printed_form_reasonable_at_small_cascade(self):
        # The printed TAS/MRC first moments at 2x2 with the fitted b1, as
        # the library's printed variant gave them before it was deleted.
        printed = {
            n: printed_moment(1, Scheme.TAS_MRC, cfg(n=n), default_weights(n).b1)
            for n in (2, 3)
        }
        assert printed[2] == pytest.approx(27.591729553946877, rel=1e-12)
        assert printed[3] == pytest.approx(9.199670677025622, rel=1e-12)
        oracle = moment_oracle(1, Scheme.TAS_MRC, cfg(n=2))
        assert abs(printed[2] - oracle) / oracle <= 0.20

    def test_nonphysical_guard_on_shipped_form(self):
        # Extreme weights let a higher-order expansion term dominate with a
        # negative sign; the sum must signal rather than return it.
        with pytest.raises(NonPhysicalMomentError):
            moment(1, Scheme.TAS_SC, cfg(), WeightingCoefficients(b1=2.0, b2=20.0))

    # NonPhysicalMomentError covers every float-range failure of the sum;
    # the link-design tally counts it as a refusal, any other exception as
    # a failure.
    def test_term_past_the_float_range_is_nonphysical(self):
        # b^k overflows exp at k = 2 for both schemes.
        w = WeightingCoefficients(b1=1e308, b2=1e308)
        for scheme in Scheme:
            with pytest.raises(NonPhysicalMomentError, match="overflows"):
                amount_of_fading(scheme, cfg(), w)

    def test_lgamma_past_the_float_range_is_nonphysical(self):
        # The TAS/MRC shape m n_r is finite, lgamma(a_k + nl) is not.
        with pytest.raises(NonPhysicalMomentError, match="overflows"):
            moment(1, Scheme.TAS_MRC, ChannelConfig(2, 3, 10**305, 1.0), default_weights(2))

    def test_squared_first_moment_underflow_is_nonphysical(self):
        # m1 = 4.4e-223 squares to 0.
        c = ChannelConfig(4, 5, 3162277660168379, 1.0)
        assert 0.0 < moment(1, Scheme.TAS_MRC, c, default_weights(4)) < 1e-200
        with pytest.raises(NonPhysicalMomentError, match="underflows"):
            amount_of_fading(Scheme.TAS_MRC, c, default_weights(4))

    def test_moment_order_validation(self):
        with pytest.raises(ValueError):
            moment(0, Scheme.TAS_MRC, cfg(), default_weights(2))

    def test_order_statistics_exponent_cap(self):
        # The moment expansion is validated for exponents up to 64 only.
        with pytest.raises(ValueError, match="order-statistics exponent .* <= 64, got 65"):
            _moment_sum(1, 1.6467, 65, 1.0, 2, 1.5)


class TestAmountOfFading:
    def test_scale_invariance(self):
        # The mean-SNR scale cancels between E[g^2] and E[g]^2; agreement is
        # to rounding (the scale still passes through log space per term).
        w = default_weights(3)
        assert amount_of_fading(Scheme.TAS_SC, cfg(n=3, mean_snr=1.0), w) == (
            pytest.approx(
                amount_of_fading(Scheme.TAS_SC, cfg(n=3, mean_snr=100.0), w),
                rel=1e-12,
            )
        )

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_increasing_in_cascade_order(self, scheme):
        values = [
            amount_of_fading(scheme, cfg(n=n), default_weights(n))
            for n in (2, 3, 4, 5, 6)
        ]
        assert all(v > 0 for v in values)
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))

    def test_scheme_ordering_with_fitted_coefficients(self):
        # Best-pair selection fades harder than combining for n >= 3; at
        # n = 2 the fitted coefficients put the closed forms within 7% of
        # each other with the order inverted (the simulator shows the true
        # ordering holds there; see the Monte-Carlo tests).
        for n in (3, 4, 5, 6):
            w = default_weights(n)
            assert amount_of_fading(Scheme.TAS_MRC, cfg(n=n), w) < amount_of_fading(
                Scheme.TAS_SC, cfg(n=n), w
            )
        w2 = default_weights(2)
        af_mrc = amount_of_fading(Scheme.TAS_MRC, cfg(n=2), w2)
        af_sc = amount_of_fading(Scheme.TAS_SC, cfg(n=2), w2)
        assert af_mrc == pytest.approx(af_sc, rel=0.07)
        assert af_mrc > af_sc  # documented closed-form inversion at n = 2


class TestAfBound:
    def test_frozen_values(self):
        assert af_bound_tas_mrc(cfg(n=2)) == pytest.approx(AF_BOUND_2_2X2, rel=1e-12)
        assert af_bound_tas_mrc(cfg(n=3, n_r=3)) == pytest.approx(
            AF_BOUND_3_2X3, rel=1e-12
        )
        assert af_bound_tas_mrc(cfg(n=6)) == pytest.approx(AF_BOUND_6_2X2, rel=1e-12)

    def test_mean_snr_irrelevant(self):
        assert af_bound_tas_mrc(cfg(mean_snr=1.0)) == af_bound_tas_mrc(
            cfg(mean_snr=1e4)
        )

    def test_two_transmit_reduction_is_loose(self):
        # The compact 2^(n/n_r) - 1 reduction tracks the bound only in
        # order of magnitude (43% high at n = 2, 2x2); recorded, not
        # asserted tighter.
        value = af_bound_tas_mrc(cfg(n=2))
        target = 2.0 ** (2.0 / 2.0) - 1.0
        assert 0.3 * value <= target <= value

    def test_range_guard(self):
        with pytest.raises(ValueError):
            af_bound_tas_mrc(ChannelConfig(n=9, n_t=2, n_r=2, mean_snr=1.0))
        with pytest.raises(ValueError):
            af_bound_tas_mrc(ChannelConfig(n=2, n_t=5, n_r=4, mean_snr=1.0))


class TestAfSpecialCases:
    def test_siso_frozen_values(self):
        assert af_siso(1) == pytest.approx(AF_SISO_1, rel=1e-12)
        assert af_siso(2) == pytest.approx(AF_SISO_2, rel=1e-12)

    def test_siso_single_cascade_identity(self):
        assert af_siso(1) == pytest.approx(1.0 / fading_params(1).m, rel=1e-12)

    def test_siso_increasing(self):
        values = [af_siso(n) for n in range(1, 9)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))

    def test_simo_frozen_values(self):
        assert af_simo(2, 3) == pytest.approx(AF_SIMO_2_3, rel=1e-12)
        assert af_simo(2, 2) == pytest.approx(AF_SIMO_2_2, rel=1e-12)

    def test_simo_single_receive_is_siso(self):
        for n in (1, 2, 5):
            assert af_simo(n, 1) == pytest.approx(af_siso(n), rel=1e-12)

    def test_simo_exact_tradeoff_at_single_cascade(self):
        for n_r in (1, 2, 3, 6):
            assert af_simo(1, n_r) == pytest.approx(af_siso(1) / n_r, rel=1e-12)

    def test_simo_approximate_tradeoff_at_double_cascade(self):
        for n_r in (2, 3):
            assert af_simo(2, n_r) == pytest.approx(
                af_siso(2) / n_r, rel=0.15
            )
            assert af_simo(2, n_r) == pytest.approx(
                2.5 ** (2.0 / n_r) - 1.0, rel=0.15
            )

    def test_simo_decreasing_in_receive_count(self):
        for n in (1, 2, 4):
            values = [af_simo(n, n_r) for n_r in (1, 2, 3, 4)]
            assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_worse_than_nakagami(self):
        # The cascade fades harder than a shape-m channel (AF = 1/m).
        for n in range(2, 9):
            assert af_siso(n) > 1.0 / fading_params(n).m


class TestMomentOracle:
    def test_siso_single_cascade_mean(self):
        c = ChannelConfig(n=1, n_t=1, n_r=1, mean_snr=7.0, calibration_omega=1.0)
        assert moment_oracle(1, Scheme.TAS_SC, c) == pytest.approx(
            SISO_MEAN_COEFF * 7.0, rel=1e-8
        )

    def test_jensen(self):
        for scheme in Scheme:
            m1 = moment_oracle(1, scheme, cfg(n=3))
            m2 = moment_oracle(2, scheme, cfg(n=3))
            assert m2 >= m1 * m1

    def test_scale_law(self):
        m1_a = moment_oracle(1, Scheme.TAS_MRC, cfg(mean_snr=3.0))
        m1_b = moment_oracle(1, Scheme.TAS_MRC, cfg(mean_snr=6.0))
        assert m1_b == pytest.approx(2.0 * m1_a, rel=1e-7)

    def test_calibration_is_ignored(self):
        # The moment model is defined on the uncalibrated distribution.
        base = ChannelConfig(n=2, n_t=2, n_r=2, mean_snr=10.0, calibration_omega=1.0)
        calibrated = ChannelConfig(
            n=2, n_t=2, n_r=2, mean_snr=10.0, calibration_omega=1.176
        )
        assert moment_oracle(1, Scheme.TAS_MRC, calibrated) == pytest.approx(
            moment_oracle(1, Scheme.TAS_MRC, base), rel=1e-10
        )

    def test_matches_quadpack_on_the_grid(self):
        # 160 cases: n = 1..8, five antenna layouts, both schemes, l = 1, 2.
        far = []
        for n in range(1, 9):
            for n_t, n_r in ((1, 1), (2, 2), (2, 3), (4, 4), (1, 4)):
                c = cfg(n=n, n_t=n_t, n_r=n_r)
                for scheme in Scheme:
                    for l in (1, 2):
                        value, reference = moment_oracle(l, scheme, c), quadpack_moment(l, scheme, c)
                        if not abs(value - reference) <= 1e-10 * reference:
                            far.append((n, n_t, n_r, scheme.value, l, value, reference))
        assert far == []

    def test_gap_between_steps_raises(self, monkeypatch):
        # At step 1/2 the sums at steps 1/2 and 1 part by far more than 1e-6.
        monkeypatch.setattr(moments, "_DE_STEP", 0.5)
        with pytest.raises(ConvergenceError, match="error too large"):
            moment_oracle(1, Scheme.TAS_MRC, cfg())

    def test_non_finite_value_raises(self, monkeypatch):
        monkeypatch.setattr(moments, "_ln_reg_lower_gamma", lambda a, x: math.nan)
        with pytest.raises(ConvergenceError, match="gave nan"):
            moment_oracle(1, Scheme.TAS_MRC, cfg())

    def test_overflow_raises(self):
        # The 20th moment at n = 8 exceeds the float range.
        with pytest.raises(ConvergenceError, match="gave inf"):
            moment_oracle(20, Scheme.TAS_MRC, cfg(n=8))

    def test_bytes_do_not_depend_on_numpy_dispatch(self):
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:
            __cpu_features__ = {}
        if not __cpu_features__.get("AVX512_SKX"):
            pytest.skip("numpy dispatches no AVX-512 kernels on this CPU (AVX512_SKX off), "
                        "so there is no second dispatch level to compare")
        # A last-bit change in a few nodes seldom moves the rounded sum, so
        # the whole grid is compared.  The report covers every analytic
        # criterion.
        probe = (
            "from nrayleigh import ChannelConfig, OutageQuery, Scheme, SimSettings, moment_oracle\n"
            "from nrayleigh import outage, outage_asymptotic, required_snr, validation\n"
            "for n in range(1, 9):\n"
            "    for n_t, n_r in ((1, 1), (2, 2), (2, 3), (4, 4), (1, 4)):\n"
            "        for scheme in Scheme:\n"
            "            for l in (1, 2):\n"
            "                c = ChannelConfig(n, n_t, n_r, 10.0)\n"
            "                print(repr(moment_oracle(l, scheme, c)))\n"
            "print()\n"
            "query = OutageQuery(threshold=1.0)\n"
            "for n in range(1, 9):\n"
            "    for scheme in Scheme:\n"
            "        c = ChannelConfig(n, 2, 3, 1.0)\n"
            "        for db in range(-10, 61, 5):\n"
            "            at = c.with_mean_snr(10.0 ** (db / 10.0))\n"
            "            print(repr(outage(scheme, query, at)),\n"
            "                  repr(outage_asymptotic(scheme, query, at)[0]))\n"
            "        for target in (1e-1, 1e-4, 1e-7, 1e-12):\n"
            "            print(repr(required_snr(scheme, target, query, c)))\n"
            "print()\n"
            "criteria = [validation._CRITERIA[k] for k in (0, 2, 3, 4, 5, 7)]\n"
            "report = validation._run(SimSettings(), criteria)\n"
            "print(validation.report_to_json(report), end='')\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", probe], env=subprocess_env(**extra),
                capture_output=True, text=True, check=True,
            ).stdout
            for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"})
        ]
        oracle, analytic, report = outputs[0].split("\n\n")
        assert len(oracle.split()) == 160
        assert len(analytic.split()) == 8 * 2 * (15 * 2 + 4)
        # c01, c03-c06 and c08, numbered c01-c06 in the probe's report.
        assert [c["name"] for c in json.loads(report)["criteria"]] == [
            validation._CRITERIA[k][0] for k in (0, 2, 3, 4, 5, 7)
        ]
        assert outputs[0] == outputs[1]
