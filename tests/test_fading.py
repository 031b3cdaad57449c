"""Severity fit of the cascaded Rayleigh channel and the branch SNR
distribution it implies.

The analytics reach the stretched-gamma SNR distribution through
``schemes._shape_exponent_scale`` and ``schemes.postproc_cdf``; with one
transmit antenna the TAS/MRC output is the MRC-combined branch SNR.
"""

import pytest

from nrayleigh.fading import fading_params
from nrayleigh.schemes import ChannelConfig, Scheme, _shape_exponent_scale, postproc_cdf

# mpmath, dps=50, direct arithmetic of the severity fit
EXPECTED_PARAMS = {
    1: (1.0365, 2.0008),
    2: (1.6467, 1.5708709218747201),
    5: (3.4773, 1.3060383096203316),
}


class TestFadingParams:
    @pytest.mark.parametrize("n,expected", sorted(EXPECTED_PARAMS.items()))
    def test_frozen_values(self, n, expected):
        fp = fading_params(n)
        assert fp.m == pytest.approx(expected[0], abs=1e-12)
        assert fp.omega == pytest.approx(expected[1], abs=1e-12)

    def test_monotone_trends(self):
        params = [fading_params(n) for n in range(1, 9)]
        assert all(p2.m > p1.m for p1, p2 in zip(params, params[1:]))
        assert all(p2.omega < p1.omega for p1, p2 in zip(params, params[1:]))
        assert all(p.m > 1.0 for p in params)
        assert all(p.omega > 1.12 for p in params)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, float("inf"), float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            fading_params(bad)


def mrc_cdf(g, n, n_r, mean_snr):
    """CDF of the MRC-combined SNR of n_r branches, without calibration."""
    return postproc_cdf(Scheme.TAS_MRC, g, ChannelConfig(n, 1, n_r, mean_snr, 1.0))


class TestBranchSnrParams:
    def test_composition(self):
        c = ChannelConfig(n=2, n_t=2, n_r=3, mean_snr=10.0, calibration_omega=1.0)
        fp = fading_params(2)
        a, k_mrc, beta_mrc = _shape_exponent_scale(Scheme.TAS_MRC, c)
        m, k_sc, beta_sc = _shape_exponent_scale(Scheme.TAS_SC, c)
        assert a == pytest.approx(fp.m * 3)
        assert m == pytest.approx(fp.m)
        assert (k_mrc, k_sc) == (2, 6)
        assert beta_mrc == pytest.approx((2 * a / fp.omega) * (30.0) ** -0.5)
        assert beta_sc == pytest.approx((2 * fp.m / fp.omega) * 10.0**-0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_scale_exponent(self, n):
        # Both scales shrink as mean_snr^(-1/n).
        c1 = ChannelConfig(n=n, n_t=2, n_r=2, mean_snr=4.0)
        c2 = c1.with_mean_snr(8.0)
        factor = 2.0 ** (-1.0 / n)
        for scheme in Scheme:
            beta1 = _shape_exponent_scale(scheme, c1)[2]
            beta2 = _shape_exponent_scale(scheme, c2)[2]
            assert beta2 == pytest.approx(beta1 * factor, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ChannelConfig(n=2, n_t=1, n_r=0, mean_snr=1.0)
        with pytest.raises(ValueError):
            ChannelConfig(n=2, n_t=1, n_r=2, mean_snr=0.0)


class TestMrcSnrDistribution:
    def test_cdf_limits(self):
        assert mrc_cdf(0.0, 2, 3, 10.0) == 0.0
        assert mrc_cdf(1e9, 2, 3, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_cdf_monotone(self):
        grid = [10 ** (i / 25 - 2) for i in range(101)]
        values = [mrc_cdf(g, 3, 2, 5.0) for g in grid]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("c", [0.1, 2.0, 10.0])
    def test_scale_law(self, c):
        # F(g; mean) depends only on g/mean.
        for g in (0.3, 1.0, 5.0, 20.0):
            assert mrc_cdf(g, 2, 3, 7.0) == pytest.approx(
                mrc_cdf(c * g, 2, 3, 7.0 * c), rel=1e-12
            )
