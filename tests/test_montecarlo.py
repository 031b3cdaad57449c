"""Monte-Carlo engine: stream addressing, determinism, distributional checks."""

import math

import numpy as np
import pytest

from nrayleigh.montecarlo import (
    SimSettings,
    UniformStream,
    _proportion_estimate,
    empirical_cdf,
    empirical_cdf_pair,
    estimate_moments_af,
    estimate_outage,
    sample_channel_coefficient,
    simulate_postproc_snr,
)
from nrayleigh.schemes import ChannelConfig, Scheme


def cfg(n=2, n_t=2, n_r=3, mean_snr=10.0):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr,
                         calibration_omega=1.0)


class TestUniformStream:
    def test_position_slicing(self):
        # The stream is counter-addressed: reading from position p must
        # reproduce the tail of a longer read from position 0, for
        # positions that hit every block-alignment case.
        full = UniformStream(12345).take(1000)
        for pos in (1, 2, 3, 4, 5, 37, 511, 997):
            tail = UniformStream(12345, position=pos).take(1000 - pos)
            assert np.array_equal(full[pos:], tail)

    def test_sequential_takes_are_contiguous(self):
        s = UniformStream(99)
        a = s.take(13)
        b = s.take(29)
        combined = UniformStream(99).take(42)
        assert np.array_equal(np.concatenate([a, b]), combined)
        assert s.position == 42

    def test_range_and_determinism(self):
        u = UniformStream(7).take(100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert np.array_equal(u, UniformStream(7).take(100_000))
        assert not np.array_equal(u[:50_000], UniformStream(8).take(50_000))

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformStream(-1)
        with pytest.raises(ValueError):
            UniformStream(1, position=-2)


class TestChannelCoefficient:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unit_mean_power(self, n):
        stream = UniformStream(2024)
        draws = 20_000
        powers = np.array(
            [abs(sample_channel_coefficient(n, stream)) ** 2 for _ in range(draws)]
        )
        # var(|h|^2) = 2^n - 1 for a product of n unit-mean exponentials.
        sigma = math.sqrt((2.0**n - 1.0) / draws)
        assert abs(powers.mean() - 1.0) <= 3.0 * sigma

    def test_double_cascade_fourth_moment(self):
        # E[|h|^4] = E[X^2] E[Y^2] = 4 for two independent exponentials.
        stream = UniformStream(55)
        draws = 20_000
        p2 = np.array(
            [abs(sample_channel_coefficient(2, stream)) ** 4 for _ in range(draws)]
        )
        # var(X^2 Y^2) = E[X^4]E[Y^4] - 16 = 560.
        sigma = math.sqrt(560.0 / draws)
        assert abs(p2.mean() - 4.0) <= 3.0 * sigma

    def test_exponential_base_case(self):
        # n = 1: squared magnitude is a standard exponential.
        stream = UniformStream(11)
        draws = 50_000
        p = np.array(
            [abs(sample_channel_coefficient(1, stream)) ** 2 for _ in range(draws)]
        )
        assert abs(p.mean() - 1.0) <= 3.0 / math.sqrt(draws)
        assert abs(np.mean(p <= 1.0) - (1.0 - math.exp(-1))) <= 3.0 * 0.48 / math.sqrt(
            draws
        )

    def test_draw_budget(self):
        stream = UniformStream(1)
        sample_channel_coefficient(4, stream)
        assert stream.position == 8


class TestSimulatePostprocSnr:
    def test_degenerate_selection_identical(self):
        c = cfg(n_t=1, n_r=1)
        for trial in range(200):
            pos = trial * 2 * c.n
            s_mrc = simulate_postproc_snr(Scheme.TAS_MRC, c, UniformStream(3, pos))
            s_sc = simulate_postproc_snr(Scheme.TAS_SC, c, UniformStream(3, pos))
            assert s_mrc == s_sc

    def test_pointwise_dominance(self):
        # On a shared realization the combined SNR can never be below the
        # best single branch.
        c = cfg()
        draws = 2 * c.n * c.n_t * c.n_r
        for trial in range(500):
            pos = trial * draws
            s_mrc = simulate_postproc_snr(Scheme.TAS_MRC, c, UniformStream(17, pos))
            s_sc = simulate_postproc_snr(Scheme.TAS_SC, c, UniformStream(17, pos))
            assert s_mrc >= s_sc

    def test_rayleigh_base_case_outage(self):
        # 1x1, n=1: P(snr <= mean) = 1 - 1/e exactly.
        c = cfg(n=1, n_t=1, n_r=1, mean_snr=4.0)
        settings = SimSettings(trials=100_000, master_seed=5)
        est = estimate_outage(Scheme.TAS_MRC, c, 4.0, settings)
        expected = 1.0 - math.exp(-1.0)
        assert abs(est.value - expected) <= 3.0 * est.std_error


class TestDeterminism:
    def test_partition_width_invariance(self):
        c = cfg(n=3)
        reference = estimate_outage(
            Scheme.TAS_SC, c, 2.0, SimSettings(trials=30_000, master_seed=9,
                                               partition_width=30_000)
        )
        for width in (997, 1000, 4096, 65536):
            est = estimate_outage(
                Scheme.TAS_SC, c, 2.0,
                SimSettings(trials=30_000, master_seed=9, partition_width=width),
            )
            assert est == reference

    def test_worker_count_invariance(self):
        c = cfg(n=2)
        results = [
            estimate_moments_af(
                Scheme.TAS_MRC, c,
                SimSettings(trials=30_000, master_seed=4, partition_width=2048,
                            workers=workers),
            )
            for workers in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_seed_changes_results(self):
        c = cfg()  # P(selected power <= 1) ~ 5%: ample events either way
        a = estimate_outage(Scheme.TAS_MRC, c, 10.0, SimSettings(trials=20_000, master_seed=1))
        b = estimate_outage(Scheme.TAS_MRC, c, 10.0, SimSettings(trials=20_000, master_seed=2))
        assert a.value != b.value


class TestEstimateOutage:
    def test_zero_threshold(self):
        est = estimate_outage(Scheme.TAS_SC, cfg(), 0.0,
                              SimSettings(trials=5_000, master_seed=3))
        assert est.value == 0.0
        assert est.low_confidence

    def test_huge_threshold(self):
        est = estimate_outage(Scheme.TAS_SC, cfg(), 1e12,
                              SimSettings(trials=5_000, master_seed=3))
        assert est.value == 1.0
        assert not est.low_confidence

    def test_ci_contains_value(self):
        est = estimate_outage(Scheme.TAS_MRC, cfg(), 1.0,
                              SimSettings(trials=50_000, master_seed=21))
        assert est.ci95_low <= est.value <= est.ci95_high

    @pytest.mark.parametrize("events,flagged", [(9, True), (10, False)])
    def test_low_event_threshold_is_ten(self, events, flagged):
        # Counted in integers: 10 / 1077 * 1077 < 10 in floating point.
        assert _proportion_estimate(events, 1077).low_confidence is flagged

    def test_low_event_flag(self):
        c = cfg(mean_snr=1e5)
        est = estimate_outage(Scheme.TAS_MRC, c, 1.0,
                              SimSettings(trials=20_000, master_seed=2))
        assert est.low_confidence


class TestEmpiricalCdf:
    def test_single_huge_point(self):
        estimates = empirical_cdf(Scheme.TAS_SC, cfg(), SimSettings(trials=2_000, master_seed=1),
                                  [1e12])
        assert estimates[0].value == 1.0

    def test_nondecreasing_along_grid(self):
        grid = np.logspace(-2, 2, 25)
        estimates = empirical_cdf(Scheme.TAS_MRC, cfg(),
                                  SimSettings(trials=40_000, master_seed=6), grid)
        values = [e.value for e in estimates]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_matches_pointwise_estimates(self):
        c = cfg(n=2)
        settings = SimSettings(trials=25_000, master_seed=13)
        grid = [0.5, 2.0, 8.0]
        cdf = empirical_cdf(Scheme.TAS_SC, c, settings, grid)
        for g, est in zip(grid, cdf):
            assert est.value == estimate_outage(Scheme.TAS_SC, c, g, settings).value

    def test_scheme_ordering_shared_streams(self):
        # Shared realizations make the empirical ordering exact, not just
        # statistical.
        pair = empirical_cdf_pair(cfg(), SimSettings(trials=20_000, master_seed=8),
                                  np.logspace(-2, 1.5, 15))
        for e_mrc, e_sc in zip(pair[Scheme.TAS_MRC], pair[Scheme.TAS_SC]):
            assert e_mrc.value <= e_sc.value

    def test_grid_validation(self):
        settings = SimSettings(trials=1_000, master_seed=1)
        with pytest.raises(ValueError):
            empirical_cdf(Scheme.TAS_SC, cfg(), settings, [2.0, 1.0])
        with pytest.raises(ValueError):
            empirical_cdf(Scheme.TAS_SC, cfg(), settings, [])


class TestIndependentCrossCheck:
    def test_mrc_selection_against_plain_numpy_simulation(self):
        # Same channel simulated with numpy's own generator and a direct
        # product-of-exponentials construction; in particular this pins the
        # receive-sum / transmit-max grouping for asymmetric arrays.
        n, n_t, n_r = 3, 2, 3
        c = cfg(n=n, n_t=n_t, n_r=n_r, mean_snr=1.0)
        trials = 400_000
        rng = np.random.default_rng(123456)
        powers = np.prod(rng.exponential(size=(trials, n_t, n_r, n)), axis=-1)
        s_ref = {
            Scheme.TAS_MRC: powers.sum(axis=2).max(axis=1),
            Scheme.TAS_SC: powers.max(axis=(1, 2)),
        }
        grid = [0.25, 1.0, 3.0, 8.0]
        estimates = {
            scheme: empirical_cdf(scheme, c, SimSettings(trials=trials, master_seed=77), grid)
            for scheme in Scheme
        }
        for scheme in Scheme:
            for g, est in zip(grid, estimates[scheme]):
                ref = float(np.mean(s_ref[scheme] <= g))
                sigma = math.sqrt(max(ref * (1 - ref), 1e-12) / trials)
                # Two independent estimators: allow 4 sigma on their difference.
                assert abs(est.value - ref) <= 4.0 * math.sqrt(2.0) * sigma, (
                    scheme, g, est.value, ref
                )


class TestMomentsAf:
    def test_af_invariant_to_mean_snr(self):
        settings = SimSettings(trials=20_000, master_seed=31)
        af_low = estimate_moments_af(Scheme.TAS_SC, cfg(mean_snr=1.0), settings).af
        af_high = estimate_moments_af(Scheme.TAS_SC, cfg(mean_snr=100.0), settings).af
        assert af_low == af_high  # bitwise: the selection statistic is scale-free

    def test_siso_single_cascade_af(self):
        # True AF of an exponential SNR is exactly 1; the closed-form model
        # value 1/m = 0.9648 sits about 3.5% below it.
        c = cfg(n=1, n_t=1, n_r=1)
        est = estimate_moments_af(Scheme.TAS_SC, c, SimSettings(trials=200_000, master_seed=12)).af
        assert abs(est.value - 1.0) <= 4.0 * est.std_error
        assert abs(est.value - 0.964785335262904) <= 0.05

    def test_mean_matches_selected_average(self):
        c = cfg(n=2, n_t=2, n_r=2)
        settings = SimSettings(trials=50_000, master_seed=44)
        est = estimate_moments_af(Scheme.TAS_MRC, c, settings)
        assert est.mean.ci95_low <= est.mean.value <= est.mean.ci95_high
        assert est.second_moment.value >= est.mean.value**2

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SimSettings(trials=0)
        with pytest.raises(ValueError):
            SimSettings(trials=1, master_seed=2**64)
        with pytest.raises(ValueError):
            SimSettings(trials=1, partition_width=0)
        with pytest.raises(ValueError):
            SimSettings(trials=1, workers=0)
