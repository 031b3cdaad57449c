"""Monte-Carlo engine: stream addressing, determinism, distributional checks."""

import math

import numpy as np
import pytest

from nrayleigh import montecarlo
from nrayleigh.montecarlo import (
    SimSettings,
    _chunk_selected,
    _chunk_trials,
    _raw_uniforms,
    empirical_cdf_pair,
    estimate_moments_af,
)
from nrayleigh.schemes import ChannelConfig, Scheme


def cfg(n=2, n_t=2, n_r=3, mean_snr=10.0):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr,
                         calibration_omega=1.0)


def draws_per_trial(c):
    return 2 * c.n * c.n_t * c.n_r


def outage_point(scheme, c, gamma_o, settings):
    """P(post-processing SNR <= gamma_o) from a single-point CDF grid."""
    return empirical_cdf_pair(c, settings, [gamma_o])[scheme][0]


class TestUniformStream:
    """The counter-addressed uniform stream behind every trial."""

    def test_position_slicing(self):
        # The stream is counter-addressed: reading from position p must
        # reproduce the tail of a longer read from position 0, for
        # positions that hit every block-alignment case, and a strided
        # read (the kernel's magnitude slots) must skip without shifting.
        full = _raw_uniforms(12345, 0, 1000)
        for pos in (1, 2, 3, 4, 5, 37, 511, 997):
            tail = _raw_uniforms(12345, pos, 1000 - pos)
            assert np.array_equal(full[pos:], tail)
            assert np.array_equal(full[pos::2], _raw_uniforms(12345, pos, 1000 - pos, step=2))

    def test_sequential_takes_are_contiguous(self):
        a = _raw_uniforms(99, 0, 13)
        b = _raw_uniforms(99, 13, 29)
        combined = _raw_uniforms(99, 0, 42)
        assert np.array_equal(np.concatenate([a, b]), combined)

    def test_range_and_determinism(self):
        u = _raw_uniforms(7, 0, 100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert np.array_equal(u, _raw_uniforms(7, 0, 100_000))
        assert not np.array_equal(u[:50_000], _raw_uniforms(8, 0, 50_000))

    def test_validation(self):
        # The master seed is the 64-bit Philox key: seeds outside it are
        # refused, and the largest one keys a stream.
        with pytest.raises(ValueError):
            SimSettings(trials=1, master_seed=-1)
        with pytest.raises(ValueError):
            SimSettings(trials=1, master_seed=2**64)
        top = SimSettings(trials=1, master_seed=2**64 - 1)
        u = _raw_uniforms(top.master_seed, 0, 8)
        assert np.all(u >= 0.0) and np.all(u < 1.0)


class TestChannelCoefficient:
    """Coefficient powers: at 1x1 both selection statistics equal |h|^2."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unit_mean_power(self, n):
        draws = 20_000
        est = estimate_moments_af(
            cfg(n=n, n_t=1, n_r=1, mean_snr=1.0), SimSettings(trials=draws, master_seed=2024)
        )[Scheme.TAS_SC]
        # var(|h|^2) = 2^n - 1 for a product of n unit-mean exponentials.
        sigma = math.sqrt((2.0**n - 1.0) / draws)
        assert abs(est.mean.value - 1.0) <= 3.0 * sigma

    def test_double_cascade_fourth_moment(self):
        # E[|h|^4] = E[X^2] E[Y^2] = 4 for two independent exponentials.
        draws = 20_000
        est = estimate_moments_af(
            cfg(n=2, n_t=1, n_r=1, mean_snr=1.0), SimSettings(trials=draws, master_seed=55)
        )[Scheme.TAS_SC]
        # var(X^2 Y^2) = E[X^4]E[Y^4] - 16 = 560.
        sigma = math.sqrt(560.0 / draws)
        assert abs(est.second_moment.value - 4.0) <= 3.0 * sigma

    def test_exponential_base_case(self):
        # n = 1: squared magnitude is a standard exponential.
        draws = 50_000
        p = _chunk_selected(cfg(n=1, n_t=1, n_r=1), 11, 0, draws)[Scheme.TAS_SC]
        assert abs(p.mean() - 1.0) <= 3.0 / math.sqrt(draws)
        assert abs(np.mean(p <= 1.0) - (1.0 - math.exp(-1))) <= 3.0 * 0.48 / math.sqrt(
            draws
        )

    def test_stream_layout_v1(self):
        # Rebuilt from the documented layout: trial-major, then transmit,
        # receive and hop, each hop a (magnitude, phase) pair; only the
        # magnitude uniform sets the hop power.
        c = cfg(n=3)
        trials = 5
        raw = np.random.Philox(21).random_raw(trials * draws_per_trial(c))
        u = ((raw >> np.uint64(11)) * 2.0**-53).reshape(trials, c.n_t, c.n_r, c.n, 2)
        powers = np.prod(-np.log1p(-u[..., 0]), axis=-1)
        selected = _chunk_selected(c, 21, 0, trials)
        assert np.array_equal(selected[Scheme.TAS_MRC], powers.sum(axis=2).max(axis=1))
        assert np.array_equal(selected[Scheme.TAS_SC], powers.max(axis=(1, 2)))

    def test_draw_budget(self):
        # Trial t owns draws [t*D, (t+1)*D): any block of trials equals the
        # same slice of a longer block, including blocks that start inside
        # a Philox block (D = 18 is not a multiple of 4).
        for c in (cfg(n=3, n_t=1, n_r=3), cfg(n=4)):
            longer = _chunk_selected(c, 1, 0, 300)
            for start, count in ((0, 1), (1, 7), (3, 64), (101, 199)):
                block = _chunk_selected(c, 1, start, count)
                for s in Scheme:
                    assert np.array_equal(block[s], longer[s][start:start + count])


class TestSimulatePostprocSnr:
    """Selection and combining on shared channel realizations."""

    def test_degenerate_selection_identical(self):
        selected = _chunk_selected(cfg(n_t=1, n_r=1), 3, 0, 200)
        assert np.array_equal(selected[Scheme.TAS_MRC], selected[Scheme.TAS_SC])

    def test_pointwise_dominance(self):
        # On a shared realization the combined SNR can never be below the
        # best single branch.
        selected = _chunk_selected(cfg(), 17, 0, 500)
        assert np.all(selected[Scheme.TAS_MRC] >= selected[Scheme.TAS_SC])

    def test_rayleigh_base_case_outage(self):
        # 1x1, n=1: P(snr <= mean) = 1 - 1/e exactly.
        c = cfg(n=1, n_t=1, n_r=1, mean_snr=4.0)
        settings = SimSettings(trials=100_000, master_seed=5)
        est = outage_point(Scheme.TAS_MRC, c, 4.0, settings)
        expected = 1.0 - math.exp(-1.0)
        assert abs(est.value - expected) <= 3.0 * est.std_error


class TestDeterminism:
    def test_chunk_size_invariance(self, monkeypatch):
        # Chunk size is fixed by the channel, but counts must not depend on
        # it: 997-trial chunks of D = 18 draws hold 17946 draws, which is
        # not a multiple of the 4-draw Philox block.
        grid = np.logspace(-1.0, 1.0, 9)
        settings = SimSettings(trials=30_000, master_seed=9)
        for c in (cfg(n=3), cfg(n=3, n_t=1, n_r=3)):
            reference = empirical_cdf_pair(c, settings, grid)
            for trials_per_chunk in (997, 1000, 4096):
                monkeypatch.setattr(
                    montecarlo, "_CHUNK_DRAWS", trials_per_chunk * draws_per_trial(c)
                )
                assert _chunk_trials(c) == trials_per_chunk
                assert empirical_cdf_pair(c, settings, grid) == reference
            monkeypatch.undo()

    def test_worker_count_invariance(self, monkeypatch):
        c = cfg(n=2)
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 2048 * draws_per_trial(c))
        results = [
            estimate_moments_af(c, SimSettings(trials=30_000, master_seed=4, workers=workers))
            for workers in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_worker_count_invariance_at_draw_cap(self):
        # 4x4, n = 8: D = 256, so the draw cap sets 16384-trial chunks.
        c = cfg(n=8, n_t=4, n_r=4)
        assert _chunk_trials(c) == 16384
        results = [
            estimate_moments_af(c, SimSettings(trials=40_000, master_seed=4, workers=workers))
            for workers in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_chunk_holds_at_most_2_22_draws(self, monkeypatch):
        # Every D <= 64 keeps 65536-trial chunks; 16x16, n = 8 (D = 4096)
        # is capped at 1024 trials.
        assert _chunk_trials(cfg(n=8, n_t=2, n_r=2)) == 65536
        c = cfg(n=8, n_t=16, n_r=16)
        counts = []
        original = montecarlo._raw_uniforms

        def spy(master_seed, start_draw, count, step=1):
            counts.append(count)
            return original(master_seed, start_draw, count, step)

        monkeypatch.setattr(montecarlo, "_raw_uniforms", spy)
        empirical_cdf_pair(c, SimSettings(trials=1025, master_seed=1), [1.0])
        assert counts == [1024 * 4096, 4096]
        assert max(counts) <= 2**22

    def test_seed_changes_results(self):
        c = cfg()  # P(selected power <= 1) ~ 5%: ample events either way
        a = outage_point(Scheme.TAS_MRC, c, 10.0, SimSettings(trials=20_000, master_seed=1))
        b = outage_point(Scheme.TAS_MRC, c, 10.0, SimSettings(trials=20_000, master_seed=2))
        assert a.value != b.value


class TestEstimateOutage:
    """Single-point outage estimates."""

    def test_zero_threshold(self):
        est = outage_point(Scheme.TAS_SC, cfg(), 0.0, SimSettings(trials=5_000, master_seed=3))
        assert est.value == 0.0
        assert est.low_confidence

    def test_huge_threshold(self):
        est = outage_point(Scheme.TAS_SC, cfg(), 1e12, SimSettings(trials=5_000, master_seed=3))
        assert est.value == 1.0
        assert not est.low_confidence

    def test_ci_contains_value(self):
        est = outage_point(Scheme.TAS_MRC, cfg(), 1.0, SimSettings(trials=50_000, master_seed=21))
        assert est.ci95_low <= est.value <= est.ci95_high

    @pytest.mark.parametrize("events,flagged", [(9, True), (10, False)])
    def test_low_event_threshold_is_ten(self, events, flagged):
        # Counted in integers: 10 / 1077 * 1077 < 10 in floating point.
        # The threshold is the events-th smallest statistic, so exactly
        # that many trials are at or below it.
        c = cfg(mean_snr=1.0)
        trials = 1077
        ranked = np.sort(_chunk_selected(c, 2, 0, trials)[Scheme.TAS_SC])
        est = outage_point(
            Scheme.TAS_SC, c, float(ranked[events - 1]),
            SimSettings(trials=trials, master_seed=2),
        )
        assert est.value == events / trials
        assert est.low_confidence is flagged

    def test_low_event_flag(self):
        c = cfg(mean_snr=1e5)
        est = outage_point(Scheme.TAS_MRC, c, 1.0, SimSettings(trials=20_000, master_seed=2))
        assert est.low_confidence


class TestEmpiricalCdf:
    def test_single_huge_point(self):
        pair = empirical_cdf_pair(cfg(), SimSettings(trials=2_000, master_seed=1), [1e12])
        assert pair[Scheme.TAS_SC][0].value == 1.0

    def test_nondecreasing_along_grid(self):
        grid = np.logspace(-2, 2, 25)
        pair = empirical_cdf_pair(cfg(), SimSettings(trials=40_000, master_seed=6), grid)
        values = [e.value for e in pair[Scheme.TAS_MRC]]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_matches_pointwise_estimates(self):
        c = cfg(n=2)
        settings = SimSettings(trials=25_000, master_seed=13)
        grid = [0.5, 2.0, 8.0]
        cdf = empirical_cdf_pair(c, settings, grid)[Scheme.TAS_SC]
        for g, est in zip(grid, cdf):
            assert est == outage_point(Scheme.TAS_SC, c, g, settings)

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
            empirical_cdf_pair(cfg(), settings, [2.0, 1.0])
        with pytest.raises(ValueError):
            empirical_cdf_pair(cfg(), settings, [])


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
        estimates = empirical_cdf_pair(c, SimSettings(trials=trials, master_seed=77), grid)
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
        low = estimate_moments_af(cfg(mean_snr=1.0), settings)
        high = estimate_moments_af(cfg(mean_snr=100.0), settings)
        for s in Scheme:
            assert low[s].af == high[s].af  # bitwise: the selection statistic is scale-free

    def test_siso_single_cascade_af(self):
        # True AF of an exponential SNR is exactly 1; the closed-form model
        # value 1/m = 0.9648 sits about 3.5% below it.
        c = cfg(n=1, n_t=1, n_r=1)
        both = estimate_moments_af(c, SimSettings(trials=200_000, master_seed=12))
        est = both[Scheme.TAS_SC].af
        assert both[Scheme.TAS_MRC].af == est
        assert abs(est.value - 1.0) <= 4.0 * est.std_error
        assert abs(est.value - 0.964785335262904) <= 0.05

    def test_mean_matches_selected_average(self):
        c = cfg(n=2, n_t=2, n_r=2)
        settings = SimSettings(trials=50_000, master_seed=44)
        both = estimate_moments_af(c, settings)
        selected = _chunk_selected(c, 44, 0, 50_000)
        for s in Scheme:
            est = both[s]
            assert est.mean.value == pytest.approx(c.mean_snr * selected[s].mean(), rel=1e-12)
            assert est.mean.ci95_low <= est.mean.value <= est.mean.ci95_high
            assert est.second_moment.value >= est.mean.value**2

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SimSettings(trials=0)
        with pytest.raises(ValueError):
            SimSettings(trials=1, master_seed=2**64)
        with pytest.raises(ValueError):
            SimSettings(trials=1, workers=0)
