"""Monte-Carlo engine: stream addressing, determinism, distributional checks."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from nrayleigh import montecarlo
from nrayleigh.montecarlo import (
    SimSettings,
    _chunk_selected,
    _chunk_trials,
    _read_rows,
    empirical_cdf_pair,
    estimate_af,
)
from nrayleigh.schemes import ChannelConfig, Scheme


def cfg(n=2, n_t=2, n_r=3, mean_snr=10.0):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr,
                         calibration_omega=1.0)


def draws_per_trial(c):
    return c.n * c.n_t * c.n_r


def uniforms(seed, start_draw, count):
    return next(_read_rows(seed, start_draw, count, np.empty((1, count))))[0]


def rebuild(c, seed, trials):
    """Selection statistics of trials [0, trials) rebuilt from raw PCG64
    output by stream layout v3: block b of B trials holds draws
    [b*B*D, (b+1)*B*D), slot j (transmit, receive, hop) owns the B
    positions from b*B*D + j*B, and a final partial block is generated in
    full and truncated."""
    width = _chunk_trials(c)
    blocks = -(-trials // width)
    raw = np.random.PCG64(seed).random_raw(blocks * width * draws_per_trial(c))
    u = ((raw >> np.uint64(11)) * 2.0**-53).reshape(blocks, c.n_t, c.n_r, c.n, width)
    powers = np.prod(-np.log1p(-u), axis=3)
    return {
        Scheme.TAS_MRC: powers.sum(axis=2).max(axis=1).reshape(-1)[:trials],
        Scheme.TAS_SC: powers.max(axis=(1, 2)).reshape(-1)[:trials],
    }


def record_reads(monkeypatch):
    """The stream positions every PCG64 seeding is used to read: one list
    per seeding, of the [start, stop) position runs that its fills cover,
    in read order."""
    reads = []
    pcg64 = np.random.PCG64
    original = montecarlo._read_rows

    def seeding(seed):
        reads.append([])
        return pcg64(seed)

    def spy(master_seed, start_draw, stride, out):
        rows, width = out.shape
        for fill, filled in enumerate(original(master_seed, start_draw, stride, out)):
            first = start_draw + fill * rows * stride
            reads[-1].extend(
                (first + j * stride, first + j * stride + width) for j in range(rows)
            )
            yield filled

    monkeypatch.setattr(np.random, "PCG64", seeding)
    monkeypatch.setattr(montecarlo, "_read_rows", spy)
    return reads


def block_runs(c, block, count):
    """The position runs of the first ``count`` trials of block ``block``
    in stream order: the first ``count`` positions of each slot row j,
    from (b*D + j)*B."""
    width = _chunk_trials(c)
    d = draws_per_trial(c)
    return [((block * d + j) * width, (block * d + j) * width + count) for j in range(d)]


def outage_point(scheme, c, gamma_o, settings):
    """P(post-processing SNR <= gamma_o) from a single-point CDF grid."""
    return empirical_cdf_pair(c, settings, [gamma_o])[scheme][0]


class TestUniformStream:
    """The position-addressed uniform stream behind every trial."""

    def test_position_slicing(self):
        # The stream is position-addressed: reading from position p must
        # reproduce the tail of a longer read from position 0.
        full = uniforms(12345, 0, 1000)
        for pos in (1, 2, 3, 4, 5, 37, 511, 997):
            tail = uniforms(12345, pos, 1000 - pos)
            assert np.array_equal(full[pos:], tail)

    def test_sequential_takes_are_contiguous(self):
        a = uniforms(99, 0, 13)
        b = uniforms(99, 13, 29)
        combined = uniforms(99, 0, 42)
        assert np.array_equal(np.concatenate([a, b]), combined)

    def test_range_and_determinism(self):
        u = uniforms(7, 0, 100_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert np.array_equal(u, uniforms(7, 0, 100_000))
        assert not np.array_equal(u[:50_000], uniforms(8, 0, 50_000))

    def test_validation(self):
        # The master seed must fit in 64 bits: seeds outside are refused,
        # and the largest one seeds a stream.
        with pytest.raises(ValueError):
            SimSettings(trials=1, master_seed=-1)
        with pytest.raises(ValueError):
            SimSettings(trials=1, master_seed=2**64)
        top = SimSettings(trials=1, master_seed=2**64 - 1)
        u = uniforms(top.master_seed, 0, 8)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 3, 5 * 2**21 + 1])
    def test_doubles_are_top_53_bits_of_pcg64_words(self, seed, start):
        # Position p holds (w >> 11) * 2^-53 for the p-th 64-bit word w of
        # PCG64 seeded with the master seed.  The words before `start` are
        # generated and discarded, in pieces, rather than skipped with
        # `advance`, so this does not share the kernel's positioning.
        bitgen = np.random.PCG64(seed)
        skipped = 0
        while skipped < start:
            skipped += bitgen.random_raw(min(start - skipped, 2**20)).size
        words = bitgen.random_raw(1000)
        expected = (words >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(uniforms(seed, start, 1000), expected)


class TestChannelCoefficient:
    """Coefficient powers: at 1x1 both selection statistics equal |h|^2."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unit_mean_power(self, n):
        draws = 20_000
        p = _chunk_selected(cfg(n=n, n_t=1, n_r=1), 2024, 0, draws)[Scheme.TAS_SC]
        # var(|h|^2) = 2^n - 1 for a product of n unit-mean exponentials.
        sigma = math.sqrt((2.0**n - 1.0) / draws)
        assert abs(p.mean() - 1.0) <= 3.0 * sigma

    def test_double_cascade_fourth_moment(self):
        # E[|h|^4] = E[X^2] E[Y^2] = 4 for two independent exponentials.
        draws = 20_000
        p = _chunk_selected(cfg(n=2, n_t=1, n_r=1), 55, 0, draws)[Scheme.TAS_SC]
        # var(X^2 Y^2) = E[X^4]E[Y^4] - 16 = 560.
        sigma = math.sqrt(560.0 / draws)
        assert abs((p * p).mean() - 4.0) <= 3.0 * sigma

    def test_exponential_base_case(self):
        # n = 1: squared magnitude is a standard exponential.
        draws = 50_000
        p = _chunk_selected(cfg(n=1, n_t=1, n_r=1), 11, 0, draws)[Scheme.TAS_SC]
        assert abs(p.mean() - 1.0) <= 3.0 / math.sqrt(draws)
        assert abs(np.mean(p <= 1.0) - (1.0 - math.exp(-1))) <= 3.0 * 0.48 / math.sqrt(
            draws
        )

    def test_stream_layout_v3(self, monkeypatch):
        # The kernel equals the from-scratch rebuild for full blocks and a
        # truncated final block, first at the default 65536-trial blocks,
        # then at 997-trial blocks of D = 9 draws: those hold 8973 draws,
        # so blocks 1 and 3 start at odd positions.
        def check(c, seed, blocks):
            width = _chunk_trials(c)
            reference = rebuild(c, seed, 4 * width)
            for block, count in blocks:
                selected = _chunk_selected(c, seed, block, count)
                first = block * width
                for s in Scheme:
                    assert np.array_equal(selected[s], reference[s][first:first + count])

        check(cfg(n=3), 21, [(0, 65536), (1, 65536), (2, 1000)])
        c = cfg(n=3, n_t=1, n_r=3)
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 997 * draws_per_trial(c))
        assert _chunk_trials(c) == 997
        check(c, 5, [(0, 997), (1, 997), (2, 500), (3, 1)])

    def test_draw_budget(self, monkeypatch):
        # A block seeds PCG64 once and reads only the draws its trials use,
        # each once and in stream order: the first `count` positions of
        # each slot row j, from (b*D + j)*B, D*count draws in all.  It
        # reproduces the rebuild of those trials.
        reads = record_reads(monkeypatch)

        def check(c, seed, blocks):
            width = _chunk_trials(c)
            d = draws_per_trial(c)
            reference = rebuild(c, seed, 3 * width)
            for block, count in blocks:
                reads.clear()
                selected = _chunk_selected(c, seed, block, count)
                assert reads == [block_runs(c, block, count)]
                assert sum(stop - start for start, stop in reads[0]) == d * count
                first = block * width
                for s in Scheme:
                    assert np.array_equal(selected[s], reference[s][first:first + count])

        # 65536-trial blocks: 1, B - 1 and B trials, and 59392 and 59393,
        # which leave 6144 and 6143 trials unread.
        for c in (cfg(n=3, n_t=1, n_r=3), cfg(n=4)):
            check(c, 1, [(0, 1), (0, 199), (1, 64), (1, 59392), (1, 59393),
                         (1, 65535), (1, 65536)])
        # Every order, so both sign paths, at 8001-trial blocks: every other
        # slot row starts at an odd position, and 1857 and 1858 trials leave
        # 6144 and 6143 unread.
        for n in range(1, 9):
            c = cfg(n=n, n_t=2, n_r=2)
            monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 8001 * draws_per_trial(c))
            assert _chunk_trials(c) == 8001
            check(c, 3, [(0, 8001), (1, 1), (1, 1857), (1, 1858), (1, 8000), (2, 7)])
        # 997-trial blocks of D = 9 draws: 8973-draw blocks, so blocks 1
        # and 3 start at odd positions.
        c = cfg(n=3, n_t=1, n_r=3)
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 997 * draws_per_trial(c))
        assert _chunk_trials(c) == 997
        check(c, 5, [(0, 997), (1, 1), (1, 497), (1, 996), (2, 500)])

    @pytest.mark.parametrize(
        "c, width, count",
        [pytest.param(cfg(n=4), 65536, count, id=str(count))
         for count in (65536, 61440, 54464, 4)]
        + [pytest.param(cfg(n=8, n_t=4, n_r=4), 16384, 16384, id="4x4-n8-16384"),
           pytest.param(cfg(n=1, n_t=1, n_r=1), 65536, 65536, id="1x1-n1-65536")],
    )
    def test_peak_memory_is_one_block(self, c, width, count):
        # One call holds one coefficient's n hop rows of count trials and
        # at most three count-trial running results (TAS/SC max, receive
        # sum, TAS/MRC max), never the draws of other coefficients or of
        # unread trials; a 1x1 channel holds its n rows alone.  No shape
        # holds more than the D*count draws and two results of the whole
        # block either.
        d = draws_per_trial(c)
        assert _chunk_trials(c) == width
        _chunk_selected(c, 2, 1, count)  # warm up numpy and PCG64
        tracemalloc.start()
        try:
            _chunk_selected(c, 2, 1, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count * min(c.n + 3, d + 2) + 64 * 1024

class TestLayoutPin:
    """Frozen outputs of stream layout v3 at seed 2017.

    The rebuild tests above define the layout and the kernel together, so
    a change to both would pass them; these literals fail on any change
    to the stream layout, the block size or the reductions.  They were
    generated from ``rebuild``, not from the kernel.  The 1x5, n = 7
    channel has D = 35, so its 59918-trial blocks are draw-capped and
    block 1 starts at draw 2097130.  The moments are compared as exact
    floats, so a numpy whose log1p rounds differently fails them too.
    """

    GRID = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0]
    # (n, n_t, n_r, trials): {scheme: (CDF counts on GRID,
    #   (mean, second moment, AF, AF standard error))}
    FROZEN = {
        (3, 2, 3, 140_000): {
            Scheme.TAS_MRC: ([10, 527, 5046, 18255, 47087, 97845], (
                4.779043884345537, 56.772162395670584,
                1.4857268265618462, 0.026897429714743053)),
            Scheme.TAS_SC: ([30, 1688, 10742, 30563, 63228, 108290], (
                3.9124113982409554, 44.08881278639189,
                1.880310936469943, 0.03855375623427753)),
        },
        (7, 1, 5, 130_000): {
            Scheme.TAS_MRC: ([5549, 22750, 44456, 64563, 84655, 106335], (
                5.096608678615477, 680.3328631967262,
                25.191409516994597, 3.598623119945777)),
            Scheme.TAS_SC: ([9896, 31760, 54590, 73645, 91610, 109804], (
                4.568752125972852, 657.182822214909,
                30.48408022184743, 4.412767258556289)),
        },
    }

    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_frozen_counts_and_moments(self, key):
        n, n_t, n_r, trials = key
        c = cfg(n=n, n_t=n_t, n_r=n_r, mean_snr=1.0)
        settings = SimSettings(trials=trials, master_seed=2017)
        pair = empirical_cdf_pair(c, settings, self.GRID)
        af = estimate_af(c, settings)
        # The first two moments from the blocks' power sums, added in
        # trial order as the AF view adds them.
        width = _chunk_trials(c)
        sums = {s: [0.0, 0.0] for s in Scheme}
        for block in range(-(-trials // width)):
            count = min(width, trials - block * width)
            selected = _chunk_selected(c, settings.master_seed, block, count)
            for s in Scheme:
                sums[s][0] += selected[s].sum()
                sums[s][1] += (selected[s] * selected[s]).sum()
        for s in Scheme:
            counts, moments = self.FROZEN[key][s]
            assert [e.value for e in pair[s]] == [k / trials for k in counts]
            assert (sums[s][0] / trials, sums[s][1] / trials, af[s].value,
                    af[s].std_error) == moments


class TestExactChannel:
    """The kernel's TAS/SC CDF against the exact channel.

    A coefficient power is a product of n unit exponentials with CDF
    F_n(x) = G^{n,1}_{1,n+1}(x | 1; 1, ..., 1, 0), a Meijer G function,
    and TAS/SC takes the largest of n_t n_r iid powers, so its CDF is
    exactly F_n(x)^(n_t n_r).  F_1 is 1 - e^-x and F_2 is
    1 - 2 sqrt(x) K_1(2 sqrt(x)); n >= 3 needs mpmath.
    """

    TRIALS = 200_000

    @staticmethod
    def exact_cdf(n, x):
        if n == 1:
            return -math.expm1(-x)
        if n == 2:
            r = 2.0 * math.sqrt(x)
            return 1.0 - r * special.k1(r)
        mpmath = pytest.importorskip("mpmath")
        return float(mpmath.meijerg([[1], []], [[1] * n, [0]], x))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tas_sc_cdf_within_4_sigma(self, n):
        # log F_n-distributed power has mean -n*euler_gamma and variance
        # n*pi^2/6; the grid spans the bulk of the largest of six.
        c = cfg(n=n, mean_snr=1.0)
        branches = c.n_t * c.n_r
        centre, spread = -n * np.euler_gamma, math.sqrt(n * math.pi**2 / 6.0)
        grid = np.exp(centre + spread * np.linspace(-0.25, 2.0, 8))
        estimates = empirical_cdf_pair(
            c, SimSettings(trials=self.TRIALS, master_seed=11), grid
        )[Scheme.TAS_SC]
        for x, est in zip(grid, estimates):
            exact = self.exact_cdf(n, float(x)) ** branches
            assert 1e-3 < exact < 1.0 - 1e-3
            sigma = math.sqrt(exact * (1.0 - exact) / self.TRIALS)
            assert abs(est.value - exact) <= 4.0 * sigma, (x, est.value, exact)


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
        # The block size is part of the layout, so the counts of every
        # block size equal the counts of the from-scratch rebuild at that
        # size: 997-trial blocks of D = 9 draws (odd-numbered ones start at
        # odd positions), and 30000 trials end in a truncated block.
        grid = np.logspace(-1.0, 1.0, 9)
        settings = SimSettings(trials=30_000, master_seed=9)
        for c in (cfg(n=3), cfg(n=3, n_t=1, n_r=3)):
            thresholds = grid / c.mean_snr
            for trials_per_chunk in (997, 1000, 4096):
                monkeypatch.setattr(
                    montecarlo, "_CHUNK_DRAWS", trials_per_chunk * draws_per_trial(c)
                )
                assert _chunk_trials(c) == trials_per_chunk
                pair = empirical_cdf_pair(c, settings, grid)
                reference = rebuild(c, 9, settings.trials)
                for s in Scheme:
                    counts = np.searchsorted(np.sort(reference[s]), thresholds, side="right")
                    assert [e.value for e in pair[s]] == [k / settings.trials for k in counts]
            monkeypatch.undo()

    def test_worker_count_invariance(self, monkeypatch):
        c = cfg(n=2)
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 2048 * draws_per_trial(c))
        results = [
            estimate_af(c, SimSettings(trials=30_000, master_seed=4, workers=workers))
            for workers in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_worker_count_invariance_at_draw_cap(self):
        # 4x4, n = 8: D = 256, so the draw cap sets 16384-trial chunks.
        c = cfg(n=8, n_t=4, n_r=4)
        assert _chunk_trials(c) == 16384
        results = [
            estimate_af(c, SimSettings(trials=40_000, master_seed=4, workers=workers))
            for workers in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_chunk_holds_at_most_2_21_draws(self, monkeypatch):
        # Every D <= 32 keeps 65536-trial blocks, 4x4 at n = 5..8 is
        # draw-capped, and 16x16, n = 8 (D = 2048) holds 1024 trials; the
        # final block reads one trial, one position from each slot row.
        assert _chunk_trials(cfg(n=8, n_t=2, n_r=2)) == 65536
        assert _chunk_trials(cfg(n=5, n_t=2, n_r=3)) == 65536
        assert _chunk_trials(cfg(n=3, n_t=1, n_r=11)) < 65536
        assert [_chunk_trials(cfg(n=n, n_t=4, n_r=4)) for n in (5, 6, 7, 8)] == [
            26214, 21845, 18724, 16384
        ]
        c = cfg(n=8, n_t=16, n_r=16)
        reads = record_reads(monkeypatch)
        empirical_cdf_pair(c, SimSettings(trials=1025, master_seed=1), [1.0])
        assert reads == [block_runs(c, 0, 1024), block_runs(c, 1, 1)]
        assert max(sum(stop - start for start, stop in runs) for runs in reads) <= 2**21

    def test_trial_of_exactly_2_21_draws_is_a_one_trial_block(self):
        # 1024x1024 at n = 2: D = 2^21.
        assert _chunk_trials(cfg(n=2, n_t=1024, n_r=1024)) == 1

    def test_channel_above_the_draw_cap_is_refused_before_any_draw(self, monkeypatch):
        # 1024x683 at n = 3: D = 2 098 176 > 2^21, so not even one trial
        # fits in a block.  Both views refuse it before reading the stream
        # or allocating a block.
        c = cfg(n=3, n_t=1024, n_r=683)
        assert draws_per_trial(c) == 2_098_176
        reads = record_reads(monkeypatch)
        settings = SimSettings(trials=10, master_seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="does not fit in a 2097152-draw block"):
                empirical_cdf_pair(c, settings, [1.0])
            with pytest.raises(ValueError, match="does not fit in a 2097152-draw block"):
                estimate_af(c, settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reads == []
        assert peak < 2**16

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
        # Empty, 2-d, not strictly ascending or NaN anywhere are refused: a
        # NaN point would otherwise count every trial as P(SNR <= NaN) = 1.
        settings = SimSettings(trials=1_000, master_seed=1)
        for grid in ([], [[0.5, 1.0]], [2.0, 1.0], [1.0, 1.0], [math.nan],
                     [0.5, math.nan], [math.nan, 0.5]):
            with pytest.raises(ValueError, match="grid must be"):
                empirical_cdf_pair(cfg(), settings, grid)


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
        low = estimate_af(cfg(mean_snr=1.0), settings)
        high = estimate_af(cfg(mean_snr=100.0), settings)
        for s in Scheme:
            assert low[s] == high[s]  # bitwise: the selection statistic is scale-free

    def test_siso_single_cascade_af(self):
        # True AF of an exponential SNR is exactly 1; the closed-form model
        # value 1/m = 0.9648 sits about 3.5% below it.
        c = cfg(n=1, n_t=1, n_r=1)
        both = estimate_af(c, SimSettings(trials=200_000, master_seed=12))
        est = both[Scheme.TAS_SC]
        assert both[Scheme.TAS_MRC] == est
        assert abs(est.value - 1.0) <= 4.0 * est.std_error
        assert abs(est.value - 0.964785335262904) <= 0.05

    def test_mean_matches_selected_average(self):
        c = cfg(n=2, n_t=2, n_r=2)
        settings = SimSettings(trials=50_000, master_seed=44)
        both = estimate_af(c, settings)
        selected = _chunk_selected(c, 44, 0, 50_000)
        for s in Scheme:
            x = selected[s]
            est = both[s]
            assert est.value == pytest.approx((x * x).mean() / x.mean() ** 2 - 1.0, rel=1e-12)
            assert est.ci95_low <= est.value <= est.ci95_high

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SimSettings(trials=0)
        with pytest.raises(ValueError):
            SimSettings(trials=1, master_seed=2**64)
        with pytest.raises(ValueError):
            SimSettings(trials=1, workers=0)
        # Counts are whole numbers and the seed an int: none of these may
        # reach the engine.
        for kwargs in ({"trials": 1.5}, {"trials": True}, {"trials": math.inf},
                       {"workers": True}, {"master_seed": 1.5}, {"master_seed": True}):
            with pytest.raises(ValueError, match="must be an int"):
                SimSettings(**kwargs)

    def test_whole_float_counts_are_stored_as_ints(self):
        settings = SimSettings(trials=2000.0, master_seed=5, workers=2.0)
        assert (type(settings.trials), type(settings.workers)) == (int, int)
        c = ChannelConfig(n=2.0, n_t=np.int64(2), n_r=3.0, mean_snr=10.0,
                          calibration_omega=1.0)
        assert (c.n, c.n_t, c.n_r) == (2, 2, 3)
        assert {type(v) for v in (c.n, c.n_t, c.n_r)} == {int}
        expected = empirical_cdf_pair(cfg(n=2), SimSettings(trials=2000, master_seed=5), [10.0])
        assert empirical_cdf_pair(c, settings, [10.0]) == expected
