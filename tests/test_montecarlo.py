"""Monte-Carlo engine: stream addressing, determinism, distributional checks."""

import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import special

from nrayleigh import montecarlo
from nrayleigh.montecarlo import (
    SimSettings,
    _block_selected,
    _read_rows,
    empirical_cdf_pair,
    estimate_af,
)
from nrayleigh.schemes import ChannelConfig, Scheme

PERIOD = 2**128


def cfg(n=2, n_t=2, n_r=3, mean_snr=10.0):
    return ChannelConfig(n=n, n_t=n_t, n_r=n_r, mean_snr=mean_snr,
                         calibration_omega=1.0)


def uniforms(seed, start_draw, count):
    return next(_read_rows(seed, [start_draw], np.empty(count))).copy()


def simulate(c, seed, trials, orders=None):
    """The kernel's selection statistics of trials [0, trials), block by
    block on one worker: {order: {scheme: array}}."""
    orders = montecarlo._distinct_orders((c.n,) if orders is None else orders)
    settings = SimSettings(trials=trials, master_seed=seed)
    parts = []

    def keep(selected):
        # Blocks run in trial order on one worker; the fold sums zeros.
        parts.append(selected)
        return 0

    assert montecarlo._map_blocks(c, orders, settings, keep) == 0
    return {n: {s: np.concatenate([p[n][s] for p in parts]) for s in Scheme} for n in orders}


def selected(c, seed, trials):
    """Both schemes' selection statistics of order c.n, trials [0, trials)."""
    return simulate(c, seed, trials)[c.n]


def rebuild(c, seed, trials, orders=None):
    """Selection statistics of trials [0, trials) of each order, rebuilt
    from raw PCG64 output by stream layout v4: hop h reads the region that
    numpy's own ``PCG64(seed).jumped(h)`` starts, block b of B trials holds
    coefficient c's B draws from (b*N + c)*B of it, coefficients
    transmit-major, and a final partial block is generated in full and
    truncated."""
    orders = (c.n,) if orders is None else orders
    width = montecarlo._BLOCK_TRIALS
    blocks = -(-trials // width)
    hops = []
    for h in range(max(orders)):
        raw = np.random.PCG64(seed).jumped(h).random_raw(blocks * c.n_t * c.n_r * width)
        u = ((raw >> np.uint64(11)) * 2.0**-53).reshape(blocks, c.n_t, c.n_r, width)
        hops.append(-np.log1p(-u))
    hops = np.array(hops)
    result = {}
    for n in orders:
        powers = np.prod(hops[:n], axis=0)
        result[n] = {
            Scheme.TAS_MRC: powers.sum(axis=2).max(axis=1).reshape(-1)[:trials],
            Scheme.TAS_SC: powers.max(axis=(1, 2)).reshape(-1)[:trials],
        }
    return result


def record_reads(monkeypatch):
    """The stream positions every PCG64 seeding is used to read: one list
    per seeding, of the [start, stop) position runs (modulo 2^128) that its
    fills cover, in read order."""
    reads = []
    pcg64 = np.random.PCG64
    original = montecarlo._read_rows

    def seeding(seed):
        reads.append([])
        return pcg64(seed)

    def spy(master_seed, starts, out):
        starts = list(starts)
        for start, filled in zip(starts, original(master_seed, starts, out)):
            reads[-1].append((start % PERIOD, start % PERIOD + out.size))
            yield filled

    monkeypatch.setattr(np.random, "PCG64", seeding)
    monkeypatch.setattr(montecarlo, "_read_rows", spy)
    return reads


def block_runs(c, block, count, deepest):
    """The position runs of the first ``count`` trials of block ``block``
    at ``deepest`` hops, in read order: coefficient j, then hop h, each the
    first ``count`` positions from h*J + (b*N + j)*B, modulo 2^128."""
    width = montecarlo._BLOCK_TRIALS
    coefficients = c.n_t * c.n_r
    runs = []
    for j in range(coefficients):
        for h in range(deepest):
            start = (h * montecarlo._REGION_STRIDE + (block * coefficients + j) * width) % PERIOD
            runs.append((start, start + count))
    return runs


def outage_point(scheme, c, gamma_o, settings):
    """P(post-processing SNR <= gamma_o) from a single-point CDF grid."""
    return empirical_cdf_pair(c, settings, [gamma_o])[c.n][scheme][0]


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

    def test_region_stride_is_numpys_golden_jump(self):
        # J is the odd integer nearest (phi - 1) * 2^128, and region h
        # starts where numpy's PCG64.jumped(h) does.  Positions are taken
        # modulo the period, and a read may start just below it and wrap.
        getcontext().prec = 60
        golden = (Decimal(5).sqrt() - 1) / 2 * Decimal(PERIOD)
        stride = montecarlo._REGION_STRIDE
        assert stride % 2 == 1 and abs(Decimal(stride) - golden) < 1
        for h in (1, 2, 7):
            words = np.random.PCG64(5).jumped(h).random_raw(100)
            expected = (words >> np.uint64(11)) * 2.0**-53
            assert np.array_equal(uniforms(5, h * stride, 100), expected)
            assert np.array_equal(uniforms(5, h * stride % PERIOD, 100), expected)
        assert np.array_equal(uniforms(5, PERIOD - 3, 10), uniforms(5, -3, 10))
        assert np.array_equal(uniforms(5, PERIOD - 3, 10)[3:], uniforms(5, 0, 7))


class TestChannelCoefficient:
    """Coefficient powers: at 1x1 both selection statistics equal |h|^2."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unit_mean_power(self, n):
        draws = 20_000
        p = selected(cfg(n=n, n_t=1, n_r=1), 2024, draws)[Scheme.TAS_SC]
        # var(|h|^2) = 2^n - 1 for a product of n unit-mean exponentials.
        sigma = math.sqrt((2.0**n - 1.0) / draws)
        assert abs(p.mean() - 1.0) <= 3.0 * sigma

    def test_double_cascade_fourth_moment(self):
        # E[|h|^4] = E[X^2] E[Y^2] = 4 for two independent exponentials.
        draws = 20_000
        p = selected(cfg(n=2, n_t=1, n_r=1), 55, draws)[Scheme.TAS_SC]
        # var(X^2 Y^2) = E[X^4]E[Y^4] - 16 = 560.
        sigma = math.sqrt(560.0 / draws)
        assert abs((p * p).mean() - 4.0) <= 3.0 * sigma

    def test_exponential_base_case(self):
        # n = 1: squared magnitude is a standard exponential.
        draws = 50_000
        p = selected(cfg(n=1, n_t=1, n_r=1), 11, draws)[Scheme.TAS_SC]
        assert abs(p.mean() - 1.0) <= 3.0 / math.sqrt(draws)
        assert abs(np.mean(p <= 1.0) - (1.0 - math.exp(-1))) <= 3.0 * 0.48 / math.sqrt(
            draws
        )

    def test_stream_layout_v4(self, monkeypatch):
        # The kernel equals the from-scratch rebuild for full blocks and a
        # truncated final block, for one order and for a shared pass,
        # first at the default 16384-trial blocks, then at 997-trial
        # blocks, so that odd-numbered blocks start at odd offsets.
        def check(c, seed, orders, blocks):
            width = montecarlo._BLOCK_TRIALS
            reference = rebuild(c, seed, 4 * width, orders)
            for block, count in blocks:
                got = _block_selected(c, orders, seed, block, count)
                first = block * width
                assert sorted(got) == list(orders)
                for n in orders:
                    for s in Scheme:
                        assert np.array_equal(got[n][s], reference[n][s][first:first + count])

        check(cfg(n=3), 21, (3,), [(0, 16384), (1, 16384), (2, 1000)])
        check(cfg(n=5), 21, (1, 2, 5), [(1, 16384), (3, 77)])
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 997)
        c = cfg(n=3, n_t=1, n_r=3)
        check(c, 5, (3,), [(0, 997), (1, 997), (2, 500), (3, 1)])
        check(c, 5, (2, 3, 4), [(1, 997), (3, 500)])

    def test_draw_budget(self, monkeypatch):
        # A block seeds PCG64 once and reads only the draws its trials use,
        # each once: for each coefficient j in order, then each hop h up to
        # the deepest order, the first `count` positions from
        # h*J + (b*N + j)*B; N*deepest*count draws in all.  It reproduces
        # the rebuild of those trials.
        reads = record_reads(monkeypatch)

        def check(c, seed, orders, blocks):
            width = montecarlo._BLOCK_TRIALS
            coefficients = c.n_t * c.n_r
            reference = rebuild(c, seed, 3 * width, orders)
            for block, count in blocks:
                reads.clear()
                got = _block_selected(c, orders, seed, block, count)
                assert reads == [block_runs(c, block, count, orders[-1])]
                assert sum(stop - start for start, stop in reads[0]) == (
                    coefficients * orders[-1] * count
                )
                first = block * width
                for n in orders:
                    for s in Scheme:
                        assert np.array_equal(got[n][s], reference[n][s][first:first + count])

        # 16384-trial blocks: 1, B - 1 and B trials, and a few between.
        for c in (cfg(n=3, n_t=1, n_r=3), cfg(n=4)):
            check(c, 1, (c.n,), [(0, 1), (0, 199), (1, 64), (1, 10240), (1, 16383),
                                 (1, 16384)])
        # Every order, so both sign paths, alone and in one shared pass, at
        # 1001-trial blocks: odd-numbered blocks start at odd offsets.
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 1001)
        for n in range(1, 9):
            c = cfg(n=n, n_t=2, n_r=2)
            check(c, 3, (n,), [(0, 1001), (1, 1), (1, 500), (2, 7)])
        check(cfg(n=8, n_t=2, n_r=2), 3, tuple(range(1, 9)), [(0, 1001), (1, 500)])

    @pytest.mark.parametrize(
        "c, orders, trials",
        [pytest.param(cfg(n=4), (4,), trials, id=str(trials))
         for trials in (65536, 61440, 54464, 4)]
        + [pytest.param(cfg(n=8, n_t=4, n_r=4), (5, 6, 7, 8), 16384, id="4x4-n8-16384"),
           pytest.param(cfg(n=1, n_t=1, n_r=1), (1,), 65536, id="1x1-n1-65536"),
           pytest.param(cfg(n=5), (2, 3, 4, 5), 40000, id="2x3-n2..5-40000"),
           pytest.param(cfg(n=8, n_t=2, n_r=2), tuple(range(1, 9)), 20000,
                        id="2x2-n1..8-20000")],
    )
    def test_peak_memory_is_one_block(self, c, orders, trials):
        # A block holds one hop row, the running hop product and, per
        # order, three running results (TAS/SC max, receive sum, TAS/MRC
        # max) of count <= B trials: (2 + 3*|orders|)*count doubles, for
        # any channel and never the draws of other coefficients, hops or
        # unread trials.  Blocks are reduced one at a time, so a whole view
        # on one worker stays within one block too, however many trials.
        count = min(trials, montecarlo._BLOCK_TRIALS)
        bound = 8 * count * (2 + 3 * len(orders)) + 64 * 1024
        settings = SimSettings(trials=trials, master_seed=2)
        _block_selected(c, orders, 2, 1, count)  # warm up numpy and PCG64
        for run in (lambda: _block_selected(c, orders, 2, 1, count),
                    lambda: estimate_af(c, settings, orders),
                    lambda: empirical_cdf_pair(c, settings, [0.5, 2.0], orders)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound


class TestLayoutPin:
    """Frozen outputs of stream layout v4 at seed 2017.

    The rebuild tests above define the layout and the kernel together, so
    a change to both would pass them; these literals fail on any change
    to the stream layout, the block size or the reductions.  They were
    generated from ``rebuild``, not from the kernel.  Both trial counts
    end in a partial block, and the 1x5, n = 7 channel reads hops from
    seven regions.  The moments are compared as exact floats, so a numpy
    whose log1p rounds differently fails them too.
    """

    GRID = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0]
    # (n, n_t, n_r, trials): {scheme: (CDF counts on GRID,
    #   (mean, second moment, AF, AF standard error))}
    FROZEN = {
        (3, 2, 3, 140_000): {
            Scheme.TAS_MRC: ([7, 562, 5140, 18593, 47124, 98044], (
                4.769570925547199, 57.13771652501776,
                1.511679711056027, 0.026140652152641747)),
            Scheme.TAS_SC: ([42, 1715, 10916, 30749, 63195, 108688], (
                3.905549967479478, 44.58199882930107,
                1.9227733520454175, 0.03744263517635223)),
        },
        (7, 1, 5, 130_000): {
            Scheme.TAS_MRC: ([5599, 22743, 44547, 64720, 84812, 106434], (
                5.064032353983224, 557.0042547475551,
                20.720287484347637, 2.7680552719297937)),
            Scheme.TAS_SC: ([9816, 31848, 54691, 73857, 91662, 109819], (
                4.537434546421204, 537.5252322785952,
                25.108270819416497, 3.4107542055771187)),
        },
    }

    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_frozen_counts_and_moments(self, key):
        n, n_t, n_r, trials = key
        c = cfg(n=n, n_t=n_t, n_r=n_r, mean_snr=1.0)
        settings = SimSettings(trials=trials, master_seed=2017)
        pair = empirical_cdf_pair(c, settings, self.GRID)[n]
        af = estimate_af(c, settings)[n]
        # The first two moments from the blocks' power sums, added in
        # trial order as the AF view adds them.
        width = montecarlo._BLOCK_TRIALS
        sums = {s: [0.0, 0.0] for s in Scheme}
        for block in range(-(-trials // width)):
            count = min(width, trials - block * width)
            got = _block_selected(c, (n,), settings.master_seed, block, count)[n]
            for s in Scheme:
                sums[s][0] += got[s].sum()
                sums[s][1] += (got[s] * got[s]).sum()
        for s in Scheme:
            counts, moments = self.FROZEN[key][s]
            assert [e.value for e in pair[s]] == [k / trials for k in counts]
            assert (sums[s][0] / trials, sums[s][1] / trials, af[s].value,
                    af[s].std_error) == moments


class TestSharedPass:
    """One pass serves every cascade order of a sweep."""

    @pytest.mark.parametrize("width", [16384, 1000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_order_equals_that_order_alone(self, monkeypatch, width, workers):
        # CDF counts and AF of every order of a shared pass, with repeats
        # and out of order, equal those of the channel simulated alone on
        # one worker, bit for bit; 20000 trials end in a partial block.
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", width)
        trials, seed = 20_000, 8
        c = cfg(n=6, n_t=2, n_r=2, mean_snr=1.0)
        grid = np.logspace(-2.0, 1.0, 7)
        orders = [6, 2, 3, 2, 1, 5]
        settings = SimSettings(trials=trials, master_seed=seed, workers=workers)
        cdf = empirical_cdf_pair(c, settings, grid, orders)
        af = estimate_af(c, settings, orders)
        assert list(cdf) == list(af) == [1, 2, 3, 5, 6]
        alone_settings = SimSettings(trials=trials, master_seed=seed)
        for n in set(orders):
            alone = cfg(n=n, n_t=2, n_r=2, mean_snr=1.0)
            assert cdf[n] == empirical_cdf_pair(alone, alone_settings, grid)[n]
            assert af[n] == estimate_af(alone, alone_settings)[n]

    def test_orders_default_to_the_channel_and_must_be_positive(self):
        settings = SimSettings(trials=100, master_seed=1)
        assert list(estimate_af(cfg(n=3), settings)) == [3]
        assert estimate_af(cfg(n=3), settings, [5, 3])[3] == estimate_af(cfg(n=3), settings)[3]
        for orders in ([], [0], [2, 1.5], [True]):
            with pytest.raises(ValueError):
                estimate_af(cfg(), settings, orders)

    def test_hops_are_independent(self):
        # 1x1, n = 8: ln X is a sum of eight ln-exponentials, each with
        # mean -euler_gamma and variance pi^2/6 (excess kurtosis 12/5), if
        # the eight regions are independent streams.  The shared pass
        # gives every order 1..8 of the same trials, so hop h's log is
        # ln X_(h+1) - ln X_h, and hop-to-hop correlations must vanish.
        trials = 200_000
        by_order = simulate(cfg(n=8, n_t=1, n_r=1), 19, trials, range(1, 9))
        logs = np.log([by_order[n][Scheme.TAS_SC] for n in range(1, 9)])
        log_x = logs[-1]
        var = 8 * math.pi**2 / 6
        assert abs(log_x.mean() + 8 * np.euler_gamma) <= 4.0 * math.sqrt(var / trials)
        # Var of a sample variance: var^2 (excess kurtosis + 2) / trials.
        assert abs(log_x.var() - var) <= 4.0 * var * math.sqrt((2.4 / 8 + 2) / trials)
        hop_logs = np.diff(logs, axis=0, prepend=0.0)
        correlation = np.corrcoef(hop_logs) - np.eye(8)
        assert np.abs(correlation).max() <= 4.0 / math.sqrt(trials)


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
        )[n][Scheme.TAS_SC]
        for x, est in zip(grid, estimates):
            exact = self.exact_cdf(n, float(x)) ** branches
            assert 1e-3 < exact < 1.0 - 1e-3
            sigma = math.sqrt(exact * (1.0 - exact) / self.TRIALS)
            assert abs(est.value - exact) <= 4.0 * sigma, (x, est.value, exact)


class TestSimulatePostprocSnr:
    """Selection and combining on shared channel realizations."""

    def test_degenerate_selection_identical(self):
        both = selected(cfg(n_t=1, n_r=1), 3, 200)
        assert np.array_equal(both[Scheme.TAS_MRC], both[Scheme.TAS_SC])

    def test_pointwise_dominance(self):
        # On a shared realization the combined SNR can never be below the
        # best single branch.
        both = selected(cfg(), 17, 500)
        assert np.all(both[Scheme.TAS_MRC] >= both[Scheme.TAS_SC])

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
        # size: 997-trial blocks (odd-numbered ones start at odd offsets),
        # and 30000 trials end in a truncated block.
        grid = np.logspace(-1.0, 1.0, 9)
        settings = SimSettings(trials=30_000, master_seed=9)
        for c in (cfg(n=3), cfg(n=3, n_t=1, n_r=3)):
            thresholds = grid / c.mean_snr
            for width in (997, 1000, 4096):
                monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", width)
                pair = empirical_cdf_pair(c, settings, grid)[c.n]
                reference = rebuild(c, 9, settings.trials)[c.n]
                for s in Scheme:
                    counts = np.searchsorted(np.sort(reference[s]), thresholds, side="right")
                    assert [e.value for e in pair[s]] == [k / settings.trials for k in counts]
            monkeypatch.undo()

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BLOCK_TRIALS", 2048)
        results = [
            estimate_af(cfg(n=4), SimSettings(trials=30_000, master_seed=4, workers=workers),
                        (2, 4))
            for workers in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_worker_count_invariance_at_draw_cap(self):
        # 4x4, n = 8, the largest validated channel: a full block reads
        # 16*8*16384 = 2^21 draws, and 40000 trials end in a partial one.
        c = cfg(n=8, n_t=4, n_r=4)
        results = [
            estimate_af(c, SimSettings(trials=40_000, master_seed=4, workers=workers))
            for workers in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_blocks_in_flight_stay_within_the_window(self, monkeypatch):
        # 10^10 trials are 610352 blocks; an unbounded pool.map would submit
        # them all before the first ran.  The spy stops the run at the
        # eighth block simulated; the pool stops it too past two windows
        # more, so code without a window fails fast.
        workers, stop = 2, 8
        window = montecarlo._BLOCKS_IN_FLIGHT * workers
        simulated, in_flight = [], []
        block_selected = montecarlo._block_selected

        class Stop(Exception):
            pass

        def spy(*args):
            simulated.append(args[3])
            if len(simulated) >= stop:
                raise Stop
            return block_selected(*args)

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                in_flight.append(len(in_flight) + 1 - len(simulated))
                if len(in_flight) > stop + 2 * window:
                    raise Stop
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_block_selected", spy)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountingPool)
        settings = SimSettings(trials=10**10, master_seed=3, workers=workers)
        with pytest.raises(Stop):
            estimate_af(cfg(n=1, n_t=1, n_r=1), settings)
        assert max(in_flight) <= window
        assert len(in_flight) <= stop + window
        assert len(simulated) <= stop + window

    def test_pool_is_clamped_to_the_host_cores(self, monkeypatch):
        # A million workers on a 2-core host run on 2 threads, with a window
        # of 4 blocks.  The pool stops the run at its 17th submit, so code
        # without the clamp starts at most 16 threads before it fails.
        built, in_flight, summed = [], [], []

        class Stop(Exception):
            pass

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

            def submit(self, fn, /, *args, **kwargs):
                if len(in_flight) == 16:
                    raise Stop
                future = super().submit(fn, *args, **kwargs)
                result = future.result

                def counted(timeout=None):
                    value = result(timeout)
                    summed.append(value)
                    return value

                future.result = counted
                in_flight.append(len(in_flight) + 1 - len(summed))
                return future

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountingPool)
        settings = SimSettings(trials=10**10, master_seed=3, workers=10**6)
        with pytest.raises(Stop):
            estimate_af(cfg(n=1, n_t=1, n_r=1), settings)
        assert built == [2]
        assert max(in_flight) <= 4

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
        ranked = np.sort(selected(c, 2, trials)[Scheme.TAS_SC])
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
        pair = empirical_cdf_pair(cfg(), SimSettings(trials=2_000, master_seed=1), [1e12])[2]
        assert pair[Scheme.TAS_SC][0].value == 1.0

    def test_nondecreasing_along_grid(self):
        grid = np.logspace(-2, 2, 25)
        pair = empirical_cdf_pair(cfg(), SimSettings(trials=40_000, master_seed=6), grid)[2]
        values = [e.value for e in pair[Scheme.TAS_MRC]]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_matches_pointwise_estimates(self):
        c = cfg(n=2)
        settings = SimSettings(trials=25_000, master_seed=13)
        grid = [0.5, 2.0, 8.0]
        cdf = empirical_cdf_pair(c, settings, grid)[2][Scheme.TAS_SC]
        for g, est in zip(grid, cdf):
            assert est == outage_point(Scheme.TAS_SC, c, g, settings)

    def test_scheme_ordering_shared_streams(self):
        # Shared realizations make the empirical ordering exact, not just
        # statistical.
        pair = empirical_cdf_pair(cfg(), SimSettings(trials=20_000, master_seed=8),
                                  np.logspace(-2, 1.5, 15))[2]
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
        estimates = empirical_cdf_pair(c, SimSettings(trials=trials, master_seed=77), grid)[n]
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
        low = estimate_af(cfg(mean_snr=1.0), settings)[2]
        high = estimate_af(cfg(mean_snr=100.0), settings)[2]
        for s in Scheme:
            assert low[s] == high[s]  # bitwise: the selection statistic is scale-free

    def test_siso_single_cascade_af(self):
        # True AF of an exponential SNR is exactly 1; the closed-form model
        # value 1/m = 0.9648 sits about 3.5% below it.
        c = cfg(n=1, n_t=1, n_r=1)
        both = estimate_af(c, SimSettings(trials=200_000, master_seed=12))[1]
        est = both[Scheme.TAS_SC]
        assert both[Scheme.TAS_MRC] == est
        assert abs(est.value - 1.0) <= 4.0 * est.std_error
        assert abs(est.value - 0.964785335262904) <= 0.05

    def test_mean_matches_selected_average(self):
        c = cfg(n=2, n_t=2, n_r=2)
        settings = SimSettings(trials=50_000, master_seed=44)
        both = estimate_af(c, settings)[c.n]
        statistics = selected(c, 44, 50_000)
        for s in Scheme:
            x = statistics[s]
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
