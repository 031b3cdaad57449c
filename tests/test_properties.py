"""The analytic contracts as properties over drawn channels.

Both schemes, cascade orders 1..8, 1..4 transmit and receive antennas,
mean SNRs over 10^[-3, 8], thresholds over 10^[-4, 4] and outage targets
over 10^[-12, log10 0.5]:

- ``outage`` is a probability;
- it does not rise with the threshold or fall with the mean SNR by more
  than 1e-12 relative (exact monotonicity fails by rounding: steps below
  ~4e-15 relative have moved it the wrong way by up to 7e-15);
- ``required_snr`` inverts it: outage at the solved SNR is the target
  within 1e-12 relative.

And the Monte-Carlo kernel's, over 1..4 transmit and receive antennas,
sets of cascade orders within 1..8 and seeds that include 0 and 2^64 - 1:

- the first ``count`` trials of a block are the same bytes whether the
  block is read in full or cut at ``count``;
- the TAS/MRC statistic is at least the TAS/SC one at every trial;
- ``empirical_cdf_pair`` and ``estimate_af`` give the same bytes on 1, 2
  and 3 workers, and each order of a shared pass the bytes it has when
  simulated alone, at trial counts one below, at and one above one, two
  and three whole blocks, and at small counts.  Two block partials add to
  the same float in either order, so only three or more blocks can show
  partials combined out of trial order.

The draws are derandomized and no example database is kept, so every run
of the same source checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from nrayleigh.montecarlo import (
    _BLOCK_TRIALS,
    SimSettings,
    _block_selected,
    empirical_cdf_pair,
    estimate_af,
)
from nrayleigh.schemes import ChannelConfig, OutageQuery, Scheme, outage, required_snr

REL_TOL = 1e-12

CASES = settings(max_examples=400, derandomize=True, database=None, deadline=None)


def decades(lo: float, hi: float):
    """10^x for x drawn from [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


schemes = st.sampled_from(Scheme)
channels = st.builds(
    ChannelConfig, n=st.integers(1, 8), n_t=st.integers(1, 4), n_r=st.integers(1, 4),
    mean_snr=decades(-3.0, 8.0),
)
thresholds = decades(-4.0, 4.0)
targets = decades(-12.0, math.log10(0.5))
# Relative steps, from a few ulps to 10%.
steps = decades(-16.0, -1.0)


@CASES
@given(schemes, channels, thresholds)
def test_outage_is_a_probability(scheme, cfg, threshold):
    assert 0.0 <= outage(scheme, OutageQuery(threshold=threshold), cfg) <= 1.0


@CASES
@given(schemes, channels, thresholds, steps)
def test_outage_does_not_fall_as_the_threshold_rises(scheme, cfg, threshold, step):
    low = outage(scheme, OutageQuery(threshold=threshold), cfg)
    high = outage(scheme, OutageQuery(threshold=threshold * (1.0 + step)), cfg)
    assert high >= low * (1.0 - REL_TOL)


@CASES
@given(schemes, channels, thresholds, steps)
def test_outage_does_not_rise_as_the_mean_snr_rises(scheme, cfg, threshold, step):
    query = OutageQuery(threshold=threshold)
    weak = outage(scheme, query, cfg)
    strong = outage(scheme, query, cfg.with_mean_snr(cfg.mean_snr * (1.0 + step)))
    assert strong <= weak * (1.0 + REL_TOL)


@CASES
@given(schemes, channels, thresholds, targets)
def test_required_snr_inverts_outage(scheme, cfg, threshold, target):
    query = OutageQuery(threshold=threshold)
    snr = required_snr(scheme, target, query, cfg)
    achieved = outage(scheme, query, cfg.with_mean_snr(snr))
    assert abs(achieved / target - 1.0) <= REL_TOL


# A full block of a 4x4 channel at n = 8 reads 128 rows of 16 384 doubles.
KERNEL_CASES = settings(max_examples=100, derandomize=True, database=None, deadline=None)

order_sets = st.sets(st.integers(1, 8), min_size=1).map(lambda orders: tuple(sorted(orders)))
antennas = st.integers(1, 4)
seeds = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
blocks = st.integers(0, 2**32)


@KERNEL_CASES
@given(antennas, antennas, order_sets, seeds, blocks, st.integers(1, _BLOCK_TRIALS))
def test_a_cut_block_is_the_head_of_the_full_block(n_t, n_r, orders, seed, block, count):
    cfg = ChannelConfig(orders[-1], n_t, n_r, 1.0)
    full = _block_selected(cfg, orders, seed, block, _BLOCK_TRIALS)
    cut = _block_selected(cfg, orders, seed, block, count)
    for n in orders:
        for scheme in Scheme:
            assert cut[n][scheme].tobytes() == full[n][scheme][:count].tobytes()


@KERNEL_CASES
@given(antennas, antennas, order_sets, seeds, blocks, st.integers(1, 4096))
def test_tas_mrc_statistic_is_at_least_tas_sc(n_t, n_r, orders, seed, block, count):
    cfg = ChannelConfig(orders[-1], n_t, n_r, 1.0)
    selected = _block_selected(cfg, orders, seed, block, count)
    for n in orders:
        assert np.all(selected[n][Scheme.TAS_MRC] >= selected[n][Scheme.TAS_SC])


# Each example simulates up to 6 whole passes of up to 4 blocks; 25 cost
# ~2 s of tier-1 on a 2-core x86-64 host.
PASS_CASES = settings(max_examples=25, derandomize=True, database=None, deadline=None)

trial_counts = st.one_of(
    st.sampled_from([k * _BLOCK_TRIALS + d for k in (1, 2, 3) for d in (-1, 0, 1)]),
    st.integers(1, 100),
)
workers = st.integers(1, 3)
GRID = [10.0 ** k for k in range(-3, 2)]


def views(cfg, run, orders=None):
    """Both views' estimates of the orders (default cfg.n), keyed by order,
    as the repr of every float, so equal text is equal bytes."""
    cdf = empirical_cdf_pair(cfg, run, GRID, orders)
    af = estimate_af(cfg, run, orders)
    return {n: repr((cdf[n], af[n])) for n in cdf}


@PASS_CASES
@given(antennas, antennas, order_sets, seeds, trial_counts)
def test_estimates_do_not_depend_on_the_worker_count(n_t, n_r, orders, seed, trials):
    cfg = ChannelConfig(orders[-1], n_t, n_r, 1.0)
    one, two, three = (views(cfg, SimSettings(trials, seed, w), orders) for w in (1, 2, 3))
    assert one == two == three


@PASS_CASES
@given(antennas, antennas, order_sets, seeds, trial_counts, workers)
def test_each_order_of_a_shared_pass_is_that_order_alone(n_t, n_r, orders, seed, trials, w):
    run = SimSettings(trials, seed, w)
    shared = views(ChannelConfig(orders[-1], n_t, n_r, 1.0), run, orders)
    assert shared == {n: views(ChannelConfig(n, n_t, n_r, 1.0), run)[n] for n in orders}
