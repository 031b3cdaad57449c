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
  and 3 workers (run as 1, 2 and 3 threads on any host), and each order
  of a shared pass the bytes it has when simulated alone, at trial counts
  one below, at and one above one, two and three whole blocks, and at
  small counts.  Two block partials add to the same float in either
  order, so only three or more blocks can show partials combined out of
  trial order.

And the CLI's, over cascade orders 1..8 and transmit and receive antenna
counts from small counts, the edges 16 and 17, and powers of 2 and 10 up
to 10^308, at ``--trials 0``:

- ``params``, ``outage-sweep`` and ``af-sweep`` exit with the code that the
  README's exit-code paragraph gives the channel, and a refusal prints
  nothing.

The draws are derandomized and no example database is kept, so every run
of the same source checks the same cases.
"""

import contextlib
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nrayleigh import cli
from nrayleigh.fading import fading_params
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
# The pool runs min(workers, host cores) threads, so on a one-core host
# every worker count would be one schedule; with four cores, 1, 2 and 3
# workers run 1, 2 and 3 threads.  A patch, not the monkeypatch fixture,
# which Hypothesis refuses under @given.
FOUR_CORES = mock.patch.object(os, "cpu_count", return_value=4)


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
    with FOUR_CORES:
        one, two, three = (views(cfg, SimSettings(trials, seed, w), orders) for w in (1, 2, 3))
    assert one == two == three


@PASS_CASES
@given(antennas, antennas, order_sets, seeds, trial_counts, workers)
def test_each_order_of_a_shared_pass_is_that_order_alone(n_t, n_r, orders, seed, trials, w):
    run = SimSettings(trials, seed, w)
    with FOUR_CORES:
        shared = views(ChannelConfig(orders[-1], n_t, n_r, 1.0), run, orders)
        alone = {n: views(ChannelConfig(n, n_t, n_r, 1.0), run)[n] for n in orders}
    assert shared == alone


def outputs(argv):
    """(exit code, stdout, {file name: bytes}) of ``nrayleigh argv`` run in
    an empty directory."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as run_dir:
        os.chdir(run_dir)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            files = {}
            for name in os.listdir(run_dir):
                with open(name, "rb") as handle:
                    files[name] = handle.read()
        finally:
            os.chdir(cwd)
    return code, stdout.buffer.getvalue().decode(), files


# Each example runs one command on one channel, analytics only; 150 per
# command cost ~1 s of tier-1 on a 2-core x86-64 host.
CLI_CASES = settings(max_examples=150, derandomize=True, database=None, deadline=None)

antenna_counts = st.one_of(
    st.integers(1, 4),
    st.sampled_from([16, 17]),
    st.integers(0, 1023).map(lambda k: 2**k),
    st.integers(0, 308).map(lambda k: 10**k),
)
CLI_ARGS = {
    "params": [],
    "outage-sweep": ["--snr-db", "0:30:10", "--trials", "0"],
    "af-sweep": ["--trials", "0"],
}


def laws_in_float_range(n, n_t, n_r):
    """Whether both schemes' laws are finite floats: the shape s, the scale
    2s/Omega, the log power-law coefficient k (s ln(2s/Omega) - ln s -
    lgamma s) and the diversity m N / n, where (s, k) is (m n_r, n_t) for
    TAS/MRC and (m, N) for TAS/SC."""
    fp = fading_params(n)
    try:
        for shape, exponent in ((fp.m * n_r, n_t), (fp.m, n_t * n_r)):
            scale = 2.0 * shape / fp.omega
            ln_coeff = exponent * (
                shape * math.log(scale) - math.log(shape) - math.lgamma(shape)
            )
            if not all(map(math.isfinite, (shape, scale, ln_coeff, fp.m * (n_t * n_r) / n))):
                return False
    except OverflowError:
        return False
    return True


def expected_exit(command, n, n_t, n_r):
    """The exit code of README.md lines 113-134 (the exit-code paragraph)
    for one channel: 1 where the product n_t n_r or a law is past the float
    range, and for af-sweep where n is outside the fitted weighting table
    2..6 or N = n_t n_r is past the TAS/MRC AF bound's 16 (within it, the
    order-statistics exponents n_t and N are within the moment sum's cap
    of 64); else 0.  No channel of n <= 8 is 2 or 3."""
    if command == "af-sweep" and not 2 <= n <= 6:
        return cli.EXIT_USAGE
    try:
        float(n_t * n_r)
    except OverflowError:
        return cli.EXIT_USAGE
    if not laws_in_float_range(n, n_t, n_r):
        return cli.EXIT_USAGE
    if command == "af-sweep" and n_t * n_r > 16:
        return cli.EXIT_USAGE
    return cli.EXIT_OK


@pytest.mark.parametrize("command", sorted(CLI_ARGS))
@CLI_CASES
@given(n=st.integers(1, 8), n_t=antenna_counts, n_r=antenna_counts)
# The README's law past the float range, which 150 draws do not reach.
@example(n=2, n_t=1, n_r=10**308)
# TAS/MRC closed forms past the float range: lgamma overflows, and the
# squared first moment underflows.
@example(n=2, n_t=3, n_r=10**305)
@example(n=4, n_t=5, n_r=3162277660168379)
def test_exit_code_is_the_readme_one_over_the_channel_domain(command, n, n_t, n_r):
    argv = [command, "--n", str(n), "--nt", str(n_t), "--nr", str(n_r), *CLI_ARGS[command]]
    code, out, files = outputs(argv)
    assert code == expected_exit(command, n, n_t, n_r)
    assert (out == "") == (code != cli.EXIT_OK)
    assert files == {}
