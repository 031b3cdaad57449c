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

The draws are derandomized and no example database is kept, so every run
of the same source checks the same cases.
"""

import math

from hypothesis import given, settings, strategies as st

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
