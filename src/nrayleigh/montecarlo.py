"""Seeded Monte-Carlo engine for cascaded-Rayleigh MIMO antenna selection.

Every uniform variate has a fixed absolute position in one Philox counter
stream keyed by the master seed: trial t consumes draws
[t * D, (t + 1) * D) where D = n_t * n_r * n * 2 (one magnitude and one
phase draw per cascade hop of every coefficient, transmit-major then
receive then hop).  Estimates are therefore a pure function of
(trials, master_seed) - independent of partition width and worker count -
and TAS/MRC and TAS/SC estimates with equal seeds share channel
realizations exactly.

Channel convention: each hop is a zero-mean circular complex Gaussian with
unit power (components drawn by Box-Muller with variance 1/2), so every
coefficient power is a product of n unit-mean exponentials and the branch
SNR is coefficient power times the mean branch SNR.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .schemes import ChannelConfig, Scheme

__all__ = [
    "EmpiricalEstimate",
    "MomentsAfEstimate",
    "SimSettings",
    "UniformStream",
    "empirical_cdf",
    "empirical_cdf_pair",
    "estimate_moments_af",
    "estimate_outage",
    "sample_channel_coefficient",
    "simulate_postproc_snr",
]

_U64_MAX = 2**64
_LOW_EVENT_THRESHOLD = 10
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# Product of per-hop powers switches to log space at this cascade order to
# keep deep fades away from underflow.
_LOG_PRODUCT_MIN_CASCADE = 5


@dataclass(frozen=True)
class SimSettings:
    """Monte-Carlo contract: trial count, seed, partitioning, parallelism.

    ``partition_width`` and ``workers`` are execution knobs only; results
    are bit-identical for any values of either.
    """

    trials: int = 1_000_000
    master_seed: int = 1
    partition_width: int = 65536
    workers: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.master_seed < _U64_MAX):
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed}")
        if self.partition_width < 1:
            raise ValueError(f"partition_width must be >= 1, got {self.partition_width}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Point estimate with normal-approximation 95% confidence interval."""

    value: float
    std_error: float
    trials: int
    ci95_low: float
    ci95_high: float
    low_confidence: bool = False


@dataclass(frozen=True)
class MomentsAfEstimate:
    """First two raw moments and the plug-in amount of fading."""

    mean: EmpiricalEstimate
    second_moment: EmpiricalEstimate
    af: EmpiricalEstimate


def _raw_uniforms(master_seed: int, start_draw: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) at absolute stream positions [start_draw, start_draw+count).

    Philox advances in blocks of four 64-bit outputs, so the stream is
    positioned at the enclosing block boundary and the in-block remainder
    is discarded.
    """
    bitgen = np.random.Philox(master_seed)
    block, rem = divmod(start_draw, 4)
    if block:
        bitgen.advance(block)
    raw = bitgen.random_raw(rem + count)
    return (raw[rem:] >> np.uint64(11)) * 2.0**-53


class UniformStream:
    """Sequential view of the counter-addressed uniform stream.

    Two streams with the same master seed and position yield identical
    draws; positions are in units of single uniforms.
    """

    def __init__(self, master_seed: int, position: int = 0) -> None:
        if not (0 <= master_seed < _U64_MAX):
            raise ValueError(f"master_seed must fit in 64 bits, got {master_seed}")
        if position < 0:
            raise ValueError(f"position must be nonnegative, got {position}")
        self.master_seed = int(master_seed)
        self.position = int(position)

    def take(self, count: int) -> np.ndarray:
        """Consume and return the next ``count`` uniforms."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        u = _raw_uniforms(self.master_seed, self.position, count)
        self.position += count
        return u


def _draws_per_trial(cfg: ChannelConfig) -> int:
    return cfg.n_t * cfg.n_r * cfg.n * 2


def _hop_powers(u_magnitude: np.ndarray) -> np.ndarray:
    """Unit-mean exponential per hop from a magnitude uniform in [0, 1)."""
    return -np.log1p(-u_magnitude)


def _coefficient_powers(u: np.ndarray, n: int) -> np.ndarray:
    """Squared coefficient magnitudes from hop uniforms shaped (..., n, 2)."""
    hop = _hop_powers(u[..., 0])
    if n >= _LOG_PRODUCT_MIN_CASCADE:
        with np.errstate(divide="ignore"):
            log_power = np.sum(np.log(hop), axis=-1)
        return np.exp(log_power)
    return np.prod(hop, axis=-1)


def sample_channel_coefficient(n: int, stream: UniformStream) -> complex:
    """One cascaded channel coefficient: the product of n complex Gaussians.

    Consumes exactly 2n uniforms.  The squared magnitude is a product of n
    unit-mean exponentials, so E[|h|^2] = 1 for every cascade order.
    """
    u = stream.take(2 * n).reshape(n, 2)
    hop = _hop_powers(u[:, 0])
    phase = 2.0 * math.pi * float(np.sum(u[:, 1]))
    magnitude = math.sqrt(float(np.prod(hop)))
    return complex(magnitude * math.cos(phase), magnitude * math.sin(phase))


def _selected_powers(powers: np.ndarray, scheme: Scheme) -> np.ndarray:
    """Selection statistic per trial from powers shaped (trials, n_t, n_r)."""
    if scheme is Scheme.TAS_MRC:
        return powers.sum(axis=2).max(axis=1)
    return powers.max(axis=(1, 2))


def simulate_postproc_snr(scheme: Scheme, cfg: ChannelConfig, stream: UniformStream) -> float:
    """One post-processing SNR sample after selection and combining.

    TAS/MRC: mean_snr * max over transmit antennas of the summed receive
    powers; TAS/SC: mean_snr * the single largest coefficient power.
    Consumes exactly n_t * n_r * 2n uniforms, so identically seeded streams
    give both schemes the same channel realization.
    """
    u = stream.take(_draws_per_trial(cfg)).reshape(cfg.n_t, cfg.n_r, cfg.n, 2)
    powers = _coefficient_powers(u, cfg.n)[np.newaxis, ...]
    return cfg.mean_snr * float(_selected_powers(powers, scheme)[0])


def _chunk_selected(
    cfg: ChannelConfig, master_seed: int, start_trial: int, count: int
) -> dict[Scheme, np.ndarray]:
    """Selection statistics (unscaled by mean SNR) for a block of trials."""
    d = _draws_per_trial(cfg)
    u = _raw_uniforms(master_seed, start_trial * d, count * d)
    u = u.reshape(count, cfg.n_t, cfg.n_r, cfg.n, 2)
    powers = _coefficient_powers(u, cfg.n)
    return {s: _selected_powers(powers, s) for s in Scheme}


def _map_chunks(settings: SimSettings, fn):
    """Apply fn(start_trial, count) to every partition, in partition order."""
    chunks = [
        (start, min(settings.partition_width, settings.trials - start))
        for start in range(0, settings.trials, settings.partition_width)
    ]
    if settings.workers == 1:
        return [fn(start, count) for start, count in chunks]
    with ThreadPoolExecutor(max_workers=settings.workers) as pool:
        return list(pool.map(lambda c: fn(*c), chunks))


def _proportion_estimate(events: int, trials: int) -> EmpiricalEstimate:
    p = events / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return EmpiricalEstimate(
        value=p,
        std_error=se,
        trials=trials,
        ci95_low=p - _Z95 * se,
        ci95_high=p + _Z95 * se,
        low_confidence=events < _LOW_EVENT_THRESHOLD,
    )


def estimate_outage(
    scheme: Scheme, cfg: ChannelConfig, gamma_o: float, settings: SimSettings
) -> EmpiricalEstimate:
    """Empirical outage probability P(post-processing SNR <= gamma_o).

    Estimates with fewer than 10 outage events are flagged low-confidence
    rather than suppressed.
    """
    if gamma_o < 0.0:
        raise ValueError(f"gamma_o must be nonnegative, got {gamma_o}")
    threshold = gamma_o / cfg.mean_snr

    def count_chunk(start: int, count: int) -> int:
        s = _chunk_selected(cfg, settings.master_seed, start, count)[scheme]
        return int(np.count_nonzero(s <= threshold))

    events = sum(_map_chunks(settings, count_chunk))
    return _proportion_estimate(events, settings.trials)


def empirical_cdf(
    scheme: Scheme,
    cfg: ChannelConfig,
    settings: SimSettings,
    grid: "list[float] | np.ndarray",
) -> list[EmpiricalEstimate]:
    """Empirical CDF of the post-processing SNR on an ascending grid.

    One pass over the trials, counting threshold crossings per grid point.
    """
    return empirical_cdf_pair(cfg, settings, grid)[scheme]


def empirical_cdf_pair(
    cfg: ChannelConfig,
    settings: SimSettings,
    grid: "list[float] | np.ndarray",
) -> dict[Scheme, list[EmpiricalEstimate]]:
    """Empirical CDFs for both schemes from shared channel realizations."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly ascending")
    thresholds = grid / cfg.mean_snr

    def count_chunk(start: int, count: int) -> dict[Scheme, np.ndarray]:
        selected = _chunk_selected(cfg, settings.master_seed, start, count)
        return {
            s: np.searchsorted(np.sort(selected[s]), thresholds, side="right")
            for s in Scheme
        }

    partials = _map_chunks(settings, count_chunk)
    result: dict[Scheme, list[EmpiricalEstimate]] = {}
    for s in Scheme:
        counts = np.zeros(grid.size, dtype=np.int64)
        for part in partials:
            counts += part[s]
        result[s] = [_proportion_estimate(int(c), settings.trials) for c in counts]
    return result


def estimate_moments_af(
    scheme: Scheme, cfg: ChannelConfig, settings: SimSettings
) -> MomentsAfEstimate:
    """Sample mean, second raw moment and plug-in AF of the selected SNR.

    The AF standard error is first-order (delta-method) propagation from
    the covariance of the first two sample moments, which needs raw sample
    moments up to order four.
    """

    def sums_chunk(start: int, count: int) -> tuple[float, float, float, float]:
        s = _chunk_selected(cfg, settings.master_seed, start, count)[scheme]
        s2 = s * s
        return (float(s.sum()), float(s2.sum()), float((s2 * s).sum()), float((s2 * s2).sum()))

    t1 = t2 = t3 = t4 = 0.0
    for c1, c2, c3, c4 in _map_chunks(settings, sums_chunk):
        t1 += c1
        t2 += c2
        t3 += c3
        t4 += c4
    trials = settings.trials
    m1, m2, m3, m4 = t1 / trials, t2 / trials, t3 / trials, t4 / trials

    g = cfg.mean_snr
    var_m1 = max(m2 - m1 * m1, 0.0) / trials
    var_m2 = max(m4 - m2 * m2, 0.0) / trials
    cov_m12 = (m3 - m1 * m2) / trials

    def scaled(value: float, se: float) -> EmpiricalEstimate:
        return EmpiricalEstimate(
            value=value,
            std_error=se,
            trials=trials,
            ci95_low=value - _Z95 * se,
            ci95_high=value + _Z95 * se,
        )

    af = m2 / (m1 * m1) - 1.0
    d_m1 = -2.0 * m2 / m1**3
    d_m2 = 1.0 / (m1 * m1)
    var_af = max(
        d_m1 * d_m1 * var_m1 + 2.0 * d_m1 * d_m2 * cov_m12 + d_m2 * d_m2 * var_m2, 0.0
    )
    return MomentsAfEstimate(
        mean=scaled(g * m1, g * math.sqrt(var_m1)),
        second_moment=scaled(g * g * m2, g * g * math.sqrt(var_m2)),
        af=scaled(af, math.sqrt(var_af)),
    )
