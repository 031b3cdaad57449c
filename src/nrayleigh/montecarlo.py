"""Seeded Monte-Carlo engine for cascaded-Rayleigh MIMO antenna selection.

Stream layout v3: every uniform variate has a fixed absolute position in
one PCG64 stream seeded with the master seed, reached with ``advance``.
Selection depends only on coefficient powers, so each trial takes
D = n_t * n_r * n draws, one magnitude per cascade hop.  Trials are
addressed in blocks of B = ``_chunk_trials(cfg)`` =
min(65536, 2^21 // D) trials, a function of the channel alone;
block b holds the draws [b*B*D, (b+1)*B*D) and within it slot j
(transmit-major, then receive, then hop) owns the B positions starting at
b*B*D + j*B, one per trial.  The block size is therefore part of the
layout: changing ``_CHUNK_DRAWS`` changes every Monte-Carlo number.

One kernel simulates a block and returns both schemes' selection
statistics from the same draws; the two public views reduce them to CDF
counts (``empirical_cdf_pair``) or power sums (``estimate_af``).  The
kernel seeds PCG64 once per block and walks the block one channel
coefficient (t, r) at a time: the coefficient's n hop rows of ``count``
trials go into one reused (n, count) buffer, and its power is folded
into running TAS/SC and TAS/MRC maxima and a receive sum in r order, so
at most (n + 3) * count doubles are live per block and worker (<= 5.5 MiB
for n <= 8).  Every float is formed by the same operations, in the same
order, as from the whole (D, count) block held at once, so the walk is
not part of the layout and leaves every output byte as it is.  The
2^21-draw cap defines B, not memory; a channel with D > 2^21, whose one
trial would not fit in a block, is refused before any draw.  Because
every position is addressed, a final partial block reads only the first
``count`` positions of each slot row and skips the rest with
``advance``.  Block partials are combined in trial order, so every
estimate is a pure function of (cfg, trials, master_seed) - independent
of the worker count - and TAS/MRC and TAS/SC share channel realizations
exactly.

Channel convention: each hop is a zero-mean circular complex Gaussian with
unit power, so every coefficient power is a product of n unit-mean
exponentials and the branch SNR is coefficient power times the mean branch
SNR.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fading import positive_int
from .schemes import ChannelConfig, Scheme

__all__ = [
    "EmpiricalEstimate",
    "SimSettings",
    "empirical_cdf_pair",
    "estimate_af",
]

_U64_MAX = 2**64
_LOW_EVENT_THRESHOLD = 10
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# A block holds at most this many trials and this many stream draws.
_CHUNK_TRIALS = 65536
_CHUNK_DRAWS = 2**21


@dataclass(frozen=True)
class SimSettings:
    """Monte-Carlo contract: trial count, seed and parallelism.

    ``workers`` is an execution knob only; results are bit-identical for
    any value of it.
    """

    trials: int = 1_000_000
    master_seed: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("trials", "workers"):
            object.__setattr__(self, name, positive_int(name, getattr(self, name)))
        seed = self.master_seed
        if type(seed) is not int or not (0 <= seed < _U64_MAX):
            raise ValueError(f"master_seed must be an int that fits in 64 bits, got {seed}")


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Point estimate with normal-approximation 95% confidence interval."""

    value: float
    std_error: float
    ci95_low: float
    ci95_high: float
    low_confidence: bool = False


def _read_rows(
    master_seed: int, start_draw: int, stride: int, out: np.ndarray
) -> Iterator[np.ndarray]:
    """Fill the float64 array ``out`` with successive stride-spaced rows of
    the stream, yielding it after each fill: fill i sets row j to the
    doubles at absolute positions [p, p + width), p = start_draw +
    (i*rows + j)*stride, where (rows, width) = ``out.shape`` and width <=
    ``stride``.

    PCG64 is seeded with the master seed once, jumps to ``start_draw``
    with ``advance``, which counts 64-bit outputs, and ``Generator.random``
    maps each word w to (w >> 11) * 2^-53.  Each row is one call, and its
    unread tail is skipped with ``advance`` (by 0 in a full block).
    """
    bitgen = np.random.PCG64(master_seed)
    bitgen.advance(start_draw)
    rng = np.random.Generator(bitgen)
    skip = stride - out.shape[1]
    while True:
        for row in out:
            rng.random(out=row)
            bitgen.advance(skip)
        yield out


def _draws_per_trial(cfg: ChannelConfig) -> int:
    return cfg.n_t * cfg.n_r * cfg.n


def _chunk_trials(cfg: ChannelConfig) -> int:
    d = _draws_per_trial(cfg)
    if d > _CHUNK_DRAWS:
        raise ValueError(f"a trial of {d} draws does not fit in a {_CHUNK_DRAWS}-draw block")
    return min(_CHUNK_TRIALS, _CHUNK_DRAWS // d)


def _chunk_selected(
    cfg: ChannelConfig, master_seed: int, block: int, count: int
) -> dict[Scheme, np.ndarray]:
    """Selection statistics (unscaled by mean SNR) for the first ``count``
    trials of stream block ``block``.

    TAS/MRC: max over transmit antennas of the summed receive powers;
    TAS/SC: the single largest coefficient power.  Each hop power is a
    unit-mean exponential, -log1p(-u), of its uniform.  Hops are >= 2^-53
    or exactly 0, so a product of at most 8 cannot underflow.

    The block is processed one coefficient (t, r) at a time, in slot
    order: its n hop rows are read into one reused (n, count) buffer and
    the power is folded into running maxima and the receive sum of
    transmit antenna t.  At most (n + 3)*count doubles are live; a 1x1
    channel returns views of the buffer itself.
    """
    width = _chunk_trials(cfg)
    hops = np.empty((cfg.n, count))
    power = hops[0]
    fills = _read_rows(master_seed, block * width * _draws_per_trial(cfg), width, hops)
    # The buffer is refilled for the next coefficient, so a running result
    # that starts as the power must own a copy unless this is the only one.
    refilled = cfg.n_t * cfg.n_r > 1
    tas_sc = tas_mrc = None
    for _ in range(cfg.n_t):
        received = None
        for _ in range(cfg.n_r):
            next(fills)
            np.negative(hops, out=hops)
            np.log1p(hops, out=hops)
            # hops hold log1p(-u) <= 0, so their product carries the sign
            # (-1)^n; negating it for odd n gives the same bits as
            # multiplying -log1p(-u), since IEEE rounding is symmetric in
            # sign.
            for k in range(1, cfg.n):
                power *= hops[k]
            if cfg.n % 2:
                np.negative(power, out=power)
            if tas_sc is None:
                tas_sc = power.copy() if refilled else power
            else:
                np.maximum(tas_sc, power, out=tas_sc)
            if received is None:
                received = power.copy() if refilled else power
            else:
                received += power
        if tas_mrc is None:
            tas_mrc = received
        else:
            np.maximum(tas_mrc, received, out=tas_mrc)
    return {Scheme.TAS_MRC: tas_mrc, Scheme.TAS_SC: tas_sc}


def _map_chunks(cfg: ChannelConfig, settings: SimSettings, reduce) -> list:
    """reduce(selection statistics) of every block, in trial order."""
    width = _chunk_trials(cfg)

    def run(block: int):
        count = min(width, settings.trials - block * width)
        return reduce(_chunk_selected(cfg, settings.master_seed, block, count))

    blocks = range(-(-settings.trials // width))
    # Serial: a one-worker pool took deep-cascade peak RSS from ~85.3 to
    # ~87.7 MB and its wall time up ~6% (6 pairs, 2-core x86-64 host).
    if settings.workers == 1:
        return [run(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=settings.workers) as pool:
        return list(pool.map(run, blocks))


def _estimate(value: float, se: float, events: int | None = None) -> EmpiricalEstimate:
    """value +- z95 * se; a counted proportion with fewer than
    ``_LOW_EVENT_THRESHOLD`` events is flagged low-confidence, not
    suppressed."""
    return EmpiricalEstimate(
        value=value,
        std_error=se,
        ci95_low=value - _Z95 * se,
        ci95_high=value + _Z95 * se,
        low_confidence=events is not None and events < _LOW_EVENT_THRESHOLD,
    )


def empirical_cdf_pair(
    cfg: ChannelConfig,
    settings: SimSettings,
    grid: "list[float] | np.ndarray",
) -> dict[Scheme, list[EmpiricalEstimate]]:
    """Empirical CDFs of both schemes' post-processing SNR on an ascending
    grid, from shared channel realizations, counting P(SNR <= g)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.isnan(grid).any() or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly ascending, with no NaN")
    thresholds = grid / cfg.mean_snr

    def crossings(selected: dict[Scheme, np.ndarray]) -> np.ndarray:
        return np.array([
            np.searchsorted(np.sort(selected[s]), thresholds, side="right") for s in Scheme
        ])

    trials = settings.trials

    def proportion(events: int) -> EmpiricalEstimate:
        p = events / trials
        return _estimate(p, math.sqrt(p * (1.0 - p) / trials), events)

    counts = sum(_map_chunks(cfg, settings, crossings))
    return {s: [proportion(c) for c in row.tolist()] for s, row in zip(Scheme, counts)}


def estimate_af(cfg: ChannelConfig, settings: SimSettings) -> dict[Scheme, EmpiricalEstimate]:
    """Plug-in AF of both schemes' selected SNR, from one pass over shared
    channel realizations; it is scale-free, so the mean SNR drops out.

    The AF standard error is first-order (delta-method) propagation from
    the covariance of the first two sample moments, which needs raw sample
    moments up to order four.
    """

    def power_sums(selected: dict[Scheme, np.ndarray]) -> np.ndarray:
        rows = []
        for s in Scheme:
            x = selected[s]
            x2 = x * x
            rows.append([x.sum(), x2.sum(), (x2 * x).sum(), (x2 * x2).sum()])
        return np.array(rows)

    totals = np.zeros((len(Scheme), 4))
    for part in _map_chunks(cfg, settings, power_sums):
        totals += part
    trials = settings.trials
    result: dict[Scheme, EmpiricalEstimate] = {}
    for s, sums in zip(Scheme, totals.tolist()):
        m1, m2, m3, m4 = (t / trials for t in sums)
        var_m1 = max(m2 - m1 * m1, 0.0) / trials
        var_m2 = max(m4 - m2 * m2, 0.0) / trials
        cov_m12 = (m3 - m1 * m2) / trials
        af = m2 / (m1 * m1) - 1.0
        d_m1 = -2.0 * m2 / m1**3
        d_m2 = 1.0 / (m1 * m1)
        var_af = max(
            d_m1 * d_m1 * var_m1 + 2.0 * d_m1 * d_m2 * cov_m12 + d_m2 * d_m2 * var_m2, 0.0
        )
        result[s] = _estimate(af, math.sqrt(var_af))
    return result
