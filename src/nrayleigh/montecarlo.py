"""Seeded Monte-Carlo engine for cascaded-Rayleigh MIMO antenna selection.

Stream layout v4: every uniform variate has a fixed absolute position in
one PCG64 stream seeded with the master seed, reached with ``advance``
and taken modulo the generator's period 2^128.  Selection depends only on
coefficient powers, and the power of coefficient c = t*n_r + r (transmit-
major, N = n_t*n_r of them) is a product of one unit-mean exponential per
cascade hop.  The uniform of hop h of coefficient c in trial i = b*B + k
sits at

    h*J + (b*N + c)*B + k,

with B = ``_BLOCK_TRIALS`` trials per block and J = ``_REGION_STRIDE``,
so no position depends on the cascade order n: hop h of a coefficient is
the same draw at every n > h.  Hop h reads region h, which starts at h*J;
J is the odd integer nearest (phi - 1)*2^128, the step of numpy's
``PCG64.jumped``, so the first 8 regions start at least 2^124 apart, and
their LCG states are not aligned as those of power-of-two strides are (a
2^64 stride gave a 1x1, n = 8 sample mean power of 3.6 instead of 1).
Both the block size and J are part of the layout: changing either
changes every Monte-Carlo number.

One kernel simulates a block for a set of cascade orders at once and
returns both schemes' selection statistics for each order from the same
draws; the two public views reduce them to CDF counts
(``empirical_cdf_pair``) or power sums (``estimate_af``).  The kernel
seeds PCG64 once per block and walks the block one channel coefficient
(t, r) at a time and, within it, one hop at a time: each hop row of
``count`` trials is read into one reused buffer and multiplied, in hop
order, into a running product; at hop n - 1 of each requested order n the
product (negated for odd n) is folded into that order's running TAS/SC
maximum, its receive sum of transmit antenna t and, after the last
receive antenna, its TAS/MRC maximum.  So at most (2 + 3*|orders|)*count
doubles are live per block and worker, for any (n, n_t, n_r), and each
order's floats are formed by the same operations in the same order as
when that order is simulated alone: a sweep over orders gives each order
the bytes it has on its own, one pass instead of one per order (common
random numbers across orders).  Because every position is addressed, a
final partial block reads only the first ``count`` positions of each row.
Block partials are combined in trial order, so every estimate is a pure
function of (cfg, order, trials, master_seed) - independent of the worker
count and of the other orders in the pass - and TAS/MRC and TAS/SC share
channel realizations exactly.

Channel convention: each hop is a zero-mean circular complex Gaussian with
unit power, so every coefficient power is a product of n unit-mean
exponentials and the branch SNR is coefficient power times the mean branch
SNR.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
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
# PCG64's period: positions and advances are taken modulo it.
_PERIOD = 2**128
# Start of hop h's region: h * _REGION_STRIDE, the odd integer nearest
# (phi - 1) * 2^128 that numpy's PCG64.jumped advances by.
_REGION_STRIDE = 0x9E3779B97F4A7C15F39CC0605CEDC835
_BLOCK_TRIALS = 2**14


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


def _read_rows(master_seed: int, starts: Iterable[int], out: np.ndarray) -> Iterator[np.ndarray]:
    """Fill the float64 row ``out`` with the doubles at absolute stream
    positions [s, s + out.size), modulo 2^128, for each s of ``starts`` in
    turn, yielding it after each fill.

    PCG64 is seeded with the master seed once and, before each fill,
    moved from the end of the last read to s with ``advance``, which counts
    64-bit outputs modulo the period; ``Generator.random`` maps each word
    w to (w >> 11) * 2^-53.
    """
    bitgen = np.random.PCG64(master_seed)
    rng = np.random.Generator(bitgen)
    position = 0
    for start in starts:
        bitgen.advance((start - position) % _PERIOD)
        rng.random(out=out)
        position = start + out.size
        yield out


def _block_selected(
    cfg: ChannelConfig, orders: tuple[int, ...], master_seed: int, block: int, count: int
) -> dict[int, dict[Scheme, np.ndarray]]:
    """Selection statistics (unscaled by mean SNR) of each cascade order of
    ``orders`` (ascending, distinct) for the first ``count`` trials of
    stream block ``block``.

    TAS/MRC: max over transmit antennas of the summed receive powers;
    TAS/SC: the single largest coefficient power.  Each hop power is a
    unit-mean exponential, -log1p(-u), of its uniform.  Hops are >= 2^-53
    or exactly 0, so a product of at most 8 cannot underflow.

    The block is read one coefficient (t, r) at a time and, within it, one
    hop row at a time into one reused buffer; the running product of the
    hops' log1p(-u) <= 0 carries the sign (-1)^(h+1), so order n takes it
    negated for odd n, which gives the same bits as multiplying
    -log1p(-u), since IEEE rounding is symmetric in sign.  Each order keeps
    a running TAS/SC maximum, receive sum and TAS/MRC maximum: at most
    (2 + 3*len(orders))*count doubles are live.
    """
    coefficients = cfg.n_t * cfg.n_r
    deepest = orders[-1]
    hop = np.empty(count)
    product = np.empty(count)
    fills = _read_rows(master_seed, (
        h * _REGION_STRIDE + (block * coefficients + c) * _BLOCK_TRIALS
        for c in range(coefficients) for h in range(deepest)
    ), hop)
    # Per order: [TAS/SC maximum, receive sum of this t, TAS/MRC maximum].
    folds = {n: [None, None, None] for n in orders}
    for _ in range(cfg.n_t):
        for r in range(cfg.n_r):
            for h in range(deepest):
                next(fills)
                np.negative(hop, out=hop)
                if h == 0:
                    np.log1p(hop, out=product)
                else:
                    np.log1p(hop, out=hop)
                    product *= hop
                fold = folds.get(h + 1)
                if fold is None:
                    continue
                # The hop buffer is free until the next read.
                power = np.negative(product, out=hop) if (h + 1) % 2 else product
                tas_sc, received, _ = fold
                fold[0] = power.copy() if tas_sc is None else np.maximum(tas_sc, power, out=tas_sc)
                if received is None:
                    fold[1] = power.copy()
                elif r == 0:
                    np.copyto(received, power)
                else:
                    received += power
        for fold in folds.values():
            _, received, tas_mrc = fold
            if tas_mrc is None:
                # The first receive sum becomes the maximum; the next
                # transmit antenna's sum gets its own buffer, reused after.
                fold[1:] = None, received
            else:
                np.maximum(tas_mrc, received, out=tas_mrc)
    return {n: {Scheme.TAS_MRC: tas_mrc, Scheme.TAS_SC: tas_sc}
            for n, (tas_sc, _, tas_mrc) in folds.items()}


def _distinct_orders(cfg: ChannelConfig, orders) -> tuple[int, ...]:
    """The ascending distinct cascade orders of a pass: ``orders``, or
    cfg.n alone when None."""
    if orders is None:
        return (cfg.n,)
    distinct = tuple(sorted({positive_int("cascade order", n) for n in orders}))
    if not distinct:
        raise ValueError("orders must name at least one cascade order")
    return distinct


def _map_blocks(cfg: ChannelConfig, orders: tuple[int, ...], settings: SimSettings, reduce) -> list:
    """reduce(selection statistics per order) of every block, in trial order."""
    width = _BLOCK_TRIALS

    def run(block: int):
        count = min(width, settings.trials - block * width)
        return reduce(_block_selected(cfg, orders, settings.master_seed, block, count))

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
    orders: "Iterable[int] | None" = None,
) -> dict[int, dict[Scheme, list[EmpiricalEstimate]]]:
    """Empirical CDFs of both schemes' post-processing SNR on an ascending
    grid, counting P(SNR <= g), for each cascade order of ``orders``
    (default: cfg.n alone), keyed by order.

    One pass over shared channel realizations serves every order and both
    schemes; a repeated order is simulated once.  Each order's estimates
    are those of that order simulated alone, byte for byte.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.isnan(grid).any() or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly ascending, with no NaN")
    orders = _distinct_orders(cfg, orders)
    thresholds = grid / cfg.mean_snr

    def crossings(selected: dict[int, dict[Scheme, np.ndarray]]) -> np.ndarray:
        return np.array([
            [np.searchsorted(np.sort(per[s]), thresholds, side="right") for s in Scheme]
            for per in selected.values()
        ])

    trials = settings.trials

    def proportion(events: int) -> EmpiricalEstimate:
        p = events / trials
        return _estimate(p, math.sqrt(p * (1.0 - p) / trials), events)

    counts = sum(_map_blocks(cfg, orders, settings, crossings))
    return {
        n: {s: [proportion(c) for c in row.tolist()] for s, row in zip(Scheme, per)}
        for n, per in zip(orders, counts)
    }


def estimate_af(
    cfg: ChannelConfig, settings: SimSettings, orders: "Iterable[int] | None" = None
) -> dict[int, dict[Scheme, EmpiricalEstimate]]:
    """Plug-in AF of both schemes' selected SNR for each cascade order of
    ``orders`` (default: cfg.n alone), keyed by order, from one pass over
    shared channel realizations; it is scale-free, so the mean SNR drops
    out.  A repeated order is simulated once, and each order's estimates
    are those of that order simulated alone, byte for byte.

    The AF standard error is first-order (delta-method) propagation from
    the covariance of the first two sample moments, which needs raw sample
    moments up to order four.
    """
    orders = _distinct_orders(cfg, orders)

    def power_sums(selected: dict[int, dict[Scheme, np.ndarray]]) -> np.ndarray:
        rows = []
        for per in selected.values():
            for s in Scheme:
                x = per[s]
                x2 = x * x
                rows.append([x.sum(), x2.sum(), (x2 * x).sum(), (x2 * x2).sum()])
        return np.array(rows).reshape(len(orders), len(Scheme), 4)

    totals = np.zeros((len(orders), len(Scheme), 4))
    for part in _map_blocks(cfg, orders, settings, power_sums):
        totals += part
    trials = settings.trials
    result: dict[int, dict[Scheme, EmpiricalEstimate]] = {}
    for n, per in zip(orders, totals.tolist()):
        result[n] = {}
        for s, sums in zip(Scheme, per):
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
            result[n][s] = _estimate(af, math.sqrt(var_af))
    return result
