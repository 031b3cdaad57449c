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
(``empirical_cdf_pair``) or power sums (``estimate_af``), and
``outage_curves`` sets the CDFs beside the closed forms.  The kernel
seeds PCG64 once per block and walks the block one channel coefficient
(t, r) at a time and, within it, one hop at a time: each hop row of
``count`` trials is read into one reused buffer and multiplied, in hop
order, into a running product; at hop n - 1 of each requested order n the
product's absolute value is folded into that order's running TAS/SC
maximum, its receive sum of transmit antenna t and, after the last
receive antenna, its TAS/MRC maximum.  So at most (2 + 3*|orders|)*count
doubles are live per block and worker, for any (n, n_t, n_r), and each
order's floats are formed by the same operations in the same order as
when that order is simulated alone: a sweep over orders gives each order
the bytes it has on its own, one pass instead of one per order (common
random numbers across orders).  Because every position is addressed, a
final partial block reads only the first ``count`` positions of each row.
Block partials are summed into a running total in trial order.  The
blocks run on min(workers, host cores) threads, with at most
``_BLOCKS_IN_FLIGHT`` blocks per thread submitted and not yet summed, so
memory grows with neither the trial count nor the worker count, and every
estimate is a pure function of (cfg, order, trials, master_seed) -
independent of the worker count and of the other orders in the pass - and
TAS/MRC and TAS/SC share channel realizations exactly.

Channel convention: each hop is a zero-mean circular complex Gaussian with
unit power, so every coefficient power is a product of n unit-mean
exponentials and the branch SNR is coefficient power times the mean branch
SNR.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fading import positive_int
from .schemes import ChannelConfig, OutageQuery, Scheme, outage, outage_asymptotic

# numpy loads numpy.random on first access.  Every simulation needs it, so
# load it with this module: start-up pays for it, not the first simulation.
np.random

__all__ = [
    "EmpiricalEstimate",
    "SimSettings",
    "empirical_cdf_pair",
    "estimate_af",
    "outage_curves",
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
# Blocks submitted to the pool and not yet summed, per thread.
_BLOCKS_IN_FLIGHT = 2


@dataclass(frozen=True)
class SimSettings:
    """Monte-Carlo contract: trial count, seed and parallelism.

    ``workers`` is an execution knob only: at most the host's core count
    of threads run, and results are bit-identical for any value of it.
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
    hop row at a time into one reused buffer; order n takes the absolute
    value of the running product of the hops' log1p(-u) <= 0, which gives
    the same bits as multiplying -log1p(-u), since IEEE rounding is
    symmetric in sign.  Each order allocates its TAS/SC and TAS/MRC maxima
    as zeros and its receive sum once, up front, so at most
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
    # Per order: (TAS/SC maximum, receive sum of this t, TAS/MRC maximum).
    folds = {n: (np.zeros(count), np.empty(count), np.zeros(count)) for n in orders}
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
                power = np.abs(product, out=hop)
                tas_sc, received, _ = fold
                np.maximum(tas_sc, power, out=tas_sc)
                if r == 0:
                    np.copyto(received, power)
                else:
                    received += power
        for _, received, tas_mrc in folds.values():
            np.maximum(tas_mrc, received, out=tas_mrc)
    return {n: {Scheme.TAS_MRC: tas_mrc, Scheme.TAS_SC: tas_sc}
            for n, (tas_sc, _, tas_mrc) in folds.items()}


def _distinct_orders(orders) -> tuple[int, ...]:
    """The ascending distinct cascade orders of ``orders``, each a positive
    int; there must be at least one."""
    distinct = tuple(sorted({positive_int("cascade order", n) for n in orders}))
    if not distinct:
        raise ValueError("orders must name at least one cascade order")
    return distinct


def _in_order(pool: Executor, run: Callable, items: Iterable, window: int) -> Iterator:
    """run(item) of each item of ``items``, in order, with at most ``window``
    submitted to ``pool`` and not yet yielded; on an error, as on an early
    close, the ones not yet started are cancelled, as ``Executor.map`` does."""
    pending: deque = deque()
    try:
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(run, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _map_blocks(cfg: ChannelConfig, orders: tuple[int, ...], settings: SimSettings, reduce):
    """The sum of reduce(selection statistics per order) over every block,
    in trial order, kept as a running total: memory does not grow with the
    trial count.  The blocks run on min(workers, host cores) threads; the
    sum does not depend on how many."""
    width = _BLOCK_TRIALS

    def run(block: int):
        count = min(width, settings.trials - block * width)
        return reduce(_block_selected(cfg, orders, settings.master_seed, block, count))

    blocks = range(-(-settings.trials // width))
    threads = min(settings.workers, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(_in_order(pool, run, blocks, _BLOCKS_IN_FLIGHT * threads))


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
    orders = _distinct_orders((cfg.n,) if orders is None else orders)
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

    counts = _map_blocks(cfg, orders, settings, crossings)
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
    orders = _distinct_orders((cfg.n,) if orders is None else orders)

    def power_sums(selected: dict[int, dict[Scheme, np.ndarray]]) -> np.ndarray:
        rows = []
        for per in selected.values():
            for s in Scheme:
                x = per[s]
                x2 = x * x
                rows.append([x.sum(), x2.sum(), (x2 * x).sum(), (x2 * x2).sum()])
        return np.array(rows).reshape(len(orders), len(Scheme), 4)

    totals = _map_blocks(cfg, orders, settings, power_sums)
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


def outage_curves(
    cfg: ChannelConfig, settings: SimSettings | None, grid_db: "Iterable[float]",
    query: OutageQuery, schemes: "Iterable[Scheme]" = tuple(Scheme),
    orders: "Iterable[int] | None" = None,
) -> dict[int, dict[Scheme, list[tuple]]]:
    """One (snr_db, analytic, asymptotic, estimate) per point of a mean-SNR
    grid in dB, in ascending threshold order, for each scheme of
    ``schemes`` and each cascade order of ``orders`` (default: cfg.n
    alone), keyed by order; a repeated order appears once.  The analytic
    column takes cfg's calibration weight; cfg's mean SNR is not used.

    Point dB has the threshold gamma_o / 10^(dB/10) at unit mean SNR, which
    must be a positive float and differ from every other point's.  The
    selection statistic is scale free, so one ``empirical_cdf_pair`` pass
    serves every point, order and scheme; ``settings`` None gives
    estimates of None.  A power law above 1 is no probability: None.
    """
    gamma_o = query.gamma_o
    points = []
    for db in grid_db:
        try:
            linear = 10.0 ** (db / 10.0)
        except OverflowError:
            linear = math.inf
        if not (0.0 < linear < math.inf):
            raise ValueError(
                f"SNR grid point {db!r} dB has no finite positive linear SNR (gamma_o {gamma_o!r})"
            )
        threshold = gamma_o / linear
        if not (0.0 < threshold < math.inf):
            raise ValueError(
                f"SNR grid point {db!r} dB gives threshold {gamma_o!r} / 10^(dB/10) = "
                f"{threshold!r}, not a positive float"
            )
        points.append((threshold, db))
    points.sort()
    for (low, db), (high, _) in zip(points, points[1:]):
        if low == high:
            raise ValueError(
                f"SNR grid point {db!r} dB repeats threshold {low!r} at gamma_o {gamma_o!r}; "
                "thresholds must be distinct"
            )
    orders = _distinct_orders((cfg.n,) if orders is None else orders)
    schemes = tuple(schemes)
    # The analytic columns come first, so a channel whose law is refused
    # is refused before any simulation.
    curves = {n: {scheme: [] for scheme in schemes} for n in orders}
    for n, by_scheme in curves.items():
        for scheme, curve in by_scheme.items():
            for threshold, db in points:
                at = ChannelConfig(n, cfg.n_t, cfg.n_r, gamma_o / threshold, cfg.calibration_omega)
                asym = outage_asymptotic(scheme, query, at)[0]
                curve.append((db, outage(scheme, query, at), asym if asym <= 1.0 else None, None))
    if settings is not None:
        cdfs = empirical_cdf_pair(cfg.with_mean_snr(1.0), settings, [t for t, _ in points], orders)
        for n, by_scheme in curves.items():
            for scheme, curve in by_scheme.items():
                curve[:] = [(*row[:3], est) for row, est in zip(curve, cdfs[n][scheme])]
    return curves
