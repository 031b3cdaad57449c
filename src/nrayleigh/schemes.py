"""TAS/MRC and TAS/SC analytics over cascaded Rayleigh fading.

TAS/MRC picks the transmit antenna whose receive-side maximal-ratio combined
SNR is largest; TAS/SC picks the single best transmit/receive antenna pair.
Both post-processing SNR distributions are powers of one regularized
incomplete gamma over the stretched-gamma fit (m, Omega) of ``fading``:

    F(g) = P(s, w * (2s/Omega) * (G * mean_snr)^(-1/n) * g^(1/n)) ^ k

    TAS/MRC: shape s = m * n_r, exponent k = n_t,         receive gain G = n_r
    TAS/SC:  shape s = m,       exponent k = n_t * n_r,   receive gain G = 1

where w is a calibration weight on the scale (default 1.176 for TAS/MRC,
1.0 for TAS/SC).  ``outage`` is F at the outage threshold; this module also
provides the small-threshold power law C * z^d, z = gamma_o / (G * mean_snr)
(``outage_asymptotic`` returns its value and z), the diversity order d, the
coding gain and the required-SNR solver.  Everything that depends only on
(scheme, n, n_t, n_r) is computed once per channel and memoised (``_law``);
each call applies its mean SNR, and only ``outage`` and ``required_snr``
apply w: the power law, the coding gain and ``moments`` are uncalibrated.

P is scipy's ``gammainc`` (DiDonato & Morris, ACM TOMS 12(4), 1986), taken
in log space so deep outage values keep full relative accuracy; the
required SNR inverts it exactly with ``gammaincinv``.  Every P, Q and
inverse is one scalar call into ``scipy.special.cython_special``, which
runs the ufuncs' kernels without numpy around them, so no analytic value
depends on numpy's CPU dispatch; it is loaded without scipy.special's
package init (``_load_cython_special``).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
import types
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .fading import fading_params, positive_int

__all__ = [
    "ChannelConfig",
    "CodingGain",
    "ConvergenceError",
    "DEFAULT_CALIBRATION",
    "OutageQuery",
    "Scheme",
    "coding_gain",
    "diversity_order",
    "outage",
    "outage_asymptotic",
    "required_snr",
]


class Scheme(Enum):
    """Antenna-selection scheme: MRC combining or best-pair selection."""

    TAS_MRC = "tas-mrc"
    TAS_SC = "tas-sc"

    # Members are singletons, so identity is equality; ``Enum.__hash__``
    # hashes the name in Python, and a scalar analytic call hashes its
    # scheme for the law cache and the calibration table.
    __hash__ = object.__hash__


DEFAULT_CALIBRATION = {Scheme.TAS_MRC: 1.176, Scheme.TAS_SC: 1.0}

_SPECIAL = "scipy.special"


def _load_cython_special() -> types.ModuleType:
    """``scipy.special.cython_special``, without running
    ``scipy/special/__init__.py``, whose array-API shim imports numpy.f2py
    and numpy.testing, which the scalar kernels never use.

    If scipy.special is not imported yet, a bare module with the package's
    ``__path__`` stands in for it while cython_special and the extension
    modules it needs are imported.  Then the stand-in and every
    ``scipy.special.*`` module loaded under it are dropped, so a later
    ``import scipy.special`` runs the real package, which imports the same
    cython_special.  As in a real import of the package, the stand-in is
    marked initializing and the window holds scipy.special's module lock:
    another thread importing scipy.special waits for it, then gets the real
    package, and one handed the stand-in itself has its attribute lookups
    forwarded to the real package.  If scipy's layout or the import
    machinery refuses any of this, the plain import runs.
    """
    try:
        spec = importlib.util.find_spec(_SPECIAL)
        with importlib._bootstrap._ModuleLockManager(_SPECIAL):
            if _SPECIAL not in sys.modules:
                return _import_under_stand_in(spec)
    except (ImportError, AttributeError):
        pass
    from scipy.special import cython_special

    return cython_special


def _import_under_stand_in(spec) -> types.ModuleType:
    stand_in = types.ModuleType(_SPECIAL)
    stand_in.__spec__ = spec
    stand_in.__path__ = spec.submodule_search_locations
    spec._initializing = True
    before = set(sys.modules)
    sys.modules[_SPECIAL] = stand_in
    try:
        import scipy.special.cython_special

        return stand_in.cython_special
    finally:
        for name in set(sys.modules) - before:
            if name == _SPECIAL or name.startswith(_SPECIAL + "."):
                del sys.modules[name]
        # ``vars``, not ``getattr``: scipy's lazy ``__getattr__`` would
        # import the real package.
        vars(sys.modules["scipy"]).pop("special", None)
        stand_in.__getattr__ = lambda name: getattr(importlib.import_module(_SPECIAL), name)


cython_special = _load_cython_special()

_FLOAT_MAX = sys.float_info.max


class ConvergenceError(RuntimeError):
    """A numerical evaluation gave no usable (finite, positive) result."""


@dataclass(frozen=True)
class ChannelConfig:
    """A complete link scenario: cascade order, antennas, mean branch SNR.

    ``calibration_omega`` is the weight applied to the distribution scale;
    ``None`` selects the per-scheme default (1.176 for TAS/MRC, 1.0 for
    TAS/SC).  Set it to 1.0 explicitly to disable calibration.
    """

    n: int
    n_t: int
    n_r: int
    mean_snr: float
    calibration_omega: float | None = None

    def __post_init__(self) -> None:
        # Counts are stored as ints, and every law takes N = n_t * n_r as a
        # float.  Valid int arguments, the common case of a config built per
        # analytic point, skip the rules and the setattr.
        n, n_t, n_r = self.n, self.n_t, self.n_r
        if not (type(n) is type(n_t) is type(n_r) is int and n >= 1 and n_t >= 1 and n_r >= 1
                and n_t * n_r <= _FLOAT_MAX):
            for name, label in (("n", "cascade order"), ("n_t", "n_t"), ("n_r", "n_r")):
                object.__setattr__(self, name, positive_int(label, getattr(self, name)))
            try:
                float(self.n_t * self.n_r)
            except OverflowError:
                raise ValueError(
                    f"n_t * n_r must convert to a float, got {self.n_t} * {self.n_r}"
                ) from None
        if not (self.mean_snr > 0.0) or not math.isfinite(self.mean_snr):
            raise ValueError(f"mean_snr must be positive and finite, got {self.mean_snr}")
        omega = self.calibration_omega
        if omega is not None and not (0.0 < omega < math.inf):
            raise ValueError(f"calibration_omega must be positive and finite, got {omega}")

    @property
    def total_antennas(self) -> int:
        """N = n_t * n_r."""
        return self.n_t * self.n_r

    def omega_for(self, scheme: Scheme) -> float:
        """Calibration weight in effect for the given scheme."""
        if self.calibration_omega is not None:
            return float(self.calibration_omega)
        return DEFAULT_CALIBRATION[scheme]

    def with_mean_snr(self, mean_snr: float) -> "ChannelConfig":
        return ChannelConfig(self.n, self.n_t, self.n_r, mean_snr, self.calibration_omega)


@dataclass(frozen=True)
class OutageQuery:
    """Outage threshold, given directly or via a target rate R (bits/s/Hz).

    Exactly one of ``threshold`` / ``rate`` must be provided; a rate R maps
    to the linear SNR threshold 2^R - 1, which must be finite and positive
    (below R ~ 1.6e-16 it rounds to 0).  The threshold is computed once, on
    construction; it is not a field, so equality, hashing and ``repr`` see
    only ``threshold`` and ``rate``.
    """

    threshold: float | None = None
    rate: float | None = None

    def __post_init__(self) -> None:
        if (self.threshold is None) == (self.rate is None):
            raise ValueError("provide exactly one of threshold or rate")
        if self.threshold is not None:
            gamma_o = float(self.threshold)
        else:
            try:
                gamma_o = 2.0 ** float(self.rate) - 1.0
            except OverflowError:
                gamma_o = math.inf
        if not (0.0 < gamma_o < math.inf):
            raise ValueError(
                f"the outage threshold must be finite and positive, got "
                f"threshold={self.threshold}, rate={self.rate}"
            )
        object.__setattr__(self, "_gamma_o", gamma_o)

    @property
    def gamma_o(self) -> float:
        """The linear SNR threshold."""
        return self._gamma_o


@dataclass(frozen=True)
class CodingGain:
    """Coding gain, both as printed and as extracted from the power law.

    For TAS/SC the two coincide.  For TAS/MRC the printed formula is
    typographically ambiguous in where the n_r^(1/n) factor sits; the
    ``printed`` value takes it in the denominator (gain falling with n_r)
    while ``extracted`` (gain proportional to n_r) is self-consistent with
    the asymptotic coefficient by construction.
    """

    printed: float
    extracted: float


# Channels whose law stays memoised: a link study touches a few hundred
# (scheme, n, n_t, n_r), and each entry is one small tuple.
_LAW_CACHE_SIZE = 4096


class _Law(NamedTuple):
    """The part of a channel's law that depends only on (scheme, n, n_t, n_r)."""

    shape: float  # gamma shape s
    exponent: int  # order-statistics exponent k
    gain: int  # receive gain G
    pre: float  # 2s / Omega, the uncalibrated scale at unit G * mean_snr
    ln_coeff: float  # ln of the power-law coefficient [(2s/Omega)^s / (s Gamma(s))]^k
    diversity: float  # d = m N / n


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def _law(scheme: Scheme, n: int, n_t: int, n_r: int) -> _Law:
    """The one place that maps a scheme to its law, computed once per channel.

    TAS/MRC sums the n_r receive branches of the chosen transmit antenna, so
    its shape and its SNR scale carry n_r; TAS/SC takes the largest of all
    N single-branch SNRs.  The mean SNR and the calibration weight are
    applied per call by the callers, never stored here.  A channel whose
    shape, 2s/Omega, log coefficient or diversity is not a finite float is
    refused with a ``ValueError`` that names its counts.
    """
    fp = fading_params(n)
    if scheme is Scheme.TAS_MRC:
        shape, exponent, gain = fp.m * n_r, n_t, n_r
    else:
        shape, exponent, gain = fp.m, n_t * n_r, 1
    try:
        pre = 2.0 * shape / fp.omega
        ln_coeff = exponent * (shape * math.log(pre) - math.log(shape) - math.lgamma(shape))
        law = _Law(shape, exponent, gain, pre, ln_coeff, fp.m * (n_t * n_r) / n)
        finite = all(math.isfinite(v) for v in (shape, pre, ln_coeff, law.diversity))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"the {scheme.value} law of n={n}, n_t={n_t}, n_r={n_r} is outside the float range"
        )
    return law


def _shape_exponent_scale(
    scheme: Scheme, cfg: ChannelConfig, mean_snr: float | None = None
) -> tuple[float, int, float]:
    """(gamma shape, order-statistics exponent, uncalibrated scale) for cfg,
    at ``mean_snr`` in place of ``cfg.mean_snr`` when it is given."""
    law = _law(scheme, cfg.n, cfg.n_t, cfg.n_r)
    snr = cfg.mean_snr if mean_snr is None else mean_snr
    return law.shape, law.exponent, law.pre * (law.gain * snr) ** (-1.0 / cfg.n)


def _ln_reg_lower_gamma(a: float, x: float) -> float:
    """ln P(a, x), accurate in both tails; ``-inf`` where P underflows.

    For x < a + 1, P is the small side and ``log(P)`` keeps its relative
    accuracy down to 1e-308; otherwise Q = 1 - P is the small side and
    ``log1p(-Q)`` keeps it for P near 1.
    """
    if not (0.0 < a < math.inf) or not (x >= 0.0):
        raise ValueError(
            f"incomplete gamma requires finite a > 0 and x >= 0, got a={a}, x={x}"
        )
    if x < a + 1.0:
        p = cython_special.gammainc(a, x)
        return math.log(p) if p > 0.0 else -math.inf
    return math.log1p(-cython_special.gammaincc(a, x))


def outage(scheme: Scheme, query: OutageQuery, cfg: ChannelConfig) -> float:
    """Outage probability: the CDF of the post-processing SNR after
    selection and combining, at the threshold.

    Computed as exp(k * ln P) so that deep-outage values keep full relative
    accuracy; where P underflows, ln P is -inf and the outage is 0.0.
    """
    shape, exponent, scale = _shape_exponent_scale(scheme, cfg)
    beta = cfg.omega_for(scheme) * scale
    ln_p = _ln_reg_lower_gamma(shape, beta * query.gamma_o ** (1.0 / cfg.n))
    return math.exp(exponent * ln_p)


def diversity_order(scheme: Scheme, cfg: ChannelConfig) -> float:
    """High-SNR slope magnitude d = m N / n; identical for both schemes."""
    return _law(scheme, cfg.n, cfg.n_t, cfg.n_r).diversity


def outage_asymptotic(
    scheme: Scheme, query: OutageQuery, cfg: ChannelConfig
) -> tuple[float, float]:
    """Leading-order outage power law C * z^d for small normalized threshold.

    The normalized threshold is z = gamma_o / (G * mean_snr): G = n_r for
    TAS/MRC, and G = 1 for TAS/SC, whose small-argument expansion carries
    no n_r factor in its scale.  Calibration is never applied here: the
    power law describes the uncalibrated closed form.

    Returns ``(value, z)``.  The value is meaningful only for z << 1; it is
    returned unconditionally (inf where it exceeds the float range, 0.0
    where it underflows) and the caller judges the regime by z.  The
    diversity d is ``diversity_order``, and the coefficient is
    C = (G / CG)^d with CG = ``coding_gain(...).extracted``.
    """
    law = _law(scheme, cfg.n, cfg.n_t, cfg.n_r)
    z = query.gamma_o / (law.gain * cfg.mean_snr)
    try:
        value = math.exp(law.ln_coeff + law.diversity * math.log(z)) if z > 0.0 else 0.0
    except OverflowError:
        value = math.inf
    return value, z


def coding_gain(scheme: Scheme, cfg: ChannelConfig) -> CodingGain:
    """Coding gain: the SNR scale at which the asymptote crosses unity.

    Extracted form: writing the power law as (gamma_o / (CG * mean_snr))^d
    gives CG = G * C^(-1/d), with C the asymptotic coefficient and G the
    receive gain (n_r for TAS/MRC, 1 for TAS/SC).
    """
    law = _law(scheme, cfg.n, cfg.n_t, cfg.n_r)
    shape, n = law.shape, cfg.n
    # Printed reading: G^(1/n) multiplies the denominator scale 2s/Omega.
    printed = (
        math.exp((math.lgamma(shape) + math.log(shape)) / shape)
        / (law.pre * law.gain ** (1.0 / n))
    ) ** n
    extracted = law.gain * math.exp(-law.ln_coeff / law.diversity)
    return CodingGain(printed=printed, extracted=extracted)


def required_snr(
    scheme: Scheme, target_outage: float, query: OutageQuery, cfg: ChannelConfig
) -> float:
    """Mean branch SNR at which the outage equals ``target_outage``.

    The scale is beta_1 * mean_snr^(-1/n), with beta_1 its value at unit
    mean SNR, so P(s, beta_1 (gamma_o / g)^(1/n))^k = target solves exactly:
    g = gamma_o * (beta_1 / x)^n with x = gammaincinv(s, target^(1/k)).
    ``cfg.mean_snr`` is ignored (it is the unknown being solved for).

    Raises:
        ConvergenceError: if the solution is not a finite positive float.
    """
    if not (0.0 < target_outage < 1.0):
        raise ValueError(f"target outage must be in (0, 1), got {target_outage}")
    shape, exponent, scale = _shape_exponent_scale(scheme, cfg, mean_snr=1.0)
    beta = cfg.omega_for(scheme) * scale
    x = cython_special.gammaincinv(shape, target_outage ** (1.0 / exponent))
    try:
        snr = query.gamma_o * (beta / x) ** cfg.n
    except OverflowError:
        snr = math.inf
    if not (0.0 < snr < math.inf):
        raise ConvergenceError(
            f"required SNR for outage {target_outage} is not a finite positive float"
        )
    return snr
