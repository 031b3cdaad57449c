"""Moments of the post-processing SNR and amount-of-fading analytics.

The amount of fading AF = E[g^2]/E[g]^2 - 1 is the normalized variance of
the post-processing SNR; larger means more severe fading.  Closed-form
moments come from expanding the order-statistics CDF power binomially and
bounding each regularized upper-gamma power with

    Q(s, u)^k  ~  b^k * u^(k(s-1)) * exp(-k u) / Gamma(s)^k,   b > 1,

which yields, per scheme, the alternating sum implemented by
``moment_tas_mrc`` / ``moment_tas_sc``.  The b coefficients are empirical
weights fitted per cascade order (``CAPTION_COEFFS``).

The corresponding expressions as printed in the source material carry a
single b and a single 1/Gamma(s) across all k; that variant is kept as
``moment_tas_mrc_as_printed`` / ``moment_tas_sc_as_printed`` for reference.
It is numerically non-physical for TAS/MRC beyond n = 3 (the k = 2 term of
the alternating sum outgrows the k = 1 term and the "moment" goes
negative), which is why the bound-derived form above is the primary one.

``moment_oracle`` integrates the exact model CDF numerically and is the
ground truth the closed forms are judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from scipy import integrate

from .fading import fading_params
from .schemes import (
    ChannelConfig,
    ConvergenceError,
    Scheme,
    _ln_reg_lower_gamma,
    _shape_exponent_scale,
)

__all__ = [
    "CAPTION_COEFFS",
    "NonPhysicalMomentError",
    "WeightingCoefficients",
    "af_bound_tas_mrc",
    "af_simo",
    "af_siso",
    "amount_of_fading",
    "default_weights",
    "moment_oracle",
    "moment_tas_mrc",
    "moment_tas_mrc_as_printed",
    "moment_tas_sc",
    "moment_tas_sc_as_printed",
]

# Weighting coefficients (b1 for TAS/MRC, b2 for TAS/SC) fitted per cascade
# order.  No extrapolation outside this table: callers must supply explicit
# coefficients for other n.
CAPTION_COEFFS: dict[int, tuple[float, float]] = {
    2: (2.3, 1.5),
    3: (2.1, 1.5),
    4: (2.0, 1.5),
    5: (1.57, 1.5),
    6: (1.44, 1.68),
}

_AF_BOUND_MAX_CASCADE = 8
_AF_BOUND_MAX_ANTENNAS = 16
# Largest order-statistics exponent the alternating moment sum is validated for.
_MOMENT_SUM_MAX_EXPONENT = 64
# Relative tolerance each quadrature of ``moment_oracle`` asks of QUADPACK.
_ORACLE_REL_TOL = 1e-10


class NonPhysicalMomentError(ArithmeticError):
    """The alternating moment sum produced a nonpositive value."""


@dataclass(frozen=True)
class WeightingCoefficients:
    """Moment weighting coefficients, both > 1 by construction of the bound."""

    b1: float
    b2: float

    def __post_init__(self) -> None:
        if not (self.b1 > 1.0) or not (self.b2 > 1.0):
            raise ValueError(
                f"weighting coefficients must exceed 1, got b1={self.b1}, b2={self.b2}"
            )


def default_weights(n: int) -> WeightingCoefficients:
    """Fitted (b1, b2) for cascade order n in {2..6}."""
    try:
        b1, b2 = CAPTION_COEFFS[int(n)]
    except KeyError:
        raise ValueError(
            f"no fitted weighting coefficients for cascade order n={n}; "
            f"available n: {sorted(CAPTION_COEFFS)} - supply b1/b2 explicitly"
        ) from None
    return WeightingCoefficients(b1=b1, b2=b2)


def _moment_sum(
    l: int,
    shape: float,
    exponent: int,
    beta: float,
    n: int,
    b: float,
    per_term_weights: bool,
) -> float:
    """Alternating moment sum over the order-statistics expansion.

    Each term uses the exact bracket identity
    a_k G(a_k + nl) - G(a_k + nl + 1) = -nl G(a_k + nl), a_k = k(shape - 1),
    so no subtractive cancellation occurs inside a term.  With
    ``per_term_weights`` the k-th term carries b^k / Gamma(shape)^k (the
    bound-derived form); without it, b / Gamma(shape) (the printed form).
    """
    if l != int(l) or int(l) < 1:
        raise ValueError(f"moment order must be an integer >= 1, got {l}")
    l = int(l)
    if exponent > _MOMENT_SUM_MAX_EXPONENT:
        raise ValueError(f"binomial is validated for n <= 64, got n={exponent}")
    nl = n * l
    total = 0.0
    for k in range(1, exponent + 1):
        a_k = k * (shape - 1.0)
        ln_mag = (
            math.log(math.comb(exponent, k))
            + math.log(float(nl))
            + math.lgamma(a_k + nl)
            - (a_k + nl) * math.log(k)
            - nl * math.log(beta)
        )
        if per_term_weights:
            ln_mag += k * (math.log(b) - math.lgamma(shape))
        else:
            ln_mag += math.log(b) - math.lgamma(shape)
        total += (-1.0) ** (k + 1) * math.exp(ln_mag)
    if not (total > 0.0):
        raise NonPhysicalMomentError(
            f"moment sum is nonpositive ({total}) for shape={shape}, "
            f"exponent={exponent}, n={n}, l={l}, b={b}"
        )
    return total


def _scheme_moment(
    l: int, scheme: Scheme, cfg: ChannelConfig, b: float, per_term_weights: bool
) -> float:
    # The moment model carries no calibration weight.
    shape, exponent, beta = _shape_exponent_scale(scheme, replace(cfg, calibration_omega=1.0))
    return _moment_sum(l, shape, exponent, beta, cfg.n, b, per_term_weights)


def moment_tas_mrc(l: int, cfg: ChannelConfig, w: WeightingCoefficients) -> float:
    """Approximate l-th moment of the TAS/MRC post-processing SNR."""
    return _scheme_moment(l, Scheme.TAS_MRC, cfg, w.b1, per_term_weights=True)


def moment_tas_sc(l: int, cfg: ChannelConfig, w: WeightingCoefficients) -> float:
    """Approximate l-th moment of the TAS/SC post-processing SNR."""
    return _scheme_moment(l, Scheme.TAS_SC, cfg, w.b2, per_term_weights=True)


def moment_tas_mrc_as_printed(
    l: int, cfg: ChannelConfig, w: WeightingCoefficients
) -> float:
    """TAS/MRC moment with a single b1/Gamma(a) across all expansion terms.

    Reference variant only: goes non-physical (raises) for n >= 4 at two
    transmit antennas because the k = 2 term dominates.
    """
    return _scheme_moment(l, Scheme.TAS_MRC, cfg, w.b1, per_term_weights=False)


def moment_tas_sc_as_printed(
    l: int, cfg: ChannelConfig, w: WeightingCoefficients
) -> float:
    """TAS/SC moment with a single b2/Gamma(m) across all expansion terms."""
    return _scheme_moment(l, Scheme.TAS_SC, cfg, w.b2, per_term_weights=False)


def amount_of_fading(
    scheme: Scheme, cfg: ChannelConfig, w: WeightingCoefficients
) -> float:
    """AF = E[g^2]/E[g]^2 - 1 from the closed-form moments.

    Independent of the mean SNR: the scale cancels exactly between the
    numerator and the squared mean.
    """
    if scheme is Scheme.TAS_MRC:
        m1, m2 = moment_tas_mrc(1, cfg, w), moment_tas_mrc(2, cfg, w)
    else:
        m1, m2 = moment_tas_sc(1, cfg, w), moment_tas_sc(2, cfg, w)
    return m2 / (m1 * m1) - 1.0


def af_bound_tas_mrc(cfg: ChannelConfig) -> float:
    """Closed AF bound for TAS/MRC from a global incomplete-gamma bound.

    Evaluated fully in log space; the gamma factors exceed 1e15 already for
    moderate configurations.  Independent of the mean SNR by construction.
    """
    if cfg.n > _AF_BOUND_MAX_CASCADE or cfg.total_antennas > _AF_BOUND_MAX_ANTENNAS:
        raise ValueError(
            f"AF bound validated for n <= {_AF_BOUND_MAX_CASCADE} and "
            f"N <= {_AF_BOUND_MAX_ANTENNAS}, got n={cfg.n}, N={cfg.total_antennas}"
        )
    fp = fading_params(cfg.n)
    a = fp.m * cfg.n_r
    m_n = fp.m * cfg.total_antennas
    ln_value = (
        m_n * math.log1p(m_n)
        + cfg.n_t * (math.log(a) + math.lgamma(a))
        + math.lgamma(m_n + 2.0 * cfg.n)
        - m_n * math.log(a + 1.0)
        - math.log(m_n)
        - 2.0 * math.lgamma(m_n + cfg.n)
    )
    return math.exp(ln_value) - 1.0


def af_simo(n: int, n_r: int) -> float:
    """AF of a single-transmit, n_r-receive MRC link: gamma-ratio form."""
    if n_r != int(n_r) or int(n_r) < 1:
        raise ValueError(f"n_r must be an integer >= 1, got {n_r}")
    a = fading_params(n).m * int(n_r)
    return math.exp(
        math.lgamma(a) + math.lgamma(a + 2.0 * n) - 2.0 * math.lgamma(a + n)
    ) - 1.0


def af_siso(n: int) -> float:
    """AF of the single-antenna link; strictly increasing in the cascade order."""
    return af_simo(n, 1)


def moment_oracle(l: int, scheme: Scheme, cfg: ChannelConfig) -> float:
    """l-th moment of the exact model CDF by adaptive quadrature.

    Uses E[g^l] = l * int_0^inf g^(l-1) (1 - F(g)) dg with the substitution
    u = g^(1/n), which removes the origin singularity:

        E[g^l] = l n * int_0^inf u^(nl-1) (1 - F(u^n)) du.

    This is the ground truth for the moments of the approximate-CDF model
    (uncalibrated), against which the closed forms are judged.
    """
    if l != int(l) or int(l) < 1:
        raise ValueError(f"moment order must be an integer >= 1, got {l}")
    l = int(l)
    shape, exponent, beta = _shape_exponent_scale(scheme, replace(cfg, calibration_omega=1.0))
    nl = cfg.n * l

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        ln_p = _ln_reg_lower_gamma(shape, beta * u)
        return u ** (nl - 1) * (-math.expm1(exponent * ln_p))

    # Split at the bulk scale of the integrand so QUADPACK sees the knee.
    u_mid = (shape + nl) / beta
    head, head_err = integrate.quad(
        integrand, 0.0, u_mid, epsabs=0.0, epsrel=_ORACLE_REL_TOL, limit=500
    )
    tail, tail_err = integrate.quad(
        integrand, u_mid, math.inf, epsabs=0.0, epsrel=_ORACLE_REL_TOL, limit=500
    )
    value = l * cfg.n * (head + tail)
    if not math.isfinite(value) or value <= 0.0:
        raise ConvergenceError(
            f"moment quadrature failed for scheme={scheme}, n={cfg.n}, l={l}"
        )
    if head + tail > 0 and (head_err + tail_err) / (head + tail) > 1e-6:
        raise ConvergenceError(
            f"moment quadrature error too large for scheme={scheme}, n={cfg.n}, l={l}"
        )
    return value
