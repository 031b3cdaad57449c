"""Moments of the post-processing SNR and amount-of-fading analytics.

The amount of fading AF = E[g^2]/E[g]^2 - 1 is the normalized variance of
the post-processing SNR; larger means more severe fading.  Closed-form
moments come from expanding the order-statistics CDF power binomially and
bounding each regularized upper-gamma power with

    Q(s, u)^k  ~  b^k * u^(k(s-1)) * exp(-k u) / Gamma(s)^k,   b > 1,

which yields, per scheme, the alternating sum implemented by ``moment``.
The b coefficients (b1 for TAS/MRC, b2 for TAS/SC) are empirical weights
fitted per cascade order (``CAPTION_COEFFS``).

``moment_oracle`` integrates the exact model CDF numerically and is the
ground truth the closed forms are judged against.  It uses double-exponential
quadrature (Takahasi & Mori, Publ. RIMS 9, 1974): tanh-sinh on the bulk and
exp-sinh on the tail.  Its nodes are Python floats built with ``math``, and
each node takes one scalar incomplete gamma (``schemes``), so its bytes do
not depend on numpy's CPU dispatch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .fading import fading_params, positive_int
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
    "moment",
    "moment_oracle",
]

# Weighting coefficients (b1 for TAS/MRC, b2 for TAS/SC) fitted per cascade
# order.  No extrapolation outside this table: callers must supply their own
# ``WeightingCoefficients`` for other n.
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
# Step of ``moment_oracle``'s double-exponential rule; the nodes at even
# multiples of it form the rule at twice the step.
_DE_STEP = 1.0 / 32.0
# Ranges of the DE variable for the tanh-sinh panel on [0, c] (symmetric) and
# the exp-sinh panel on [c, inf); widening them to 4.5 and (-5, 3) moves no
# moment of n = 1..8, l = 1, 2 by more than 1e-15 relative.
_DE_HEAD_TAU = 3.25
_DE_TAIL_TAU = (-3.75, 2.25)
# Largest relative gap between the sums at the two steps that
# ``moment_oracle`` accepts as converged.
_ORACLE_REL_TOL = 1e-6


class NonPhysicalMomentError(ArithmeticError):
    """The alternating moment sum produced a nonpositive value, or a term
    past the float range, or a first moment whose square underflows."""


@dataclass(frozen=True)
class WeightingCoefficients:
    """Moment weighting coefficients, finite and > 1 by construction of the bound."""

    b1: float
    b2: float

    def __post_init__(self) -> None:
        if not (1.0 < self.b1 < math.inf) or not (1.0 < self.b2 < math.inf):
            raise ValueError(
                f"weighting coefficients must be finite and exceed 1, got {self.b1}, {self.b2}"
            )


def default_weights(n: int) -> WeightingCoefficients:
    """Fitted (b1, b2) for cascade order n in {2..6}."""
    try:
        b1, b2 = CAPTION_COEFFS[positive_int("cascade order", n)]
    except KeyError:
        raise ValueError(
            f"no fitted weighting coefficients for cascade order n={n}; "
            f"available n: {sorted(CAPTION_COEFFS)} - pass WeightingCoefficients(b1, b2)"
        ) from None
    return WeightingCoefficients(b1=b1, b2=b2)


def _moment_sum(l: int, shape: float, exponent: int, beta: float, n: int, b: float) -> float:
    """Alternating moment sum over the order-statistics expansion.

    Each term uses the exact bracket identity
    a_k G(a_k + nl) - G(a_k + nl + 1) = -nl G(a_k + nl), a_k = k(shape - 1),
    so no subtractive cancellation occurs inside a term, and the k-th term
    carries b^k / Gamma(shape)^k from the bound on Q(shape, u)^k.
    """
    if exponent > _MOMENT_SUM_MAX_EXPONENT:
        raise ValueError(
            f"the moment sum is validated for an order-statistics exponent "
            f"(n_t for TAS/MRC, n_t*n_r for TAS/SC) <= {_MOMENT_SUM_MAX_EXPONENT}, "
            f"got {exponent}"
        )
    nl = n * l
    total = 0.0
    for k in range(1, exponent + 1):
        a_k = k * (shape - 1.0)
        try:
            ln_mag = (
                math.log(math.comb(exponent, k))
                + math.log(float(nl))
                + math.lgamma(a_k + nl)
                - (a_k + nl) * math.log(k)
                - nl * math.log(beta)
                + k * (math.log(b) - math.lgamma(shape))
            )
            total += (-1.0) ** (k + 1) * math.exp(ln_mag)
        except OverflowError:
            raise NonPhysicalMomentError(f"moment sum term k={k} overflows, b={b}") from None
    if not (total > 0.0):
        raise NonPhysicalMomentError(
            f"moment sum is nonpositive ({total}) for shape={shape}, "
            f"exponent={exponent}, n={n}, l={l}, b={b}"
        )
    return total


def moment(l: int, scheme: Scheme, cfg: ChannelConfig, w: WeightingCoefficients) -> float:
    """Approximate l-th moment of the scheme's post-processing SNR, weighted
    by b1 for TAS/MRC and b2 for TAS/SC; the moment model is uncalibrated."""
    l = positive_int("moment order", l)
    b = w.b1 if scheme is Scheme.TAS_MRC else w.b2
    shape, exponent, beta = _shape_exponent_scale(scheme, cfg)
    return _moment_sum(l, shape, exponent, beta, cfg.n, b)


def amount_of_fading(
    scheme: Scheme, cfg: ChannelConfig, w: WeightingCoefficients
) -> float:
    """AF = E[g^2]/E[g]^2 - 1 from the closed-form moments.

    Independent of the mean SNR: the scale cancels exactly between the
    numerator and the squared mean.
    """
    m1, m2 = moment(1, scheme, cfg, w), moment(2, scheme, cfg, w)
    if not m1 * m1:
        raise NonPhysicalMomentError(f"the squared first moment {m1} underflows to 0")
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
    a = fading_params(n).m * positive_int("n_r", n_r)
    return math.exp(
        math.lgamma(a) + math.lgamma(a + 2.0 * n) - 2.0 * math.lgamma(a + n)
    ) - 1.0


def af_siso(n: int) -> float:
    """AF of the single-antenna link; strictly increasing in the cascade order."""
    return af_simo(n, 1)


@functools.cache
def _de_rule(step: float) -> tuple[tuple[tuple[bool, float, float], ...], int]:
    """Nodes and weights of the double-exponential rule at ``step``.

    Returns (rows, n_coarse), rows being (on_head, node, weight) float
    triples.  A head row is a tanh-sinh node x in (0, 1) of t = c x,
    weighted by dx/dtau; a tail row is an exp-sinh offset e of t = c + e,
    weighted by de/dtau.  Rows at even multiples of ``step`` come first, so
    the first ``n_coarse`` rows alone are the rule at twice the step.
    """
    def steps(tau: float) -> int:
        return 2 * round(tau / (2.0 * step))

    rows = []
    for j in range(-steps(_DE_HEAD_TAU), steps(_DE_HEAD_TAU) + 1):
        tau = j * step
        d = math.exp(-math.pi * math.sinh(abs(tau)))
        x = d / (1.0 + d) if j < 0 else 1.0 / (1.0 + d)
        rows.append((j % 2, True, x, math.pi * math.cosh(tau) * d / (1.0 + d) ** 2))
    for j in range(steps(_DE_TAIL_TAU[0]), steps(_DE_TAIL_TAU[1]) + 1):
        tau = j * step
        e = math.exp(0.5 * math.pi * math.sinh(tau))
        rows.append((j % 2, False, e, 0.5 * math.pi * math.cosh(tau) * e))
    rows.sort(key=lambda row: row[0])
    return tuple(row[1:] for row in rows), sum(odd == 0 for odd, *_ in rows)


def moment_oracle(l: int, scheme: Scheme, cfg: ChannelConfig) -> float:
    """l-th moment of the exact model CDF by double-exponential quadrature.

    Uses E[g^l] = l * int_0^inf g^(l-1) (1 - F(g)) dg with g = (t / beta)^n,
    which removes the origin singularity:

        E[g^l] = l n beta^(-nl) * int_0^inf t^(nl-1) (1 - P(s, t)^k) dt.

    The integral is split at c = s + nl, past the bulk: tanh-sinh on [0, c],
    exp-sinh on [c, inf).  It is summed with ``math.fsum`` at step h and at
    2h on the nested nodes, and the relative gap between the two is the
    error estimate.  This is the ground truth for the moments of the
    approximate-CDF model, against which the closed forms are judged; like
    them it is uncalibrated, so ``cfg.calibration_omega`` moves no value.

    Raises:
        ConvergenceError: if the value is not finite and positive, or the
            gap between the two steps exceeds 1e-6 relative.
    """
    l = positive_int("moment order", l)
    shape, exponent, beta = _shape_exponent_scale(scheme, cfg)
    nl = cfg.n * l
    c = shape + nl
    rows, n_coarse = _de_rule(_DE_STEP)
    power = nl - 1
    terms = []
    try:
        for on_head, node, weight in rows:
            t, w = (c * node, c * weight) if on_head else (c + node, weight)
            tail = -math.expm1(exponent * _ln_reg_lower_gamma(shape, t))
            # Far tail nodes, where 1 - P^k is 0, would only overflow the power.
            terms.append(w * t ** power * tail if tail else 0.0)
        # I_2h = 2h * even and I_h = h * (even + odd).
        even, odd = math.fsum(terms[:n_coarse]), math.fsum(terms[n_coarse:])
        value = l * cfg.n * _DE_STEP * (even + odd) * beta ** -nl
    except OverflowError:
        even = odd = value = math.inf
    if not (0.0 < value < math.inf):
        raise ConvergenceError(
            f"moment quadrature gave {value} for scheme={scheme}, n={cfg.n}, l={l}"
        )
    if abs(odd - even) > _ORACLE_REL_TOL * (even + odd):
        raise ConvergenceError(
            f"moment quadrature error too large for scheme={scheme}, n={cfg.n}, l={l}"
        )
    return value
