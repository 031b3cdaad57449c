"""Cascaded (n*) Rayleigh distribution layer.

A cascaded Rayleigh channel of order n has an envelope that is the product
of n independent Rayleigh variables.  Its power (and per-branch SNR) is well
approximated by a stretched-gamma family

    f(x) = beta^m / (n Gamma(m)) * x^(m/n - 1) * exp(-beta x^(1/n))

whose shape m and scale parameter Omega follow empirical fits in the cascade
order n.  This module provides the severity fit, the resulting density and
distribution functions, and the SNR-domain parameters consumed by the
TAS/MRC and TAS/SC analytics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

__all__ = [
    "BranchSnrParams",
    "FadingParams",
    "MAX_VALIDATED_CASCADE",
    "SingularDensityError",
    "amplitude_pdf",
    "branch_snr_params",
    "fading_params",
    "mrc_snr_cdf",
    "mrc_snr_pdf",
    "validate_cascade_order",
]

# Severity-fit constants for products of unit-power Rayleigh variables.
_M_SLOPE = 0.6102
_M_OFFSET = 0.4263
_OMEGA_COEFF = 0.8808
_OMEGA_EXPONENT = -0.9661
_OMEGA_OFFSET = 1.12

MAX_VALIDATED_CASCADE = 8


class SingularDensityError(ValueError):
    """The density diverges at the requested point (origin with shape < 1)."""


def validate_cascade_order(n: int) -> int:
    """Check that n is a positive integer cascade order and return it."""
    if n != int(n) or int(n) < 1:
        raise ValueError(f"cascade order must be an integer >= 1, got {n}")
    return int(n)


@dataclass(frozen=True)
class FadingParams:
    """Severity parameters of an order-n cascaded Rayleigh channel."""

    n: int
    m: float
    omega: float
    alpha: float  # m / n, the power-domain shape exponent


@dataclass(frozen=True)
class BranchSnrParams:
    """SNR-domain parameters for one receive aggregate at mean branch SNR."""

    a: float           # combined shape m * n_r
    alpha_mrc: float   # a / n
    beta_mrc: float    # (2a/Omega) * (n_r * mean_snr)^(-1/n)
    beta_sc: float     # (2m/Omega) * mean_snr^(-1/n)
    mean_snr: float


def fading_params(n: int) -> FadingParams:
    """Severity fit m(n), Omega(n) for an order-n cascade."""
    n = validate_cascade_order(n)
    m = _M_SLOPE * n + _M_OFFSET
    omega = _OMEGA_COEFF * float(n) ** _OMEGA_EXPONENT + _OMEGA_OFFSET
    return FadingParams(n=n, m=m, omega=omega, alpha=m / n)


def branch_snr_params(n: int, n_r: int, mean_snr: float) -> BranchSnrParams:
    """Derive the SNR-domain scales for n_r combined receive branches."""
    n = validate_cascade_order(n)
    if n_r != int(n_r) or int(n_r) < 1:
        raise ValueError(f"receive antenna count must be an integer >= 1, got {n_r}")
    if not (mean_snr > 0.0) or not math.isfinite(mean_snr):
        raise ValueError(f"mean SNR must be positive and finite, got {mean_snr}")
    fp = fading_params(n)
    a = fp.m * int(n_r)
    beta_mrc = (2.0 * a / fp.omega) * (int(n_r) * mean_snr) ** (-1.0 / n)
    beta_sc = (2.0 * fp.m / fp.omega) * mean_snr ** (-1.0 / n)
    return BranchSnrParams(
        a=a,
        alpha_mrc=a / n,
        beta_mrc=beta_mrc,
        beta_sc=beta_sc,
        mean_snr=mean_snr,
    )


def _stretched_gamma_pdf(x: float, n: int, shape: float, beta: float) -> float:
    """Density beta^shape/(n G(shape)) x^(shape/n - 1) exp(-beta x^(1/n))."""
    alpha = shape / n
    if x < 0.0:
        return 0.0
    if x == 0.0:
        if alpha > 1.0:
            return 0.0
        if alpha == 1.0:
            # Finite limit: the power factor drops out.
            return math.exp(shape * math.log(beta) - math.lgamma(shape)) / n
        raise SingularDensityError(
            f"density diverges at the origin for shape/n = {alpha} < 1"
        )
    log_pdf = (
        shape * math.log(beta)
        - math.log(n)
        - math.lgamma(shape)
        + (alpha - 1.0) * math.log(x)
        - beta * x ** (1.0 / n)
    )
    return math.exp(log_pdf) if log_pdf > -745.0 else 0.0


def amplitude_pdf(x: float, n: int, x_bar: float) -> float:
    """Approximate density of the cascaded-Rayleigh variable at scale x_bar.

    For n >= 2 the shape exponent m/n drops below 1 and the density diverges
    at the origin; evaluating exactly at x = 0 then raises
    ``SingularDensityError`` so that quadrature callers use open endpoints.
    """
    n = validate_cascade_order(n)
    if not (x_bar > 0.0) or not math.isfinite(x_bar):
        raise ValueError(f"scale x_bar must be positive and finite, got {x_bar}")
    fp = fading_params(n)
    beta = (2.0 * fp.m / fp.omega) * x_bar ** (-1.0 / n)
    return _stretched_gamma_pdf(float(x), n, fp.m, beta)


def mrc_snr_pdf(gamma: float, params: BranchSnrParams, n: int) -> float:
    """Approximate density of the combined (summed) branch SNR."""
    n = validate_cascade_order(n)
    return _stretched_gamma_pdf(float(gamma), n, params.a, params.beta_mrc)


def mrc_snr_cdf(gamma: float, params: BranchSnrParams, n: int) -> float:
    """Approximate distribution of the combined branch SNR: P(a, beta g^(1/n))."""
    n = validate_cascade_order(n)
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"SNR must be nonnegative, got {gamma}")
    if gamma == 0.0:
        return 0.0
    return float(special.gammainc(params.a, params.beta_mrc * gamma ** (1.0 / n)))
