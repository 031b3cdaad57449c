"""Severity fit of the cascaded (n*) Rayleigh channel.

A cascaded Rayleigh channel of order n has an envelope that is the product
of n independent Rayleigh variables.  Its power (and per-branch SNR) is well
approximated by a stretched-gamma family

    f(x) = beta^m / (n Gamma(m)) * x^(m/n - 1) * exp(-beta x^(1/n))

whose shape m and scale parameter Omega follow empirical fits in the cascade
order n.  This module holds that fit and the validated range of n; the
SNR-domain distributions built on it live in ``schemes``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FadingParams",
    "fading_params",
    "validate_cascade_order",
]

# Severity-fit constants for products of unit-power Rayleigh variables.
_M_SLOPE = 0.6102
_M_OFFSET = 0.4263
_OMEGA_COEFF = 0.8808
_OMEGA_EXPONENT = -0.9661
_OMEGA_OFFSET = 1.12

MAX_VALIDATED_CASCADE = 8


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


def fading_params(n: int) -> FadingParams:
    """Severity fit m(n), Omega(n) for an order-n cascade."""
    n = validate_cascade_order(n)
    m = _M_SLOPE * n + _M_OFFSET
    omega = _OMEGA_COEFF * float(n) ** _OMEGA_EXPONENT + _OMEGA_OFFSET
    return FadingParams(n=n, m=m, omega=omega)
