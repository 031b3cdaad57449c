"""Severity fit of the cascaded (n*) Rayleigh channel.

A cascaded Rayleigh channel of order n has an envelope that is the product
of n independent Rayleigh variables.  Its power (and per-branch SNR) is well
approximated by a stretched-gamma family

    f(x) = beta^m / (n Gamma(m)) * x^(m/n - 1) * exp(-beta x^(1/n))

whose shape m and scale parameter Omega follow empirical fits in the cascade
order n.  This module holds that fit, the validated range of n and
``positive_int``, the one rule for every count (cascade order, antennas,
trials, workers, moment order); the SNR-domain distributions built on it
live in ``schemes``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FadingParams",
    "fading_params",
    "positive_int",
]

# Severity-fit constants for products of unit-power Rayleigh variables.
_M_SLOPE = 0.6102
_M_OFFSET = 0.4263
_OMEGA_COEFF = 0.8808
_OMEGA_EXPONENT = -0.9661
_OMEGA_OFFSET = 1.12

MAX_VALIDATED_CASCADE = 8


def positive_int(name: str, value) -> int:
    """Return ``value`` as an int if it is a whole number >= 1.

    Bools, non-whole and non-finite values are refused with a
    ``ValueError`` that names the value.  An int comes back as itself.
    """
    if type(value) is int and value >= 1:
        return value
    try:
        whole = not isinstance(value, bool) and value == int(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class FadingParams:
    """Severity parameters of an order-n cascaded Rayleigh channel."""

    m: float
    omega: float


def fading_params(n: int) -> FadingParams:
    """Severity fit m(n), Omega(n) for an order-n cascade."""
    n = positive_int("cascade order", n)
    m = _M_SLOPE * n + _M_OFFSET
    omega = _OMEGA_COEFF * float(n) ** _OMEGA_EXPONENT + _OMEGA_OFFSET
    return FadingParams(m=m, omega=omega)
