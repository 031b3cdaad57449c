#!/usr/bin/env python3
"""Regenerate the frozen regularized-lower-incomplete-gamma oracle table.

Evaluates P(a, x) by the all-positive-terms brute-force series

    P(a, x) = sum_{k>=0} x^(a+k) e^(-x) / Gamma(a + k + 1)

at 60 decimal digits with mpmath, on a fixed 10 x 20 grid covering
a in [0.5, 25], x in [0, 100], and writes the double-rounded values to
src/nrayleigh/data/reg_lower_gamma_oracle.json.  The table is the
independent reference for the incomplete-gamma implementation; regenerate
only if the grid needs to change.
"""

import json
import pathlib

import mpmath as mp

A_GRID = ["0.5", "1.0", "1.6467", "2.5", "4.0", "4.9401", "7.5", "10.0", "16.0", "25.0"]
X_GRID = [
    "0", "0.05", "0.2", "0.5", "1", "2", "3.5", "5", "7.5", "10",
    "14", "18", "24", "30", "40", "50", "65", "80", "90", "100",
]
DPS = 60
MAX_TERMS = 2000


def series_p(a: mp.mpf, x: mp.mpf) -> mp.mpf:
    if x == 0:
        return mp.mpf(0)
    total = mp.mpf(0)
    for k in range(MAX_TERMS):
        term = mp.power(x, a + k) * mp.e**(-x) / mp.gamma(a + k + 1)
        total += term
        if term < mp.mpf(10) ** (-(DPS - 5)) * total and k > int(x) + 8:
            return total
    raise RuntimeError(f"series did not converge for a={a}, x={x}")


def oracle_entries() -> list[dict]:
    """Every grid point with P rounded to double, in table order."""
    entries = []
    with mp.workdps(DPS):
        for a_str in A_GRID:
            for x_str in X_GRID:
                p = series_p(mp.mpf(a_str), mp.mpf(x_str))
                entries.append({"a": float(a_str), "x": float(x_str), "p": float(p)})
    return entries


def main() -> None:
    entries = oracle_entries()
    out = {
        "description": (
            "Regularized lower incomplete gamma P(a, x) from the brute-force "
            "series sum_k x^(a+k) e^(-x) / Gamma(a+k+1), evaluated at "
            f"{DPS} decimal digits and rounded to double precision."
        ),
        "dps": DPS,
        "entries": entries,
    }
    target = (
        pathlib.Path(__file__).resolve().parent.parent
        / "src" / "nrayleigh" / "data" / "reg_lower_gamma_oracle.json"
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(entries)} oracle entries to {target}")


if __name__ == "__main__":
    main()
