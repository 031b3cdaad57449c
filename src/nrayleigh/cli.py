"""Command-line front end: parameter tables, sweeps and the validation gate.

Subcommands
-----------
params        severity / diversity / coding-gain table per (scheme, n)
outage-sweep  analytic + asymptotic + Monte-Carlo outage curves (CSV)
af-sweep      amount-of-fading table per (scheme, n) (CSV)
validate      run the acceptance suite, emit a JSON report

Exit codes: 0 success (validate: all criteria passed), 1 usage error
(including a cascade order outside the validated domain n <= 8, or af-sweep's fitted 2..6),
2 validation failure, 3 numerical non-convergence.

Option defaults live in the option declarations (every command's --trials,
--seed and --workers come from ``SimSettings``; ``validate``'s operating
point, gamma_o = 1 with the default calibration weights for c02 and c03
and unit weights for c04 and c05, whose power law is uncalibrated, and
c10's probe size are fixed).  A sweep computes its analytic columns
before it simulates.
"""

from __future__ import annotations

import math
import sys

import click

from . import montecarlo, moments, schemes, validation
from .fading import MAX_VALIDATED_CASCADE, fading_params
from .montecarlo import SimSettings
from .schemes import ChannelConfig, ConvergenceError, OutageQuery, Scheme

__all__ = ["cli", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_OUTAGE_COLUMNS = [
    "scheme", "n", "n_t", "n_r", "snr_db", "gamma_o", "p_out_analytic",
    "p_out_asymptotic", "p_out_mc", "ci_low", "ci_high", "trials", "seed",
    "low_confidence",
]
_AF_COLUMNS = [
    "scheme", "n", "n_t", "n_r", "b1", "b2", "af_closed", "af_bound",
    "af_oracle", "af_mc", "ci_low", "ci_high",
]


# Far above the point count of any figure's grid (-10:60:0.5 has 141), and
# low enough that a mistyped grid cannot exhaust memory.
_MAX_GRID_POINTS = 10_000


def _parse_n_list(value: str) -> list[int]:
    """Cascade orders from the text of --n ("2,3,4").

    Orders above ``MAX_VALIDATED_CASCADE`` are refused: the severity fit
    and the analytics are validated only up to it.
    """
    try:
        items = [int(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise click.UsageError(f"cannot parse cascade-order list {value!r}") from None
    if not items:
        raise click.UsageError("cascade-order list is empty")
    if min(items) < 1:
        raise click.UsageError(f"cascade orders must be integers >= 1, got {value!r}")
    for n in items:
        if n > MAX_VALIDATED_CASCADE:
            raise click.UsageError(
                f"cascade order {n} is outside the validated domain "
                f"n <= {MAX_VALIDATED_CASCADE}"
            )
    return items


def _parse_snr_grid(value: str) -> list[float]:
    """Mean-SNR grid in dB from the text of --snr-db ("start:stop:step" or
    one value), of at most ``_MAX_GRID_POINTS`` points.

    The rules on each point's threshold are ``montecarlo.outage_curves``'s.
    """
    try:
        parts = [float(p) for p in value.split(":")]
    except ValueError:
        raise click.UsageError(f"cannot parse SNR grid {value!r}") from None
    if len(parts) == 1:
        grid = parts
    elif len(parts) == 3:
        grid = _stepped_grid(*parts)
    else:
        raise click.UsageError(
            f"SNR grid must be 'start:stop:step' or a single value, got {value!r}"
        )
    if len(grid) > _MAX_GRID_POINTS:
        raise click.UsageError(f"SNR grid has more than {_MAX_GRID_POINTS} points")
    return grid


def _stepped_grid(start: float, stop: float, step: float) -> list[float]:
    """start + k*step up to stop, stopping one point past the grid cap."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise click.UsageError("SNR grid start, stop and step must be finite")
    if not (start < stop) or not (step > 0):
        raise click.UsageError("SNR grid requires start < stop and step > 0")
    grid = []
    # The slack, relative to the step, keeps a stop that k*step misses by
    # rounding without reaching a point past it.
    while (len(grid) <= _MAX_GRID_POINTS
           and (point := start + len(grid) * step) <= stop + 1e-9 * step):
        grid.append(point)
    return grid


def _fmt(value) -> str:
    """Round-trip formatting: shortest representation that parses back."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _mc_cells(est) -> tuple:
    """The (estimate, ci_low, ci_high) cells of a row: empty without a
    Monte-Carlo estimate."""
    return (None,) * 3 if est is None else (est.value, est.ci95_low, est.ci95_high)


def _emit_table(columns: list[str], rows: list[list], header_config: dict, out: str | None) -> None:
    """Write a sweep's CSV table to ``out``: one "# key=value" line per
    header key, the column line, then the rows, each in ``columns`` order,
    sorted by scheme, cascade order and, in an outage table, mean SNR."""
    by = [columns.index(c) for c in ("scheme", "n", "snr_db") if c in columns]
    rows.sort(key=lambda row: [row[i] for i in by])
    lines = [f"# {key}={_fmt(value)}" for key, value in sorted(header_config.items())]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    _write_output("\n".join(lines) + "\n", out)


def _write_output(text: str, out: str | None) -> None:
    """Write to ``out`` (stdout when None); an I/O error is a usage error."""
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write output to {out}: {exc}") from None


@click.group()
def cli() -> None:
    """Analytics and Monte-Carlo validation for transmit-antenna-selection
    diversity over cascaded Rayleigh fading."""


@cli.command("params")
@click.option("--n", "n_list", required=True, help="Cascade orders, e.g. 1,2,3.")
@click.option("--nt", type=int, default=2, show_default=True, help="Transmit antennas.")
@click.option("--nr", type=int, default=3, show_default=True, help="Receive antennas.")
def cmd_params(n_list: str, nt: int, nr: int) -> None:
    """Severity parameters, diversity order and coding gains per (scheme, n)."""
    orders = _parse_n_list(n_list)
    # Every line is built, and every ChannelConfig checked, before any is
    # written: a bad antenna count leaves stdout empty, as in the sweeps.
    lines = [
        f"{'scheme':8s} {'n':>2s} {'m':>9s} {'omega':>9s} {'a':>9s} "
        f"{'d':>9s} {'cg_printed':>12s} {'cg_extracted':>12s}"
    ]
    for n in orders:
        cfg = ChannelConfig(n=n, n_t=nt, n_r=nr, mean_snr=1.0)
        fp = fading_params(n)
        for scheme in (Scheme.TAS_MRC, Scheme.TAS_SC):
            d = schemes.diversity_order(scheme, cfg)
            cg = schemes.coding_gain(scheme, cfg)
            lines.append(
                f"{scheme.value:8s} {n:2d} {fp.m:9.5g} {fp.omega:9.6g} "
                f"{fp.m * nr:9.5g} {d:9.6g} {cg.printed:12.6g} {cg.extracted:12.6g}"
            )
    click.echo("\n".join(lines))


def _sweep_params(orders: str, nr: int, own: tuple) -> list[click.Option]:
    """A sweep's parameters: the ones both sweeps share, with ``orders`` and
    ``nr`` the defaults of --n and --nr, around the command's ``own``
    options (after --nr)."""
    return [
        click.Option(["--scheme"], type=click.Choice(["tas-mrc", "tas-sc", "both"]),
                     default="both", help="Selection scheme, or both."),
        click.Option(["--n", "n_list"], default=orders, help=f"Cascade orders, e.g. {orders}."),
        click.Option(["--nt"], type=int, default=2, help="Transmit antennas."),
        click.Option(["--nr"], type=int, default=nr, help="Receive antennas."),
        *own,
        click.Option(["--trials"], type=int, default=SimSettings.trials,
                     help="Monte-Carlo trials (0 = analytics only)."),
        click.Option(["--seed"], type=int, default=SimSettings.master_seed, help="Master seed."),
        click.Option(["--workers"], type=int, default=SimSettings.workers, help="Worker threads."),
        click.Option(["--out"], default=None, help="Output path (default: stdout)."),
    ]


def _sweep_setup(opts: dict) -> tuple[list[Scheme], list[int], SimSettings | None, dict]:
    """(schemes, cascade orders, Monte-Carlo settings, header keys) of a
    sweep; the settings are None at --trials 0 (analytics only), and
    ``SimSettings`` checks the seed and worker count at every trial count."""
    scheme_list = list(Scheme) if opts["scheme"] == "both" else [Scheme(opts["scheme"])]
    orders = _parse_n_list(opts["n_list"])
    settings = SimSettings(opts["trials"] or 1, opts["seed"], opts["workers"])
    header = {
        "command": click.get_current_context().command.name,
        "schemes": ",".join(s.value for s in scheme_list),
        "n_list": ",".join(str(n) for n in orders),
        "n_t": opts["nt"], "n_r": opts["nr"], "trials": opts["trials"], "seed": opts["seed"],
    }
    return scheme_list, orders, settings if opts["trials"] != 0 else None, header


@cli.command("outage-sweep", params=_sweep_params("2,3,4,5", 3, (
    click.Option(["--snr-db"], default="0:30:2", help="Mean-SNR grid start:stop:step in dB."),
    click.Option(["--gamma-o"], type=float, default=1.0, help="Outage threshold (linear)."),
    click.Option(["--omega"], type=float, default=None,
                 help="Calibration override for both schemes."),
)))
def cmd_outage_sweep(**opts) -> None:
    """Outage probability sweep: analytic, asymptotic and empirical columns."""
    scheme_list, orders, settings, header = _sweep_setup(opts)
    query = OutageQuery(threshold=opts["gamma_o"])
    gamma_o = query.gamma_o
    grid_db = _parse_snr_grid(opts["snr_db"])

    # cfg.n is the deepest order, as in af-sweep: the channel of the one pass.
    cfg = ChannelConfig(max(orders), opts["nt"], opts["nr"], 1.0, opts["omega"])
    by_order = montecarlo.outage_curves(cfg, settings, grid_db, query, scheme_list, orders)
    rows = []
    # A repeated order is simulated once and printed once per listing.
    for n in orders:
        for scheme, curve in by_order[n].items():
            for db, analytic, asymptotic, est in curve:
                rows.append([
                    scheme.value, n, opts["nt"], opts["nr"], db, gamma_o, analytic, asymptotic,
                    *_mc_cells(est), opts["trials"], opts["seed"],
                    None if est is None else est.low_confidence,
                ])
    header.update(gamma_o=gamma_o, snr_grid_db=opts["snr_db"],
                  **{f"omega_{s.name.lower()}": cfg.omega_for(s) for s in Scheme})
    _emit_table(_OUTAGE_COLUMNS, rows, header, opts["out"])


@cli.command("af-sweep", params=_sweep_params("2,3,4,5,6", 2, ()))
def cmd_af_sweep(**opts) -> None:
    """Amount-of-fading table: closed form, bound, quadrature oracle, Monte-Carlo."""
    scheme_list, orders, settings, header = _sweep_setup(opts)
    # An order outside the fitted b-table (n = 2..6) is refused here.
    weights = {n: moments.default_weights(n) for n in orders}

    # Every AF column is invariant to the mean SNR, so none is an input.
    # The analytic columns come first, so a channel whose law is refused
    # is refused before any simulation.  The TAS/MRC bound's range check
    # runs first: outside it the closed form can leave the float range and
    # the oracle's quadrature may not converge.  Inside it, and inside the
    # moment sum's exponent cap for TAS/SC, no fitted-weight closed form does.
    rows = []
    for n in orders:
        w = weights[n]
        cfg = ChannelConfig(n=n, n_t=opts["nt"], n_r=opts["nr"], mean_snr=1.0)
        for scheme in scheme_list:
            af_bound = moments.af_bound_tas_mrc(cfg) if scheme is Scheme.TAS_MRC else None
            af_closed = moments.amount_of_fading(scheme, cfg, w)
            m1 = moments.moment_oracle(1, scheme, cfg)
            m2 = moments.moment_oracle(2, scheme, cfg)
            af_oracle = m2 / (m1 * m1) - 1.0
            rows.append([scheme.value, n, opts["nt"], opts["nr"], w.b1, w.b2,
                         af_closed, af_bound, af_oracle])
    by_order = {} if settings is None else montecarlo.estimate_af(
        ChannelConfig(max(orders), opts["nt"], opts["nr"], 1.0), settings, orders
    )
    for row in rows:
        row += _mc_cells(by_order[row[1]][Scheme(row[0])] if by_order else None)
    header["weighting_coefficients"] = ";".join(
        f"n={n}:b1={weights[n].b1},b2={weights[n].b2}" for n in orders
    )
    _emit_table(_AF_COLUMNS, rows, header, opts["out"])


@cli.command("validate")
@click.option("--trials", type=int, default=SimSettings.trials,
              help="Monte-Carlo trials per criterion.")
@click.option("--seed", type=int, default=SimSettings.master_seed, help="Master seed.")
@click.option("--workers", type=int, default=SimSettings.workers, help="Worker threads.")
@click.option("--out", default=None, help="Report path (default: stdout).")
def cmd_validate(trials: int, seed: int, workers: int, out: str | None) -> None:
    """Run the acceptance suite and emit the JSON validation report."""
    report = validation.build_report(SimSettings(trials, seed, workers))
    _write_output(validation.report_to_json(report), out)
    for criterion in report["criteria"]:
        status = "PASS" if criterion["passed"] else "FAIL"
        click.echo(f"{status} {criterion['id']} {criterion['name']}", err=True)
    summary = report["summary"]
    click.echo(
        f"{summary['criteria_passed']}/{summary['criteria_total']} criteria passed",
        err=True,
    )
    if not summary["all_passed"]:
        failed = [c["id"] for c in report["criteria"] if not c["passed"]]
        click.echo(f"validation failure: failing criteria: {', '.join(failed)}", err=True)
        raise click.exceptions.Exit(EXIT_VALIDATION)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping: a command's own
    exit code (validate's 2) comes back from click, errors map here."""
    try:
        return cli.main(args=argv, standalone_mode=False) or EXIT_OK
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except ConvergenceError as exc:
        click.echo(f"numerical non-convergence: {exc}", err=True)
        return EXIT_NUMERIC
    except ValueError as exc:
        # Domain errors from the library (a bad antenna count, no fitted
        # coefficients for n) surface as usage problems.
        click.echo(f"usage error: {exc}", err=True)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
