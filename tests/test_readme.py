"""README claims: the library example runs and prints what its comments
say, every CLI example names only options that exist, the two column lines
under "Output columns" are the sweeps' CSV headers
(``test_output_columns_are_the_cli_headers``), only `montecarlo` imports
numpy, and the seed-1 report's digest is the one stated under
"Reproducibility".

Under "Known deviations", the analytic numbers are recomputed from c03's
and c05's details: the required-SNR levels and gaps and the power-law
ratios; c03's solve, repeated at unit calibration, gives the gaps there
and the +0.70 dB step.  The analytic criteria of the seed-1 report
(10^6 trials, 2 workers; ``conftest.seed1_report``) give c04's slope
shortfalls, c08's 6/20 moment checks and c07's closed-form AF inversion
at n = 2.  The simulation-derived numbers are recomputed from the same
report: the TAS/MRC analytic/empirical ratios, the worst in-band errors
of both schemes, the calibration weights fitted to the TAS/MRC curves
with the misses of the other readings, and the n = 6 AF confidence
intervals.  These come from one Monte-Carlo seed; their noise-free
values, the "per-hop power of ~0.74" and a diversity check against the
channel's own slope wait for an exact channel reference, which this
suite does not have yet.

Item 2's per-branch scales and convergence depths come from the model
over c04's twelve channels: each depth is a root in x of an equation in
Kummer's M, through ``scipy.special.hyp1f1``, and the program's own
power-law ratio and local slope are read at the mean SNR of that depth.
Item 4's ordering numbers come from the model's outage curves on the
scan the item states.  Item 3's moments of the printed sum (27.59 and
9.2 at n = 2, 3) are checked by
``tests/test_moments.py::TestMomentFormulas::test_printed_form_reasonable_at_small_cascade``.
Item 2's "equal these exact values to 2e-10" is checked on c05's ratios
and c04's fitted slopes, recomputed from the Kummer series of P.  Item 5's
gaps come from the model and the channel's exact AF (2^n - 1)/n_r, and one
simulation checks that exact value.
"""

import ast
import hashlib
import math
import re
import shlex
from pathlib import Path

import click
import pytest
from scipy import optimize, special

from nrayleigh import cli, validation
from nrayleigh.fading import fading_params
from nrayleigh.moments import af_simo
from nrayleigh.montecarlo import SimSettings, estimate_af, outage_curves
from nrayleigh.schemes import (
    DEFAULT_CALIBRATION,
    ChannelConfig,
    Scheme,
    diversity_order,
    outage,
    outage_asymptotic,
    required_snr,
)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# The "Known deviations" subsection, with line breaks and indents collapsed.
KNOWN_DEVIATIONS = " ".join(
    README.split("\n### Known deviations", 1)[1].split("\n## ", 1)[0].split()
)


def fenced_blocks(section, language):
    """Bodies of the ```language blocks under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, flags=re.DOTALL)


def cli_examples():
    """Argument lists of the `nrayleigh ...` lines of the CLI section, with
    backslash continuations joined."""
    examples = []
    for block in fenced_blocks("CLI", "bash"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("nrayleigh "):
                examples.append(shlex.split(line)[1:])
    return examples


def test_library_example_prints_its_diversity_order():
    (block,) = fenced_blocks("Library example", "python")
    printed = re.search(r"^d = .*= ([0-9.]+)$", block, flags=re.MULTILINE)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert printed is not None
    digits = len(printed.group(1).split(".")[1])
    assert round(namespace["d"], digits) == float(printed.group(1))


def test_cli_block_holds_every_command():
    assert sorted({argv[0] for argv in cli_examples()}) == sorted(cli.cli.commands)


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: argv[0])
def test_cli_example_parses(argv):
    # make_context parses and converts every option without running the
    # command, so an unknown flag or a malformed value raises.
    command = cli.cli.get_command(click.Context(cli.cli), argv[0])
    assert command is not None, argv[0]
    with command.make_context(argv[0], argv[1:]) as ctx:
        assert not ctx.args, argv


def printed_numbers(pattern):
    """The numbers, separated by '/' or '-', that the pattern's one group matches."""
    match = re.search(pattern, KNOWN_DEVIATIONS)
    assert match is not None, pattern
    return re.split("[/-]", match.group(1))


def at_printed_digits(values, printed):
    """Each value rounded to as many decimals as its printed counterpart."""
    return [f"{v:.{len(p.partition('.')[2])}f}" for v, p in zip(values, printed)]


def c03_details(weight):
    """c03's required-SNR levels and gaps in dB, solved as c03 solves them
    but at TAS/MRC calibration weight ``weight``."""
    levels = [
        10.0 * math.log10(required_snr(
            Scheme.TAS_MRC, 1e-4, validation._GATE_QUERY, ChannelConfig(n, 2, 3, 1.0, weight)
        ))
        for n in (2, 3, 4, 5)
    ]
    return {"levels_db": levels, "gaps_db": [b - a for a, b in zip(levels, levels[1:])]}


def numpy_scipy_imports(path):
    """The numpy and scipy names that the module at ``path`` imports, by its AST."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in imported if name.split(".")[0] in ("numpy", "scipy")}


def test_analytic_modules_import_no_numpy():
    assert (
        "Only `montecarlo` imports numpy: the analytic outputs do not depend on its CPU "
        "dispatch, and the Monte-Carlo values do"
    ) in " ".join(README.split())
    imports = {path.stem: numpy_scipy_imports(path)
               for path in Path(cli.__file__).parent.glob("*.py")}
    assert imports.pop("montecarlo") == {"numpy"}
    # scipy reaches the analytics only as cython_special, which calls no numpy ufunc.
    assert set().union(*(imports.pop(name) for name in ("fading", "schemes", "moments"))) == {
        "scipy.special.cython_special"
    }
    assert imports == {"__init__": set(), "cli": set(), "validation": set()}


def test_output_columns_are_the_cli_headers():
    section = README.split("\n### Output columns\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^`([a-z0-9_,]+)`$", section, flags=re.MULTILINE) == [
        ",".join(cli._OUTAGE_COLUMNS), ",".join(cli._AF_COLUMNS)
    ]


def test_required_snr_levels_and_gaps():
    default = c03_details(DEFAULT_CALIBRATION[Scheme.TAS_MRC])
    unit = c03_details(1.0)
    _, c03 = validation._criterion_required_snr_gaps(SimSettings())
    assert {key: c03[key] for key in default} == default
    for pattern, values in (
        (r"levels come out ([\d./]+) dB", default["levels_db"]),
        (r"the gaps \(([\d./]+) dB\)", default["gaps_db"]),
        (r"with unit calibration the gaps are ([\d./]+) dB", unit["gaps_db"]),
    ):
        printed = printed_numbers(pattern)
        assert len(printed) == len(values), pattern
        assert at_printed_digits(values, printed) == printed, pattern


def test_each_gap_inherits_the_calibration_step():
    # The required SNR goes as w^n, so each step in n adds 10 log10(w) dB.
    weight = DEFAULT_CALIBRATION[Scheme.TAS_MRC]
    (printed_weight,) = printed_numbers(r"exactly \+10 log10\(([\d.]+)\) =")
    (printed_step,) = printed_numbers(r"log10\([\d.]+\) = \+([\d.]+) dB/step")
    assert float(printed_weight) == weight
    step = 10.0 * math.log10(weight)
    assert at_printed_digits([step], [printed_step]) == [printed_step]
    default, unit = c03_details(weight), c03_details(1.0)
    for with_weight, without in zip(default["gaps_db"], unit["gaps_db"]):
        assert with_weight - without == pytest.approx(step, abs=1e-9)


def test_power_law_ratio_range():
    _, c05 = validation._criterion_asymptote_consistency(SimSettings())
    ratios = [row["ratio"] for row in c05["rows"]]
    printed = printed_numbers(r"the ratio is still ([\d.]+-[\d.]+)")
    assert at_printed_digits([min(ratios), max(ratios)], printed) == printed


def branch_law(scheme, base):
    """(shape s, exponent k, scale at unit mean SNR) of the unit-weight
    model: x = scale * (gamma_o / g)^(1/n) at mean SNR g."""
    fit = fading_params(base.n)
    shape, k, gain = (fit.m * base.n_r, base.n_t, base.n_r) if scheme is Scheme.TAS_MRC else (
        fit.m, base.n_t * base.n_r, 1)
    return shape, k, 2.0 * shape / fit.omega * gain ** (-1.0 / base.n)


def log_m(shape, x):
    """ln M(1, s+1, x), with Kummer's M from scipy's hyp1f1."""
    return math.log(special.hyp1f1(1.0, shape + 1.0, x))


def ln_p_series(shape, x):
    """ln P(s, x) from P(s, x) = x^s e^(-x) M(1, s+1, x) / Gamma(s+1)."""
    return shape * math.log(x) - x + log_m(shape, x) - special.gammaln(shape + 1.0)


def test_power_laws_equal_the_kummer_series():
    (tol,) = printed_range(r"ratios and slopes equal these exact values to ([\de.-]+)\.")
    gamma_o = validation._GATE_QUERY.gamma_o

    def x_at(scale, base, g):
        return scale * (gamma_o / g) ** (1.0 / base.n)

    _, c05 = validation._criterion_asymptote_consistency(SimSettings())
    for row in c05["rows"]:
        scheme, base = Scheme(row["scheme"]), ChannelConfig(row["n"], 2, 3, 1.0, 1.0)
        shape, k, scale = branch_law(scheme, base)
        x = x_at(scale, base, required_snr(scheme, 1e-7, validation._GATE_QUERY, base))
        assert row["ratio"] == pytest.approx(math.exp(k * (x - log_m(shape, x))),
                                             rel=float(tol)), row
    _, c04 = validation._criterion_diversity_slope(SimSettings())
    for combo in c04["combos"]:
        scheme = Scheme(combo["scheme"])
        base = ChannelConfig(combo["n"], combo["n_t"], combo["n_r"], 1.0, 1.0)
        shape, k, scale = branch_law(scheme, base)
        g_lo, g_hi = (required_snr(scheme, p, validation._GATE_QUERY, base) for p in (1e-6, 1e-7))
        step, pts = validation._log_grid(math.log10(g_lo), math.log10(g_hi), 11)
        logs = [k * ln_p_series(shape, x_at(scale, base, g)) / math.log(10.0) for g in pts]
        slope = abs(math.fsum((j - 5) * y for j, y in enumerate(logs)) / (110 * step))
        assert combo["fitted_slope"] == pytest.approx(slope, rel=float(tol)), combo


def printed_range(pattern):
    """The numbers of a printed 'a..b' range, or the one number, that the
    pattern's one group matches."""
    match = re.search(pattern, KNOWN_DEVIATIONS)
    assert match is not None, pattern
    return match.group(1).split("..")


def at_printed_figures(values, printed):
    """Each value rounded to as many significant figures as its printed
    counterpart (a mantissa and exponent, as in '3e-18' or '1.3e-3')."""
    figures = [len(p.partition("e")[0].replace(".", "")) for p in printed]
    return [float(f"{v:.{f - 1}e}") for v, f in zip(values, figures)]


def convergence_depths(scheme, base, ln_m):
    """(P_out, program's power-law/full ratio, program's slope / d - 1) at
    the x where ln M(1, s+1, x) equals ``ln_m(x)``, on a unit-weight channel.

    M is scipy's hyp1f1; P_out = [x^s e^(-x) M / Gamma(s+1)]^k.  The
    program's ratio and local log-log slope are read at the mean SNR
    whose outage is P_out, and the ratio must equal [e^x / M]^k.
    """
    shape, k, _ = branch_law(scheme, base)
    x = optimize.brentq(lambda x: log_m(shape, x) - ln_m(x), 1e-9, 100.0,
                        xtol=1e-14, rtol=1e-15)
    p_out = math.exp(k * ln_p_series(shape, x))
    query = validation._GATE_QUERY
    at = base.with_mean_snr(required_snr(scheme, p_out, query, base))
    full = outage(scheme, query, at)
    ratio = outage_asymptotic(scheme, query, at)[0] / full
    assert ratio == pytest.approx(math.exp(k * (x - log_m(shape, x))), rel=1e-9)
    step = 1e-4
    ln_outage = [math.log(outage(scheme, query, at.with_mean_snr(at.mean_snr * math.exp(h))))
                 for h in (step, -step)]
    slope = (ln_outage[1] - ln_outage[0]) / (2 * step)
    return p_out, ratio, slope / diversity_order(scheme, base) - 1.0


def test_power_law_convergence_depths():
    combos = validation._criterion_diversity_slope(SimSettings())[1]["combos"]
    channels = [(Scheme(c["scheme"]), ChannelConfig(c["n"], c["n_t"], c["n_r"], 1.0, 1.0))
                for c in combos]
    assert len(channels) == 12
    assert "c04's twelve channels (both schemes, 2x3 and 2x2, n = 2, 3, 4, unit weight)" in (
        KNOWN_DEVIATIONS)
    scales = []
    for scheme, base in channels:
        fit = fading_params(base.n)
        shape = fit.m * base.n_r if scheme is Scheme.TAS_MRC else fit.m
        scales.append(2.0 * shape / fit.omega)
    printed = printed_numbers(r"2·shape/Omega is ([\d.]+-[\d.]+)")
    assert at_printed_digits([min(scales), max(scales)], printed) == printed

    # The power law over the full formula is [e^x / M]^k = 1.1.
    def ratio_1_1(scheme, base):
        k = base.n_t if scheme is Scheme.TAS_MRC else base.n_t * base.n_r
        return lambda x: x - math.log(1.1) / k

    depths = {
        "ratio": [convergence_depths(s, b, ratio_1_1(s, b)) for s, b in channels],
        "1e-3": [convergence_depths(s, b, lambda x: math.log1p(1e-3)) for s, b in channels],
        "1%": [convergence_depths(s, b, lambda x: math.log1p(1e-2)) for s, b in channels],
    }
    for pattern, rows in (
        (r"reaches 1\.1 only at P_out ([\de.-]+) on c04's", depths["ratio"]),
        (r"\(([\de.-]+) on c05's\)",
         [row for row, (_, b) in zip(depths["ratio"], channels) if b.n_r == 3]),
        (r"M\(1, s\+1, x\) - 1 = 1e-3 \(P_out ([\de.-]+)\)", depths["1e-3"]),
        (r"At M - 1 = 1% \(P_out ([\de.-]+)\)", depths["1%"]),
    ):
        printed = printed_range(pattern)
        p_outs = [p for p, _, _ in rows]
        assert at_printed_figures([max(p_outs), min(p_outs)], printed) == [
            float(p) for p in printed], pattern
    for label, slope_pattern, ratio_pattern in (
        ("1e-3", r"full-formula slope is within ([\d.]+)% of d",
         r"the ratio is (1\.\d+-1\.\d+)\. At M - 1"),
        ("1%", r"the slope is within ([\d.]+)% of d but", r"the ratio is still (1\.\d+-1\.\d+)\."),
    ):
        (within,) = printed_numbers(slope_pattern)
        assert max(abs(slope) for _, _, slope in depths[label]) < float(within) / 100, label
        ratios = [ratio for _, ratio, _ in depths[label]]
        printed = printed_numbers(ratio_pattern)
        assert at_printed_digits([min(ratios), max(ratios)], printed) == printed, label
    assert all(ratio == pytest.approx(1.1, rel=1e-9) for _, ratio, _ in depths["ratio"])


# Known deviation 4's scan: mean SNR -26..40 dB in 0.02 dB steps at gamma_o = 1.
ORDERING_SCAN_DB = [-26.0 + 0.02 * k for k in range(3301)]


def ordering_scan(cfg, orders=None):
    """Per order, the TAS/SC outages of the scan's points where the TAS/MRC
    model outage is above TAS/SC's and of those where it is below (a tie,
    both 1.0, counts as neither), and the largest ratio with its dB."""
    curves = outage_curves(cfg, None, ORDERING_SCAN_DB, validation._GATE_QUERY, orders=orders)
    scans = {}
    for n, by_scheme in curves.items():
        above, below, peak = [], [], (0.0, None)
        for (db, mrc, _, _), (_, sc, _, _) in zip(by_scheme[Scheme.TAS_MRC],
                                                  by_scheme[Scheme.TAS_SC]):
            if mrc != sc:
                (above if mrc > sc else below).append(sc)
            peak = max(peak, (mrc / sc, db))
        scans[n] = above, below, peak
    return scans


def test_model_scheme_ordering():
    assert ORDERING_SCAN_DB[-1] == 40.0
    assert ("On a scan at gamma_o = 1, 2x3 and unit calibration weight, over mean SNRs of "
            "-26 to 40 dB in 0.02 dB steps") in KNOWN_DEVIATIONS
    unit = ordering_scan(ChannelConfig(8, 2, 3, 1.0, 1.0), orders=range(2, 9))
    (unit_2x2,) = ordering_scan(ChannelConfig(2, 2, 2, 1.0, 1.0)).values()
    (default,) = ordering_scan(ChannelConfig(2, 2, 3, 1.0)).values()
    # Above on the high-outage side of one crossing, below past it.
    for above, below, _ in (unit[2], unit_2x2, unit[3]):
        assert min(above) > max(below)
    printed = printed_numbers(r"outage is above ([\d.]+) at n = 2")
    printed += printed_numbers(r"\(([\d.]+) at 2x2\)")
    assert at_printed_digits([min(unit[2][0]), min(unit_2x2[0])], printed) == printed
    (crossing,) = printed_range(r"down to a TAS/SC outage of ([\de.-]+) at n = 3")
    assert at_printed_figures([min(unit[3][0])], [crossing]) == [float(crossing)]
    first, last = (int(n) for n in printed_range(r"at every point for n = (\d\.\.\d)"))
    assert all(unit[n][0] and not unit[n][1] for n in range(first, last + 1))
    stated = re.search(
        r"The ratio peaks at ([\d.]+)x \(n = (\d), ([\d.]+) dB\) for n <= (\d)", KNOWN_DEVIATIONS
    )
    assert stated is not None
    (ratio, db), n = max((unit[n][2], n) for n in range(3, int(stated.group(4)) + 1))
    assert int(stated.group(2)) == n
    assert at_printed_digits([ratio, db], [stated.group(1), stated.group(3)]) == [
        stated.group(1), stated.group(3)]
    printed = printed_numbers(r"\(([\d.]+)x and [\d.]+x there\)")
    printed += printed_numbers(r"\([\d.]+x and ([\d.]+)x there\)")
    assert [unit[n][2][1] for n in (7, 8)] == [40.0, 40.0]
    assert at_printed_digits([unit[n][2][0] for n in (7, 8)], printed) == printed
    above, below, _ = default
    assert above and not below
    (deepest,) = printed_range(r"down to a TAS/SC outage of ([\de.-]+) at 40 dB")
    assert at_printed_figures([min(above)], [deepest]) == [float(deepest)]


def exact_channel_af(n, n_r):
    """AF of a sum of n_r i.i.d. products of n unit exponentials, from
    E[X^l] = (l!)^n: (2^n - 1)/n_r."""
    return (2**n - 1) / n_r


def test_model_af_gaps_to_the_channel():
    for n_r in (1, 2, 3):
        gaps = [100.0 * (1.0 - af_simo(n, n_r) / exact_channel_af(n, n_r)) for n in range(1, 9)]
        printed = printed_numbers(rf"by ([\d./]+)% at n_r = {n_r}")
        assert len(printed) == 8
        assert at_printed_digits(gaps, printed) == printed
    printed = printed_numbers(r"severity fit's m\(1\) = ([\d.]+)")
    assert at_printed_digits([fading_params(1).m], printed) == printed


def test_simulated_channel_af_is_the_exact_value():
    assert ("simulated 1x3 channel at n = 2 (200 000 trials) gives an AF within 4 "
            "standard errors of the exact 1") in KNOWN_DEVIATIONS
    # With one transmit antenna the TAS/MRC output is the MRC sum itself.
    est = estimate_af(ChannelConfig(2, 1, 3, 1.0), SimSettings(200_000, 1))[2][Scheme.TAS_MRC]
    assert abs(est.value - exact_channel_af(2, 3)) <= 4.0 * est.std_error


@pytest.fixture(scope="module")
def simulated(seed1_report):
    """The details of the seed-1 report, keyed by criterion id."""
    return {c["id"]: c["details"] for c in seed1_report["criteria"]}


def c02_curves(simulated, scheme):
    """The curves of one scheme in order of n: (n, in-band points, worst error)."""
    curves = simulated["c02"]["curves"]
    return [
        (n, [p for p in curves[f"{scheme},n={n}"]["points"] if p["binding"]],
         curves[f"{scheme},n={n}"]["worst_binding_rel_error"])
        for n in (2, 3, 4, 5)
    ]


def test_mrc_overestimate_at_the_top_of_the_band(simulated):
    # The top of the band is the lowest in-band SNR of each curve.
    top = {n: points[0]["analytic"] / points[0]["empirical"]
           for n, points, _ in c02_curves(simulated, "tas-mrc")}
    for pattern, values in (
        (r"by ([\d.]+-[\d.]+)x \(n = 2, 3\)", [top[2], top[3]]),
        (r"to ([\d.]+)x \(n = 5\) at the top of the band", [top[5]]),
    ):
        printed = printed_numbers(pattern)
        assert at_printed_digits(values, printed) == printed, pattern


def test_mrc_overestimate_peak(simulated):
    ratio, n, snr_db = max(
        (p["analytic"] / p["empirical"], n, p["snr_db"])
        for n, points, _ in c02_curves(simulated, "tas-mrc") for p in points
    )
    assert (n, snr_db) == (5, 20.0)
    printed = printed_numbers(r"up to ~([\d.]+)x at n = 5, 20 dB")
    assert at_printed_digits([ratio], printed) == printed


def test_worst_in_band_errors(simulated):
    mrc = [100.0 * worst for _, _, worst in c02_curves(simulated, "tas-mrc")]
    sc = [100.0 * worst for _, _, worst in c02_curves(simulated, "tas-sc")]
    for pattern, values in (
        (r"Worst in-band relative errors are ([\d-]+)% per curve", [min(mrc), max(mrc)]),
        (r"\(worst ([\d./]+)% for n = 2/3/4/5\)", sc),
    ):
        printed = printed_numbers(pattern)
        assert len(printed) == len(values), pattern
        assert at_printed_digits(values, printed) == printed, pattern
    (within,) = printed_numbers(r"tracks the channel to within ([\d]+)% everywhere in band")
    assert max(sc) < float(within)


def test_af_confidence_intervals_overlap_at_n_6(simulated):
    (row,) = [r for r in simulated["c07"]["rows"] if r["n"] == 6]
    for pattern, ci in (
        (r"\(TAS/MRC ([\d.]+-[\d.]+) against", row["af_mc_mrc_ci"]),
        (r"against TAS/SC ([\d.]+-[\d.]+) at seed 1", row["af_mc_sc_ci"]),
    ):
        printed = printed_numbers(pattern)
        assert at_printed_digits(ci, printed) == printed, pattern
    assert row["af_mc_sc_ci"][0] < row["af_mc_mrc_ci"][1]


def test_slope_fits_fall_short_of_d(simulated):
    combos = simulated["c04"]["combos"]
    assert all(c["fitted_slope"] < c["diversity"] for c in combos)
    errors = [100.0 * c["rel_error"] for c in combos]
    printed = printed_numbers(r"\[1e-7, 1e-6\] land (\d+-\d+)% short of d")
    assert at_printed_digits([min(errors), max(errors)], printed) == printed
    (inside,) = printed_numbers(r"only TAS/MRC 2x2 n=2 is inside (\d+)%")
    assert [(c["scheme"], c["n_t"], c["n_r"], c["n"]) for c in combos
            if 100.0 * c["rel_error"] < float(inside)] == [("tas-mrc", 2, 2, 2)]


def test_moment_checks_outside_the_band(simulated):
    c08 = simulated["c08"]
    stated = re.search(
        r"(\d+)/(\d+) moment checks exceed the (\d+)% band \(allowed: (\d+)\)", KNOWN_DEVIATIONS
    )
    assert stated is not None
    assert [int(v) for v in stated.groups()] == [
        c08["points_exceeding"], c08["points"], round(100 * c08["rel_tol"]),
        c08["allowed_exceeding"],
    ]


def test_closed_form_af_ordering_inverts_at_n_2(simulated):
    # c07 wants TAS/MRC's AF below TAS/SC's; the closed forms invert only at n = 2.
    rows = simulated["c07"]["rows"]
    assert [r["n"] for r in rows if r["af_closed_mrc"] >= r["af_closed_sc"]] == [2]
    stated = re.search(r"inverts at n = 2 \(TAS/MRC ([\d.]+) vs TAS/SC ([\d.]+)\)",
                       KNOWN_DEVIATIONS)
    assert stated is not None
    printed = list(stated.groups())
    values = [rows[0]["af_closed_mrc"], rows[0]["af_closed_sc"]]
    assert at_printed_digits(values, printed) == printed


def mrc_scores(simulated, weight):
    """c02's rule on its seed-1 TAS/MRC curves, with the analytic outage at
    calibration weight ``weight``: per n, the worst relative error over the
    points in band (inf if none is) and whether the curve passes."""
    details = simulated["c02"]
    low, high = details["band"]
    analytic = outage_curves(
        ChannelConfig(5, 2, 3, 1.0, weight), None, validation._SNR_GRID_DB,
        validation._GATE_QUERY, schemes=(Scheme.TAS_MRC,), orders=(2, 3, 4, 5),
    )
    scores = {}
    for n, curves in analytic.items():
        points = {p["snr_db"]: p for p in details["curves"][f"tas-mrc,n={n}"]["points"]}
        errors, passed = [], True
        for db, ana, _, _ in curves[Scheme.TAS_MRC]:
            if low <= ana <= high:
                point = points[db]
                errors.append(abs(point["empirical"] - ana) / ana)
                passed = passed and (
                    errors[-1] <= details["rel_tol"] or point["ci_low"] <= ana <= point["ci_high"]
                )
        scores[n] = (max(errors, default=math.inf), passed and bool(errors))
    return scores


def test_mrc_scores_apply_c02s_rule(simulated):
    scores = mrc_scores(simulated, DEFAULT_CALIBRATION[Scheme.TAS_MRC])
    for n, (worst, passed) in scores.items():
        assert worst == simulated["c02"]["curves"][f"tas-mrc,n={n}"]["worst_binding_rel_error"]
        assert not passed


def test_fitted_calibration_weights(simulated):
    assert printed_numbers(r"weights on a ([\d.]+) grid") == ["0.01"]
    grid = [k / 100 for k in range(1, 201)]
    scores = {w: mrc_scores(simulated, w) for w in grid}
    best = {n: min(grid, key=lambda w: scores[w][n][0]) for n in (2, 3, 4, 5)}
    printed_weights = printed_numbers(r"best matches the channel is ([\d./]+) for n = 2/3/4/5")
    printed_errors = printed_numbers(r"\(worst in-band errors ([\d./]+)%, weights on")
    assert at_printed_digits(best.values(), printed_weights) == printed_weights
    errors = [100.0 * scores[w][n][0] for n, w in best.items()]
    assert at_printed_digits(errors, printed_errors) == printed_errors
    assert "no single weight passes all n" in KNOWN_DEVIATIONS
    assert not any(all(passed for _, passed in scores[w].values()) for w in grid)


def test_calibration_readings_that_miss(simulated):
    # The worst of the four curves at 0.87, and at the weight read as a
    # divisor of the scale; then every curve with no weight.
    for pattern, weight in (
        (r"\(0\.87 still misses by ([\d.]+)% at n = (\d)\)", 0.87),
        (r"1/1\.176 \(scale divided by the weight\) by ([\d.]+)% at n = (\d)", 1.0 / 1.176),
    ):
        match = re.search(pattern, KNOWN_DEVIATIONS)
        assert match is not None, pattern
        miss, at_n = match.groups()
        scores = mrc_scores(simulated, weight)
        worst, n = max((100.0 * error, n) for n, (error, _) in scores.items())
        assert (at_printed_digits([worst], [miss]), n) == ([miss], int(at_n)), pattern
    errors = [100.0 * error for error, _ in mrc_scores(simulated, 1.0).values()]
    printed = printed_numbers(r"no weight by ([\d.]+-[\d.]+)%")
    assert at_printed_digits([min(errors), max(errors)], printed) == printed


def test_seed1_digest(seed1_report):
    # Holds where numpy dispatches log1p to AVX-512, as the TestOutputBytes
    # digests do; the README's caveat gives the digest without it.
    stated = re.search(
        r"`nrayleigh validate --trials 1000000 --seed 1 --workers 2` exits (\d), passes "
        r"\{([^}]*)\}, and its report has sha256 `([0-9a-f]{64})`",
        " ".join(README.split()),
    )
    assert stated is not None
    code, passing, digest = stated.groups()
    # The one full digest in the README, which CI compares with its own run.
    assert re.findall(r"\b[0-9a-f]{64}\b", README) == [digest]
    assert (seed1_report["config"]["trials"], seed1_report["config"]["master_seed"]) == (
        1_000_000, 1
    )
    assert (code, seed1_report["summary"]["all_passed"]) == ("2", False)
    assert passing.split(", ") == [c["id"] for c in seed1_report["criteria"] if c["passed"]]
    report_json = validation.report_to_json(seed1_report)
    assert hashlib.sha256(report_json.encode()).hexdigest() == digest
