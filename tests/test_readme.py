"""README claims: the library example runs and prints what its comments
say, every CLI example names only options that exist, only `montecarlo`
imports numpy, the analytic numbers under "Known deviations" are what c03
and c05 compute, and its simulation-derived numbers are what c02 and c07
report at seed 1 (10^6 trials, 2 workers)."""

import ast
import math
import re
import shlex
from pathlib import Path

import click
import pytest

from nrayleigh import cli, validation
from nrayleigh.schemes import DEFAULT_CALIBRATION, Scheme

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


def c03_details(mrc_omega):
    config = validation.ValidationConfig(mrc_omega=mrc_omega)
    return validation._criterion_required_snr_gaps(config)["details"]


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


def test_required_snr_levels_and_gaps():
    default = c03_details(DEFAULT_CALIBRATION[Scheme.TAS_MRC])
    unit = c03_details(1.0)
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
    rows = validation._criterion_asymptote_consistency(validation.ValidationConfig())
    ratios = [row["ratio"] for row in rows["details"]["rows"]]
    printed = printed_numbers(r"the ratio is still ([\d.]+-[\d.]+)")
    assert at_printed_digits([min(ratios), max(ratios)], printed) == printed


@pytest.fixture(scope="module")
def simulated():
    """c02's and c07's details from the seed-1 report, keyed by criterion id."""
    config = validation.ValidationConfig(trials=1_000_000, master_seed=1, workers=2)
    criteria = (validation._criterion_outage_vs_montecarlo, validation._criterion_af_profile)
    return {c["id"]: c["details"] for c in validation._run(config, criteria)["criteria"]}


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
