"""README claims: the library example runs and prints what its comments
say, and every CLI example names only options that exist."""

import re
import shlex
from pathlib import Path

import click
import pytest

from nrayleigh import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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
