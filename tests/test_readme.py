"""The README's command-line examples print what the README shows, its
library quick start runs, its objective grammar is the parser's, and
its configuration table is Config's fields."""

import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from zetalab import Config
from zetalab.cli import main
from zetalab.objectives import OBJECTIVE_GRAMMAR

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for every `$ zetalab ...` line of
    the README's "Command line" section; the output is the lines under
    it, up to the next blank line, comment, prompt or fence."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    collecting = False
    for line in section.splitlines():
        if line.startswith("$ zetalab "):
            examples.append((line[len("$ zetalab "):], []))
            collecting = True
        elif collecting and line.strip() and not line.startswith(("#", "```")):
            examples[-1][1].append(line)
        else:
            collecting = False
    return examples


EXAMPLES = _examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 5
    assert all(lines for _, lines in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_grammar_block_is_the_parser_grammar():
    """The "Objective grammar" block is the grammar lines of OBJECTIVE_GRAMMAR."""
    section = README.read_text().split("### Objective grammar", 1)[1]
    block = section.split("```\n", 2)[1]
    grammar = [line for line in OBJECTIVE_GRAMMAR.splitlines() if ":=" in line]
    assert block.splitlines() == grammar


def test_configuration_table_is_the_config_fields():
    """The "Configuration" table lists exactly the fields of Config, in
    order, each with its default."""
    section = README.read_text().split("### Configuration", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    assert [(key.strip(), default.strip()) for key, default in rows] == [
        (f"`{f.name}`", f"`{f.default!r}`") for f in fields(Config)
    ]


def test_library_quick_start_runs(capsys):
    """The "Library quick start" block runs as written, so a changed
    signature cannot leave it stale."""
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[:2] == ["5/6", "6"]
