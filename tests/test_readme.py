"""The README's command-line examples print what the README shows, and
its objective grammar is the parser's."""

import shlex
from pathlib import Path

import pytest

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
