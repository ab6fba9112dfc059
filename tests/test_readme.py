"""The README's examples, run as written: its command lines and its Library code."""

import re
import shlex
from pathlib import Path

from skewcomp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    """The text of one '## ' section of the README."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_command_lines_print_what_the_readme_shows(capsys):
    # a '$ skewcomp' line followed by an output line, in the first sh block of "Command line"
    block = _section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    examples = re.findall(r"^\$ skewcomp (.+)\n([^$#\n].*)$", block, flags=re.MULTILINE)
    assert [command.split()[0] for command, _ in examples] == ["bounds", "compensate"]
    for command, shown in examples:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == shown + "\n", command


def test_library_code_runs():
    blocks = re.findall(r"```python\n(.*?)```", _section("Library"), flags=re.DOTALL)
    assert len(blocks) == 2
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
