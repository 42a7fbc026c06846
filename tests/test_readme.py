"""Every `permkit` command in README's bash blocks runs through `cli.main` and
prints one JSON payload line, so the documented commands cannot drift from
the CLI."""

import itertools
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from permkit import rng
from permkit.cli import main
from permkit.numerics import ComplexMatrix

README = Path(__file__).resolve().parent.parent / "README.md"
FOR_LINE = re.compile(r"for (\w+) in ([^;]+); do")


def readme_commands() -> list[list[str]]:
    """argv of each `permkit` line in README's bash blocks, continuation lines
    joined and each line run once per binding of its enclosing `for` loops."""
    commands, loops, block, pending = [], [], False, ""
    for raw in README.read_text(encoding="utf-8").splitlines():
        if raw.startswith("```"):
            block = raw == "```bash"
            continue
        if not block:
            continue
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        loop = FOR_LINE.fullmatch(line)
        if loop:
            loops.append((loop[1], loop[2].split()))
        elif line == "done":
            loops.pop()
        elif line.startswith("permkit "):
            for values in itertools.product(*(vals for _, vals in loops)):
                bound = line
                for (var, _), value in zip(loops, values):
                    bound = bound.replace(f"${var}", value)
                commands.append(shlex.split(bound, comments=True)[1:])
    return commands


COMMANDS = readme_commands()


def test_every_subcommand_and_the_regime_loop_are_found():
    assert {argv[0] for argv in COMMANDS} == {"per", "verify", "estimate", "sample", "report"}
    regime = [argv for argv in COMMANDS if argv[:2] == ["report", "--kind"] and argv[2] == "regime"]
    assert len(regime) == 1 + 5 * 3


@pytest.fixture()
def readme_files(tmp_path, monkeypatch):
    """The files README's commands read, in the working directory."""
    matrices = {
        "j3.json": ComplexMatrix(np.ones((3, 3))),
        "a.json": ComplexMatrix(rng.unit_disk_matrix(3, 1)),
        "b.json": ComplexMatrix(rng.unit_disk_matrix(3, 2)),
        "u.json": rng.haar_unitary(4, 1).matrix,
    }
    for name, mat in matrices.items():
        (tmp_path / name).write_text(json.dumps(mat.to_json_dict()))
    (tmp_path / "p.json").write_text("[2, 1, 0]")
    (tmp_path / "q.json").write_text("[1, 1, 1]")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, readme_files, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert [i for i, record in enumerate(records) if "manifest" in record] == [len(records) - 1]
    assert records[-1]["manifest"]["command"] == argv[0]
