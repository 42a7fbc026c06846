#!/usr/bin/env python3
"""The console script's refusal and warning checks, one table row each.

Each row gives a command line, the exit code it must give and a pattern for
its standard error.  The command runs as ``python -m permkit.cli``, on the
permkit that this script imports, in a temporary directory that holds the
input files this script writes.  It must exit with that code and write
exactly one stderr line, which matches the pattern; a traceback fails the
row.  Prints one line per row and exits 1 if any row fails.

    python scripts/cli_checks.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import permkit
from permkit import rng
from permkit.numerics import ComplexMatrix

ONES12 = str([1] * 12)

# (what is checked, argv after `permkit`, exit code, stderr pattern)
CHECKS = [
    (
        "a refused identity is priced before its pairs are listed",
        ["verify", "--identity", "generating-exp", "--matrix", "a6.json", "--cap", "3"],
        1,
        r"^error: permanent side needs 312229425 terms",
    ),
    (
        "a cat cutoff far past the support budget is refused at once: the support is counted in closed form",
        ["sample", "--unitary", "u.json", "--input", "cat", "--n", "2", "--cutoff", "100000000000000000000", "--count", "5"],
        1,
        r"^error: outcome support of 2\.\.",
    ),
    (
        "a weight mismatch gives one warning line and a zero permanent",
        ["per", "--algo", "cauchy-binet", "--matrix", "u.json", "--matrix-b", "u.json", "--rows", "[2,1,0,0]", "--cols", "[1,1,0,0]"],
        0,
        r"^warning: ",
    ),
    (
        "Glynn-Kan sums 4^(m-1) sign pairs but is priced at the full 4^m",
        ["per", "--algo", "glynn-kan", "--matrix", "a12.json"],
        1,
        r"^error: Glynn-Kan sum needs 16777216 terms",
    ),
    (
        "glynn-repeated-rows repeats rows only, so it refuses --cols",
        ["per", "--algo", "glynn-repeated-rows", "--matrix", "a3.json", "--cols", "[0,3,0]"],
        1,
        r"^error: ",
    ),
    (
        "a multiplicity sum whose 2^(|q|-1) is past float64 is refused before its grid is summed",
        ["per", "--algo", "glynn-multiplicity", "--matrix", "a3.json", "--rows", "[600,600,0]", "--cols", "[600,600,0]"],
        1,
        r"^error: ",
    ),
    (
        "'exp' is refused from sum |a_ij| >= 4096 / (2e), where e^(sum |a_ij|) is past float64",
        ["estimate", "--matrix", "a12x9.json", "--rows", ONES12, "--cols", ONES12, "--f", "exp"],
        1,
        r"^error: the 'exp' integrand.*overflows float64",
    ),
    (
        "a non-finite regime constant is refused: NaN is not JSON",
        ["report", "--kind", "regime", "--n", "4", "--m", "10", "--c", "nan"],
        1,
        r"^error: ",
    ),
]

# no check may take longer; a refusal that does real work first would
TIMEOUT_S = 20


def write_inputs(directory: Path) -> None:
    """The unitary u.json (Haar, 4 modes), the matrices a3, a6 and a12.json
    (unit disk) and a12x9.json, 9 times a12 (sum |a_ij| = 838)."""
    files = {"u.json": rng.haar_unitary(4, 1).matrix, "a12x9.json": ComplexMatrix(9 * rng.unit_disk_matrix(12, 1))}
    files.update({f"a{n}.json": ComplexMatrix(rng.unit_disk_matrix(n, 1)) for n in (3, 6, 12)})
    for name, matrix in files.items():
        (directory / name).write_text(json.dumps(matrix.to_json_dict()))


def run_check(directory: Path, argv: list, code: int, pattern: str) -> str:
    """'' when the command meets its row, else what went wrong."""
    # the command runs the permkit that this script imported
    path = [str(Path(permkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "permkit.cli", *argv],
            cwd=directory,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"no exit within {TIMEOUT_S} s"
    lines = proc.stderr.splitlines()
    if proc.returncode != code:
        problem = f"exit code {proc.returncode}, expected {code}"
    elif "Traceback" in proc.stderr:
        problem = "a traceback on stderr"
    elif len(lines) != 1:
        problem = f"{len(lines)} stderr lines, expected 1"
    elif not re.search(pattern, lines[0]):
        problem = f"stderr does not match {pattern!r}"
    else:
        return ""
    return f"{problem}; stderr:\n{proc.stderr}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        for what, argv, code, pattern in CHECKS:
            problem = run_check(directory, argv, code, pattern)
            failed += bool(problem)
            print(f"{'FAIL' if problem else 'ok'}: {what}" + (f": {problem}" if problem else ""))
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} console-script checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
