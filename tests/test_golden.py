"""Golden `--format machine` output of the CLI.

Each case's stdout and exit code must match, byte for byte, the files in
tests/golden/, which were recorded from an earlier commit.  A case runs on
the bundled running.tilt unless WORKSPACES names another workspace file in
tests/golden/.  Only when a change of output is intended, record the
changed cases again with

    PYTHONPATH=src python tests/test_golden.py --write CASE [CASE ...]

which rewrites only those files and their exit codes (`--write` alone
records every case).
"""

import contextlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from tiltlab import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "check-tilting": ["check-tilting"],
    "miyashita-T": ["miyashita", "--module", "T"],
    "miyashita-12": ["miyashita", "--module", "12"],
    "filtration-static-T": ["filtration", "--module", "T"],
    "filtration-jms-T": ["filtration", "--module", "T", "--method", "jms"],
    "filtration-lo-12": ["filtration", "--module", "12", "--method", "lo"],
    "ext-table": ["ext-table"],
    "tor-table": ["tor-table"],
    "bside": ["bside"],
    "derived-indec": ["derived-indec"],
    "hearts": ["hearts"],
    "torsion-pairs": ["torsion-pairs"],
    "ttree-2": ["ttree", "--module", "2"],
    "ttree-12": ["ttree", "--module", "12"],
    "ttree-23": ["ttree", "--module", "23"],
    "verify": ["verify"],
    "check-tilting-f3": ["check-tilting", "--field", "3"],
    "ext-table-f3": ["ext-table", "--field", "3"],
    "tor-table-f3": ["tor-table", "--field", "3"],
    "bside-f3": ["bside", "--field", "3"],
    "derived-indec-f3": ["derived-indec", "--field", "3"],
    "derived-indec-dim5": ["derived-indec", "--dim-bound", "5"],
    "ttree-12x2_23": ["ttree", "--module", "12x2_23"],
    "ttree-T_2": ["ttree", "--module", "T_2"],
    "derived-indec-f5": ["derived-indec", "--field", "5"],
    "derived-indec-a4-w3": ["derived-indec", "--width-bound", "3"],
}

WORKSPACES = {
    "ttree-12x2_23": "sums.tilt",
    "ttree-T_2": "sums.tilt",
    "derived-indec-a4-w3": "a4.tilt",
}


def run_case(name: str) -> tuple[int, str]:
    """(exit code, stdout) of one case, run in this interpreter."""
    argv = CASES[name]
    if name in WORKSPACES:
        workspace = str(GOLDEN / WORKSPACES[name])
    else:
        workspace = str(resources.files("tiltlab").joinpath(
            "data/running.tilt"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([argv[0], workspace, *argv[1:],
                         "--format", "machine"])
    return code, out.getvalue()


def write_goldens(names: list[str]) -> None:
    """Record the named cases, or every case when names is empty; the
    other files and exit codes stay as they are."""
    GOLDEN.mkdir(exist_ok=True)
    codes_file = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_file.read_text()) if names else {}
    for name in names or CASES:
        codes[name], stdout = run_case(name)
        (GOLDEN / f"{name}.out").write_text(stdout)
    codes_file.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_matches_golden(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, stdout = run_case(name)
    assert code == codes[name]
    assert stdout == (GOLDEN / f"{name}.out").read_text()


def test_ladder_rungs_exit_zero():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert codes["derived-indec-f3"] == codes["derived-indec-dim5"] == 0


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or not set(sys.argv[2:]) <= set(CASES):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py "
                 "--write [CASE ...]")
    write_goldens(sys.argv[2:])
