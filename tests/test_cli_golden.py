"""Byte-for-byte golden outputs of the command line.

Every case runs `cli.main` in an empty working directory that holds the
two ideal files below, with TCBOUNDS_* variables cleared and COLUMNS=80
(argparse wraps its help and usage text at the terminal width).  A case
records the exit code, stdout, stderr and the `--out` file, if any, once
per output format.  The cases are the argv lists of tests/test_cli.py, the
README examples, a few more error paths and every `--help` text.

Regenerate the golden file only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from tcbounds import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("pretty", "tsv", "json")
FILES = {
    "squares.txt": "p=32003 v=2\n2; 2 0:1\n2; 0 2:1\n",
    "xy.txt": "p=2 v=3\n1; 1 0 0:1\n1; 0 1 0:1\n",
    "repeated.txt": "p=7 v=2\n2; 1 1:3, 1 1:4\n",
    "header-keys.txt": "p=7 v=2 p=5\n1; 1 0:6\n",
}

CASES = [
    # froeberg
    {"argv": ["froeberg", "--d", "2", "--n", "4", "--a", "10"]},
    {"argv": ["froeberg", "--d", "2", "--n", "2", "--a", "5"]},
    {"argv": ["froeberg", "--d", "2", "--n", "4", "--a", "10", "--bogus"]},
    {"argv": ["froeberg", "--d", "2"]},
    {"argv": ["froeberg", "--d", "2", "--n", "4", "--a", "10", "--degrees", "3,3"]},
    {"argv": ["froeberg", "--d", "1", "--degrees", "1,1"]},
    {"argv": ["froeberg", "--d", "1", "--degrees", "3,3,2"]},
    # bounds
    {"argv": ["bounds", "--d", "2", "--n", "5", "--a", "10"]},
    {"argv": ["bounds", "--d", "3", "--n", "4", "--a", "10", "--ainv", "-4"]},
    {"argv": ["bounds", "--d", "1", "--n", "3", "--a", "5"]},
    {"argv": ["bounds", "--d", "2", "--n", "5", "--a", "10", "--out", "out.json"]},
    {"argv": ["bounds", "--d", "2", "--n", "5", "--a", "10", "--out", "missing/out.json"]},
    # table
    {"argv": ["table", "--d", "2", "--a", "10", "--n", "3..8,10,11"]},
    {"argv": ["table", "--d", "1", "--a", "4", "--n", "2..4,7"]},
    {"argv": ["table", "--d", "1", "--a", "4", "--n", "x..y"]},
    {"argv": ["table", "--d", "2", "--a", "4", "--n", "2..5"]},
    {"argv": ["table", "--d", "1", "--a", "10", "--n", "2..7,10,11"]},
    {"argv": ["table", "--d", "2", "--a", "10", "--n", "3..5"]},
    # verify hilbert
    {"argv": ["verify", "hilbert", "--d", "1", "--n", "3", "--a", "3",
              "--trials", "3", "--seed", "7"]},
    {"argv": ["verify", "hilbert", "--d", "1", "--n", "4", "--a", "3", "--trials", "2"]},
    {"argv": ["verify", "hilbert", "--d", "1", "--n", "3", "--a", "2", "--trials", "2"],
     "env": {"TCBOUNDS_PRIME": "101"}},
    {"argv": ["verify", "hilbert", "--d", "1", "--n", "3", "--a", "2", "--trials", "2",
              "--p", "97"],
     "env": {"TCBOUNDS_PRIME": "101"}},
    {"argv": ["verify", "hilbert", "--d", "1", "--n", "3", "--a", "2", "--trials", "2"],
     "env": {"TCBOUNDS_PRIME": "many"}},
    {"argv": ["verify", "hilbert", "--trials", "2"]},
    {"argv": ["verify", "hilbert", "--trials", "2"], "env": {"TCBOUNDS_PRIME": "many"}},
    {"argv": ["verify", "hilbert", "--ideal-file", "squares.txt"]},
    {"argv": ["verify", "hilbert", "--ideal-file", "nope.txt"]},
    {"argv": ["verify", "hilbert", "--ideal-file", "repeated.txt"]},
    {"argv": ["verify", "hilbert", "--ideal-file", "header-keys.txt"]},
    {"argv": ["verify", "hilbert", "--ideal-file", "squares.txt", "--seed", "3"]},
    {"argv": ["verify", "hilbert", "--d", "2", "--n", "6", "--a", "10", "--trials", "5"]},
    # verify theorem-c
    {"argv": ["verify", "theorem-c", "--fixture", "fermat-cubic", "--n", "3", "--a", "2"]},
    {"argv": ["verify", "theorem-c", "--fixture", "fermat-cubic-p2", "--n", "3", "--a", "2",
              "--seed", "1", "--redraws", "1"]},
    {"argv": ["verify", "theorem-c", "--fixture", "fermat-cubic", "--n", "3", "--a", "2",
              "--seed", "7"]},
    {"argv": ["verify", "theorem-c", "--fixture", "poly-ring", "--d", "2", "--n", "4",
              "--a", "2", "--seed", "7"]},
    {"argv": ["verify", "theorem-c", "--fixture", "fermat-cubic", "--n", "3", "--a", "200"]},
    {"argv": ["verify", "theorem-c", "--fixture", "fermat-cubic", "--p", "101", "--n", "3",
              "--a", "2", "--seed", "7"]},
    {"argv": ["verify", "theorem-c", "--fixture", "fermat-cubic", "--p", "3", "--n", "3",
              "--a", "2"]},
    {"argv": ["verify", "theorem-c", "--fixture", "nope", "--n", "3", "--a", "2"]},
    # verify theorem-b
    {"argv": ["verify", "theorem-b", "--fixture", "fermat-cubic-p2", "--qmax", "16"]},
    {"argv": ["verify", "theorem-b", "--fixture", "fermat-cubic-p2", "--qmax", "16",
              "--seed", "7"]},
    {"argv": ["verify", "theorem-b", "--fixture", "fermat-cubic-p2", "--qmax", "16",
              "--ideal-file", "xy.txt"]},
    {"argv": ["verify", "theorem-b", "--fixture", "fermat-cubic-p2", "--qmax", "16",
              "--ideal-file", "xy.txt", "--seed", "3"]},
    {"argv": ["verify", "theorem-b", "--fixture", "fermat-cubic", "--n", "2", "--a", "2",
              "--qmax", "49", "--seed", "11"]},
    # parser errors and help texts, run once without --format
    {"argv": [], "plain": True},
    {"argv": ["verify"], "plain": True},
    {"argv": ["--help"], "plain": True},
    {"argv": ["froeberg", "--help"], "plain": True},
    {"argv": ["bounds", "--help"], "plain": True},
    {"argv": ["table", "--help"], "plain": True},
    {"argv": ["verify", "--help"], "plain": True},
    {"argv": ["verify", "hilbert", "--help"], "plain": True},
    {"argv": ["verify", "theorem-c", "--help"], "plain": True},
    {"argv": ["verify", "theorem-b", "--help"], "plain": True},
]


def case_id(case) -> str:
    parts = [" ".join(case["argv"]) or "(no arguments)"]
    parts += [f"{key}={value}" for key, value in sorted(case.get("env", {}).items())]
    return " ".join(parts)


def case_formats(case):
    return (None,) if case.get("plain") else FORMATS


def run_case(case, fmt, workdir: Path) -> dict:
    """Run one case in workdir; returns code, stdout, stderr and out file."""
    argv = case["argv"] + ([] if fmt is None else ["--format", fmt])
    env = {k: v for k, v in os.environ.items() if not k.startswith("TCBOUNDS_")}
    env.update(COLUMNS="80", **case.get("env", {}))
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, env, clear=True))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        os.chdir(workdir)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(cwd)
    out_file = workdir / "out.json"
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "out_file": out_file.read_text() if out_file.exists() else None,
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_output(case, tmp_path):
    want = _golden()[case_id(case)]
    for fmt in case_formats(case):
        got = run_case(case, fmt, tmp_path / str(fmt))
        assert got == want[str(fmt)], fmt


def test_golden_file_has_no_stale_cases():
    assert sorted(_golden()) == sorted(case_id(case) for case in CASES)


if __name__ == "__main__":
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(CASES):
            golden[case_id(case)] = {
                str(fmt): run_case(case, fmt, Path(tmp, str(i), str(fmt)))
                for fmt in case_formats(case)
            }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
