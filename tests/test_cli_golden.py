"""Frozen command line output: stdout, stderr and exit code of every subcommand.

Each case runs `main(argv)` in process and compares all three against
tests/cli_golden.json byte for byte, so a refactor of the CLI or of the
library below it cannot change what a user sees without this test failing.

After a deliberate change of output, rewrite the frozen file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from ec_riordan.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

WORKED = [("-1", "-2", "-1"), ("-2", "-5", "1"), ("2", "-5", "-1")]
RATIONAL = ("1/2", "-1/3", "2/5")
TORSION = ("3", "2", "2")
FORMATS = ("text", "json", "csv")

# (subcommand, options, extra positional arguments)
PER_CURVE = [
    ("derive", ["--order", "12"], []),
    ("verify", ["--order", "10"], []),
    ("paths", ["--family", "g", "--rows", "6"], []),
    ("paths", ["--family", "gamma", "--rows", "6", "--brute"], []),
    ("paths", ["--family", "orbit", "--r", "2", "--rows", "5", "--brute"], []),
    ("hankel", ["--family", "g", "--count", "6"], []),
    ("hankel", ["--family", "gamma", "--order", "9"], []),
    ("hankel", ["--count", "4"], []),
    ("eds", ["--count", "10"], []),
    ("eds", ["--order", "7"], []),
    ("points", ["--count", "6"], []),
    ("points", [], []),
    ("jfrac", ["--depth", "4"], []),
    ("jfrac", ["--depth", "3", "--shift", "2", "--source", "series"], []),
    ("jfrac", ["--depth", "3", "--shift", "1/2", "--source", "points"], []),
    ("oeis", ["--offline", "--order", "12"], ["A025243"]),
    ("oeis", ["--offline", "--family", "g", "--order", "12"], ["A000108"]),
    ("oeis", ["--offline", "--hankel", "--order", "13"], ["A010892"]),
]

# Exit codes 1, 2 and 3 beyond those the per-curve cases reach.
ERRORS = [
    ["paths", "-1", "-2", "-1", "--family", "orbit"],
    ["verify", "-1", "-2", "-1", "--order", "4"],
    ["verify", "-1", "-2", "-1", "--order", "8"],
    ["derive", "1", "2", "0"],
    ["oeis", "-1", "-2", "-1", "A999999", "--offline"],
    ["oeis", "-1", "-2", "-1", "B99", "--offline"],
    ["oeis", "-1", "0", "-1", "A010892", "--family", "gamma", "--hankel",
     "--offline", "--order", "21"],
    ["jfrac", "3", "2", "2", "--depth", "6"],
    ["hankel", "0", "0", "0", "--count", "6"],
    ["verify", "0", "0", "0", "--order", "9", "--format", "json"],
]


def _argv(command, abc, options, extra, fmt):
    options = options + ["--format", fmt]
    if abc == RATIONAL:
        # the frozen keys keep the `--` form; test_cli runs the bare form against it
        return [command, *options, "--", *abc, *extra]
    return [command, *abc, *extra, *options]


def cases() -> list[list[str]]:
    out = []
    for abc in [*WORKED, RATIONAL, TORSION]:
        for command, options, extra in PER_CURVE:
            for fmt in FORMATS:
                out.append(_argv(command, abc, options, extra, fmt))
    return out + ERRORS


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(newline=""), io.StringIO(newline="")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@functools.cache
def _frozen() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_frozen():
    assert sorted(_frozen()) == sorted(_key(argv) for argv in cases())


def test_exit_codes_covered():
    assert {entry["code"] for entry in _frozen().values()} == {0, 1, 2, 3}


def test_json_output_has_no_float():
    def refuse(text):
        raise AssertionError(f"float {text} in JSON output")

    frozen = [entry for key, entry in _frozen().items() if "--format json" in key]
    assert frozen
    for entry in frozen:
        if entry["code"] == 0:
            json.loads(entry["stdout"], parse_float=refuse)


@pytest.mark.parametrize("argv", cases(), ids=_key)
def test_output_unchanged(argv):
    assert run(argv) == _frozen()[_key(argv)]


if __name__ == "__main__":
    frozen = {_key(argv): run(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(frozen)} cases to {GOLDEN}", file=sys.stderr)
