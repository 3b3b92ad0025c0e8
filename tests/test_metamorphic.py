"""Metamorphic checks: one curve seen through a change of variables.

y -> y + s*x fixes the base point P = (0, 0) and maps the curve (a, b, c)
to (a - 2s, b - a*s + s^2, c - s). It keeps p = a - 2c and q = b - ac + c^2,
and so the discriminant. It keeps the x of every multiple of P, and with it
the series g and gamma, their A-matrices, triangles, Hankel minors,
J-fractions and divisibility sequence. No route in the library
uses this symmetry, so requiring the same objects on both curves checks
every route independently of the frozen outputs.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from ec_riordan import Curve, full_verify
from ec_riordan.cli import main
from test_curve import random_rational_curve


def sheared(cur: Curve, s: F) -> Curve:
    a, b, c = cur.a, cur.b, cur.c
    return Curve(a - 2 * s, b - a * s + s * s, c - s)


def pairs(seed: int, count: int):
    """Seeded rational curves, each with a rational shear s != 0."""
    rng = random.Random(seed)
    for _ in range(count):
        cur = random_rational_curve(rng, span=3, den=4)
        s = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        yield cur, sheared(cur, s)


def test_p_q_and_discriminant_are_invariant():
    for cur, twin in pairs(71, 800):
        assert (cur.a, cur.b, cur.c) != (twin.a, twin.b, twin.c)
        assert (cur.p, cur.q, cur.discriminant) == (twin.p, twin.q, twin.discriminant)


def test_full_verify_report_is_invariant():
    seen = set()
    for cur, twin in pairs(72, 40):
        report, other = full_verify(cur, 12).to_dict(), full_verify(twin, 12).to_dict()
        assert report.pop("curve") != other.pop("curve")
        assert report == other, (cur, twin)
        seen.update(check["detail"].startswith("skipped") for check in report["checks"])
    assert seen == {True, False}  # torsion curves, whose points rows skip, are among them


# (subcommand, options); each runs with --format json
COMMANDS = [
    ("derive", ["--order", "12"]),
    ("hankel", ["--family", "g", "--order", "12"]),
    ("hankel", ["--family", "gamma", "--count", "6"]),
    ("jfrac", ["--depth", "4", "--shift", "1/3"]),
    ("eds", ["--count", "10"]),
    ("paths", ["--family", "gamma", "--rows", "6"]),
    ("paths", ["--family", "orbit", "--r", "-1/2", "--rows", "5"]),
]


def run_json(command: str, options: list[str], cur: Curve) -> tuple[int, object]:
    """Exit code and the JSON payload without its curve entry (stderr on failure)."""
    argv = [command, *options, "--format", "json", "--", *map(str, (cur.a, cur.b, cur.c))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return code, err.getvalue()
    payload = json.loads(out.getvalue())
    payload.pop("curve")
    return code, payload


@pytest.mark.parametrize(
    "command, options", COMMANDS, ids=[f"{c} {' '.join(o)}" for c, o in COMMANDS]
)
def test_cli_payloads_are_invariant(command, options):
    codes = set()
    for cur, twin in pairs(73, 12):
        result = run_json(command, options, cur)
        assert result == run_json(command, options, twin), (command, cur, twin)
        codes.add(result[0])
    assert 0 in codes
