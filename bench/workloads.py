"""Seeded operation schedules for the benchmark workloads.

A run of a workload repeats one list of operations, a pass, several
times.  The list is a fixed mix of operation slots (orders, subcommands,
sizes) whose curves, formats and order come from the seed.  Fixing the mix
keeps every run's share of cheap and expensive operations the same, so
latency quantiles move with the code and not with the draw.  The same
seed always gives the same operations, and every drawn curve is checked at
generation time: it must be nonsingular, and operations that need affine
multiples of P get a curve whose multiples are affine with nonzero x that
far.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ec_riordan.curve import Curve, SingularCurveError

WORKED = ((-1, -2, -1), (-2, -5, 1), (2, -5, -1))
WORKED_RATIONAL = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
# Base points of finite order; full_verify skips the J-fraction checks here.
TORSION = ((3, 2, 2), (1, 1, 1), (-2, -1, -2), (3, 3, 2), (0, 1, 0), (2, 2, 1))

# Bundled OEIS fixtures with a curve, family and flags, and the exit code
# the comparison must give (1 is a reported mismatch, not a failure).
OEIS_CASES = (
    ((-1, -2, -1), "A025243", ["--family", "gamma"], 0),
    ((-1, 0, -1), "A023431", ["--family", "gamma"], 0),
    ((-1, 0, -1), "A010892", ["--family", "gamma", "--hankel"], 0),
    ((-1, -2, -1), "A000108", ["--family", "gamma"], 1),
)

# A run repeats one seeded list of operations, a pass, several times, and
# its latency quantiles are taken over all the calls of all passes.  A list
# is laid out by cost, from the bottom: a body of cheap calls, mostly on
# drawn curves; a middle group of nine fixed calls on the worked curves; an
# upper group; and at the top a tail group of five calls of one fixed
# operation.  The body has as many calls as the two groups above the middle,
# so the median falls in the middle of the middle group, and the tail value,
# with ten calls beyond it, falls in the tail group: the top group of a run
# of three or more passes holds at least fifteen calls.  Both hold on every
# seed and for any number of passes, so the draw moves the body, and with it
# the throughput, only.
VERIFY_INT_BODY = 16  # eight drawn curves and one torsion curve
VERIFY_INT_MIDDLE = 20  # the worked curves, three times each
VERIFY_INT_UPPER = 24  # the worked curves, four calls in turn
VERIFY_INT_TAIL = 32  # (-1, -2, -1), five times
VERIFY_RATIONAL_BODY = 12  # ten drawn curves
VERIFY_RATIONAL_MIDDLE = 14  # (1/2, -1/3, 2/5), nine times
VERIFY_RATIONAL_UPPER = 18  # (1/2, -1/3, 2/5) four times, and a drawn curve at 20
VERIFY_RATIONAL_TAIL = 22  # (1/2, -1/3, 2/5), five times
FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind "verify" calls full_verify(Curve(*curve), order); kind "cli" calls
    cli.main(argv) and expects exit code `expect`.
    """

    kind: str
    curve: tuple[Fraction, Fraction, Fraction]
    order: int = 0
    argv: tuple[str, ...] = ()
    command: str = ""
    fmt: str = ""
    family: str = ""
    size: int = 0
    expect: int = 0


def _fractions(abc) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(Fraction(v) for v in abc)  # type: ignore[return-value]


def _nonsingular(abc) -> bool:
    try:
        Curve(*abc)
    except SingularCurveError:
        return False
    return True


def _affine_depth(abc, depth: int) -> bool:
    """True when [1]P .. [depth+2]P are affine and [2]P.. have x != 0."""
    pts = Curve(*abc).multiples(depth + 2)
    if len(pts) < depth + 2 or pts[-1].is_infinity:
        return False
    return all(p.x != 0 for p in pts[1:])


def draw_int_curve(rng: random.Random, bound: int = 3, depth: int = 24):
    """A nonsingular integer curve with |a|, |b|, |c| <= bound and P of
    infinite order (checked to depth)."""
    while True:
        abc = tuple(rng.randint(-bound, bound) for _ in range(3))
        if _nonsingular(abc) and _affine_depth(abc, depth):
            return _fractions(abc)


def draw_rational_curve(rng: random.Random, depth: int = 24):
    """A nonsingular curve with parameters n/d, |n| <= 3, d <= 5, at least
    one of them not an integer, and P of infinite order."""
    while True:
        abc = tuple(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 5))) for _ in range(3)
        )
        if all(v.denominator == 1 for v in abc):
            continue
        if _nonsingular(abc) and _affine_depth(abc, depth):
            return abc


def _verify_ops(fixed) -> list[Op]:
    return [Op("verify", _fractions(c), order=o) for c, o in fixed]


def verify_int_pass(rng: random.Random) -> list[Op]:
    """Eight drawn curves and one torsion curve at order 16; the worked
    curves three times each at order 20 and four times in turn at 24, and
    (-1, -2, -1) five times at 32."""
    fixed = [(draw_int_curve(rng), VERIFY_INT_BODY) for _ in range(8)]
    fixed.append((rng.choice(TORSION), VERIFY_INT_BODY))
    fixed += [(c, VERIFY_INT_MIDDLE) for c in WORKED * 3]
    fixed += [(WORKED[i % 3], VERIFY_INT_UPPER) for i in range(4)]
    fixed += [(WORKED[0], VERIFY_INT_TAIL)] * 5
    return _verify_ops(fixed)


def verify_rational_pass(rng: random.Random) -> list[Op]:
    """Ten drawn rational curves at order 12 and one at 20, and
    (1/2, -1/3, 2/5) nine times at order 14, four times at 18 and five
    times at 22."""
    fixed = [(draw_rational_curve(rng), VERIFY_RATIONAL_BODY) for _ in range(10)]
    fixed += [(WORKED_RATIONAL, VERIFY_RATIONAL_MIDDLE)] * 9
    fixed += [(WORKED_RATIONAL, VERIFY_RATIONAL_UPPER)] * 4
    fixed.append((draw_rational_curve(rng), 20))
    fixed += [(WORKED_RATIONAL, VERIFY_RATIONAL_TAIL)] * 5
    return _verify_ops(fixed)


def cli_op(command: str, abc, options: list[str], fmt: str, *, family: str = "",
           size: int = 0, expect: int = 0, anum: Optional[str] = None) -> Op:
    """Options first, then "--", then the curve: argparse would read a
    rational such as -1/3 as an option flag."""
    curve = _fractions(abc)
    argv = [command, *options, "--format", fmt, "--", *map(str, curve)]
    if anum is not None:
        argv.append(anum)
    return Op("cli", curve, argv=tuple(argv), command=command, fmt=fmt,
              family=family, size=size, expect=expect)


def cli_pass(rng: random.Random) -> list[Op]:
    """29 subcommand calls, the format of each drawn.

    A body of ten cheap calls: points, eds, derive --order 16 and paths
    without brute force (g and gamma) on any kind of curve, two oeis, and
    jfrac --depth 8/10 and verify --order 10 on drawn integer curves.  The
    middle: verify --order 14, three times on each worked curve.  The upper
    group, on the worked curves: derive --order 40, jfrac --depth 20, paths
    --rows 12 --brute, and hankel --count 16 of g and of gamma.  The tail
    group: hankel --count 24 of g on (-1, -2, -1), five times.
    """

    def fmt() -> str:
        return rng.choice(FORMATS)

    def anyc(depth: int = 24):
        """A worked, a drawn rational or a drawn integer curve."""
        pick = rng.random()
        if pick < 0.15:
            return _fractions(rng.choice(WORKED))
        if pick < 0.35:
            return draw_rational_curve(rng, depth)
        return draw_int_curve(rng, 3, depth)

    ops = [
        cli_op("points", anyc(32), ["--count", "32"], fmt(), size=32),
        cli_op("eds", anyc(), ["--count", "60"], fmt(), size=60),
        cli_op("derive", anyc(), ["--order", "16"], fmt(), size=16),
    ]
    ops += [cli_op("paths", anyc(), ["--family", family, "--rows", "15"], fmt(), family=family, size=15)
            for family in ("g", "gamma")]
    for abc, anum, flags, expect in rng.sample(OEIS_CASES, 2):
        ops.append(cli_op("oeis", abc, [*flags, "--offline", "--order", "21"], fmt(),
                          expect=expect, anum=anum))
    ops += [cli_op("jfrac", draw_int_curve(rng, 3, depth + 2),
                   ["--source", "both", "--depth", str(depth), "--order", str(2 * depth + 1)], fmt(), size=depth)
            for depth in (8, 10)]
    ops.append(cli_op("verify", draw_int_curve(rng), ["--order", "10"], fmt(), size=10))
    ops += [cli_op("verify", c, ["--order", "14"], fmt(), size=14) for c in WORKED * 3]
    e1, curve_b, curve_c = WORKED
    ops += [
        cli_op("derive", curve_b, ["--order", "40"], fmt(), size=40),
        cli_op("jfrac", curve_c, ["--source", "both", "--depth", "20", "--order", "41"], fmt(), size=20),
        cli_op("paths", e1, ["--family", "g", "--rows", "12", "--brute"], fmt(), family="g", size=12),
        cli_op("hankel", curve_b, ["--family", "g", "--count", "16"], fmt(), family="g", size=16),
        cli_op("hankel", curve_c, ["--family", "gamma", "--count", "16"], fmt(), family="gamma", size=16),
    ]
    ops += [cli_op("hankel", e1, ["--family", "g", "--count", "24"], fmt(), family="g", size=24)
            for _ in range(5)]
    return ops


WORKLOADS = {
    "verify-int": verify_int_pass,
    "verify-rational": verify_rational_pass,
    "cli-deep": cli_pass,
}


def schedule(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of a workload for one seed, in the order
    a pass issues them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
