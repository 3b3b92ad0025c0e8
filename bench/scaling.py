"""Per-layer scaling table: each layer timed at orders 24, 48, 96 and 192.

    python3 bench/scaling.py --out bench/BENCH_1.json

Run from the root of a source checkout.  Every cell (layer, curve, order)
runs in a fresh interpreter with a wall-clock budget of BUDGET_S seconds; a
cell over budget is stopped and recorded as "did not finish", and so are
the larger orders of that layer and curve.  A cell reports the median of
up to three timed calls (one when a call takes over a second) and the
largest numerator or denominator bit length in the layer's input or
result.  Inputs of each call (the series g, the curve) are built before
its timer starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ORDERS = (24, 48, 96, 192)
BUDGET_S = 20.0
CURVES = ((-1, -2, -1), (-2, -5, 1), (2, -5, -1), (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)))


def kernel_g(curve, n: int):
    """g from the A-matrix kernel equation g = 1 + gamma x + alpha x g +
    beta x^2 g + delta x^3 g^2, an O(n^2) recurrence.  It only builds the
    inputs of other layers, so that large orders time the layer and not
    the reversion behind derive_g."""
    from ec_riordan.riordan import g_family_params
    from ec_riordan.series import Series

    am = g_family_params(curve.a, curve.b, curve.c)
    g: list[Fraction] = []
    for k in range(n):
        v = Fraction(int(k == 0)) + (am.gamma if k == 1 else 0)
        if k >= 1:
            v += am.alpha * g[k - 1]
        if k >= 2:
            v += am.beta * g[k - 2]
        if k >= 3:
            v += am.delta * sum(g[i] * g[k - 3 - i] for i in range(k - 2))
        g.append(v)
    return Series(g)


def _render(payload):
    """cli's output rendering of one payload in all three formats."""
    from ec_riordan import cli

    with contextlib.redirect_stdout(io.StringIO()) as out:
        for fmt in ("text", "json", "csv"):
            cli._emit(argparse.Namespace(format=fmt), *payload)
    return out.getvalue()


def _payload(c, n):
    """What `derive` renders for g at order n (a dict, text lines and csv
    rows), and g itself for the cell's coefficient bits."""
    g = kernel_g(c, n)
    text = [str(v) for v in g.coefficients()]
    rows = [["n", "g_n"]] + [[k, v] for k, v in enumerate(text)]
    return ({"g": text}, ["g: " + ", ".join(text)], rows), g


def _layers():
    from ec_riordan import oeis, paths, pipeline, riordan, series, transforms

    g_of = kernel_g

    def xg(c, n):
        return g_of(c, n).shift_up(1)

    # layer -> (make input from (curve, n), timed call on that input)
    return {
        "series.mul": (g_of, lambda g: g * g),
        "series.div": (g_of, lambda g: series.Series.one(g.order) / g),
        "series.sqrt": (lambda c, n: series.Series.poly(
            [1, 2 * (c.a - 2 * c.c), c.a * c.a - 4 * c.b, 4], n), lambda r: r.sqrt()),
        "series.compose": (lambda c, n: xg(c, n - 1), lambda u: series.catalan_gf(u.order).compose(u)),
        "series.revert": (lambda c, n: xg(c, n - 1), lambda u: u.revert()),
        "series.binomial": (lambda c, n: (g_of(c, n), c.a - 2 * c.c + 1), lambda a: a[0].binomial(a[1])),
        "pipeline.derive_g": (lambda c, n: (c, n), lambda a: pipeline.derive_g(*a)),
        "pipeline.amatrix_gf": (lambda c, n: (c, n), lambda a: pipeline.closed_form_g(*a)),
        "pipeline.coefficient_formula": (lambda c, n: (c, n), lambda a: [
            pipeline.g_coefficient_formula(a[0], k) for k in range(a[1])]),
        "pipeline.full_verify": (lambda c, n: (c, n), lambda a: pipeline.full_verify(*a)),
        "transforms.hankel": (lambda c, n: g_of(c, n), lambda g: transforms.hankel_transform(
            g.prefix(2 * ((g.order + 1) // 2) - 1), (g.order + 1) // 2)),
        "transforms.jfrac_extract": (g_of, lambda g: transforms.jfrac_extract(g, (g.order - 1) // 2)),
        "transforms.jfrac_eval": (lambda c, n: (transforms.jfrac_from_points(c, 0, n // 2), n),
                                  lambda a: transforms.jfrac_eval(*a)),
        "transforms.jfrac_from_points": (lambda c, n: (c, n // 2),
                                         lambda a: transforms.jfrac_from_points(a[0], 0, a[1])),
        "transforms.somos_verify": (lambda c, n: (c.eds(n), transforms.somos_params(c)),
                                    lambda a: transforms.somos_verify(*a)),
        "curve.multiples": (lambda c, n: (c, n), lambda a: a[0].multiples(a[1])),
        "curve.eds": (lambda c, n: (c, n), lambda a: a[0].eds(a[1])),
        "curve.solve_y": (lambda c, n: (c, n), lambda a: a[0].solve_y(a[1])),
        "riordan.build": (lambda c, n: (g_of(c, n), xg(c, n - 1), n), lambda a: riordan.riordan_build(*a)),
        "riordan.pseudo_involution": (lambda c, n: (g_of(c, n), n),
                                      lambda a: riordan.pseudo_involution_check(*a)),
        "paths.dp_count": (lambda c, n: (paths.stepset_for_g(c), n), lambda a: paths.dp_count(*a)),
        "paths.brute_force": (lambda c, n: (paths.stepset_for_g(c), n // 8),
                              lambda a: paths.brute_force_table(*a)),
        "oeis.load_bfile": (lambda c, n: "A025243", lambda anum: oeis.load_bfile(anum, offline=True)),
        "oeis.compare": (lambda c, n: (oeis.load_bfile("A025243", offline=True), n),
                         lambda a: oeis.compare_sequence(a[0].values[: a[1]], a[0])),
        "cli.render": (_payload, lambda a: _render(a[0])),
    }


def _bits(obj) -> int:
    """Largest numerator or denominator bit length anywhere in obj."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int):
        return obj.bit_length()
    if hasattr(obj, "_coeffs"):
        return _bits(obj._coeffs)
    if hasattr(obj, "lam"):
        return _bits(list(obj.b) + list(obj.lam))
    if hasattr(obj, "rows"):
        return _bits(obj.rows)
    if hasattr(obj, "anum"):
        return _bits(list(obj.values))
    if hasattr(obj, "is_infinity"):
        return 0 if obj.is_infinity else _bits([obj.x, obj.y])
    if isinstance(obj, (list, tuple)):
        return max((_bits(v) for v in obj), default=0)
    return 0


def run_cell(layer: str, abc: list[str], order: int) -> dict:
    """Time one cell in this process and return its record."""
    from ec_riordan.curve import Curve
    from ec_riordan.paths import SearchSpaceTooLargeError
    from ec_riordan.pipeline import derive_g

    make, call = _layers()[layer]
    curve = Curve(*(Fraction(v) for v in abc))
    times = []
    result = None
    while len(times) < 3 and (not times or times[-1] < 1.0):
        arg = make(curve, order)
        start = time.perf_counter()
        try:
            result = call(arg)
        except SearchSpaceTooLargeError as exc:  # brute force past the library's limit
            return {"status": f"not run: {exc}"}
        times.append(time.perf_counter() - start)
    if layer == "pipeline.full_verify":
        result = derive_g(curve, order)  # the report has no coefficients; g is what it verifies
    return {"seconds": statistics.median(times), "reps": len(times),
            "max_coeff_bits": max(_bits(arg), _bits(result)), "status": "ok"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="where to write the table (JSON)")
    parser.add_argument("--cell", metavar="LAYER,A,B,C,ORDER", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "ec_riordan" / "__init__.py").is_file():
        sys.exit(f"scaling: no library at {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    if args.cell:
        layer, a, b, c, order = args.cell.split(",")
        print(json.dumps(run_cell(layer, [a, b, c], int(order))))
        return 0
    if args.out is None:
        parser.error("--out is required")

    cells = []
    for layer in _layers():
        for abc in CURVES:
            curve = [str(v) for v in abc]
            gave_up = False
            for order in ORDERS:
                record = {"layer": layer, "curve": curve, "order": order}
                if gave_up:
                    record["status"] = "did not finish (a smaller order exceeded the budget)"
                    cells.append(record)
                    continue
                # "--cell=..." in one word: argparse would read -1/3 as a flag
                cell = f"--cell={layer},{','.join(curve)},{order}"
                cmd = [sys.executable, str(Path(__file__).resolve()), cell]
                try:
                    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                          timeout=BUDGET_S, check=True)
                except subprocess.TimeoutExpired:
                    gave_up = True
                    record["status"] = f"did not finish within {BUDGET_S:g} s"
                else:
                    record.update(json.loads(done.stdout.splitlines()[-1]))
                cells.append(record)
                print(json.dumps(record), flush=True)

    table = {
        "what": "per-layer seconds (median of up to 3 calls) and largest coefficient bits",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "processor": platform.processor() or platform.machine()},
        "budget_s": BUDGET_S,
        "orders": list(ORDERS),
        "cells": cells,
    }
    args.out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
