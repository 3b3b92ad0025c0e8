"""Command line front end.

Exit codes: 0 success, 1 a computed check or comparison failed, 2 invalid
input (singular curve, bad arguments), 3 sequence lookup or network failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .curve import Curve
from .oeis import (
    OEISFormatError,
    OEISLookupError,
    OEISNetworkError,
    compare_sequence,
    load_bfile,
)
from .paths import (
    BRUTE_FORCE_LIMIT,
    StepSet,
    brute_force_table,
    dp_count,
    stepset_for_g,
    stepset_for_gamma,
    stepset_orbit,
)
from .pipeline import derive_g, derive_gamma, full_verify
from .riordan import g_family_params, gamma_family_params
from .series import Series
from .transforms import (
    TorsionDepthError,
    _point_products,
    hankel_transform,
    jfrac_extract,
    jfrac_from_points,
    somos_params,
    somos_verify,
)


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text.strip()!r}")


def _emit(args, payload: dict, lines: list[str], rows: list[list]) -> None:
    if args.format == "json":
        import json
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        import csv
        csv.writer(sys.stdout).writerows(rows)
    else:
        for line in lines:
            print(line)


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _family_series(args, curve: Curve, order: int) -> Series:
    return (derive_g if args.family == "g" else derive_gamma)(curve, order)


# Each command returns (exit code, json payload, text lines, csv rows).


def _cmd_derive(args, curve: Curve):
    g = derive_g(curve, args.order)
    shift = curve.p + 1
    gamma = g.binomial(shift)
    am_g = g_family_params(curve.a, curve.b, curve.c)
    am_gamma = gamma_family_params(curve.a, curve.b, curve.c)
    sp = somos_params(curve)
    payload = {
        "curve": curve.to_dict(),
        "discriminant": str(curve.discriminant),
        "order": args.order,
        "g": _strs(g.coefficients()),
        "gamma": _strs(gamma.coefficients()),
        "binomial_shift": str(shift),
        "amatrix_g": am_g.to_dict(),
        "amatrix_gamma": am_gamma.to_dict(),
        "somos": {"r": str(sp.r), "s": str(sp.s)},
    }
    lines = [
        f"curve: a={curve.a} b={curve.b} c={curve.c} (discriminant {curve.discriminant})",
        "g:     " + ", ".join(payload["g"]),
        "gamma: " + ", ".join(payload["gamma"]),
        f"binomial shift g -> gamma: {shift}",
        f"A-matrix (g):     {am_g}",
        f"A-matrix (gamma): {am_gamma}",
        f"Somos-4 (r, s) = ({sp.r}, {sp.s})",
    ]
    rows = [["n", "g_n", "gamma_n"]]
    rows += [[n, str(g[n]), str(gamma[n])] for n in range(args.order)]
    return 0, payload, lines, rows


def _cmd_verify(args, curve: Curve):
    report = full_verify(curve, args.order)
    lines = [
        f"{'PASS' if ch.passed else 'FAIL'}  {ch.name} ({ch.detail})"
        for ch in report.checks
    ]
    lines.append("all checks passed" if report.all_pass else "SOME CHECKS FAILED")
    rows = [["check", "pass", "detail"]]
    rows += [[ch.name, ch.passed, ch.detail] for ch in report.checks]
    return (0 if report.all_pass else 1), report.to_dict(), lines, rows


def _stepset(args, curve: Curve) -> StepSet:
    if args.family == "g":
        return stepset_for_g(curve)
    if args.family == "gamma":
        return stepset_for_gamma(curve)
    return stepset_orbit(curve, args.r)


def _cmd_paths(args, curve: Curve):
    if args.family == "orbit" and args.r is None:
        raise ValueError("--family orbit needs --r")
    ss = _stepset(args, curve)
    table = dp_count(ss, args.rows)
    payload = {
        "curve": curve.to_dict(),
        "family": args.family,
        "steps": ss.to_dicts(),
        "origin_override": None
        if ss.origin_override is None
        else str(ss.origin_override),
        "rows": [_strs(row) for row in table],
    }
    lines = [f"step set: {ss}"]
    lines += [
        f"{n}: " + " ".join(_strs(row)) for n, row in enumerate(table)
    ]
    rows = [["n", "k", "count"]]
    rows += [
        [n, k, str(v)] for n, row in enumerate(table) for k, v in enumerate(row)
    ]
    same = True
    if args.brute:
        n_max = min(args.rows - 1, BRUTE_FORCE_LIMIT)
        same = table[: n_max + 1] == brute_force_table(ss, n_max)
        note = f"brute force to n = {n_max}: {'agrees' if same else 'MISMATCH'}"
        payload["brute_force"] = note
        lines.append(note)
    return (0 if same else 1), payload, lines, rows


def _cmd_hankel(args, curve: Curve):
    count = args.count if args.count is not None else (args.order + 1) // 2
    if count < 1:
        raise ValueError("count must be at least 1")
    prefix = _family_series(args, curve, 2 * count - 1).coefficients()
    h = hankel_transform(prefix, count)
    sp = somos_params(curve)
    sv = somos_verify(h, sp) if count >= 5 else None
    verdict = "not checked (needs 5 terms)"
    if sv is not None:
        skipped = f" (skipped zero divisors at {sv.skipped})" if sv.skipped else ""
        verdict = ("holds" if sv else "FAILS") + skipped
    same = True
    try:
        same = _point_products(curve, count) == h
        product_note = f"point product: {'agrees' if same else 'MISMATCH'}"
    except TorsionDepthError as exc:
        product_note = f"point product skipped: {exc}"
    payload = {
        "curve": curve.to_dict(),
        "family": args.family,
        "sequence": _strs(prefix),
        "hankel": _strs(h),
        "somos": {"r": str(sp.r), "s": str(sp.s), "ok": None if sv is None else bool(sv)},
        "point_product": product_note,
    }
    lines = [
        "sequence: " + ", ".join(payload["sequence"]),
        "hankel:   " + ", ".join(payload["hankel"]),
        f"Somos-4 (r, s) = ({sp.r}, {sp.s}): {verdict}",
        product_note,
    ]
    rows = [["n", "hankel_n"]]
    rows += [[n, str(v)] for n, v in enumerate(h)]
    return (0 if same and (sv is None or bool(sv)) else 1), payload, lines, rows


def _cmd_eds(args, curve: Curve):
    count = args.count if args.count is not None else args.order
    w = _strs(curve.eds(count))
    payload = {"curve": curve.to_dict(), "eds": w}
    rows = [["n", "W_n"]] + [[n, v] for n, v in enumerate(w)]
    return 0, payload, ["W: " + ", ".join(w)], rows


def _cmd_points(args, curve: Curve):
    pts = curve.multiples(args.count)
    payload = {
        "curve": curve.to_dict(),
        "points": [p.to_dict() for p in pts],
    }
    lines = [f"[{k}]P = {p}" for k, p in enumerate(pts, start=1)]
    if pts[-1].is_infinity:
        lines.append(f"the base point has order {len(pts)}")
    rows = [["k", "x", "y"]]
    rows += [
        [k, "inf" if p.is_infinity else str(p.x), "inf" if p.is_infinity else str(p.y)]
        for k, p in enumerate(pts, start=1)
    ]
    return 0, payload, lines, rows


def _cmd_jfrac(args, curve: Curve):
    routes = {}  # the requested routes to the J-fraction, series first
    if args.source != "points":
        target = derive_g(curve, args.order).binomial(args.shift)
        routes["series"] = jfrac_extract(target, args.depth)
    if args.source != "series":
        routes["points"] = jfrac_from_points(curve, args.shift, args.depth)
    payload: dict = {
        "curve": curve.to_dict(),
        "shift": str(args.shift),
        "depth": args.depth,
    }
    payload |= {f"from_{name}": jf.to_dict() for name, jf in routes.items()}
    lines = [f"from {name}: {jf}" for name, jf in routes.items()]
    rows = [["source", "j", "b_j", "lambda_j"]]
    rows += [
        [name, j, str(b), str(jf.lam[j]) if j < len(jf.lam) else ""]
        for name, jf in routes.items()
        for j, b in enumerate(jf.b)
    ]
    same = True
    if len(routes) == 2:
        same = routes["series"] == routes["points"]
        payload["agree"] = same
        lines.append("the two routes " + ("agree" if same else "DISAGREE"))
    return (0 if same else 1), payload, lines, rows


def _cmd_oeis(args, curve: Curve):
    series = _family_series(args, curve, args.order)
    if args.hankel:
        count = (args.order + 1) // 2
        seq = hankel_transform(series.prefix(2 * count - 1), count)
        what = f"hankel({args.family})"
    else:
        seq = series.coefficients()
        what = args.family
    bfile = load_bfile(args.anum, offline=args.offline)
    result = compare_sequence(seq, bfile)
    payload = {
        "anum": bfile.anum,
        "source": bfile.source,
        "terms": len(bfile),
        "what": what,
        "result": result.to_dict(),
    }
    if result.matched:
        lines = [
            f"{bfile.anum} ({bfile.source}, {len(bfile)} terms): "
            f"{what} MATCHES at offset {result.offset} over {result.compared} terms"
        ]
    else:
        mm = result.first_mismatch
        where = (
            f"first mismatch at position {mm[0]}: ours {mm[1]}, theirs {mm[2]}"
            if mm
            else "sequences too short to compare"
        )
        lines = [f"{bfile.anum} ({bfile.source}): {what} DOES NOT MATCH; {where}"]
    rows = [["anum", "source", "matched", "offset", "compared"]]
    rows.append(
        [bfile.anum, bfile.source, result.matched, result.offset, result.compared]
    )
    return (0 if result.matched else 1), payload, lines, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ec-riordan",
        description="Series, Riordan arrays, lattice paths, Hankel transforms "
        "and continued fractions attached to a family of elliptic curves, "
        "all in exact rational arithmetic.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("a", type=_rat, help="coefficient a of the curve")
    common.add_argument("b", type=_rat, help="coefficient b of the curve")
    common.add_argument("c", type=_rat, help="coefficient c of the curve")
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    # points and paths read no order, so they take the common options only
    ordered = argparse.ArgumentParser(add_help=False, parents=[common])
    ordered.add_argument(
        "--order", type=int, default=32, help="series truncation order (default 32)"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", parents=[ordered], help="series and parameters for a curve")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify", parents=[ordered], help="run every cross-check on a curve")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("paths", parents=[common], help="weighted lattice path triangle")
    p.add_argument("--family", choices=("g", "gamma", "orbit"), default="g")
    p.add_argument("--r", type=_rat, default=None, help="orbit index for --family orbit")
    p.add_argument("--rows", type=int, default=8, help="triangle rows (default 8)")
    p.add_argument(
        "--brute",
        action="store_true",
        help=f"cross-check against exhaustive search (n <= {BRUTE_FORCE_LIMIT})",
    )
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("hankel", parents=[ordered], help="Hankel transform and Somos-4 check")
    p.add_argument("--family", choices=("g", "gamma"), default="g")
    p.add_argument("--count", type=int, default=None, help="number of determinants")
    p.set_defaults(func=_cmd_hankel)

    p = sub.add_parser("eds", parents=[ordered], help="elliptic divisibility sequence")
    p.add_argument("--count", type=int, default=None, help="last index (default --order)")
    p.set_defaults(func=_cmd_eds)

    p = sub.add_parser("points", parents=[common], help="multiples of the base point")
    p.add_argument("--count", type=int, default=8, help="how many multiples (default 8)")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("jfrac", parents=[ordered], help="Jacobi continued fraction")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--shift", type=_rat, default=Fraction(0), help="binomial shift of g")
    p.add_argument(
        "--source", choices=("series", "points", "both"), default="both"
    )
    p.set_defaults(func=_cmd_jfrac)

    p = sub.add_parser("oeis", parents=[ordered], help="compare against an OEIS b-file")
    p.add_argument("anum", help="OEIS A-number, e.g. A025243")
    p.add_argument("--family", choices=("g", "gamma"), default="gamma")
    p.add_argument("--hankel", action="store_true", help="compare the Hankel transform instead")
    p.add_argument("--offline", action="store_true", help="bundled fixtures only")
    p.set_defaults(func=_cmd_oeis)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:  # exact values outgrow str()'s digit limit: lift it for this call
        sys.set_int_max_str_digits(0)
    # argparse reads -1/3 as an option: a leading space, which Fraction and
    # int ignore, makes a value of each token that starts with "-" and a digit
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + t if re.match(r"-[\d.]", t) else t for t in argv]
    try:
        args = build_parser().parse_args(argv)
        code, payload, lines, rows = args.func(args, Curve(args.a, args.b, args.c))
        _emit(args, payload, lines, rows)
        sys.stdout.flush()
    except (OEISNetworkError, OEISLookupError, OEISFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # `| head`: exit 1 quietly, the rest of stdout to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
