"""Output checks for benchmark operations, run outside the timed region.

Every operation's result is read back from what a user would see (the
VerifyReport, or the CLI's stdout in text, json or csv) and checked three
ways:

* status: a verify report must pass every check; a CLI call must return
  its expected exit code, and json output must parse;
* an independent route: coefficients are checked against the A-matrix
  kernel equation, Hankel determinants against the divisibility sequence,
  path tables against the series, points against the curve equation;
* frozen literals: on the worked curves, the values pinned in the
  acceptance tests.

`check` returns a list of problems; an empty list means the operation
passed.  `canonical` gives the bytes that the per-run digest covers.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

from ec_riordan.curve import Curve, Point
from ec_riordan.pipeline import derive_g, derive_gamma
from ec_riordan.riordan import g_family_params, gamma_family_params, verify_kernel
from ec_riordan.series import Series

F = Fraction

# Frozen literals from tests/test_acceptance.py and tests/test_cli.py.
E1 = (F(-1), F(-2), F(-1))
CURVE_B = (F(-2), F(-5), F(1))
CURVE_C = (F(2), F(-5), F(-1))
LITERALS = {
    ("g", E1): [1, -1, 3, -8, 22, -59, 155, -396, 978, -2310, 5122, -10260, 16752],
    ("g", CURVE_B): [1, -1, 3, 2, 17, 51, 185, 664, 2333, 8360, 29717],
    ("gamma", CURVE_C): [1, 4, 18, 81, 368, 1686, 7786, 36224, 169700],
    ("hankel-g", E1): [1, 2, 1, -7, -16, -57, -113, 670, 3983, 23647, 140576],
    ("hankel-g", CURVE_B): [1, 2, -9, -17, -196, 593],
    ("hankel-gamma", CURVE_C): [1, 2, 7, -1, -100, -351],
    ("points", E1): [
        (F(0), F(0)), (F(-2), F(1)), (F(-1, 4), F(9, 8)), (F(14), F(50)),
        (F(16, 49), F(-169, 343)), (F(-399, 256), F(847, 4096)),
        (F(-1808, 3249), F(274576, 185193)),
    ],
    ("lam", E1): [F(2), F(1, 4), F(-14), F(-16, 49)],
    # (-1)^(n+1) W_n for n = 1..9
    ("eds-signed", CURVE_B): [1, 1, 2, -9, -17, -196, 593, 9657, 152710],
    ("paths-g", E1): [
        [1], [-1, 1], [3, -2, 1], [-8, 7, -3, 1], [22, -22, 12, -4, 1],
        [-59, 69, -43, 18, -5, 1],
    ],
    ("paths-gamma", CURVE_C): [
        [1], [4, 1], [18, 8, 1], [81, 52, 12, 1],
        [368, 306, 102, 16, 1], [1686, 1708, 739, 168, 20, 1],
    ],
    # sign vector of W_{n+2} against h_n for n <= 9
    ("signs", E1): "-+-+-+-+-+",
    ("signs", CURVE_B): "-+-+-+-+-+",
}


def _prefix_problem(name, got, want) -> list[str]:
    n = min(len(got), len(want))
    if n == 0 or got[:n] != want[:n]:
        return [f"{name} differs from the frozen literal"]
    return []


def _literal(key, curve, got, name) -> list[str]:
    want = LITERALS.get((key, curve))
    return [] if want is None else _prefix_problem(name, got, want)


# -- reading CLI output back -------------------------------------------------


def _csv_rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


def _csv_column(out: str, col: int) -> list[F]:
    return [F(row[col]) for row in _csv_rows(out)[1:]]


def _list_after(out: str, label: str) -> list[F]:
    for line in out.splitlines():
        if line.startswith(label):
            return [F(v) for v in line[len(label):].split(",")]
    raise ValueError(f"no line starting {label!r}")


def _fractions(values) -> list[F]:
    return [F(v) for v in values]


def read_derive(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        return {"g": _fractions(doc["g"]), "gamma": _fractions(doc["gamma"])}
    if fmt == "csv":
        return {"g": _csv_column(out, 1), "gamma": _csv_column(out, 2)}
    return {"g": _list_after(out, "g:"), "gamma": _list_after(out, "gamma:")}


def read_hankel(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        return {"hankel": _fractions(doc["hankel"]), "somos_ok": doc["somos"]["ok"],
                "product": doc["point_product"]}
    if fmt == "csv":
        return {"hankel": _csv_column(out, 1), "somos_ok": None, "product": ""}
    lines = out.splitlines()
    somos = next(line for line in lines if line.startswith("Somos-4"))
    return {"hankel": _list_after(out, "hankel:"),
            "somos_ok": None if "not checked" in somos else "FAILS" not in somos,
            "product": lines[-1]}


_JFRAC_TEXT = re.compile(r"b = \[(.*)\]; lambda = \[(.*)\]")


def _jfrac_text(line: str) -> tuple[list[F], list[F]]:
    b, lam = _JFRAC_TEXT.search(line).groups()
    split = lambda s: [F(v) for v in s.split(",")] if s else []  # noqa: E731
    return split(b), split(lam)


def read_jfrac(fmt: str, out: str) -> dict:
    found: dict = {}
    if fmt == "json":
        doc = json.loads(out)
        for key, name in (("from_series", "series"), ("from_points", "points")):
            if key in doc:
                found[name] = (_fractions(doc[key]["b"]), _fractions(doc[key]["lam"]))
        found["agree"] = doc.get("agree")
    elif fmt == "csv":
        for source, _, b, lam in _csv_rows(out)[1:]:
            bs, lams = found.setdefault(source, ([], []))
            bs.append(F(b))
            if lam:
                lams.append(F(lam))
        found["agree"] = None
    else:
        for line in out.splitlines():
            if line.startswith("from series:"):
                found["series"] = _jfrac_text(line)
            elif line.startswith("from points:"):
                found["points"] = _jfrac_text(line)
        found["agree"] = "the two routes agree" in out if "the two routes" in out else None
    return found


def read_paths(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        return {"rows": [_fractions(r) for r in doc["rows"]], "brute": doc.get("brute_force")}
    if fmt == "csv":
        rows: list[list[F]] = []
        for n, k, v in _csv_rows(out)[1:]:
            n, k = int(n), int(k)
            if k == 0:
                rows.append([])
            rows[n].append(F(v))
        return {"rows": rows, "brute": None}
    rows = []
    brute = None
    for line in out.splitlines()[1:]:
        if line.startswith("brute force"):
            brute = line
        else:
            rows.append([F(v) for v in line.split(":", 1)[1].split()])
    return {"rows": rows, "brute": brute}


def read_points(fmt: str, out: str) -> list:
    def point(x, y):
        return None if x == "inf" else (F(x), F(y))

    if fmt == "json":
        return [None if p.get("infinity") else (F(p["x"]), F(p["y"])) for p in json.loads(out)["points"]]
    if fmt == "csv":
        return [point(x, y) for _, x, y in _csv_rows(out)[1:]]
    pts = []
    for line in out.splitlines():
        if "]P = " not in line:
            continue
        text = line.split("]P = ", 1)[1]
        if text == "infinity":
            pts.append(None)
        else:
            x, y = text.strip("()").split(", ")
            pts.append((F(x), F(y)))
    return pts


def read_eds(fmt: str, out: str) -> list[F]:
    if fmt == "json":
        return _fractions(json.loads(out)["eds"])
    if fmt == "csv":
        return _csv_column(out, 1)
    return _list_after(out, "W:")


def read_matched(fmt: str, out: str) -> bool:
    if fmt == "json":
        return bool(json.loads(out)["result"]["matched"])
    if fmt == "csv":
        return _csv_rows(out)[1][2] == "True"
    return " MATCHES " in out


def read_verify(fmt: str, out: str) -> list[bool]:
    """Per-check pass flags; the text form's summary line must agree."""
    if fmt == "json":
        doc = json.loads(out)
        flags = [c["pass"] for c in doc["checks"]]
        return flags if doc["all_pass"] == all(flags) else flags + [False]
    if fmt == "csv":
        return [row[1] == "True" for row in _csv_rows(out)[1:]]
    lines = out.splitlines()
    flags = [line.startswith("PASS") for line in lines[:-1]]
    return flags if (lines[-1] == "all checks passed") == all(flags) else flags + [False]


# -- checks ------------------------------------------------------------------


def _kernel_problems(name: str, coeffs: list[F], am) -> list[str]:
    """g must satisfy the A-matrix kernel equation for u = x*g."""
    if not coeffs:
        return [f"{name} is empty"]
    if not verify_kernel(Series([F(0)] + coeffs), am):
        return [f"{name} fails the A-matrix kernel equation"]
    return []


def _eds_problems(curve: Curve, h: list[F]) -> list[str]:
    w = curve.eds(len(h) + 1)
    if any(abs(w[n + 2]) != abs(h[n]) for n in range(len(h))):
        return ["|h_n| differs from |W_(n+2)|"]
    return []


def check_verify_report(op, report) -> list[str]:
    problems = [f"check failed: {c.name}" for c in report.checks if not c.passed]
    if not report.checks or not report.all_pass:
        problems.append("report does not pass")
    signs = LITERALS.get(("signs", op.curve))
    if signs is not None:
        detail = next(c.detail for c in report.checks if c.name == "EDS magnitude vs Hankel")
        got = detail.split("sign vector ", 1)[1]
        n = min(len(got), len(signs))
        if got[:n] != signs[:n]:
            problems.append("sign vector differs from the frozen literal")
    return problems


def _check_derive(op, curve, fmt, out) -> list[str]:
    data = read_derive(fmt, out)
    problems = []
    for fam, params in (("g", g_family_params), ("gamma", gamma_family_params)):
        coeffs = data[fam]
        if len(coeffs) != op.size:
            problems.append(f"{fam} has {len(coeffs)} coefficients, want {op.size}")
        problems += _kernel_problems(fam, coeffs, params(*op.curve))
        problems += _literal(fam, op.curve, coeffs, fam)
    return problems


def _check_hankel(op, curve, fmt, out) -> list[str]:
    data = read_hankel(fmt, out)
    h = data["hankel"]
    problems = [] if len(h) == op.size else [f"{len(h)} determinants, want {op.size}"]
    if data["somos_ok"] is False:
        problems.append("Somos-4 reported failing")
    if "MISMATCH" in (data["product"] or ""):
        problems.append("point product reported mismatching")
    problems += _eds_problems(curve, h)
    return problems + _literal(f"hankel-{op.family}", op.curve, h, "hankel")


def _check_jfrac(op, curve, fmt, out) -> list[str]:
    data = read_jfrac(fmt, out)
    problems = []
    if data.get("agree") is False:
        problems.append("routes reported disagreeing")
    if "series" not in data or "points" not in data:
        return problems + ["missing a route"]
    if data["series"] != data["points"]:
        problems.append("series and points fractions differ")
    b, lam = data["points"]
    if len(lam) != op.size or len(b) != op.size:
        problems.append(f"depth {len(lam)}, want {op.size}")
    # lambda_j = -x([(j+1)]P), read off the group law directly
    pts = curve.multiples(op.size + 1)
    if any(lam[j] != -pts[j + 1].x for j in range(min(len(lam), len(pts) - 1))):
        problems.append("lambda differs from -x of the multiples")
    return problems + _literal("lam", op.curve, lam, "lambda")


def _check_paths(op, curve, fmt, out) -> list[str]:
    data = read_paths(fmt, out)
    rows = data["rows"]
    problems = []
    if len(rows) != op.size or any(len(r) != n + 1 for n, r in enumerate(rows)):
        problems.append("triangle has the wrong shape")
    series = (derive_g if op.family == "g" else derive_gamma)(curve, op.size)
    if [r[0] for r in rows] != series.coefficients():
        problems.append("column 0 differs from the series")
    if data["brute"] is not None and "agrees" not in data["brute"]:
        problems.append("brute force reported mismatching")
    return problems + _literal(f"paths-{op.family}", op.curve, rows, "triangle")


def _check_points(op, curve, fmt, out) -> list[str]:
    pts = read_points(fmt, out)
    problems = [] if len(pts) == op.size else [f"{len(pts)} points, want {op.size}"]
    if not pts or pts[0] != (F(0), F(0)):
        problems.append("first point is not P = (0, 0)")
    if any(p is not None and not curve.contains(Point(*p)) for p in pts):
        problems.append("a point is not on the curve")
    return problems + _literal("points", op.curve, pts, "multiples")


def _check_eds(op, curve, fmt, out) -> list[str]:
    w = read_eds(fmt, out)
    problems = [] if len(w) == op.size + 1 else [f"{len(w)} terms, want {op.size + 1}"]
    if w[:2] != [0, 1]:
        problems.append("W_0, W_1 are not 0, 1")
    # the bilinear identity of a divisibility sequence (trivial at n = 1)
    for n in range(2, 5):
        for m in range(n, len(w) - n):
            if w[m + n] * w[m - n] != (
                w[m + 1] * w[m - 1] * w[n] ** 2 - w[n + 1] * w[n - 1] * w[m] ** 2
            ):
                problems.append(f"bilinear identity fails at m={m}, n={n}")
    signed = [(-1) ** (n + 1) * w[n] for n in range(1, min(len(w), 10))]
    return problems + _literal("eds-signed", op.curve, signed, "W")


def _check_oeis(op, curve, fmt, out) -> list[str]:
    if read_matched(fmt, out) != (op.expect == 0):
        return ["match flag differs from the expected one"]
    return []


def _check_verify_cli(op, curve, fmt, out) -> list[str]:
    flags = read_verify(fmt, out)
    return [] if flags and all(flags) else ["a check failed"]


CLI_CHECKS = {
    "derive": _check_derive,
    "hankel": _check_hankel,
    "jfrac": _check_jfrac,
    "paths": _check_paths,
    "points": _check_points,
    "eds": _check_eds,
    "oeis": _check_oeis,
    "verify": _check_verify_cli,
}


def check_cli(op, result) -> list[str]:
    code, out, err = result
    if code != op.expect:
        return [f"exit code {code}, want {op.expect}: {err.strip()[:200]}"]
    if not out.strip():
        return ["no output"]
    if op.fmt == "json":
        try:
            json.loads(out)
        except ValueError as exc:
            return [f"json does not parse: {exc}"]
    try:
        return CLI_CHECKS[op.command](op, Curve(*op.curve), op.fmt, out)
    except (ValueError, KeyError, IndexError, StopIteration, AttributeError, ZeroDivisionError) as exc:
        return [f"output does not read back: {type(exc).__name__}: {exc}"]


def check(op, result) -> list[str]:
    """Problems with one operation's result; empty when it is correct."""
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    if op.kind == "verify":
        return check_verify_report(op, result)
    return check_cli(op, result)


def canonical(op, result) -> str:
    """The text of a result that the per-run digest covers."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}"
    if op.kind == "verify":
        return json.dumps(result.to_dict(), sort_keys=True)
    code, out, _ = result
    return f"{code}\n{out}"
