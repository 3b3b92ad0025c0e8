"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a numbered PASS/FAIL line through the scoreboard in
conftest.py, so a plain pytest run ends with a readable summary of all
twelve.  Comparisons are exact rational arithmetic throughout; there is
no tolerance anywhere.

Expected values are frozen literals.  Each was computed by a route
independent of the code path under test (cofactor determinants, the
curve group law, brute-force path walks, closed-form generating
functions) before being pinned here.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction as F

from conftest import record_criterion

from ec_riordan import (
    Curve,
    SingularCurveError,
    Series,
    amatrix_gf,
    brute_force_count,
    brute_force_table,
    closed_form_g,
    derive_g,
    derive_gamma,
    dp_count,
    g_coefficient_formula,
    g_family_params,
    gamma_coefficient_formula,
    gamma_family_params,
    hankel_point_product,
    hankel_transform,
    jfrac_eval,
    jfrac_extract,
    jfrac_from_points,
    orbit_shift,
    pseudo_involution_check,
    riordan_build,
    riordan_from_recurrence,
    somos_params,
    somos_params_from_amatrix,
    somos_verify,
    stepset_for_g,
    stepset_for_gamma,
    stepset_orbit,
)
from ec_riordan.oeis import load_bfile

E1 = (-1, -2, -1)
CURVE_B = (-2, -5, 1)
CURVE_C = (2, -5, -1)


def criterion(number, title):
    """Record one scoreboard line per test, FAIL on any exception."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                record_criterion(number, title, False, f"{type(exc).__name__}: {exc}")
                raise
            record_criterion(number, title, True, detail or "")

        return wrapper

    return deco


def frac_rows(rows):
    return [[F(v) for v in row] for row in rows]


def random_curve(rng, bound):
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        try:
            return Curve(a, b, c)
        except SingularCurveError:
            continue


# ----------------------------------------------------------------------
# 1. series pipeline on (-1,-2,-1)

E1_G13 = [1, -1, 3, -8, 22, -59, 155, -396, 978, -2310, 5122, -10260, 16752]


@criterion(1, "series derivation on (-1,-2,-1) and closed form to order 24")
def test_criterion_01():
    cur = Curve(*E1)
    assert derive_g(cur, 13).coefficients() == [F(v) for v in E1_G13]
    assert derive_g(cur, 24) == closed_form_g(cur, 24)
    return "13 frozen coefficients; reversion == closed form, 24 terms"


# ----------------------------------------------------------------------
# 2. Hankel transform on (-1,-2,-1)

E1_H11 = [1, 2, 1, -7, -16, -57, -113, 670, 3983, 23647, 140576]


@criterion(2, "Hankel transform on (-1,-2,-1), 11 terms")
def test_criterion_02():
    g = derive_g(Curve(*E1), 21)
    assert hankel_transform(g.coefficients(), 11) == [F(v) for v in E1_H11]
    return "11 frozen determinants"


# ----------------------------------------------------------------------
# 3. divisibility-sequence alignment |W_{n+2}| == |h_n|

# Signed reference for (-2,-5,1): (-1)^(n+1) W_n for n = 1..9.  The last
# entry is 152710: the bilinear recurrence, the cofactor determinants,
# and the point product all yield it, so that value is pinned here.
B_SIGNED_W = [1, 1, 2, -9, -17, -196, 593, 9657, 152710]


def sign_vector(w, h, upto):
    marks = []
    for n in range(upto + 1):
        if h[n] == 0:
            marks.append("0")
        else:
            marks.append("+" if (w[n + 2] > 0) == (h[n] > 0) else "-")
    return "".join(marks)


@criterion(3, "divisibility sequence vs Hankel, both worked curves")
def test_criterion_03():
    e1 = Curve(*E1)
    h1 = hankel_transform(derive_g(e1, 21).coefficients(), 11)
    w1 = e1.eds(11)
    assert all(abs(w1[n + 2]) == abs(h1[n]) for n in range(10))
    sv1 = sign_vector(w1, h1, 9)
    assert sv1 == "-+-+-+-+-+"

    cb = Curve(*CURVE_B)
    wb = cb.eds(11)
    assert [(-1) ** (n + 1) * wb[n] for n in range(1, 10)] == [F(v) for v in B_SIGNED_W]
    hb = hankel_transform(derive_g(cb, 21).coefficients(), 11)
    assert all(abs(wb[n + 2]) == abs(hb[n]) for n in range(10))
    assert abs(hankel_point_product(cb, 7)) == abs(wb[9]) == 152710
    svb = sign_vector(wb, hb, 9)
    assert svb == "-+-+-+-+-+"
    return f"sign vectors {sv1} and {svb} (n <= 9)"


# ----------------------------------------------------------------------
# 4. second worked curve (-2,-5,1)

B_G11 = [1, -1, 3, 2, 17, 51, 185, 664, 2333, 8360, 29717]
B_H6 = [1, 2, -9, -17, -196, 593]
B_BINOMIAL_M3 = [1, -4, 18, -79, 344, -1482, 6314, -26576, 110372, -451531, 1815500]


@criterion(4, "series, Hankel prefix, binomial shift -3 on (-2,-5,1)")
def test_criterion_04():
    g = derive_g(Curve(*CURVE_B), 11)
    assert g.coefficients() == [F(v) for v in B_G11]
    assert hankel_transform(g.coefficients(), 6) == [F(v) for v in B_H6]
    assert g.binomial(-3).coefficients() == [F(v) for v in B_BINOMIAL_M3]
    return "11 coefficients, 6 determinants, 11 shifted coefficients"


# ----------------------------------------------------------------------
# 5. variant curve (2,-5,-1), second family

C_GAMMA9 = [1, 4, 18, 81, 368, 1686, 7786, 36224, 169700]
C_H6 = [1, 2, 7, -1, -100, -351]
C_TRIANGLE = [
    [1],
    [4, 1],
    [18, 8, 1],
    [81, 52, 12, 1],
    [368, 306, 102, 16, 1],
    [1686, 1708, 739, 168, 20, 1],
]


@criterion(5, "shifted family on (2,-5,-1): series, Hankel, path triangle")
def test_criterion_05():
    cur = Curve(*CURVE_C)
    assert derive_gamma(cur, 9).coefficients() == [F(v) for v in C_GAMMA9]
    gamma = derive_gamma(cur, 11)
    assert hankel_transform(gamma.coefficients(), 6) == [F(v) for v in C_H6]
    ss = stepset_for_gamma(cur)
    weights = {(dx, dy): w for dx, dy, w in ss.steps}
    assert weights == {(1, 1): 1, (1, 0): 4, (2, 0): 2, (2, -1): 1}
    assert ss.origin_override is None
    assert dp_count(ss, 6) == frac_rows(C_TRIANGLE)
    return "9 coefficients, 6 determinants, 6-row triangle from the step set"


# ----------------------------------------------------------------------
# 6. triangle construction routes agree on (-1,-2,-1)

E1_BELL5 = [[1], [-1, 1], [3, -2, 1], [-8, 7, -3, 1], [22, -22, 12, -4, 1]]
E1_BELL_ROW5 = [-59, 69, -43, 18, -5, 1]
E1_PLAIN5 = [[1], [-3, 1], [9, -4, 1], [-26, 15, -5, 1], [74, -52, 22, -6, 1]]


@criterion(6, "both triangle routes, override and plain, on (-1,-2,-1)")
def test_criterion_06():
    g = derive_g(Curve(*E1), 12)
    built = riordan_build(g, g.shift_up(1), 12).rows
    am = g_family_params(*E1)
    rec = riordan_from_recurrence(am, 12, t10_override=-1)
    assert built == rec
    assert built[:5] == frac_rows(E1_BELL5)
    # Row 5 is regenerated rather than copied from anywhere: both
    # construction routes must produce it identically.
    assert built[5] == rec[5] == [F(v) for v in E1_BELL_ROW5]
    plain = riordan_from_recurrence(am, 5)
    assert plain == frac_rows(E1_PLAIN5)
    return "routes identical to 12 rows; row 5 regenerated both ways"


# ----------------------------------------------------------------------
# 7. point multiples and the continued fraction built from them

E1_MULTIPLES = [
    (F(0), F(0)),
    (F(-2), F(1)),
    (F(-1, 4), F(9, 8)),
    (F(14), F(50)),
    (F(16, 49), F(-169, 343)),
    (F(-399, 256), F(847, 4096)),
    (F(-1808, 3249), F(274576, 185193)),
]


@criterion(7, "point multiples and continued fraction on (-1,-2,-1)")
def test_criterion_07():
    cur = Curve(*E1)
    pts = cur.multiples(7)
    assert [(p.x, p.y) for p in pts] == E1_MULTIPLES
    assert (pts[4].x, pts[4].y) == (F(16, 49), F(-169, 343))
    assert (pts[6].x, pts[6].y) == (F(-1808, 3249), F(274576, 185193))

    plain = jfrac_eval(jfrac_from_points(cur, shift=0, depth=8), 16)
    assert plain == derive_g(cur, 16)

    shifted = jfrac_eval(jfrac_from_points(cur, shift=2, depth=8), 16)
    reference = load_bfile("A025243", offline=True)
    assert shifted.coefficients() == [F(v) for v in reference.values[:16]]
    return "7 multiples; shift 0 gives g, shift 2 gives A025243, 16 terms"


# ----------------------------------------------------------------------
# 8. Somos-4 recurrence over worked plus random curves


@criterion(8, "Somos-4 recurrence on 22 curves, parameter forms agree")
def test_criterion_08():
    rng = random.Random(17)
    curves = [Curve(*E1), Curve(*CURVE_B)]
    while len(curves) < 22:
        curves.append(random_curve(rng, 3))

    skipped_total = 0
    for cur in curves:
        a, b, c = cur.a, cur.b, cur.c
        params = somos_params(cur)
        assert (params.r, params.s) == (1, -a * c + b + c * c)
        assert somos_params_from_amatrix(g_family_params(a, b, c)) == params
        assert somos_params_from_amatrix(gamma_family_params(a, b, c)) == params

        h = hankel_transform(derive_g(cur, 17).coefficients(), 9)
        check = somos_verify(h, params)
        assert check.ok
        # Every index with a vanishing divisor must be reported as
        # skipped, and every reported skip must be a real one.
        expected_skips = [n for n in range(4, len(h)) if h[n - 4] == 0]
        assert check.skipped == expected_skips
        assert sorted(check.checked + check.skipped) == list(range(4, len(h)))
        skipped_total += len(check.skipped)

    # Seed 17 was picked so the sample actually exercises the skip path.
    assert skipped_total >= 1
    return f"22 curves, {skipped_total} zero-divisor indices skipped and reported"


# ----------------------------------------------------------------------
# 9. pseudo-involutions

T322_MATRIX = [
    [1],
    [-1, 1],
    [1, -2, 1],
    [0, 3, -3, 1],
    [-2, -2, 6, -4, 1],
    [5, -3, -7, 10, -5, 1],
    [-7, 14, 0, -16, 15, -6, 1],
]


@criterion(9, "pseudo-involution holds exactly when a*c - b - c^2 = 0")
def test_criterion_09():
    g322 = derive_gamma(Curve(3, 2, 2), 13)
    assert pseudo_involution_check(g322, 12)
    assert riordan_build(g322, g322.shift_up(1), 7).rows == frac_rows(T322_MATRIX)

    gm = derive_gamma(Curve(-1, 0, -1), 13)
    assert pseudo_involution_check(gm, 12)
    reference = load_bfile("A023431", offline=True)
    assert gm.coefficients() == [F(v) for v in reference.values[:13]]
    triangle = riordan_build(gm, gm.shift_up(1), 12).rows
    assert [row[0] for row in triangle] == [F(v) for v in reference.values[:12]]

    assert not pseudo_involution_check(derive_gamma(Curve(*E1), 13), 12)

    # Grid sweep: b = a*c - c^2 makes the invariant vanish, and bumping
    # b breaks it.  The series comes straight from the weight family so
    # grid members that would be singular as curves still participate.
    holds = fails = 0
    for a in range(-2, 3):
        for c in range(-2, 3):
            b = a * c - c * c
            assert pseudo_involution_check(amatrix_gf(gamma_family_params(a, b, c), 13), 12)
            holds += 1
            assert not pseudo_involution_check(
                amatrix_gf(gamma_family_params(a, b + 1, c), 13), 12
            )
            fails += 1
    assert holds == fails == 25
    return "two curves pass to 12 rows, 7x7 matrix pinned; 25-grid iff holds"


# ----------------------------------------------------------------------
# 10. dynamic programming vs brute-force path walks


@criterion(10, "path counts: dp == brute force to n = 10, column 0 == series")
def test_criterion_10():
    cur = Curve(*E1)
    g = derive_g(cur, 11)
    jobs = [(stepset_for_g(cur), 0), (stepset_for_gamma(cur), 2)]
    jobs += [(stepset_orbit(cur, r), r) for r in range(7)]

    for ss, r in jobs:
        table = dp_count(ss, 11)
        assert table == brute_force_table(ss, 10)
        assert [row[0] for row in table] == g.binomial(r).coefficients()
        # Tie in the single-cell walker as well.
        assert brute_force_count(ss, 7, 3) == table[7][3]
        assert brute_force_count(ss, 6, 0) == table[6][0]
    return "9 step sets, 11 rows each, the two counters agree"


# ----------------------------------------------------------------------
# 11. closed-form coefficient formulas

FORMULA_CURVES = [(-1, -2, -1), (-3, 0, -2), (3, 0, 1), (1, -2, 0), (-2, -5, 1), (2, -5, -1)]


@criterion(11, "coefficient formulas to n = 14; Hankel h1, h2 polynomials")
def test_criterion_11():
    for abc in FORMULA_CURVES:
        cur = Curve(*abc)
        g = derive_g(cur, 15).coefficients()
        gam = derive_gamma(cur, 15).coefficients()
        for n in range(15):
            assert g_coefficient_formula(cur, n) == g[n]
            assert gamma_coefficient_formula(cur, n) == gam[n]

    rng = random.Random(7)
    for _ in range(20):
        cur = random_curve(rng, 6)
        a, b, c = cur.a, cur.b, cur.c
        h = hankel_transform(derive_g(cur, 5).coefficients(), 3)
        assert h[1] == a * c - b - c * c
        assert h[2] == a * a * c - a * (b + 3 * c * c) + 2 * b * c + 2 * c**3 - 1
    return "6 curves x 15 terms x 2 formulas; h1, h2 on 20 random curves"


# ----------------------------------------------------------------------
# 12. randomized property suites, at least 100 cases each


def _random_series(rng, order, unit=False):
    coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order)]
    if unit:
        coeffs[0] = F(1)
    return Series(coeffs)


@criterion(12, "property suites, 100+ randomized cases each")
def test_criterion_12():
    # Series round-trips: multiply/divide, square root, reversion
    # composed back, binomial shift and its inverse.
    rng = random.Random(121)
    for _ in range(120):
        s = _random_series(rng, 8)
        t = _random_series(rng, 8, unit=True)
        assert (s * t) / t == s
        v = _random_series(rng, 8, unit=True)
        root = v.sqrt()
        assert root * root == v
        fc = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        fc[0], fc[1] = F(0), F(1)
        f = Series(fc)
        assert f.compose(f.revert()) == Series.x(8)
        r = F(rng.randint(-4, 4))
        assert s.binomial(r).binomial(-r) == s

    # Hankel invariance under binomial shifts and under a_n -> (-1)^n a_n.
    rng = random.Random(122)
    for _ in range(110):
        seq = [F(1)] + [F(rng.randint(-5, 5)) for _ in range(8)]
        base = hankel_transform(seq, 5)
        r = F(rng.randint(-3, 3))
        shifted = Series(seq).binomial(r).coefficients()
        assert hankel_transform(shifted, 5) == base
        flipped = [(-1) ** n * seq[n] for n in range(9)]
        assert hankel_transform(flipped, 5) == base

    # Lambda products rebuild the Hankel transform.
    rng = random.Random(123)
    done = 0
    while done < 100:
        cur = random_curve(rng, 4)
        h = hankel_transform(derive_g(cur, 13).coefficients(), 6)
        if any(v == 0 for v in h):
            continue  # quotient undefined at a vanishing determinant
        jf = jfrac_extract(derive_g(cur, 13), 5)
        for n in range(1, 6):
            prod = F(1)
            for k in range(1, n + 1):
                prod *= jf.lam[k - 1] ** (n + 1 - k)
            assert prod == h[n]
        done += 1

    # Bilinear identity for the divisibility sequences.
    rng = random.Random(124)
    for _ in range(110):
        w = random_curve(rng, 5).eds(12)
        n = rng.randint(1, 5)
        m = rng.randint(n, 12 - n)
        lhs = w[m + n] * w[m - n]
        rhs = w[m + 1] * w[m - 1] * w[n] ** 2 - w[n + 1] * w[n - 1] * w[m] ** 2
        assert lhs == rhs

    # Associativity of the group law on random point triples.
    rng = random.Random(125)
    done = 0
    while done < 100:
        cur = random_curve(rng, 4)
        pts = cur.multiples(6)  # shorter on torsion curves, ends at infinity
        p, q, s = (pts[rng.randint(0, len(pts) - 1)] for _ in range(3))
        assert cur.add(cur.add(p, q), s) == cur.add(p, cur.add(q, s))
        done += 1

    return "5 suites: 120, 110, 100, 110, 100 cases"
