"""Hankel transforms, Somos-4 checks, and Jacobi continued fractions.

The determinant oracles here are textbook cofactor expansion and a
row-pivoted integer Bareiss elimination of their own, run on every leading
minor, where the library forms the minors by the J-fraction product.  The
J-fraction oracle nests 1/(1 - b_j x - lambda_{j+1} x^2 * tail) from the
bottom up by series division, independently of the path table the library
runs; the untrimmed path table, every row filled to the top height, is a
second oracle for the trimmed one.  The point products are checked against
their defining product, formed afresh for every index.
"""

import math
import random
from fractions import Fraction as F

import pytest

from ec_riordan import (
    Curve,
    InsufficientDepthError,
    InsufficientTermsError,
    JFraction,
    Series,
    SingularCurveError,
    SomosParams,
    TorsionDepthError,
    catalan_gf,
    derive_g,
    derive_gamma,
    g_family_params,
    gamma_family_params,
    hankel_point_product,
    hankel_transform,
    jfrac_eval,
    jfrac_extract,
    jfrac_from_points,
    somos_params,
    somos_params_from_amatrix,
    somos_verify,
)
from ec_riordan.transforms import _hankel_jfrac, _point_products

E1 = (-1, -2, -1)


def det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def hankel_by_cofactor(seq, count):
    out = []
    for n in range(count):
        matrix = [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]
        out.append(det_cofactor(matrix))
    return out


def minor_by_elimination(seq, n):
    """h_n by its own row-pivoted Bareiss elimination, on integers.

    Row i of H is scaled by the lcm r_i of its denominators, then column j
    gives up its content c_j, so the integer matrix M has
    det H = det M * prod c_j / prod r_i and Bareiss divides M exactly
    (//).  Scaling by one lcm for the whole matrix would carry D^(2n) per
    entry where the two diagonal scalings carry D^n on a series whose
    denominators grow like D^k, as g's do on a rational curve.
    """
    m = [[F(v) for v in seq[i : i + n + 1]] for i in range(n + 1)]
    scale = F(1)
    for i, row in enumerate(m):
        r = math.lcm(*(v.denominator for v in row))
        m[i] = [int(v * r) for v in row]
        scale /= r
    for j in range(n + 1):
        c = math.gcd(*(row[j] for row in m))
        if c > 1:
            for row in m:
                row[j] //= c
            scale *= c
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n + 1) if m[i][k] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n + 1):
            for j in range(k + 1, n + 1):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n][n] * scale


def hankel_by_elimination(seq, count):
    return [minor_by_elimination(seq, n) for n in range(count)]


def jfrac_by_division(b, lam, order):
    tail = Series.one(order)
    for j in range(len(b) - 1, -1, -1):
        denom = Series.poly([1, -b[j]], order)
        if j < len(lam):
            denom = denom - (lam[j] * tail).shift_up(2)
        tail = Series.one(order) / denom
    return tail


def jfrac_eval_untrimmed(jf, order):
    """The path table with every row filled up to height min(depth, (order-1)/2)."""
    top = min(jf.depth, (order - 1) // 2)
    b = jf.b + (F(0),) * (top + 1 - len(jf.b))
    row = [F(1)] + [F(0)] * top
    coeffs = [row[0]]
    for _ in range(1, order):
        up = [F(0)] + row[:-1]
        down = [jf.lam[k] * row[k + 1] for k in range(top)] + [F(0)]
        row = [u + bk * r + d for u, bk, r, d in zip(up, b, row, down)]
        coeffs.append(row[0])
    return Series(coeffs)


def point_product_by_definition(curve, n):
    """h_n = prod_{k=0}^{n} (-x([(k+2)]P))^(n-k), from its own multiples."""
    pts = curve.multiples(n + 2)
    acc = F(1)
    for k in range(n + 1):
        acc *= (-pts[k + 1].x) ** (n - k)
    return acc


def random_rational(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return F(0)
    return F(rng.randint(-5, 5), rng.randint(1, 4))


def random_curve(rng, span=4):
    while True:
        try:
            return Curve(*(rng.randint(-span, span) for _ in range(3)))
        except SingularCurveError:
            continue


class TestHankel:
    def test_against_cofactor_oracle(self):
        rng = random.Random(41)
        for _ in range(100):
            seq = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(9)]
            assert hankel_transform(seq, 5) == hankel_by_cofactor(seq, 5)

    def test_catalan_hankel_is_all_ones(self):
        seq = catalan_gf(13).coefficients()
        assert hankel_transform(seq, 7) == [1] * 7

    def test_worked_curve(self):
        g = derive_g(Curve(*E1), 21)
        assert hankel_transform(g.coefficients(), 11) == [
            1, 2, 1, -7, -16, -57, -113, 670, 3983, 23647, 140576,
        ]

    def test_needs_enough_terms(self):
        with pytest.raises(InsufficientTermsError):
            hankel_transform([1, 2, 3], 3)

    def test_vanishing_minors_against_cofactor_oracle(self):
        # a leading minor that vanishes first, in the middle and last
        first = [F(0)] + [F(v) for v in range(1, 13)]
        ones = [F(1)] * 13
        torsion = derive_g(Curve(3, 2, 2), 13).coefficients()
        last = catalan_gf(13).coefficients()
        last[12] -= 1  # h_6 is affine in a_12 with slope h_5 = 1
        for seq in (first, ones, torsion, last):
            assert hankel_transform(seq, 7) == hankel_by_cofactor(seq, 7)
        assert hankel_transform(first, 7)[0] == 0
        assert hankel_transform(ones, 7) == [1] + [0] * 6
        assert hankel_transform(torsion, 7)[:3] == [1, 0, -1]
        assert hankel_transform(last, 7) == [1] * 6 + [0]

    def test_zero_pivot_fallback_against_cofactor_oracle(self):
        rng = random.Random(44)
        recovered = 0
        for _ in range(200):
            seq = [random_rational(rng, 0.5) for _ in range(11)]
            h = hankel_transform(seq, 6)
            assert h == hankel_by_cofactor(seq, 6)
            zero = h.index(0) if 0 in h else len(h)
            recovered += any(h[zero + 1 :])
        assert recovered > 20  # nonzero minors after a zero pivot

    def test_lambda_product_against_elimination(self):
        # a_0 = 0, 1 and neither in turn; half the terms zero, so a nonzero
        # minor often follows a zero one
        rng = random.Random(45)
        recovered = 0
        for case in range(45):
            count = rng.randint(1, 24)
            seq = [random_rational(rng, 0.5) for _ in range(2 * count - 1)]
            seq[0] = (F(0), F(1), F(-5, 3))[case % 3]
            h = hankel_transform(seq, count)
            assert h == hankel_by_elimination(seq, count)
            zero = h.index(0) if 0 in h else len(h)
            recovered += any(h[zero + 1 :])
        assert recovered >= 10

    def test_lambda_product_on_rational_curve(self):
        # 48 minors, past the cofactor oracle; eliminating every one of
        # them takes seconds, so every 11th is checked, the last included
        g = derive_g(Curve(F(1, 2), F(-1, 3), F(2, 5)), 95).coefficients()
        h = hankel_transform(g, 48)
        for n in range(3, 48, 11):
            assert h[n] == minor_by_elimination(g, n)

    def test_returns_the_fraction_it_read(self):
        # full_verify compares this fraction with the one from the points
        g = derive_g(Curve(*E1), 21)
        jf, h = _hankel_jfrac([3 * v for v in g.coefficients()], 11)
        assert jf == jfrac_extract(g, 10)
        plain = hankel_transform(g.coefficients(), 11)
        assert h == [3 ** (n + 1) * v for n, v in enumerate(plain)]
        assert _hankel_jfrac([0, 1, 2], 2) == (None, [0, -1])

    def test_binomial_invariance(self):
        rng = random.Random(42)
        for _ in range(110):
            seq = [F(rng.randint(-5, 5)) for _ in range(9)]
            r = F(rng.randint(-4, 4), rng.randint(1, 2))
            s = Series.poly(seq, 9)
            assert hankel_transform(seq, 5) == hankel_transform(
                s.binomial(r).coefficients(), 5
            )

    def test_sign_flip_invariance(self):
        rng = random.Random(43)
        for _ in range(110):
            seq = [F(rng.randint(-5, 5)) for _ in range(9)]
            flipped = [v if i % 2 == 0 else -v for i, v in enumerate(seq)]
            assert hankel_transform(seq, 5) == hankel_transform(flipped, 5)


class TestPointProduct:
    def test_equals_hankel_on_worked_curves(self):
        for abc in (E1, (-2, -5, 1), (2, -5, -1)):
            cur = Curve(*abc)
            g = derive_g(cur, 13)
            h = hankel_transform(g.coefficients(), 7)
            assert [hankel_point_product(cur, n) for n in range(7)] == h

    def test_torsion_stops_cleanly(self):
        cur = Curve(3, 2, 2)
        with pytest.raises(TorsionDepthError):
            hankel_point_product(cur, 2)

    def test_running_product_matches_definition(self):
        rng = random.Random(50)
        done = 0
        while done < 30:
            cur = random_curve(rng)
            if cur.multiples(10)[-1].is_infinity:
                continue
            done += 1
            got = _point_products(cur, 8)
            assert got == [point_product_by_definition(cur, n) for n in range(8)]
            assert got[-1] == hankel_point_product(cur, 7)

    def test_torsion_names_first_missing_index(self):
        # (3,2,2): [3]P is the point at infinity, so h_1 is the first
        # product that cannot be formed
        cur = Curve(3, 2, 2)
        assert _point_products(cur, 1) == [1]
        with pytest.raises(TorsionDepthError, match=r"^h_1 needs \[3\]P affine"):
            _point_products(cur, 5)


class TestSomos:
    def test_parameter_forms_agree(self):
        rng = random.Random(44)
        for _ in range(100):
            cur = random_curve(rng)
            sp = somos_params(cur)
            assert sp == SomosParams(F(1), -cur.a * cur.c + cur.b + cur.c ** 2)
            assert sp == somos_params_from_amatrix(
                g_family_params(cur.a, cur.b, cur.c)
            )
            assert sp == somos_params_from_amatrix(
                gamma_family_params(cur.a, cur.b, cur.c)
            )

    def test_hankel_satisfies_recurrence(self):
        cur = Curve(*E1)
        h = hankel_transform(derive_g(cur, 21).coefficients(), 11)
        check = somos_verify(h, somos_params(cur))
        assert check
        assert check.checked == list(range(4, 11))
        assert check.skipped == []

    def test_zero_divisors_are_skipped_and_reported(self):
        cur = Curve(-1, 0, -1)
        gam = derive_gamma(cur, 21)
        h = hankel_transform(gam.coefficients(), 11)
        assert 0 in h
        check = somos_verify(h, somos_params(cur))
        assert check
        assert check.skipped  # indices where the divisor term vanished
        for n in check.skipped:
            assert h[n - 4] == 0

    def test_detects_violation(self):
        bad = [F(1), F(1), F(1), F(1), F(5)]
        check = somos_verify(bad, SomosParams(F(1), F(1)))
        assert not check
        assert check.failures == [4]

    def test_needs_five_terms(self):
        with pytest.raises(InsufficientTermsError):
            somos_verify([F(1)] * 4, SomosParams(F(1), F(1)))


class TestJFractionExtract:
    def test_worked_curve_coefficients(self):
        g = derive_g(Curve(*E1), 11)
        jf = jfrac_extract(g, 5)
        assert jf.b == (F(-1), F(-3, 2), F(5, 2), F(-39, 7), F(-55, 112))
        assert jf.lam == (F(2), F(1, 4), F(-14), F(-16, 49), F(399, 256))
        assert not jf.exact

    def test_round_trip(self):
        rng = random.Random(45)
        for _ in range(40):
            cur = random_curve(rng)
            g = derive_g(cur, 13)
            jf = jfrac_extract(g, 6)
            depth = jf.depth
            back = jfrac_eval(jf, 2 * depth)
            assert back == g.truncate(2 * depth)

    def test_terminating_fraction(self):
        jf = jfrac_extract(Series.one(9) / Series.poly([1, -1], 9), 4)
        assert not jf.exact
        assert jf.b == (F(1),)
        assert jf.lam == ()
        # evaluating past the prefix needs the caller to assert the zero tail
        whole = JFraction(jf.b, jf.lam, exact=True)
        assert jfrac_eval(whole, 20) == Series.one(20) / Series.poly([1, -1], 20)

    def test_truncated_series_never_terminates(self):
        # 1/(1-x) through x^9, but coefficient 2 at x^12
        s = Series([1] * 12 + [2] + [1] * 7)
        jf = jfrac_extract(s.truncate(10), 4)
        assert not jf.exact
        with pytest.raises(InsufficientDepthError):
            jfrac_eval(jf, 20)

    def test_needs_order(self):
        with pytest.raises(InsufficientTermsError):
            jfrac_extract(Series.one(4), 2)

    def test_eval_depth_guard(self):
        jf = JFraction((F(1), F(1)), (F(1), F(1)))
        with pytest.raises(InsufficientDepthError):
            jfrac_eval(jf, 5)
        # an even order pins the depth named: order 2d + 2 needs d + 1
        with pytest.raises(InsufficientDepthError, match="^order 6 needs depth >= 3, have 2$"):
            jfrac_eval(jf, 6)


class TestJFractionPaths:
    def test_eval_matches_division_oracle(self):
        rng = random.Random(48)
        for _ in range(200):
            depth = rng.randint(0, 7)
            b = tuple(random_rational(rng) for _ in range(depth + rng.randint(0, 1)))
            lam = tuple(random_rational(rng) for _ in range(depth))
            if depth:
                order = rng.randint(1, 2 * depth)
                got = jfrac_eval(JFraction(b, lam), order)
                assert got == jfrac_by_division(b, lam, order)
            got = jfrac_eval(JFraction(b, lam, exact=True), 12)
            assert got == jfrac_by_division(b, lam, 12)

    def test_trimmed_eval_matches_untrimmed_table(self):
        rng = random.Random(51)
        for _ in range(100):
            depth = rng.randint(0, 8)
            b = tuple(random_rational(rng) for _ in range(depth + rng.randint(0, 1)))
            lam = tuple(random_rational(rng) for _ in range(depth))
            for exact in (False, True):
                jf = JFraction(b, lam, exact=exact)
                # past 2 * depth only a terminating fraction is defined
                for order in range(1, 2 * depth + 1 + 4 * exact):
                    assert jfrac_eval(jf, order) == jfrac_eval_untrimmed(jf, order)

    def test_extract_inverts_oracle(self):
        rng = random.Random(49)
        for _ in range(100):
            depth = rng.randint(1, 6)
            b = tuple(random_rational(rng) for _ in range(depth))
            # extraction reaches the full depth only when no lambda vanishes
            lam = tuple(random_rational(rng, 0) or F(1) for _ in range(depth))
            jf = jfrac_extract(jfrac_by_division(b, lam, 2 * depth + 1), depth)
            assert (jf.b, jf.lam) == (b, lam)

    def test_shape_is_checked(self):
        with pytest.raises(ValueError):
            JFraction((), (F(1), F(2)), exact=True)
        with pytest.raises(ValueError):
            JFraction((F(1),) * 4, (F(1), F(2)))
        assert JFraction((F(1),) * 3, (F(1), F(2))).depth == 2

    def test_deep_termination(self):
        whole = JFraction((F(1), F(2), F(3)), (F(2), F(-1)), exact=True)
        s = jfrac_eval(whole, 9)
        assert s == jfrac_by_division(whole.b, whole.lam, 9)
        jf = jfrac_extract(s, 4)
        assert jf.b == (1, 2, 3)
        assert jf.lam == (2, -1)
        assert not jf.exact


class TestJFractionFromPoints:
    def test_worked_curve(self):
        jf = jfrac_from_points(Curve(*E1), 0, 4)
        assert jf.b == (F(-1), F(-3, 2), F(5, 2), F(-39, 7))
        assert jf.lam == (F(2), F(1, 4), F(-14), F(-16, 49))

    def test_depth_one_and_zero(self):
        assert jfrac_from_points(Curve(*E1), 0, 1) == JFraction((F(-1),), (F(2),))
        with pytest.raises(ValueError, match="depth must be at least 1"):
            jfrac_from_points(Curve(*E1), 0, 0)

    def test_matches_extraction_across_curves_and_shifts(self):
        rng = random.Random(46)
        done = 0
        while done < 30:
            cur = random_curve(rng)
            pts = cur.multiples(6)
            if pts[-1].is_infinity:
                continue
            done += 1
            shift = F(rng.randint(-3, 3))
            target = derive_g(cur, 13).binomial(shift)
            assert jfrac_from_points(cur, shift, 5) == jfrac_extract(target, 5)

    def test_lambda_is_negated_x(self):
        cur = Curve(*E1)
        pts = cur.multiples(6)
        jf = jfrac_from_points(cur, 0, 5)
        assert jf.lam == tuple(-p.x for p in pts[1:6])

    def test_torsion_error(self):
        with pytest.raises(TorsionDepthError):
            jfrac_from_points(Curve(0, 0, 0), 0, 4)


class TestLambdaProduct:
    def test_hankel_from_lambdas(self):
        # h_n = prod_k lambda_k^(n+1-k), k = 1..n
        rng = random.Random(47)
        for _ in range(40):
            cur = random_curve(rng)
            g = derive_g(cur, 13)
            jf = jfrac_extract(g, 6)
            h = hankel_transform(g.coefficients(), min(7, jf.depth + 1))
            for n in range(len(h)):
                prod = F(1)
                for k in range(1, n + 1):
                    prod *= jf.lam[k - 1] ** (n + 1 - k)
                assert h[n] == prod
