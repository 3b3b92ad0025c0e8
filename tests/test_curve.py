"""Curve arithmetic, point multiples, and division polynomial sequences.

The worked curve here is (a, b, c) = (-1, -2, -1).  Its multiples and
sequence values below were computed by hand from the chord-tangent
formulas and the doubling recurrences, then cross-checked against each
other through the classical identity x([n]P) = -W_{n-1} W_{n+1} / W_n^2.
"""

import random
from fractions import Fraction as F

import pytest

from ec_riordan import (
    Curve,
    INFINITY,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
)

E1 = (-1, -2, -1)

E1_MULTIPLES = [
    (F(0), F(0)),
    (F(-2), F(1)),
    (F(-1, 4), F(9, 8)),
    (F(14), F(50)),
    (F(16, 49), F(-169, 343)),
    (F(-399, 256), F(847, 4096)),
    (F(-1808, 3249), F(274576, 185193)),
]

E1_EDS = [0, 1, -1, 2, -1, -7, 16, -57, 113, 670, -3983, 23647, -140576]


def random_curve(rng, span=4):
    while True:
        a, b, c = (rng.randint(-span, span) for _ in range(3))
        try:
            return Curve(a, b, c)
        except SingularCurveError:
            continue


def random_rational_curve(rng, span=2, den=3):
    while True:
        a, b, c = (F(rng.randint(-span, span), rng.randint(1, den)) for _ in range(3))
        try:
            return Curve(a, b, c)
        except SingularCurveError:
            continue


def multiples_by_add(cur, n):
    """[1P, ..., nP] by the general group law, stopping at infinity."""
    pts = [cur.base_point]
    while len(pts) < n and not pts[-1].is_infinity:
        pts.append(cur.add(pts[-1], cur.base_point))
    return pts


def long_form_invariants(a, b, c):
    """(b2, b4, b6, b8, discriminant) from the long Weierstrass coefficients.

    The family is y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with
    a1 = -a, a2 = -b, a3 = -1, a4 = -c, a6 = 0; the formulas are the
    generic ones (Silverman III.1), an oracle for `Curve`'s (p, q) forms.
    """
    a1, a2, a3, a4, a6 = -F(a), -F(b), F(-1), -F(c), F(0)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, disc


TORSION = {(3, 2, 2): 3, (-4, 0, -4): 3, (-3, F(-3, 2), F(1, 2)): 4}


class TestConstruction:
    def test_invariants_of_worked_curve(self):
        cur = Curve(*E1)
        assert (cur.b2, cur.b4, cur.b6, cur.b8) == (9, 1, 1, 2)
        assert cur.discriminant == -116

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            Curve(1, 2, 0)

    def test_p_q_invariants_match_the_long_form(self):
        # seeded rational and small integer triples, singular ones included:
        # Curve raises exactly when the long-form discriminant vanishes
        rng = random.Random(18)
        triples = [(1, 2, 0), (3, 0, 0), (0, 0, 0), E1]
        triples += [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
            for _ in range(200)
        ]
        triples += [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(200)]
        # p = 3, q = 0 zeroes the discriminant (27 - 27); these triples have it
        ts = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(20)]
        triples += [(3 + 2 * t, t * (3 + t), t) for t in ts]
        singular = 0
        for abc in triples:
            *invariants, disc = long_form_invariants(*abc)
            if disc == 0:
                singular += 1
                with pytest.raises(SingularCurveError):
                    Curve(*abc)
                continue
            cur = Curve(*abc)
            assert (cur.b2, cur.b4, cur.b6, cur.b8, cur.discriminant) == (*invariants, disc)
            assert (cur.b4, cur.b8) == (cur.p, -cur.q)
        assert singular >= 25  # the singular branch is reached, not only (1, 2, 0)

    def test_all_zero_curve_is_fine(self):
        assert Curve(0, 0, 0).discriminant == -27

    def test_base_point_on_curve(self):
        cur = Curve(*E1)
        assert cur.base_point == Point(F(0), F(0))
        assert cur.contains(cur.base_point)
        assert not cur.contains(Point(F(1), F(1)))


class TestGroupLaw:
    def test_identity_element(self):
        cur = Curve(*E1)
        p = cur.base_point
        assert cur.add(p, INFINITY) == p
        assert cur.add(INFINITY, p) == p
        assert cur.add(INFINITY, INFINITY) == INFINITY

    def test_inverse(self):
        cur = Curve(*E1)
        p = cur.base_point
        assert cur.add(p, cur.negate(p)) == INFINITY

    def test_negation_of_origin(self):
        # -(x, y) = (x, -y + ax + 1); at the base point this is (0, 1)
        cur = Curve(*E1)
        assert cur.negate(cur.base_point) == Point(F(0), F(1))

    def test_rejects_points_off_curve(self):
        cur = Curve(*E1)
        with pytest.raises(PointNotOnCurveError):
            cur.add(Point(F(1), F(1)), cur.base_point)

    def test_doubling_closed_form(self):
        # doubling the base point lands on (c^2 - ac + b, -(c-a) x2 + 1)
        rng = random.Random(11)
        for _ in range(100):
            cur = random_curve(rng)
            d = cur.add(cur.base_point, cur.base_point)
            x2 = cur.c * cur.c - cur.a * cur.c + cur.b
            assert d == Point(x2, -(cur.c - cur.a) * x2 + 1)

    def test_commutative(self):
        rng = random.Random(12)
        for _ in range(60):
            cur = random_curve(rng)
            pts = cur.multiples(5)
            p, q = rng.choice(pts), rng.choice(pts)
            assert cur.add(p, q) == cur.add(q, p)

    def test_associative(self):
        rng = random.Random(13)
        for _ in range(40):
            cur = random_curve(rng)
            pts = cur.multiples(6)
            p, q, r = (rng.choice(pts) for _ in range(3))
            assert cur.add(cur.add(p, q), r) == cur.add(p, cur.add(q, r))


class TestMultiples:
    def test_worked_curve_list(self):
        pts = Curve(*E1).multiples(7)
        assert [(p.x, p.y) for p in pts] == E1_MULTIPLES

    def test_three_torsion(self):
        for abc in [(0, 0, 0), (3, 2, 2), (-1, 0, -1)]:
            pts = Curve(*abc).multiples(9)
            assert len(pts) == 3
            assert pts[-1].is_infinity
            assert pts[1] == Point(F(0), F(1))

    def test_consistent_with_repeated_addition(self):
        # every count on the worked and torsion curves; on 300 drawn curves
        # the full 30 and one count of 1..29 in turn, so each count meets
        # ten curves (every count on every curve would cost about 4 s)
        for abc, order in [(E1, None), *TORSION.items()]:
            cur = Curve(*abc)
            oracle = multiples_by_add(cur, 30)
            assert oracle[-1].is_infinity == (order is not None)
            assert order is None or len(oracle) == order
            for n in range(1, 31):
                assert cur.multiples(n) == oracle[:n]
        rng = random.Random(23)
        torsion = 0
        for i in range(300):
            cur = random_rational_curve(rng)
            oracle = multiples_by_add(cur, 30)
            torsion += oracle[-1].is_infinity
            for n in (30, 1 + i % 29):
                assert cur.multiples(n) == oracle[:n]
        assert torsion >= 20  # the drawn curves reach the infinity branch too

    def test_corrupted_step_fails_the_last_point_check(self, monkeypatch):
        # the chord steps never check a point, so a start off the curve
        # carries through every step; only the check of the last point
        # sees it
        monkeypatch.setattr(Curve, "base_point", property(lambda self: Point(F(1), F(1))))
        cur = Curve(*E1)
        for n in range(1, 8):
            with pytest.raises(PointNotOnCurveError):
                cur.multiples(n)

    def test_change_of_variables_keeps_x_and_shears_y(self):
        # y -> y + s*x fixes P and maps the curve (a, b, c) to
        # (a - 2s, b - a*s + s^2, c - s): the x of every multiple stays and
        # y moves by -s*x, a relation that neither `add` nor the chord loop uses
        rng = random.Random(24)
        for _ in range(200):
            cur = random_rational_curve(rng, span=3, den=4)
            a, b, c = cur.a, cur.b, cur.c
            s = F(rng.randint(-3, 3), rng.randint(1, 4))
            pts = cur.multiples(12)
            twin = Curve(a - 2 * s, b - a * s + s * s, c - s).multiples(12)
            assert len(twin) == len(pts)
            for p, q in zip(pts, twin):
                if p.is_infinity:
                    assert q.is_infinity
                else:
                    assert (q.x, q.y) == (p.x, p.y - s * p.x)


def kubert_order(cur):
    """The order of P that Kubert's table names, or None past order 5.

    y -> y + c*x and x, y scaled by q^2, q^3 take the curve to Tate's
    normal form y^2 + (1 - C)xy - By = x^3 - Bx^2 with B = q^3 and
    C = 1 + pq, where q = 0 gives order 3, C = 0 order 4 and B = C order 5.
    """
    big_b, big_c = cur.q**3, 1 + cur.p * cur.q
    if cur.q == 0:
        return 3
    if big_c == 0:
        return 4
    if big_b == big_c:
        return 5
    return None


def curves_on_kubert_rows(rng, count):
    """Nonsingular rational curves forced onto the order 3, 4 and 5 rows in turn."""
    def rat():
        return F(rng.randint(-4, 4), rng.randint(1, 3))
    out = []
    while len(out) < count:
        a, c, q = rat(), rat(), rat() or F(1)
        p = a - 2 * c
        row = len(out) % 3
        if row == 0:
            b = a * c - c * c  # q = 0
        elif row == 1:
            if p == 0:
                continue
            b = -1 / p + a * c - c * c  # q = -1/p, so C = 0
        else:
            a = (q**3 - 1) / q + 2 * c  # p = (q^3 - 1)/q, so C = q^3 = B
            b = q + a * c - c * c
        try:
            out.append(Curve(a, b, c))
        except SingularCurveError:
            continue
    return out


class TestKubertTable:
    def test_rows_name_the_order_of_p(self):
        # the rows are checked against the list of multiples; where no row
        # fires, P has order 7 or more (order 6 and up are left unlisted)
        rng = random.Random(25)
        larger = [(-4, 2, -3), (F(-3, 2), F(-3, 2), -2), (F(-1, 3), 1, 0)]  # orders 5, 7, 8
        curves = [Curve(*abc) for abc in [E1, *TORSION, *larger]]
        curves += [random_rational_curve(rng, span=3, den=3) for _ in range(1000)]
        curves += curves_on_kubert_rows(rng, 600)
        seen = {}
        for cur in curves:
            pts = cur.multiples(13)
            order = len(pts) if pts[-1].is_infinity else None
            row = kubert_order(cur)
            if row is None:
                assert order is None or order >= 7, (cur.a, cur.b, cur.c)
            else:
                assert order == row, (cur.a, cur.b, cur.c)
            seen[order] = seen.get(order, 0) + 1
        assert min(seen[3], seen[4], seen[5]) >= 200 and seen[7] and seen[8]


class TestEDS:
    def test_worked_curve_values(self):
        assert Curve(*E1).eds(12) == E1_EDS

    def test_second_worked_curve_values(self):
        w = Curve(-2, -5, 1).eds(9)
        assert w == [0, 1, -1, 2, 9, -17, 196, 593, -9657, 152710]

    def test_initial_values_from_invariants(self):
        rng = random.Random(14)
        for _ in range(80):
            cur = random_curve(rng)
            w = cur.eds(4)
            assert w[0] == 0 and w[1] == 1
            # psi_2 = a3, psi_3 = b8, psi_4 = a3 (b4 b8 - b6^2) in long form
            _, b4, b6, b8, _ = long_form_invariants(cur.a, cur.b, cur.c)
            assert w[2] == -1
            assert w[3] == b8
            assert w[4] == -(b4 * b8 - b6 * b6)

    def test_bilinear_identity(self):
        rng = random.Random(15)
        for _ in range(110):
            cur = random_curve(rng)
            w = cur.eds(12)
            m = rng.randint(2, 6)
            n = rng.randint(1, m - 1)
            left = w[m + n] * w[m - n]
            right = (
                w[m + 1] * w[m - 1] * w[n] ** 2
                - w[n + 1] * w[n - 1] * w[m] ** 2
            )
            assert left == right

    def test_x_coordinates_from_sequence(self):
        # x([n]P) = -W_{n-1} W_{n+1} / W_n^2 ties the group law route to
        # the recurrence route
        rng = random.Random(16)
        for _ in range(60):
            cur = random_curve(rng)
            w = cur.eds(8)
            pts = cur.multiples(7)
            for n in range(2, 8):
                if n - 1 >= len(pts) or pts[n - 1].is_infinity:
                    break
                if w[n] == 0:
                    continue
                assert pts[n - 1].x == -w[n - 1] * w[n + 1] / w[n] ** 2

    def test_first_zero_is_the_order_of_p(self):
        # W_n = 0 exactly when [n]P is infinity, so the first zero past W_1
        # is the order of P, and an EDS without one has P of larger order
        rng = random.Random(24)
        larger = [(-4, 2, -3), (F(-3, 2), F(-3, 2), -2), (F(-1, 3), 1, 0)]  # orders 5, 7, 8
        curves = [Curve(*abc) for abc in [*TORSION, *larger]]
        curves += [random_rational_curve(rng, span=6) for _ in range(400)]
        torsion = 0
        for cur in curves:
            pts = cur.multiples(13)
            zeros = [n for n, w in enumerate(cur.eds(13)) if n >= 2 and w == 0]
            if pts[-1].is_infinity:
                torsion += 1
                assert zeros[:1] == [len(pts)], (cur.a, cur.b, cur.c)
            else:
                assert zeros == [], (cur.a, cur.b, cur.c)
        assert torsion >= 15


class TestSeriesBranch:
    def test_branch_through_origin(self):
        # radicand 1 + 2x + 9x^2 + 4x^3, square root 1 + x + 4x^2 - 2x^3
        # - 6x^4 + 14x^5, both expanded by hand
        y1, y2 = Curve(*E1).solve_y(6)
        assert y1.coefficients() == [0, -1, -2, 1, 3, -7]
        # the other branch starts at 1
        assert y2[0] == 1
        assert y1[1] == -1  # equals c for this curve

    def test_branches_satisfy_curve_equation(self):
        from ec_riordan import Series

        rng = random.Random(17)
        for _ in range(30):
            cur = random_curve(rng)
            order = 10
            x = Series.x(order)
            for y in cur.solve_y(order):
                lhs = y * y - cur.a * x * y - y
                rhs = x * x * x - cur.b * x * x - cur.c * x
                assert lhs == rhs


def test_point_serialization():
    p = Point(F(16, 49), F(-169, 343))
    assert p.to_dict() == {"x": "16/49", "y": "-169/343"}
    assert INFINITY.to_dict() == {"infinity": True}
    assert str(INFINITY) == "infinity"
