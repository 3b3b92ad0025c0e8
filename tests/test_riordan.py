"""Riordan arrays, the five-term recurrence, and the parameter orbit."""

import random
from fractions import Fraction as F

import pytest

from ec_riordan import (
    AMatrix,
    Curve,
    InsufficientOrderError,
    RiordanArray,
    Series,
    SingularCurveError,
    amatrix_gf,
    derive_g,
    derive_gamma,
    g_family_params,
    gamma_family_params,
    orbit_shift,
    pseudo_involution_check,
    riordan_build,
    riordan_from_recurrence,
    verify_kernel,
)

E1 = (-1, -2, -1)

# Bell triangle of the reverted series on the worked curve; row 5 onward
# regenerated through two independent construction routes.
E1_BELL = [
    [1],
    [-1, 1],
    [3, -2, 1],
    [-8, 7, -3, 1],
    [22, -22, 12, -4, 1],
    [-59, 69, -43, 18, -5, 1],
    [155, -210, 150, -72, 25, -6, 1],
]

E1_NO_OVERRIDE = [
    [1],
    [-3, 1],
    [9, -4, 1],
    [-26, 15, -5, 1],
    [74, -52, 22, -6, 1],
    [-207, 173, -87, 30, -7, 1],
    [569, -556, 324, -132, 39, -8, 1],
]


def rows_of(curve_params, n_rows, gamma=False):
    cur = Curve(*curve_params)
    fn = derive_gamma if gamma else derive_g
    s = fn(cur, n_rows + 2)
    return riordan_build(s, s.shift_up(1).truncate(s.order), n_rows).rows


def random_curve(rng, span=4):
    while True:
        try:
            return Curve(*(rng.randint(-span, span) for _ in range(3)))
        except SingularCurveError:
            continue


class TestParams:
    def test_worked_curve(self):
        assert g_family_params(*E1) == AMatrix.of(-3, 0, 2, 1)
        assert gamma_family_params(*E1) == AMatrix.of(1, 2, 0, 1)

    def test_second_worked_curve(self):
        assert g_family_params(-2, -5, 1) == AMatrix.of(2, 5, -3, 1)

    def test_gamma_family_shape(self):
        rng = random.Random(21)
        for _ in range(50):
            a, b, c = (F(rng.randint(-6, 6)) for _ in range(3))
            am = gamma_family_params(a, b, c)
            assert am.gamma == 0 and am.delta == 1
            assert am.alpha == a - 2 * c
            assert am.beta == a * c - b - c * c

    def test_against_explicit_formulas_and_p_q(self):
        # g's A-matrix is gamma's moved along the orbit; the explicit
        # formula in a, b, c is the oracle for that shift
        rng = random.Random(25)
        done = 0
        while done < 200:
            a, b, c = (F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3))
            try:
                cur = Curve(a, b, c)
            except SingularCurveError:
                continue
            done += 1
            explicit = AMatrix.of(
                2 * (c - 1) - a, a * (c - 1) - b - (c - 1) ** 2, a - 2 * c + 1, 1
            )
            assert g_family_params(a, b, c) == explicit
            assert gamma_family_params(a, b, c) == AMatrix(cur.p, -cur.q, 0, 1)


class TestOrbit:
    def test_composes_additively(self):
        rng = random.Random(22)
        for _ in range(100):
            am = AMatrix.of(*(rng.randint(-5, 5) for _ in range(4)))
            r, s = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            assert orbit_shift(orbit_shift(am, r), s) == orbit_shift(am, r + s)

    def test_invariants(self):
        rng = random.Random(23)
        for _ in range(100):
            am = AMatrix.of(*(rng.randint(-5, 5) for _ in range(4)))
            r = F(rng.randint(-5, 5), rng.randint(1, 3))
            shifted = orbit_shift(am, r)
            assert shifted.delta == am.delta
            inv = lambda m: m.alpha * m.gamma - m.beta + m.gamma ** 2
            assert inv(shifted) == inv(am)

    def test_connects_the_two_families(self):
        # the gamma-family parameters are the g-family parameters moved
        # along the orbit by a - 2c + 1
        rng = random.Random(24)
        for _ in range(100):
            a, b, c = (F(rng.randint(-6, 6)) for _ in range(3))
            moved = orbit_shift(g_family_params(a, b, c), a - 2 * c + 1)
            assert moved == gamma_family_params(a, b, c)


class TestBuild:
    def test_worked_bell_triangle(self):
        assert rows_of(E1, 7) == [[F(v) for v in row] for row in E1_BELL]

    def test_requires_enough_order(self):
        g = Series.one(4)
        f = Series.x(4)
        with pytest.raises(InsufficientOrderError):
            riordan_build(g, f, 9)

    def test_f_must_start_zero_one(self):
        with pytest.raises(ValueError):
            riordan_build(Series.one(5), Series.poly([0, 2], 5), 3)
        with pytest.raises(ValueError):
            riordan_build(Series.one(5), Series.one(5), 3)


class TestRecurrence:
    def test_matches_build_with_override(self):
        rec = riordan_from_recurrence(g_family_params(*E1), 7, t10_override=F(-1))
        assert rec == rows_of(E1, 7)

    def test_no_override_triangle(self):
        rec = riordan_from_recurrence(g_family_params(*E1), 7)
        assert rec == [[F(v) for v in row] for row in E1_NO_OVERRIDE]

    def test_gamma_family_needs_no_override(self):
        rec = riordan_from_recurrence(gamma_family_params(*E1), 7)
        assert rec == rows_of(E1, 7, gamma=True)

    def test_many_curves_both_routes(self):
        rng = random.Random(25)
        for _ in range(25):
            cur = random_curve(rng)
            am = g_family_params(cur.a, cur.b, cur.c)
            override = am.alpha + am.gamma
            assert riordan_from_recurrence(am, 6, override) == rows_of(
                (cur.a, cur.b, cur.c), 6
            )

    def test_bell_subdiagonal_is_linear(self):
        # in a Bell array (g, xg) the entry (n, n-1) is n * g_1
        rng = random.Random(26)
        for _ in range(30):
            cur = random_curve(rng)
            rows = rows_of((cur.a, cur.b, cur.c), 7, gamma=True)
            g1 = derive_gamma(cur, 3)[1]
            for n in range(1, 7):
                assert rows[n][n - 1] == n * g1


class TestKernel:
    def test_holds_for_derived_series(self):
        rng = random.Random(28)
        for _ in range(30):
            cur = random_curve(rng)
            g = derive_g(cur, 12)
            am = g_family_params(cur.a, cur.b, cur.c)
            assert verify_kernel(g.shift_up(1).truncate(12), am)
            gam = derive_gamma(cur, 12)
            assert verify_kernel(
                gam.shift_up(1).truncate(12), gamma_family_params(cur.a, cur.b, cur.c)
            )

    def test_rejects_perturbed_series(self):
        cur = Curve(*E1)
        g = derive_g(cur, 10)
        am = g_family_params(*E1)
        bad = g + Series.poly([0, 0, 0, 0, 0, 1], 10)
        assert not verify_kernel(bad.shift_up(1).truncate(10), am)

    def test_verdict_is_closed_form_equality(self):
        # the kernel equation has one power-series solution, amatrix_gf
        rng = random.Random(29)
        corrupted = 0
        for _ in range(300):
            while True:
                try:
                    cur = Curve(*(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)))
                    break
                except SingularCurveError:
                    continue
            n = rng.randint(1, 16)
            g = derive_g(cur, n)
            for s, am in (
                (g, g_family_params(cur.a, cur.b, cur.c)),
                (g.binomial(cur.a - 2 * cur.c + 1), gamma_family_params(cur.a, cur.b, cur.c)),
            ):
                if rng.random() < 0.7:
                    coeffs = s.coefficients()
                    coeffs[rng.randrange(n)] += F(rng.choice([-1, 1]), rng.randint(1, 3))
                    s = Series(coeffs)
                    corrupted += 1
                assert verify_kernel(s.shift_up(1), am) == (s == amatrix_gf(am, n))
        assert 360 <= corrupted <= 480


def squares_to_identity(g, n_rows):
    """Square the rows of (g, -x*g) as plain matrices, entry by entry."""
    f = (-g).shift_up(1).truncate(g.order)
    t = RiordanArray(g, f, n_rows).rows
    square = [
        [sum((t[i][k] * t[k][j] for k in range(j, i + 1)), F(0)) for j in range(i + 1)]
        for i in range(n_rows)
    ]
    return square == [[F(int(i == j)) for j in range(i + 1)] for i in range(n_rows)]


class TestPseudoInvolution:
    def test_agrees_with_matrix_square(self):
        for abc in [(3, 2, 2), (-1, 0, -1), (0, 0, 0), E1]:
            gam = derive_gamma(Curve(*abc), 14)
            assert pseudo_involution_check(gam, 12) == squares_to_identity(gam, 12)
        assert squares_to_identity(derive_gamma(Curve(3, 2, 2), 14), 12)
        assert not squares_to_identity(derive_gamma(Curve(*E1), 14), 12)

    def test_agrees_with_matrix_square_on_random_g(self):
        rng = random.Random(27)
        verdicts = set()
        for _ in range(60):
            if rng.random() < 0.5:
                # ac - b - c^2 = 0 makes the reduced series a pseudo-involution
                a, c = rng.randint(-3, 3), rng.randint(-3, 3)
                try:
                    g = derive_gamma(Curve(a, a * c - c * c, c), 12)
                except SingularCurveError:
                    continue
            else:
                tail = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(11)]
                g = Series([1] + tail)
            verdict = pseudo_involution_check(g, 12)
            assert verdict == squares_to_identity(g, 12)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_three_torsion_curves(self):
        for abc in [(3, 2, 2), (-1, 0, -1), (0, 0, 0)]:
            gam = derive_gamma(Curve(*abc), 14)
            assert pseudo_involution_check(gam, 12)

    def test_exactly_when_the_base_point_has_order_three(self):
        # the tangent at P gives x([2]P) = c^2 - a*c + b, so a*c - b - c^2 = 0
        # exactly when [2]P = (0, 1) = -P; every third curve is drawn with
        # b = a*c - c^2, so both verdicts occur often
        rng = random.Random(28)
        verdicts = []
        for n in range(150):
            a, c = (F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2))
            b = a * c - c * c if n % 3 == 0 else F(rng.randint(-4, 4), rng.randint(1, 4))
            try:
                cur = Curve(a, b, c)
            except SingularCurveError:
                continue
            verdict = pseudo_involution_check(derive_gamma(cur, 12), 12)
            assert verdict == cur.multiples(3)[-1].is_infinity, (a, b, c)
            verdicts.append(verdict)
        assert verdicts.count(True) >= 40 and verdicts.count(False) >= 80

    def test_worked_curve_is_not(self):
        gam = derive_gamma(Curve(*E1), 14)
        assert not pseudo_involution_check(gam, 12)

    def test_printed_triangle(self):
        # 7x7 triangle for (3, 2, 2); entry (5, 4) must equal 5 * g_1 = -5
        gam = derive_gamma(Curve(3, 2, 2), 9)
        rows = riordan_build(gam, gam.shift_up(1).truncate(9), 7).rows
        assert rows == [
            [F(v) for v in row]
            for row in [
                [1],
                [-1, 1],
                [1, -2, 1],
                [0, 3, -3, 1],
                [-2, -2, 6, -4, 1],
                [5, -3, -7, 10, -5, 1],
                [-7, 14, 0, -16, 15, -6, 1],
            ]
        ]
        assert rows[5][4] == -5
