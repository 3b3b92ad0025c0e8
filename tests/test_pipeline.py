"""The derivation chain and the cross-checking report.

The library derives g on integers (the curve branch by a fixed-point
recurrence, then Lagrange inversion of the kernel denominator) and sums
the coefficient formula on one common denominator.  The oracles here are
the plain Fraction routes: the series square root, division and
reversion, and the triple sum term by term.
"""

import math
import random
from fractions import Fraction as F

import pytest

from ec_riordan import (
    AMatrix,
    Curve,
    JFraction,
    Point,
    Series,
    SingularCurveError,
    amatrix_gf,
    brute_force_table,
    closed_form_g,
    derive_g,
    derive_gamma,
    dp_count,
    full_verify,
    g_coefficient_formula,
    gamma_coefficient_formula,
    g_family_params,
    gamma_family_params,
    hankel_transform,
    jfrac_extract,
    riordan_build,
    stepset_for_g,
    stepset_for_gamma,
)
from ec_riordan import pipeline
from ec_riordan.pipeline import _coefficient_sum
from test_series import binomial_by_terms

E1 = (-1, -2, -1)
EX2 = (-2, -5, 1)
RATIONAL = (F(1, 2), F(-1, 3), F(2, 5))

# (a, b, c) and the order m of the base point
FINITE_ORDER = [
    ((-4, 0, -4), 3),
    ((-3, F(-3, 2), F(1, 2)), 4),
    ((-4, 2, -3), 5),
    ((F(-3, 2), F(-3, 2), -2), 7),
    ((F(-1, 3), 1, 0), 8),
]
JFRAC_CHECKS = ("J-fraction from points (g)", "J-fraction from points (gamma)")
JFRAC_DEPTH = 9  # the depth full_verify reaches at order 20 on a curve of infinite order

E1_G = [1, -1, 3, -8, 22, -59, 155, -396, 978, -2310, 5122, -10260, 16752]
EX2_G = [1, -1, 3, 2, 17, 51, 185, 664, 2333, 8360, 29717]


def random_curve(rng, span=4):
    while True:
        try:
            return Curve(*(rng.randint(-span, span) for _ in range(3)))
        except SingularCurveError:
            continue


def random_rational_curve(rng):
    """a, b, c = n/d with |n| <= 4 and d <= 5."""
    while True:
        try:
            return Curve(*(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)))
        except SingularCurveError:
            continue


def derive_g_by_reversion(curve, order):
    """g by the Fraction route: y1 from the series square root, then
    G = x/(1 - x - x^2 z) with z = (y1 - c x)/x^2, and g = revert(G)/x."""
    work = max(order, 3)  # the z series needs at least one coefficient
    y1, _ = curve.solve_y(work)
    z = (y1 - curve.c * Series.x(work)).shift_down(2)
    denom = Series.one(work) - Series.x(work) - z.shift_up(2)
    big_g = (Series.one(work) / denom).shift_up(1)
    return big_g.revert().shift_down(1).truncate(order)


def coefficient_sum_by_fractions(am, n):
    """The triple sum of _coefficient_sum, every term a Fraction."""
    total = F(0)
    for k in range(n // 3 + 1):
        cat = F(math.comb(2 * k, k), k + 1) * am.delta**k
        for j in range(min(k + 1, n - 3 * k) + 1):
            top = n - 3 * k - j
            for i in range((top + 1) // 2, top + 1):
                total += (
                    math.comb(k + 1, j)
                    * am.gamma**j
                    * cat
                    * math.comb(2 * k + i, i)
                    * math.comb(i, top - i)
                    * am.alpha ** (2 * i - top)
                    * am.beta ** (top - i)
                )
    return total


WORKED = [Curve(3, 2, 2), Curve(F(1, 2), F(-1, 3), F(2, 5))]


def oracle_curves():
    """The worked curves, then 60 fixed-seed rational curves, each with
    an order drawn from 4..40."""
    rng = random.Random(61)
    yield WORKED[0], 24
    yield WORKED[1], 40
    for _ in range(60):
        yield random_rational_curve(rng), rng.randint(4, 40)


class TestDeriveG:
    def test_worked_curves(self):
        assert derive_g(Curve(*E1), 13).coefficients() == E1_G
        assert derive_g(Curve(*EX2), 11).coefficients() == EX2_G

    def test_order_is_exact(self):
        for order in (1, 2, 5, 17):
            assert derive_g(Curve(*E1), order).order == order

    def test_order_guard(self):
        with pytest.raises(ValueError):
            derive_g(Curve(*E1), 0)

    def test_linear_coefficient_is_minus_one(self):
        rng = random.Random(51)
        for _ in range(60):
            g = derive_g(random_curve(rng), 3)
            assert g[0] == 1 and g[1] == -1

    def test_closed_form_agreement(self):
        rng = random.Random(52)
        for _ in range(25):
            cur = random_curve(rng)
            assert derive_g(cur, 14) == closed_form_g(cur, 14)

    def test_matches_reversion_oracle(self):
        for cur, order in oracle_curves():
            for n in (1, 2, 3, order):
                assert derive_g(cur, n) == derive_g_by_reversion(cur, n), (cur.to_dict(), n)

    def test_rational_denominators_divide_d_power(self):
        # g(dx) is an integer series: g_k d^k is an integer.  By hand from
        # the kernel recurrence, g_2 = beta - alpha = -49/150 + 17/10.
        g = derive_g(WORKED[1], 20)
        assert g[2] == F(103, 75)
        assert all((g[k] * 30**k).denominator == 1 for k in range(20))


class TestDeriveGamma:
    def test_worked_curve(self):
        gam = derive_gamma(Curve(*E1), 11)
        assert gam.coefficients() == [1, 1, 3, 6, 14, 33, 79, 194, 482, 1214, 3090]

    def test_is_binomial_of_g(self):
        rng = random.Random(53)
        for _ in range(25):
            cur = random_curve(rng)
            shift = cur.a - 2 * cur.c + 1
            assert derive_gamma(cur, 12) == derive_g(cur, 12).binomial(shift)

    def test_binomial_matches_term_oracle(self):
        for cur, order in oracle_curves():
            g = derive_g(cur, order)
            for r in (cur.a - 2 * cur.c + 1, 0, -2, F(-3, 4)):
                assert g.binomial(r) == binomial_by_terms(g, r)

    def test_closed_form_agreement(self):
        rng = random.Random(54)
        for _ in range(25):
            cur = random_curve(rng)
            am = gamma_family_params(cur.a, cur.b, cur.c)
            assert derive_gamma(cur, 14) == amatrix_gf(am, 14)


class TestAMatrixGF:
    def test_known_head(self):
        s = amatrix_gf(AMatrix.of(1, 0, 0, 1), 11)
        assert s.coefficients() == [1, 1, 1, 2, 4, 7, 13, 26, 52, 104, 212]

    def test_catalan_degenerate(self):
        # alpha = beta = gamma = 0 leaves C(x^3): Catalan numbers on every
        # third index
        s = amatrix_gf(AMatrix.of(0, 0, 0, 1), 10)
        assert s.coefficients() == [1, 0, 0, 1, 0, 0, 2, 0, 0, 5]


class TestCoefficientFormulas:
    def test_worked_values(self):
        cur = Curve(*E1)
        assert [g_coefficient_formula(cur, n) for n in range(13)] == E1_G
        gam = derive_gamma(cur, 13)
        assert [gamma_coefficient_formula(cur, n) for n in range(13)] == (
            gam.coefficients()
        )

    def test_random_curves(self):
        rng = random.Random(55)
        for _ in range(12):
            cur = random_curve(rng)
            g = derive_g(cur, 11)
            gam = derive_gamma(cur, 11)
            for n in range(11):
                assert g_coefficient_formula(cur, n) == g[n]
                assert gamma_coefficient_formula(cur, n) == gam[n]

    def test_matches_fraction_sum_oracle(self):
        for cur, order in oracle_curves():
            for am in (
                g_family_params(cur.a, cur.b, cur.c),
                gamma_family_params(cur.a, cur.b, cur.c),
            ):
                for n in range(min(order, 16)):
                    assert _coefficient_sum(am, n) == coefficient_sum_by_fractions(am, n)

    def test_sum_matches_closed_form_for_any_delta(self):
        rng = random.Random(56)
        for _ in range(40):
            am = AMatrix.of(
                *(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)),
                F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)),
            )
            s = amatrix_gf(am, 12)
            assert [_coefficient_sum(am, n) for n in range(12)] == s.coefficients()
            assert _coefficient_sum(am, 11) == coefficient_sum_by_fractions(am, 11)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            g_coefficient_formula(Curve(*E1), -1)


class TestFullVerify:
    def test_worked_curves_pass(self):
        for abc in (E1, EX2, (2, -5, -1), (0, 0, 0), (3, 2, 2)):
            report = full_verify(Curve(*abc), order=12)
            assert report.all_pass, [
                (c.name, c.detail) for c in report.checks if not c.passed
            ]

    def test_report_shape(self):
        report = full_verify(Curve(*E1), order=10)
        d = report.to_dict()
        assert d["curve"] == {"a": "-1", "b": "-2", "c": "-1"}
        assert d["all_pass"] is True
        assert len(d["checks"]) == len(report.checks)
        assert {"name", "pass", "detail"} == set(d["checks"][0])

    def test_order_guard(self):
        with pytest.raises(ValueError):
            full_verify(Curve(*E1), order=4)
        # order 8 gives 4 Hankel minors, one short of a Somos-4 check
        with pytest.raises(ValueError, match="at least 9"):
            full_verify(Curve(*E1), order=8)
        assert full_verify(Curve(*E1), order=9).all_pass

    def test_multiples_computed_once(self, monkeypatch):
        calls = []
        original = Curve.multiples

        def counting(self, n_max):
            calls.append(n_max)
            return original(self, n_max)

        monkeypatch.setattr(Curve, "multiples", counting)
        assert full_verify(Curve(*E1), order=20).all_pass
        assert calls == [10]

    def test_corrupted_g_fails_both_kernel_checks(self, monkeypatch):
        def corrupted(curve, order):
            g = derive_g(curve, order)
            return g + Series.poly([0, 0, 0, 0, 0, 1], order)

        monkeypatch.setattr(pipeline, "derive_g", corrupted)
        report = full_verify(Curve(*E1), order=16)
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts["g reversion vs closed form"] is False
        assert verdicts["gamma binomial vs closed form"] is False
        assert report.all_pass is False

    def test_last_lambda_is_compared(self, monkeypatch):
        # a depth-d fraction agrees with a series to order 2d whatever
        # lambda_d is, so only a comparison of b and lambda sees this change
        original = pipeline._jfrac_from_multiples

        def corrupted(curve, pts, shift, depth):
            jf = original(curve, pts, shift, depth)
            return JFraction(jf.b, jf.lam[:-1] + (jf.lam[-1] + 1,))

        monkeypatch.setattr(pipeline, "_jfrac_from_multiples", corrupted)
        for abc, order in ((E1, 24), (E1, 25), (RATIONAL, 22)):
            report = full_verify(Curve(*abc), order)
            verdicts = {c.name: c.passed for c in report.checks}
            assert [verdicts[name] for name in JFRAC_CHECKS] == [False, False], (abc, order)
            assert report.all_pass is False

    # at order 20 both rows compare b_0..b_8 and lambda_1..lambda_9, read off
    # [2]P..[10]P; add 1 to each entry of one row's points fraction in turn
    @pytest.mark.parametrize(
        "field, j",
        [pytest.param("b", j, id=f"b{j}") for j in range(JFRAC_DEPTH)]
        + [pytest.param("lam", j, id=f"lambda{j + 1}") for j in range(JFRAC_DEPTH)],
    )
    @pytest.mark.parametrize("row", [0, 1], ids=["g", "gamma"])
    @pytest.mark.parametrize("abc", [E1, RATIONAL], ids=["E1", "rational"])
    def test_every_points_entry_is_compared(self, monkeypatch, abc, row, field, j):
        curve = Curve(*abc)
        row_shift = (0, curve.p + 1)[row]
        assert curve.p + 1 != 0  # the shift tells the two rows apart
        original = pipeline._jfrac_from_multiples

        def corrupted(curve, pts, shift, depth):
            jf = original(curve, pts, shift, depth)
            if shift != row_shift:
                return jf
            assert depth == JFRAC_DEPTH
            b, lam = list(jf.b), list(jf.lam)
            (b if field == "b" else lam)[j] += 1
            return JFraction(tuple(b), tuple(lam))

        monkeypatch.setattr(pipeline, "_jfrac_from_multiples", corrupted)
        report = full_verify(curve, 20)
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts[JFRAC_CHECKS[row]] is False
        assert verdicts[JFRAC_CHECKS[1 - row]] is True
        assert report.all_pass is False

    @pytest.mark.parametrize("index", [3, 5, 7])
    def test_eds_sign_is_compared(self, monkeypatch, index):
        # h_n = (-1)^(n+1) W_(n+2); a negated W keeps every magnitude, so
        # only a comparison of signed values sees it
        original = Curve.eds

        def negated(self, n_max):
            w = original(self, n_max)
            w[index] = -w[index]
            return w

        monkeypatch.setattr(Curve, "eds", negated)
        report = full_verify(Curve(*E1), order=16)
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts["EDS magnitude vs Hankel"] is False
        assert report.all_pass is False

    @pytest.mark.parametrize("abc, m", FINITE_ORDER)
    def test_finite_order_stops_at_minus_p(self, abc, m):
        # x = 0 only at P and -P = (0, 1), and 2P is affine, so a base point
        # of order m ends its multiples with [m-1]P = -P: whenever torsion
        # caps the depth, the points J-fractions hit x = 0 and are skipped
        cur = Curve(*abc)
        pts = cur.multiples(13)
        assert len(pts) == m and pts[-1].is_infinity
        assert pts[m - 2] == Point(F(0), F(1))
        for order in range(9, 21):
            report = full_verify(cur, order)
            assert report.all_pass, (abc, order)
            depth = (order - 1) // 2
            if depth >= m - 2:
                want = f"skipped: [{m - 1}]P has x = 0"
            else:
                want = f"depth {depth}, {2 * depth} coefficients"
            details = {c.name: c.detail for c in report.checks}
            assert [details[name] for name in JFRAC_CHECKS] == [want, want], (abc, order)


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


class TestValueTypes:
    """Integral values are ints, the others Fractions; nothing is a float."""

    @staticmethod
    def values(curve, order=16, rows=9):
        g, gamma = derive_g(curve, order), derive_gamma(curve, order)
        tables = [
            riordan_build(g, g.shift_up(1).truncate(order), rows).rows,
            riordan_build(gamma, gamma.shift_up(1).truncate(order), rows).rows,
            dp_count(stepset_for_g(curve), rows),
            dp_count(stepset_for_gamma(curve), rows),
            brute_force_table(stepset_for_g(curve), rows - 1),
        ]
        return g.coefficients() + gamma.coefficients() + list(_leaves(tables))

    def test_integer_curve_gives_ints(self):
        for abc in (E1, EX2, (3, 2, 2), (0, 0, 0)):
            assert {type(v) for v in self.values(Curve(*abc))} == {int}, abc

    def test_rational_curve_keeps_fractions(self):
        values = self.values(Curve(*RATIONAL))
        kinds = [type(v) for v in values]
        assert kinds == [int if F(v).denominator == 1 else F for v in values]
        assert F in kinds and int in kinds

    def test_no_float_anywhere(self):
        for abc in (E1, RATIONAL):
            curve = Curve(*abc)
            g = derive_g(curve, 17)
            jf = jfrac_extract(g, 8)
            h = hankel_transform(g.coefficients(), 9)
            results = [full_verify(curve, 14).to_dict(), jf.b, jf.lam, h]
            for v in _leaves(results):
                assert type(v) in (str, bool, int, F), (abc, v)
