"""The derivation chain and the cross-checking report."""

import random
from fractions import Fraction as F

import pytest

from ec_riordan import (
    AMatrix,
    Curve,
    SingularCurveError,
    amatrix_gf,
    closed_form_g,
    closed_form_gamma,
    derive_g,
    derive_gamma,
    full_verify,
    g_coefficient_formula,
    gamma_coefficient_formula,
)

E1 = (-1, -2, -1)
EX2 = (-2, -5, 1)

E1_G = [1, -1, 3, -8, 22, -59, 155, -396, 978, -2310, 5122, -10260, 16752]
EX2_G = [1, -1, 3, 2, 17, 51, 185, 664, 2333, 8360, 29717]


def random_curve(rng, span=4):
    while True:
        try:
            return Curve(*(rng.randint(-span, span) for _ in range(3)))
        except SingularCurveError:
            continue


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

    def test_closed_form_agreement(self):
        rng = random.Random(54)
        for _ in range(25):
            cur = random_curve(rng)
            assert derive_gamma(cur, 14) == closed_form_gamma(cur, 14)


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
