"""Power series arithmetic.

Expected coefficient lists are computed by hand from the defining
recurrences (geometric series, binomial series, Catalan recurrence) or by
inverting the operation being tested.  Composition and reversion are also
compared with the plain algorithms: Horner's rule at full order, and
Lagrange inversion through every power of phi.  The binomial transform,
which runs on one common denominator, is compared with its defining sum
taken term by term in Fractions.
"""

import math
import random
from fractions import Fraction as F

import pytest

from ec_riordan import (
    InsufficientOrderError,
    NonUnitConstantError,
    NonzeroInnerConstantError,
    NotRevertibleError,
    Series,
    ZeroConstantTermError,
    catalan_gf,
)


def geometric(order):
    return Series.one(order) / Series.poly([1, -1], order)


def compose_by_horner(f, g):
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = Series.poly([f[n - 1]], n)
    for k in range(n - 2, -1, -1):
        acc = acc * g + f[k]
    return acc


def revert_by_every_power(f):
    n = f.order
    phi = Series.one(n - 1) / f.shift_down(1)
    u = [F(0), F(1)]
    power = phi
    for k in range(2, n):
        power = power * phi
        u.append(F(power[k - 1], k))
    return Series(u)


def binomial_by_terms(f, r):
    """b_n = sum_k C(n, k) r^(n-k) a_k, every term a Fraction."""
    r = F(r)
    return Series(
        [
            sum((math.comb(m, k) * r ** (m - k) * f[k] for k in range(m + 1)), F(0))
            for m in range(f.order)
        ]
    )


def random_rational(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return F(0)
    return F(rng.randint(-4, 4), rng.randint(1, 3))


class TestConstruction:
    def test_poly_pads_and_truncates(self):
        s = Series.poly([1, 2], 4)
        assert s.coefficients() == [1, 2, 0, 0]
        assert Series.poly([1, 2, 3, 4], 2).coefficients() == [1, 2]

    def test_order_bookkeeping(self):
        assert Series.poly([1], 5).order == 5
        assert len(Series.x(7)) == 7

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series.poly([1.5], 3)
        with pytest.raises(TypeError):
            Series.poly([1], 3) / 2.0

    def test_integral_values_are_ints(self):
        s = Series([True, F(6, 3), F(1, 2), -4])
        assert [type(c) for c in s.coefficients()] == [int, int, F, int]
        assert s.coefficients() == [1, 2, F(1, 2), -4]
        halves = Series.poly([2, 3], 3) / 2
        assert [type(c) for c in halves.coefficients()] == [int, F, int]
        assert [type(c) for c in geometric(6).coefficients()] == [int] * 6
        assert [type(c) for c in Series.poly([1, 4], 5).sqrt().coefficients()] == [int] * 5

    def test_getitem_beyond_order(self):
        s = Series.poly([1, 2], 3)
        with pytest.raises(InsufficientOrderError):
            s[3]

    def test_equality_includes_order(self):
        assert Series.poly([1, 2], 3) != Series.poly([1, 2], 4)
        assert Series.poly([1, 2], 3) == Series.poly([1, 2], 3)


class TestArithmetic:
    def test_geometric_series(self):
        assert geometric(6).coefficients() == [1, 1, 1, 1, 1, 1]

    def test_two_term_recurrence(self):
        # 1/(1 - x - 2x^2): a_n = a_{n-1} + 2 a_{n-2}, worked by hand
        s = Series.one(7) / Series.poly([1, -1, -2], 7)
        assert s.coefficients() == [1, 1, 3, 5, 11, 21, 43]

    def test_difference_of_squares(self):
        prod = Series.poly([1, 1], 5) * Series.poly([1, -1], 5)
        assert prod == Series.poly([1, 0, -1], 5)

    def test_multiplication_truncates_to_min_order(self):
        assert (Series.poly([1], 3) * Series.poly([1], 9)).order == 3

    def test_scalar_operations_keep_order(self):
        s = Series.poly([1, 2, 3], 3)
        assert (2 * s).coefficients() == [2, 4, 6]
        assert (s / 2).coefficients() == [F(1, 2), 1, F(3, 2)]
        assert (s + 1).coefficients() == [2, 2, 3]
        assert (1 - s).coefficients() == [0, -2, -3]

    def test_division_requires_unit(self):
        with pytest.raises(ZeroConstantTermError):
            Series.one(4) / Series.x(4)

    def test_division_round_trip(self):
        rng = random.Random(101)
        for _ in range(120):
            order = rng.randint(2, 9)
            a = Series.poly(
                [F(rng.randint(1, 5))]
                + [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order - 1)],
                order,
            )
            b = Series.poly(
                [F(rng.randint(1, 5))]
                + [F(rng.randint(-6, 6)) for _ in range(order - 1)],
                order,
            )
            assert (a / b) * b == a


class TestShifts:
    def test_shift_up_gains_order(self):
        s = Series.poly([1, 2], 2).shift_up(2)
        assert s.order == 4
        assert s.coefficients() == [0, 0, 1, 2]

    def test_shift_down_requires_zero_prefix(self):
        assert Series.poly([0, 0, 5], 3).shift_down(2).coefficients() == [5]
        with pytest.raises(ValueError):
            Series.poly([1, 2], 2).shift_down(1)

    def test_shift_round_trip(self):
        s = Series.poly([3, 1, 4], 3)
        assert s.shift_up(3).shift_down(3) == s


class TestSqrt:
    def test_binomial_half_series(self):
        # (1+x)^(1/2) by the binomial series, coefficients worked by hand
        s = Series.poly([1, 1], 5).sqrt()
        assert s.coefficients() == [1, F(1, 2), F(-1, 8), F(1, 16), F(-5, 128)]

    def test_requires_unit_constant(self):
        with pytest.raises(NonUnitConstantError):
            Series.poly([4, 1], 3).sqrt()

    def test_square_round_trip(self):
        rng = random.Random(202)
        for _ in range(120):
            order = rng.randint(2, 10)
            f = Series.poly(
                [1] + [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order - 1)],
                order,
            )
            assert (f * f).sqrt() == f


class TestCompose:
    def test_geometric_in_geometric(self):
        # 1/(1-u) at u = x/(1-x) equals (1-x)/(1-2x): 1, 1, 2, 4, 8, ...
        outer = geometric(6)
        inner = Series.x(6) / Series.poly([1, -1], 6)
        assert outer.compose(inner).coefficients() == [1, 1, 2, 4, 8, 16]

    def test_inner_constant_must_vanish(self):
        with pytest.raises(NonzeroInnerConstantError):
            geometric(4).compose(Series.one(4))

    def test_matches_full_order_horner(self):
        rng = random.Random(606)
        for _ in range(300):
            valuation = rng.randint(1, 6)
            outer = Series([random_rational(rng) for _ in range(rng.randint(1, 16))])
            inner = Series.poly(
                [0] * valuation
                + [random_rational(rng, 0) or F(1)]
                + [random_rational(rng) for _ in range(15)],
                rng.randint(1, 16),
            )
            assert outer.compose(inner) == compose_by_horner(outer, inner)

    def test_zero_inner_series(self):
        outer = Series.poly([3, 1, 4, 1, 5], 5)
        for order in (1, 4, 7):
            zero = Series.poly([0], order)
            assert outer.compose(zero) == compose_by_horner(outer, zero)
            assert outer.compose(zero) == Series.poly([3], min(5, order))


class TestRevert:
    def test_catalan_from_quadratic(self):
        # revert(x - x^2) = x C(x): 0, 1, 1, 2, 5, 14
        s = Series.poly([0, 1, -1], 6).revert()
        assert s.coefficients() == [0, 1, 1, 2, 5, 14]

    def test_moebius_pair(self):
        # revert(x/(1-x)) = x/(1+x)
        f = Series.x(6) / Series.poly([1, -1], 6)
        assert f.revert() == Series.x(6) / Series.poly([1, 1], 6)

    def test_guards(self):
        with pytest.raises(NotRevertibleError):
            Series.poly([1, 1], 4).revert()
        with pytest.raises(NotRevertibleError):
            Series.poly([0, 2], 4).revert()
        with pytest.raises(InsufficientOrderError):
            Series.poly([0], 1).revert()

    def test_revert_round_trip(self):
        rng = random.Random(303)
        for _ in range(120):
            order = rng.randint(3, 10)
            f = Series.poly(
                [0, 1] + [F(rng.randint(-4, 4)) for _ in range(order - 2)],
                order,
            )
            assert f.revert().revert() == f

    def test_matches_every_power_oracle(self):
        # every order 2..40, so every n with n - 1 a perfect square, where
        # the baby-step size isqrt(n - 1) changes
        rng = random.Random(707)
        for order in range(2, 41):
            for _ in range(2):
                f = Series.poly(
                    [0, 1] + [random_rational(rng, 0.4) for _ in range(order - 2)],
                    order,
                )
                assert f.revert() == revert_by_every_power(f)

    def test_compose_with_reverse_is_identity(self):
        rng = random.Random(404)
        for _ in range(100):
            order = rng.randint(3, 9)
            f = Series.poly(
                [0, 1] + [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(order - 2)],
                order,
            )
            assert f.compose(f.revert()) == Series.x(order)


class TestBinomial:
    def test_doubling_of_ones(self):
        s = geometric(7).binomial(1)
        assert s.coefficients() == [1, 2, 4, 8, 16, 32, 64]

    def test_inverse_transform(self):
        rng = random.Random(505)
        for _ in range(120):
            order = rng.randint(2, 10)
            r = F(rng.randint(-4, 4), rng.randint(1, 3))
            s = Series.poly([F(rng.randint(-5, 5)) for _ in range(order)], order)
            assert s.binomial(r).binomial(-r) == s

    def test_matches_term_oracle(self):
        # r = 0, negative, non-integer and negative non-integer, on series
        # with mixed denominators and zero coefficients
        rng = random.Random(507)
        for _ in range(80):
            order = rng.randint(1, 14)
            s = Series([random_rational(rng) for _ in range(order)])
            for r in (0, -3, F(5, 3), F(-2, 7), random_rational(rng)):
                assert s.binomial(r) == binomial_by_terms(s, r)

    def test_matches_generating_function_form(self):
        # B^r has gf (1/(1-rx)) g(x/(1-rx))
        rng = random.Random(606)
        for _ in range(100):
            order = rng.randint(3, 9)
            r = F(rng.randint(-3, 3))
            g = Series.poly([F(rng.randint(-4, 4)) for _ in range(order)], order)
            shell = Series.one(order) / Series.poly([1, -r], order)
            assert g.binomial(r) == shell * g.compose(Series.x(order) * shell)


class TestCatalan:
    def test_first_values(self):
        assert catalan_gf(8).coefficients() == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_functional_equation(self):
        c = catalan_gf(12)
        assert c == Series.one(12) + (c * c).shift_up(1).truncate(12)


def test_branch_root_identity():
    """(-b + b sqrt(1 - 4at/b^2))/(2a) = -(t/b) C(at/b^2) for the branch
    vanishing at the origin, checked for many rational (a, b)."""
    rng = random.Random(707)
    order = 10
    for _ in range(110):
        a = F(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([1, -1])
        b = F(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([1, -1])
        t = Series.x(order)
        radicand = Series.one(order) - 4 * (a / (b * b)) * t
        left = (b * radicand.sqrt() - b) / (2 * a)
        arg = (a / (b * b)) * t
        right = -(t / b) * catalan_gf(order).compose(arg)
        assert left == right
