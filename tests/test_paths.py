"""Weighted lattice paths: the row recurrence against exhaustive search.

Paths move right by 1 or 2 and change height by -1, 0, or 1, starting at
the origin on or above the x-axis.  Weights multiply along a path and may
be negative or fractional; the count of paths to (n, k) is the sum of
path weights.
"""

import random
from fractions import Fraction as F

import pytest

from ec_riordan import (
    BRUTE_FORCE_LIMIT,
    Curve,
    SearchSpaceTooLargeError,
    StepSet,
    brute_force_count,
    brute_force_table,
    derive_g,
    derive_gamma,
    dp_count,
    stepset_for_g,
    stepset_for_gamma,
    stepset_orbit,
)

E1 = (-1, -2, -1)


class TestStepSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepSet.of([(3, 0, 1)])
        with pytest.raises(ValueError):
            StepSet.of([(1, 2, 1)])

    def test_family_step_sets(self):
        cur = Curve(*E1)
        ss = stepset_for_g(cur)
        assert dict(((dx, dy), w) for dx, dy, w in ss.steps) == {
            (1, 1): 1,
            (1, 0): -3,
            (2, 0): 0,
            (2, 1): 2,
            (2, -1): 1,
        }
        assert ss.origin_override == -1
        gs = stepset_for_gamma(cur)
        assert all((dx, dy) != (2, 1) for dx, dy, _ in gs.steps)
        assert gs.origin_override is None


class TestDP:
    def test_counts_for_worked_curve(self):
        table = dp_count(stepset_for_g(Curve(*E1)), 5)
        assert table == [
            [F(1)],
            [F(-1), F(1)],
            [F(3), F(-2), F(1)],
            [F(-8), F(7), F(-3), F(1)],
            [F(22), F(-22), F(12), F(-4), F(1)],
        ]

    def test_column_zero_is_the_series(self):
        cur = Curve(*E1)
        for fn, ss in (
            (derive_g, stepset_for_g(cur)),
            (derive_gamma, stepset_for_gamma(cur)),
        ):
            table = dp_count(ss, 9)
            assert [row[0] for row in table] == fn(cur, 9).coefficients()

    def test_orbit_column_zero(self):
        cur = Curve(*E1)
        g = derive_g(cur, 8)
        for r in range(4):
            table = dp_count(stepset_orbit(cur, r), 8)
            assert [row[0] for row in table] == g.binomial(r).coefficients()

    def test_override_replaces_single_cell(self):
        ss = StepSet.of([(1, 0, 7), (1, 1, 1)], origin_override=F(2))
        table = dp_count(ss, 3)
        assert table[1] == [F(2), F(1)]
        # beyond the first row the plain weight is back in force
        assert table[2][0] == F(14)  # 2 then 7


class TestBruteForce:
    def test_agrees_with_dp_cellwise(self):
        cur = Curve(*E1)
        for ss in (stepset_for_g(cur), stepset_for_gamma(cur)):
            table = dp_count(ss, 8)
            for n in range(8):
                for k in range(n + 1):
                    assert brute_force_count(ss, n, k) == table[n][k]

    def test_agrees_with_dp_tablewise(self):
        rng = random.Random(31)
        for _ in range(15):
            steps = []
            for dx in (1, 2):
                for dy in (-1, 0, 1):
                    if rng.random() < 0.7:
                        steps.append((dx, dy, F(rng.randint(-3, 3))))
            if not steps:
                steps = [(1, 1, F(1))]
            ov = rng.choice([None, F(rng.randint(-2, 2))])
            ss = StepSet.of(steps, ov)
            table = dp_count(ss, 8)
            brute = brute_force_table(ss, 7)
            for n in range(8):
                assert table[n] == brute[n]

    def test_virtual_first_step_without_flat_move(self):
        # an override must act even when (1, 0) is not in the alphabet
        ss = StepSet.of([(1, 1, 1), (2, -1, 1)], origin_override=F(5))
        table = dp_count(ss, 6)
        brute = brute_force_table(ss, 5)
        assert table[1][0] == 5
        for n in range(6):
            assert table[n] == brute[n]

    def test_search_space_guard(self):
        ss = stepset_for_g(Curve(*E1))
        with pytest.raises(SearchSpaceTooLargeError):
            brute_force_count(ss, BRUTE_FORCE_LIMIT + 1, 0)
        with pytest.raises(SearchSpaceTooLargeError):
            brute_force_table(ss, BRUTE_FORCE_LIMIT + 1)

    def test_single_cell_matches_table(self):
        ss = stepset_for_gamma(Curve(2, -5, -1))
        brute = brute_force_table(ss, 6)
        assert brute_force_count(ss, 6, 2) == brute[6][2]
        assert brute_force_count(ss, 5, 5) == brute[5][5]


def test_variant_curve_triangle():
    # gamma family of (2, -5, -1): steps (1,1):1, (1,0):4, (2,0):2, (2,-1):1
    ss = stepset_for_gamma(Curve(2, -5, -1))
    weights = dict(((dx, dy), w) for dx, dy, w in ss.steps)
    assert weights == {(1, 1): 1, (1, 0): 4, (2, 0): 2, (2, -1): 1}
    table = dp_count(ss, 6)
    assert table == [
        [F(v) for v in row]
        for row in [
            [1],
            [4, 1],
            [18, 8, 1],
            [81, 52, 12, 1],
            [368, 306, 102, 16, 1],
            [1686, 1708, 739, 168, 20, 1],
        ]
    ]
