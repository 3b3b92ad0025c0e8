"""Weighted lattice paths in the first quadrant.

Steps are (dx, dy) pairs with dx in {1, 2} and dy in {-1, 0, 1}, each
carrying a rational weight.  Paths start at the origin, never dip below
height 0, and the entry t[n][k] collects the weight products of all paths
with total x-advance n ending at height k.

Two independent engines are provided.  The row DP (dp_count) is the one
implementation of the five-term A-matrix recurrence: the Riordan triangle
of riordan_from_recurrence is the DP over the A-matrix step set, and
riordan.riordan_build checks it from the series side.  Exhaustive
enumeration with no memoization (brute_force_table, of which
brute_force_count reads one entry) is kept deliberately naive so it can
serve as the oracle for the DP.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .riordan import AMatrix, g_family_params, gamma_family_params, orbit_shift
from .series import Rat, _rat

BRUTE_FORCE_LIMIT = 14


class SearchSpaceTooLargeError(ValueError):
    """Exhaustive enumeration refuses x-advance beyond BRUTE_FORCE_LIMIT."""


class StepSet(namedtuple("StepSet", "steps origin_override")):
    """A weighted step alphabet plus an optional origin reweighting.

    origin_override, when set, replaces the weight of the entry t[1][0]:
    equivalently, a path whose first step is (1, 0) has that step weighted
    by origin_override instead of the table weight.
    """

    __slots__ = ()

    def __new__(cls, steps: tuple[tuple[int, int, Rat], ...], origin_override: Optional[Rat] = None):
        for dx, dy, _ in steps:
            if dx not in (1, 2) or dy not in (-1, 0, 1):
                raise ValueError(f"step ({dx}, {dy}) out of range")
        return super().__new__(cls, steps, origin_override)

    @classmethod
    def of(cls, steps, origin_override: Optional[Rat] = None) -> "StepSet":
        tidy = tuple((int(dx), int(dy), _rat(w)) for dx, dy, w in steps)
        ov = None if origin_override is None else _rat(origin_override)
        return cls(tidy, ov)

    def to_dicts(self) -> list[dict]:
        return [{"dx": dx, "dy": dy, "w": str(w)} for dx, dy, w in self.steps]

    def __str__(self) -> str:
        parts = [f"({dx},{dy}) w={w}" for dx, dy, w in self.steps]
        text = "; ".join(parts)
        if self.origin_override is not None:
            text += f"; first flat step from the origin w={self.origin_override}"
        return text


def _amatrix_steps(am: AMatrix) -> list[tuple[int, int, Rat]]:
    return [
        (1, 1, 1),
        (1, 0, am.alpha),
        (2, 0, am.beta),
        (2, 1, am.gamma),
        (2, -1, am.delta),
    ]


def stepset_for_g(curve) -> StepSet:
    """Step set whose column-0 weights enumerate the reverted series g.

    The origin override alpha + gamma equals the x-coefficient of g, which
    is -1 for every curve in this family.
    """
    return stepset_orbit(curve, 0)


def stepset_for_gamma(curve) -> StepSet:
    """Step set for the binomially reduced series gamma; no override needed."""
    am = gamma_family_params(curve.a, curve.b, curve.c)
    steps = [s for s in _amatrix_steps(am) if (s[0], s[1]) != (2, 1)]
    return StepSet.of(steps)


def stepset_orbit(curve, r: Rat) -> StepSet:
    """Step set for the r-th binomial transform of g.

    Column 0 of its DP triangle must equal g.binomial(r); the override
    alpha' + gamma' = r - 1 keeps t[1][0] aligned with that transform.
    """
    am = orbit_shift(g_family_params(curve.a, curve.b, curve.c), r)
    return StepSet.of(_amatrix_steps(am), am.alpha + am.gamma)


def dp_count(steps: StepSet, n_rows: int) -> list[list[Rat]]:
    """Triangle rows t[0..n_rows-1] by dynamic programming over (n, k)."""
    if n_rows < 1:
        raise ValueError("n_rows must be at least 1")
    rows: list[list[Rat]] = [[1]]

    def at(n: int, k: int) -> Rat:
        if n < 0 or k < 0 or k > n:
            return 0
        return rows[n][k]

    for n in range(1, n_rows):
        row = []
        for k in range(n + 1):
            acc = 0
            for dx, dy, w in steps.steps:
                if w != 0:
                    acc += w * at(n - dx, k - dy)
            row.append(_rat(acc))
        if n == 1 and steps.origin_override is not None:
            row[0] = steps.origin_override
        rows.append(row)
    return rows


def riordan_from_recurrence(
    am: AMatrix, n_rows: int, t10_override: Optional[Rat] = None
) -> list[list[Rat]]:
    """Rows of the triangle generated by the five-term A-matrix recurrence.

    t[0][0] = 1; if t10_override is given it replaces t[1][0] (the rest of
    the triangle then builds on the replaced value).
    """
    return dp_count(StepSet.of(_amatrix_steps(am), t10_override), n_rows)


def _first_moves(steps: StepSet):
    """The alphabet of the first step: origin_override weights (1, 0) there."""
    ov = steps.origin_override
    if ov is None:
        return steps.steps
    moves = [(dx, dy, ov if (dx, dy) == (1, 0) else w) for dx, dy, w in steps.steps]
    if (1, 0, ov) not in moves:
        moves.append((1, 0, ov))
    return moves


def brute_force_count(steps: StepSet, n: int, k: int) -> Rat:
    """Weight of paths to (n, k): one entry of brute_force_table."""
    table = brute_force_table(steps, max(n, 0))
    return table[n][k] if 0 <= k <= n else 0


def brute_force_table(steps: StepSet, n_max: int) -> list[list[Rat]]:
    """All triangle entries t[0..n_max] by a single exhaustive enumeration.

    Every prefix of a path is a path, so one depth-first walk visits each
    path exactly once and credits its weight to its endpoint.
    """
    if n_max > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLargeError(
            f"refusing exhaustive enumeration for n = {n_max} > {BRUTE_FORCE_LIMIT}"
        )
    table: list[list[Rat]] = [[0] * (n + 1) for n in range(n_max + 1)]
    table[0][0] = 1

    def walk(x: int, h: int, weight: Rat, moves) -> None:
        for dx, dy, w in moves:
            if w == 0:
                continue
            nx, nh = x + dx, h + dy
            if nx > n_max or nh < 0:
                continue
            nw = weight * w
            table[nx][nh] += nw
            walk(nx, nh, nw, steps.steps)

    walk(0, 0, 1, _first_moves(steps))
    return [[_rat(v) for v in row] for row in table]
