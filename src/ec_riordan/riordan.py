"""Riordan arrays (g, f) and the two-row lattice recurrence behind them.

A Riordan array is the lower-triangular matrix with t[n][k] = [x^n] g * f^k.
The arrays built from curve parameters all satisfy a five-term recurrence

    t_{n,k} = t_{n-1,k-1} + gamma*t_{n-2,k-1} + alpha*t_{n-1,k}
              + beta*t_{n-2,k} + delta*t_{n-2,k+1}

whose coefficients form the A-matrix (alpha, beta, gamma, delta).  The
recurrence kernel for u = x*g reads u/x = 1 + gamma*x + alpha*u + beta*u*x
+ delta*u^2*x.  The recurrence itself is run by the lattice path DP
(paths.riordan_from_recurrence); this module builds the same triangle from
the series, which is the independent check on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .series import InsufficientOrderError, Rat, Series


class AMatrix(NamedTuple):
    """Coefficients of the five-term production recurrence."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    @classmethod
    def of(cls, alpha: Rat, beta: Rat, gamma: Rat, delta: Rat) -> "AMatrix":
        return cls(Fraction(alpha), Fraction(beta), Fraction(gamma), Fraction(delta))

    def to_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "delta": str(self.delta),
        }

    def __str__(self) -> str:
        return (
            f"alpha={self.alpha} beta={self.beta} "
            f"gamma={self.gamma} delta={self.delta}"
        )


def gamma_family_params(a: Rat, b: Rat, c: Rat) -> AMatrix:
    """A-matrix (p, -q, 0, 1) of the binomially reduced array.

    p = a - 2c and q = b - ac + c^2 are the two combinations of the curve
    parameters that every object of the family depends on (Curve.p, Curve.q).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return AMatrix(
        alpha=a - 2 * c,
        beta=a * c - b - c * c,
        gamma=Fraction(0),
        delta=Fraction(1),
    )


def g_family_params(a: Rat, b: Rat, c: Rat) -> AMatrix:
    """A-matrix of the reverted-series array: gamma's, shifted by -(p + 1).

    g is the binomial transform of gamma with parameter -(p + 1), so its
    A-matrix is (-p - 2, -q - p - 1, p + 1, 1).
    """
    am = gamma_family_params(a, b, c)
    return orbit_shift(am, -1 - am.alpha)


def orbit_shift(am: AMatrix, r: Rat) -> AMatrix:
    """Transport an A-matrix along the binomial-transform orbit.

    (alpha, beta, gamma, delta) -> (alpha + 2r, beta - r(alpha + r),
    gamma - r, delta); delta is invariant, and so is
    alpha*gamma - beta + gamma^2 (the Somos parameter).
    """
    r = Fraction(r)
    return AMatrix(
        alpha=am.alpha + 2 * r,
        beta=am.beta - r * (am.alpha + r),
        gamma=am.gamma - r,
        delta=am.delta,
    )


class RiordanArray:
    """A (g, f) pair with its triangle materialized to n_rows rows.

    The constructor does not insist on f'(0) = 1; use riordan_build for the
    validated proper form.  It does require f(0) = 0 so each column g*f^k is
    a well-formed series shifted k places up.
    """

    def __init__(self, g: Series, f: Series, n_rows: int):
        if n_rows < 1:
            raise ValueError("n_rows must be at least 1")
        if g.order < n_rows or f.order < n_rows:
            raise InsufficientOrderError(
                f"{n_rows} rows need g and f valid to order {n_rows}"
            )
        if f[0] != 0:
            raise ValueError("f must have zero constant term")
        self.g = g
        self.f = f
        self.n_rows = n_rows
        col = g.truncate(n_rows)
        f_t = f.truncate(n_rows)
        cols = [col]
        for _ in range(1, n_rows):
            col = col * f_t
            cols.append(col)
        self.rows = [
            [cols[k][n] for k in range(n + 1)] for n in range(n_rows)
        ]


def riordan_build(g: Series, f: Series, n_rows: int) -> RiordanArray:
    """The proper Riordan array for g(0) = 1, f(0) = 0, f'(0) = 1."""
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    if f.order < 2 or f[0] != 0 or f[1] != 1:
        raise ValueError("f must satisfy f(0) = 0 and f'(0) = 1")
    return RiordanArray(g, f, n_rows)


def pseudo_involution_check(g: Series, n_rows: int) -> bool:
    """True iff (g, -x*g) squares to the identity matrix on n_rows rows.

    With f = -x*g the square is (g * g(f), f(f)) and f(f) = x * g * g(f),
    so that holds exactly when g * g(f) = 1 to order n_rows.
    """
    if g.order < n_rows:
        raise InsufficientOrderError(
            f"pseudo-involution check to {n_rows} rows needs g valid that far"
        )
    g = g.truncate(n_rows)
    return g * g.compose((-g).shift_up(1)) == Series.one(n_rows)


def verify_kernel(u: Series, am: AMatrix) -> bool:
    """Check u/x = 1 + gamma*x + alpha*u + beta*u*x + delta*u^2*x exactly.

    u must vanish at 0.  The identity is tested to the order justified by
    u's truncation.
    """
    if u[0] != 0:
        raise ValueError("u must have zero constant term")
    lhs = u.shift_down(1)
    n = lhs.order
    x = Series.x(n)
    u = u.truncate(n)
    rhs = (
        Series.one(n)
        + am.gamma * x
        + am.alpha * u
        + am.beta * (u * x)
        + am.delta * (u * u * x)
    )
    return (lhs - rhs).is_zero()
