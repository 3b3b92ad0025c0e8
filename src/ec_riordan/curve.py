"""Elliptic curves y^2 - a*xy - y = x^3 - b*x^2 - c*x with base point (0, 0).

The curve has no constant term, so (0, 0) always lies on it, and its
invariants depend on (a, b, c) only through p = a - 2c and
q = b - ac + c^2.  The module provides the full chord-and-tangent group law,
multiples of the base point, the two series branches of y over Q[[x]], and
the elliptic divisibility sequence psi_n(0, 0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .series import Rat, Series


class SingularCurveError(ValueError):
    """The discriminant vanishes; there is no elliptic curve here."""


class PointNotOnCurveError(ValueError):
    """A point operation was handed a point the curve does not contain."""


class Point(NamedTuple):
    """An affine point (x, y) or the point at infinity (x = y = None)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def to_dict(self) -> dict:
        if self.is_infinity:
            return {"infinity": True}
        return {"x": str(self.x), "y": str(self.y)}

    def __str__(self) -> str:
        if self.is_infinity:
            return "infinity"
        return f"({self.x}, {self.y})"


INFINITY = Point(None, None)


class Curve:
    """y^2 - a*xy - y = x^3 - b*x^2 - c*x over Q, with P = (0, 0)."""

    def __init__(self, a: Rat, b: Rat, c: Rat):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        # the family enters every invariant only through p and q
        p = self.p = self.a - 2 * self.c
        q = self.q = self.b - self.a * self.c + self.c * self.c
        # the standard b-invariants and discriminant of the long Weierstrass
        # form (Silverman III.1), written in p and q
        self.b2, self.b4, self.b6, self.b8 = p * p - 4 * q, p, Fraction(1), -q
        self.discriminant = (
            p**4 * q + p**3 - 8 * p * p * q * q - 36 * p * q + 16 * q**3 - 27
        )
        if self.discriminant == 0:
            raise SingularCurveError(
                f"curve (a={self.a}, b={self.b}, c={self.c}) is singular"
            )

    def to_dict(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c)}

    # -- points ------------------------------------------------------------

    @property
    def base_point(self) -> Point:
        return Point(Fraction(0), Fraction(0))

    def contains(self, pt: Point) -> bool:
        if pt.is_infinity:
            return True
        x, y = pt.x, pt.y
        return y * (y - self.a * x - 1) == x * (x * x - self.b * x - self.c)

    def _check(self, pt: Point) -> None:
        if not self.contains(pt):
            raise PointNotOnCurveError(f"{pt} is not on the curve")

    def negate(self, pt: Point) -> Point:
        self._check(pt)
        if pt.is_infinity:
            return pt
        return Point(pt.x, self.a * pt.x + 1 - pt.y)

    def add(self, p: Point, q: Point) -> Point:
        """Chord-and-tangent addition on the curve equation.

        The line of slope lam through p and q (the tangent when p = q)
        meets the curve a third time at x3 = lam^2 - a*lam + b - x1 - x2;
        the sum is the negation of that third point.
        """
        self._check(p)
        self._check(q)
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        x1, y1 = p.x, p.y
        x2, y2 = q.x, q.y
        if x1 == x2 and y1 + y2 == self.a * x2 + 1:
            return INFINITY
        if x1 == x2:  # the tangent at p = q, by implicit differentiation
            lam = (3 * x1 * x1 - 2 * self.b * x1 - self.c + self.a * y1) / (
                2 * y1 - self.a * x1 - 1
            )
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - self.a * lam + self.b - x1 - x2
        return Point(x3, (self.a - lam) * x3 + lam * x1 - y1 + 1)

    def multiples(self, n_max: int) -> list[Point]:
        """[1P, 2P, ..., n_max*P] for P = (0, 0).

        If some multiple is the point at infinity (P has finite order) the
        list stops there: the infinity point itself is the last entry and
        acts as the torsion marker.  Q + P is read off the line y = s*x through P.
        """
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        pts = [self.base_point]
        for _ in range(1, n_max):
            x, y = pts[-1]
            if x == 0 and y == 1:  # Q = -P
                pts.append(INFINITY)
                break
            s = y / x if x else self.c  # the tangent slope is c at Q = P
            x = s * s - self.a * s + self.b - x
            pts.append(Point(x, (self.a - s) * x + 1))
        self._check(pts[-1])  # once, in place of the operand checks of `add`
        return pts

    # -- series branches of y ----------------------------------------------

    def solve_y(self, order: int) -> tuple[Series, Series]:
        """The two power-series roots y1, y2 of the curve equation over Q[[x]].

        Treating the equation as a quadratic in y,
        y = ((1 + a*x) -/+ sqrt(1 + 2p*x + b2*x^2 + 4x^3)) / 2,
        where y1 (minus branch) is the root through the base point:
        y1 = 0 + c*x + ...  Checks: y1 + y2 = 1 + a*x and
        y1*y2 = -(x^3 - b*x^2 - c*x).
        """
        radicand = Series.poly([1, 2 * self.p, self.b2, 4], order)
        root = radicand.sqrt()
        linear = Series.poly([1, self.a], order)
        y1 = (linear - root) / 2
        y2 = (linear + root) / 2
        return y1, y2

    # -- division polynomials at the base point -----------------------------

    def eds(self, n_max: int) -> list[Fraction]:
        """W_n = psi_n(0, 0) for n = 0 .. n_max.

        Initial values at P = (0, 0): psi_1 = 1, psi_2 = -1, psi_3 = -q
        and psi_4 = 1 + p*q; later terms follow the standard odd/even
        recurrences
          psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3,
          psi_{2m}   = psi_m (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2) / psi_2.
        """
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        w = [Fraction(0), Fraction(1), Fraction(-1), -self.q, 1 + self.p * self.q]
        for n in range(5, n_max + 1):
            m = n // 2
            if n % 2 == 1:
                w.append(w[m + 2] * w[m] ** 3 - w[m - 1] * w[m + 1] ** 3)
            else:
                w.append(
                    w[m] * (w[m + 2] * w[m - 1] ** 2 - w[m - 2] * w[m + 1] ** 2) / w[2]
                )
        return w[: n_max + 1]
