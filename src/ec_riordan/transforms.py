"""Hankel determinants, Somos-4 checks, and Jacobi continued fractions.

The J-fraction convention throughout is

    g(x) = 1 / (1 - b_0 x - lambda_1 x^2 / (1 - b_1 x - lambda_2 x^2 / ...))

so a depth-d fraction carries b_0..b_{d-1} and lambda_1..lambda_d.  For the
curve family the coefficients can be read off the multiples of the base
point: lambda_j = -x([(j+1)]P) and
b_j = (y([(j+2)]P) - 1)/x([(j+2)]P) + (c - a - 1) + shift, where shift
counts binomial transforms (shift 0 reproduces g itself).  The intrinsic
constant is forced at j = 0: doubling P gives 2P with
(y - 1)/x = a - c, while the linear coefficient of g is -1 on every
curve of the family.

As paths (Flajolet 1980), [x^n] g weighs the Motzkin paths of length n
whose level steps at height k weigh b_k and down steps to height k weigh
lambda_{k+1}.  The weights T[n][k] of paths from height 0 to height k obey
T[n+1][k] = T[n][k-1] + b_k T[n][k] + lambda_{k+1} T[n][k+1], with g as
column 0; evaluation runs this table by rows, extraction by columns.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

from .curve import Curve, Point
from .series import Rat, Series


class InsufficientTermsError(ValueError):
    """A sequence is too short for the requested transform."""


class TorsionDepthError(ValueError):
    """A needed multiple of the base point is the point at infinity."""


class ZeroXCoordinateError(ValueError):
    """A needed multiple has x = 0, so the coefficient formulas divide by zero."""


class InsufficientDepthError(ValueError):
    """A J-fraction is too shallow for the requested evaluation order."""


# -- Hankel transform --------------------------------------------------------


def _bareiss_det(matrix: list[list[Fraction]]) -> Fraction:
    """Fraction-free Bareiss elimination with row pivoting."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minors(a0: Fraction, lam: Sequence[Fraction]) -> list[Fraction]:
    """h_n = a0^(n+1) prod_{k=1}^{n} lambda_k^(n+1-k) for n = 0 .. len(lam).

    The Hankel minors of a0 times a series with J-fraction lambdas lam
    (Flajolet 1980), one running product apart:
    h_n = h_(n-1) * (a0 * lambda_1 ... lambda_n).
    """
    return list(accumulate(accumulate([a0, *lam], mul), mul))


def hankel_transform(seq: Sequence[Rat], count: int) -> list[Fraction]:
    """h_n = det(a_{i+j})_{0<=i,j<=n} for n = 0 .. count-1.

    The leading minors are the J-fraction product of `_minors`, on the
    lambdas that `jfrac_extract` reads off a / a_0.  Extraction stops at
    the first vanishing lambda_m, where h_m = 0; each later h_n (and every
    h_n when a_0 = 0) is a separate determinant with row pivoting.
    """
    return _hankel_jfrac(seq, count)[1]


def _hankel_jfrac(seq: Sequence[Rat], count: int) -> tuple[JFraction | None, list[Fraction]]:
    """hankel_transform, and the J-fraction of a / a_0 its minors come from
    (depth count - 1, less after a vanishing lambda; None when a_0 = 0)."""
    terms = [Fraction(t) for t in seq]
    if count < 1:
        raise ValueError("count must be at least 1")
    if len(terms) < 2 * count - 1:
        raise InsufficientTermsError(
            f"{count} Hankel terms need {2 * count - 1} sequence terms, got {len(terms)}"
        )
    out: list[Fraction] = []
    jf = None
    if terms[0] != 0:
        series = Series([t / terms[0] for t in terms[: 2 * count - 1]])
        jf = jfrac_extract(series, count - 1)
        # extraction stops short only at a lambda_m = 0, and then h_m = 0
        lam = jf.lam if jf.depth == count - 1 else jf.lam + (Fraction(0),)
        out = _minors(terms[0], lam)
    for n in range(len(out), count):
        matrix = [terms[i : i + n + 1] for i in range(n + 1)]
        out.append(_bareiss_det(matrix))
    return jf, out


def _point_products(curve: Curve, count: int) -> list[Fraction]:
    """hankel_point_product for n = 0 .. count-1 from one list of multiples:
    the minors of `_minors` with lambda_k = -x([(k+1)]P).

    Raises TorsionDepthError at the first n whose [(n+2)]P is not affine.
    """
    pts = curve.multiples(count + 1)
    if pts[-1].is_infinity:  # the list stops at [len(pts)]P
        raise TorsionDepthError(
            f"h_{len(pts) - 2} needs [{len(pts)}]P affine but the base point has finite order"
        )
    return _minors(Fraction(1), [-p.x for p in pts[1:count]])


def hankel_point_product(curve: Curve, n: int) -> Fraction:
    """The closed-form Hankel term h_n = prod_{k=0}^{n} (-x([(k+2)]P))^(n-k).

    Needs the multiples up to (n+2)P to be affine; on a torsion point the
    error names the first index that cannot be formed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _point_products(curve, n + 1)[-1]


# -- Somos-4 -----------------------------------------------------------------


class SomosParams(NamedTuple):
    r: Fraction
    s: Fraction


def somos_params(curve: Curve) -> SomosParams:
    """(r, s) with h_n h_{n-4} = r h_{n-1} h_{n-3} + s h_{n-2}^2: (1, q)."""
    return SomosParams(Fraction(1), curve.q)


def somos_params_from_amatrix(am) -> SomosParams:
    """The same parameters from A-matrix data: (delta^2, delta^2(alpha*gamma - beta + gamma^2))."""
    d2 = am.delta * am.delta
    return SomosParams(d2, d2 * (am.alpha * am.gamma - am.beta + am.gamma ** 2))


class SomosCheck(NamedTuple):
    """Outcome of a Somos-4 verification.

    Indices where the divisor term a_{n-4} vanishes cannot be pinned by the
    defining recurrence; they are skipped and reported rather than failed.
    Truthiness means every checked index passed.
    """

    ok: bool
    checked: list[int]
    skipped: list[int]
    failures: list[int]

    def __bool__(self) -> bool:
        return self.ok


def somos_verify(seq: Sequence[Rat], params: SomosParams) -> SomosCheck:
    """Check a_n a_{n-4} = r a_{n-1} a_{n-3} + s a_{n-2}^2 for all n >= 4."""
    terms = [Fraction(t) for t in seq]
    if len(terms) < 5:
        raise InsufficientTermsError("Somos-4 verification needs at least 5 terms")
    checked: list[int] = []
    skipped: list[int] = []
    failures: list[int] = []
    for n in range(4, len(terms)):
        if terms[n - 4] == 0:
            skipped.append(n)
            continue
        lhs = terms[n] * terms[n - 4]
        rhs = params.r * terms[n - 1] * terms[n - 3] + params.s * terms[n - 2] ** 2
        if lhs == rhs:
            checked.append(n)
        else:
            failures.append(n)
    return SomosCheck(ok=not failures, checked=checked, skipped=skipped, failures=failures)


# -- Jacobi continued fractions ----------------------------------------------


class JFraction(namedtuple("JFraction", "b lam exact")):
    """A truncated J-fraction; depth = len(lam), len(b) in {depth, depth+1}.

    `exact` marks a terminating fraction, which evaluates validly to any
    order.  Only a caller that knows the tail is identically zero may set
    it: a truncated series cannot prove that, so extraction never does.
    """

    __slots__ = ()

    def __new__(cls, b: tuple[Fraction, ...], lam: tuple[Fraction, ...], exact: bool = False):
        if len(b) not in (len(lam), len(lam) + 1):
            raise ValueError(
                f"a depth-{len(lam)} J-fraction needs {len(lam)} or "
                f"{len(lam) + 1} b values, got {len(b)}"
            )
        return super().__new__(cls, b, lam, exact)

    @property
    def depth(self) -> int:
        return len(self.lam)

    def to_dict(self) -> dict:
        return {
            "b": [str(v) for v in self.b],
            "lam": [str(v) for v in self.lam],
            "exact": self.exact,
        }

    def __str__(self) -> str:
        b = ", ".join(str(v) for v in self.b)
        lam = ", ".join(str(v) for v in self.lam)
        tail = ", terminating" if self.exact else ""
        return f"b = [{b}]; lambda = [{lam}]{tail}"


def jfrac_extract(g: Series, depth: int) -> JFraction:
    """Read b and lambda off a series with g(0) = 1 (Chebyshev's algorithm).

    T[k][k] = 1 (the all-up path), so row k of the path table gives b_k, and
    row k+1 gives lambda_{k+1} and column k+1.  If some lambda vanishes the
    extraction stops there and the returned fraction reports the depth
    actually achieved.  It is never marked exact: a lambda that vanishes on
    the available order (as for a prefix of 1/(1-x)) may not vanish on a
    longer series.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if g[0] != 1:
        raise ValueError("extraction needs g(0) = 1")
    if g.order < 2 * depth + 1:
        raise InsufficientTermsError(
            f"depth {depth} needs order {2 * depth + 1}, got {g.order}"
        )
    b: list[Fraction] = []
    lam: list[Fraction] = []
    col = g.coefficients()  # T[n][k] for the current column k
    prev = [Fraction(0)] * len(col)  # T[n][k-1]
    for k in range(depth):
        b.append(col[k + 1] - prev[k])
        # lambda_{k+1} T[n][k+1] = T[n+1][k] - T[n][k-1] - b_k T[n][k]
        nxt = [col[n + 1] - prev[n] - b[k] * col[n] for n in range(len(col) - 1)]
        if nxt[k + 1] == 0:
            break
        lam.append(Fraction(nxt[k + 1]))
        prev, col = col, [v / lam[k] for v in nxt]
    return JFraction(tuple(b), tuple(lam))


def jfrac_from_points(curve: Curve, shift: Rat, depth: int) -> JFraction:
    """Build the J-fraction of the shift-th binomial transform of g from
    multiples of the base point.

    b_j = (y([(j+2)]P) - 1)/x([(j+2)]P) + (c - a - 1) + shift for
    j = 0..depth-1, lambda_j = -x([(j+1)]P) for j = 1..depth.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return _jfrac_from_multiples(curve, curve.multiples(depth + 1), shift, depth)


def _jfrac_from_multiples(
    curve: Curve, pts: Sequence[Point], shift: Rat, depth: int
) -> JFraction:
    """jfrac_from_points on multiples already computed: pts is
    curve.multiples(m) for some m, and only its first depth + 1 entries
    are read."""
    pts = pts[: depth + 1]
    if len(pts) < depth + 1 or pts[-1].is_infinity:
        raise TorsionDepthError(
            f"depth {depth} needs [{depth + 1}]P affine but the base point has finite order"
        )
    base = curve.c - curve.a - 1 + Fraction(shift)
    b: list[Fraction] = []
    lam: list[Fraction] = []
    for j in range(depth):
        pt = pts[j + 1]  # the (j+2)-th multiple
        if pt.x == 0:
            raise ZeroXCoordinateError(f"[{j + 2}]P has x = 0")
        b.append((pt.y - 1) / pt.x + base)
        lam.append(-pt.x)
    return JFraction(tuple(b), tuple(lam))


def jfrac_eval(jf: JFraction, order: int) -> Series:
    """Evaluate a J-fraction as a series with `order` coefficients.

    Column 0 of the path table, on paths of height <= depth (b_k = 0 past
    the given b).  A depth-d fraction justifies order <= 2d (terminating
    fractions are exact at any order).  Row n is kept only at heights
    k <= order - 1 - n: a path higher than that cannot return to height 0
    by the last row.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if not jf.exact and order > 2 * jf.depth:
        raise InsufficientDepthError(
            f"order {order} needs depth >= {(order + 1) // 2}, have {jf.depth}"
        )
    top = min(jf.depth, (order - 1) // 2)  # higher paths cannot return in time
    b = jf.b + (Fraction(0),) * (top + 1 - len(jf.b))
    row = [Fraction(1)] + [Fraction(0)] * top
    coeffs = [row[0]]
    for n in range(1, order):
        prev = row
        row = [b[k] * prev[k] for k in range(min(top, order - 1 - n) + 1)]
        for k in range(1, len(row)):
            row[k] += prev[k - 1]
        for k in range(min(len(row), len(prev) - 1)):
            row[k] += jf.lam[k] * prev[k + 1]
        coeffs.append(row[0])
    return Series(coeffs)
