"""Exact truncated formal power series over the rationals.

A :class:`Series` holds coefficients of x^0 .. x^(order-1) as exact
rationals: int where integral, `fractions.Fraction` otherwise.  Every
operation truncates its result to the order it can actually justify from
its inputs (the minimum of the operand orders, adjusted for shifts), so a
coefficient you can read is a coefficient that is exactly right.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


class SeriesError(ValueError):
    """Base class for series precondition failures."""


class ZeroConstantTermError(SeriesError):
    """Division or inversion needs a nonzero constant term."""


class NonUnitConstantError(SeriesError):
    """Square root needs constant term exactly 1."""


class NonzeroInnerConstantError(SeriesError):
    """Composition needs the inner series to vanish at 0."""


class NotRevertibleError(SeriesError):
    """Reversion needs f(0) = 0 and f'(0) = 1."""


class InsufficientOrderError(SeriesError):
    """An operand does not carry enough coefficients."""


def _rat(value: Rat) -> Rat:
    """An exact rational: int where integral, Fraction otherwise."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Series:
    """A power series known exactly through x^(order-1)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rat]):
        self._coeffs = tuple(_rat(c) for c in coeffs)
        if not self._coeffs:
            raise SeriesError("a series needs at least one coefficient")

    # -- constructors ------------------------------------------------------

    @classmethod
    def poly(cls, coeffs: Iterable[Rat], order: int) -> "Series":
        """The polynomial with the given coefficients, padded to `order`.

        Polynomials are exact at every order, so padding with zeros is
        legitimate; if `order` is shorter than the list the tail is dropped.
        """
        cs = [_rat(c) for c in coeffs]
        if order < 1:
            raise SeriesError("order must be at least 1")
        if len(cs) < order:
            cs.extend([0] * (order - len(cs)))
        return cls(cs[:order])

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.poly([1], order)

    @classmethod
    def x(cls, order: int) -> "Series":
        return cls.poly([0, 1], order)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, n: int) -> Rat:
        if not 0 <= n < len(self._coeffs):
            raise InsufficientOrderError(
                f"coefficient {n} requested but series is only valid to order {self.order}"
            )
        return self._coeffs[n]

    def coefficients(self) -> list[Rat]:
        return list(self._coeffs)

    def prefix(self, n: int) -> list[Rat]:
        """The first n coefficients as a list."""
        if n > self.order:
            raise InsufficientOrderError(
                f"{n} coefficients requested but series is only valid to order {self.order}"
            )
        return list(self._coeffs[:n])

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise InsufficientOrderError(
                f"cannot extend a series valid to order {self.order} to order {order}"
            )
        return Series(self._coeffs[:order])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series([{head}{tail}], order={self.order})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["Series", Rat]) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series([self._coeffs[k] + other._coeffs[k] for k in range(n)])
        w = _rat(other)
        return Series((self._coeffs[0] + w,) + self._coeffs[1:])

    def __radd__(self, other: Rat) -> "Series":
        return self.__add__(other)

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs])

    def __sub__(self, other: Union["Series", Rat]) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series([self._coeffs[k] - other._coeffs[k] for k in range(n)])
        return self.__add__(-_rat(other))

    def __rsub__(self, other: Rat) -> "Series":
        return (-self).__add__(_rat(other))

    def __mul__(self, other: Union["Series", Rat]) -> "Series":
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(_mul(self._coeffs, other._coeffs, n))
        w = _rat(other)
        return Series([c * w for c in self._coeffs])

    def __rmul__(self, other: Rat) -> "Series":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Series", Rat]) -> "Series":
        if isinstance(other, Series):
            return _div(self, other)
        w = _rat(other)
        if w == 0:
            raise ZeroDivisionError("division of a series by zero")
        return Series([Fraction(c, w) for c in self._coeffs])

    def __rtruediv__(self, other: Rat) -> "Series":
        return _div(Series.poly([_rat(other)], self.order), self)

    # -- shifts ------------------------------------------------------------

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by x^k.  The new low coefficients are exact zeros."""
        return Series((0,) * k + self._coeffs)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by x^k; the first k coefficients must vanish."""
        if any(c != 0 for c in self._coeffs[:k]):
            raise SeriesError(f"series is not divisible by x^{k}")
        if self.order <= k:
            raise InsufficientOrderError("nothing left after the shift")
        return Series(self._coeffs[k:])

    # -- transcendental-ish operations ------------------------------------

    def sqrt(self) -> "Series":
        """The square root with constant term +1.

        Requires f_0 = 1 exactly.  Coefficients follow from matching r*r = f:
        r_n = (f_n - sum_{i=1}^{n-1} r_i r_{n-i}) / 2.
        """
        if self._coeffs[0] != 1:
            raise NonUnitConstantError("sqrt needs constant term exactly 1")
        n = self.order
        r = [1] + [0] * (n - 1)
        for k in range(1, n):
            acc = self._coeffs[k]
            for i in range(1, k):
                acc -= r[i] * r[k - i]
            r[k] = _rat(Fraction(acc, 2))
        return Series(r)

    def compose(self, inner: "Series") -> "Series":
        """f(g(x)) for g with g(0) = 0, by Horner evaluation.

        With v the valuation of g (its lowest nonzero power) and
        h = g/x^v, f(g) = sum_k f_k x^(kv) h^k, so only the terms
        k <= (n-1)//v reach order n.  Horner's rule runs over those alone,
        and step k keeps n - k*v coefficients: acc_k = f_k + x^v h acc_(k+1).
        """
        if inner._coeffs[0] != 0:
            raise NonzeroInnerConstantError("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        v = next((i for i in range(1, n) if inner._coeffs[i] != 0), n)
        h = inner._coeffs[v:n]
        top = (n - 1) // v
        acc = [self._coeffs[top]] + [0] * (n - top * v - 1)
        for k in range(top - 1, -1, -1):
            acc = [self._coeffs[k]] + [0] * (v - 1) + _mul(acc, h, len(acc))
        return Series(acc)

    def revert(self) -> "Series":
        """The compositional inverse of f, for f(0) = 0, f'(0) = 1.

        Lagrange inversion: with phi = x/f, the inverse u has
        u_k = [x^(k-1)] phi^k / k.  Exact, and it keeps the full order.
        """
        if self.order < 2:
            raise InsufficientOrderError("reversion needs order >= 2")
        if self._coeffs[0] != 0 or self._coeffs[1] != 1:
            raise NotRevertibleError("reversion needs f(0) = 0 and f'(0) = 1")
        size = self.order - 1  # phi = x/f is known to one order less than f
        phi = (Series.one(size) / self.shift_down(1))._coeffs
        coeffs = _lagrange_coeffs(phi, size)
        return Series([0] + [Fraction(c, k) for k, c in enumerate(coeffs, 1)])

    def binomial(self, r: Rat) -> "Series":
        """The binomial transform with parameter r.

        b_n = sum_k C(n, k) r^(n-k) a_k, equivalently
        (1/(1-rx)) * f(x/(1-rx)).  Order is preserved.  With r = p/q and
        L the lcm of the coefficient denominators, A_k = L a_k are integers
        and b_n = sum_k C(n, k) p^(n-k) q^k A_k / (q^n L): one integer sum
        and one Fraction per coefficient.
        """
        w = _rat(r)
        p, q = w.numerator, w.denominator
        den = math.lcm(*(c.denominator for c in self._coeffs))
        scaled = [
            q**k * c.numerator * (den // c.denominator)
            for k, c in enumerate(self._coeffs)
        ]
        p_pow = [p**e for e in range(self.order)]
        out = []
        for m in range(self.order):
            terms = enumerate(scaled[: m + 1])
            acc = sum(math.comb(m, k) * p_pow[m - k] * a for k, a in terms if a)
            out.append(Fraction(acc, q**m * den))
        return Series(out)


def _mul(a: Sequence[Rat], b: Sequence[Rat], n: int) -> list[Rat]:
    """The first n coefficients of the product of coefficient lists a and b.

    The lists may hold ints or Fractions; untouched entries stay int 0.
    """
    nonzero = [(j, c) for j, c in enumerate(b[:n]) if c != 0]
    out: list[Rat] = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j, c in nonzero:
            if i + j >= n:
                break
            out[i + j] += ai * c
    return out


def _lagrange_coeffs(phi: Sequence[Rat], count: int) -> list[Rat]:
    """[x^(k-1)] phi^k for k = 1..count, from the first count coefficients of phi.

    These are the Lagrange inversion numerators of x/phi.  The powers come
    baby-step/giant-step (F. Johansson, "A fast algorithm for reversion of
    power series", Math. Comp. 84, 2015): with m = isqrt(count), the baby
    powers phi^0..phi^(m-1) and the giant powers phi^(qm) give each
    phi^(qm+r) coefficient as one dot product, so about 2*sqrt(count)
    truncated products replace count-1.  Exact on ints and Fractions alike.
    """
    phi = list(phi[:count])
    m = math.isqrt(count)
    powers = [[1] + [0] * (count - 1), phi]
    while len(powers) <= m:
        powers.append(_mul(powers[-1], phi, count))
    baby, step = powers[:m], powers[m]
    giant = [powers[0], step]
    while len(giant) <= count // m:
        giant.append(_mul(giant[-1], step, count))
    out = []
    for k in range(1, count + 1):
        q, r = divmod(k, m)
        pairs = zip(baby[r][:k], reversed(giant[q][:k]))
        out.append(sum(x * y for x, y in pairs if x != 0))
    return out


def _div(f: Series, g: Series) -> Series:
    if g._coeffs[0] == 0:
        raise ZeroConstantTermError("division needs a nonzero constant term")
    n = min(f.order, g.order)
    g0 = g._coeffs[0]
    out: list[Rat] = [0] * n
    for k in range(n):
        acc = f._coeffs[k]
        for i in range(1, k + 1):
            if g._coeffs[i] != 0:
                acc -= g._coeffs[i] * out[k - i]
        out[k] = _rat(Fraction(acc, g0))
    return Series(out)


def catalan_gf(order: int) -> Series:
    """The Catalan number generating function C(x) = sum C(2n,n)/(n+1) x^n."""
    if order < 1:
        raise SeriesError("order must be at least 1")
    return Series([math.comb(2 * n, n) // (n + 1) for n in range(order)])
