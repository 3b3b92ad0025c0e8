"""The derivation pipeline from curve parameters to series and arrays.

From the curve's series branch y1 the paper's chain is

    z = (y1 - c*x)/x^2,   G = x/(1 - x - x^2 z),   g = revert(G)/x,

followed by gamma = binomial transform of g with parameter p + 1, where
p = a - 2c (Curve.p).
derive_g computes it on integers, scaled by d, the lcm of the
denominators of a, b and c: y1(dx) by a recurrence from the curve
equation, and g by Lagrange inversion of the denominator of G at dx.
Both series also solve an A-matrix kernel equation
u/x = 1 + gamma*x + alpha*u + beta*u*x + delta*u^2*x in u = x*g, whose
one power-series solution has a Catalan closed form and explicit
double/triple-sum coefficient formulas.  full_verify cross-checks every
route exactly: g and gamma by the kernel equation, their J-fractions by
(b, lambda) against those from the multiples of the base point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from sys import intern

from ._record import Record
from .curve import Curve
from .riordan import (
    AMatrix,
    g_family_params,
    gamma_family_params,
    pseudo_involution_check,
    riordan_build,
    verify_kernel,
)
from .paths import dp_count, stepset_for_g, stepset_for_gamma
from .series import Series, _lagrange_coeffs, catalan_gf
from .transforms import (
    ZeroXCoordinateError,
    _hankel_jfrac,
    _jfrac_from_multiples,
    jfrac_extract,
    somos_params,
    somos_params_from_amatrix,
    somos_verify,
)


def derive_g(curve: Curve, order: int) -> Series:
    """The reverted generating function g, with exactly `order` coefficients.

    With d the lcm of the denominators of a, b and c, Y(x) = y1(dx) is an
    integer series: the curve equation gives it by the fixed-point
    recurrence Y (1 + A x) = Y^2 + C x + B x^2 - d^3 x^3, with A = a d,
    B = b d^2 and C = c d.  G = x/phi(x), where
    phi = 1 - x - x^2 z = 1 - x - (y1 - c x), and phi(dx) =
    1 - d x - sum_{k>=2} Y_k x^k.  Lagrange inversion then gives
    g_k = [x^k] phi(dx)^(k+1) / ((k+1) d^k), exact whatever the
    integrality.  g always expands 1, -1, ... in this curve family.
    """
    if order < 1:
        raise ValueError("order must be positive")
    d = math.lcm(curve.a.denominator, curve.b.denominator, curve.c.denominator)
    big_a = int(curve.a * d)
    forcing = [0, int(curve.c * d), int(curve.b * d * d), -(d**3)] + [0] * order
    y = [0] * order
    for n in range(1, order):
        square = sum(y[i] * y[n - i] for i in range(1, n))
        y[n] = square - big_a * y[n - 1] + forcing[n]
    phi = ([1, -d] + [-v for v in y[2:]])[:order]
    coeffs = _lagrange_coeffs(phi, order)
    return Series(Fraction(c, k * d ** (k - 1)) for k, c in enumerate(coeffs, 1))


def amatrix_gf(am: AMatrix, order: int) -> Series:
    """Closed form (1 + gamma x)/(1 - alpha x - beta x^2) * C(delta x^3 (1 + gamma x)/(1 - alpha x - beta x^2)^2)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    numer = Series.poly([1, am.gamma], order)
    denom = Series.poly([1, -am.alpha, -am.beta], order)
    rational = numer / denom
    argument = (am.delta * (rational / denom)).shift_up(3).truncate(order)
    return rational * catalan_gf(order).compose(argument)


def closed_form_g(curve: Curve, order: int) -> Series:
    """g again, but through the Catalan closed form instead of reversion."""
    return amatrix_gf(g_family_params(curve.a, curve.b, curve.c), order)


def derive_gamma(curve: Curve, order: int) -> Series:
    """The binomial transform of g with parameter p + 1 = a - 2c + 1."""
    return derive_g(curve, order).binomial(curve.p + 1)


# -- explicit coefficient formulas -------------------------------------------


def _coefficient_sum(am: AMatrix, n: int) -> Fraction:
    """[x^n] amatrix_gf(am) by the closed triple sum over its parameters.

    sum_{k=0}^{n} delta^k Cat_k sum_{j=0}^{k+1} C(k+1,j) gamma^j
        sum_i C(2k+i,i) C(i, n-3k-i-j) alpha^(2i+3k+j-n) beta^(n-3k-i-j).

    With top = n-3k-j, C(i, top-i) is nonzero only for top/2 <= i <= top,
    so the loops run over exactly those terms and the alpha exponent
    2i - top is never negative.  The sum runs on integers: with d the lcm
    of the parameter denominators, alpha d, beta d^2, gamma d and
    delta d^3 are integers, and every term has weight n in them, so the
    scaled sum is d^n times the rational one.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    params = (am.alpha, am.beta, am.gamma, am.delta)
    d = math.lcm(*(v.denominator for v in params))
    alpha, beta, gamma, delta = (int(v * d**w) for v, w in zip(params, (1, 2, 1, 3)))
    alpha_pow = [alpha**e for e in range(n + 1)]
    beta_pow = [beta**e for e in range(n // 2 + 1)]
    total = 0
    for k in range(n // 3 + 1):
        cat = math.comb(2 * k, k) // (k + 1) * delta**k
        for j in range(min(k + 1, n - 3 * k) + 1):
            gamma_pow = gamma**j
            if gamma_pow == 0:
                continue
            top = n - 3 * k - j
            inner = sum(
                math.comb(2 * k + i, i)
                * math.comb(i, top - i)
                * alpha_pow[2 * i - top]
                * beta_pow[top - i]
                for i in range((top + 1) // 2, top + 1)
            )
            total += math.comb(k + 1, j) * gamma_pow * cat * inner
    return Fraction(total, d**n)


def g_coefficient_formula(curve: Curve, n: int) -> Fraction:
    """Coefficient n of g by the triple sum over the g-family A-matrix."""
    return _coefficient_sum(g_family_params(curve.a, curve.b, curve.c), n)


def gamma_coefficient_formula(curve: Curve, n: int) -> Fraction:
    """Coefficient n of gamma by the closed double sum.

    The gamma family has gamma = 0, so only j = 0 survives the triple sum:

    v_n = sum_{k=0}^{n} sum_{i=0}^{n-3k} C(2k+i,i) C(i, n-3k-i)
          beta^(n-3k-i) alpha^(2i-n+3k) Cat_k.
    """
    return _coefficient_sum(gamma_family_params(curve.a, curve.b, curve.c), n)


# -- the cross-checking report -----------------------------------------------


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


class VerifyReport(Record):
    __slots__ = ("curve", "order", "checks")

    def __init__(self, curve: dict, order: int, checks: list[CheckResult] | None = None):
        self.curve, self.order, self.checks = curve, order, [] if checks is None else checks

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "order": self.order,
            "checks": [c.to_dict() for c in self.checks],
            "all_pass": self.all_pass,
        }


def full_verify(curve: Curve, order: int = 24) -> VerifyReport:
    """Run every derivation route on one curve and cross-check exactly."""
    if order < 9:
        raise ValueError("order must be at least 9")
    abc = curve.a, curve.b, curve.c
    shift = curve.p + 1
    g = derive_g(curve, order)
    gamma = g.binomial(shift)
    am_g, am_gamma = g_family_params(*abc), gamma_family_params(*abc)
    families = (  # name, series, A-matrix, step-set builder, binomial shift
        ("g", g, am_g, stepset_for_g, Fraction(0)),
        ("gamma", gamma, am_gamma, stepset_for_gamma, shift),
    )
    n_formula, rows, count = min(order, 15), min(order, 12), (order + 1) // 2
    jf_g, h = _hankel_jfrac(g.prefix(2 * count - 1), count)
    # depth (order-1)//2 reads 2*depth + 1 <= order coefficients, so every lambda is
    # compared; torsion ends the multiples at [m-1]P = -P = (0, 1): both rows skip
    pts = curve.multiples(count)
    depth = len(pts) - 1 - pts[-1].is_infinity
    condition = curve.q == 0

    def formula(s, am):
        return all(_coefficient_sum(am, n) == s[n] for n in range(n_formula)), f"n < {n_formula}"
    def lattice(s, stepset):
        bell = riordan_build(s, s.shift_up(1).truncate(s.order), rows)
        return dp_count(stepset(curve), rows) == bell.rows, f"{rows} rows"
    def somos():
        params = somos_params(curve)
        sv = somos_verify(h, params)
        ok = bool(sv) and all(somos_params_from_amatrix(am) == params for am in (am_g, am_gamma))
        skipped = f"; skipped zero divisors at {sv.skipped}" if sv.skipped else ""
        return ok, f"(r, s) = ({params.r}, {params.s}); checked {len(sv.checked)} indices{skipped}"
    def eds():
        w = curve.eds(count + 1)[2:]
        signs = "".join("0" if y == 0 else "+" if x * y > 0 else "-" for x, y in zip(w, h))
        # h_n = (-1)^(n+1) W_(n+2): x([m]P) = -W_(m-1) W_(m+1) / W_m^2 (Ward 1948)
        same = all(y == (x if n % 2 else -x) for n, (x, y) in enumerate(zip(w, h)))
        return same, f"n < {count}; sign vector {signs}"
    def points(s, jf_shift):  # g's fraction is the one the minors were read off
        try:
            jf = _jfrac_from_multiples(curve, pts, jf_shift, depth)
        except ZeroXCoordinateError as exc:
            return True, f"skipped: {exc}"
        ok = (jf_g if s is g else jfrac_extract(s, depth)) == jf
        return ok, f"depth {depth}, {2 * depth} coefficients"

    table = [  # one row per check: its name, and a callable returning (passed, detail)
        # the kernel equation has one power-series solution, the closed form
        ("g reversion vs closed form",
         lambda: (verify_kernel(g.shift_up(1), am_g), f"{order} coefficients")),
        ("gamma binomial vs closed form",
         lambda: (verify_kernel(gamma.shift_up(1), am_gamma),
                  f"binomial parameter {shift}, {order} coefficients")),
        *((f"{name} coefficient formula", partial(formula, s, am))
          for name, s, am, _, _ in families),
        *((f"lattice DP vs Riordan rows ({name})", partial(lattice, s, stepset))
          for name, s, _, stepset, _ in families),
        ("Hankel Somos-4", somos),
        ("EDS magnitude vs Hankel", eds),
        *((f"J-fraction from points ({name})", partial(points, s, jf_shift))
          for name, s, _, _, jf_shift in families),
        ("pseudo-involution iff a*c - b - c^2 = 0",
         lambda: (pseudo_involution_check(gamma, rows) == condition,
                  f"condition {'holds' if condition else 'fails'}, {rows} rows")),
    ]
    # interned names: the reports a caller keeps share one copy of each
    return VerifyReport(curve.to_dict(), order, [CheckResult(intern(n), *f()) for n, f in table])
