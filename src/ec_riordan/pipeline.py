"""The derivation pipeline from curve parameters to series and arrays.

From the curve's series branch y1 the paper's chain is

    z = (y1 - c*x)/x^2,   G = x/(1 - x - x^2 z),   g = revert(G)/x,

followed by gamma = binomial transform of g with parameter a - 2c + 1.
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
    """The binomial transform of g with parameter a - 2c + 1."""
    return derive_g(curve, order).binomial(curve.a - 2 * curve.c + 1)


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


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def full_verify(curve: Curve, order: int = 24) -> VerifyReport:
    """Run every derivation route on one curve and cross-check exactly."""
    if order < 9:
        raise ValueError("order must be at least 9")
    report = VerifyReport(curve=curve.to_dict(), order=order)
    checks = report.checks
    shift = curve.a - 2 * curve.c + 1

    g = derive_g(curve, order)
    gamma = g.binomial(shift)
    am_g = g_family_params(curve.a, curve.b, curve.c)
    am_gamma = gamma_family_params(curve.a, curve.b, curve.c)

    # the kernel equation has one power-series solution, the closed form
    ok = verify_kernel(g.shift_up(1), am_g)
    checks.append(
        CheckResult("g reversion vs closed form", ok, f"{order} coefficients")
    )

    ok = verify_kernel(gamma.shift_up(1), am_gamma)
    checks.append(
        CheckResult(
            "gamma binomial vs closed form",
            ok,
            f"binomial parameter {shift}, {order} coefficients",
        )
    )

    n_formula = min(order, 15)
    ok = all(_coefficient_sum(am_g, n) == g[n] for n in range(n_formula))
    checks.append(
        CheckResult("g coefficient formula", ok, f"n < {n_formula}")
    )
    ok = all(_coefficient_sum(am_gamma, n) == gamma[n] for n in range(n_formula))
    checks.append(
        CheckResult("gamma coefficient formula", ok, f"n < {n_formula}")
    )

    rows = min(order, 12)
    bell_g = riordan_build(g, g.shift_up(1).truncate(g.order), rows)
    ok = dp_count(stepset_for_g(curve), rows) == bell_g.rows
    checks.append(CheckResult("lattice DP vs Riordan rows (g)", ok, f"{rows} rows"))
    bell_gamma = riordan_build(gamma, gamma.shift_up(1).truncate(gamma.order), rows)
    ok = dp_count(stepset_for_gamma(curve), rows) == bell_gamma.rows
    checks.append(
        CheckResult("lattice DP vs Riordan rows (gamma)", ok, f"{rows} rows")
    )

    count = (order + 1) // 2
    jf_g, h = _hankel_jfrac(g.prefix(2 * count - 1), count)
    params = somos_params(curve)
    params_g = somos_params_from_amatrix(am_g)
    params_pair = somos_params_from_amatrix(am_gamma)
    sv = somos_verify(h, params)
    ok = bool(sv) and params == params_g == params_pair
    detail = f"(r, s) = ({params.r}, {params.s}); checked {len(sv.checked)} indices"
    if sv.skipped:
        detail += f"; skipped zero divisors at {sv.skipped}"
    checks.append(CheckResult("Hankel Somos-4", ok, detail))

    w = curve.eds(count + 1)
    ok = all(abs(w[n + 2]) == abs(h[n]) for n in range(count))
    signs = "".join(
        "0" if h[n] == 0 else ("+" if _sign(w[n + 2]) == _sign(h[n]) else "-")
        for n in range(count)
    )
    checks.append(
        CheckResult(
            "EDS magnitude vs Hankel", ok, f"n < {count}; sign vector {signs}"
        )
    )

    # depth (order-1)//2 reads 2*depth + 1 <= order coefficients, so every
    # lambda is compared; g's fraction is the one the minors were read off
    depth = count - 1
    pts = curve.multiples(depth + 1)
    if pts[-1].is_infinity:  # then [m-1]P = -P = (0, 1) skips both checks
        depth = len(pts) - 2
    for name, jf_shift, extract in (
        ("J-fraction from points (g)", Fraction(0), lambda: jf_g),
        ("J-fraction from points (gamma)", shift, lambda: jfrac_extract(gamma, depth)),
    ):
        try:
            jf = _jfrac_from_multiples(curve, pts, jf_shift, depth)
        except ZeroXCoordinateError as exc:
            checks.append(CheckResult(name, True, f"skipped: {exc}"))
            continue
        ok = extract() == jf
        checks.append(CheckResult(name, ok, f"depth {depth}, {2 * depth} coefficients"))

    condition = curve.a * curve.c - curve.b - curve.c * curve.c == 0
    ok = pseudo_involution_check(gamma, rows) == condition
    checks.append(
        CheckResult(
            "pseudo-involution iff a*c - b - c^2 = 0",
            ok,
            f"condition {'holds' if condition else 'fails'}, {rows} rows",
        )
    )

    return report
