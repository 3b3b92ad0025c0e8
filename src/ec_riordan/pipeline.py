"""The derivation pipeline from curve parameters to series and arrays.

From the curve's series branch y1 the chain is

    z = (y1 - c*x)/x^2,   G = x/(1 - x - x^2 z),
    f = revert(G),        g = f/x,

followed by gamma = binomial transform of g with parameter a - 2c + 1.
Both series also have closed forms over the A-matrix parameters via the
Catalan generating function, and explicit double/triple-sum coefficient
formulas.  full_verify runs every route on one curve and cross-checks them
with exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .curve import Curve
from .riordan import (
    AMatrix,
    g_family_params,
    gamma_family_params,
    pseudo_involution_check,
    riordan_build,
)
from .paths import dp_count, stepset_for_g, stepset_for_gamma
from .series import Series, catalan_gf
from .transforms import (
    TorsionDepthError,
    ZeroXCoordinateError,
    hankel_transform,
    jfrac_eval,
    jfrac_from_points,
    somos_params,
    somos_params_from_amatrix,
    somos_verify,
)


def derive_g(curve: Curve, order: int) -> Series:
    """The reverted generating function g, with exactly `order` coefficients.

    g always expands 1, -1, ... in this curve family.
    """
    if order < 1:
        raise ValueError("order must be positive")
    work = max(order, 3)  # the z series needs at least one coefficient
    y1, _ = curve.solve_y(work)
    z = (y1 - curve.c * Series.x(work)).shift_down(2)
    denom = Series.one(work) - Series.x(work) - z.shift_up(2)
    big_g = (Series.one(work) / denom).shift_up(1)
    return big_g.revert().shift_down(1).truncate(order)


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


def closed_form_gamma(curve: Curve, order: int) -> Series:
    return amatrix_gf(gamma_family_params(curve.a, curve.b, curve.c), order)


# -- explicit coefficient formulas -------------------------------------------


def _coefficient_sum(am: AMatrix, n: int) -> Fraction:
    """[x^n] amatrix_gf(am) by the closed triple sum over its parameters.

    sum_{k=0}^{n} sum_{j=0}^{k+1} C(k+1,j) gamma^j
        sum_i C(2k+i,i) C(i, n-3k-i-j) alpha^(2i+3k+j-n) beta^(n-3k-i-j) Cat_k.

    With top = n-3k-j, C(i, top-i) is nonzero only for top/2 <= i <= top,
    so the loops run over exactly those terms and the alpha exponent
    2i - top is never negative.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    alpha_pow = [am.alpha ** e for e in range(n + 1)]
    beta_pow = [am.beta ** e for e in range(n // 2 + 1)]
    total = Fraction(0)
    for k in range(n // 3 + 1):
        cat = Fraction(math.comb(2 * k, k), k + 1)
        for j in range(min(k + 1, n - 3 * k) + 1):
            gamma_pow = am.gamma ** j
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
    return total


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


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


@dataclass
class VerifyReport:
    curve: dict
    order: int
    checks: list[CheckResult] = field(default_factory=list)

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
    if order < 8:
        raise ValueError("order must be at least 8")
    report = VerifyReport(curve=curve.to_dict(), order=order)
    checks = report.checks
    shift = curve.a - 2 * curve.c + 1

    g = derive_g(curve, order)
    gamma = g.binomial(shift)

    ok = g == closed_form_g(curve, order)
    checks.append(
        CheckResult("g reversion vs closed form", ok, f"{order} coefficients")
    )

    ok = gamma == closed_form_gamma(curve, order)
    checks.append(
        CheckResult(
            "gamma binomial vs closed form",
            ok,
            f"binomial parameter {shift}, {order} coefficients",
        )
    )

    n_formula = min(order, 15)
    ok = all(g_coefficient_formula(curve, n) == g[n] for n in range(n_formula))
    checks.append(
        CheckResult("g coefficient formula", ok, f"n < {n_formula}")
    )
    ok = all(
        gamma_coefficient_formula(curve, n) == gamma[n] for n in range(n_formula)
    )
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
    h = hankel_transform(g.prefix(2 * count - 1), count)
    params = somos_params(curve)
    params_g = somos_params_from_amatrix(g_family_params(curve.a, curve.b, curve.c))
    params_pair = somos_params_from_amatrix(
        gamma_family_params(curve.a, curve.b, curve.c)
    )
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

    want_depth = (order - 1) // 2
    pts = curve.multiples(want_depth + 1)
    avail = len(pts) - (1 if pts[-1].is_infinity else 0)
    depth = min(want_depth, avail - 1)
    for name, target, jf_shift in (
        ("J-fraction from points (g)", g, Fraction(0)),
        ("J-fraction from points (gamma)", gamma, shift),
    ):
        if depth < 1:
            checks.append(
                CheckResult(name, True, "skipped: no affine multiple beyond P")
            )
            continue
        try:
            jf = jfrac_from_points(curve, jf_shift, depth)
        except (TorsionDepthError, ZeroXCoordinateError) as exc:
            checks.append(CheckResult(name, True, f"skipped: {exc}"))
            continue
        n_cmp = min(2 * depth, order)
        ok = jfrac_eval(jf, n_cmp) == target.truncate(n_cmp)
        note = f"depth {depth}, {n_cmp} coefficients"
        if depth < want_depth:
            note += " (depth limited by torsion)"
        checks.append(CheckResult(name, ok, note))

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
