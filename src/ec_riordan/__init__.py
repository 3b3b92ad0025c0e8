"""Exact arithmetic for a family of elliptic curves through the origin,
the power series their branches generate, and the Riordan arrays, lattice
paths, Hankel transforms, Somos sequences and continued fractions that all
turn out to encode the same data.

Everything is exact: results are int where integral, Fraction otherwise,
computed on Fractions or on integers over a known common denominator.  No
floats, no tolerances.
"""

from .series import (
    InsufficientOrderError,
    NonUnitConstantError,
    NonzeroInnerConstantError,
    NotRevertibleError,
    Series,
    SeriesError,
    ZeroConstantTermError,
    catalan_gf,
)
from .curve import (
    Curve,
    INFINITY,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
)
from .riordan import (
    AMatrix,
    RiordanArray,
    g_family_params,
    gamma_family_params,
    orbit_shift,
    pseudo_involution_check,
    riordan_build,
    verify_kernel,
)
from .paths import (
    BRUTE_FORCE_LIMIT,
    SearchSpaceTooLargeError,
    StepSet,
    brute_force_count,
    brute_force_table,
    dp_count,
    riordan_from_recurrence,
    stepset_for_g,
    stepset_for_gamma,
    stepset_orbit,
)
from .transforms import (
    InsufficientDepthError,
    InsufficientTermsError,
    JFraction,
    SomosCheck,
    SomosParams,
    TorsionDepthError,
    ZeroXCoordinateError,
    hankel_point_product,
    hankel_transform,
    jfrac_eval,
    jfrac_extract,
    jfrac_from_points,
    somos_params,
    somos_params_from_amatrix,
    somos_verify,
)
from .pipeline import (
    CheckResult,
    VerifyReport,
    amatrix_gf,
    closed_form_g,
    derive_g,
    derive_gamma,
    full_verify,
    g_coefficient_formula,
    gamma_coefficient_formula,
)

__version__ = "0.1.0"

# The supported surface: the names the README documents.  Everything the
# import block above brings in stays importable from the package.
__all__ = [
    "AMatrix",
    "Curve",
    "Point",
    "SearchSpaceTooLargeError",
    "Series",
    "TorsionDepthError",
    "brute_force_count",
    "brute_force_table",
    "closed_form_g",
    "derive_g",
    "derive_gamma",
    "dp_count",
    "full_verify",
    "g_coefficient_formula",
    "gamma_coefficient_formula",
    "hankel_transform",
    "jfrac_extract",
    "jfrac_from_points",
    "riordan_build",
    "riordan_from_recurrence",
    "somos_params",
    "somos_verify",
    "stepset_for_g",
    "__version__",
]
