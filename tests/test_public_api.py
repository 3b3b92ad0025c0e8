"""The package's supported surface: `__all__` is what the README documents."""

import re
from pathlib import Path

import ec_riordan

README = Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED = [
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
]


def test_all_is_the_documented_surface():
    assert ec_riordan.__all__ == DOCUMENTED + ["__version__"]


def test_every_listed_name_resolves():
    for name in ec_riordan.__all__:
        assert getattr(ec_riordan, name) is not None, name


def test_every_listed_name_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    for name in DOCUMENTED:
        assert re.search(rf"\b{name}\b", text), name
