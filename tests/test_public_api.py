"""The package's supported surface: `__all__` is what the README documents,
and the records it returns: how they are built, compared and shown."""

import copy
import pickle
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import ec_riordan
from ec_riordan.curve import INFINITY, Point
from ec_riordan.oeis import BFile, MatchResult
from ec_riordan.paths import StepSet
from ec_riordan.pipeline import CheckResult, VerifyReport
from ec_riordan.riordan import AMatrix
from ec_riordan.transforms import JFraction, SomosCheck, SomosParams

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


# -- the records: tuples for the immutable ones, slotted classes otherwise ---


def _frozen(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def _equal_and_hash_equal(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)


class TestRecords:
    def test_point(self):
        p = Point(F(0), F(0))
        assert repr(p) == "Point(x=Fraction(0, 1), y=Fraction(0, 1))"
        _equal_and_hash_equal(p, Point(x=F(0), y=F(0)))
        _equal_and_hash_equal(Point(None, None), INFINITY)
        assert Point(*(F(1), F(2))) != p
        x, y = p
        assert (x, y) == p == (F(0), F(0)) and p[1] == F(0)
        assert str(p) == "(0, 0)" and str(INFINITY) == "infinity"
        _frozen(p, "x")

    def test_amatrix(self):
        am = AMatrix.of(1, 2, 3, 4)
        assert repr(am) == (
            "AMatrix(alpha=Fraction(1, 1), beta=Fraction(2, 1), "
            "gamma=Fraction(3, 1), delta=Fraction(4, 1))"
        )
        _equal_and_hash_equal(am, AMatrix(alpha=F(1), beta=F(2), gamma=F(3), delta=F(4)))
        assert am != AMatrix.of(1, 2, 3, 5)
        assert tuple(am) == (1, 2, 3, 4)
        _frozen(am, "alpha")

    def test_somos_params(self):
        sp = SomosParams(F(1), F(-2))
        assert repr(sp) == "SomosParams(r=Fraction(1, 1), s=Fraction(-2, 1))"
        _equal_and_hash_equal(sp, SomosParams(r=F(1), s=F(-2)))
        assert sp != SomosParams(F(1), F(2))
        _frozen(sp, "r")

    def test_somos_check(self):
        ok = SomosCheck(ok=True, checked=[4, 5], skipped=[], failures=[])
        assert repr(ok) == "SomosCheck(ok=True, checked=[4, 5], skipped=[], failures=[])"
        assert ok == SomosCheck(True, [4, 5], [], [])
        assert ok != SomosCheck(True, [4], [5], [])
        assert ok and not SomosCheck(ok=False, checked=[4], skipped=[], failures=[5])
        # truthiness follows ok, not the tuple's length
        assert not SomosCheck(False, [], [], [])
        with pytest.raises(TypeError):
            SomosCheck(ok=True)  # the lists no longer default to empty

    def test_jfraction(self):
        jf = JFraction((F(1),), ())
        assert repr(jf) == "JFraction(b=(Fraction(1, 1),), lam=(), exact=False)"
        _equal_and_hash_equal(jf, JFraction(b=(F(1),), lam=(), exact=False))
        assert jf != JFraction((F(1),), (), exact=True)
        assert JFraction((F(1), F(2)), (F(3),), True).depth == 1
        with pytest.raises(ValueError):
            JFraction((), (F(1), F(2)))
        _frozen(jf, "exact")

    def test_stepset(self):
        ss = StepSet.of([(1, 1, 1), (1, 0, F(-2, 1))], origin_override=F(3, 1))
        assert repr(ss) == "StepSet(steps=((1, 1, 1), (1, 0, -2)), origin_override=3)"
        _equal_and_hash_equal(ss, StepSet(((1, 1, 1), (1, 0, -2)), 3))
        assert StepSet(((1, 1, 1),)) == StepSet(((1, 1, 1),), None) != ss
        with pytest.raises(ValueError):
            StepSet(((3, 0, 1),))
        with pytest.raises(ValueError):
            StepSet(steps=((1, 2, 1),), origin_override=None)
        _frozen(ss, "steps")

    def test_match_result(self):
        mr = MatchResult(False, None, 6, (4, "5", "99"))
        assert repr(mr) == (
            "MatchResult(matched=False, offset=None, compared=6, "
            "first_mismatch=(4, '5', '99'))"
        )
        _equal_and_hash_equal(mr, MatchResult(False, None, 6, (4, "5", "99")))
        assert mr != MatchResult(True, 0, 6, None)
        _frozen(mr, "matched")

    def test_check_result(self):
        ch = CheckResult("g reversion", True, "12 coefficients")
        assert repr(ch) == (
            "CheckResult(name='g reversion', passed=True, detail='12 coefficients')"
        )
        assert ch == CheckResult("g reversion", True, "12 coefficients")
        assert ch != CheckResult("g reversion", False, "12 coefficients")
        assert CheckResult("x", True) == CheckResult("x", True, "")
        assert ch != ("g reversion", True, "12 coefficients")
        ch.passed = False  # reports are edited in place
        assert ch == CheckResult("g reversion", False, "12 coefficients")
        with pytest.raises(TypeError):
            hash(ch)

    def test_verify_report(self):
        report = VerifyReport(curve={"a": "1"}, order=12)
        assert repr(report) == "VerifyReport(curve={'a': '1'}, order=12, checks=[])"
        other = VerifyReport({"a": "1"}, 12)
        assert report == other and report.checks is not other.checks
        report.checks.append(CheckResult("x", True))
        assert report != other
        assert report == VerifyReport({"a": "1"}, 12, [CheckResult("x", True)])
        assert report.all_pass
        report.checks[0].passed = False
        assert not report.all_pass
        with pytest.raises(TypeError):
            hash(report)

    def test_copy_and_pickle(self):
        records = [
            Point(F(1), F(2)), AMatrix.of(1, 2, 3, 4), SomosParams(F(1), F(2)),
            SomosCheck(True, [4], [], []), JFraction((F(1),), ()), StepSet(((1, 1, 1),)),
            MatchResult(True, 0, 6, None), CheckResult("x", True, "d"),
            VerifyReport({"a": "1"}, 12, [CheckResult("x", False)]),
            BFile("A000000", 0, (1, 2), "text"),
        ]
        for record in records:
            for protocol in (0, pickle.HIGHEST_PROTOCOL):
                again = pickle.loads(pickle.dumps(record, protocol))
                assert again == record and type(again) is type(record)
            assert copy.copy(record) == record == copy.deepcopy(record)

    def test_bfile(self):
        bf = BFile("A000000", 0, (1, 2), "text")
        assert repr(bf) == "BFile(anum='A000000', start=0, values=(1, 2), source='text')"
        _equal_and_hash_equal(bf, BFile("A000000", 0, (1, 2), "text"))
        assert bf != BFile("A000000", 1, (1, 2), "text")
        assert bf != ("A000000", 0, (1, 2), "text")
        assert len(bf) == 2
        _frozen(bf, "values")
