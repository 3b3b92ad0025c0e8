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


def test_readme_quick_start_runs(capsys):
    # the block asserts the EDS identity that full_verify checks, and
    # prints check.ok; each print is followed by the output it gives
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    shown = [line.split("# ")[1].split(" (")[0] for line in block.splitlines()
             if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == shown


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
        ok = SomosCheck(checked=[4, 5], skipped=[], failures=[])
        assert repr(ok) == "SomosCheck(checked=[4, 5], skipped=[], failures=[])"
        assert ok == SomosCheck([4, 5], [], [])
        assert ok != SomosCheck([4], [5], [])
        assert ok and not SomosCheck(checked=[4], skipped=[], failures=[5])
        # ok and truthiness follow the failures, not the tuple's length
        assert ok.ok and not SomosCheck([], [], [4]).ok
        assert not SomosCheck([], [], [4])
        assert SomosCheck._fields == ("checked", "skipped", "failures")
        with pytest.raises(TypeError):
            SomosCheck(checked=[4])  # the lists do not default to empty
        with pytest.raises(TypeError):
            SomosCheck(True, [], [], [])  # the verdict is not a field
        _frozen(ok, "ok")

    def test_jfraction(self):
        jf = JFraction((F(1),), ())
        assert repr(jf) == "JFraction(b=(Fraction(1, 1),), lam=())"
        _equal_and_hash_equal(jf, JFraction(b=(F(1),), lam=()))
        # exact is read off the lambdas: a zero one ends the fraction
        whole = JFraction((F(1), F(0)), (F(0),))
        assert whole.exact and not jf.exact and jf != whole
        assert JFraction((F(1), F(2)), (F(3),)).depth == 1
        assert JFraction._fields == ("b", "lam")
        with pytest.raises(ValueError):
            JFraction((), (F(1), F(2)))
        with pytest.raises(TypeError):
            JFraction((F(1),), (), True)  # the verdict is not a field
        with pytest.raises(TypeError):
            JFraction((F(1),), (), exact=True)
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
        mr = MatchResult(None, 6, (4, "5", "99"))
        assert repr(mr) == (
            "MatchResult(offset=None, compared=6, first_mismatch=(4, '5', '99'))"
        )
        _equal_and_hash_equal(mr, MatchResult(None, 6, (4, "5", "99")))
        assert mr != MatchResult(0, 6, None)
        # matched is read off the offset: shift 0 is a match, None is not
        assert MatchResult(0, 6, None).matched and not mr.matched
        assert MatchResult._fields == ("offset", "compared", "first_mismatch")
        with pytest.raises(TypeError):
            MatchResult(True, 0, 6, None)  # the verdict is not a field
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
            SomosCheck([4], [], []), JFraction((F(1),), ()), JFraction((F(1), F(0)), (F(0),)),
            StepSet(((1, 1, 1),)), MatchResult(0, 6, None), CheckResult("x", True, "d"),
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
