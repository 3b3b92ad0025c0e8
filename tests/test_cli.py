"""The command line interface: outputs, formats, exit codes."""

import csv
import io
import json
import pathlib
import subprocess
import sys

import pytest

import ec_riordan
from ec_riordan import Curve, cli
from ec_riordan.cli import main
from ec_riordan.transforms import JFraction, SomosParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def console(*argv) -> list[str]:
    """A child interpreter that runs main() on sys.argv, as the console script does."""
    src = str(pathlib.Path(ec_riordan.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from ec_riordan.cli import main; sys.exit(main())"
    )
    return [sys.executable, "-I", "-c", code, *argv]


class TestDerive:
    def test_text(self, capsys):
        code, out, err = run(capsys, "derive", "-1", "-2", "-1", "--order", "7")
        assert code == 0
        assert "g:     1, -1, 3, -8, 22, -59, 155" in out
        assert "gamma: 1, 1, 3, 6, 14, 33, 79" in out
        assert "Somos-4 (r, s) = (1, -2)" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "derive", "-1", "-2", "-1", "--order", "5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["g"] == ["1", "-1", "3", "-8", "22"]
        assert doc["amatrix_g"] == {
            "alpha": "-3",
            "beta": "0",
            "gamma": "2",
            "delta": "1",
        }
        assert doc["binomial_shift"] == "2"

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "derive", "-1", "-2", "-1", "--order", "4", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "g_n", "gamma_n"]
        assert rows[1] == ["0", "1", "1"]
        assert rows[4] == ["3", "-8", "6"]

    def test_rational_parameters(self, capsys):
        code, out, _ = run(capsys, "derive", "1/2", "0", "0", "--order", "4")
        assert code == 0
        assert "a=1/2" in out


class TestVerify:
    def test_passes_on_worked_curve(self, capsys):
        code, out, _ = run(capsys, "verify", "-1", "-2", "-1", "--order", "10")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "0", "0", "0", "--order", "10", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True


class TestErrors:
    def test_singular_curve(self, capsys):
        code, out, err = run(capsys, "derive", "1", "2", "0")
        assert code == 2
        assert "singular" in err

    def test_orbit_without_r(self, capsys):
        code, _, err = run(capsys, "paths", "-1", "-2", "-1", "--family", "orbit")
        assert code == 2
        assert "--r" in err

    def test_torsion_jfrac(self, capsys):
        code, _, err = run(capsys, "jfrac", "3", "2", "2", "--depth", "6")
        assert code == 2
        assert "finite order" in err

    def test_bad_rational(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["derive", "x", "0", "0"])
        assert info.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    @pytest.mark.parametrize("command", ["points", "paths"])
    def test_order_refused_where_unread(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "-1", "-2", "-1", "--order", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --order 5" in capsys.readouterr().err

    def test_hankel_count_zero(self, capsys):
        code, _, err = run(capsys, "hankel", "-1", "-2", "-1", "--count", "0")
        assert code == 2
        assert "count must be at least 1" in err

    def test_bad_negative_rational_is_named_as_given(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["derive", "-1x", "0", "0"])
        assert info.value.code == 2
        assert "not a rational number: '-1x'" in capsys.readouterr().err


# argparse alone reads a bare -1/3 as an option; each bare form must run
# exactly like the `--` or `=` form that always worked
NEGATIVE_RATIONAL_FORMS = [
    (
        ["verify", "1/2", "-1/3", "2/5", "--order", "10"],
        ["verify", "--order", "10", "--", "1/2", "-1/3", "2/5"],
    ),
    (
        ["jfrac", "-1", "-2", "-1", "--shift", "-1/2"],
        ["jfrac", "-1", "-2", "-1", "--shift=-1/2"],
    ),
    (
        ["paths", "-1", "-2", "-1", "--family", "orbit", "--r", "-1/2"],
        ["paths", "-1", "-2", "-1", "--family", "orbit", "--r=-1/2"],
    ),
    (
        ["derive", "-1/2", "-.5", "-3/4", "--order", "6", "--format", "json"],
        ["derive", "--order", "6", "--format", "json", "--", "-1/2", "-.5", "-3/4"],
    ),
]


class TestNegativeRationals:
    @pytest.mark.parametrize("bare, reference", NEGATIVE_RATIONAL_FORMS)
    def test_bare_form_runs_like_reference(self, capsys, bare, reference):
        expected = run(capsys, *reference)
        assert expected[0] == 0
        assert run(capsys, *bare) == expected

    def test_console_arguments(self, capsys):
        bare, reference = NEGATIVE_RATIONAL_FORMS[0]
        expected = run(capsys, *reference)
        proc = subprocess.run(console(*bare), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


class TestPaths:
    def test_brute_check(self, capsys):
        code, out, _ = run(
            capsys, "paths", "-1", "-2", "-1", "--rows", "6", "--brute"
        )
        assert code == 0
        assert "agrees" in out

    def test_orbit_family(self, capsys):
        code, out, _ = run(
            capsys,
            "paths", "-1", "-2", "-1",
            "--family", "orbit", "--r", "2", "--rows", "5",
        )
        assert code == 0
        # column zero of the orbit-2 table is the twice-shifted series
        assert out.splitlines()[1].startswith("0: 1")
        assert out.splitlines()[4].startswith("3: 6")

    def test_csv_table(self, capsys):
        code, out, _ = run(
            capsys,
            "paths", "2", "-5", "-1",
            "--family", "gamma", "--rows", "4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "k", "count"]
        assert ["3", "0", "81"] in rows


class TestHankelEdsPoints:
    def test_hankel(self, capsys):
        code, out, _ = run(capsys, "hankel", "-1", "-2", "-1", "--count", "7")
        assert code == 0
        assert "hankel:   1, 2, 1, -7, -16, -57, -113" in out
        assert "holds" in out and "agrees" in out

    def test_eds(self, capsys):
        code, out, _ = run(capsys, "eds", "-2", "-5", "1", "--count", "9")
        assert code == 0
        assert "0, 1, -1, 2, 9, -17, 196, 593, -9657, 152710" in out

    def test_points_with_torsion_note(self, capsys):
        code, out, _ = run(capsys, "points", "0", "0", "0", "--count", "9")
        assert code == 0
        assert "order 3" in out
        assert "[3]P = infinity" in out

    def test_points_csv(self, capsys):
        code, out, _ = run(
            capsys, "points", "-1", "-2", "-1", "--count", "5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ["5", "16/49", "-169/343"] in rows


class TestFailedChecks:
    """Exit code 1 when one route of a subcommand disagrees with another."""

    def test_hankel_point_product_mismatch(self, capsys, monkeypatch):
        original = cli._point_products
        monkeypatch.setattr(
            cli, "_point_products", lambda curve, count: original(curve, count)[:-1] + [0]
        )
        code, out, _ = run(capsys, "hankel", "-1", "-2", "-1", "--count", "7")
        assert code == 1
        assert "point product: MISMATCH" in out
        assert "holds" in out

    def test_hankel_somos_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "somos_params", lambda curve: SomosParams(1, curve.q + 1))
        code, out, _ = run(capsys, "hankel", "-1", "-2", "-1", "--count", "7")
        assert code == 1
        assert "Somos-4 (r, s) = (1, -1): FAILS" in out
        assert "point product: agrees" in out

    def test_jfrac_routes_disagree(self, capsys, monkeypatch):
        original = cli.jfrac_from_points

        def perturbed(curve, shift, depth):
            jf = original(curve, shift, depth)
            return JFraction((jf.b[0] + 1,) + jf.b[1:], jf.lam)

        monkeypatch.setattr(cli, "jfrac_from_points", perturbed)
        code, out, _ = run(capsys, "jfrac", "-1", "-2", "-1", "--depth", "4")
        assert code == 1
        assert "the two routes DISAGREE" in out


class TestJfrac:
    def test_routes_agree(self, capsys):
        code, out, _ = run(
            capsys, "jfrac", "-1", "-2", "-1", "--depth", "5", "--shift", "2"
        )
        assert code == 0
        assert "agree" in out

    def test_depth_one(self, capsys):
        code, out, _ = run(capsys, "jfrac", "-1", "-2", "-1", "--depth", "1")
        assert code == 0
        assert "from points: b = [-1]; lambda = [2]" in out
        assert "the two routes agree" in out

    def test_series_derived_only_as_read(self, capsys, monkeypatch):
        # hankel reads 2*count - 1 coefficients, and the points route none
        orders = []
        original = cli.derive_g

        def recording(curve, order):
            orders.append(order)
            return original(curve, order)

        monkeypatch.setattr(cli, "derive_g", recording)
        assert run(capsys, "hankel", "-1", "-2", "-1", "--count", "3")[0] == 0
        assert run(capsys, "hankel", "-1", "-2", "-1", "--order", "9")[0] == 0
        argv = ["jfrac", "-1", "-2", "-1", "--depth", "3", "--source", "points", "--order", "0"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("from points: b = [-1, -3/2, 5/2]")
        assert orders == [5, 9]

    def test_series_only(self, capsys):
        code, out, _ = run(
            capsys,
            "jfrac", "-1", "-2", "-1",
            "--depth", "4", "--source", "series", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["from_series"]["lam"] == ["2", "1/4", "-14", "-16/49"]
        assert "from_points" not in doc


class TestOEIS:
    def test_match(self, capsys):
        code, out, _ = run(
            capsys, "oeis", "-1", "-2", "-1", "A025243", "--offline"
        )
        assert code == 0
        assert "MATCHES" in out

    def test_mismatch(self, capsys):
        code, out, _ = run(
            capsys, "oeis", "-1", "-2", "-1", "A000108", "--offline"
        )
        assert code == 1
        assert "DOES NOT MATCH" in out

    def test_offline_miss(self, capsys):
        code, _, err = run(
            capsys, "oeis", "-1", "-2", "-1", "A000045", "--offline"
        )
        assert code == 3

    def test_bad_anum(self, capsys):
        code, _, err = run(capsys, "oeis", "-1", "-2", "-1", "B99", "--offline")
        assert code == 2

    def test_hankel_comparison(self, capsys):
        code, out, _ = run(
            capsys,
            "oeis", "-1", "0", "-1", "A010892",
            "--family", "gamma", "--hankel", "--offline", "--order", "21",
        )
        assert code == 0
        assert "offset 1" in out


class TestOutputLimits:
    def test_reader_closing_stdout_early(self):
        # the csv of 150 multiples is about 400 KB, far more than a pipe
        # buffers, so the child is still writing when the reader goes away
        argv = ["points", "-1", "-2", "-1", "--count", "150", "--format", "csv"]
        proc = subprocess.Popen(
            console(*argv),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().strip() == b"k,x,y"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, b"")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no str() digit limit"
    )
    def test_terms_past_the_str_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(
            capsys, "eds", "-1", "-2", "-1", "--count", "350", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit  # restored for the caller
        sys.set_int_max_str_digits(0)
        try:
            last = str(Curve(-1, -2, -1).eds(350)[-1])
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(last) > 4300  # the interpreter's default limit
        assert json.loads(out)["eds"][-1] == last
