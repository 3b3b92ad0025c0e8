"""Tests for the benchmark itself: generator, output checks, span arithmetic.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import outputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import MIN_PASSES, closed_loop, execute, tail  # noqa: E402

from ec_riordan import cli, pipeline  # noqa: E402
from ec_riordan.curve import Curve  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.schedule(workload, 7) == workloads.schedule(workload, 7)
    assert workloads.schedule(workload, 7) != workloads.schedule(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_curves_are_nonsingular(workload):
    for op in workloads.schedule(workload, 3):
        Curve(*op.curve)  # raises SingularCurveError otherwise


def test_rational_cli_arguments_follow_the_separator():
    op = workloads.cli_op("derive", (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)),
                          ["--order", "12"], "json", size=12)
    assert op.argv[-4:] == ("--", "1/2", "-1/3", "2/5")
    assert outputs.check(op, execute(op)) == []


def _corrupt_json_list(out, key, index):
    doc = json.loads(out)
    doc[key][index] = str(Fraction(doc[key][index]) + 1)
    return json.dumps(doc)


@pytest.mark.parametrize("curve", [(-1, -2, -1), (3, -3, 2)])
def test_one_corrupted_coefficient_fails_the_check(curve):
    # (-1,-2,-1) has frozen literals; (3,-3,2) is caught by the kernel
    # equation alone.
    op = workloads.cli_op("derive", curve, ["--order", "16"], "json", size=16)
    code, out, err = execute(op)
    assert outputs.check(op, (code, out, err)) == []
    for key in ("g", "gamma"):
        assert outputs.check(op, (code, _corrupt_json_list(out, key, 9), err))


def test_one_corrupted_determinant_fails_the_check():
    op = workloads.cli_op("hankel", (2, 1, -3), ["--count", "12"], "text", family="g", size=12)
    code, out, err = execute(op)
    assert outputs.check(op, (code, out, err)) == []
    line = next(x for x in out.splitlines() if x.startswith("hankel:"))
    values = line.split(":", 1)[1].split(",")
    values[7] = str(Fraction(values[7]) + 1)
    bad = out.replace(line, "hankel:   " + ", ".join(v.strip() for v in values))
    assert outputs.check(op, (code, bad, err))


def test_failing_verify_report_fails_the_check():
    op = workloads.Op("verify", (Fraction(-1), Fraction(-2), Fraction(-1)), order=16)
    report = execute(op)
    assert outputs.check(op, report) == []
    report.checks[3].passed = False
    assert outputs.check(op, report)


def test_wrong_exit_code_and_exception_fail_the_check():
    op = workloads.cli_op("eds", (-1, -2, -1), ["--count", "10"], "csv", size=10)
    code, out, err = execute(op)
    assert outputs.check(op, (1, out, err))
    assert outputs.check(op, ValueError("boom"))


def test_self_times_on_a_synthetic_nested_trace():
    trace = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 6.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("b", 4.0, 5.5, 1, 0),
        ("c", 7.0, 9.0, 0, 0),
        ("op", 10.0, 12.0, -1, 1),
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0, 2.0])


def test_tracer_layer_metrics_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("series.mul", lambda: None)
    outer = tracer.wrap("pipeline.derive_g", lambda: (inner(), inner()))
    tracer.run_op(0, outer)  # op 0..7, derive_g 1..6, mul 2..3 and 4..5
    got = spans.layer_metrics(tracer, n_ops=1)
    assert got["pipeline.derive_g.self_s"] == pytest.approx(3.0)
    assert got["series.mul.self_s"] == pytest.approx(2.0)
    assert got["series.mul.calls"] == 2
    assert got["pipeline.derive_g.calls"] == 1


def test_install_wraps_every_namespace_and_uninstall_restores_it():
    original = pipeline.derive_g
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        assert cli.derive_g is pipeline.derive_g is not original
        assert cli.derive_g.__wrapped__ is original
    finally:
        uninstall()
    assert cli.derive_g is pipeline.derive_g is original


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert pct == pytest.approx(90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_closed_loop_makes_whole_passes():
    ops = [workloads.cli_op("eds", (-1, -2, -1), ["--count", "10"], "csv", size=10),
           workloads.cli_op("points", (-1, -2, -1), ["--count", "5"], "text", size=5)]
    breaks = []
    results, wall, scaled = closed_loop(ops, 0.0, lambda: breaks.append(len(breaks)))
    assert len(results) == len(breaks) == MIN_PASSES
    assert len(wall) == len(scaled) == MIN_PASSES * len(ops)
    assert all(outputs.check(op, r) == [] for res in results for op, r in zip(ops, res))


def test_scaling_builds_g_by_the_kernel_recurrence():
    import scaling

    for abc in scaling.CURVES:
        curve = Curve(*abc)
        assert scaling.kernel_g(curve, 20) == pipeline.derive_g(curve, 20)
    cell = scaling.run_cell("transforms.hankel", ["-1", "-2", "-1"], 24)
    assert cell["reps"] >= 1 and cell["seconds"] > 0
    assert cell["max_coeff_bits"] > Fraction(140576).numerator.bit_length()  # beyond h_10
