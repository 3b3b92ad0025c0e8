"""The ec-riordan benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-int --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the library is imported from
src/ of that checkout and nowhere else.  One caller issues operations in
a closed loop (the next starts when the previous returns): the seed's list
of operations, one pass after another, for as many whole passes as fit in
--seconds of operation time at reference speed, and at least MIN_PASSES.
Every result of every pass is checked outside the timed region.

--trace 0 prints the end-to-end metrics: set-up time, latency median and
tail, throughput and peak memory, over every call of every pass, with
times at a fixed reference speed (see reference()).  --trace 1 instead
runs one pass twice, once plain and once with every layer wrapped in
spans, and prints per-layer self times and counts plus the tracing
overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it say the same for a
reader, with the tail percentile, sample count and a sha256 digest of the
first pass's outputs, which is equal on two commits whose outputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed before the first pass and after each pass, so
# the median of set-up times covers the whole run.
SETUP_PER_BREAK = 4
# Fewest passes a run makes.
MIN_PASSES = 3
# The time reference_task() takes on the host the benchmark was written on
# (2-core x86_64, Python 3.11.7) when nothing else slows it down.  Times
# are reported at this reference speed; see reference().
REFERENCE_S = 0.00065
# Set-up in a fresh interpreter: import every module, build the CLI parser
# and read a bundled fixture, the lazy work a first operation would pay.
# The child times itself, so process creation (slow and erratic in some
# sandboxes) is not part of the figure.
SETUP_CODE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import ec_riordan, ec_riordan.cli, ec_riordan.oeis; "
    "ec_riordan.cli.build_parser(); "
    "ec_riordan.oeis.load_bfile('A025243', offline=True); "
    "print(time.perf_counter() - start)"
)
TAIL_BEYOND = 10


def load_library():
    """Import ec_riordan from this checkout's src/, or stop with exit 2."""
    if not (SRC / "ec_riordan" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import ec_riordan

    if Path(ec_riordan.__file__).resolve().parent != SRC / "ec_riordan":
        sys.exit(f"bench: imported ec_riordan from {ec_riordan.__file__}, not {SRC}")


def reference_task() -> Fraction:
    """A fixed stdlib task of the library's kind: Fraction arithmetic on
    integers that grow to a few hundred bits."""
    x = Fraction(1, 3)
    for k in range(1, 120):
        x = x * Fraction(k + 2, k + 1) + Fraction(1, k * k + 1)
    return x


def reference() -> float:
    """Wall time of reference_task(), the best of three tries.

    A shared host runs this process at a speed that swings by up to about
    two times over tens of seconds, as other load comes and goes; an
    operation's wall time and the reference's, taken next to each other,
    swing together.  So every timing is divided by the reference measured
    around it and multiplied by REFERENCE_S: what it would have taken at the
    reference speed.  The library cannot change the reference, so the
    library's own speed-ups and slow-downs still show in full.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_task()
        best = min(best, time.perf_counter() - start)
    return best


def measure_setup(runs: int) -> list[tuple[float, float]]:
    """(wall time, time at reference speed) of set-up in `runs` fresh
    interpreters."""
    times = []
    for _ in range(runs):
        before = reference()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              check=True, cwd=ROOT, timeout=120, capture_output=True, text=True)
        wall = float(done.stdout)
        times.append((wall, wall * 2 * REFERENCE_S / (before + reference())))
    return times


def execute(op):
    """Run one operation; returns the result, or the exception it raised."""
    from ec_riordan import cli, curve, pipeline

    try:
        if op.kind == "verify":
            return pipeline.full_verify(curve.Curve(*op.curve), op.order)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue()
    except Exception as exc:  # an operation that raises counts as failed
        return exc


def warm_up(workload: str) -> None:
    """Fixed inputs touching each layer once, so the first timed call does
    not pay one-off costs."""
    from workloads import WORKED, WORKED_RATIONAL, Op, cli_op

    if workload == "verify-int":
        ops = [Op("verify", WORKED[0], order=28)]
    elif workload == "verify-rational":
        ops = [Op("verify", WORKED_RATIONAL, order=20)]
    else:
        e1 = WORKED[0]
        ops = [cli_op("derive", e1, ["--order", "40"], "text"),
               cli_op("hankel", e1, ["--count", "20"], "json"),
               cli_op("jfrac", e1, ["--depth", "12", "--order", "25"], "csv"),
               cli_op("paths", e1, ["--rows", "10", "--brute"], "text"),
               cli_op("points", e1, ["--count", "20"], "json"),
               cli_op("eds", e1, ["--count", "30"], "csv"),
               cli_op("oeis", e1, ["--offline"], "text", anum="A025243"),
               cli_op("verify", e1, ["--order", "12"], "json")]
    for op in ops:
        execute(op)


def closed_loop(ops, seconds: float, between):
    """Issue the pass `ops` one operation at a time, in whole passes, while
    the next pass is expected to end within `seconds` of operation time at
    reference speed, and at least MIN_PASSES times.

    Every pass makes the same mix in full, so each operation is timed as
    often as the others.  The budget is counted at reference speed so that
    the number of passes, and with it the share of calls that each fixed
    group holds above the tail, depends on the library and not on how busy
    the host is; the wall time of a run grows when the host is slow.  The
    reference is timed before the first operation and after each one.
    `between()` runs after each pass and is not timed.  Returns the results
    of each pass, and the wall time and the time at reference speed of each
    operation, pass after pass.
    """
    results, wall, scaled = [], [], []
    elapsed = 0.0
    while len(results) < MIN_PASSES or elapsed * (len(results) + 1) / len(results) <= seconds:
        res = []
        before = reference()
        for op in ops:
            start = time.perf_counter()
            res.append(execute(op))
            took = time.perf_counter() - start
            after = reference()
            wall.append(took)
            scaled.append(took * 2 * REFERENCE_S / (before + after))
            before = after
        results.append(res)
        elapsed += sum(scaled[-len(ops):])
        between()
    return results, wall, scaled


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns the value with exactly that many larger samples, its
    percentile and the number beyond it; a run too short to have one
    gets its maximum, with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def check_all(ops, results) -> list[tuple[int, list[str]]]:
    from outputs import check

    failures = []
    for i, (op, result) in enumerate(zip(ops, results)):
        problems = check(op, result)
        if problems:
            failures.append((i, problems))
    return failures


def digest(ops, results) -> str:
    from outputs import canonical

    h = hashlib.sha256()
    for op, result in zip(ops, results):
        h.update(" ".join(op.argv or (op.kind, *map(str, op.curve), str(op.order))).encode())
        h.update(b"\0" + canonical(op, result).encode() + b"\0")
    return h.hexdigest()


def report(lines: list[str], failures, ops, metrics: dict) -> None:
    for i, problems in failures[:20]:
        lines.append(f"FAILED op {i}: {' '.join(ops[i].argv) or ops[i]}: {'; '.join(problems)}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_timed(workload: str, seed: int, seconds: float) -> None:
    from workloads import schedule

    ops = schedule(workload, seed)
    setup = measure_setup(SETUP_PER_BREAK)
    warm_up(workload)
    results, wall, scaled = closed_loop(ops, seconds, lambda: setup.extend(measure_setup(SETUP_PER_BREAK)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(scaled)
    failures = check_all(ops * len(results), [r for res in results for r in res])
    tail_s, pct, beyond = tail(scaled)
    # A pass with each operation at its median over the passes: a mean over
    # all calls would follow the few that a burst of other load hit.
    typical_pass = sum(statistics.median(scaled[i::len(ops)]) for i in range(len(ops)))
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "latency_p50_s": (statistics.median(scaled), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_ops_per_s": (len(ops) / typical_pass, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        f"workload {workload}, seed {seed}: closed loop, 1 client, {len(results)} passes of {len(ops)} "
        f"operations, {n} in all, in {sum(wall):.2f} s",
        "times at reference speed (wall time x REFERENCE_S / reference time around it); wall time in brackets",
        f"setup_s = {metrics['setup_s'][0]:.4f} s [{statistics.median(w for w, _ in setup):.4f} s] "
        f"(median of {len(setup)} fresh interpreters, before the first pass and after each pass)",
        f"latency_p50_s = {metrics['latency_p50_s'][0]:.4f} s [{statistics.median(wall):.4f} s]",
        f"latency_tail_s = {tail_s:.4f} s [{tail(wall)[0]:.4f} s] (p{pct:.1f}: {beyond} of {n} samples beyond it)",
        f"throughput_ops_per_s = {metrics['throughput_ops_per_s'][0]:.4f} 1/s [{n / sum(wall):.4f} 1/s]",
        f"fail_ratio = {len(failures) / n:.4f} ({len(failures)} of {n} operations failed)",
        f"peak_rss_mb = {peak_rss_mb:.1f} MB",
        f"outputs sha256 (first pass) = {digest(ops, results[0])}",
    ]
    report(lines, failures, ops * len(results), metrics)


def run_traced(workload: str, seed: int) -> None:
    from outputs import canonical
    from spans import Tracer, layer_metrics
    from workloads import schedule

    ops = schedule(workload, seed)
    warm_up(workload)
    start = time.perf_counter()
    plain = [execute(op) for op in ops]
    plain_wall = time.perf_counter() - start

    tracer = Tracer()
    uninstall = tracer.install()
    try:
        start = time.perf_counter()
        results = [tracer.run_op(i, execute, op) for i, op in enumerate(ops)]
        traced_wall = time.perf_counter() - start
    finally:
        uninstall()

    failures = check_all(ops, results)
    for i, (op, a, b) in enumerate(zip(ops, plain, results)):
        if canonical(op, a) != canonical(op, b):
            failures.append((i, ["traced output differs from the plain run"]))
    metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(tracer, len(ops)).items()}
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{workload}-{seed}.json"
    tracer.dump(dump)
    lines = [f"workload {workload}, seed {seed}: traced run of {len(ops)} operations "
             f"({traced_wall:.2f} s traced, {plain_wall:.2f} s plain); spans in {dump.relative_to(ROOT)}"]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    report(lines, failures, ops, metrics)


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith("_bits"):
        return "bits"
    return "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify-int", "verify-rational", "cli-deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="operation time of the timed loop at reference speed; the traced run makes one pass plain and one traced")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    if args.trace:
        run_traced(args.workload, args.seed)
    else:
        run_timed(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
