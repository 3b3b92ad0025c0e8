"""Tracing for the benchmark's traced run: spans around the library's layers.

Only the traced run installs these wrappers, and only from the benchmark's
own files: no file of the library changes.  A wrapper replaces a public
function in every ec_riordan namespace that holds it (pipeline and cli
import names directly), and Series and Curve methods are replaced on the
class.  Each call records a span (name, start, end, parent index,
operation id) in memory; `Tracer.dump` writes them out at the end.

A layer's self time is its spans' durations minus the time covered by their
direct children.  Counts (determinants, J-fraction levels, calls) and the
largest coefficient sizes are recorded at the same boundaries; the time the
tracer spends measuring coefficient sizes is itself recorded as a
"trace.hook" child span, so it does not inflate the layer's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Optional

ROOT_SPAN = "op"
HOOK_SPAN = "trace.hook"


def _bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _series_bits(tracer: "Tracer", result) -> None:
    coeffs = getattr(result, "_coeffs", None)
    if coeffs is not None:
        tracer.bump_max("series.max_coeff_bits", _bits(coeffs))


def _point_bits(tracer: "Tracer", result) -> None:
    tracer.bump_max("curve.max_coord_bits", _bits(v for p in result for v in (p.x, p.y)))


def _hankel_dets(tracer: "Tracer", result) -> None:
    tracer.counts["transforms.hankel.dets"] += len(result)


def _jfrac_levels(tracer: "Tracer", result) -> None:
    tracer.counts["transforms.jfrac_extract.levels"] += len(result.b)


# (layer, module, attribute, result hook).  An attribute "Class.method"
# is wrapped on the class; a plain name in every namespace that holds it.
LAYERS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("series.mul", "ec_riordan.series", "Series.__mul__", _series_bits),
    ("series.div", "ec_riordan.series", "Series.__truediv__", _series_bits),
    ("series.div", "ec_riordan.series", "Series.__rtruediv__", _series_bits),
    ("series.revert", "ec_riordan.series", "Series.revert", _series_bits),
    ("series.compose", "ec_riordan.series", "Series.compose", _series_bits),
    ("series.sqrt", "ec_riordan.series", "Series.sqrt", _series_bits),
    ("series.binomial", "ec_riordan.series", "Series.binomial", _series_bits),
    ("curve.multiples", "ec_riordan.curve", "Curve.multiples", _point_bits),
    ("curve.eds", "ec_riordan.curve", "Curve.eds", None),
    ("curve.solve_y", "ec_riordan.curve", "Curve.solve_y", None),
    ("pipeline.derive_g", "ec_riordan.pipeline", "derive_g", None),
    ("pipeline.amatrix_gf", "ec_riordan.pipeline", "amatrix_gf", None),
    ("pipeline.coefficient_formula", "ec_riordan.pipeline", "g_coefficient_formula", None),
    ("pipeline.coefficient_formula", "ec_riordan.pipeline", "gamma_coefficient_formula", None),
    ("pipeline.full_verify", "ec_riordan.pipeline", "full_verify", None),
    ("transforms.hankel", "ec_riordan.transforms", "hankel_transform", _hankel_dets),
    ("transforms.jfrac_extract", "ec_riordan.transforms", "jfrac_extract", _jfrac_levels),
    ("transforms.jfrac_eval", "ec_riordan.transforms", "jfrac_eval", None),
    ("transforms.jfrac_from_points", "ec_riordan.transforms", "jfrac_from_points", None),
    ("transforms.somos_verify", "ec_riordan.transforms", "somos_verify", None),
    ("riordan.build", "ec_riordan.riordan", "riordan_build", None),
    ("riordan.pseudo_involution", "ec_riordan.riordan", "pseudo_involution_check", None),
    ("paths.dp_count", "ec_riordan.paths", "dp_count", None),
    ("paths.brute_force", "ec_riordan.paths", "brute_force_table", None),
    ("paths.brute_force", "ec_riordan.paths", "brute_force_count", None),
    ("oeis.load_bfile", "ec_riordan.oeis", "load_bfile", None),
    ("oeis.compare", "ec_riordan.oeis", "compare_sequence", None),
    ("cli.render", "ec_riordan.cli", "_emit", None),
)

SELF_TIME_LAYERS = tuple(dict.fromkeys(name for name, *_ in LAYERS))
CALL_COUNTS = ("series.div", "series.mul", "pipeline.derive_g")
COUNTS = ("transforms.hankel.dets", "transforms.jfrac_extract.levels")
MAXIMA = ("series.max_coeff_bits", "curve.max_coord_bits")


class Tracer:
    """Span recorder for one traced run; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # (name, start, end, parent index or -1, operation id)
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def bump_max(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def run_op(self, op_id: int, fn: Callable, *args):
        """Call fn(*args) as the root span of operation op_id."""
        self.op_id = op_id
        idx, parent = self._open()
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans[idx] = (ROOT_SPAN, start, end, parent, op_id)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, result)
                tracer.spans.append((HOOK_SPAN, end, tracer.clock(), parent, tracer.op_id))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every layer in LAYERS; returns a function that undoes it."""
        undo: list[tuple[object, str, object]] = []
        for _, module_name, _, _ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ec_riordan" or n.startswith("ec_riordan."))]
        for name, module_name, attr, hook in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

        def uninstall() -> None:
            for target, key, value in reversed(undo):
                setattr(target, key, value)

        return uninstall

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest, so direct children never overlap and their
    durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation self seconds and call counts by layer, plus counters."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span[0]] += own
        calls[span[0]] += 1
    out = {f"{name}.self_s": self_s[name] / n_ops for name in SELF_TIME_LAYERS}
    out.update({f"{name}.calls": calls[name] / n_ops for name in CALL_COUNTS})
    out.update({name: tracer.counts[name] / n_ops for name in COUNTS})
    out.update({name: tracer.maxima[name] for name in MAXIMA})
    return out
