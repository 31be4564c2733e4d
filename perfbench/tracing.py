"""Per-layer tracing from outside the program.

``STAGES`` is the one table mapping each traced stage to the program
functions it wraps and the per-layer metrics it feeds.  ``Hooks``
replaces those module and class attributes with wrappers that record a
span per call while a segment (the set-up, or one operation) is open;
outside a segment they call straight through.  A target that no longer
exists is skipped, and a stage with no target left reports its metrics
as absent.

A span's self time is its duration minus its children's.  Every second
of a segment lands in exactly one stage's self time or in the segment
root's self time, the residual, so the per-layer seconds add up to the
traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Stage:
    name: str
    targets: tuple[str, ...]   # "module:attribute" or "module:Class.method"
    seconds: str               # self-time metric
    count: str | None = None   # call-count metric
    key: object = None         # args -> key recorded on the span


STAGES = (
    Stage("cli.orchestration", ("ffspread.cli:run_ber_sweep", "ffspread.cli:emit_exit_chart",
                                "ffspread.cli:write_slope_table", "ffspread.cli:write_prediction"),
          "cli.orchestration_s"),
    Stage("cli.spec_build", ("ffspread.cli:build_user_specs",), "cli.spec_build_s"),
    Stage("gf.build_field", ("ffspread.gf:build_field", "ffspread.cli:build_field",
                             "ffspread.analysis:build_field"), "gf.build_field_s"),
    Stage("codec.encode", ("ffspread.cli:encode_user",), "codec.encode_s"),
    Stage("codec.permute", ("ffspread.codec:permute", "ffspread.decoder:permute"),
          "codec.permute_s", "codec.permute_calls"),
    Stage("channel.transmit", ("ffspread.cli:transmit",), "channel.transmit_s"),
    Stage("decoder.decode_frame", ("ffspread.cli:decode_frame",), "decoder.self_s"),
    Stage("decoder.ese", ("ffspread.decoder:_ese_all",), "decoder.ese_s", "decoder.iterations"),
    Stage("decoder.kernel_build", ("ffspread.decoder:_CodeKernel.__init__",),
          "decoder.kernel_build_s", "decoder.kernel_builds"),
    Stage("decoder.despread", ("ffspread.decoder:_CodeKernel.despread",),
          "decoder.despread_s", "decoder.despread_calls"),
    Stage("decoder.chip_to_symbol", ("ffspread.decoder:_CodeKernel.symbol_llrs",),
          "decoder.chip_to_symbol_s"),
    Stage("decoder.loo_sum", ("ffspread.decoder:_CodeKernel.extrinsic_symbol_llrs",),
          "decoder.loo_sum_s"),
    Stage("decoder.total_llrs", ("ffspread.decoder:_CodeKernel.total_llrs",),
          "decoder.total_llrs_s"),
    Stage("decoder.marginalize", ("ffspread.decoder:_CodeKernel.chip_llrs",),
          "decoder.marginalize_s"),
    Stage("analysis.exit_exact", ("ffspread.analysis:exit_ffdes_exact",), "analysis.exit_exact_s"),
    Stage("analysis.exit_approx", ("ffspread.analysis:exit_ffdes_approx",),
          "analysis.exit_approx_s"),
    Stage("analysis.exit_ese", ("ffspread.analysis:exit_ese",), "analysis.exit_ese_s"),
    Stage("slope.closed_form", ("ffspread.slope:g_closed_form",), "slope.closed_form_s",
          "slope.closed_form_calls", key=lambda args, kwargs: args[:2]),
    Stage("slope.standard_slope", ("ffspread.slope:standard_slope",
                                   "ffspread.slope:standard_slope_exact",
                                   "ffspread.slope:predict_ber"), "slope.standard_slope_s"),
    Stage("slope.oracle", ("ffspread.slope:g_oracle",), "slope.oracle_s"),
)
# kernel spans are attributed to the nearest enclosing span of these stages
CALLERS = ("decoder.decode_frame", "analysis.exit_exact")
UNIQUE_RATIO = "slope.closed_form_unique_ratio"
UNIQUE_STAGE = "slope.closed_form"
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.residual_s", "s"), ("trace.overhead_s", "s"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for st in STAGES:
        units[st.seconds] = "s"
        if st.count:
            units[st.count] = "count"
        if st.name == UNIQUE_STAGE:
            units[UNIQUE_RATIO] = "ratio"
    units.update(TRACE_METRICS)
    return units


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    segment: str
    caller: str | None
    key: object = None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Recorder:
    """Spans kept in memory; a segment is open while its root span is."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, key=None) -> int:
        if self._stack:
            parent = self.spans[self._stack[-1]]
            seg = parent.segment
            caller = parent.name if parent.name in CALLERS else parent.caller
            pidx = self._stack[-1]
        else:
            seg, caller, pidx = name, None, None
        self.spans.append(Span(name, time.perf_counter(), pidx, seg, caller, key))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    @property
    def active(self) -> bool:
        return bool(self._stack)

    @contextlib.contextmanager
    def segment(self, name: str):
        """Open a segment: a root span named ``name``."""
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)


def _resolve(target: str):
    """(owner, attribute name) for a target, or None when it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


def _wrap(fn, stage: Stage, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(stage.name, stage.key(args, kwargs) if stage.key else None)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


class Hooks:
    """Installs and removes the ``STAGES`` wrappers around one recorder."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._reported: set[str] = set()

    def install(self) -> None:
        self.absent = set()
        for stage in STAGES:
            found = 0
            for target in stage.targets:
                resolved = _resolve(target)
                if resolved is None:
                    if target not in self._reported:
                        print(f"trace: hook {target} not found, skipped", file=sys.stderr)
                        self._reported.add(target)
                    continue
                owner, attr = resolved
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(original, stage, self.recorder))
                found += 1
            if not found:
                self.absent.add(stage.name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _segment_metrics(spans: list[Span], stages) -> dict[str, float]:
    seconds = defaultdict(float)
    counts = defaultdict(int)
    keys = []
    for span in spans:
        if span.parent is None:
            seconds["trace.wall_s"] += span.end - span.start
            seconds["trace.residual_s"] += span.self_s
            continue
        stage = stages[span.name]
        seconds[stage.seconds] += span.self_s
        if stage.count:
            counts[stage.count] += 1
        if span.name == UNIQUE_STAGE:
            keys.append(span.key)
    out = {}
    for stage in stages.values():
        out[stage.seconds] = seconds[stage.seconds]
        if stage.count:
            out[stage.count] = counts[stage.count]
        if stage.name == UNIQUE_STAGE:
            # no calls means no repeated work
            out[UNIQUE_RATIO] = len(set(keys)) / len(keys) if keys else 1.0
    out["trace.wall_s"] = seconds["trace.wall_s"]
    out["trace.residual_s"] = seconds["trace.residual_s"]
    return out


def per_layer(recorder: Recorder, absent: set[str], untraced_op_s: list[float],
              setup: str) -> dict[str, float]:
    """Per-layer metrics of one set-up plus one operation, averaged over ops.

    ``setup`` names the set-up segment; every other segment is an operation.
    ``trace.overhead_s`` is the median traced operation's wall time minus
    the median of ``untraced_op_s``, the same operations timed with no
    hooks installed.
    """
    stages = {st.name: st for st in STAGES if st.name not in absent}
    by_segment = defaultdict(list)
    for span in recorder.spans:
        by_segment[span.segment].append(span)
    ops = [seg for seg in by_segment if seg != setup]
    views = [_segment_metrics(by_segment[setup] + by_segment[op], stages) for op in ops]
    out = {name: statistics.fmean(v[name] for v in views) for name in views[0]}
    if untraced_op_s:
        traced = [s.end - s.start for s in recorder.spans if s.parent is None and s.segment != setup]
        out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced_op_s)
    return out


def by_caller(recorder: Recorder) -> dict[str, dict[str, float]]:
    """Self seconds per stage and calling stage, summed over all spans."""
    out = defaultdict(lambda: defaultdict(float))
    for span in recorder.spans:
        if span.parent is not None:
            out[span.name][span.caller or "-"] += span.self_s
    return {name: dict(callers) for name, callers in out.items()}


def dump(recorder: Recorder) -> list[dict]:
    """Spans as plain records: name, start, end, parent, op, caller."""
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.segment, "caller": s.caller} for s in recorder.spans]
