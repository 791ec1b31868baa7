"""Outside-in tracing: spans around the package's public functions.

The traced run replaces each public function at the place where its caller
looks it up (``arrayvad.frontends.stft``, ``arrayvad.cli.tcn_forward``, the
module global ``arrayvad.autodiff.backward``, the ``features`` method of
each frontend class, ...) with a wrapper that records a span: name, start,
end, parent span and the operation it belongs to. Nothing under ``src/``
changes. A wrap point that no longer exists is reported, and every metric
that depends on it comes out as missing (``None``); the run goes on.

A span's self time is its duration minus the part of it that its child
spans cover. Per-layer metrics are sums over the traced operations divided
by the operations' units (one CLI request, or one training step).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

TRAINABLE_KINDS = ("sacc", "analytic", "ecsacc", "icsacc")
PHASES = tuple(f"{kind}.{loss}" for kind in TRAINABLE_KINDS
               for loss in ("ce", "dual"))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: str


class Tracer:
    """Records spans while an operation is open; wraps and unwraps functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)  # (op, counter name) -> total
        self.missing = set()  # span or counter names without a wrap point
        self._stack = []
        self._op = None
        self._undo = []

    @contextlib.contextmanager
    def op(self, op_id):
        """Record spans and counts under ``op_id`` while the block runs."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def add(self, name, value):
        if self._op is not None:
            self.counters[(self._op, name)] += value

    @contextlib.contextmanager
    def span(self, name):
        if self._op is None:
            yield
            return
        span = Span(len(self.spans), name, self.clock(), None,
                    self._stack[-1] if self._stack else None, self._op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = self.clock()

    def wrap(self, fn, name, before=None, after=None, counters=()):
        """``fn`` inside a span; ``before`` may swap the arguments, ``after``
        sees arguments and result and adds to ``counters``. A hook that no
        longer fits the function marks its counters missing, never fails
        the call."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if before is not None:
                try:
                    args, kwargs = before(tracer, args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    tracer.missing.update(counters)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                try:
                    after(tracer, args, result)
                except (AttributeError, IndexError, TypeError):
                    tracer.missing.update(counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, points):
        """Wrap every point; remember the missing ones."""
        for point in points:
            owner = point.resolve()
            if owner is None or point.attr not in vars(owner):
                self.missing.add(point.name)
                self.missing.update(point.counters)
                continue
            original = vars(owner)[point.attr]
            self._undo.append((owner, point.attr, original))
            setattr(owner, point.attr, self.wrap(original, point.name, point.before,
                                                 point.after, point.counters))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Spans as JSON rows [id, name, start, end, parent, op]."""
        rows = [[s.id, s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "op"],
                       "spans": rows}, fh)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
            for s in spans}


def totals_by_op(tracer):
    """(op, name) -> self seconds and call count, plus the tracer's counters."""
    selfs = self_times(tracer.spans)
    seconds = defaultdict(float)
    calls = defaultdict(int)
    for s in tracer.spans:
        seconds[(s.op, s.name)] += selfs[s.id]
        calls[(s.op, s.name)] += 1
    return seconds, calls, tracer.counters


# -- wrap points --------------------------------------------------------------


@dataclass(frozen=True)
class WrapPoint:
    """``module.attr`` (or ``module.Class.attr``) recorded as span ``name``."""

    module: str
    attr: str
    name: str
    cls: str = None
    before: object = None
    after: object = None
    counters: tuple = ()

    def resolve(self):
        try:
            owner = importlib.import_module(self.module)
        except ImportError:
            return None
        if self.cls is not None:
            owner = vars(owner).get(self.cls)
        return owner


def _stft_frames(tracer, args, result):
    values = result.values
    tracer.add("spectral.stft.frames", values.shape[0] * values.shape[1])


def _tcn_frames(tracer, args, result):
    tracer.add("seqmodel.tcn_forward.frames", args[1].shape[0])


def _count_windows(tracer, args, kwargs):
    """Count the posterior calls of ``sliding_infer``: one per window."""
    fn = args[0]

    def counted(window):
        tracer.add("segeval.sliding_infer.windows", 1)
        return fn(window)

    return (counted,) + tuple(args[1:]), kwargs


def _frontend_classes():
    """Class name of each trainable frontend kind, found by its ``kind``."""
    frontends = importlib.import_module("arrayvad.frontends")
    found = {}
    for name, obj in vars(frontends).items():
        if isinstance(obj, type) and getattr(obj, "kind", None) in TRAINABLE_KINDS:
            found[obj.kind] = name
    return found


def wrap_points():
    """Every point the traced run wraps, by layer."""
    av = "arrayvad."
    points = [
        WrapPoint(av + "cli", "main", "cli.main"),
        WrapPoint(av + "cli", "load_model", "checkpoint.load_model"),
        WrapPoint(av + "cli", "read_wav", "signal_io.read_wav"),
        WrapPoint(av + "cli", "mask_channels", "signal_io.mask_channels"),
        WrapPoint(av + "trainer", "mask_channels", "signal_io.mask_channels"),
        WrapPoint(av + "segeval", "slice_segment", "signal_io.slice_segment"),
        WrapPoint(av + "trainer", "slice_segment", "signal_io.slice_segment"),
        WrapPoint(av + "frontends", "stft", "spectral.stft", after=_stft_frames,
                  counters=("spectral.stft.frames",)),
        WrapPoint(av + "frontends", "mvn", "spectral.mvn"),
        WrapPoint(av + "frontends", "log_compress", "spectral.log_compress"),
        WrapPoint(av + "frontends", "frame_signal", "spectral.frame_signal"),
        WrapPoint(av + "frontends", "weights_graph", "combinator.weights_graph"),
        WrapPoint(av + "frontends", "combine_real_graph", "combinator.combine"),
        WrapPoint(av + "frontends", "combine_mag_phase_graph", "combinator.combine"),
        WrapPoint(av + "frontends", "mvn_graph", "combinator.mvn_graph"),
        WrapPoint(av + "cli", "tcn_forward", "seqmodel.tcn_forward",
                  after=_tcn_frames, counters=("seqmodel.tcn_forward.frames",)),
        WrapPoint(av + "trainer", "tcn_forward", "seqmodel.tcn_forward",
                  after=_tcn_frames, counters=("seqmodel.tcn_forward.frames",)),
        WrapPoint(av + "cli", "posteriors", "seqmodel.posteriors"),
        WrapPoint(av + "trainer", "posteriors", "seqmodel.posteriors"),
        WrapPoint(av + "autodiff", "backward", "autodiff.backward"),
        WrapPoint(av + "trainer", "make_masked_duplicates",
                  "trainer.make_masked_duplicates"),
        WrapPoint(av + "trainer", "invariant_loss", "trainer.invariant_loss"),
        WrapPoint(av + "trainer", "cross_entropy", "trainer.cross_entropy"),
        WrapPoint(av + "trainer", "adam_step", "trainer.adam_step"),
        WrapPoint(av + "trainer", "train", "trainer.train"),
        WrapPoint(av + "cli", "sliding_infer", "segeval.sliding_infer",
                  before=_count_windows, counters=("segeval.sliding_infer.windows",)),
        WrapPoint(av + "cli", "vad_metrics", "segeval.metrics"),
        WrapPoint(av + "cli", "osd_metrics", "segeval.metrics"),
        WrapPoint(av + "trainer", "osd_metrics", "segeval.metrics"),
        WrapPoint(av + "cli", "parse_rttm", "segeval.rttm"),
        WrapPoint(av + "cli", "write_rttm", "segeval.rttm"),
        WrapPoint(av + "arraysim", "synth_scene", "arraysim.synth_scene"),
    ]
    classes = _frontend_classes()
    for kind in TRAINABLE_KINDS:
        points.append(WrapPoint(av + "frontends", "features",
                                f"frontends.{kind}.features",
                                cls=classes.get(kind, f"<no {kind} frontend>")))
    return points


# -- per-layer metrics --------------------------------------------------------

# name -> (how, source). how is "ms" (self time of spans), "calls" (span
# count), "count" (a counter) or "ratio" (counter / counter); it sets the unit.
_UNIT = {"ms": "ms", "calls": "count", "count": "count", "ratio": "ratio"}
_LAYER = [
    ("cli.main.self_ms", "ms", "cli.main"),
    ("checkpoint.load_model.ms", "ms", "checkpoint.load_model"),
    ("checkpoint.load_model.calls", "calls", "checkpoint.load_model"),
    ("signal_io.read_wav.ms", "ms", "signal_io.read_wav"),
    ("signal_io.mask_channels.ms", "ms", "signal_io.mask_channels"),
    ("signal_io.slice_segment.ms", "ms", "signal_io.slice_segment"),
    ("signal_io.slice_segment.calls", "calls", "signal_io.slice_segment"),
    ("spectral.stft.ms", "ms", "spectral.stft"),
    ("spectral.stft.calls", "calls", "spectral.stft"),
    ("spectral.stft.frames", "count", "spectral.stft.frames"),
    ("spectral.stft.redundancy", "ratio",
     ("spectral.stft.frames", "spectral.stft.input_frames")),
    ("spectral.mvn.ms", "ms", "spectral.mvn"),
    ("spectral.log_compress.ms", "ms", "spectral.log_compress"),
    ("spectral.frame_signal.ms", "ms", "spectral.frame_signal"),
    ("combinator.weights_graph.ms", "ms", "combinator.weights_graph"),
    ("combinator.weights_graph.calls", "calls", "combinator.weights_graph"),
    ("combinator.combine.ms", "ms", "combinator.combine"),
    ("combinator.mvn_graph.ms", "ms", "combinator.mvn_graph"),
] + [
    row for kind in TRAINABLE_KINDS for row in (
        (f"frontends.{kind}.features.self_ms", "ms",
         f"frontends.{kind}.features"),
        (f"frontends.{kind}.features.calls", "calls",
         f"frontends.{kind}.features"))
] + [
    ("seqmodel.tcn_forward.ms", "ms", "seqmodel.tcn_forward"),
    ("seqmodel.tcn_forward.calls", "calls", "seqmodel.tcn_forward"),
    ("seqmodel.tcn_forward.frames", "count", "seqmodel.tcn_forward.frames"),
    ("seqmodel.posteriors.ms", "ms", "seqmodel.posteriors"),
    ("autodiff.backward.ms", "ms", "autodiff.backward"),
    ("autodiff.backward.calls", "calls", "autodiff.backward"),
    ("trainer.make_masked_duplicates.ms", "ms", "trainer.make_masked_duplicates"),
    ("trainer.invariant_loss.ms", "ms", "trainer.invariant_loss"),
    ("trainer.cross_entropy.ms", "ms", "trainer.cross_entropy"),
    ("trainer.adam_step.ms", "ms", "trainer.adam_step"),
    ("trainer.train.self_ms", "ms", "trainer.train"),
    ("segeval.sliding_infer.self_ms", "ms", "segeval.sliding_infer"),
    ("segeval.sliding_infer.windows", "count", "segeval.sliding_infer.windows"),
    ("segeval.metrics.ms", "ms", "segeval.metrics"),
    ("segeval.rttm.ms", "ms", "segeval.rttm"),
]

# Measured on the traced set-up, per set-up rather than per operation.
_SETUP = [
    ("arraysim.synth_scene.ms", "ms", "arraysim.synth_scene"),
    ("arraysim.toy_dataset.ms", "ms", "arraysim.toy_dataset"),
]

# Reported for each training phase as train.<kind>.<loss>.<name>, per step.
_PHASE = [
    ("spectral.stft.ms", "ms", "spectral.stft"),
    ("spectral.stft.calls", "calls", "spectral.stft"),
    ("spectral.stft.redundancy", "ratio",
     ("spectral.stft.frames", "spectral.stft.input_frames")),
    ("combinator.weights_graph.ms", "ms", "combinator.weights_graph"),
    ("combinator.combine.ms", "ms", "combinator.combine"),
    ("frontends.features.self_ms", "ms", "frontends.{kind}.features"),
    ("seqmodel.tcn_forward.ms", "ms", "seqmodel.tcn_forward"),
    ("autodiff.backward.ms", "ms", "autodiff.backward"),
]

_OVERHEAD = [
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
]


def catalogue():
    """(name, unit) of every per-layer metric, in report order."""
    rows = [(name, _UNIT[how]) for name, how, _ in _LAYER + _SETUP]
    for phase in PHASES:
        rows.append((f"train.{phase}.step_ms", "ms"))
        rows += [(f"train.{phase}.{name}", _UNIT[how]) for name, how, _ in _PHASE]
    return rows + _OVERHEAD


def _value(how, source, ops, units, seconds, calls, counters, missing):
    """Sum of one quantity over ``ops`` per unit; None if a source is missing."""
    sources = source if isinstance(source, tuple) else (source,)
    if any(s in missing for s in sources):
        return None

    def total(table, name):
        return sum(table.get((op, name), 0) for op in ops)

    if how == "ms":
        return 1000.0 * total(seconds, source) / units
    if how == "calls":
        return total(calls, source) / units
    if how == "count":
        return total(counters, source) / units
    num, den = (total(counters, s) for s in sources)
    return num / den if den else 0.0


def layer_metrics(tracer, traced, setup_op, overhead_pct):
    """Per-layer metric values from a traced run.

    traced: list of (op id, phase label, units, wall seconds) of the traced
    operations. setup_op: op id of the traced set-up.
    """
    seconds, calls, counters = totals_by_op(tracer)
    missing = tracer.missing
    ops = [op for op, _, _, _ in traced]
    units = sum(u for _, _, u, _ in traced) or 1
    out = {}
    for name, how, source in _LAYER:
        out[name] = (_value(how, source, ops, units, seconds, calls, counters,
                            missing), _UNIT[how])
    for name, how, source in _SETUP:
        out[name] = (_value(how, source, [setup_op], 1, seconds, calls, counters,
                            missing), _UNIT[how])
    for phase in PHASES:
        kind = phase.split(".")[0]
        mine = [(op, u, wall) for op, label, u, wall in traced if label == phase]
        p_ops = [op for op, _, _ in mine]
        p_units = sum(u for _, u, _ in mine) or 1
        wall = sum(w for _, _, w in mine)
        out[f"train.{phase}.step_ms"] = (1000.0 * wall / p_units, "ms")
        for name, how, source in _PHASE:
            if isinstance(source, str):
                source = source.format(kind=kind)
            out[f"train.{phase}.{name}"] = (
                _value(how, source, p_ops, p_units, seconds, calls, counters,
                       missing), _UNIT[how])
    out["trace.overhead_pct"] = (overhead_pct, "%")
    traced_ops = set(ops)
    n_spans = sum(1 for s in tracer.spans if s.op in traced_ops)
    out["trace.spans"] = (n_spans / units, "count")
    return out
