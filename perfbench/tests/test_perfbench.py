"""Tests of the benchmark itself: input determinism, span arithmetic,
failure counting and the metric lists in BENCHMARK.json.

    python -m pytest perfbench/tests -q
"""

import json
import math

import pytest

from perfbench import harness, tracing, workloads
from perfbench.tracing import Span, Tracer, WrapPoint, self_times
from perfbench.workloads import WORKLOADS, Outcome, input_digests

ROOT = workloads.REFERENCE_DIR.parent.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    cls = WORKLOADS[name]
    digests = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        directory = tmp_path / sub
        directory.mkdir()
        cls(seed).generate(directory)
        digests.append(input_digests(directory))
    first, again, other = digests
    assert first == again
    assert any(name.endswith(".ckpt") for name in first)
    assert any(name.endswith(".wav") for name in first)
    assert any(name.endswith(".rttm") for name in first)
    wavs = [k for k in first if k.endswith(".wav")]
    assert all(first[k] != other[k] for k in wavs)
    # The recorded reference was made from exactly these inputs.
    assert cls(3).check_inputs(first) is None
    assert cls(3 + workloads.POOL).check_inputs(first) is None


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "op"),
        Span(1, "a", 1.0, 4.0, 0, "op"),
        Span(2, "b", 3.0, 6.0, 0, "op"),       # overlaps a: union [1, 6]
        Span(3, "a.child", 2.0, 3.0, 1, "op"),  # grandchild: not the root's
        Span(4, "c", 8.0, 12.0, 0, "op"),       # clipped to the root's end
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0})


def test_tracer_spans_nest_under_the_open_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("ignored"):  # no operation open: nothing recorded
        pass
    with tracer.op("op1"):
        with tracer.span("outer"):          # 0 .. 5
            with tracer.span("inner"):      # 1 .. 2
                pass
            with tracer.span("inner"):      # 3 .. 4
                pass
    seconds, calls, _ = tracing.totals_by_op(tracer)
    assert calls[("op1", "inner")] == 2
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert seconds[("op1", "outer")] == pytest.approx(3.0)
    assert seconds[("op1", "inner")] == pytest.approx(2.0)


def test_a_missing_wrap_point_reports_its_metrics_as_missing():
    tracer = Tracer()
    tracer.install([WrapPoint("arrayvad.frontends", "no_such_stft", "spectral.stft",
                              counters=("spectral.stft.frames",)),
                    WrapPoint("arrayvad.frontends", "mvn", "spectral.mvn")])
    try:
        from arrayvad import frontends
        assert frontends.mvn.__wrapped__ is not None
        with tracer.op("op1"):
            frontends.mvn([[1.0, 2.0], [3.0, 5.0]])
    finally:
        tracer.uninstall()
    assert not hasattr(frontends.mvn, "__wrapped__")
    metrics = tracing.layer_metrics(tracer, [("op1", "x", 1, 0.01)], "setup", 1.0)
    assert metrics["spectral.stft.ms"][0] is None
    assert metrics["spectral.stft.frames"][0] is None
    assert metrics["spectral.stft.redundancy"][0] is None
    assert metrics["spectral.mvn.ms"][0] > 0.0
    assert metrics["autodiff.backward.calls"][0] == 0.0


def _reference_outcome(wl, label):
    return Outcome(label, 1.0, 1.0, output=wl.expected()["outputs"][label])


def test_a_perturbed_output_is_counted_as_a_failure():
    tally = harness.Tally()
    infer = WORKLOADS["infer_long"](5)
    good = _reference_outcome(infer, "infer")
    tally.record(infer.check(good), "infer")
    bad = _reference_outcome(infer, "infer")
    digest = bad.output["hyp.rttm"]
    bad.output = dict(bad.output, **{"hyp.rttm": ("0" if digest[0] != "0" else "1")
                                     + digest[1:]})
    tally.record(infer.check(bad), "infer")

    mask = WORKLOADS["maskeval_short"](5)
    bad = _reference_outcome(mask, "maskeval[7]")
    bad.output = bad.output[::-1]
    tally.record(mask.check(bad), "maskeval")

    train = WORKLOADS["train"](5)
    history = train.expected()["outputs"]["ecsacc.dual"]
    close = _reference_outcome(train, "ecsacc.dual")
    close.output = [dict(r) for r in history]
    close.output[2]["inv"] *= 1.0 + 1e-13  # reassociation-sized difference
    tally.record(train.check(close), "train close")
    far = _reference_outcome(train, "ecsacc.dual")
    far.output = [dict(r) for r in history]
    far.output[2]["loss"] *= 1.0 + 1e-6
    tally.record(train.check(far), "train far")
    nan = _reference_outcome(train, "sacc.ce")
    nan.output = [dict(r) for r in train.expected()["outputs"]["sacc.ce"]]
    nan.output[0]["ce"] = math.nan
    tally.record(train.check(nan), "train nan")
    crashed = Outcome("sacc.ce", 1.0, 1.0, error="NumericError: diverged")
    tally.record(train.check(crashed), "train crashed")

    assert (tally.attempted, tally.failed) == (7, 5)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.catalogue()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
