"""One benchmark run: set-up, warm-up, closed-loop timed requests, report.

A run with ``--trace 0`` measures the end-to-end metrics with no wraps
installed. Set-up is done three times, each in a fresh process, and
``setup_s`` is their median; the timed process itself only loads the
inputs and warms up, so that ``peak_rss_mb`` is the workload's own peak.
A run with ``--trace 1`` sets up once in-process under the tracer, then
alternates untraced and traced requests and reports the per-layer metrics
plus the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import arrayvad

from perfbench import tracing
from perfbench.workloads import WORKLOADS, _no_span, input_digests

SETUPS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("rtf", "s/s"),
    ("request_ms.p50", "ms"),
    ("request_ms.p75", "ms"),
    ("peak_rss_mb", "MiB"),
]


def _say(message):
    print(message, file=sys.stderr, flush=True)


class Tally:
    """Attempted and failed operations, with the first few errors shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, error, label):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                _say(f"FAILED {label}: {error}")


def _warmup(wl, around=_no_span):
    outcomes = []
    for i in range(wl.warmup_requests):
        outcomes += wl.request(i, around)
    return outcomes


def _setup_child(wl, directory, warmup):
    """Set-up in this process: write inputs, optionally load and warm up."""
    directory.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    wl.generate(directory)
    outcomes = []
    if warmup:
        wl.load(directory)
        outcomes = _warmup(wl)
    seconds = time.perf_counter() - start
    errors = [f"{o.label}: {e}" for o in outcomes for e in [wl.check(o)] if e]
    print(json.dumps({"seconds": seconds, "inputs": input_digests(directory),
                      "attempted": len(outcomes), "errors": errors}))
    return 0


def _spawn_setup(args, root, directory, warmup):
    """Run one set-up in a fresh interpreter; its JSON report or an error."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-dir", str(directory), "--warmup", str(int(warmup))]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"set-up in {directory.name} timed out"
    if proc.returncode != 0:
        return None, f"set-up exited with {proc.returncode}: {proc.stderr[-600:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        return "unknown"


def _git_commit(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, args, wl, threads, nproc):
    src = hashlib.sha256()
    for path in sorted((root / "src" / "arrayvad").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
        "workload": wl.name,
        "seed": args.seed,
        "input_set": wl.index,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _quantile75(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def _closed_loop(wl, args, tracer, tally):
    """Requests one after another until the time is up.

    With a tracer, every second request is traced. Returns a list of
    (traced, request index, outcomes).
    """
    requests = []
    i = wl.warmup_requests
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(requests) % 2 == 1
        if traced:
            def around(label, i=i):
                return tracer.op(f"{i}:{label}")
        else:
            around = _no_span
        gc.collect()
        outcomes = wl.request(i, around)
        for o in outcomes:
            tally.record(wl.check(o), f"request {i} {o.label}")
            if traced:
                with tracer.op(f"{i}:{o.label}"):
                    tracer.add("spectral.stft.input_frames", o.input_frames)
        requests.append((traced, i, outcomes))
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or len(requests) >= 2):
            return requests


def _rtf(requests):
    seconds = sum(o.seconds for _, _, outs in requests for o in outs)
    audio = sum(o.audio_s for _, _, outs in requests for o in outs)
    return seconds / audio


def _end_to_end(requests, setups):
    request_ms = [1000.0 * sum(o.seconds for o in outs) for _, _, outs in requests]
    return {
        "setup_s": statistics.median(setups),
        "rtf": _rtf(requests),
        "request_ms.p50": statistics.median(request_ms),
        "request_ms.p75": _quantile75(request_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _phase_step_ms(requests):
    """Median ms per training step of each phase label (train only)."""
    per_label = {}
    for _, _, outs in requests:
        for o in outs:
            if o.units > 1:
                per_label.setdefault(o.label, []).append(1000.0 * o.seconds / o.units)
    return {f"step_ms.{label}": statistics.median(v)
            for label, v in per_label.items()}


def _timed_run(wl, args, root, work, tally):
    """Three set-ups in fresh processes, then the untraced closed loop."""
    setups, reports = [], []
    for k in range(SETUPS):
        report, error = _spawn_setup(args, root, work / f"setup{k}", warmup=k > 0)
        tally.record(error, f"set-up {k}")
        if report is None:
            raise SystemExit(f"set-up {k} failed: {error}")
        for e in report["errors"]:
            tally.record(e, f"set-up {k} warm-up")
        tally.attempted += report["attempted"] - len(report["errors"])
        setups.append(report["seconds"])
        reports.append(report)
    inputs = reports[0]["inputs"]
    for k, report in enumerate(reports[1:], start=1):
        tally.record(None if report["inputs"] == inputs else
                     "inputs differ between set-ups of the same seed",
                     f"set-up {k} inputs")
    tally.record(wl.check_inputs(inputs), "inputs vs reference")
    for k in range(1, SETUPS):
        shutil.rmtree(work / f"setup{k}")

    # The first set-up ends with this process's own load and warm-up.
    start = time.perf_counter()
    wl.load(work / "setup0")
    for o in _warmup(wl):
        tally.record(wl.check(o), f"warm-up {o.label}")
    setups[0] += time.perf_counter() - start
    requests = _closed_loop(wl, args, None, tally)
    metrics = _end_to_end(requests, setups)
    extra = {"setup_runs_s": setups, "requests": len(requests),
             "request_ms": [round(1000.0 * sum(o.seconds for o in outs), 3)
                            for _, _, outs in requests]}
    extra.update(_phase_step_ms(requests))
    return metrics, extra


def _traced_run(wl, args, work, tally, results_dir):
    tracer = tracing.Tracer()
    tracer.install(tracing.wrap_points())
    wl.tracer = tracer
    try:
        directory = work / "setup0"
        directory.mkdir(parents=True)
        with tracer.op("setup"):
            wl.generate(directory)
            tally.record(wl.check_inputs(input_digests(directory)),
                         "inputs vs reference")
            wl.load(directory)
            for o in _warmup(wl):
                tally.record(wl.check(o), f"warm-up {o.label}")
        requests = _closed_loop(wl, args, tracer, tally)
    finally:
        tracer.uninstall()
        wl.tracer = None
    plain = [r for r in requests if not r[0]]
    traced = [r for r in requests if r[0]]
    overhead = 100.0 * (_rtf(traced) / _rtf(plain) - 1.0)
    ops = [(f"{i}:{o.label}", o.label, o.units, o.seconds)
           for _, i, outs in traced for o in outs]
    metrics = tracing.layer_metrics(tracer, ops, "setup", overhead)
    spans_path = results_dir / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write(spans_path)
    extra = {"requests": len(requests), "traced_requests": len(traced),
             "missing_wrap_points": sorted(tracer.missing),
             "spans_file": str(spans_path)}
    return {name: value for name, (value, _) in metrics.items()}, extra


def _fmt(value):
    if value is None:
        return "missing"
    return f"{value:.6g}"


def main(args, root, threads, nproc):
    package_dir = (root / "src" / "arrayvad").resolve()
    if Path(arrayvad.__file__).resolve().parent != package_dir:
        _say(f"error: imported arrayvad from {arrayvad.__file__}, not {package_dir}")
        return 2
    if args.workload not in WORKLOADS:
        _say(f"error: unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_dir:
        return _setup_child(wl, Path(args.setup_dir), args.warmup)

    bench_dir = root / ".bench_work"
    work = bench_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = bench_dir / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            metrics, extra = _traced_run(wl, args, work, tally, results_dir)
            units = dict(tracing.catalogue())
        else:
            metrics, extra = _timed_run(wl, args, root, work, tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(root, args, wl, threads, nproc)
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"# arrayvad benchmark: workload {wl.name}, seed {args.seed} "
          f"(input set {wl.index}), {args.seconds:g} s, trace {args.trace}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(failed_frac {failed_frac:.6g})")
    for key, value in extra.items():
        if key.startswith("step_ms."):
            print(f"{key:<48} {_fmt(value):>12} ms")
        else:
            print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:<48} {_fmt(value):>12} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, env=env, failed_frac=failed_frac, extra=extra)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0
