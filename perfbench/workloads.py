"""The three benchmark workloads.

Each workload makes its inputs from a seed with ``arraysim`` and writes them
as WAV, RTTM and checkpoint files. Its requests then drive the package from
outside, through public functions only, and every output is compared with
the reference recorded in ``perfbench/reference/<workload>.json``.

The package functions are always looked up through their module at call
time (``cli.main``, ``trainer.train``, ``arraysim.synth_scene``), so the
wraps that the traced run installs see every call.

A seed selects one of ``POOL`` input sets (seed mod ``POOL``); the reference
holds the outputs of every set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from arrayvad import (arraysim, checkpoint, cli, frontends, segeval, seqmodel,
                      signal_io, spectral, trainer)
from arrayvad.beamform import ArrayGeometry

POOL = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Loss histories may differ from the reference by reassociated float sums
# (batched or reordered arithmetic), never by more than this relative
# amount. Every other output is compared bit for bit.
LOSS_RTOL = 1e-9

N_MICS = 8
RADIUS_M = 0.1


def pool_index(seed):
    return int(seed) % POOL


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def input_digests(directory):
    """File name -> sha256 of every input file in ``directory``."""
    return {p.name: digest(p) for p in sorted(Path(directory).iterdir())
            if p.is_file()}


def _geometry():
    return ArrayGeometry.uniform_circular(N_MICS, RADIUS_M)


def _seed_from(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _stft_input_frames(n_channels, n_samples, sample_rate):
    """Channel-frames one STFT of a recording would produce."""
    cfg = spectral.StftConfig()
    frames = spectral.frame_count(n_samples, cfg.win_samples(sample_rate),
                                  cfg.hop_samples(sample_rate))
    return n_channels * frames


class OpFailure(Exception):
    """An operation exited nonzero or produced a wrong output."""


def call_cli(argv):
    """Run ``arrayvad <argv>`` in-process; raise OpFailure on a nonzero exit."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(argv)
    if code != 0:
        tail = captured.getvalue().strip()[-400:]
        raise OpFailure(f"arrayvad {argv[0]} exited with {code}: {tail}")
    return captured.getvalue()


@dataclass
class Outcome:
    """One operation: its label, timed wall seconds, work done and result."""

    label: str
    seconds: float
    audio_s: float
    units: int = 1
    output: object = None
    error: str = None
    input_frames: int = 0


def _no_span(label):
    return contextlib.nullcontext()


def _run_op(label, around, fn, audio_s, units=1, input_frames=0):
    """Time ``fn`` inside ``around(label)``; turn any exception into an error."""
    with around(label):
        start = time.perf_counter()
        try:
            output = fn()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            output = None
            error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, OpFailure):
                error += "\n" + traceback.format_exc()
        seconds = time.perf_counter() - start
    return Outcome(label, seconds, audio_s, units, output, error, input_frames)


class Workload:
    """Base: reference handling shared by the three workloads."""

    name = None
    seed_tag = None
    warmup_requests = 1
    distinct_requests = 1  # requests with different outputs, cycled in order

    def __init__(self, seed, reference=None):
        self.index = pool_index(seed)
        if reference is None:
            reference = self.load_reference()
        self.reference = reference
        self.dir = None
        self.tracer = None

    def _rng(self):
        """A fresh generator, so that every ``generate`` writes the same bytes."""
        return np.random.default_rng((self.index, self.seed_tag))

    @classmethod
    def reference_path(cls):
        return REFERENCE_DIR / f"{cls.name}.json"

    @classmethod
    def load_reference(cls):
        with open(cls.reference_path(), encoding="utf-8") as fh:
            return json.load(fh)["inputs"]

    def expected(self):
        return self.reference[str(self.index)]

    def check_inputs(self, digests):
        """Error text when WAV/RTTM inputs differ from the recorded ones."""
        want = self.expected()["inputs"]
        got = {k: v for k, v in digests.items() if k.endswith((".wav", ".rttm"))}
        if got != want:
            bad = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
            return f"generated inputs differ from the reference: {bad[:5]}"
        return None

    def check(self, outcome):
        """Error text when the outcome's output differs from the reference."""
        if outcome.error is not None:
            return outcome.error
        want = self.expected()["outputs"].get(outcome.label)
        if want is None:
            return f"no reference output for {outcome.label}"
        if outcome.output != want:
            return f"{outcome.label}: output differs from the reference"
        return None

    # subclasses: generate(directory), load(directory), request(i, around)


class InferLong(Workload):
    """One 30 s scene, ``infer`` then ``score`` per request."""

    name = "infer_long"
    seed_tag = 1
    SCENE_S = 30.0
    N_SOURCES = 5

    def generate(self, directory):
        directory = Path(directory)
        rng = self._rng()
        sources = []
        for i in range(self.N_SOURCES):
            # Onsets spread over the scene, lengths up to 7 s: several overlaps.
            onset = round(float(rng.uniform(0.0, self.SCENE_S - 4.0)), 2)
            sources.append(arraysim.SourceSpec(
                azimuth=float(rng.uniform(0.0, 2.0 * np.pi)), onset=onset,
                duration=round(float(rng.uniform(2.0, 7.0)), 2),
                tag=arraysim.SOURCE_TAGS[int(rng.integers(0, 2))],
                level_db=round(float(rng.uniform(-26.0, -14.0)), 1)))
        spec = arraysim.SceneSpec(geometry=_geometry(), duration_s=self.SCENE_S,
                                  sources=tuple(sources), noise="white",
                                  snr_db=15.0, seed=_seed_from(rng))
        signal, truth = arraysim.synth_scene(spec)
        signal_io.write_wav(signal, directory / "scene.wav")
        segeval.write_rttm(truth, directory / "scene.rttm")
        frontend = frontends.make_frontend({"kind": "sacc"}, seed=_seed_from(rng))
        model = seqmodel.tcn_init(seqmodel.TcnConfig(input_dim=frontend.feature_dim),
                                  seed=_seed_from(rng))
        checkpoint.save_model(directory / "model.ckpt", frontend, model)

    def load(self, directory):
        self.dir = Path(directory)
        self.out = self.dir / "out"
        self.input_frames = _stft_input_frames(N_MICS, int(self.SCENE_S * 16000), 16000)

    def request(self, i, around):
        hyp = self.out / "hyp.rttm"
        scored = self.out / "metrics.json"
        for stale in (hyp, scored):
            stale.unlink(missing_ok=True)

        def op():
            call_cli(["infer", "--checkpoint", str(self.dir / "model.ckpt"),
                      "--wav", str(self.dir / "scene.wav"), "--out", str(self.out)])
            call_cli(["score", "--ref", str(self.dir / "scene.rttm"),
                      "--hyp", str(hyp), "--out", str(self.out)])
            return {"hyp.rttm": digest(hyp), "metrics.json": digest(scored)}

        return [_run_op("infer", around, op, self.SCENE_S,
                        input_frames=self.input_frames)]


class MaskevalShort(Workload):
    """Many 3 s scenes, one ``maskeval`` call with three keep sets each."""

    name = "maskeval_short"
    seed_tag = 2
    warmup_requests = 2
    distinct_requests = 48
    N_SCENES = distinct_requests
    SCENE_S = 3.0
    KEEP_SIZES = (8, 4, 2)

    def __init__(self, seed, reference=None):
        super().__init__(seed, reference)
        keep_rng = np.random.default_rng((self.index, 7))
        self.keep_sets = [
            [",".join(str(c) for c in sorted(keep_rng.choice(N_MICS, size, replace=False)))
             for size in self.KEEP_SIZES]
            for _ in range(self.N_SCENES)]

    def generate(self, directory):
        directory = Path(directory)
        rng = self._rng()
        for j in range(self.N_SCENES):
            # Two talkers as in the README round trip, overlapping in the middle.
            first = arraysim.SourceSpec(
                azimuth=float(rng.uniform(0.0, 2.0 * np.pi)),
                onset=round(float(rng.uniform(0.1, 0.6)), 2),
                duration=round(float(rng.uniform(1.2, 1.8)), 2),
                tag=arraysim.SOURCE_TAGS[int(rng.integers(0, 2))], level_db=-20.0)
            second = arraysim.SourceSpec(
                azimuth=float(rng.uniform(0.0, 2.0 * np.pi)),
                onset=round(float(rng.uniform(1.0, 1.6)), 2),
                duration=round(float(rng.uniform(1.0, 1.4)), 2),
                tag=arraysim.SOURCE_TAGS[int(rng.integers(0, 2))], level_db=-20.0)
            spec = arraysim.SceneSpec(geometry=_geometry(), duration_s=self.SCENE_S,
                                      sources=(first, second), noise="white",
                                      snr_db=20.0, seed=_seed_from(rng))
            signal, truth = arraysim.synth_scene(spec)
            signal_io.write_wav(signal, directory / f"scene{j:02d}.wav")
            segeval.write_rttm(truth, directory / f"scene{j:02d}.rttm")
        frontend = frontends.make_frontend({"kind": "ecsacc"}, seed=_seed_from(rng))
        model = seqmodel.tcn_init(seqmodel.TcnConfig(input_dim=frontend.feature_dim),
                                  seed=_seed_from(rng))
        checkpoint.save_model(directory / "model.ckpt", frontend, model)

    def load(self, directory):
        self.dir = Path(directory)
        self.out = self.dir / "out"
        n = int(round(self.SCENE_S * 16000))
        self.input_frames = _stft_input_frames(N_MICS, n, 16000)

    def request(self, i, around):
        j = i % self.N_SCENES
        result = self.out / "maskeval.json"
        result.unlink(missing_ok=True)
        argv = ["maskeval", "--checkpoint", str(self.dir / "model.ckpt"),
                "--wav", str(self.dir / f"scene{j:02d}.wav"),
                "--ref", str(self.dir / f"scene{j:02d}.rttm")]
        for keep in self.keep_sets[j]:
            argv += ["--keep", keep]
        argv += ["--out", str(self.out)]

        def op():
            call_cli(argv)
            return digest(result)

        audio_s = self.SCENE_S * len(self.KEEP_SIZES)
        return [_run_op(f"maskeval[{j}]", around, op, audio_s,
                        input_frames=self.input_frames)]


class Train(Workload):
    """``trainer.train`` at the acceptance-criterion-8 config.

    One request is a round of eight phases: each trainable frontend kind
    with cross entropy alone and with the dual loss.
    """

    name = "train"
    seed_tag = 3
    KINDS = ("sacc", "analytic", "ecsacc", "icsacc")
    LOSSES = ("ce", "dual")
    STEPS = 4
    BATCH = 2
    SEGMENT_S = 0.64
    N_TRAIN = 16
    N_VAL = 1

    def generate(self, directory):
        directory = Path(directory)
        rng = self._rng()
        template = arraysim.SceneSpec(geometry=_geometry(), duration_s=self.SEGMENT_S,
                                      noise="white", snr_db=15.0, seed=0)
        span = self.tracer.span if self.tracer else _no_span
        with span("arraysim.toy_dataset"):
            items = list(arraysim.toy_dataset(template, self.N_TRAIN + self.N_VAL,
                                              _seed_from(rng)))
        for k, item in enumerate(items):
            signal_io.write_wav(item.signal, directory / f"item{k:02d}.wav")
            segeval.write_rttm(item.segments, directory / f"item{k:02d}.rttm")
        for kind in self.KINDS:
            frontend = frontends.make_frontend({"kind": kind, "attn_dim": 8},
                                               seed=_seed_from(rng))
            model = seqmodel.tcn_init(
                seqmodel.TcnConfig(input_dim=frontend.feature_dim, bottleneck=16,
                                   hidden=16, layers_per_block=2, blocks=2),
                seed=_seed_from(rng))
            checkpoint.save_model(directory / f"{kind}.ckpt", frontend, model)

    def load(self, directory):
        self.dir = Path(directory)
        items = []
        for k in range(self.N_TRAIN + self.N_VAL):
            signal = signal_io.read_wav(self.dir / f"item{k:02d}.wav")
            segments = segeval.parse_rttm(self.dir / f"item{k:02d}.rttm")
            labels = segeval.labels_from_segments(segments, signal.duration_s)
            items.append(arraysim.ToySegment(signal=signal, segments=segments,
                                             labels=labels, scene=None))
        self.train_items = items[:self.N_TRAIN]
        self.val_items = items[self.N_TRAIN:]
        per_item = _stft_input_frames(N_MICS, items[0].signal.n_samples,
                                      items[0].signal.sample_rate)
        self.input_frames = (self.STEPS * self.BATCH + self.N_VAL) * per_item

    # Batch draws and channel masks are part of the workload, not of its
    # data: with them fixed, every input set does the same amount of work.
    LOOP_SEED = 17

    def request(self, i, around):
        outcomes = []
        for kind in self.KINDS:
            for loss in self.LOSSES:
                frontend, model = checkpoint.load_model(self.dir / f"{kind}.ckpt")
                tcfg = trainer.TrainConfig(
                    batch_size=self.BATCH, steps_per_epoch=self.STEPS, max_epochs=1,
                    patience=1, lr=3e-3, segment_s=self.SEGMENT_S, seed=self.LOOP_SEED)
                icfg = (trainer.InvariantConfig(p=2, lam=0.7, min_keep=2,
                                                rng_seed=self.LOOP_SEED)
                        if loss == "dual" else None)

                def op():
                    result = trainer.train(frontend, model, self.train_items,
                                           self.val_items, tcfg, icfg)
                    return result.history

                audio_s = self.STEPS * self.BATCH * self.SEGMENT_S
                # The analytic bank runs no STFT, so it adds no STFT input frames.
                frames = 0 if kind == "analytic" else self.input_frames
                outcomes.append(_run_op(f"{kind}.{loss}", around, op, audio_s,
                                        units=self.STEPS, input_frames=frames))
        return outcomes

    def check(self, outcome):
        if outcome.error is not None:
            return outcome.error
        want = self.expected()["outputs"].get(outcome.label)
        if want is None:
            return f"no reference output for {outcome.label}"
        return compare_history(outcome.label, outcome.output, want)


def compare_history(label, got, want, rtol=LOSS_RTOL):
    """Error text when a train history differs from the reference.

    Keys and integers must match exactly; floats within ``rtol``.
    """
    if not isinstance(got, list) or len(got) != len(want):
        return f"{label}: history has {len(got) if isinstance(got, list) else '?'} " \
               f"records, reference {len(want)}"
    for n, (rec, ref) in enumerate(zip(got, want)):
        if sorted(rec) != sorted(ref):
            return f"{label}: record {n} keys {sorted(rec)} != {sorted(ref)}"
        for key, value in ref.items():
            mine = rec[key]
            if isinstance(value, float) or isinstance(mine, float):
                if not (math.isfinite(mine) and
                        abs(mine - value) <= rtol * max(1.0, abs(value))):
                    return (f"{label}: record {n} {key} = {mine!r}, reference "
                            f"{value!r}")
            elif mine != value:
                return f"{label}: record {n} {key} = {mine!r}, reference {value!r}"
    return None


WORKLOADS = {w.name: w for w in (InferLong, MaskevalShort, Train)}
