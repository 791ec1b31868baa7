"""Command-line pipeline driver.

Eight subcommands cover the toolkit end to end: scene simulation, feature
dumps, beampattern and SRP-PHAT maps, training, inference, RTTM scoring and
channel-masking evaluation. Configs are JSON files validated against
per-command schemas; unknown keys are rejected up front so typos fail loudly
instead of silently using a default.

Conventions:
  * human-readable messages go to standard error, results go to files under
    --out (or standard output for score/srp summaries);
  * exit 0 on success, 1 for usage or configuration errors, 2 for data
    errors (unreadable or inconsistent inputs), 3 for numeric failures;
  * every command is deterministic given --seed; reruns produce
    byte-identical outputs, and no output embeds a timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .arraysim import SceneSpec, synth_scene, toy_dataset
from .autodiff import no_grad
from .beamform import ArrayGeometry, srp_phat, time_avg_beampattern
from .checkpoint import load_model, save_model
from .errors import ArgumentError, ArrayVadError, NumericError, config_int
from .frontends import FRONTEND_KINDS, FrameCache, make_frontend
from .segeval import (labels_from_segments, osd_metrics, parse_rttm,
                      segments_from_labels, sliding_infer, vad_metrics,
                      write_rttm)
from .seqmodel import TcnConfig, posteriors, tcn_forward, tcn_init
# mask_channels is unused here; perfbench/tracing.py wraps it under this name.
from .signal_io import (WavReader, channel_mask, mask_channels, read_wav,
                        write_wav)
from .spectral import log_compress, mel_project, stft
from .trainer import InvariantConfig, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

FEATURE_VARIANTS = ("stft",) + FRONTEND_KINDS


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


# -- config schemas -----------------------------------------------------------

_GEOMETRY_SCHEMA = {
    "type": "object",
    "properties": {
        "n_mics": {"type": "integer", "minimum": 1},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "speed_of_sound": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["n_mics", "radius"],
    "additionalProperties": False,
}

_SOURCE_SCHEMA = {
    "type": "object",
    "properties": {
        "azimuth": {"type": "number"},
        "onset": {"type": "number"},
        "duration": {"type": "number"},
        "tag": {"type": "string"},
        "level_db": {"type": "number"},
    },
    "required": ["azimuth", "onset", "duration"],
    "additionalProperties": False,
}

_SCENE_SCHEMA = {
    "type": "object",
    "properties": {
        "geometry": _GEOMETRY_SCHEMA,
        "duration_s": {"type": "number"},
        "sources": {"type": "array", "items": _SOURCE_SCHEMA},
        "noise": {"type": "string"},
        "snr_db": {"type": "number"},
        "sample_rate": {"type": "integer"},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["geometry", "duration_s"],
    "additionalProperties": False,
}

# Union of all frontend constructor knobs; which combinations are legal is
# decided by make_frontend, the schema only guards spelling and types.
_FRONTEND_PROPERTIES = {
    "sample_rate": {"type": "integer"},
    "n_mels": {"type": "integer"},
    "attn_dim": {"type": "integer"},
    "seed": {"type": "integer", "minimum": 0},
    "n_filters": {"type": "integer"},
    "kernel_len": {"type": "integer"},
    "parts": {"enum": ["mag_phase", "real_imag"]},
    "geometry": _GEOMETRY_SCHEMA,
}

_FRONTEND_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"enum": list(FRONTEND_KINDS)}, **_FRONTEND_PROPERTIES},
    "required": ["kind"],
    "additionalProperties": False,
}

_FEATURES_SCHEMA = {
    "type": "object",
    "properties": {"variant": {"enum": list(FEATURE_VARIANTS)}, **_FRONTEND_PROPERTIES},
    "required": ["variant"],
    "additionalProperties": False,
}

_MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "input_dim": {"type": "integer"},
        "bottleneck": {"type": "integer"},
        "hidden": {"type": "integer"},
        "layers_per_block": {"type": "integer"},
        "blocks": {"type": "integer"},
        "kernel": {"type": "integer"},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_TRAIN_SECTION_SCHEMA = {
    "type": "object",
    "properties": {
        "batch_size": {"type": "integer"},
        "steps_per_epoch": {"type": "integer"},
        "segment_s": {"type": "number"},
        "lr": {"type": "number"},
        "patience": {"type": "integer"},
        "max_epochs": {"type": "integer"},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_INVARIANT_SCHEMA = {
    "type": "object",
    "properties": {
        "p": {"type": "integer"},
        "lambda": {"type": "number"},
        "min_keep": {"type": "integer"},
        "rng_seed": {"type": "integer"},
    },
    "additionalProperties": False,
}

# A data template shapes every toy item, but ``toy_dataset`` draws each
# item's sources and seeds it from ``data.seed``; a template ``seed`` or
# ``sources`` would be ignored, so the schema refuses them.
_TEMPLATE_SCHEMA = {
    **_SCENE_SCHEMA,
    "properties": {k: v for k, v in _SCENE_SCHEMA["properties"].items()
                   if k not in ("seed", "sources")},
}

_DATA_SCHEMA = {
    "type": "object",
    "properties": {
        "template": _TEMPLATE_SCHEMA,
        "n_train": {"type": "integer", "minimum": 1},
        "n_val": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["template", "n_train", "n_val"],
    "additionalProperties": False,
}

_TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "frontend": _FRONTEND_SCHEMA,
        "model": _MODEL_SCHEMA,
        "train": _TRAIN_SECTION_SCHEMA,
        "invariant": _INVARIANT_SCHEMA,
        "data": _DATA_SCHEMA,
    },
    "required": ["frontend", "data"],
    "additionalProperties": False,
}

_BEAMPATTERN_SCHEMA = {
    "type": "object",
    "properties": {
        "geometry": _GEOMETRY_SCHEMA,
        "freqs": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "n_angles": {"type": "integer", "minimum": 4},
    },
    "required": ["geometry", "freqs"],
    "additionalProperties": False,
}

_SRP_SCHEMA = {
    "type": "object",
    "properties": {
        "geometry": _GEOMETRY_SCHEMA,
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "n_angles": {"type": "integer", "minimum": 4},
        "band": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
    "required": ["geometry"],
    "additionalProperties": False,
}

_INFER_SCHEMA = {
    "type": "object",
    "properties": {
        "win_s": {"type": "number", "exclusiveMinimum": 0},
        "hop_s": {"type": "number", "exclusiveMinimum": 0},
        "file_id": {"type": "string", "minLength": 1},
    },
    "additionalProperties": False,
}

_MASKEVAL_SCHEMA = {
    "type": "object",
    "properties": {
        "keep_sets": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
                "minItems": 1,
            },
            "minItems": 1,
        },
        "win_s": {"type": "number", "exclusiveMinimum": 0},
        "hop_s": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}


# -- small helpers ------------------------------------------------------------


def _say(message):
    print(message, file=sys.stderr)


def _finite_number(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _finite_int(text):
    _finite_number(text)
    return int(text)


def _load_config(path, schema):
    """The validated JSON config at ``path``; numbers whose float value is
    not finite are refused, integer literals included."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_finite_number,
                            parse_float=_finite_number, parse_int=_finite_int)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, non-finite
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(cfg, schema)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "top level"
        raise UsageError(f"config {path}: {exc.message} (at {where})") from exc
    return cfg


def _out_dir(args):
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _write_csv(path, header, rows):
    """Plain CSV with %.17g floats; every CSV the CLI writes, the
    ``features.csv`` feature dump included, goes through here."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def _infer_labels(frontend, model, recording, cfg, mask=None):
    """Sliding-window labels; no tape, and each window analyses only the
    frames the previous one did not (per-window MVN and TCN are kept).
    ``recording`` is a ``WavReader`` (each window's samples are read from
    the file when the window runs) or a ``MultichannelSignal``. The window
    and hop are ``sliding_infer``'s unless ``cfg`` names them.

    With a (P, C) channel mask, one pass serves P channel subsets: each
    window is analysed and normalised once, its features come as a
    (T, P, F) stack and the TCN runs once per path; returns a list of P
    ``FrameLabels``, path p's equal to those of the recording masked to the
    channels mask row p keeps. This holds for every kind: ``mvdr``
    beamforms each path's microphones on their own from the one analysis.
    """
    cache = FrameCache(frontend)

    def posterior_fn(window):
        feats = frontend.features(window, cache=cache, mask=mask).data
        if mask is None:
            return posteriors(tcn_forward(model, feats))
        return np.stack([posteriors(tcn_forward(model, feats[:, p]))
                         for p in range(feats.shape[1])])

    window = {k: cfg[k] for k in ("win_s", "hop_s") if k in cfg}
    with no_grad():
        return sliding_infer(posterior_fn, recording, **window)


def _check_rate(frontend, recording):
    """ArgumentError unless ``recording`` has the frontend's sample rate."""
    if recording.sample_rate != frontend.sample_rate:
        raise ArgumentError(
            f"wav rate {recording.sample_rate} != frontend rate "
            f"{frontend.sample_rate}")


def _score_pair(ref_labels, hyp_labels):
    vad = vad_metrics(ref_labels, hyp_labels)
    osd = osd_metrics(ref_labels, hyp_labels)
    return {
        "vad": {
            "false_alarm": vad.false_alarm,
            "miss": vad.miss,
            "ser": vad.error_rate,
        },
        "osd": {
            "precision": osd.precision,
            "recall": osd.recall,
            "f1": osd.f1,
            "degenerate": osd.degenerate,
        },
    }


# -- subcommands --------------------------------------------------------------


def _cmd_simulate(args):
    cfg = _load_config(args.config, _SCENE_SCHEMA)
    if args.seed is not None:
        cfg = dict(cfg, seed=args.seed)
    spec = SceneSpec.from_dict(cfg)
    signal, truth = synth_scene(spec)
    out = _out_dir(args)
    write_wav(signal, out / "scene.wav")
    write_rttm(truth, out / "scene.rttm")
    _write_json(out / "scene.json", spec.to_dict())
    _say(f"simulate: {signal.n_channels} ch x {signal.duration_s:.2f} s, "
         f"{len(truth.segments)} segments -> {out}")


def _cmd_features(args):
    cfg = _load_config(args.config, _FEATURES_SCHEMA)
    signal = read_wav(args.wav)
    variant = cfg["variant"]
    if variant == "stft":
        if args.checkpoint is not None:
            raise UsageError("--checkpoint does not apply to the stft variant")
        for key in cfg:
            if key not in ("variant", "n_mels", "sample_rate"):
                raise UsageError(f"config key {key!r} does not apply to the "
                                 "stft variant")
        if cfg.get("sample_rate", signal.sample_rate) != signal.sample_rate:
            raise ArgumentError(
                f"config sample_rate {cfg['sample_rate']} != wav rate "
                f"{signal.sample_rate}")
        # Reference path: log-mel of the first channel, no combination.
        mag = np.abs(stft(signal).values[0])
        feats = log_compress(mel_project(mag, cfg.get("n_mels", 64),
                                         signal.sample_rate))
    elif args.checkpoint is not None:
        frontend, _ = load_model(args.checkpoint)
        if frontend.kind != variant:
            raise ArgumentError(
                f"checkpoint holds a {frontend.kind!r} frontend, config asks "
                f"for {variant!r}")
        with no_grad():
            feats = frontend.features(signal).data
    else:
        fe_cfg = {k: v for k, v in cfg.items() if k != "variant"}
        fe_cfg["kind"] = variant
        fe_cfg.setdefault("sample_rate", signal.sample_rate)
        frontend = make_frontend(fe_cfg, seed=args.seed)
        with no_grad():
            feats = frontend.features(signal).data
    out = _out_dir(args)
    _write_csv(out / "features.csv",
               ["frame"] + [f"bin_{i}" for i in range(feats.shape[1])],
               ([t, *row] for t, row in enumerate(feats)))
    _say(f"features: {variant}, {feats.shape[0]} frames x {feats.shape[1]} "
         f"dims -> {out / 'features.csv'}")


def _cmd_beampattern(args):
    cfg = _load_config(args.config, _BEAMPATTERN_SCHEMA)
    geom = ArrayGeometry.from_dict(cfg["geometry"])
    frontend, _ = load_model(args.checkpoint)
    signal = read_wav(args.wav)
    _, weights = frontend.combined(signal)
    if weights is None:
        raise ArgumentError(
            f"frontend kind {frontend.kind!r} does not produce per-frame "
            "channel weights")
    n_angles = cfg.get("n_angles", 360)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    columns = []
    for freq in cfg["freqs"]:
        response = time_avg_beampattern(weights, geom, freq, thetas)
        columns.append(np.abs(response))
    out = _out_dir(args)
    header = ["theta_deg"] + [f"mag_{freq:g}hz" for freq in cfg["freqs"]]
    rows = [[float(np.rad2deg(t))] + [float(col[i]) for col in columns]
            for i, t in enumerate(thetas)]
    _write_csv(out / "beampattern.csv", header, rows)
    _say(f"beampattern: {n_angles} angles x {len(columns)} freqs -> "
         f"{out / 'beampattern.csv'}")


def _cmd_srp(args):
    cfg = _load_config(args.config, _SRP_SCHEMA)
    geom = ArrayGeometry.from_dict(cfg["geometry"])
    signal = read_wav(args.wav)
    spec = stft(signal)
    band = tuple(cfg["band"]) if "band" in cfg else None
    srp = srp_phat(spec, geom, candidate_radius=cfg.get("radius", 2.0),
                   n_angles=cfg.get("n_angles", 360), band=band)
    out = _out_dir(args)
    rows = [[float(np.rad2deg(a)), float(p)]
            for a, p in zip(srp.azimuths, srp.power)]
    _write_csv(out / "srp.csv", ["azimuth_deg", "power"], rows)
    peak = {
        "peak_azimuth_deg": float(np.rad2deg(srp.azimuths[srp.peak_index])),
        "peak_index": int(srp.peak_index),
    }
    print(json.dumps(peak, sort_keys=True))
    _say(f"srp: peak at {peak['peak_azimuth_deg']:.1f} deg -> {out / 'srp.csv'}")


def _cmd_train(args):
    cfg = _load_config(args.config, _TRAIN_SCHEMA)
    fe_cfg = dict(cfg["frontend"])
    model_cfg = dict(cfg.get("model", {}))
    train_cfg = dict(cfg.get("train", {}))
    data_cfg = cfg["data"]
    template = SceneSpec.from_dict(data_cfg["template"])

    # --seed overrides the training-loop seed and, where the config left the
    # init seeds unspecified, derives frontend/model seeds from it.
    if args.seed is not None:
        train_cfg["seed"] = args.seed
        fe_cfg.setdefault("seed", args.seed + 1)
        model_cfg.setdefault("seed", args.seed + 2)

    frontend = make_frontend(fe_cfg)
    if frontend.sample_rate != template.sample_rate:
        raise ArgumentError(
            f"frontend sample_rate {frontend.sample_rate} != scene rate "
            f"{template.sample_rate}")
    model_seed = config_int(model_cfg.pop("seed", 0), "model seed")
    model_cfg.setdefault("input_dim", frontend.feature_dim)
    model = tcn_init(TcnConfig.from_dict(model_cfg), seed=model_seed)
    tcfg = TrainConfig.from_dict(train_cfg)
    icfg = (InvariantConfig.from_dict(cfg["invariant"])
            if "invariant" in cfg else None)

    data_seed = data_cfg.get("seed", 0)
    _say(f"train: rendering {data_cfg['n_train']}+{data_cfg['n_val']} toy "
         "segments")
    train_items = list(toy_dataset(template, data_cfg["n_train"], data_seed))
    # Validation draws from the stream seeded one past the training data.
    val_items = list(toy_dataset(template, data_cfg["n_val"], data_seed + 1))

    out = _out_dir(args)
    result = train(frontend, model, train_items, val_items, tcfg, icfg,
                   log_path=out / "train_log.ndjson")
    save_model(out / "model.ckpt", result.frontend, result.model)
    epochs_run = sum(1 for rec in result.history if "val_osd_f1" in rec)
    _write_json(out / "metrics.json", {
        "best_epoch": result.best_epoch,
        "best_val_osd_f1": result.best_f1,
        "epochs_run": epochs_run,
        "steps_per_epoch": tcfg.steps_per_epoch,
    })
    _say(f"train: best val OSD F1 {result.best_f1:.2f} at epoch "
         f"{result.best_epoch} -> {out / 'model.ckpt'}")


def _cmd_infer(args):
    cfg = _load_config(args.config, _INFER_SCHEMA) if args.config else {}
    frontend, model = load_model(args.checkpoint)
    recording = WavReader(args.wav)
    _check_rate(frontend, recording)
    labels = _infer_labels(frontend, model, recording, cfg)
    segs = segments_from_labels(labels, cfg.get("file_id", "infer"))
    out = _out_dir(args)
    write_rttm(segs, out / "hyp.rttm")
    _say(f"infer: {len(segs.segments)} hypothesis segments -> "
         f"{out / 'hyp.rttm'}")


def _cmd_score(args):
    ref = parse_rttm(args.ref)
    hyp = parse_rttm(args.hyp)
    ends = [s.onset + s.duration for s in ref.segments]
    ends += [s.onset + s.duration for s in hyp.segments]
    if not ends:
        raise ArgumentError("neither RTTM file holds any segment")
    duration = max(ends)
    metrics = _score_pair(labels_from_segments(ref, duration),
                          labels_from_segments(hyp, duration))
    text = json.dumps(metrics, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        _write_json(_out_dir(args) / "metrics.json", metrics)


def _parse_keep(text):
    try:
        ids = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError as exc:
        raise UsageError(f"bad --keep value {text!r}: {exc}") from exc
    if not ids:
        raise UsageError(f"--keep value {text!r} names no channels")
    return ids


def _cmd_maskeval(args):
    cfg = _load_config(args.config, _MASKEVAL_SCHEMA) if args.config else {}
    if args.keep and "keep_sets" in cfg:
        raise UsageError("give keep sets either via --keep or the config, "
                         "not both")
    frontend, model = load_model(args.checkpoint)
    recording = WavReader(args.wav)
    _check_rate(frontend, recording)
    ref = parse_rttm(args.ref)
    ref_labels = labels_from_segments(ref, recording.duration_s)
    if args.keep:
        keep_sets = [_parse_keep(text) for text in args.keep]
    elif "keep_sets" in cfg:
        keep_sets = [sorted(set(ids)) for ids in cfg["keep_sets"]]
    else:
        keep_sets = [list(range(recording.n_channels))]
    mask = np.stack([channel_mask(recording, keep) for keep in keep_sets])
    hyps = _infer_labels(frontend, model, recording, cfg, mask=mask)
    rows = [{"n_channels": len(keep), "keep": keep,
             **_score_pair(ref_labels, labels)}
            for keep, labels in zip(keep_sets, hyps)]

    header = f"{'C':>4}  {'kept':<20} {'FA':>7} {'Miss':>7} {'SER':>7} {'OSD-F1':>7}"
    print(header)
    for row in rows:
        kept = ",".join(str(i) for i in row["keep"])
        print(f"C={row['n_channels']:<2}  {kept:<20} "
              f"{row['vad']['false_alarm']:>7.2f} {row['vad']['miss']:>7.2f} "
              f"{row['vad']['ser']:>7.2f} {row['osd']['f1']:>7.2f}")
    if args.out is not None:
        _write_json(_out_dir(args) / "maskeval.json", {"rows": rows})


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="arrayvad",
                     description="Microphone-array VAD/OSD pipeline tools.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_text, *, config="required", seed=True, out=True,
            wav=False, checkpoint=False):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if config == "required":
            p.add_argument("--config", required=True, help="JSON config file")
        elif config == "optional":
            p.add_argument("--config", help="JSON config file")
        if wav:
            p.add_argument("--wav", required=True, help="input WAV file")
        if checkpoint:
            p.add_argument("--checkpoint", required=checkpoint == "required",
                           help="model checkpoint")
        if seed:
            p.add_argument("--seed", type=int, help="base random seed override")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
        return p

    add("simulate", _cmd_simulate,
        "Render a scene config to WAV audio plus ground-truth RTTM.")
    add("features", _cmd_features,
        "Dump frontend features for a WAV file as CSV.",
        wav=True, checkpoint=True)
    add("beampattern", _cmd_beampattern,
        "Beampattern magnitudes of a checkpoint's combination weights.",
        wav=True, checkpoint="required", seed=False)
    add("srp", _cmd_srp,
        "SRP-PHAT azimuth energy map of a WAV file.", seed=False, wav=True)
    add("train", _cmd_train,
        "Train a frontend+TCN on synthetic toy scenes.")
    add("infer", _cmd_infer,
        "Run a trained model over a WAV file and write hypothesis RTTM.",
        config="optional", wav=True, checkpoint="required", seed=False)
    score = sub.add_parser(
        "score", help="Score hypothesis RTTM against reference RTTM.",
        description="Score hypothesis RTTM against reference RTTM.")
    score.add_argument("--ref", required=True, help="reference RTTM")
    score.add_argument("--hyp", required=True, help="hypothesis RTTM")
    score.add_argument("--out", help="optional directory for metrics.json")
    score.set_defaults(func=_cmd_score)
    mask = add("maskeval", _cmd_maskeval,
               "Evaluate a model under channel masking, one row per keep set.",
               config="optional", seed=False, wav=True, checkpoint="required")
    mask.add_argument("--ref", required=True, help="reference RTTM")
    mask.add_argument("--keep", action="append", metavar="IDS",
                      help="comma-separated channel ids to keep; repeatable")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _say(f"usage error: {exc}")
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if getattr(args, "seed", None) is not None and args.seed < 0:
        _say("usage error: --seed must be nonnegative")
        return EXIT_USAGE
    try:
        args.func(args)
    except UsageError as exc:
        _say(f"usage error: {exc}")
        return EXIT_USAGE
    except NumericError as exc:
        _say(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (ArrayVadError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
