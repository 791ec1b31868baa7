"""Command-line pipeline driver.

Eight subcommands cover the toolkit end to end: scene simulation, feature
dumps, beampattern and SRP-PHAT maps, training, inference, RTTM scoring and
channel-masking evaluation. Configs are JSON files, checked against the
dataclasses they fill (or a short key table) before any work: an unknown
or missing key, or a value of the wrong type or out of bounds, is a config
error naming its key path, so typos fail loudly instead of defaulting.

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
import dataclasses
import json
import sys
from pathlib import Path
from typing import Literal

import numpy as np

from .arraysim import SceneSpec, synth_scene, toy_dataset
from .autodiff import no_grad
from .beamform import ArrayGeometry, srp_phat, time_avg_beampattern
from .checkpoint import load_model, save_model
from .errors import (ArgumentError, ArrayVadError, ConfigError, NumericError,
                     Seed, check_size, config_dict, config_key, config_value,
                     loads_config)
from .frontends import (FRONTEND_KINDS, FrameCache, SaccConfig,
                        frontend_config, make_frontend)
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


# -- small helpers ------------------------------------------------------------


def _say(message):
    print(message, file=sys.stderr)


def _load_config(path):
    """The JSON object in the file at ``path``, read by ``loads_config``."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = loads_config(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    return config_value(cfg, dict)


def _require(cfg, key, ok, rule):
    """ConfigError at ``key`` when ``cfg`` holds it and ``ok(value)`` is
    false."""
    if key in cfg and not ok(cfg[key]):
        raise ConfigError(f"must be {rule}, got {cfg[key]!r}", key)


def _features_config(cfg, checkpoint=None):
    """The variant of a features config and its other keys: ``n_mels`` and
    ``sample_rate`` for ``stft``, a frontend config's keys otherwise. With
    a ``checkpoint``, whose config sets the frontend, none apply."""
    cfg = dict(cfg)
    if "variant" not in cfg:
        raise ConfigError("missing required features keys: ['variant']")
    with config_key("variant"):
        variant = config_value(cfg.pop("variant"), Literal[FEATURE_VARIANTS])
    if variant == "stft":
        if checkpoint is not None:
            raise UsageError("--checkpoint does not apply to the stft variant")
        return variant, config_dict(cfg, {"n_mels": int, "sample_rate": int},
                                    what="stft features")
    if checkpoint is None:
        frontend_config({"kind": variant, **cfg})
    elif cfg:
        raise ConfigError(f"keys {sorted(cfg)} do not apply with a checkpoint")
    return variant, cfg


def _beampattern_config(cfg):
    cfg = config_dict(cfg, {"geometry": ArrayGeometry, "freqs": list[float],
                            "n_angles": int},
                      required=("geometry", "freqs"), what="beampattern")
    _require(cfg, "freqs", len, "at least one frequency")
    _require(cfg, "n_angles", lambda n: n >= 4, ">= 4")
    return cfg


def _srp_config(cfg):
    cfg = config_dict(cfg, {"geometry": ArrayGeometry, "radius": float,
                            "n_angles": int, "band": list[float]},
                      required=("geometry",), what="srp")
    _require(cfg, "radius", lambda r: r > 0, "positive")
    _require(cfg, "n_angles", lambda n: n >= 4, ">= 4")
    _require(cfg, "band", lambda band: len(band) == 2, "[low, high]")
    return cfg


def _window_config(cfg, what, **types):
    """An infer or maskeval config: ``win_s``, ``hop_s`` and ``types``."""
    cfg = config_dict(cfg, {"win_s": float, "hop_s": float, **types},
                      what=what)
    for key in ("win_s", "hop_s"):
        _require(cfg, key, lambda s: s > 0, "positive")
    return cfg


def _infer_config(cfg):
    cfg = _window_config(cfg, "infer", file_id=str)
    _require(cfg, "file_id", len, "a non-empty string")
    return cfg


def _maskeval_config(cfg):
    cfg = _window_config(cfg, "maskeval", keep_sets=list[list[int]])
    _require(cfg, "keep_sets", len, "at least one keep set")
    for i, keep in enumerate(cfg.get("keep_sets", ())):
        if not keep:
            raise ConfigError("must name at least one channel", "keep_sets", i)
        for j, channel in enumerate(keep):
            if channel < 0:
                raise ConfigError(f"must be >= 0, got {channel}",
                                  "keep_sets", i, j)
    return cfg


def _train_setup(cfg, seed=None):
    """The frontend, model, ``TrainConfig``, ``InvariantConfig`` (or None)
    and data section (its ``template`` a ``SceneSpec``) of a train config.
    ``seed`` (``--seed``) overrides the training-loop seed and derives the
    frontend and model seeds the config leaves out."""
    cfg = config_dict(cfg, {"frontend": dict, "model": dict, "train": dict,
                            "invariant": InvariantConfig, "data": dict},
                      required=("frontend", "data"), what="train config")
    with config_key("data"):
        data = config_dict(cfg["data"], {"template": dict, "n_train": int,
                                         "n_val": int, "seed": Seed},
                           required=("template", "n_train", "n_val"),
                           what="data")
        for key in ("n_train", "n_val"):
            _require(data, key, lambda n: n >= 1, ">= 1")
        with config_key("template"):
            # ``toy_dataset`` draws each item's sources and seeds it from
            # ``data.seed``; a template's own would be ignored.
            drawn = sorted({"seed", "sources"} & set(data["template"]))
            if drawn:
                raise ConfigError(f"a template takes no {drawn}: data.seed "
                                  "draws each item's sources and seed")
            data["template"] = SceneSpec.from_dict(data["template"])
    fe_cfg = dict(cfg["frontend"])
    model_cfg = dict(cfg.get("model", {}))
    train_cfg = dict(cfg.get("train", {}))
    if seed is not None:
        train_cfg["seed"] = seed
        fe_cfg.setdefault("seed", seed + 1)
        model_cfg.setdefault("seed", seed + 2)
    with config_key("frontend"):
        frontend = make_frontend(fe_cfg)
    with config_key("model"):
        with config_key("seed"):
            model_seed = config_value(model_cfg.pop("seed", 0), Seed)
        model_cfg.setdefault("input_dim", frontend.feature_dim)
        model = tcn_init(TcnConfig.from_dict(model_cfg), seed=model_seed)
    with config_key("train"):
        tcfg = TrainConfig.from_dict(train_cfg)
    return frontend, model, tcfg, cfg.get("invariant"), data


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


def _open_recording(path, frontend):
    """A ``WavReader`` of ``path``; ArgumentError unless the file holds
    samples at the frontend's sample rate."""
    recording = WavReader(path)
    if recording.sample_rate != frontend.sample_rate:
        raise ArgumentError(
            f"wav rate {recording.sample_rate} != frontend rate "
            f"{frontend.sample_rate}")
    if recording.n_samples == 0:
        raise ArgumentError(f"{path} holds no sample frames")
    return recording


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
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dict(cfg, seed=args.seed)
    spec = SceneSpec.from_dict(cfg)
    signal, truth = synth_scene(spec)
    out = _out_dir(args)
    write_wav(signal, out / "scene.wav")
    write_rttm(truth, out / "scene.rttm")
    _write_json(out / "scene.json", dataclasses.asdict(spec))
    _say(f"simulate: {signal.n_channels} ch x {signal.duration_s:.2f} s, "
         f"{len(truth.segments)} segments -> {out}")


def _cmd_features(args):
    variant, cfg = _features_config(_load_config(args.config), args.checkpoint)
    signal = read_wav(args.wav)
    if variant == "stft":
        if cfg.get("sample_rate", signal.sample_rate) != signal.sample_rate:
            raise ArgumentError(
                f"config sample_rate {cfg['sample_rate']} != wav rate "
                f"{signal.sample_rate}")
        # Reference path: log-mel of the first channel, no combination.
        mag = np.abs(stft(signal).values[0])
        feats = log_compress(mel_project(
            mag, cfg.get("n_mels", SaccConfig.n_mels), signal.sample_rate))
    elif args.checkpoint is not None:
        frontend, _ = load_model(args.checkpoint)
        if frontend.kind != variant:
            raise ArgumentError(
                f"checkpoint holds a {frontend.kind!r} frontend, config asks "
                f"for {variant!r}")
        with no_grad():
            feats = frontend.features(signal).data
    else:
        frontend = make_frontend({"kind": variant,
                                  "sample_rate": signal.sample_rate, **cfg},
                                 seed=args.seed)
        with no_grad():
            feats = frontend.features(signal).data
    out = _out_dir(args)
    _write_csv(out / "features.csv",
               ["frame"] + [f"bin_{i}" for i in range(feats.shape[1])],
               ([t, *row] for t, row in enumerate(feats)))
    _say(f"features: {variant}, {feats.shape[0]} frames x {feats.shape[1]} "
         f"dims -> {out / 'features.csv'}")


def _cmd_beampattern(args):
    cfg = _beampattern_config(_load_config(args.config))
    geom = cfg["geometry"]
    # The widest arrays are the (angles, mics) steering phases of each
    # frequency and the (angles, freqs) table.
    n_angles = cfg.get("n_angles", 360)
    check_size(n_angles * max(len(cfg["freqs"]), geom.n_mics),
               f"a beampattern of n_angles {n_angles} angles")
    frontend, _ = load_model(args.checkpoint)
    signal = read_wav(args.wav)
    _, weights = frontend.combined(signal)
    if weights is None:
        raise ArgumentError(
            f"frontend kind {frontend.kind!r} does not produce per-frame "
            "channel weights")
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
    cfg = _srp_config(_load_config(args.config))
    signal = read_wav(args.wav)
    spec = stft(signal)
    band = tuple(cfg["band"]) if "band" in cfg else None
    srp = srp_phat(spec, cfg["geometry"],
                   candidate_radius=cfg.get("radius", 2.0),
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
    frontend, model, tcfg, icfg, data = _train_setup(
        _load_config(args.config), args.seed)
    template = data["template"]
    if frontend.sample_rate != template.sample_rate:
        raise ArgumentError(
            f"frontend sample_rate {frontend.sample_rate} != scene rate "
            f"{template.sample_rate}")

    data_seed = data.get("seed", 0)
    _say(f"train: rendering {data['n_train']}+{data['n_val']} toy segments")
    train_items = list(toy_dataset(template, data["n_train"], data_seed))
    # Validation draws from the stream seeded one past the training data.
    val_items = list(toy_dataset(template, data["n_val"], data_seed + 1))

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
    cfg = _infer_config(_load_config(args.config)) if args.config else {}
    frontend, model = load_model(args.checkpoint)
    recording = _open_recording(args.wav, frontend)
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
    cfg = _maskeval_config(_load_config(args.config)) if args.config else {}
    if args.keep and "keep_sets" in cfg:
        raise UsageError("give keep sets either via --keep or the config, "
                         "not both")
    frontend, model = load_model(args.checkpoint)
    recording = _open_recording(args.wav, frontend)
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
    except ConfigError as exc:
        _say(f"usage error: config {getattr(args, 'config', None)}: {exc}")
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
