"""End-to-end checks of the command-line pipelines.

Commands run in-process through cli.main so exit codes and stdout/stderr
can be asserted cheaply; subprocess tests cover the module entry point and
what the commands import.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from arrayvad import autodiff as ad
from arrayvad import cli
from arrayvad.arraysim import SceneSpec
from arrayvad.autodiff import no_grad
from arrayvad.checkpoint import (load_model, read_checkpoint, save_model,
                                 write_checkpoint)
from arrayvad.cli import main
from arrayvad.errors import NumericError
from arrayvad.frontends import make_frontend
from arrayvad.segeval import parse_rttm
from arrayvad.seqmodel import TcnConfig, tcn_init
from arrayvad.signal_io import MultichannelSignal, read_wav, write_wav


def read_features(path):
    """features.csv as (values without the frame column, column names)."""
    header = path.read_text().split("\n", 1)[0].split(",")
    assert header[0] == "frame"
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(table[:, 0], np.arange(len(table)))
    return table[:, 1:], header[1:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def scene_config(workdir):
    cfg = {
        "geometry": {"n_mics": 4, "radius": 0.05},
        "duration_s": 3.0,
        "sources": [
            {"azimuth": 0.8, "onset": 0.3, "duration": 1.6, "tag": "ar2",
             "level_db": -20.0},
            {"azimuth": 2.4, "onset": 1.2, "duration": 1.5, "tag": "bandnoise",
             "level_db": -20.0},
        ],
        "noise": "white",
        "snr_db": 20.0,
        "sample_rate": 16000,
        "seed": 5,
    }
    path = workdir / "scene.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def scene_out(scene_config, workdir):
    out = workdir / "scene"
    assert main(["simulate", "--config", str(scene_config),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def scene8_out(workdir):
    """Eight-microphone single-source scene for srp and maskeval."""
    cfg = {
        "geometry": {"n_mics": 8, "radius": 0.1},
        "duration_s": 1.5,
        "sources": [
            {"azimuth": float(np.deg2rad(50.0)), "onset": 0.1, "duration": 1.3,
             "tag": "bandnoise", "level_db": -20.0},
        ],
        "noise": "white",
        "snr_db": 20.0,
        "seed": 2,
    }
    path = workdir / "scene8.json"
    path.write_text(json.dumps(cfg))
    out = workdir / "scene8"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def untrained_ckpt(workdir):
    frontend = make_frontend({"kind": "sacc", "attn_dim": 4, "seed": 3})
    model = tcn_init(TcnConfig(input_dim=64, bottleneck=8, hidden=8,
                               layers_per_block=2, blocks=1), seed=4)
    path = workdir / "untrained.ckpt"
    save_model(path, frontend, model)
    return path


@pytest.fixture(scope="module")
def train_config(workdir):
    cfg = {
        "frontend": {"kind": "sacc", "attn_dim": 4, "seed": 3},
        "model": {"bottleneck": 8, "hidden": 8, "layers_per_block": 2,
                  "blocks": 1, "seed": 4},
        "train": {"batch_size": 2, "steps_per_epoch": 2, "max_epochs": 1,
                  "patience": 1, "segment_s": 0.64, "seed": 5},
        "data": {
            "template": {
                "geometry": {"n_mics": 4, "radius": 0.05},
                "duration_s": 0.64,
                "noise": "white",
                "snr_db": 15.0,
            },
            "n_train": 3,
            "n_val": 2,
            "seed": 1,
        },
    }
    path = workdir / "train.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def trained_out(train_config, workdir):
    out = workdir / "trained"
    assert main(["train", "--config", str(train_config),
                 "--out", str(out)]) == 0
    return out


# -- scoring ------------------------------------------------------------------


def test_score_identity_is_perfect(scene_out, capsys):
    rttm = str(scene_out / "scene.rttm")
    assert main(["score", "--ref", rttm, "--hyp", rttm]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["osd"]["f1"] == 100.0
    assert metrics["vad"]["ser"] == 0.0
    assert metrics["vad"]["false_alarm"] == 0.0
    assert metrics["vad"]["miss"] == 0.0


def test_score_writes_metrics_file(scene_out, workdir, capsys):
    rttm = str(scene_out / "scene.rttm")
    out = workdir / "scored"
    assert main(["score", "--ref", rttm, "--hyp", rttm,
                 "--out", str(out)]) == 0
    on_disk = json.loads((out / "metrics.json").read_text())
    assert on_disk == json.loads(capsys.readouterr().out)


# -- simulate -----------------------------------------------------------------


def test_simulate_outputs(scene_out):
    assert (scene_out / "scene.wav").exists()
    segs = parse_rttm(scene_out / "scene.rttm")
    assert len(segs.segments) == 2
    echo = json.loads((scene_out / "scene.json").read_text())
    assert echo["duration_s"] == 3.0


def test_simulate_rerun_is_byte_identical(scene_config, scene_out, workdir):
    out2 = workdir / "scene_again"
    assert main(["simulate", "--config", str(scene_config),
                 "--out", str(out2)]) == 0
    assert (out2 / "scene.wav").read_bytes() == \
        (scene_out / "scene.wav").read_bytes()
    assert (out2 / "scene.rttm").read_bytes() == \
        (scene_out / "scene.rttm").read_bytes()


def test_simulate_seed_override_changes_audio(scene_config, scene_out, workdir):
    out2 = workdir / "scene_seed9"
    assert main(["simulate", "--config", str(scene_config), "--seed", "9",
                 "--out", str(out2)]) == 0
    assert (out2 / "scene.wav").read_bytes() != \
        (scene_out / "scene.wav").read_bytes()
    assert json.loads((out2 / "scene.json").read_text())["seed"] == 9


# -- features -----------------------------------------------------------------


@pytest.mark.parametrize("variant,extra,dim", [
    ("stft", {"n_mels": 32}, 32),
    ("sacc", {"attn_dim": 4}, 64),
    ("analytic", {"attn_dim": 4, "n_filters": 8, "kernel_len": 64}, 16),
])
def test_features_variants(scene_out, workdir, variant, extra, dim):
    cfg_path = workdir / f"feat_{variant}.json"
    cfg_path.write_text(json.dumps({"variant": variant, **extra}))
    out = workdir / f"feat_{variant}"
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(out)]) == 0
    feats, names = read_features(out / "features.csv")
    assert feats.shape[1] == dim
    assert feats.shape[0] > 100
    assert names == [f"bin_{i}" for i in range(dim)]
    assert np.isfinite(feats).all()


def test_features_mvdr_variant(scene_out, workdir):
    cfg_path = workdir / "feat_mvdr.json"
    cfg_path.write_text(json.dumps({
        "variant": "mvdr", "n_mels": 32,
        "geometry": {"n_mics": 4, "radius": 0.05},
    }))
    out = workdir / "feat_mvdr"
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(out)]) == 0
    feats, _ = read_features(out / "features.csv")
    assert feats.shape[1] == 32
    assert np.isfinite(feats).all()


def test_features_from_checkpoint(scene_out, workdir, untrained_ckpt):
    cfg_path = workdir / "feat_ck.json"
    cfg_path.write_text(json.dumps({"variant": "sacc"}))
    out = workdir / "feat_ck"
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(scene_out / "scene.wav"),
                 "--checkpoint", str(untrained_ckpt),
                 "--out", str(out)]) == 0
    feats, _ = read_features(out / "features.csv")
    frontend, _ = load_model(untrained_ckpt)
    with no_grad():
        expected = frontend.features(read_wav(scene_out / "scene.wav")).data
    assert feats.shape[1] == 64
    assert feats.tobytes() == expected.tobytes()  # %.17g round-trips float64


def test_features_checkpoint_variant_mismatch(scene_out, workdir,
                                              untrained_ckpt):
    cfg_path = workdir / "feat_bad.json"
    cfg_path.write_text(json.dumps({"variant": "icsacc"}))
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(scene_out / "scene.wav"),
                 "--checkpoint", str(untrained_ckpt),
                 "--out", str(workdir / "feat_bad")]) == 2


def test_features_from_checkpoint_takes_the_variant_alone(
        scene_out, workdir, untrained_ckpt, capsys):
    # The checkpoint's config sets the frontend; a key beside the variant
    # would be ignored, so it is refused.
    cfg_path = workdir / "feat_ck_extra.json"
    cfg_path.write_text(json.dumps({"variant": "sacc", "attn_dim": 4}))
    capsys.readouterr()
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(scene_out / "scene.wav"),
                 "--checkpoint", str(untrained_ckpt),
                 "--out", str(workdir / "feat_ck_extra")]) == 1
    assert "attn_dim" in capsys.readouterr().err


# -- train / infer ------------------------------------------------------------


def test_train_outputs(trained_out):
    assert (trained_out / "model.ckpt").exists()
    metrics = json.loads((trained_out / "metrics.json").read_text())
    assert metrics["epochs_run"] == 1
    assert "best_val_osd_f1" in metrics
    log_lines = (trained_out / "train_log.ndjson").read_text().splitlines()
    assert len(log_lines) == 3  # 2 step records + 1 epoch record
    assert all("timestamp" not in line for line in log_lines)


def test_train_rerun_is_byte_identical(train_config, trained_out, workdir):
    out2 = workdir / "trained_again"
    assert main(["train", "--config", str(train_config),
                 "--out", str(out2)]) == 0
    for name in ("model.ckpt", "train_log.ndjson", "metrics.json"):
        assert (out2 / name).read_bytes() == \
            (trained_out / name).read_bytes(), name


def test_infer_writes_rttm(trained_out, scene_out, workdir):
    out = workdir / "inferred"
    code = main(["infer", "--checkpoint", str(trained_out / "model.ckpt"),
                 "--wav", str(scene_out / "scene.wav"), "--out", str(out)])
    assert code == 0
    parse_rttm(out / "hyp.rttm")  # must at least be well formed
    out2 = workdir / "inferred_again"
    assert main(["infer", "--checkpoint", str(trained_out / "model.ckpt"),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(out2)]) == 0
    assert (out / "hyp.rttm").read_bytes() == (out2 / "hyp.rttm").read_bytes()


def test_untrained_pipeline_smoke(scene_out, workdir, untrained_ckpt, capsys):
    out = workdir / "untrained_infer"
    assert main(["infer", "--checkpoint", str(untrained_ckpt),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(out)]) == 0
    assert main(["score", "--ref", str(scene_out / "scene.rttm"),
                 "--hyp", str(out / "hyp.rttm")]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["osd"]["f1"] <= 100.0


# -- beampattern / srp --------------------------------------------------------


def _check_beampattern_csv(ckpt, scene_out, workdir, name):
    cfg_path = workdir / "bp.json"
    cfg_path.write_text(json.dumps({
        "geometry": {"n_mics": 4, "radius": 0.05},
        "freqs": [600.0, 1200.0],
        "n_angles": 72,
    }))
    out = workdir / name
    assert main(["beampattern", "--config", str(cfg_path),
                 "--checkpoint", str(ckpt),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(out)]) == 0
    lines = (out / "beampattern.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,mag_600hz,mag_1200hz"
    assert len(lines) == 73
    values = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert values.shape == (72, 3)
    assert np.isfinite(values).all()


def test_beampattern_csv(trained_out, scene_out, workdir):
    _check_beampattern_csv(trained_out / "model.ckpt", scene_out, workdir, "bp")


@pytest.mark.parametrize("fe_cfg", [
    {"kind": "ecsacc", "attn_dim": 4},
    {"kind": "icsacc", "attn_dim": 4},
    {"kind": "analytic", "attn_dim": 4, "n_filters": 8},
], ids=lambda cfg: cfg["kind"])
def test_beampattern_csv_untrained(fe_cfg, scene_out, workdir):
    """Complex (ecsacc, icsacc) and filterbank (analytic) weights reach
    ``time_avg_beampattern`` through the command."""
    frontend = make_frontend(dict(fe_cfg, seed=3))
    model = tcn_init(TcnConfig(input_dim=frontend.feature_dim, bottleneck=8,
                               hidden=8, layers_per_block=2, blocks=1), seed=4)
    ckpt = workdir / f"untrained_{fe_cfg['kind']}.ckpt"
    save_model(ckpt, frontend, model)
    _check_beampattern_csv(ckpt, scene_out, workdir, f"bp_{fe_cfg['kind']}")


def test_beampattern_rejects_weightless_frontend(scene_out, workdir):
    frontend = make_frontend({
        "kind": "mvdr", "n_mels": 32,
        "geometry": {"n_mics": 4, "radius": 0.05}})
    model = tcn_init(TcnConfig(input_dim=32, bottleneck=4, hidden=4,
                               layers_per_block=1, blocks=1), seed=0)
    ckpt = workdir / "mvdr.ckpt"
    save_model(ckpt, frontend, model)
    cfg_path = workdir / "bp_bad.json"
    cfg_path.write_text(json.dumps({
        "geometry": {"n_mics": 4, "radius": 0.05}, "freqs": [600.0]}))
    assert main(["beampattern", "--config", str(cfg_path),
                 "--checkpoint", str(ckpt),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(workdir / "bp_bad")]) == 2


def test_srp_finds_the_source(scene8_out, workdir, capsys):
    cfg_path = workdir / "srp.json"
    cfg_path.write_text(json.dumps({
        "geometry": {"n_mics": 8, "radius": 0.1}}))
    out = workdir / "srp"
    assert main(["srp", "--config", str(cfg_path),
                 "--wav", str(scene8_out / "scene.wav"),
                 "--out", str(out)]) == 0
    peak = json.loads(capsys.readouterr().out)
    miss = abs(peak["peak_azimuth_deg"] - 50.0)
    assert min(miss, 360.0 - miss) <= 1.5
    lines = (out / "srp.csv").read_text().splitlines()
    assert lines[0] == "azimuth_deg,power"
    assert len(lines) == 361


# -- maskeval -----------------------------------------------------------------


def test_maskeval_row_label(scene8_out, workdir, untrained_ckpt, capsys):
    out = workdir / "mask"
    code = main(["maskeval", "--checkpoint", str(untrained_ckpt),
                 "--wav", str(scene8_out / "scene.wav"),
                 "--ref", str(scene8_out / "scene.rttm"),
                 "--keep", "0,1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert any(line.startswith("C=2") for line in stdout.splitlines())
    rows = json.loads((out / "maskeval.json").read_text())["rows"]
    assert rows[0]["n_channels"] == 2
    assert rows[0]["keep"] == [0, 1]


def test_maskeval_default_keeps_everything(scene8_out, workdir,
                                           untrained_ckpt, capsys):
    code = main(["maskeval", "--checkpoint", str(untrained_ckpt),
                 "--wav", str(scene8_out / "scene.wav"),
                 "--ref", str(scene8_out / "scene.rttm"),
                 "--out", str(workdir / "mask_all")])
    assert code == 0
    assert any(line.startswith("C=8")
               for line in capsys.readouterr().out.splitlines())


# -- exit codes and plumbing --------------------------------------------------


def test_usage_errors(workdir, capsys):
    assert main([]) == 1
    assert main(["not-a-command"]) == 1
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"geometry": {"n_mics": 4, "radius": 0.05},
                               "duration_s": 1.0, "typo_key": 1}))
    assert main(["simulate", "--config", str(bad),
                 "--out", str(workdir / "x")]) == 1
    notjson = workdir / "notjson.json"
    notjson.write_text("{nope")
    assert main(["simulate", "--config", str(notjson),
                 "--out", str(workdir / "x")]) == 1
    capsys.readouterr()  # drop accumulated stderr


def test_negative_seed_is_usage_error(scene_config, workdir):
    assert main(["simulate", "--config", str(scene_config), "--seed", "-3",
                 "--out", str(workdir / "x")]) == 1


def test_data_errors(scene_out, workdir, untrained_ckpt):
    cfg_path = workdir / "feat_sacc2.json"
    cfg_path.write_text(json.dumps({"variant": "sacc", "attn_dim": 4}))
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(workdir / "missing.wav"),
                 "--out", str(workdir / "x")]) == 2
    assert main(["infer", "--checkpoint", str(workdir / "missing.ckpt"),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(workdir / "x")]) == 2
    empty = workdir / "empty.rttm"
    empty.write_text("")
    assert main(["score", "--ref", str(empty), "--hyp", str(empty)]) == 2


def test_infer_rejects_non_utf8_tensor_name(scene_out, workdir,
                                            untrained_ckpt, capsys):
    raw = bytearray(untrained_ckpt.read_bytes())
    raw[32] = 0xFF  # first byte of the first tensor name, after the header
    bad = workdir / "bad_name.ckpt"
    bad.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["infer", "--checkpoint", str(bad),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(workdir / "x")]) == 2
    assert "Traceback" not in capsys.readouterr().err


BAD_CHECKPOINT_CONFIGS = {
    "model-not-a-dict": ("model", lambda c: c.update(model=[8, 8])),
    "unknown-model-key": ("model", lambda c: c["model"].update(width=8)),
    "non-integer-model-field": ("model",
                                lambda c: c["model"].update(hidden="wide")),
    "non-integer-model-seed": ("model_seed",
                               lambda c: c.update(model_seed="four")),
    "non-integer-frontend-field": ("frontend",
                                   lambda c: c["frontend"].update(n_mels="x")),
    "fractional-model-field": ("model",
                               lambda c: c["model"].update(hidden=8.9)),
    "fractional-frontend-field": ("frontend",
                                  lambda c: c["frontend"].update(attn_dim=4.2)),
    "fractional-model-seed": ("model_seed", lambda c: c.update(model_seed=2.7)),
    "frontend-stride": ("frontend",
                        lambda c: c["frontend"].update(stride=160)),
    "model-four-classes": ("model", lambda c: c["model"].update(n_classes=4)),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_CONFIGS))
def test_infer_rejects_bad_checkpoint_config(scene_out, workdir, untrained_ckpt,
                                             capsys, case):
    section, mutate = BAD_CHECKPOINT_CONFIGS[case]
    tensors, config = read_checkpoint(untrained_ckpt)
    mutate(config)
    bad = workdir / f"bad_{case}.ckpt"
    write_checkpoint(bad, tensors, config)
    capsys.readouterr()
    assert main(["infer", "--checkpoint", str(bad),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(workdir / "x")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"checkpoint {section} config" in err


_SCENE_PREFIX = b'{"geometry": {"n_mics": 4, "radius": 0.05}, '

# One row per kind of malformed text: the command that reads the file, its
# bytes, and the documented exit code (1 for a config, 2 for input data).
MALFORMED_TEXT = {
    "rttm-non-utf8-speaker": (
        "score", b"SPEAKER f 1 0.000 1.000 <NA> <NA> Ren\xe9 <NA> <NA>\n", 2),
    "config-non-utf8": (
        "simulate", _SCENE_PREFIX + b'"duration_s": 1.0, "noise": "caf\xe9"}', 1),
    "config-nan": ("simulate", _SCENE_PREFIX + b'"duration_s": NaN}', 1),
    "config-infinity": ("simulate", _SCENE_PREFIX + b'"duration_s": Infinity}', 1),
    "config-minus-infinity": (
        "simulate", _SCENE_PREFIX + b'"duration_s": 1.0, "snr_db": -Infinity}', 1),
    "config-overflowing-number": ("simulate", _SCENE_PREFIX + b'"duration_s": 1e999}', 1),
    "config-overflowing-integer": (
        "simulate", _SCENE_PREFIX + b'"duration_s": 1' + b"0" * 400 + b"}", 1),
    "config-negative-scene-seed": (
        "simulate",
        _SCENE_PREFIX + b'"duration_s": 1.0, "noise": "white", "seed": -1}', 1),
}


def _train_config_with_negative_seed(section):
    """A small train config whose ``section`` seed is -1, as JSON bytes."""
    template = {"geometry": {"n_mics": 4, "radius": 0.05}, "duration_s": 0.64}
    cfg = {"frontend": {"kind": "sacc", "attn_dim": 4},
           "model": {"bottleneck": 4, "hidden": 4, "layers_per_block": 1,
                     "blocks": 1},
           "train": {"batch_size": 1, "steps_per_epoch": 1, "max_epochs": 1,
                     "segment_s": 0.64},
           "data": {"template": template, "n_train": 1, "n_val": 1}}
    if section == "template":
        template["seed"] = -1
    else:
        cfg[section]["seed"] = -1
    return json.dumps(cfg).encode()


for _section in ("frontend", "model", "train", "data", "template"):
    MALFORMED_TEXT[f"config-negative-{_section}-seed"] = (
        "train", _train_config_with_negative_seed(_section), 1)

# The toy data draws every item's sources and seed from ``data.seed``, so a
# template that sets either is refused rather than silently ignored.
for _key, _value in (("seed", 0), ("sources", [])):
    _cfg = json.loads(_train_config_with_negative_seed("data"))
    _cfg["data"]["template"][_key] = _value
    del _cfg["data"]["seed"]
    MALFORMED_TEXT[f"config-template-{_key}"] = (
        "train", json.dumps(_cfg).encode(), 1)


@pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
def test_malformed_text_exits_without_traceback(workdir, capsys, case):
    command, data, code = MALFORMED_TEXT[case]
    path = workdir / f"malformed_{case}"
    path.write_bytes(data)
    if command == "score":
        argv = ["score", "--ref", str(path), "--hyp", str(path)]
    else:
        argv = [command, "--config", str(path), "--out", str(workdir / "x")]
    capsys.readouterr()
    assert main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


_GEOMETRY = {"n_mics": 4, "radius": 0.05}
_SOURCE = {"azimuth": 1.0, "onset": 0.1, "duration": 0.5}
_BASE_CONFIGS = {
    "simulate": {"geometry": _GEOMETRY, "duration_s": 1.0,
                 "sources": [_SOURCE]},
    "features": {"variant": "sacc", "attn_dim": 4},
    "beampattern": {"geometry": _GEOMETRY, "freqs": [600.0]},
    "srp": {"geometry": _GEOMETRY},
    "train": json.loads(_train_config_with_negative_seed("data")),
    "infer": {},
    "maskeval": {},
}
_BASE_CONFIGS["train"]["data"]["seed"] = 1


def _refusal(command, *path, value=None, drop=False):
    """``command``'s base config with the key at ``path`` set to ``value``,
    or removed with ``drop``."""
    cfg = json.loads(json.dumps(_BASE_CONFIGS[command]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return command, cfg


# One row per refusal a config's declaration makes: the command, its config,
# and what the message must hold. Every row exits 1, and each message names
# the key path in the form "(at data/template)".
CONFIG_REFUSALS = {
    "unknown-key-two-levels-deep": (
        _refusal("train", "data", "template", "typo", value=1),
        ("(at data/template)", "typo")),
    "unknown-geometry-key": (
        _refusal("simulate", "geometry", "speed", value=340.0),
        ("(at geometry)", "speed")),
    "string-for-number": (_refusal("train", "train", "lr", value="0.003"),
                          ("(at train/lr)",)),
    "bool-for-number": (_refusal("train", "train", "lr", value=True),
                        ("(at train/lr)",)),
    "string-for-source-number": (
        _refusal("simulate", "sources", 0, "azimuth", value="1"),
        ("(at sources/0/azimuth)",)),
    "string-for-integer": (
        _refusal("train", "train", "batch_size", value="2"),
        ("(at train/batch_size)",)),
    "bool-for-integer": (_refusal("train", "model", "hidden", value=True),
                         ("(at model/hidden)",)),
    "fraction-for-integer": (
        _refusal("train", "train", "batch_size", value=2.5),
        ("(at train/batch_size)",)),
    "fraction-for-frontend-integer": (
        _refusal("train", "frontend", "attn_dim", value=2.5),
        ("(at frontend/attn_dim)",)),
    "number-for-string": (_refusal("infer", "file_id", value=3),
                          ("(at file_id)",)),
    "list-for-section": (_refusal("train", "model", value=[8, 8]),
                         ("(at model)",)),
    "list-for-geometry": (
        _refusal("train", "data", "template", "geometry", value=[4, 0.05]),
        ("(at data/template/geometry)",)),
    "n-mics-0": (_refusal("simulate", "geometry", "n_mics", value=0),
                 ("(at geometry/n_mics)",)),
    "radius-0": (_refusal("simulate", "geometry", "radius", value=0),
                 ("(at geometry/radius)",)),
    "speed-of-sound-0": (
        _refusal("simulate", "geometry", "speed_of_sound", value=0),
        ("(at geometry/speed_of_sound)",)),
    "srp-n-angles-3": (_refusal("srp", "n_angles", value=3),
                       ("(at n_angles)",)),
    "beampattern-n-angles-3": (_refusal("beampattern", "n_angles", value=3),
                               ("(at n_angles)",)),
    "srp-radius-0": (_refusal("srp", "radius", value=0), ("(at radius)",)),
    "beampattern-empty-freqs": (_refusal("beampattern", "freqs", value=[]),
                                ("(at freqs)",)),
    "srp-band-of-1": (_refusal("srp", "band", value=[300.0]),
                      ("(at band)",)),
    "srp-band-of-3": (_refusal("srp", "band", value=[300.0, 600.0, 900.0]),
                      ("(at band)",)),
    "infer-win-s-0": (_refusal("infer", "win_s", value=0), ("(at win_s)",)),
    "infer-hop-s-0": (_refusal("infer", "hop_s", value=0), ("(at hop_s)",)),
    "maskeval-win-s-0": (_refusal("maskeval", "win_s", value=0),
                         ("(at win_s)",)),
    "maskeval-hop-s-0": (_refusal("maskeval", "hop_s", value=0),
                         ("(at hop_s)",)),
    "infer-empty-file-id": (_refusal("infer", "file_id", value=""),
                            ("(at file_id)",)),
    "keep-sets-empty": (_refusal("maskeval", "keep_sets", value=[]),
                        ("(at keep_sets)",)),
    "keep-set-empty": (_refusal("maskeval", "keep_sets", value=[[]]),
                       ("(at keep_sets/0)",)),
    "keep-set-negative-id": (_refusal("maskeval", "keep_sets", value=[[-1]]),
                             ("(at keep_sets/0/0)",)),
    "n-train-0": (_refusal("train", "data", "n_train", value=0),
                  ("(at data/n_train)",)),
    "n-val-0": (_refusal("train", "data", "n_val", value=0),
                ("(at data/n_val)",)),
    "bad-kind": (_refusal("train", "frontend", "kind", value="wavelet"),
                 ("(at frontend/kind)",)),
    "bad-variant": (_refusal("features", "variant", value="wavelet"),
                    ("(at variant)",)),
    "bad-parts": (_refusal("train", "frontend", value={
        "kind": "ecsacc", "attn_dim": 4, "parts": "polar"}),
        ("(at frontend/parts)",)),
}

# Each required key missing, in turn: nested ones are named with the path of
# the object that lacks them.
for _command, _path in (
        ("simulate", ("geometry",)), ("simulate", ("duration_s",)),
        ("simulate", ("geometry", "n_mics")),
        ("simulate", ("geometry", "radius")),
        ("simulate", ("sources", 0, "azimuth")),
        ("simulate", ("sources", 0, "onset")),
        ("simulate", ("sources", 0, "duration")),
        ("features", ("variant",)), ("beampattern", ("geometry",)),
        ("beampattern", ("freqs",)), ("srp", ("geometry",)),
        ("train", ("frontend",)), ("train", ("data",)),
        ("train", ("frontend", "kind")), ("train", ("data", "template")),
        ("train", ("data", "n_train")), ("train", ("data", "n_val")),
        ("train", ("data", "template", "geometry")),
        ("train", ("data", "template", "duration_s"))):
    _where = "/".join(str(key) for key in _path[:-1])
    CONFIG_REFUSALS[f"missing-{_command}-{'-'.join(map(str, _path))}"] = (
        _refusal(_command, *_path, drop=True),
        (f"(at {_where})",) * bool(_where) + (repr(_path[-1]),))


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_config_refusals_exit_1_naming_the_key_path(
        scene_out, workdir, untrained_ckpt, capsys, case):
    (command, cfg), needles = CONFIG_REFUSALS[case]
    d = workdir / f"refusal_{case}"
    d.mkdir()
    argv = [command, "--config", _write(d / "config.json", json.dumps(cfg)),
            "--out", str(d / "out")]
    if command != "simulate" and command != "train":
        argv += ["--wav", str(scene_out / "scene.wav")]
    if command in ("beampattern", "infer", "maskeval"):
        argv += ["--checkpoint", str(untrained_ckpt)]
    if command == "maskeval":
        argv += ["--ref", str(scene_out / "scene.rttm")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, (needle, err)


def test_truncated_wav_exits_2_without_traceback(scene_out, workdir,
                                                 untrained_ckpt, capsys):
    raw = (scene_out / "scene.wav").read_bytes()
    n_channels = read_wav(scene_out / "scene.wav").n_channels
    data_start = raw.index(b"data") + 8
    cut = workdir / "truncated.wav"
    cut.write_bytes(raw[:data_start + 20000 * 2 * n_channels])
    capsys.readouterr()
    assert main(["infer", "--checkpoint", str(untrained_ckpt),
                 "--wav", str(cut), "--out", str(workdir / "truncated")]) == 2
    err = capsys.readouterr().err
    assert "truncated" in err and "Traceback" not in err
    assert not (workdir / "truncated" / "hyp.rttm").exists()


def _write(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(path)


def _rttm(onset, duration):
    return f"SPEAKER f 1 {onset} {duration} <NA> <NA> a <NA> <NA>\n"


def _mutated_ckpt(ckpt, path, mutate):
    tensors, config = read_checkpoint(ckpt)
    mutate(tensors, config)
    write_checkpoint(path, tensors, config)
    return str(path)


def _score_argv(rttm):
    return lambda d, wav, ckpt: [
        "score", "--ref", _write(d / "ref.rttm", rttm),
        "--hyp", _write(d / "hyp.rttm", rttm)]


def _features_argv(cfg):
    return lambda d, wav, ckpt: [
        "features", "--config", _write(d / "features.json", json.dumps(cfg)),
        "--wav", wav, "--out", str(d / "out")]


def _infer_argv(mutate):
    return lambda d, wav, ckpt: [
        "infer", "--checkpoint", _mutated_ckpt(ckpt, d / "model.ckpt", mutate),
        "--wav", wav, "--out", str(d / "out")]


def _train_argv(frontend, train=None, invariant=None, **model):
    template = {"geometry": {"n_mics": 4, "radius": 0.05}, "duration_s": 0.64}
    cfg = {"frontend": frontend,
           "model": {"bottleneck": 4, "hidden": 4, "layers_per_block": 1,
                     "blocks": 1, **model},
           "train": {"batch_size": 1, "steps_per_epoch": 1, "max_epochs": 1,
                     "segment_s": 0.64, **(train or {})},
           "data": {"template": template, "n_train": 1, "n_val": 1}}
    if invariant is not None:
        cfg["invariant"] = invariant
    return lambda d, wav, ckpt: [
        "train", "--config", _write(d / "train.json", json.dumps(cfg)),
        "--out", str(d / "out")]


def _mvdr_argv(command, n_mics, keep=None):
    """``infer`` or ``maskeval`` (every channel kept, or ``--keep keep``)
    with an mvdr checkpoint whose geometry has ``n_mics`` microphones, on the
    4-channel scene."""
    def build(d, wav, ckpt):
        frontend = make_frontend({"kind": "mvdr", "n_mels": 16, "geometry": {
            "n_mics": n_mics, "radius": 0.05}})
        model = tcn_init(TcnConfig(input_dim=16, bottleneck=4, hidden=4,
                                   layers_per_block=1, blocks=1), seed=0)
        save_model(d / "mvdr.ckpt", frontend, model)
        argv = [command, "--checkpoint", str(d / "mvdr.ckpt"), "--wav", wav,
                "--out", str(d / "out")]
        if command == "maskeval":
            argv += ["--ref", _write(d / "ref.rttm", _rttm(0.0, 0.5))]
        if keep is not None:
            argv += ["--keep", keep]
        return argv
    return build


def _mvdr_geometry_argv(**geometry):
    """``infer`` with a 4-mic mvdr checkpoint whose geometry config holds
    ``geometry``'s values."""
    def build(d, wav, ckpt):
        argv = _mvdr_argv("infer", 4)(d, wav, ckpt)
        tensors, config = read_checkpoint(d / "mvdr.ckpt")
        config["frontend"]["geometry"].update(geometry)
        write_checkpoint(d / "mvdr.ckpt", tensors, config)
        return argv
    return build


def _window_argv(command, **window):
    """``infer`` or ``maskeval`` of the scene with a config of ``window``."""
    def build(d, wav, ckpt):
        argv = [command, "--checkpoint", ckpt, "--wav", wav, "--config",
                _write(d / "window.json", json.dumps(window)),
                "--out", str(d / "out")]
        if command == "maskeval":
            argv += ["--ref", _write(d / "ref.rttm", _rttm(0.0, 0.5))]
        return argv
    return build


def _empty_wav_argv(command):
    """``infer`` or ``maskeval`` of a 4-channel WAV of no sample frames."""
    def build(d, wav, ckpt):
        write_wav(MultichannelSignal(np.zeros((4, 0)), 16000), d / "empty.wav")
        return _window_argv(command)(d, str(d / "empty.wav"), ckpt)
    return build


def _angles_argv(command, n_angles):
    """``srp`` or ``beampattern`` of the 4-mic scene at ``n_angles``."""
    def build(d, wav, ckpt):
        cfg = {"geometry": {"n_mics": 4, "radius": 0.05}, "n_angles": n_angles}
        argv = [command, "--wav", wav, "--out", str(d / "out")]
        if command == "beampattern":
            cfg["freqs"] = [600.0]
            argv += ["--checkpoint", ckpt]
        return argv + ["--config", _write(d / "angles.json", json.dumps(cfg))]
    return build


def _misshapen_model_tensor(tensors, config):
    name = next(n for n in sorted(tensors) if n.startswith("model/"))
    tensors[name] = np.zeros(tensors[name].shape + (1,))


def _nan_model_tensor(tensors, config):
    name = next(n for n in sorted(tensors) if n.startswith("model/"))
    tensors[name][...] = np.nan


def _nan_float_wav_argv(d, wav, ckpt):
    """``infer`` on the scene as a float32 WAV with one NaN sample."""
    samples = read_wav(wav).samples.T.astype(np.float32)
    samples[1000, 2] = np.nan
    wavfile.write(d / "nan.wav", 16000, samples)
    return ["infer", "--checkpoint", ckpt, "--wav", str(d / "nan.wav"),
            "--out", str(d / "out")]


def _huge_scene_argv(d, wav, ckpt):
    """``simulate`` of a one-second scene with a billion microphones."""
    cfg = {"geometry": {"n_mics": 1000000000, "radius": 0.05},
           "duration_s": 1.0}
    return ["simulate", "--config", _write(d / "scene.json", json.dumps(cfg)),
            "--out", str(d / "out")]


_HUGE_KERNEL = {"kind": "analytic", "kernel_len": 100000, "attn_dim": 4,
                "sample_rate": 16000}

_HUGE_BATCH = _train_argv({"kind": "sacc", "attn_dim": 4},
                          train={"batch_size": 10 ** 12})
_HUGE_P = _train_argv({"kind": "sacc", "attn_dim": 4},
                      invariant={"p": 10 ** 15})

# One row per failure class: the argv a row builds from (its own directory,
# the scene WAV, a small sacc checkpoint) and the documented exit code, 1 for
# usage, 2 for data and formats, 3 for numeric failures; 0 for input that
# once ended in a traceback and now runs. A third item is a phrase the
# message must hold.
FAILURE_CLASSES = {
    "ok-infer-huge-hop": (_window_argv("infer", hop_s=1e305), 0),
    "ok-infer-huge-win": (_window_argv("infer", win_s=1e305), 0),
    "data-srp-huge-n-angles": (_angles_argv("srp", 10 ** 15), 2),
    "data-beampattern-huge-n-angles": (_angles_argv("beampattern", 10 ** 15),
                                       2),
    "data-infer-wav-without-samples": (_empty_wav_argv("infer"), 2),
    "data-maskeval-wav-without-samples": (_empty_wav_argv("maskeval"), 2),
    "usage-unknown-command": (lambda d, wav, ckpt: ["not-a-command"], 1),
    "usage-unknown-config-key": (
        _features_argv({"variant": "sacc", "x": 1}), 1),
    "data-missing-wav": (lambda d, wav, ckpt: [
        "infer", "--checkpoint", ckpt, "--wav", str(d / "missing.wav"),
        "--out", str(d / "out")], 2),
    "data-float-wav-nan-sample": (_nan_float_wav_argv, 2),
    "data-simulate-huge-scene": (_huge_scene_argv, 2),
    "data-rttm-bad-field": (_score_argv(_rttm("zero", 1.0)), 2),
    "data-rttm-day-long-span": (_score_argv(_rttm(0.0, 1e12)), 2),
    "data-rttm-overflowing-end": (_score_argv(_rttm(1e308, 1e308)), 2),
    "data-rttm-negative-span": (_score_argv(_rttm(-5.0, 1.0)), 2),
    "data-features-huge-analytic-kernel": (
        _features_argv({"variant": "analytic", "kernel_len": 100000}), 2),
    "data-train-huge-analytic-kernel": (_train_argv(_HUGE_KERNEL), 2),
    "data-checkpoint-huge-analytic-kernel": (_infer_argv(
        lambda t, c: c.update(frontend=_HUGE_KERNEL)), 2),
    "data-features-huge-attn-dim": (
        _features_argv({"variant": "sacc", "attn_dim": 1000000000}), 2),
    "data-features-huge-n-mels": (
        _features_argv({"variant": "ecsacc", "n_mels": 1000000000}), 2),
    "data-features-huge-n-filters": (
        _features_argv({"variant": "analytic", "n_filters": 1000000000}), 2),
    "data-train-huge-tcn-hidden": (_train_argv(
        {"kind": "sacc", "attn_dim": 4}, hidden=1000000000), 2),
    "data-train-huge-tcn-dilation": (_train_argv(
        {"kind": "sacc", "attn_dim": 4}, layers_per_block=200), 2),
    "data-train-huge-batch-size": (_HUGE_BATCH, 2),
    "data-train-huge-duplicate-count": (_HUGE_P, 2),
    "data-checkpoint-huge-attn-dim": (_infer_argv(
        lambda t, c: c["frontend"].update(attn_dim=1000000000)), 2),
    "data-checkpoint-huge-tcn-blocks": (_infer_argv(
        lambda t, c: c["model"].update(blocks=1000000000)), 2),
    "data-checkpoint-unknown-tensor": (_infer_argv(
        lambda t, c: t.update({"frontend/bz": np.zeros(4)})), 2),
    "data-checkpoint-wrong-shape-tensor": (
        _infer_argv(_misshapen_model_tensor), 2),
    "data-mvdr-geometry-fewer-mics": (_mvdr_argv("infer", 3), 2),
    "data-mvdr-geometry-more-mics": (_mvdr_argv("infer", 5), 2),
    "data-mvdr-geometry-huge-mics": (_mvdr_argv("infer", 10 ** 12), 2),
    "data-mvdr-maskeval-geometry-fewer-mics": (_mvdr_argv("maskeval", 3), 2),
    "data-mvdr-maskeval-geometry-more-mics": (_mvdr_argv("maskeval", 5), 2),
    "data-mvdr-maskeval-one-mic-keep": (_mvdr_argv("maskeval", 4, keep="2"),
                                        2),
    "numeric-nan-model-weights": (_infer_argv(_nan_model_tensor), 3),
    # An embedded config's numbers follow the rule of a --config file's.
    "data-mvdr-geometry-string-radius": (_mvdr_geometry_argv(radius="0.05"),
                                         2, "checkpoint frontend config"),
    "data-mvdr-geometry-bool-radius": (_mvdr_geometry_argv(radius=True), 2,
                                       "checkpoint frontend config"),
    "data-mvdr-geometry-nan-radius": (_mvdr_geometry_argv(radius=np.nan), 2,
                                      "checkpoint frontend config"),
    "data-mvdr-geometry-infinite-speed": (
        _mvdr_geometry_argv(speed_of_sound=np.inf), 2,
        "checkpoint frontend config"),
}


@pytest.mark.parametrize("case", sorted(FAILURE_CLASSES))
def test_failure_classes_map_to_exit_codes_without_traceback(
        scene_out, workdir, untrained_ckpt, capsys, case):
    build, code, *phrase = FAILURE_CLASSES[case]
    d = workdir / f"failure_{case}"
    d.mkdir()
    argv = build(d, str(scene_out / "scene.wav"), str(untrained_ckpt))
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert all(p in err for p in phrase), err


@pytest.mark.parametrize("build, field", [(_HUGE_BATCH, "batch_size"),
                                          (_HUGE_P, "invariant p")],
                         ids=["batch_size", "p"])
def test_absurd_train_sizes_name_their_field(workdir, capsys, build, field):
    d = workdir / f"absurd_{field.replace(' ', '_')}"
    d.mkdir()
    capsys.readouterr()
    assert main(build(d, None, None)) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (d / "out" / "model.ckpt").exists()


def test_a_diverging_batch_item_exits_3_naming_step_and_item(
        workdir, capsys, monkeypatch):
    real_grad = ad.grad
    calls = []

    def failing_grad(loss, params):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("injected failure")
        return real_grad(loss, params)

    monkeypatch.setattr(ad, "grad", failing_grad)
    d = workdir / "diverging_item"
    d.mkdir()
    build = _train_argv({"kind": "sacc", "attn_dim": 4},
                        train={"batch_size": 2})
    capsys.readouterr()
    assert main(build(d, None, None)) == 3
    err = capsys.readouterr().err
    assert "step 0, batch item 1 of 2: injected failure" in err
    assert "Traceback" not in err
    assert not (d / "out" / "model.ckpt").exists()


@pytest.mark.parametrize("command, output", [("srp", "srp.csv"),
                                             ("beampattern", "beampattern.csv")])
def test_n_angles_is_bounded_named_and_taken_whole(
        scene_out, workdir, untrained_ckpt, capsys, command, output):
    d = workdir / f"angles_{command}"
    d.mkdir()
    wav, ckpt = str(scene_out / "scene.wav"), str(untrained_ckpt)
    capsys.readouterr()
    assert main(_angles_argv(command, 10 ** 15)(d, wav, ckpt)) == 2
    err = capsys.readouterr().err
    assert "n_angles" in err and "Traceback" not in err
    csvs = []
    for n_angles in (36, 36.0):
        run = d / str(n_angles)
        run.mkdir()
        assert main(_angles_argv(command, n_angles)(run, wav, ckpt)) == 0
        csvs.append((run / "out" / output).read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("command", ["infer", "maskeval"])
def test_wav_without_samples_is_named_in_the_error(workdir, untrained_ckpt,
                                                   capsys, command):
    d = workdir / f"empty_{command}"
    d.mkdir()
    argv = _empty_wav_argv(command)(d, None, str(untrained_ckpt))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(d / "empty.wav") in err and "duration_s" not in err


@pytest.mark.parametrize("command, output", [("infer", "hyp.rttm"),
                                             ("maskeval", "maskeval.json")])
@pytest.mark.parametrize("key", ["win_s", "hop_s"])
def test_window_or_hop_past_the_recording_runs_as_its_length(
        scene_out, workdir, untrained_ckpt, capsys, command, output, key):
    outputs = []
    for value in (1e305, 3.0):  # the scene is 3 s long
        d = workdir / f"long_{command}_{key}_{value}"
        d.mkdir()
        argv = _window_argv(command, **{key: value})(
            d, str(scene_out / "scene.wav"), str(untrained_ckpt))
        assert main(argv) == 0
        outputs.append((d / "out" / output).read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("key", ["radius", "n_mics"])
def test_mvdr_checkpoint_geometry_without_a_required_key_is_refused(
        scene_out, workdir, capsys, key):
    d = workdir / f"mvdr_without_{key}"
    d.mkdir()
    argv = _mvdr_argv("infer", 4)(d, str(scene_out / "scene.wav"), None)
    tensors, config = read_checkpoint(d / "mvdr.ckpt")
    del config["frontend"]["geometry"][key]
    write_checkpoint(d / "mvdr.ckpt", tensors, config)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "checkpoint frontend config" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("segment_s, invariant", [
    (1e307, None), (1e307, {"p": 2, "lambda": 0.5}),
    (1e306, {"p": 2, "lambda": 0.5})], ids=["1e307", "1e307-inv", "1e306-inv"])
def test_segment_s_past_the_items_trains_as_their_length(workdir, segment_s,
                                                         invariant):
    # The toy items are 0.64 s long; a longer segment takes them whole.
    logs = []
    for value in (segment_s, 0.64):
        d = workdir / f"segment_{segment_s}_{invariant is None}_{value}"
        d.mkdir()
        build = _train_argv({"kind": "sacc", "attn_dim": 4},
                            train={"segment_s": value}, invariant=invariant)
        assert main(build(d, None, None)) == 0
        logs.append((d / "out" / "train_log.ndjson").read_bytes())
    assert logs[0] == logs[1]


def test_checkpoint_naming_three_classes_still_loads(scene_out, workdir,
                                                     untrained_ckpt):
    # Checkpoints written while the class count was a model field carry it.
    tensors, config = read_checkpoint(untrained_ckpt)
    assert "n_classes" not in config["model"]
    config["model"]["n_classes"] = 3
    legacy = workdir / "legacy.ckpt"
    write_checkpoint(legacy, tensors, config)
    for name, ckpt in (("current", untrained_ckpt), ("legacy", legacy)):
        assert main(["infer", "--checkpoint", str(ckpt),
                     "--wav", str(scene_out / "scene.wav"),
                     "--out", str(workdir / f"classes_{name}")]) == 0
    assert (workdir / "classes_legacy" / "hyp.rttm").read_bytes() == \
        (workdir / "classes_current" / "hyp.rttm").read_bytes()


def test_train_config_naming_stride_is_usage_error(train_config, workdir,
                                                   capsys):
    cfg = json.loads(train_config.read_text())
    cfg["frontend"] = {"kind": "analytic", "attn_dim": 4, "stride": 160}
    path = workdir / "train_stride.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(path),
                 "--out", str(workdir / "x")]) == 1
    assert "stride" in capsys.readouterr().err


def test_train_config_naming_n_classes_is_usage_error(train_config, workdir,
                                                      capsys):
    cfg = json.loads(train_config.read_text())
    cfg["model"]["n_classes"] = 3
    path = workdir / "train_n_classes.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(path),
                 "--out", str(workdir / "x")]) == 1
    assert "n_classes" in capsys.readouterr().err


def test_train_config_with_whole_float_model_field_trains(
        train_config, trained_out, workdir):
    # JSON writers may emit 8.0 for 8, so an integer field takes it; the
    # model is built as from 8.
    cfg = json.loads(train_config.read_text())
    cfg["model"]["hidden"] = 8.0
    cfg["model"]["seed"] = 4.0
    path = workdir / "train_float_hidden.json"
    path.write_text(json.dumps(cfg))
    out = workdir / "trained_float_hidden"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "model.ckpt").read_bytes() == \
        (trained_out / "model.ckpt").read_bytes()


def test_train_mvdr_trains_the_model_and_refuses_the_invariance_term(
        train_config, workdir, capsys):
    # The fixed beamformer trains the TCN on its features; the invariance
    # term needs per-channel weights to mask, which mvdr does not have.
    cfg = json.loads(train_config.read_text())
    cfg["frontend"] = {"kind": "mvdr", "n_mels": 16,
                       "geometry": {"n_mics": 4, "radius": 0.05}}
    cfg["train"].update(batch_size=1, steps_per_epoch=1)
    path = workdir / "train_mvdr.json"
    path.write_text(json.dumps(cfg))
    out = workdir / "trained_mvdr"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    frontend, _ = load_model(out / "model.ckpt")
    assert frontend.kind == "mvdr"

    cfg["invariant"] = {"p": 2, "lambda": 0.5}
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(path),
                 "--out", str(workdir / "trained_mvdr_inv")]) == 2
    err = capsys.readouterr().err
    assert "mvdr" in err and "Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"

# What each command checks its --config with before it reads any other file.
CONFIG_READERS = {
    "simulate": SceneSpec.from_dict,
    "features": cli._features_config,
    "beampattern": cli._beampattern_config,
    "srp": cli._srp_config,
    "train": cli._train_setup,
    "infer": cli._infer_config,
    "maskeval": cli._maskeval_config,
}


def test_readme_configs_pass_their_commands_checks(tmp_path):
    text = README.read_text(encoding="utf-8")
    configs = dict(re.findall(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n",
                              text, flags=re.S))
    configs.update((name, body) for body, name in
                   re.findall(r"^echo '(.*)' > (\S+\.json)$", text, flags=re.M))
    readers = dict((name, command) for command, name in
                   re.findall(r"arrayvad (\w+) [^\n]*--config (\S+\.json)", text))
    assert len(configs) >= 8
    assert set(configs) == set(readers)
    for name, body in configs.items():
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        CONFIG_READERS[readers[name]](cli._load_config(path))


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    capsys.readouterr()


_MODULES_AFTER_COMMANDS = """\
import json, sys
import arrayvad.arraysim, arrayvad.cli, arrayvad.trainer
codes = [arrayvad.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] in sys.argv[2:])]))
"""


def test_commands_import_no_scipy(scene_config, workdir, untrained_ckpt):
    # simulate renders an AR(2) source and writes PCM16; infer reads the
    # WAV back. Neither, nor importing the trainer, may load scipy, and no
    # command loads jsonschema: configs are checked against the dataclasses.
    out = workdir / "no_scipy"
    argvs = [["simulate", "--config", str(scene_config), "--out", str(out)],
             ["infer", "--checkpoint", str(untrained_ckpt),
              "--wav", str(out / "scene.wav"), "--out", str(out)]]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_COMMANDS, json.dumps(argvs),
         "scipy", "jsonschema"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], []]


def test_module_entry_point(scene_out):
    rttm = str(scene_out / "scene.rttm")
    proc = subprocess.run(
        [sys.executable, "-m", "arrayvad.cli", "score",
         "--ref", rttm, "--hyp", rttm],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vad"]["ser"] == 0.0
