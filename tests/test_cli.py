"""End-to-end checks of the command-line pipelines.

Commands run in-process through cli.main so exit codes and stdout/stderr
can be asserted cheaply; one subprocess test covers the module entry point.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from arrayvad.checkpoint import save_model
from arrayvad.cli import main
from arrayvad.frontends import make_frontend
from arrayvad.segeval import parse_rttm
from arrayvad.seqmodel import TcnConfig, tcn_init
from arrayvad.spectral import read_features_csv


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
                "seed": 0,
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
    ("analytic", {"attn_dim": 4, "n_filters": 8, "kernel_len": 64,
                  "stride": 160}, 16),
])
def test_features_variants(scene_out, workdir, variant, extra, dim):
    cfg_path = workdir / f"feat_{variant}.json"
    cfg_path.write_text(json.dumps({"variant": variant, **extra}))
    out = workdir / f"feat_{variant}"
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(scene_out / "scene.wav"),
                 "--out", str(out)]) == 0
    feats, names = read_features_csv(out / "features.csv")
    assert feats.shape[1] == dim
    assert feats.shape[0] > 100
    assert len(names) == dim
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
    feats, _ = read_features_csv(out / "features.csv")
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
    feats, _ = read_features_csv(out / "features.csv")
    assert feats.shape[1] == 64


def test_features_checkpoint_variant_mismatch(scene_out, workdir,
                                              untrained_ckpt):
    cfg_path = workdir / "feat_bad.json"
    cfg_path.write_text(json.dumps({"variant": "icsacc"}))
    assert main(["features", "--config", str(cfg_path),
                 "--wav", str(scene_out / "scene.wav"),
                 "--checkpoint", str(untrained_ckpt),
                 "--out", str(workdir / "feat_bad")]) == 2


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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    capsys.readouterr()


def test_module_entry_point(scene_out):
    rttm = str(scene_out / "scene.rttm")
    proc = subprocess.run(
        [sys.executable, "-m", "arrayvad.cli", "score",
         "--ref", rttm, "--hyp", rttm],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vad"]["ser"] == 0.0
