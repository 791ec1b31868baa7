"""Checkpoint container tests: exact round trips, canonical bytes."""

import re
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrayvad.beamform import ArrayGeometry
from arrayvad.checkpoint import (
    load_model,
    named_tensors,
    read_checkpoint,
    save_model,
    write_checkpoint,
)
from arrayvad.errors import ArgumentError, FormatError
from arrayvad.frontends import make_frontend
from arrayvad.seqmodel import TcnConfig, tcn_forward, tcn_init
from arrayvad.signal_io import MultichannelSignal


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "a/w": rng.normal(size=(3, 4)),
        "a/b": rng.normal(size=4),
        "scalarish": np.array(2.5),
        "deep": rng.normal(size=(2, 2, 2)),
    }


def test_roundtrip_preserves_everything(tmp_path):
    path = tmp_path / "t.ckpt"
    tensors = sample_tensors()
    write_checkpoint(path, tensors, config={"note": "x", "k": 3})
    loaded, config = read_checkpoint(path)
    assert config == {"note": "x", "k": 3}
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert loaded[name].tobytes() == np.asarray(arr, dtype=np.float64).tobytes()


def test_write_is_canonical_in_name_order(tmp_path):
    tensors = sample_tensors()
    reversed_order = dict(reversed(list(tensors.items())))
    write_checkpoint(tmp_path / "a.ckpt", tensors, config={"v": 1})
    write_checkpoint(tmp_path / "b.ckpt", reversed_order, config={"v": 1})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_no_config_roundtrip(tmp_path):
    path = tmp_path / "n.ckpt"
    write_checkpoint(path, {"only": np.ones(3)})
    tensors, config = read_checkpoint(path)
    assert config is None
    assert (tensors["only"] == 1.0).all()


def test_bad_inputs_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    with pytest.raises(ArgumentError):
        write_checkpoint(path, {"": np.ones(2)})
    with pytest.raises(ArgumentError):
        write_checkpoint(path, {"meta/config_utf8": np.ones(2)})


def test_corrupt_files_raise_format_error(tmp_path):
    path = tmp_path / "c.ckpt"
    write_checkpoint(path, sample_tensors(), config={"v": 1})
    raw = path.read_bytes()

    short = tmp_path / "short.ckpt"
    short.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        read_checkpoint(short)

    wrong = tmp_path / "magic.ckpt"
    wrong.write_bytes(b"\x00" * 8 + raw[8:])
    with pytest.raises(FormatError):
        read_checkpoint(wrong)

    empty = tmp_path / "empty.ckpt"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        read_checkpoint(empty)

    # header (magic "AVCK", version 1, one tensor), then its table entry
    header = struct.pack("<3Q", 0x4156434B, 1, 1)
    not_utf8 = tmp_path / "name.ckpt"
    not_utf8.write_bytes(header + struct.pack("<Q", 1) + b"\xff"
                         + struct.pack("<3Q", 1, 1, 57) + bytes(8))
    with pytest.raises(FormatError):
        read_checkpoint(not_utf8)

    too_big = tmp_path / "dims.ckpt"  # zero items, but no such array
    too_big.write_bytes(header + struct.pack("<Q", 1) + b"a"
                        + struct.pack("<4Q", 2, 0, 2 ** 63, 65))
    with pytest.raises(FormatError):
        read_checkpoint(too_big)


@pytest.mark.parametrize("value", [float("nan"), 313.0, 56.5])
def test_config_values_that_are_not_bytes_raise_format_error(tmp_path, value):
    # 313 would wrap to "9" and 56.5 truncate to "8" under a plain uint8 cast
    path = tmp_path / "meta.ckpt"
    write_checkpoint(path, {}, config={"n_mels": 8})
    raw = path.read_bytes()
    eight = struct.pack("<d", ord("8"))
    assert raw.count(eight) == 1
    path.write_bytes(raw.replace(eight, struct.pack("<d", value)))
    with pytest.raises(FormatError):
        read_checkpoint(path)


def test_model_bundle_roundtrip(tmp_path):
    frontend = make_frontend({"kind": "sacc", "attn_dim": 8, "seed": 5})
    cfg = TcnConfig(input_dim=frontend.feature_dim, bottleneck=8, hidden=8,
                    layers_per_block=2, blocks=1)
    model = tcn_init(cfg, seed=6)
    # drift the weights so the reload cannot pass by re-initializing
    for tensor in model.tensors.values():
        tensor.data += 0.01
    frontend.params["wq"].data += 0.25

    path = tmp_path / "bundle.ckpt"
    save_model(path, frontend, model)
    fe2, model2 = load_model(path)

    rng = np.random.default_rng(1)
    sig = MultichannelSignal(0.1 * rng.normal(size=(2, 8000)), 16000)
    feats = frontend.features(sig)
    logits = tcn_forward(model, feats.data)
    logits2 = tcn_forward(model2, fe2.features(sig).data)
    assert logits.data.tobytes() == logits2.data.tobytes()

    _, config = read_checkpoint(path)
    assert config["model"]["input_dim"] == frontend.feature_dim


def _analytic_bundle(path):
    frontend = make_frontend({"kind": "analytic", "n_filters": 4,
                              "kernel_len": 32, "attn_dim": 4, "seed": 1})
    model = tcn_init(TcnConfig(input_dim=frontend.feature_dim, bottleneck=4,
                               hidden=4, layers_per_block=1, blocks=1), seed=2)
    save_model(path, frontend, model)
    return read_checkpoint(path)


def test_analytic_checkpoint_naming_stride_is_rejected(tmp_path):
    path = tmp_path / "analytic.ckpt"
    tensors, config = _analytic_bundle(path)
    assert "stride" not in config["frontend"]
    config["frontend"]["stride"] = 160
    write_checkpoint(path, tensors, config)
    with pytest.raises(FormatError, match="frontend config"):
        load_model(path)


@pytest.mark.parametrize("name", ["frontend/wz", "frontend/real_ir/old",
                                  "model/extra", "optimizer/m", "frontend/bz",
                                  "frontend/mag/bk", "frontend/real_irbv",
                                  "model/bk"])
def test_unknown_tensor_names_raise_format_error(tmp_path, name):
    path = tmp_path / "analytic.ckpt"
    tensors, config = _analytic_bundle(path)
    load_model(path)
    tensors[name] = np.zeros(3)
    write_checkpoint(path, tensors, config)
    with pytest.raises(FormatError, match=name):
        load_model(path)


@pytest.mark.parametrize("fault", ["missing", "misshapen"])
@pytest.mark.parametrize("side", ["frontend", "model"])
def test_missing_or_misshapen_tensors_are_refused_by_name(tmp_path, side,
                                                          fault):
    path = tmp_path / "analytic.ckpt"
    tensors, config = _analytic_bundle(path)
    name = next(n for n in sorted(tensors) if n.startswith(side + "/"))
    if fault == "missing":
        del tensors[name]
    else:
        tensors[name] = np.zeros(tensors[name].shape + (1,))
    write_checkpoint(path, tensors, config)
    with pytest.raises(FormatError, match=re.escape(name)):
        load_model(path)


_BUNDLE_CONFIGS = {
    "sacc": {"kind": "sacc", "attn_dim": 4},
    "analytic": {"kind": "analytic", "n_filters": 4, "kernel_len": 32,
                 "attn_dim": 4},
    "ecsacc": {"kind": "ecsacc", "attn_dim": 4},
    "icsacc": {"kind": "icsacc", "attn_dim": 4, "parts": "real_imag"},
    "mvdr": {"kind": "mvdr", "n_mels": 8,
             "geometry": {"n_mics": 4, "radius": 0.05}},
}


@pytest.mark.parametrize("kind", sorted(_BUNDLE_CONFIGS))
def test_save_load_save_is_byte_identical(tmp_path, kind):
    frontend = make_frontend(_BUNDLE_CONFIGS[kind], seed=5)
    model = tcn_init(TcnConfig(input_dim=frontend.feature_dim, bottleneck=4,
                               hidden=4, layers_per_block=1, blocks=1), seed=6)
    # drift every weight so the reload cannot pass by re-initializing
    for tensor in named_tensors(frontend, model).values():
        tensor.data += 0.125
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_model(first, frontend, model)
    save_model(second, *load_model(first))
    assert first.read_bytes() == second.read_bytes()


# The embedded frontend config of each _BUNDLE_CONFIGS kind, written out:
# every constructor parameter but the seed, so a key the generic
# Frontend.config() adds or drops shows here.
_EMBEDDED_FRONTEND_CONFIGS = {
    "sacc": {"kind": "sacc", "sample_rate": 16000, "n_mels": 64,
             "attn_dim": 4},
    "analytic": {"kind": "analytic", "sample_rate": 16000, "n_filters": 4,
                 "kernel_len": 32, "attn_dim": 4},
    "ecsacc": {"kind": "ecsacc", "sample_rate": 16000, "n_mels": 64,
               "attn_dim": 4, "parts": "mag_phase"},
    "icsacc": {"kind": "icsacc", "sample_rate": 16000, "n_mels": 64,
               "attn_dim": 4, "parts": "real_imag"},
    "mvdr": {"kind": "mvdr", "sample_rate": 16000, "n_mels": 8,
             "geometry": {"n_mics": 4, "radius": 0.05,
                          "speed_of_sound": 343.0}},
}


@pytest.mark.parametrize("kind", sorted(_BUNDLE_CONFIGS))
def test_embedded_config_is_written_out_in_full(tmp_path, kind):
    frontend = make_frontend(_BUNDLE_CONFIGS[kind], seed=5)
    model = tcn_init(TcnConfig(input_dim=frontend.feature_dim, bottleneck=4,
                               hidden=4, layers_per_block=1, blocks=1), seed=6)
    save_model(tmp_path / "model.ckpt", frontend, model)
    _, config = read_checkpoint(tmp_path / "model.ckpt")
    assert config == {
        "frontend": _EMBEDDED_FRONTEND_CONFIGS[kind],
        "model": {"input_dim": frontend.feature_dim, "bottleneck": 4,
                  "hidden": 4, "layers_per_block": 1, "blocks": 1,
                  "kernel": 3},
        "model_seed": 6,
    }


@pytest.mark.parametrize("kind", ["sacc", "ecsacc", "icsacc"])
def test_legacy_attention_biases_are_dropped(tmp_path, kind):
    # Banks written before the key and value biases went hold zero
    # <prefix>bk and <prefix>bv next to every <prefix>wq.
    frontend = make_frontend({"kind": kind, "attn_dim": 4, "seed": 5})
    model = tcn_init(TcnConfig(input_dim=frontend.feature_dim, bottleneck=4,
                               hidden=4, layers_per_block=1, blocks=1), seed=6)
    path = tmp_path / "current.ckpt"
    save_model(path, frontend, model)
    tensors, config = read_checkpoint(path)
    prefixes = [name[:-2] for name in tensors
                if name.startswith("frontend/") and name.endswith("wq")]
    assert len(prefixes) == (2 if kind == "ecsacc" else 1)
    for prefix in prefixes:
        tensors[prefix + "bk"] = np.zeros(4)
        tensors[prefix + "bv"] = np.zeros(1)
    legacy = tmp_path / "legacy.ckpt"
    write_checkpoint(legacy, tensors, config)

    sig = MultichannelSignal(
        0.1 * np.random.default_rng(7).normal(size=(3, 4000)), 16000)
    feats = [load_model(p)[0].features(sig).data for p in (path, legacy)]
    assert feats[0].tobytes() == feats[1].tobytes()


def test_analytic_checkpoint_with_huge_kernel_is_rejected(tmp_path):
    path = tmp_path / "analytic.ckpt"
    tensors, config = _analytic_bundle(path)
    config["frontend"]["kernel_len"] = 100000
    write_checkpoint(path, tensors, config)
    with pytest.raises(FormatError, match="kernel_len"):
        load_model(path)


@pytest.mark.parametrize("n_classes", [3, 3.0, 4, "3"])
def test_a_model_config_naming_n_classes_loads_only_if_it_is_3(tmp_path,
                                                              n_classes):
    # Files written while the class count was a model field carry it; only
    # the fixed 3 is read.
    path = tmp_path / "analytic.ckpt"
    tensors, config = _analytic_bundle(path)
    expected = TcnConfig(**config["model"])
    config["model"]["n_classes"] = n_classes
    write_checkpoint(path, tensors, config)
    if n_classes == 3:
        assert load_model(path)[1].config == expected
    else:
        with pytest.raises(FormatError, match="model config.*n_classes"):
            load_model(path)


def test_whole_float_config_values_load_as_ints(tmp_path):
    # JSON writers may emit 8.0 for 8, so an integer field takes it.
    path = tmp_path / "analytic.ckpt"
    tensors, config = _analytic_bundle(path)
    config["frontend"]["kernel_len"] = 32.0
    config["model"]["hidden"] = 4.0
    config["model_seed"] = 2.0
    write_checkpoint(path, tensors, config)
    frontend, model = load_model(path)
    assert frontend.kernel_len == 32 and type(frontend.kernel_len) is int
    assert model.config.hidden == 4 and type(model.config.hidden) is int
    assert model.seed == 2 and type(model.seed) is int


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_mics=st.integers(1, 64),
       radius=st.floats(1e-3, 10.0, allow_nan=False),
       speed=st.floats(1.0, 1e4, allow_nan=False))
def test_geometry_survives_dict_and_checkpoint_round_trips(tmp_path, n_mics,
                                                           radius, speed):
    geom = ArrayGeometry(n_mics, radius, speed)
    assert ArrayGeometry.from_dict(asdict(geom)) == geom
    frontend = make_frontend({"kind": "mvdr", "n_mels": 8,
                              "geometry": asdict(geom)})
    model = tcn_init(TcnConfig(input_dim=8, bottleneck=2, hidden=2,
                               layers_per_block=1, blocks=1), seed=0)
    path = tmp_path / "mvdr.ckpt"
    save_model(path, frontend, model)
    loaded, _ = load_model(path)
    assert loaded.geometry == geom
    assert loaded.geometry.mic_angles == geom.mic_angles


def test_load_model_rejects_plain_checkpoint(tmp_path):
    path = tmp_path / "plain.ckpt"
    write_checkpoint(path, {"w": np.ones(2)}, config={"v": 1})
    with pytest.raises(FormatError):
        load_model(path)
