"""Named-tensor checkpoint files shared by every trainable module.

Layout (little-endian, all integers uint64):

    magic, version, n_tensors
    per tensor: name_len, name bytes (utf-8), ndim, dims..., data offset
    float64 data blocks at the recorded offsets, in name order

The file carries only float64 arrays. Structured metadata (frontend and
model configs) rides along as a JSON document encoded byte-per-value in a
reserved ``meta/config_utf8`` tensor, which keeps the container format
single-typed and the metadata still human-recoverable with nothing but
numpy.

Tensors are written sorted by name, so two checkpoints holding equal
arrays are byte-identical regardless of insertion order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from contextlib import contextmanager

import numpy as np

from .errors import (ArgumentError, FormatError, config_int, config_value,
                     loads_config)
from .frontends import Frontend, make_frontend
from .segeval import N_CLASSES
from .seqmodel import ModelParams, TcnConfig, tcn_init

_MAGIC = 0x4156434B  # "AVCK"
_VERSION = 1
_META_NAME = "meta/config_utf8"

_U64 = struct.Struct("<Q")


def _config_to_array(config: dict) -> np.ndarray:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return np.frombuffer(blob, dtype=np.uint8).astype(np.float64)


def _config_from_array(arr: np.ndarray) -> dict:
    data = np.asarray(arr, dtype=np.float64)
    if not (np.isfinite(data).all() and (data == np.floor(data)).all()
            and ((data >= 0) & (data <= 255)).all()):
        raise FormatError("embedded config holds values that are not bytes")
    as_bytes = data.astype(np.uint8).tobytes()
    try:
        return loads_config(as_bytes.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise FormatError(f"embedded config is not valid JSON: {exc}") from exc


def write_checkpoint(path, tensors, config=None):
    """Write name -> array pairs (plus an optional config dict) to ``path``."""
    entries = {}
    for name, arr in tensors.items():
        if not name or not isinstance(name, str):
            raise ArgumentError("tensor names must be non-empty strings")
        if name == _META_NAME:
            raise ArgumentError(f"{_META_NAME!r} is reserved for the config")
        data = np.asarray(arr, dtype=np.float64)
        # ascontiguousarray promotes 0-d to 1-d; restore the true shape
        entries[name] = np.ascontiguousarray(data).reshape(data.shape)
    if len(entries) != len(tensors):
        raise ArgumentError("duplicate tensor names")
    if config is not None:
        entries[_META_NAME] = _config_to_array(config)

    names = sorted(entries)
    toc_size = 3 * 8
    for name in names:
        encoded = name.encode("utf-8")
        toc_size += 8 + len(encoded) + 8 + 8 * entries[name].ndim + 8

    blob = bytearray()
    blob += _U64.pack(_MAGIC) + _U64.pack(_VERSION) + _U64.pack(len(names))
    offset = toc_size
    for name in names:
        encoded = name.encode("utf-8")
        arr = entries[name]
        blob += _U64.pack(len(encoded)) + encoded
        blob += _U64.pack(arr.ndim)
        for dim in arr.shape:
            blob += _U64.pack(dim)
        blob += _U64.pack(offset)
        offset += arr.nbytes
    if len(blob) != toc_size:
        raise FormatError("table of contents size bookkeeping is wrong")
    for name in names:
        blob += entries[name].tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def read_checkpoint(path):
    """Load a checkpoint; returns (tensors dict, config dict or None)."""
    with open(path, "rb") as fh:
        raw = fh.read()

    pos = 0

    def take_u64():
        nonlocal pos
        if pos + 8 > len(raw):
            raise FormatError("checkpoint truncated in header")
        (value,) = _U64.unpack_from(raw, pos)
        pos += 8
        return value

    if len(raw) < 24:
        raise FormatError("file too short to be a checkpoint")
    if take_u64() != _MAGIC:
        raise FormatError("bad checkpoint magic")
    version = take_u64()
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    count = take_u64()

    toc = []
    for _ in range(count):
        name_len = take_u64()
        if pos + name_len > len(raw):
            raise FormatError("checkpoint truncated in name table")
        try:
            name = raw[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint tensor name is not utf-8: {exc}") from exc
        pos += name_len
        ndim = take_u64()
        shape = tuple(take_u64() for _ in range(ndim))
        offset = take_u64()
        toc.append((name, shape, offset))

    tensors = {}
    for name, shape, offset in toc:
        n_items = math.prod(shape)
        if offset + 8 * n_items > len(raw):
            raise FormatError(f"checkpoint truncated in data for {name!r}")
        flat = np.frombuffer(raw, dtype="<f8", count=n_items, offset=offset)
        try:
            tensors[name] = flat.reshape(shape).copy()
        except ValueError as exc:
            raise FormatError(f"bad shape {shape} for {name!r}: {exc}") from exc
    if len(tensors) != count:
        raise FormatError("duplicate tensor names in checkpoint")

    config = None
    meta = tensors.pop(_META_NAME, None)
    if meta is not None:
        config = _config_from_array(meta)
    return tensors, config


# -- model + frontend bundles -------------------------------------------------


def named_tensors(frontend: Frontend, model: ModelParams):
    """Every trainable tensor of a frontend and its model by checkpoint name:
    ``frontend/<param>`` and ``model/<tensor>``. Saving, loading, Adam and
    the best-epoch snapshot all read this one table."""
    named = {"frontend/" + name: t for name, t in frontend.params.items()}
    named.update(("model/" + name, t) for name, t in model.tensors.items())
    return named


def save_model(path, frontend: Frontend, model: ModelParams):
    """Bundle frontend weights, model weights, and both configs in one file."""
    tensors = {name: t.data
               for name, t in named_tensors(frontend, model).items()}
    config = {
        "frontend": frontend.config(),
        "model": dataclasses.asdict(model.config),
        "model_seed": model.seed,
    }
    write_checkpoint(path, tensors, config)


@contextmanager
def _config_section(section):
    """Report a config value the rebuild cannot use as a FormatError."""
    try:
        yield
    except (TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"checkpoint {section} config is invalid: {exc}") from exc


def _legacy_bias(name, known):
    """Whether ``name`` is a legacy key or value bias of a known bank."""
    return (name.startswith("frontend/") and name.endswith(("bk", "bv"))
            and name[:-2] + "wq" in known)


def load_model(path):
    """Rebuild (frontend, model) from a ``save_model`` checkpoint.

    The file must hold exactly the rebuilt bundle's ``named_tensors``, each
    of its shape; an unknown, missing or wrongly shaped tensor is a
    FormatError that names it. The one exception is a legacy attention
    bias: files written before banks lost their key and value biases hold
    ``frontend/<prefix>bk`` and ``frontend/<prefix>bv`` next to a known
    ``frontend/<prefix>wq``. Those biases cannot change an output, so they
    are dropped. So is a model config's ``n_classes`` of 3, which files
    written while the class count was a field hold.
    """
    tensors, config = read_checkpoint(path)
    if (not isinstance(config, dict) or "frontend" not in config
            or "model" not in config):
        raise FormatError("checkpoint does not hold a frontend+model bundle")
    with _config_section("frontend"):
        frontend = make_frontend(config["frontend"])
    with _config_section("model"):
        model_dict = dict(config_value(config["model"], dict))
        n_classes = model_dict.pop("n_classes", N_CLASSES)
        if n_classes != N_CLASSES:
            raise ArgumentError(
                f"n_classes must be {N_CLASSES}, got {n_classes!r}")
        model_cfg = TcnConfig.from_dict(model_dict)
    with _config_section("model_seed"):
        model = tcn_init(model_cfg,
                         seed=config_int(config.get("model_seed", 0), "model_seed"))
    named = named_tensors(frontend, model)
    for name in sorted(set(tensors) | set(named)):
        if name not in named:
            if _legacy_bias(name, named):
                continue
            raise FormatError(
                f"checkpoint holds tensor {name}, which a {frontend.kind!r} "
                f"frontend and its model do not have")
        if name not in tensors:
            raise FormatError(f"checkpoint is missing tensor {name}")
        arr, tensor = tensors[name], named[name]
        if arr.shape != tensor.data.shape:
            raise FormatError(
                f"checkpoint tensor {name} has shape {arr.shape}, expected "
                f"{tensor.data.shape}")
        tensor.data[...] = arr
    return frontend, model
