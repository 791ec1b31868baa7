"""Config dicts are checked against the dataclasses they fill: JSON types
from the field annotations, required fields by name, key paths in errors."""

import pytest

from arrayvad.arraysim import SceneSpec
from arrayvad.beamform import ArrayGeometry
from arrayvad.errors import ArgumentError, ConfigError, from_config
from arrayvad.frontends import MvdrConfig, frontend_config
from arrayvad.seqmodel import TcnConfig
from arrayvad.trainer import InvariantConfig, TrainConfig

_GEOMETRY = {"n_mics": 4, "radius": 0.05}

# reader, a config it accepts, and the key paths of one float field, one
# int field and one required field (None where the config has none).
READERS = {
    "SceneSpec": (SceneSpec.from_dict,
                  {"geometry": _GEOMETRY, "duration_s": 1.0},
                  ("duration_s",), ("sample_rate",), ("geometry",)),
    "ArrayGeometry": (ArrayGeometry.from_dict, _GEOMETRY,
                      ("radius",), ("n_mics",), ("radius",)),
    "TcnConfig": (TcnConfig.from_dict, {"input_dim": 8},
                  None, ("hidden",), ("input_dim",)),
    "TrainConfig": (TrainConfig.from_dict, {}, ("lr",), ("batch_size",), None),
    "InvariantConfig": (InvariantConfig.from_dict, {}, ("lambda",), ("p",),
                        None),
    "mvdr": (frontend_config, {"kind": "mvdr", "geometry": _GEOMETRY},
             ("geometry", "radius"), ("n_mels",), ("geometry",)),
}


def _with(cfg, path, value):
    """A copy of ``cfg`` with the key at ``path`` set to ``value``."""
    cfg = dict(cfg)
    if len(path) > 1:
        cfg[path[0]] = _with(cfg[path[0]], path[1:], value)
    else:
        cfg[path[0]] = value
    return cfg


CASES = []
for _name, (_, _cfg, _float, _int, _required) in READERS.items():
    if _float is not None:
        CASES += [(_name, "str-for-float", _with(_cfg, _float, "0.5"), _float),
                  (_name, "bool-for-float", _with(_cfg, _float, True), _float)]
    CASES.append((_name, "bool-for-int", _with(_cfg, _int, True), _int))
    if _required is not None:
        _missing = {k: v for k, v in _cfg.items() if k != _required[0]}
        CASES.append((_name, "missing", _missing, ()))


@pytest.mark.parametrize("name, case, cfg, path", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_a_wrong_type_or_missing_field_is_a_config_error_at_its_path(
        name, case, cfg, path):
    read = READERS[name][0]
    read(READERS[name][1])
    with pytest.raises(ArgumentError) as info:
        read(cfg)
    assert isinstance(info.value, ConfigError)
    assert info.value.path == path
    if case == "missing":
        assert repr(READERS[name][4][0]) in str(info.value)


def test_a_config_error_ends_with_its_key_path():
    with pytest.raises(ConfigError, match=r"\(at geometry/n_mics\)$"):
        from_config(MvdrConfig, {"geometry": {"n_mics": "4", "radius": 0.1}})
    with pytest.raises(ConfigError, match=r"unknown TrainConfig keys: \['l'\]$"):
        TrainConfig.from_dict({"l": 0.1})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_float_field_refuses_a_number_that_is_not_finite(value):
    with pytest.raises(ConfigError, match="finite"):
        TrainConfig.from_dict({"lr": value})
