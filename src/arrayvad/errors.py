"""Exception taxonomy shared across the package.

Every error raised on purpose by this package derives from ArrayVadError so
callers can catch one base class. The CLI maps these onto process exit codes
(see cli.py): usage problems exit 1, data and format problems exit 2, numeric
failures exit 3. The config helpers below raise ConfigError, an
ArgumentError the CLI reports as a config error (exit 1).
"""

import dataclasses
import json
import math
import numbers
import sys
import typing
from contextlib import contextmanager

# Most float64 values one part of a model may hold (512 MiB): an attention
# map, a filterbank, the TCN's weights. Size fields of configs and
# checkpoints are checked against it before anything is built, so an absurd
# width fails as bad input instead of running out of memory.
MAX_ELEMENTS = 1 << 26


class ArrayVadError(Exception):
    """Base class for all package errors."""


class ArgumentError(ArrayVadError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class RangeError(ArgumentError):
    """A value is of the right kind but outside the permitted range."""


class FormatError(ArrayVadError):
    """A file or byte stream does not match its declared format."""


class UnsupportedCodecError(FormatError):
    """A file is well formed but uses an encoding we do not handle."""


class ParseError(FormatError):
    """Text input failed to parse. Carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(ArrayVadError):
    """A computation produced NaN/Inf or an otherwise unusable result."""


class AliasingError(RangeError):
    """A frequency request lies at or above the spatial aliasing limit."""


class UndefinedMetricError(ArrayVadError):
    """A metric's denominator is empty (e.g. no reference speech frames)."""


class ConfigError(ArgumentError):
    """A config does not match its declaration: an unknown or missing key, a
    value of the wrong JSON type, or one outside a bound the declaration
    states. ``path`` holds the keys from the config's top down to the value,
    and the message ends with them, as in "(at train/batch_size)"."""

    def __init__(self, message, *path):
        super().__init__(message)
        self.path = path

    def __str__(self):
        where = "/".join(str(key) for key in self.path)
        return f"{self.args[0]} (at {where})" if where else self.args[0]


# A seed of numpy's generators: a nonnegative int.
Seed = typing.NewType("Seed", int)


@contextmanager
def config_key(key):
    """A ConfigError raised inside lies under ``key``: its path gains it."""
    try:
        yield
    except ConfigError as exc:
        exc.path = (key, *exc.path)
        raise


def _json_int(text):
    """A JSON integer as an int, or as inf when no float can hold it."""
    value = int(text)
    return value if abs(value) <= sys.float_info.max else math.inf


def loads_config(text):
    """``json.loads(text)``, with an integer too large for a float read as
    inf, so ``config_value`` refuses every number that is not finite (NaN,
    Infinity, 1e999, a 400-digit integer) at its key."""
    return json.loads(text, parse_int=_json_int)


def config_int(value, *path):
    """``value`` as an int: an int, or a float with a whole value such as
    8.0, since JSON writers may emit 8.0 for 8. 8.9, "8" and True are not;
    they are a ConfigError at ``path``."""
    whole = isinstance(value, float) and value.is_integer()
    if whole or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"must be an integer, got {value!r}", *path)


def check_size(count, what):
    """ArgumentError when ``what``, which would hold ``count`` values, is
    over ``MAX_ELEMENTS``."""
    if count > MAX_ELEMENTS:
        raise ArgumentError(
            f"{what} would hold {count} values, over the limit of "
            f"{MAX_ELEMENTS}")


def config_value(value, kind):
    """``value`` checked against the annotation ``kind``: ``int`` through
    ``config_int``, ``Seed`` such an int >= 0, ``float`` a finite real
    number that is not a bool, ``str`` a str, ``dict`` an object,
    ``Literal[...]`` one of its values, a dataclass an object through
    ``from_config``, and ``list[T]`` or ``tuple[T, ...]`` a list of T's.
    A ConfigError names the key path below ``value``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if kind is int or kind is Seed:
        number = config_int(value)
        if kind is Seed and number < 0:
            raise ConfigError(f"must be >= 0, got {number}")
        return number
    if kind is float:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):
            return float(value)
        raise ConfigError(f"must be a finite number, got {value!r}")
    if kind is str or kind is dict:
        if not isinstance(value, kind):
            what = "a string" if kind is str else "an object"
            raise ConfigError(f"must be {what}, got {value!r}")
        return value
    if origin is typing.Literal:
        if value not in args:
            raise ConfigError(f"must be one of {list(args)}, got {value!r}")
        return value
    if dataclasses.is_dataclass(kind):
        return from_config(kind, value)
    if origin is list or origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"must be a list, got {value!r}")
        items = []
        for index, item in enumerate(value):
            with config_key(index):
                items.append(config_value(item, args[0]))
        return origin(items)
    raise TypeError(f"no config rule for {kind!r}")


def config_dict(d, types, required=(), what="config"):
    """The config object ``d``, each value checked by ``config_value``
    against ``types[key]``; a key not in ``types`` or one of ``required``
    that ``d`` lacks is a ConfigError whose message names ``what``."""
    config_value(d, dict)
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ConfigError(f"missing required {what} keys: {missing}")
    out = {}
    for key, value in d.items():
        with config_key(key):
            out[key] = config_value(value, types[key])
    return out


def from_config(cls, d):
    """Dataclass ``cls`` built from the config object ``d``: ``config_dict``
    with the fields' annotations, a key for each field (spelled
    ``cls.config_keys[name]`` where given), and the fields without a default
    required. Only the keys ``d`` holds are passed, so each default lives in
    its field alone."""
    keys = getattr(cls, "config_keys", {})
    hints = typing.get_type_hints(cls)
    fields = {keys.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    required = [key for key, f in fields.items()
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    values = config_dict(d, {key: hints[f.name] for key, f in fields.items()},
                         required, cls.__name__)
    return cls(**{fields[key].name: value for key, value in values.items()})
