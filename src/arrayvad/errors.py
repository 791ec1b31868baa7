"""Exception taxonomy shared across the package.

Every error raised on purpose by this package derives from ArrayVadError so
callers can catch one base class. The CLI maps these onto process exit codes
(see cli.py): usage problems exit 1, data and format problems exit 2, numeric
failures exit 3. The config helpers below raise ArgumentError too.
"""

import dataclasses
import numbers
import typing

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


def config_int(value, name):
    """``value`` as an int: an int, or a float with a whole value such as
    8.0, which jsonschema's ``integer`` admits. 8.9, "8" and True are not."""
    whole = isinstance(value, float) and value.is_integer()
    if whole or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ArgumentError(f"{name} must be an integer, got {value!r}")


def check_size(count, what):
    """ArgumentError when ``what``, which would hold ``count`` values, is
    over ``MAX_ELEMENTS``."""
    if count > MAX_ELEMENTS:
        raise ArgumentError(
            f"{what} would hold {count} values, over the limit of "
            f"{MAX_ELEMENTS}")


def from_config(cls, d, keys=None, **convert):
    """Dataclass ``cls`` built from the config dict ``d``.

    Only the keys ``d`` holds are passed, so each default lives in its
    field alone. A key is a field's name, or ``keys[name]`` where the dict
    spells field ``name`` otherwise; any other key is an ArgumentError that
    names it. A value goes through ``convert[name]`` when given, else by the
    field's annotation: ``config_int`` for ``int``, ``float`` for ``float``,
    as it is otherwise.
    """
    keys = keys or {}
    names = {keys.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ArgumentError(f"unknown {cls.__name__} keys: {unknown}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in d.items():
        name = names[key]
        if name in convert:
            value = convert[name](value)
        elif types[name] is int:
            value = config_int(value, key)
        elif types[name] is float:
            value = float(value)
        kwargs[name] = value
    return cls(**kwargs)
