"""Exception types shared across the package.

A fault in an input file or a config raises a :class:`TumorkitError`
subclass, so callers (and the CLI) can catch one type and report the
concrete class name as a machine-parsable error code.  A library call
given an out-of-domain argument (an unknown architecture, a zero output
size) raises ``ValueError``; :func:`~tumorkit.dataset.read_table` maps
the ones a table row can reach to :class:`BadConfig`.  The config
dataclasses share one field-type rule, :func:`check_field_types`, which
raises :class:`BadConfig`.
"""

from __future__ import annotations

import functools
import json
import numbers
import typing


class TumorkitError(Exception):
    """Base class for all errors raised by this package."""


# --- raster / checkpoint parsing ---

class BadMagic(TumorkitError):
    """File does not start with a supported magic marker."""


class HeaderParse(TumorkitError):
    """Header field is missing, non-numeric, or out of the accepted range."""


class Truncated(TumorkitError):
    """Payload ends before the size announced by the header."""


class BadVersion(TumorkitError):
    """Checkpoint format version is not supported."""


class ChecksumMismatch(TumorkitError):
    """Stored checksum does not match the file contents."""


class Unreadable(TumorkitError):
    """A file could not be opened or read (missing, a directory, no permission)."""


class Unwritable(TumorkitError):
    """An output file or directory could not be written (something in its
    place, no permission, a full disk)."""


# --- preprocessing ---

class NoForeground(TumorkitError):
    """A binary mask has no foreground pixels where at least one is required."""


# --- tensor kernels ---

class ShapeMismatch(TumorkitError):
    """Operand shapes are inconsistent with each other or with a layer."""


class OddSpatialDim(TumorkitError):
    """2x2 pooling requires even spatial dimensions."""


class InvalidProbability(TumorkitError):
    """A probability value lies outside its valid range or is not finite."""


class BadTargets(TumorkitError):
    """Classification targets are not one-hot rows."""


# --- metrics ---

class LengthMismatch(TumorkitError):
    """Paired sequences have different lengths."""


class Empty(TumorkitError):
    """An operation received an empty input it cannot work with."""


class OneClassOnly(TumorkitError):
    """Ranking metrics need at least one sample of each class."""


class NoPositives(TumorkitError):
    """Average precision needs at least one positive sample."""


class EmptyRow(TumorkitError):
    """A confusion-matrix row has a zero total and cannot be normalized."""


# --- dataset / training ---

class MissingDir(TumorkitError):
    """An expected directory does not exist."""


class EmptyClass(TumorkitError):
    """A class directory contains no images."""


class ClassTooSmall(TumorkitError):
    """A class has too few entries to be split."""


class NonFiniteLoss(TumorkitError):
    """Training loss became NaN or infinite."""


class BadConfig(TumorkitError):
    """Configuration file or value is invalid; ``field`` names the config
    field when the fault is that field's value type."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


# --- config field types ---

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               type(None): "null"}
# an int field takes any integer but a boolean, a float field any real number
# but a boolean; the plain types go first, as they are the common case
_ACCEPTS = {int: (int, numbers.Integral), float: (float, int, numbers.Real)}
# resolving the string annotations costs several times the rest of a config load,
# and their types never change: resolve each class once
field_types = functools.cache(typing.get_type_hints)


@functools.cache
def _field_rules(cls) -> tuple[tuple[str, tuple[type, ...], bool, str], ...]:
    """(name, accepted types, whether booleans fit, wanted-type wording)
    for each field of a config dataclass."""
    rules = []
    for name, hint in field_types(cls).items():
        allowed = typing.get_args(hint) or (hint,)  # str | None -> (str, NoneType)
        accepts = tuple(a for t in allowed for a in _ACCEPTS.get(t, (t,)))
        want = " or ".join(_TYPE_NAMES[t] for t in allowed)
        rules.append((name, accepts, bool in allowed, want))
    return tuple(rules)


def check_field_types(config) -> None:
    """Raise :class:`BadConfig` for the first field of a config dataclass
    whose value does not have the field's declared type.

    An ``int`` field takes integers but not booleans, and a ``float``
    field any number but a boolean.
    """
    for name, accepts, bool_fits, want in _field_rules(type(config)):
        value = getattr(config, name)
        if bool_fits if isinstance(value, bool) else isinstance(value, accepts):
            continue
        try:  # config files are JSON, so show the value as JSON if it has a form there
            shown = json.dumps(value)
        except (TypeError, ValueError):
            shown = repr(value)
        raise BadConfig(f"{name} must be {want}, got {shown}", field=name)
