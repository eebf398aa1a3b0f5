"""Exception types shared across the package."""

import json
import numbers

import numpy as np


class BinauralKitError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(BinauralKitError, ValueError):
    """An argument is out of range, non-finite, or otherwise unusable."""


class InsufficientPointsError(BinauralKitError, ValueError):
    """Fewer than three non-collinear points were supplied for triangulation."""


class NoEnclosingTriangleError(BinauralKitError):
    """No projection frame produced a triangle containing the query."""


class UnsupportedLayoutError(BinauralKitError, ValueError):
    """The requested speaker layout name is not one of the supported set."""


class NotFoundError(BinauralKitError):
    """A subject, manifest, file, or nearby IR point could not be found."""


class FormatError(BinauralKitError, ValueError):
    """A file or buffer does not match the documented on-disk format."""


class EmptyImportError(BinauralKitError):
    """An import scan kept fewer than three usable IR files."""


def printable(text) -> str:
    """``str(text)`` with each character ``str.isprintable`` rejects written as
    its ``repr`` escape (``\\x1b``), so no control code reaches a terminal."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(text))


def as_number(value, where: str, kind=float, error=FormatError):
    """``kind(value)``; a boolean (Python's or numpy's), a value that does
    not convert, or for ``int`` a number with a fractional part raises
    ``error`` naming ``where`` it came from."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = kind(value)
        if kind is int and isinstance(value, numbers.Real) and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise error(f"{where} must be {what}, got {value!r}") from None


def as_rate(value, where: str, error=FormatError) -> int:
    """``value`` as a sample rate, a positive integer (see ``as_number``);
    otherwise ``error`` naming ``where`` it came from."""
    rate = as_number(value, where, int, error)
    if rate <= 0:
        raise error(f"{where} must be positive, got {rate}")
    return rate


def read_utf8(path) -> str:
    """The file's text; bytes that are not UTF-8 raise FormatError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def read_json(path):
    """The file's JSON value; bytes that are not UTF-8, text that is not
    JSON, or nesting past Python's recursion limit raise FormatError
    naming the file."""
    text = read_utf8(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: also an integer past the digit limit
        raise FormatError(f"{path}: invalid JSON: {e}") from None
