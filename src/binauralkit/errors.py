"""Exception types shared across the package."""


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
    """An import scan produced zero usable IR files."""


def as_number(value, where: str, kind=float, error=FormatError):
    """``kind(value)``; a value that does not convert raises ``error``
    naming ``where`` it came from."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise error(f"{where} must be {what}, got {value!r}") from None
