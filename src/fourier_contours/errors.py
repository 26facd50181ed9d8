"""Exception types shared across the toolkit."""

from __future__ import annotations

__all__ = [
    "GeometryError",
    "DegenerateContour",
    "ZeroPerimeter",
    "DegreeTooLarge",
    "ShapeMismatch",
    "ChannelCountMismatch",
    "AlignmentMismatch",
    "NonFinite",
    "ParseError",
    "InvalidPolygon",
    "ConfigError",
]


class GeometryError(Exception):
    """Base class for geometric failures on otherwise well-formed input.

    position is the index of the failing contour in the batch that a batch
    call (embed_many, fit_by_degree) raised it for, and None otherwise."""

    position: int | None = None


class DegenerateContour(GeometryError):
    """The contour has no usable interior (zero area, or no scanline crossing)."""


class ZeroPerimeter(GeometryError):
    """Arc-length operations need a contour with nonzero perimeter."""


class DegreeTooLarge(ValueError):
    """Requested harmonic degree K violates 2K + 1 <= number of samples."""


class ShapeMismatch(ValueError):
    """Two arrays that must share a shape do not."""


class ChannelCountMismatch(ValueError):
    """A flat signature vector does not have 2 * (2K + 1) entries for integer K."""


class AlignmentMismatch(ValueError):
    """Parallel per-pixel inputs (signatures, membership flags) disagree in length."""


class NonFinite(ValueError):
    """A value that must be finite is NaN or infinite."""


class ParseError(Exception):
    """Malformed annotation input.  Carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidPolygon(ParseError, ValueError):
    """A polygon that cannot be used: too few points, odd coordinate count, NaN.

    Doubles as a ValueError so direct construction misuse can be caught with
    the standard idiom, while the annotation parsers still see a ParseError.
    """


class ConfigError(Exception):
    """Bad configuration: unknown key, unparseable value, or out-of-range setting."""
