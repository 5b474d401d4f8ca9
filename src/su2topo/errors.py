"""Exception types shared across the package."""

from __future__ import annotations


class Su2TopoError(Exception):
    """Base class for all errors raised by this package."""


class LatticeError(Su2TopoError, ValueError):
    """Invalid grid construction, axis index, or grid/rank mismatch."""


class FieldError(Su2TopoError, ValueError):
    """Field data violates a structural invariant (shape, finiteness, norm)."""


class NormalizationError(FieldError):
    """A field norm fell below the zero threshold at some site.

    Carries the offending site index; a vanishing norm marks a zero of the
    underlying 4-vector field, which must be handled by the zero-point
    machinery rather than smoothed over.
    """

    def __init__(self, message: str, site: tuple | None = None):
        super().__init__(message)
        self.site = site


class ReconstructionError(Su2TopoError, ArithmeticError):
    """An exact algebraic identity failed beyond tolerance (algebra bug)."""


class ZeroLocationError(Su2TopoError, RuntimeError):
    """Zero search failed: zeros too close for the grid, or on the boundary."""


class FieldFormatError(Su2TopoError, ValueError):
    """Base class for field-file format violations."""

    code = "format"


class BadMagicError(FieldFormatError):
    code = "bad-magic"


class HeaderError(FieldFormatError):
    code = "bad-header"


class CountMismatchError(FieldFormatError):
    code = "count-mismatch"


class ChecksumError(FieldFormatError):
    code = "checksum"


class FileChangedError(FieldFormatError):
    """A verified file changed or vanished before a later read of its jet."""

    code = "file-changed"
