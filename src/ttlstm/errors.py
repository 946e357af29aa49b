"""Exception types shared across the package."""


class TTError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TTError, ValueError):
    """Array extents do not line up for the requested operation."""


class RankError(ShapeError):
    """A tensor-train rank chain violates its boundary or adjacency rules."""


class DomainError(TTError, ValueError):
    """A numeric argument lies outside the valid domain."""


class CapacityError(DomainError):
    """A dense materialization would exceed the configured entry cap."""


class NumericError(TTError, ArithmeticError):
    """A computation produced non-finite values."""


class StateError(TTError, RuntimeError):
    """An operation was invoked in the wrong lifecycle state."""


class ConfigError(TTError, ValueError):
    """A run configuration is inconsistent or unusable."""


class VocabError(TTError, ValueError):
    """A token id falls outside the model vocabulary."""


class FormatError(TTError, ValueError):
    """A serialized file is malformed. ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
