"""Exception types shared across the package."""


class HsvmError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HsvmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(HsvmError, ValueError):
    """Array dimensions do not match the operation's contract."""


class LabelError(HsvmError, ValueError):
    """Labels do not match the expected kind (binary vs multi-class)."""


class ConstraintError(HsvmError, ValueError):
    """A model violates its feasibility constraints beyond tolerance."""


class ParseError(HsvmError, ValueError):
    """Malformed data file contents."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class FormatError(HsvmError, ValueError):
    """Malformed or truncated model file."""
