"""Exception types shared across the package, and its integer check."""

from numbers import Integral


class QtsvmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(QtsvmError):
    """Caller-supplied data violates a precondition (shape, range, finiteness)."""


class NumericError(QtsvmError):
    """A numerical operation failed (non-finite arithmetic, factorization failure)."""


class DataFormatError(QtsvmError):
    """A data file could not be parsed (CSV, benchmark config)."""


class ModelFileError(QtsvmError):
    """Base class for model persistence failures."""


class MalformedModelFileError(ModelFileError):
    """The model file is truncated or not valid for parsing."""


class ModelVersionError(ModelFileError):
    """The model file declares an unsupported format version."""


class ModelInconsistencyError(ModelFileError):
    """The model file parsed, but its fields disagree on dimensions."""


def check_int(value, name: str, low: int) -> None:
    """Raise InvalidInputError unless value is an integer >= low: a Python
    or numpy integer, not a bool, a float such as 2.0 or a string."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")
