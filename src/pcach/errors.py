"""Exception types shared across the package, and the one JSON document reader."""

import json
import reprlib
import sys


class PCachError(Exception):
    """Base class for all package errors."""


class TraceParseError(PCachError, ValueError):
    """Malformed input line. Carries the 1-based line number when known."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class TraceValidationError(PCachError, ValueError):
    """A domain invariant was violated while building a value."""


class EmptyTraceError(PCachError, ValueError):
    """An operation that needs samples received none."""


class ParameterError(PCachError, ValueError):
    """An argument is outside its documented domain."""


class ConfigError(PCachError, ValueError):
    """A configuration object is inconsistent or unusable."""


class OrderingError(PCachError, ValueError):
    """Samples arrived out of chronological order."""


class FeatureError(PCachError, ValueError):
    """Feature extraction is impossible in the current state."""


class DegenerateDataError(PCachError, ValueError):
    """A training set cannot support fitting (e.g. single-label data)."""


class ModelError(PCachError, ValueError):
    """A model is empty or otherwise unusable for prediction."""


class DataError(PCachError, ValueError):
    """Input data is too short or otherwise unsuitable for the operation."""


class UndefinedRateError(PCachError, ZeroDivisionError):
    """A rate has a zero denominator; callers typically skip the item."""


# Each JSON document pcach loads is a key table mapping each key to a (test,
# requirement) pair for ``read_fields``; shared pairs follow. A bool is no number.
INTEGER = (lambda v: type(v) is int, "an integer")
FINITE = (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number")
BOOLEAN = (lambda v: type(v) is bool, "a boolean")
STRING = (lambda v: type(v) is str, "a string")
LIST = (lambda v: type(v) is list, "a list")
NAMES = (lambda v: type(v) is list and all(type(x) is str for x in v), "a list of strings")
DISTINCT_NAMES = (lambda v: NAMES[0](v) and len(set(v)) == len(v), "a list of distinct strings")


def read_json(text, what: str, error: type[PCachError]):
    """The value a JSON text holds; invalid JSON or UTF-8 raises ``error``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON ({exc})") from None


def read_fields(obj, where: str, spec: dict, error: type[PCachError], optional=()) -> dict:
    """``obj``, checked as the JSON object named ``where`` with key table
    ``spec``: it has no other key, every key not in ``optional``, and values
    that pass their pair's test. A failure raises ``error`` naming the key."""
    if type(obj) is not dict:
        raise error(f"{where} must be a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in spec:
            raise error(f"unknown key {key!r} in {where}")
    for key, (test, requirement) in spec.items():
        if key not in obj:
            if key not in optional:
                raise error(f"{where} lacks key {key!r}")
        elif not test(obj[key]):
            raise error(f"{where} key {key!r} must be {requirement}, got {reprlib.repr(obj[key])}")
    return obj
