"""Exception taxonomy shared across the package.

Every error carries a short machine-readable ``category`` so the CLI can
emit a single parsable line and pick the right exit code.
"""

import math
import numbers
from contextlib import contextmanager


class CanidsError(Exception):
    category = "runtime"


class ParseError(CanidsError):
    """Malformed input data (bad CSV row, bad cache record)."""

    category = "parse"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(CanidsError):
    """Invalid configuration or parameter value."""

    category = "config"


def require_int(name: str, value, least: int):
    """ConfigError unless ``value`` is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an int >= {least}, got {value!r}")


def require_finite(name: str, value, positive: bool = False):
    """ConfigError unless ``value`` is a finite real number (not a bool), and > 0 if ``positive``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or not math.isfinite(value) or (positive and value <= 0):
        raise ConfigError(f"{name} must be a finite number{' > 0' if positive else ''}, got {value!r}")


def require_probability(name: str, value):
    """ConfigError unless ``value`` is a finite real number (not a bool) in [0, 1]."""
    require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be a finite number in [0, 1], got {value!r}")


class DimensionError(CanidsError):
    """Tensor shape mismatch; names the op and the offending shapes."""

    category = "dimension"


class StateError(CanidsError):
    """Operation invoked in the wrong state (missing checkpoint, empty input)."""

    category = "state"


class UsageError(CanidsError):
    """Bad CLI invocation: missing file, malformed flag value."""

    category = "usage"


@contextmanager
def open_ascii(path):
    """``open(path)`` as ASCII text; a non-ASCII byte read inside the block
    raises the ParseError of ``non_ascii_error``."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise non_ascii_error(path) from None


def non_ascii_error(path) -> ParseError:
    """The ParseError of a file with a non-ASCII byte, naming the file and the first line that holds one.

    Decoders read ahead, so the line is found from the file's bytes.
    """
    with open(path, "rb") as raw:
        line = next((k for k, row in enumerate(raw, start=1) if not row.isascii()), None)
    return ParseError(f"{path}: non-ASCII byte", line=line)
