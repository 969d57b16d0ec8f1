"""Exception taxonomy shared across the package, and the readers that end a malformed file in one of them.

Every error carries a short machine-readable ``category`` so the CLI can
emit a single parsable line and pick the right exit code.
"""

import json
import math
import numbers
import os
from contextlib import contextmanager

import numpy as np


class CanidsError(Exception):
    """An error with its category and, for one found in a file, the 1-based ``line`` its message starts with."""

    category = "runtime"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(CanidsError):
    """Malformed input data (bad CSV row, bad graph cache)."""

    category = "parse"


class ConfigError(CanidsError):
    """Invalid configuration or parameter value."""

    category = "config"


def read_json(path):
    """The JSON value of the UTF-8 file at ``path``; ConfigError naming the file if that is not JSON,
    is nested too deep for the parser, or holds an integer of more digits than ``int`` converts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


_QUOTED = 128  # the longest text that an error message quotes whole: longer than any field or row the writers write


def quoted(text: str, marks: bool = True) -> str:
    """``text`` as an error message shows a field or row of a file: its repr (the text itself if not
    ``marks``), or, if it is longer than _QUOTED characters, that of its first _QUOTED // 2 and its length."""
    show = repr if marks else str
    return show(text) if len(text) <= _QUOTED else f"{show(text[: _QUOTED // 2])}... ({len(text)} characters)"


def quoted_value(value) -> str:
    """``repr(value)`` of a value given from outside, cut short as ``quoted`` cuts a text: a string as
    ``quoted`` shows it, any other value's repr as ``quoted`` shows it without marks."""
    return quoted(value) if isinstance(value, str) else quoted(repr(value), marks=False)


def require_int(name: str, value, least: int):
    """``value``; ConfigError unless it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an int >= {least}, got {quoted_value(value)}")
    return value


def require_finite(name: str, value, positive: bool = False) -> float:
    """``value`` as a float; ConfigError unless it is a finite real number (not a bool) that a float can
    hold, and > 0 if ``positive``."""
    try:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite or (positive and value <= 0):
        raise ConfigError(f"{name} must be a finite number{' > 0' if positive else ''}, got {quoted_value(value)}")
    return float(value)


def require_probability(name: str, value):
    """ConfigError unless ``value`` is a finite real number (not a bool) in [0, 1]."""
    require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be a finite number in [0, 1], got {quoted_value(value)}")


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


def read_columns(path, magic: bytes, name: str, text: tuple[str, str], header):
    """The header's value and the columns of the file at ``path``, which must start with the line ``magic``.

    Else the ParseError is ``text[1]`` if the first line is ``text[0]`` (the
    format's text version), or that the file is not a ``name``.
    ``header(path, fh, size)`` reads the rest of the header from ``fh``, a
    file of ``size`` bytes, and returns its value, the (dtype, shape) of
    each int64 or float64 column and the ParseError message for a file that
    the columns do not fill exactly. That is checked before any column is
    made; then the columns are read into one fresh array, each an aligned,
    native and writable view of it.
    """
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            fh.seek(0)
            first = fh.readline().decode("ascii", "backslashreplace").strip()
            raise ParseError(f"{path}: " + (text[1] if first == text[0] else f"not a {name} (header {quoted(first)})"))
        size = os.fstat(fh.fileno()).st_size
        value, columns, mismatch = header(path, fh, size)
        counts = [math.prod(shape) for _, shape in columns]
        if any(d < 0 for _, shape in columns for d in shape) or size - fh.tell() != 8 * sum(counts):
            raise ParseError(f"{path}: {mismatch}")
        body = np.empty(sum(counts), dtype="<u8")
        if fh.readinto(body) != body.nbytes:  # the file was cut while it was read
            raise ParseError(f"{path}: {mismatch}")
    parts = np.split(body, np.cumsum(counts)[:-1])  # views: astype copies none on a little-endian machine
    return value, [part.view(np.dtype(dtype).newbyteorder("<")).reshape(shape).astype(dtype, copy=False)
                   for part, (dtype, shape) in zip(parts, columns)]
