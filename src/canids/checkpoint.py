"""Model checkpoints: a versioned text format holding a named parameter table.

Layout:
    canids-checkpoint v1
    model <kind> <config as one-line JSON>
    param <name> <d0> [<d1> ...]        (bare "param <name>" for scalars)
    <one line of repr() floats per leading row, written by floattext.repr_rows>
    ...
    end

repr() round-trips float64 exactly, so save/load is lossless.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import ParseError, StateError, open_ascii, quoted
from .floattext import is_decimal, joined, repr_rows

MAGIC = "canids-checkpoint v1"
_LISTED = 3  # the most missing, and the most unexpected, param names that a mismatch names
# the characters of a value row of finite floats: digits, ".", "-", "e", blanks, and "+" only right after
# "e". float() reads a value of these characters only in the form repr writes it. A row is split at its
# "+" signs one way only, so a failing match backtracks over each character at most once. This check
# scans a row about 4x as fast as a whole-row match of is_decimal's grammar; rows that fail it (nan, inf
# or a malformed value) are checked value by value.
_is_plain_row = re.compile(r"[-.0-9e\s]*(?:(?<=e)\+[-.0-9e\s]*)*").fullmatch


def save_checkpoint(path, kind: str, config: dict, params: dict[str, np.ndarray]):
    arrays = [np.asarray(arr, dtype=np.float64) for arr in params.values()]
    texts = repr_rows(np.concatenate([np.empty(0), *(arr.ravel() for arr in arrays)]))  # one call for all values
    at = 0  # the index in texts of the next param's first value
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC}\nmodel {kind} {json.dumps(config, sort_keys=True)}\n".encode("ascii"))
        for name, arr in zip(params, arrays):
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {dims}".rstrip().encode("ascii") + b"\n")
            lines = arr.shape[0] if arr.ndim > 1 else 1
            fh.write(_value_lines(texts[at : at + arr.size], lines))
            at += arr.size
        fh.write(b"end\n")


def _value_lines(texts: np.ndarray, lines: int) -> bytes:
    """``lines`` lines of the value texts (rows of ``repr_rows``) in order, the values of a line joined by
    blanks; a param with no values has empty lines."""
    if not texts.size:
        return b"\n" * lines
    ends = np.full((len(texts), 1), ord(" "), dtype=np.uint8)
    ends[len(texts) // lines - 1 :: len(texts) // lines] = ord("\n")
    return joined(texts, ends).tobytes()


def load_checkpoint(path):
    """Returns (kind, config dict, ordered {name: float64 array}).

    Shape dimensions are plain decimal digits and values are floats in the
    form repr writes them (no sign but "-", no "_", no blank inside). Any
    malformed record raises ParseError with its line number.
    """
    with open_ascii(path) as fh:
        if fh.readline().strip() != MAGIC:
            raise ParseError(f"{path}: not a canids checkpoint", line=1)
        model_line = fh.readline().split(maxsplit=2)
        if len(model_line) != 3 or model_line[0] != "model":
            raise ParseError(f"{path}: missing model header", line=2)
        lineno = 2
        params: dict[str, np.ndarray] = {}
        try:
            kind, config = model_line[1], json.loads(model_line[2])
            line = fh.readline()
            lineno += 1
            while line:
                parts = line.split()
                if parts == ["end"]:
                    break
                if len(parts) < 2 or parts[0] != "param":
                    raise ParseError(f"{path}: expected param record, got {quoted(line.strip())}", line=lineno)
                name = parts[1]
                shown = quoted(name, marks=False)
                if name in params:
                    raise ParseError(f"{path}: param {shown} listed twice", line=lineno)
                if not all(map(str.isdigit, parts[2:])):
                    shape_text = quoted(" ".join(parts[2:]))
                    raise ParseError(f"{path}: param {shown} has a bad shape {shape_text}", line=lineno)
                shape = tuple(int(d) for d in parts[2:])
                # one line per leading row; 1-d and scalar params are a single line
                n_lines = shape[0] if len(shape) > 1 else 1
                width = math.prod(shape[1:] if len(shape) > 1 else shape)
                rows = []
                for _ in range(n_lines):
                    lineno += 1
                    row = fh.readline()
                    if not (_is_plain_row(row) or all(map(is_decimal, row.split()))):
                        raise ParseError(f"{path}: param {shown} has a value that is not a float as repr writes it",
                                         line=lineno)
                    row = [float(v) for v in row.split()]
                    if len(row) != width:
                        expected = quoted(str(width), marks=False)
                        raise ParseError(f"{path}: param {shown} row has {len(row)} values, expected {expected}",
                                         line=lineno)
                    if not all(map(math.isfinite, row)):
                        raise ParseError(f"{path}: param {shown} has a non-finite value", line=lineno)
                    rows.append(row)
                params[name] = np.array(rows, dtype=np.float64).reshape(shape)
                line = fh.readline()
                lineno += 1
            else:
                raise ParseError(f"{path}: truncated checkpoint (no end marker)")
        except UnicodeDecodeError:
            raise  # open_ascii names the line
        except (ValueError, RecursionError) as exc:  # RecursionError: a model config nested too deep for json
            raise ParseError(f"{path}: bad checkpoint record ({exc})", line=lineno) from None
    return kind, config, params


def validate_params(params: dict[str, np.ndarray], expected: dict[str, tuple], kind: str):
    """Exact name and shape agreement between a checkpoint and a model config."""
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        missing, extra = map(_listed, (missing, extra))
        raise StateError(f"{kind} checkpoint mismatch: missing={missing} unexpected={extra}")
    for name, shape in expected.items():
        if tuple(params[name].shape) != tuple(shape):
            raise StateError(
                f"{kind} checkpoint: param {name} has shape {params[name].shape}, "
                f"expected {tuple(shape)}"
            )


def _listed(names: list[str]) -> str:
    """``names`` as a mismatch shows them: all of them, or the first _LISTED and how many there are."""
    shown = ", ".join(map(quoted, names[:_LISTED]))
    return f"[{shown}]" if len(names) <= _LISTED else f"[{shown}, ...] ({len(names)} names)"
