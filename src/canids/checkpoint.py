"""Model checkpoints: a versioned text format holding a named parameter table.

Layout:
    canids-checkpoint v1
    model <kind> <config as one-line JSON>
    param <name> <d0> [<d1> ...]        (bare "param <name>" for scalars)
    <one line of repr() floats per leading row>
    ...
    end

repr() round-trips float64 exactly, so save/load is lossless.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .canlog import _is_decimal
from .errors import ParseError, StateError, open_ascii

MAGIC = "canids-checkpoint v1"
# the characters of a value row of finite floats: digits, ".", "-", "e", blanks, and "+" only right after
# "e". float() reads a value of these characters only in the form repr writes it. A row is split at its
# "+" signs one way only, so a failing match backtracks over each character at most once. This check
# scans a row about 4x as fast as a whole-row match of _is_decimal's grammar; rows that fail it (nan, inf
# or a malformed value) are checked value by value.
_is_plain_row = re.compile(r"[-.0-9e\s]*(?:(?<=e)\+[-.0-9e\s]*)*").fullmatch


def save_checkpoint(path, kind: str, config: dict, params: dict[str, np.ndarray]):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"model {kind} {json.dumps(config, sort_keys=True)}\n")
        for name, arr in params.items():
            arr = np.asarray(arr, dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {dims}".rstrip() + "\n")
            rows = arr.reshape(arr.shape[0], math.prod(arr.shape[1:])) if arr.ndim > 1 else arr.reshape(1, -1)
            for row in rows.tolist():
                fh.write(" ".join(map(repr, row)) + "\n")
        fh.write("end\n")


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
                    raise ParseError(f"{path}: expected param record, got {line.strip()!r}", line=lineno)
                name = parts[1]
                if name in params:
                    raise ParseError(f"{path}: param {name} listed twice", line=lineno)
                if not all(map(str.isdigit, parts[2:])):
                    raise ParseError(f"{path}: param {name} has a bad shape {' '.join(parts[2:])!r}", line=lineno)
                shape = tuple(int(d) for d in parts[2:])
                # one line per leading row; 1-d and scalar params are a single line
                n_lines = shape[0] if len(shape) > 1 else 1
                width = math.prod(shape[1:] if len(shape) > 1 else shape)
                rows = []
                for _ in range(n_lines):
                    lineno += 1
                    row = fh.readline()
                    if not (_is_plain_row(row) or all(map(_is_decimal, row.split()))):
                        raise ParseError(f"{path}: param {name} has a value that is not a float as repr writes it",
                                         line=lineno)
                    row = [float(v) for v in row.split()]
                    if len(row) != width:
                        raise ParseError(f"{path}: param {name} row has {len(row)} values, expected {width}", line=lineno)
                    if not all(map(math.isfinite, row)):
                        raise ParseError(f"{path}: param {name} has a non-finite value", line=lineno)
                    rows.append(row)
                params[name] = np.array(rows, dtype=np.float64).reshape(shape)
                line = fh.readline()
                lineno += 1
            else:
                raise ParseError(f"{path}: truncated checkpoint (no end marker)")
        except UnicodeDecodeError:
            raise  # open_ascii names the line
        except ValueError as exc:
            raise ParseError(f"{path}: bad checkpoint record ({exc})", line=lineno) from None
    return kind, config, params


def validate_params(params: dict[str, np.ndarray], expected: dict[str, tuple], kind: str):
    """Exact name and shape agreement between a checkpoint and a model config."""
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        raise StateError(f"{kind} checkpoint mismatch: missing={missing} unexpected={extra}")
    for name, shape in expected.items():
        if tuple(params[name].shape) != tuple(shape):
            raise StateError(
                f"{kind} checkpoint: param {name} has shape {params[name].shape}, "
                f"expected {tuple(shape)}"
            )
