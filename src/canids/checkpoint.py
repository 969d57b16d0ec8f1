"""Model checkpoints: a model header and a named parameter table, then every value in binary.

Layout:
    canids-checkpoint v2
    model <kind> <config as one-line JSON>
    params <the table as one-line JSON: a list of [name, [d0, d1, ...]], [] for a scalar>
    <every value as a little-endian float64, param by param in table order, each in C order>

The bytes of a float64 are the value itself, so save/load is lossless.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError, StateError, quoted, read_columns

MAGIC = b"canids-checkpoint v2\n"
_TEXT_CHECKPOINT = ("canids-checkpoint v1", "a text checkpoint (canids-checkpoint v1); retrain it")
_LISTED = 3  # the most missing, and the most unexpected, param names that a mismatch names


def save_checkpoint(path, kind: str, config: dict, params: dict[str, np.ndarray]):
    arrays = [np.asarray(arr, dtype=np.float64) for arr in params.values()]
    table = json.dumps([[name, list(arr.shape)] for name, arr in zip(params, arrays)])
    with open(path, "wb") as fh:
        fh.write(MAGIC + f"model {kind} {json.dumps(config, sort_keys=True)}\nparams {table}\n".encode("ascii"))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path):
    """Returns (kind, config dict, ordered {name: float64 array}).

    The model and params lines must be ASCII JSON as save_checkpoint writes
    them: the table a list of [name, shape], names unique strings and each
    shape a list of ints >= 0. The file must be exactly as long as the
    table's values need, or no array is made, and every value must be
    finite. A broken rule raises ParseError: a header line's names its line
    (2 or 3), a value's names its param. Each array is an aligned, native
    and writable view of one array that holds the file's values.
    """
    (kind, config, table), arrays = read_columns(path, MAGIC, "canids checkpoint", _TEXT_CHECKPOINT, _header)
    for (name, _), arr in zip(table, arrays):
        finite = np.isfinite(arr)
        if not finite.all():
            raise ParseError(f"{path}: param {quoted(name)} has a non-finite value, {arr.flat[finite.argmin()]}")
    return kind, config, {name: arr for (name, _), arr in zip(table, arrays)}


def _header(path, fh, size):
    """The kind, config and param table of a checkpoint's header and its params' columns, for ``read_columns``."""
    fields = []
    for lineno, word, words in ((2, "model", 2), (3, "params", 1)):  # "model <kind> <JSON>", "params <JSON>"
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ParseError(f"{path}: checkpoint cut short in its header", line=lineno)
        if not line.isascii():
            raise ParseError(f"{path}: non-ASCII byte", line=lineno)
        parts = line[:-1].decode("ascii").split(maxsplit=words)
        if len(parts) != words + 1 or parts[0] != word:
            raise ParseError(f"{path}: missing {word} header", line=lineno)
        try:
            fields.append((*parts[1:-1], json.loads(parts[-1])))
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep for the parser
            raise ParseError(f"{path}: bad checkpoint header ({exc})", line=lineno) from None
    (kind, config), (table,) = fields
    sizes = _sizes(path, table)
    mismatch = (f"{len(sizes)} params of {sum(sizes)} values do not fill the checkpoint's {size - fh.tell()} bytes "
                "after its header")
    return (kind, config, table), [(np.float64, tuple(shape)) for _, shape in table], mismatch


def _sizes(path, table) -> list[int]:
    """The value count of each [name, shape] of ``table``; ParseError naming line 3 unless the table is a
    list of [name, shape] of unique string names and shapes of ints >= 0 that numpy can hold."""
    if not isinstance(table, list):
        raise ParseError(f"{path}: the params header is not a list of [name, shape]", line=3)
    sizes, names = [], set()
    for i, entry in enumerate(table):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ParseError(f"{path}: params entry {i} is not [name, shape]", line=3)
        name, shape = entry
        if name in names:
            raise ParseError(f"{path}: param {quoted(name)} listed twice", line=3)
        names.add(name)
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ParseError(f"{path}: param {quoted(name)} has a shape that is not a list of ints >= 0", line=3)
        try:  # numpy's own limits on a shape, checked without allocating
            sizes.append(np.broadcast_to(0.0, shape).size)
        except ValueError as exc:
            raise ParseError(f"{path}: param {quoted(name)} has a shape numpy cannot hold ({exc})", line=3) from None
    return sizes


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
