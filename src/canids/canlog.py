"""CAN log frames, CSV parsers, and the canonical CSV writer.

The canonical on-disk layout is the Car-Hacking one:

    timestamp,ID(hex),DLC,DATA0,...,DATA{DLC-1},flag

with flag ``R`` for benign traffic and ``T`` for injected frames.
Timestamps are written as ``repr(float(t))``, so a generate/serialize/parse
round trip is bit-exact.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
import struct
import sys
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from .errors import CanidsError, ConfigError, ParseError, non_ascii_error, quoted, quoted_value
from .floattext import is_decimal, joined, repr_rows

MAX_STD_ID = 2047  # 11-bit identifiers only; extended frames are rejected


class Label(enum.IntEnum):
    BENIGN = 0
    ATTACK = 1


class CanFrame(NamedTuple):
    """One parsed CAN message with its ground-truth label.

    A named tuple (cheaper to build than a frozen dataclass), so a frame
    also compares equal to the plain tuple of its fields.
    """

    timestamp: float
    can_id: int
    dlc: int
    payload: tuple[int, ...]
    label: Label = Label.BENIGN

    def validate(self):
        if not isinstance(self.timestamp, _REALS):
            raise ParseError(f"timestamp {quoted_value(self.timestamp)} is not a real number")
        for name, value in (("can_id", self.can_id), ("dlc", self.dlc)):
            if not isinstance(value, _INTS):
                raise ParseError(f"{name} {value!r} is not an integer")
        odd = [b for b in self.payload if not isinstance(b, _INTS)]
        if odd:
            raise ParseError(f"payload byte {odd[0]!r} is not an integer")
        if not 0 <= self.can_id <= MAX_STD_ID:
            raise ParseError(f"can_id {self.can_id} outside 11-bit range")
        if not 0 <= self.dlc <= 8:
            raise ParseError(f"dlc {self.dlc} outside [0, 8]")
        if len(self.payload) != self.dlc:
            raise ParseError(
                f"payload length {len(self.payload)} does not match dlc {self.dlc}"
            )
        if self.payload and not (min(self.payload) >= 0 and max(self.payload) <= 255):
            raise ParseError("payload byte outside [0, 255]")
        return self


_INTS = (int, np.integer)  # the types of an ID, a DLC and a payload byte
_REALS = (int, float, np.integer, np.floating)  # the types of a timestamp that is a real number
_LABELS = np.array(list(Label), dtype=object)  # indexed by the attack flag
# builds a CanFrame from its checked fields without the named tuple's generated __new__
_frame = tuple.__new__
# below every finite timestamp, so ``before <= ts < inf`` also rejects nan and -inf on the first row
_BEFORE_FIRST_TS = -sys.float_info.max
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_BLOCK_CHARS = 1 << 20  # the CSV decoders read this many bytes at a time
_MAX_TIMESTAMP = 32  # the most characters of a canonical timestamp
_TAIL = b"\0" * 64  # after a block's text: the farthest that the field windows of a line reach past its start
_NEWLINE, _COMMA, _DOT, _ZERO, _PLUS, _MINUS, _E, _R, _T = b"\n,.0+-eRT"
# lookup tables indexed by a byte: the value of a hex digit, of a DLC digit and of a flag; -1 for any
# other byte
_HEX = np.full(256, -1, dtype=np.int16)
_HEX[list(b"0123456789abcdefABCDEF")] = [*range(16), *range(10, 16)]
_DLC_OF = np.full(256, -1, dtype=np.int64)
_DLC_OF[list(b"012345678")] = range(9)
_FLAG_OF = np.full(256, -1, dtype=np.int8)
_FLAG_OF[list(b"RT")] = [0, 1]
# the byte that two hex digits spell, indexed by their characters read as a little-endian uint16; -1 if
# either is not a hex digit
_BYTE_OF_DIGITS = np.where((_HEX[:, None] >= 0) & (_HEX >= 0), _HEX * 16 + _HEX[:, None], -1).ravel()
_BYTE_SLOTS = np.arange(8)
_ID_SLOTS = np.arange(4)
_ID_WEIGHTS = np.array([[16 ** (n - 1 - j) if j < n else 0 for j in range(4)] for n in range(5)])  # by ID length
_TIMESTAMP_SLOTS = np.arange(_MAX_TIMESTAMP, dtype=np.uint8)
_BLOCK_FRAMES = 1 << 14  # the writer and frame_blocks take this many frames at a time
# the text of each 11-bit CAN ID (four hex digits) and of each byte as a payload field ("xx,")
_ID_TEXT = np.frombuffer(b"".join(b"%04x" % i for i in range(MAX_STD_ID + 1)), dtype=np.uint8).reshape(-1, 4)
_FIELD_TEXT = np.frombuffer(b"".join(b"%02x," % i for i in range(256)), dtype=np.uint8).reshape(-1, 3)


def _digits_of(base: int):
    """Full-match test for a field of one or more digits of ``base``: no sign, prefix, ``_`` or blank."""
    return re.compile(f"[{_DIGITS[:base]}]+", re.IGNORECASE).fullmatch


_is_hex = _digits_of(16)
_DLCS = {str(dlc): dlc for dlc in range(9)}


def _read_int(field: str, base: int, name: str, lineno: int) -> int:
    """``int(field, base)`` of a field of digits of ``base``; ParseError naming the line if it has more
    digits than ``int`` converts (``sys.get_int_max_str_digits()``, 4300 by default, in a base that is
    not a power of 2)."""
    try:
        return int(field, base)
    except ValueError:
        raise ParseError(f"{name} of {len(field)} digits is longer than int() reads", line=lineno) from None


def _parse_dlc(field: str, lineno: int) -> int:
    """The DLC of a field that is not one of "0".."8"."""
    if not field.isdigit():
        raise ParseError(f"bad DLC {quoted(field)}", line=lineno)
    dlc = _read_int(field, 10, "DLC", lineno)
    if dlc > 8:
        raise ParseError(f"DLC {quoted(str(dlc), marks=False)} outside [0, 8]", line=lineno)
    return dlc


def _parse_can_id(field, base, lineno):
    if not _digits_of(base)(field):
        raise ParseError(f"bad CAN ID {quoted(field)}", line=lineno)
    can_id = _read_int(field, base, "CAN ID", lineno)
    if can_id > MAX_STD_ID:
        raise ParseError(f"CAN ID {quoted(field, marks=False)} exceeds 11 bits (extended IDs unsupported)", line=lineno)
    return can_id


def _timestamp_error(ts, last_ts, lineno):
    """The ParseError for a row whose timestamp failed ``last_ts <= ts < inf``."""
    if not math.isfinite(ts):
        return ParseError(f"non-finite timestamp {ts}", line=lineno)
    return ParseError(f"timestamp {ts} decreases (previous {last_ts})", line=lineno)


def _decode_payload(fields: list[str], lineno: int) -> bytes:
    """Payload bytes of one row, each field one or more hex digits with a value up to 0xff."""
    for field in fields:
        if not _is_hex(field):
            raise ParseError(f"non-hex payload byte {quoted(field)}", line=lineno)
    payload = [int(field, 16) for field in fields]
    if any(b > 255 for b in payload):
        raise ParseError("payload byte exceeds 0xff", line=lineno)
    return bytes(payload)


def checked_frame(position: int, frame) -> CanFrame:
    """``frame`` as a CanFrame; ParseError naming its ``position`` unless its ID, DLC and payload
    bytes are in range."""
    try:
        return _frame(CanFrame, frame).validate()
    except ParseError as exc:
        raise ParseError(f"frame {position}: {exc}") from None


class FrameBlock(NamedTuple):
    """Consecutive frames as columns, one entry per frame.

    A block that the Car-Hacking decoder read holds each timestamp as
    decimal text (bytes, numpy dtype ``S``): a canonical line's field, or
    the repr of the float the line loop read. The order check compares that
    text and casts only the rows it cannot clear, and ``frames()`` casts the
    column, as ``float()`` reads it. A block of the generic decoder holds
    float timestamps, and so does one that ``from_frames`` makes of frames
    with float timestamps.
    """

    timestamp: np.ndarray  # (n,) float64, or the decimal text of each (dtype S)
    can_id: np.ndarray  # (n,) int64
    dlc: np.ndarray  # (n,) int64
    payload: np.ndarray  # (n, 8) uint8, zero past each frame's DLC
    attack: np.ndarray  # (n,) bool

    @classmethod
    def from_frames(cls, frames: Sequence[CanFrame], first: int = 0) -> "FrameBlock":
        """The columns of ``frames``, the timestamps as ``np.array`` reads them (float64 if they are floats). A
        frame whose timestamp is not a real number, or whose ID, DLC or payload bytes are not integers in
        range, raises the ParseError of ``checked_frame`` at its position, counted from ``first``."""
        frames = [checked_frame(position, frame) for position, frame in enumerate(frames, start=first)]
        ts, can_id, dlc, payloads, labels = zip(*frames) if frames else ((),) * 5
        dlc = np.array(dlc, dtype=np.int64)
        payload = np.zeros((len(dlc), 8), dtype=np.uint8)
        payload[_BYTE_SLOTS < dlc[:, None]] = np.fromiter(itertools.chain.from_iterable(payloads), np.uint8)
        attack = np.array(labels, dtype=np.int64) == Label.ATTACK
        return cls(np.array(ts), np.array(can_id, dtype=np.int64), dlc, payload, attack)

    def frames(self) -> Iterator[CanFrame]:
        payloads = list(struct.iter_unpack("8B", self.payload.tobytes()))  # each frame's eight byte slots
        dlc = self.dlc.tolist()
        for i in np.flatnonzero(self.dlc < 8).tolist():
            payloads[i] = payloads[i][: dlc[i]]
        labels = _LABELS[self.attack.view(np.uint8)].tolist()
        columns = (self.timestamp.astype(np.float64).tolist(), self.can_id.tolist(), dlc, payloads, labels)
        return map(_frame, repeat(CanFrame), zip(*columns))


def _ids_and_dlcs_ok(can_id: np.ndarray, dlc: np.ndarray) -> bool:
    """Whether ``can_id`` and ``dlc`` have an integer dtype, every ID has 11 bits and every DLC is in [0, 8]."""
    return (
        can_id.dtype.kind in "biu"
        and dlc.dtype.kind in "biu"
        and bool(((can_id >= 0) & (can_id <= MAX_STD_ID) & (dlc >= 0) & (dlc <= 8)).all())
    )


# the dtype of each FrameLog column that must have one; the ID and DLC columns are checked frame by frame
_LOG_DTYPES = {"timestamp": np.dtype(np.float64), "payload": np.dtype(np.uint8), "attack": np.dtype(bool)}
# the bits past each DLC of a frame's eight payload bytes read as one little-endian uint64
_PAST_DLC = np.array([(1 << 64) - (1 << 8 * dlc) for dlc in range(9)], dtype="<u8")


class FrameLog(Sequence[CanFrame]):
    """A read-only sequence of the frames of one FrameBlock (float timestamps), which it keeps as columns.

    The block is checked once, here, and is not to be changed after. Its
    columns must be arrays of one entry per frame: the timestamps float64,
    the payload (n, 8) uint8 and the attack flags bool, or a ParseError
    names the column. Then each ID and DLC must be an integer in range,
    or the ParseError of ``checked_frame`` names the first frame whose ID
    or DLC is not, as it would in the list of the log's frames; the log
    keeps them as int64. A payload byte past its frame's DLC must be zero,
    and every timestamp a finite number, or a ParseError names the first
    frame that breaks the rule.

    ``len`` reads the block. Indexing, slicing and iteration build the
    frames with ``FrameBlock.frames()`` on first use and keep them; a slice
    is a list, and so is ``list(log)``. ``write_car_hacking_csv`` and the
    ``frame_blocks`` of ``build_windows`` read slices of the columns, so
    neither builds the frames.
    """

    def __init__(self, block: FrameBlock):
        _check_log_columns(block)
        if not _ids_and_dlcs_ok(block.can_id, block.dlc):
            for position, (can_id, dlc) in enumerate(zip(block.can_id.tolist(), block.dlc.tolist())):
                # zero bytes to match an integer DLC: checked_frame raises only at a bad ID or DLC
                zeros = (0,) * min(dlc, 8) if isinstance(dlc, _INTS) else ()
                checked_frame(position, (0.0, can_id, dlc, zeros, Label.BENIGN))
        # int64 as from_frames makes them; no copy of the int64 columns that synth makes
        can_id, dlc = (column.astype(np.int64, copy=False) for column in (block.can_id, block.dlc))
        block = block._replace(can_id=can_id, dlc=dlc)
        stray = np.ascontiguousarray(block.payload).view("<u8")[:, 0] & _PAST_DLC[block.dlc]
        if stray.any():
            k = int(np.flatnonzero(stray)[0])
            raise ParseError(f"payload column: frame {k} has a nonzero byte past its dlc {block.dlc[k]}")
        bad = np.flatnonzero(~np.isfinite(block.timestamp))
        if len(bad):
            k = int(bad[0])
            raise ParseError(f"frame {k}: timestamp {block.timestamp[k].tolist()!r} is not a finite number")
        self.block = block

    def __len__(self) -> int:
        return len(self.block.dlc)

    @functools.cached_property
    def _frames(self) -> list[CanFrame]:
        return list(self.block.frames())

    def __getitem__(self, index):
        return self._frames[index]

    def __iter__(self) -> Iterator[CanFrame]:
        return iter(self._frames)


def _check_log_columns(block: FrameBlock):
    """ParseError naming the first column of ``block`` that is not an array of one entry per frame (the
    DLC column's length), (n, 8) for the payload, with its ``_LOG_DTYPES`` dtype."""
    dlc = block.dlc
    n = len(dlc) if isinstance(dlc, np.ndarray) and dlc.ndim == 1 else "n"  # "n": no shape matches
    for name in ("dlc", "timestamp", "can_id", "payload", "attack"):
        column, dtype = getattr(block, name), _LOG_DTYPES.get(name)
        shape = (n, 8) if name == "payload" else (n,)
        if not (isinstance(column, np.ndarray) and column.shape == shape and (dtype is None or column.dtype == dtype)):
            want = f"{dtype}, shape {shape}" if dtype is not None else f"shape {shape}"
            got = f"{column.dtype}, shape {column.shape}" if isinstance(column, np.ndarray) else type(column).__name__
            raise ParseError(f"{name} column: want {want}; got {got}")


def frame_blocks(frames: Iterable[CanFrame]) -> Iterator[tuple[int, FrameBlock]]:
    """The frames of ``frames`` as consecutive FrameBlocks of _BLOCK_FRAMES frames (the last may have
    fewer), each with the position of its first frame.

    A FrameLog's blocks are slices of its columns, which it checked when it
    was made. Any other frames are taken _BLOCK_FRAMES at a time and read
    with ``FrameBlock.from_frames``: a frame whose ID, DLC or payload bytes
    are not integers in range raises the ParseError of ``checked_frame`` at
    its position, before its block is yielded.
    """
    size = _BLOCK_FRAMES
    if isinstance(frames, FrameLog):
        for first in range(0, len(frames), size):
            yield first, FrameBlock(*(column[first : first + size] for column in frames.block))
        return
    frames = iter(frames)
    for first in itertools.count(0, size):
        chunk = list(itertools.islice(frames, size))
        if not chunk:
            return
        yield first, FrameBlock.from_frames(chunk, first)


class _Layout(NamedTuple):
    """Where the fields of one CSV layout are, and the rules in which layouts differ: ``_decode_lines`` reads
    every row through one."""

    columns: tuple[int, int, int, int, int]  # of the timestamp, ID, DLC, first payload byte and label (-1: the last)
    least: int  # the fewest fields of a row
    widths: Sequence[tuple[int, int]]  # the fewest and most fields of a row, by its DLC
    width_error: Callable[[int, int | None, int], CanidsError]  # of n fields (DLC None: too few), at a line
    id_base: int
    labels: Mapping[str, bool]  # whether a label field marks an attack
    other_label: bool | None  # whether any other label field does; None: it is an error


def _car_hacking_width_error(n: int, dlc: int | None, lineno: int) -> ParseError:
    if dlc is None:
        return ParseError(f"expected at least 4 fields, got {n}", line=lineno)
    return ParseError(f"expected {4 + dlc} fields for DLC {dlc}, got {n}", line=lineno)


# the flag, R or T, is the last field; the one layout whose canonical lines _canonical_lines reads
_CAR_HACKING = _Layout((0, 1, 2, 3, -1), 4, [(4 + k, 4 + k) for k in range(9)], _car_hacking_width_error, 16,
                       {"R": False, "T": True}, None)


def parse_car_hacking_csv(path) -> Iterator[CanFrame]:
    """Stream frames from a Car-Hacking layout CSV.

    Raises ParseError (carrying the 1-based line number) on malformed rows,
    on a timestamp that is not a decimal in the form ``repr(float)``
    writes, on a DLC that is not decimal digits, on an ID or payload field
    that is not all hex digits, on extended
    (>11-bit) identifiers, on payload bytes above 0xff, on non-finite or
    decreasing timestamps, and on a non-ASCII byte. The frames before a bad
    row are yielded first. The frames come from ``decode_car_hacking_csv``.
    """
    for block in decode_car_hacking_csv(path):
        yield from block.frames()


def decode_car_hacking_csv(path) -> Iterator[FrameBlock]:
    """The frames of parse_car_hacking_csv as the FrameBlocks of ``_decode_csv``: the canonical lines of a
    block (``_canonical_lines``) are decoded and checked column by column, only the others in the line loop."""
    return _decode_csv(path, _CAR_HACKING)


REQUIRED_COLUMNS = ("timestamp", "id", "dlc", "data", "label")


def check_generic_options(column_map: Mapping[str, int] | None, id_base: int):
    """ConfigError unless ``column_map`` (if given) maps every name in REQUIRED_COLUMNS to an index >= 0
    and ``id_base`` is in [2, 36]."""
    if column_map is not None:
        missing = [name for name in REQUIRED_COLUMNS if name not in column_map]
        if missing:
            raise ConfigError(f"column_map missing entries for {missing}")
        negative = {name: i for name, i in column_map.items() if i < 0}
        if negative:
            raise ConfigError(f"column_map indices must be >= 0, got {quoted(str(negative), marks=False)}")
    if not 2 <= id_base <= 36:
        raise ConfigError(f"id_base must be in [2, 36], got {quoted(str(id_base), marks=False)}")


def decode_generic_labeled_csv(
    path, column_map: Mapping[str, int], attack_markers: frozenset[str] = frozenset({"T", "1"}), id_base: int = 16
) -> Iterator[FrameBlock]:
    """Stream the frames of an arbitrary labeled CSV layout as the FrameBlocks of ``_decode_csv``, every line
    read by the line loop; ``read_frame_log`` makes them one FrameLog.

    ``column_map`` maps the names in REQUIRED_COLUMNS to 0-based column
    indices; ``data`` is the index of the first payload byte column. Any
    label cell contained in ``attack_markers`` maps to ATTACK. The ID
    field holds digits of ``id_base`` only; rows are checked as by
    parse_car_hacking_csv, but a row too narrow for its columns or its
    payload is a ConfigError.
    """
    check_generic_options(column_map, id_base)
    columns = ts, can_id, dlc, data, label = tuple(column_map[name] for name in REQUIRED_COLUMNS)
    least = max(ts, can_id, dlc, label) + 1

    def width_error(n: int, row_dlc: int | None, lineno: int) -> ConfigError:
        if row_dlc is None:
            return ConfigError(f"column_map references column {least - 1} but row has {n} fields", line=lineno)
        return ConfigError(f"payload columns {data}..{data + row_dlc - 1} exceed row width {n}", line=lineno)

    widths, labels = [(data + k, sys.maxsize) for k in range(9)], dict.fromkeys(attack_markers, True)
    return _decode_csv(path, _Layout(columns, least, widths, width_error, id_base, labels, False))


def read_frame_log(blocks: Iterable[FrameBlock]) -> FrameLog:
    """The frames of decoded ``blocks`` as one FrameLog, each timestamp text read as ``float()`` reads it."""
    return FrameLog(concat(block._replace(timestamp=block.timestamp.astype(np.float64)) for block in blocks))


def concat(blocks: Iterable[FrameBlock]) -> FrameBlock:
    """One block of the frames of ``blocks`` (float timestamps), in order; no frames if there are none."""
    return FrameBlock(*map(np.concatenate, zip(_no_frames(0), *blocks)))


def _no_frames(n: int) -> FrameBlock:
    """A block of ``n`` rows of zeros, which hold no frame yet."""
    return FrameBlock(
        np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros((n, 8), dtype=np.uint8),
        np.zeros(n, dtype=bool),
    )


def _decode_csv(path, layout: _Layout) -> Iterator[FrameBlock]:
    """The frames of a CSV file of ``layout`` as FrameBlocks, one for each block of ``_ascii_blocks``, read by
    ``_decode_block``. The rows before a bad row are yielded as one block before its error; a non-ASCII
    byte raises before the rows of its block."""
    last_ts, lineno = _BEFORE_FIRST_TS, 1
    for text in _ascii_blocks(path):
        block, error, lines = _decode_block(text, lineno, last_ts, layout)
        if len(block.dlc):
            last_ts = float(block.timestamp[-1])
            yield block
        if error is not None:
            raise error
        lineno += lines


def _ascii_blocks(path) -> Iterator[bytes]:
    """The lines of the file at ``path``, each ending in ``\\n``, read _BLOCK_CHARS bytes at a time and cut
    after the last line end of each read (the rest starts the next block), each block followed by _TAIL.
    ``\\r\\n`` and ``\\r`` line ends are read as ``\\n``, as text mode reads them, and a last line without one
    gets one. A read that holds a non-ASCII byte raises the ParseError of ``non_ascii_error`` instead."""
    rest, cr = b"", b""  # the text after the last line end; a read's last "\r", whose "\n" may start the next read
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_CHARS):
            if not chunk.isascii():
                raise non_ascii_error(path)
            chunk = cr + chunk
            cr = chunk[-1:] if chunk.endswith(b"\r") else b""
            if b"\r" in chunk:
                chunk = chunk[: len(chunk) - len(cr)].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            rest += chunk
            cut = rest.rfind(b"\n") + 1
            if cut:
                yield b"".join((memoryview(rest)[:cut], _TAIL))  # one copy of the block
                rest = rest[cut:]
    if rest or cr:
        yield rest + b"\n" + _TAIL


def _decode_block(
    text: bytes, lineno: int, last_ts: float, layout: _Layout
) -> tuple[FrameBlock, CanidsError | None, int]:
    """The frames of the ASCII lines of ``text`` (each ending in a newline, numbered from ``lineno``, and
    then _TAIL) up to the first bad one, the error of that line (None if there is none), and the number
    of lines.

    The frames of the line loop are put in among the canonical lines' in line
    order (a layout with no canonical lines keeps the loop's float
    timestamps), and then every timestamp is checked, once: finite and not
    below the one before (``last_ts`` for the first).
    """
    if layout is _CAR_HACKING:
        block, point, keep, _ = _canonical_lines(text)
    else:  # no canonical lines
        n = text.count(b"\n")
        block, point, keep = _no_frames(n), np.full(n, -1), np.zeros(n, dtype=bool)
    odd = np.flatnonzero(~keep)
    error = None
    if len(odd):
        lines = text[: len(text) - len(_TAIL)].decode("ascii").split("\n")
        rows, read, error = _decode_lines(lines, odd.tolist(), lineno, layout)
        if block.timestamp.dtype.kind == "S":  # a float goes in as its repr, the text that float() reads back
            block = block._replace(timestamp=block.timestamp.astype(f"S{_MAX_TIMESTAMP}"))
        for column, values in zip(block, read):
            column[rows] = values
        keep[rows] = True
        if error is not None:
            keep[error.line - lineno :] = False
        kept = np.flatnonzero(keep)
        block, point = FrameBlock(*(column[kept] for column in block)), point[kept]
    ts = block.timestamp
    k = _first_disorder(ts, point, last_ts)
    if k < len(ts):
        before = float(ts[k - 1]) if k else last_ts
        error = _timestamp_error(float(ts[k]), before, lineno + int(np.flatnonzero(keep)[k]))
        block = FrameBlock(*(column[:k] for column in block))
    return block, error, len(keep)


def _first_disorder(ts: np.ndarray, point: np.ndarray, last_ts: float) -> int:
    """The index of the first of the timestamps ``ts`` (decimal texts, or floats) whose value is not finite
    or is below the one before (``last_ts`` for the first); ``len(ts)`` if there is none.

    The rows that ``_byte_ordered`` clears need no cast; only the others are
    read as floats, with the row before each.
    """
    rows = np.flatnonzero(~_byte_ordered(ts, point))
    value = ts[rows].astype(np.float64)
    before = np.where(rows > 0, ts[rows - 1].astype(np.float64), last_ts)
    bad = rows[~((before <= value) & (value < math.inf))]
    return int(bad[0]) if len(bad) else len(ts)


def _byte_ordered(ts: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Whether each decimal text of ``ts`` is shown, by its bytes alone, to be finite and not below the
    text before it (never for the first).

    ``point`` is the offset of the ``.`` of a plain decimal (digits and one
    ``.``, at most 32 characters) and -1 for any other text. Two plain
    decimals with their ``.`` at the same offset compare as their NUL-padded
    bytes do: the digits before the ``.`` are integers of the same length,
    and a shorter fraction pads with NULs, below every digit. As a correctly
    rounded conversion is monotone, their floats are then in order too, and
    a plain decimal of at most 32 characters is finite.
    """
    ordered = np.zeros(len(ts), dtype=bool)
    ordered[1:] = (point[1:] >= 0) & (point[1:] == point[:-1]) & (ts[1:] >= ts[:-1])
    return ordered


def _canonical_lines(text: bytes) -> tuple[FrameBlock, np.ndarray, np.ndarray, np.ndarray]:
    """The canonical lines of ``text`` (lines that each end in a newline, then _TAIL): a FrameBlock with
    one row per line, whose rows of the canonical lines hold their frames; the offset of the ``.`` of each
    canonical line's timestamp if that is a plain decimal (``_byte_ordered``), else -1; the mask of the
    canonical lines; and the offset of each line's newline in ``text``.

    A canonical line is ``timestamp,ID,DLC,B0,...,B{DLC-1},flag``: a
    timestamp of 1 to 32 characters in the form ``repr(float)`` writes, kept
    as its text (its order and finiteness are ``_decode_block``'s to check);
    an ID of one to four hex digits up to 0x7ff; a DLC of one digit 0-8; DLC
    payload fields of exactly two hex digits; and the flag ``R`` or ``T``,
    with no blanks. Every rule is checked with array operations over all the
    lines, each field read from a fixed-width window of the text after the
    field before it.
    """
    b = np.frombuffer(text, dtype=np.uint8)
    size = len(text) - len(_TAIL)  # of the lines
    ends = np.flatnonzero(b == _NEWLINE)  # one per line
    starts = np.concatenate(([0], ends[:-1] + 1))
    # each field from a window after the field before it. On a line with fewer fields, or one past the
    # line's end, some field breaks its rule.
    head = _windows(b, _MAX_TIMESTAMP + 1)[starts]
    width = (head == _COMMA).argmax(axis=1)  # the timestamp's, up to the first comma: 0 if none is in reach
    # the ID: one to four hex digits and a comma. Four digits (what the writer writes) are read as two
    # pairs, other IDs one digit at a time.
    c0 = starts + width
    window = _windows(b, 5)[c0 + 1]
    pairs = _BYTE_OF_DIGITS.take(np.ndarray((len(window), 2), "<u2", window, strides=(5, 2)))
    can_id = pairs[:, 0].astype(np.int64) * 256 + pairs[:, 1]
    id_len = np.full(len(window), 4)
    ok = (window[:, 4] == _COMMA) & (pairs[:, 0] >= 0) & (pairs[:, 1] >= 0)
    other = np.flatnonzero(~ok)
    if len(other):
        id_len[other] = n = (window[other] == _COMMA).argmax(axis=1)
        digits = _HEX.take(window[other, :4])
        can_id[other] = np.einsum("ij,ij->i", digits, _ID_WEIGHTS[n])
        ok[other] = (n > 0) & ((digits >= 0) | (_ID_SLOTS >= n[:, None])).all(axis=1)
    ok &= can_id <= MAX_STD_ID
    # the DLC digit and a comma; DLC slots of two hex digits (read as one little-endian uint16) and a
    # comma; the flag and the line end
    c1 = c0 + 1 + id_len
    dlc = _DLC_OF[b[c1 + 1]]
    slots = _windows(b, 24)[c1 + 3]
    values = _BYTE_OF_DIGITS.take(np.ndarray((len(slots), 8), "<u2", slots, strides=(24, 3)))
    used = _BYTE_SLOTS < dlc[:, None]
    last = c1 + 2 + 3 * dlc
    flag = _FLAG_OF[b[last + 1]]
    ok &= (dlc >= 0) & (b[c1 + 2] == _COMMA) & (flag >= 0) & (ends == last + 2)
    ok &= _rows_all(((values >= 0) & (slots[:, 2::3] == _COMMA)) | ~used)
    payload = np.where(used, values, 0).astype(np.uint8)
    # the timestamp, NUL-padded. A plain one (digits and at most one ".") is a decimal if it has a digit;
    # one that also holds "e", "+" or "-" is matched against the full grammar on its own
    span = max(int(width.max()), 1)
    c = head[:, :span] * (_TIMESTAMP_SLOTS[:span] < width.astype(np.uint8)[:, None])
    row, column = np.divmod(np.flatnonzero(c == _DOT), span)
    dots = np.bincount(row, minlength=len(c))
    plain = _rows_all((c - np.uint8(_ZERO) <= 9) | (c == _DOT) | (c == 0)) & (dots <= 1)
    decimal = plain & (width > dots)
    strings = c.view(f"S{span}").ravel()
    matched = np.flatnonzero(~plain)
    if len(matched):
        rest = c[matched]
        matched = matched[_rows_all((rest - np.uint8(_MINUS) <= 12) | (rest == _PLUS) | (rest == _E) | (rest == 0))]
        decimal[matched] = [is_decimal(s.decode()) is not None for s in strings[matched].tolist()]
    if text.find(b"\0", 0, size) >= 0:  # a NUL in a timestamp would end it early
        decimal[np.searchsorted(ends, np.flatnonzero(b[:size] == 0))] = False
    ok &= decimal
    point = np.full(len(c), -1)
    point[row] = column
    point[~(ok & plain & (dots == 1))] = -1
    return FrameBlock(strings, can_id, dlc, payload, flag == 1), point, ok, ends


def _rows_all(ok: np.ndarray) -> np.ndarray:
    """``ok.all(axis=1)``, taking one reduction over the whole array when every entry holds."""
    return np.ones(len(ok), dtype=bool) if ok.all() else ok.all(axis=1)


def _decode_lines(
    lines: list[str], odd: list[int], lineno: int, layout: _Layout
) -> tuple[np.ndarray, FrameBlock, CanidsError | None]:
    """Read the lines ``odd`` of ``lines`` (the first numbered ``lineno``) one at a time through ``layout``
    up to the first bad one: the indexes of the lines that hold a frame, their frames (float timestamps),
    and the error of the bad line (None if there is none). Timestamps are not compared across lines."""
    (ts_i, id_i, dlc_i, data_i, label_i), least, widths, width_error, id_base, labels, other_label = layout
    at, stamps, can_ids, dlcs, payloads, attacks = [], [], [], [], [], []  # of each frame, and its line's index
    ids: dict[str, int] = {}  # each distinct ID spelling is checked and converted once
    error = None
    try:
        for k in odd:
            raw = lines[k].strip()
            if not raw:
                continue
            fields = raw.split(",")
            n = len(fields)
            if n < least:
                raise width_error(n, None, lineno + k)
            stamp = fields[ts_i]
            if not (stamp.replace(".", "", 1).isdigit() or is_decimal(stamp)):
                raise ParseError(f"bad timestamp {quoted(stamp)}", line=lineno + k)
            can_id = ids.get(fields[id_i])
            if can_id is None:
                can_id = ids[fields[id_i]] = _parse_can_id(fields[id_i], id_base, lineno + k)
            dlc = _DLCS.get(fields[dlc_i])
            if dlc is None:
                dlc = _parse_dlc(fields[dlc_i], lineno + k)
            fewest, most = widths[dlc]
            if not fewest <= n <= most:
                raise width_error(n, dlc, lineno + k)
            # fields of exactly two hex digits each in one call: a space-joined text of 3 * dlc - 1 characters
            # with no empty field (["abcd", ""] joins to two bytes) that gives dlc bytes (fromhex skips blanks)
            data = fields[data_i : data_i + dlc]
            text = " ".join(data)
            try:
                payload = bytes.fromhex(text) if len(text) == 3 * dlc - 1 and "" not in data else None
            except ValueError:
                payload = None
            if payload is None or len(payload) != dlc:
                payload = _decode_payload(data, lineno + k)
            attack = labels.get(fields[label_i], other_label)
            if attack is None:  # the Car-Hacking flag
                raise ParseError(f"unknown flag {quoted(fields[label_i])} (expected R or T)", line=lineno + k)
            at.append(k)
            stamps.append(float(stamp))
            can_ids.append(can_id)
            dlcs.append(dlc)
            payloads.append(payload)
            attacks.append(attack)
    except CanidsError as exc:
        error = exc
    dlc = np.array(dlcs, dtype=np.int64)
    payload = np.zeros((len(dlc), 8), dtype=np.uint8)
    payload[_BYTE_SLOTS < dlc[:, None]] = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    block = FrameBlock(np.array(stamps), np.array(can_ids, dtype=np.int64), dlc, payload, np.array(attacks, dtype=bool))
    return np.array(at, dtype=np.int64), block, error


def write_car_hacking_csv(log: FrameLog, path) -> int:
    """Serialize the frames of ``log`` to the canonical layout, in order. Returns the row count.

    Each timestamp is written as ``repr(float(t))``. The rows of each
    _BLOCK_FRAMES frames of the log's columns, which it checked when it was
    made, are built with array operations and written at once.
    """
    with open(path, "wb") as fh:
        for first in range(0, len(log), _BLOCK_FRAMES):
            fh.write(_block_rows(FrameBlock(*(column[first : first + _BLOCK_FRAMES] for column in log.block))))
    return len(log)


def _block_rows(block: FrameBlock) -> bytes:
    """The CSV rows of the frames of ``block``, whose timestamps are float64; payload fields past a DLC are NUL."""
    fields = _FIELD_TEXT.take(block.payload, axis=0)
    fields[_BYTE_SLOTS >= block.dlc[:, None]] = 0
    return joined(repr_rows(block.timestamp), b",", _ID_TEXT.take(block.can_id, axis=0), b",",
                  (block.dlc + _ZERO)[:, None], b",", fields.reshape(len(fields), 24),
                  np.where(block.attack, _T, _R)[:, None], b"\n").tobytes()
