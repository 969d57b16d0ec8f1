"""CAN log frames, CSV parsers, and the canonical CSV writer.

The canonical on-disk layout is the Car-Hacking one:

    timestamp,ID(hex),DLC,DATA0,...,DATA{DLC-1},flag

with flag ``R`` for benign traffic and ``T`` for injected frames. Floats
are written with ``repr`` so a generate/serialize/parse round trip is
bit-exact.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
import struct
import sys
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from .errors import ConfigError, ParseError, non_ascii_error, open_ascii

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


_FLAG_LABELS = {"R": Label.BENIGN, "T": Label.ATTACK}
_LABELS = np.array(list(Label), dtype=object)  # indexed by the attack flag
# builds a CanFrame from its checked fields without the named tuple's generated __new__
_frame = tuple.__new__
# below every finite timestamp, so ``last_ts <= ts < inf`` also rejects nan and -inf on the first row
_BEFORE_FIRST_TS = -sys.float_info.max
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_BLOCK_CHARS = 1 << 20  # decode_car_hacking_csv reads this many bytes at a time
_MAX_TIMESTAMP = 32  # the most characters of a canonical timestamp
_TAIL = b"\0" * 64  # after a block's text: the farthest that the field windows of a line reach past its start
_NEWLINE, _COMMA, _SLASH, _PLUS, _MINUS, _E = b"\n,/+-e"
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


def _digits_of(base: int):
    """Full-match test for a field of one or more digits of ``base``: no sign, prefix, ``_`` or blank."""
    return re.compile(f"[{_DIGITS[:base]}]+", re.IGNORECASE).fullmatch


_is_hex = _digits_of(16)
_DLCS = {str(dlc): dlc for dlc in range(9)}
# what repr(float) writes: an optional "-", digits with at most one ".", an optional exponent;
# each string matches one way only, so a failing match does not backtrack over its digits.
# "nan", "inf" and "-inf" pass here so that the range check names them as non-finite
DECIMAL = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[-+]?[0-9]+)?|nan|-?inf"
_is_decimal = re.compile(DECIMAL).fullmatch


def _parse_timestamp(field: str, lineno: int) -> float:
    """The timestamp of a field that is not plain digits with at most one ``.``."""
    if not _is_decimal(field):
        raise ParseError(f"bad timestamp {field!r}", line=lineno)
    return float(field)


def _parse_dlc(field: str, lineno: int) -> int:
    """The DLC of a field that is not one of "0".."8"."""
    if not field.isdigit():
        raise ParseError(f"bad DLC {field!r}", line=lineno)
    dlc = int(field)
    if dlc > 8:
        raise ParseError(f"DLC {dlc} outside [0, 8]", line=lineno)
    return dlc


def _parse_byte(field, lineno):
    if not _is_hex(field):
        raise ParseError(f"non-hex payload byte {field!r}", line=lineno)
    return int(field, 16)


def _parse_can_id(field, is_digits, base, lineno):
    if not is_digits(field):
        raise ParseError(f"bad CAN ID {field!r}", line=lineno)
    can_id = int(field, base)
    if can_id > MAX_STD_ID:
        raise ParseError(f"CAN ID {field} exceeds 11 bits (extended IDs unsupported)", line=lineno)
    return can_id


def _timestamp_error(ts, last_ts, lineno):
    """The ParseError for a row whose timestamp failed ``last_ts <= ts < inf``."""
    if not math.isfinite(ts):
        return ParseError(f"non-finite timestamp {ts}", line=lineno)
    return ParseError(f"timestamp {ts} decreases (previous {last_ts})", line=lineno)


def _decode_payload(fields: list[str], lineno: int) -> tuple[int, ...]:
    """Payload bytes of one row, each field a hex number in [0, 0xff].

    A row whose fields are all exactly two hex digits decodes in one
    ``bytes.fromhex`` call. Those are the rows whose space-joined text has
    3n-1 characters, none of whose fields is empty (``["abcd", ""]``
    joins to two valid bytes) and whose text ``fromhex`` turns into n
    bytes (it skips blanks, so ``["  ", "ab"]`` gives one). Any other row
    takes the per-field path, which accepts one or more hex digits per
    field and names the line on error.
    """
    n = len(fields)
    text = " ".join(fields)
    if len(text) == 3 * n - 1 and "" not in fields:
        try:
            payload = bytes.fromhex(text)
        except ValueError:
            pass
        else:
            if len(payload) == n:
                return tuple(payload)
    payload = tuple(_parse_byte(b, lineno) for b in fields)
    if any(b > 255 for b in payload):
        raise ParseError("payload byte exceeds 0xff", line=lineno)
    return payload


def checked_frame(position: int, frame) -> CanFrame:
    """``frame`` as a CanFrame; ParseError naming its ``position`` unless its ID, DLC and payload
    bytes are in range."""
    try:
        return _frame(CanFrame, frame).validate()
    except ParseError as exc:
        raise ParseError(f"frame {position}: {exc}") from None


class FrameBlock(NamedTuple):
    """Consecutive frames as columns, one entry per frame."""

    timestamp: np.ndarray  # (n,) float64
    can_id: np.ndarray  # (n,) int64
    dlc: np.ndarray  # (n,) int64
    payload: np.ndarray  # (n, 8) uint8, zero past each frame's DLC
    attack: np.ndarray  # (n,) bool

    @classmethod
    def from_frames(cls, frames: Sequence[CanFrame], first: int = 0) -> "FrameBlock":
        """The columns of ``frames``. A frame whose ID, DLC or payload is out of range raises the
        ParseError of ``checked_frame`` at its position, counted from ``first``."""
        ts, can_id, dlc, payloads, labels = zip(*frames) if frames else ((),) * 5
        can_id = np.array(can_id, dtype=np.int64)
        dlc = np.array(dlc, dtype=np.int64)
        sizes = np.fromiter(map(len, payloads), dtype=np.int64, count=len(dlc))
        try:
            data = np.frombuffer(b"".join(map(bytes, payloads)), dtype=np.uint8)
        except ValueError:  # a byte outside [0, 255]
            data = None
        if data is None or not ((can_id >= 0) & (can_id <= MAX_STD_ID) & (dlc <= 8) & (sizes == dlc)).all():
            for position, frame in enumerate(frames, start=first):
                checked_frame(position, frame)
        payload = np.zeros((len(dlc), 8), dtype=np.uint8)
        payload[_BYTE_SLOTS < dlc[:, None]] = data
        attack = np.fromiter(labels, dtype=np.int64, count=len(labels)) == Label.ATTACK
        return cls(np.array(ts, dtype=np.float64), can_id, dlc, payload, attack)

    def frames(self) -> Iterator[CanFrame]:
        payloads = list(struct.iter_unpack("8B", self.payload.tobytes()))  # each frame's eight byte slots
        dlc = self.dlc.tolist()
        for i in np.flatnonzero(self.dlc < 8).tolist():
            payloads[i] = payloads[i][: dlc[i]]
        labels = _LABELS[self.attack.view(np.uint8)].tolist()
        columns = (self.timestamp.tolist(), self.can_id.tolist(), dlc, payloads, labels)
        return map(_frame, repeat(CanFrame), zip(*columns))


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
    """The frames of a Car-Hacking layout CSV as FrameBlocks, rows checked as by parse_car_hacking_csv.

    The file is read as bytes, about 1 MB at a time (``_ascii_reads``), each
    read cut after its last line end (the rest starts the next block). The
    canonical lines of a block (``_canonical_lines``) are decoded and checked
    column by column; only its other lines are decoded to text, for the line
    loop (``_decode_lines``), which reads the rarer valid forms and names the
    first bad line. The rows before a bad row are yielded as one block before
    its ParseError; a non-ASCII byte raises before the rows of its block.
    """
    last_ts, lineno, rest = _BEFORE_FIRST_TS, 1, b""
    for chunk in itertools.chain(_ascii_reads(path), [None]):
        if chunk is None:  # the end of the file
            if not rest:
                return
            chunk = b"\n"  # ends the last line
        rest += chunk
        cut = rest.rfind(b"\n") + 1
        if not cut:
            continue
        text, rest = rest[:cut], rest[cut:]
        block, error, lines = _decode_block(text, lineno, last_ts)
        if len(block.dlc):
            last_ts = float(block.timestamp[-1])
            yield block
        if error is not None:
            raise error
        lineno += lines


def _ascii_reads(path) -> Iterator[bytes]:
    """The bytes of the file at ``path``, _BLOCK_CHARS at a time, with ``\\r\\n`` and ``\\r`` line ends
    read as ``\\n``, as text mode reads them. A read that holds a non-ASCII byte raises the ParseError
    of ``non_ascii_error`` instead."""
    cr = b""  # a read's last byte if it is "\r": the next read may start with its "\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_CHARS):
            if not chunk.isascii():
                raise non_ascii_error(path)
            chunk = cr + chunk
            cr = chunk[-1:] if chunk.endswith(b"\r") else b""
            if b"\r" in chunk:
                chunk = chunk[: len(chunk) - len(cr)].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            yield chunk
    if cr:
        yield b"\n"


def _decode_block(text: bytes, lineno: int, last_ts: float) -> tuple[FrameBlock, ParseError | None, int]:
    """The frames of the ASCII lines of ``text`` (each ending in a newline, numbered from ``lineno``) up to
    the first bad one, the ParseError of that line (None if there is none), and the number of lines.

    The frames of the line loop are put in among the canonical lines' in line
    order, and then every timestamp is checked against the one before.
    """
    block, canonical, ends = _canonical_lines(text, last_ts)
    odd = np.flatnonzero(~canonical)
    if not len(odd):
        return block, None, len(ends)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines = [text[a:b].decode("ascii") for a, b in zip(starts[odd].tolist(), ends[odd].tolist())]
    at, frames, error = _decode_lines(lines, (odd + lineno).tolist())
    rows = odd[at]  # the lines whose frames the line loop read
    for column, values in zip(block, FrameBlock.from_frames(frames)):
        column[rows] = values
    keep = canonical
    keep[rows] = True
    if error is not None:
        keep[error.line - lineno :] = False
    kept = np.flatnonzero(keep)
    block = FrameBlock(*(column[kept] for column in block))
    ts = block.timestamp
    before = np.concatenate(([last_ts], ts[:-1]))
    bad = np.flatnonzero(~((before <= ts) & (ts < math.inf)))
    if len(bad):
        k = bad[0]
        error = _timestamp_error(float(ts[k]), float(before[k]), lineno + int(kept[k]))
        block = FrameBlock(*(column[:k] for column in block))
    return block, error, len(ends)


def _canonical_lines(text: bytes, last_ts: float) -> tuple[FrameBlock, np.ndarray, np.ndarray]:
    """The canonical lines of ``text``, every line of which ends in a newline: a FrameBlock with one
    row per line, whose rows of the canonical lines hold their frames; the mask of those lines; and
    the offset of each line's newline in ``text``.

    A canonical line is ``timestamp,ID,DLC,B0,...,B{DLC-1},flag``: a
    timestamp of 1 to 32 characters in the form ``repr(float)`` writes,
    finite and not below the timestamp of the line before (``last_ts`` for
    the first line; none after a line whose timestamp is not of this form);
    an ID of one to four hex digits up to 0x7ff; a DLC of one digit 0-8; DLC
    payload fields of exactly two hex digits; and the flag ``R`` or ``T``,
    with no blanks. Every rule is checked with array operations over all the
    lines, each field read from a fixed-width window of the text after the
    field before it.
    """
    b = np.frombuffer(text + _TAIL, dtype=np.uint8)
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
    # the timestamp, NUL-padded: digits, ".", "e", "+" and "-", not starting with "+". Of such strings,
    # numpy's float conversion (float()'s) takes exactly those that _is_decimal matches, and raises on
    # the rest.
    span = max(int(width.max()), 1)
    c = head[:, :span] * (_TIMESTAMP_SLOTS[:span] < width.astype(np.uint8)[:, None])
    decimal = _rows_all(((c - np.uint8(_MINUS) <= 12) & (c != _SLASH)) | (c == _PLUS) | (c == _E) | (c == 0))
    decimal &= (c[:, 0] != 0) & (c[:, 0] != _PLUS)
    if b"\0" in text:  # a NUL in a timestamp would end it early
        decimal[np.searchsorted(ends, np.flatnonzero(b[: len(text)] == 0))] = False
    strings = c.view(f"S{span}").ravel()
    strings[~decimal] = b"0"
    try:
        ts = strings.astype(np.float64)
    except ValueError:  # a line's timestamp is not a decimal, which makes the block's read stop there
        ts = np.array([float(s) if _is_decimal(s.decode()) else -math.inf for s in strings.tolist()])
    ts[~decimal] = -math.inf
    ok &= np.isfinite(ts) & (ts >= np.concatenate(([last_ts], ts[:-1])))
    return FrameBlock(ts, can_id, dlc, payload, flag == 1), ok, ends


def _rows_all(ok: np.ndarray) -> np.ndarray:
    """``ok.all(axis=1)``, taking one reduction over the whole array when every entry holds."""
    return np.ones(len(ok), dtype=bool) if ok.all() else ok.all(axis=1)


def _decode_lines(lines: list[str], linenos: list[int]) -> tuple[list[int], list[tuple], ParseError | None]:
    """Read ``lines`` (numbered ``linenos``) one at a time up to the first bad one: the indexes of the
    lines that hold a frame, their frames, and the ParseError of the bad line (None if there is none).

    Each line is read on its own: timestamps are not compared across lines.
    """
    at: list[int] = []
    frames: list[tuple] = []
    ids: dict[str, int] = {}  # each distinct ID spelling is checked and converted once
    try:
        for k, (lineno, raw) in enumerate(zip(linenos, lines)):
            raw = raw.strip()
            if not raw:
                continue
            fields = raw.split(",")
            if len(fields) < 4:
                raise ParseError(f"expected at least 4 fields, got {len(fields)}", line=lineno)
            t = fields[0]
            ts = float(t) if t.replace(".", "", 1).isdigit() else _parse_timestamp(t, lineno)
            can_id = ids.get(fields[1])
            if can_id is None:
                can_id = ids[fields[1]] = _parse_can_id(fields[1], _is_hex, 16, lineno)
            dlc = _DLCS.get(fields[2])
            if dlc is None:
                dlc = _parse_dlc(fields[2], lineno)
            if len(fields) != 4 + dlc:
                raise ParseError(
                    f"expected {4 + dlc} fields for DLC {dlc}, got {len(fields)}",
                    line=lineno,
                )
            payload = _decode_payload(fields[3 : 3 + dlc], lineno)
            flag = fields[3 + dlc]
            label = _FLAG_LABELS.get(flag)
            if label is None:
                raise ParseError(f"unknown flag {flag!r} (expected R or T)", line=lineno)
            frames.append((ts, can_id, dlc, payload, label))
            at.append(k)
    except ParseError as exc:
        return at, frames, exc
    return at, frames, None


REQUIRED_COLUMNS = ("timestamp", "id", "dlc", "data", "label")


def parse_generic_labeled_csv(
    path,
    column_map: Mapping[str, int],
    attack_markers: frozenset[str] = frozenset({"T", "1"}),
    id_base: int = 16,
) -> Iterator[CanFrame]:
    """Stream frames from an arbitrary labeled CSV layout.

    ``column_map`` maps the names in REQUIRED_COLUMNS to 0-based column
    indices; ``data`` is the index of the first payload byte column. Any
    label cell contained in ``attack_markers`` maps to ATTACK. The ID
    field holds digits of ``id_base`` only; rows are checked as by
    parse_car_hacking_csv.
    """
    missing = [name for name in REQUIRED_COLUMNS if name not in column_map]
    if missing:
        raise ConfigError(f"column_map missing entries for {missing}")
    negative = {name: i for name, i in column_map.items() if i < 0}
    if negative:
        raise ConfigError(f"column_map indices must be >= 0, got {negative}")
    if not 2 <= id_base <= 36:
        raise ConfigError(f"id_base must be in [2, 36], got {id_base}")
    is_id = _digits_of(id_base)
    ts_i, id_i, dlc_i = (column_map[k] for k in ("timestamp", "id", "dlc"))
    data_i, label_i = column_map["data"], column_map["label"]

    last_ts, inf = _BEFORE_FIRST_TS, math.inf
    ids: dict[str, int] = {}
    with open_ascii(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            fields = raw.split(",")
            width_needed = max(ts_i, id_i, dlc_i, label_i) + 1
            if len(fields) < width_needed:
                raise ConfigError(
                    f"line {lineno}: column_map references column "
                    f"{width_needed - 1} but row has {len(fields)} fields"
                )
            t = fields[ts_i]
            ts = float(t) if t.replace(".", "", 1).isdigit() else _parse_timestamp(t, lineno)
            can_id = ids.get(fields[id_i])
            if can_id is None:
                can_id = ids[fields[id_i]] = _parse_can_id(fields[id_i], is_id, id_base, lineno)
            dlc = _DLCS.get(fields[dlc_i])
            if dlc is None:
                dlc = _parse_dlc(fields[dlc_i], lineno)
            if len(fields) < data_i + dlc:
                raise ConfigError(
                    f"line {lineno}: payload columns {data_i}..{data_i + dlc - 1} "
                    f"exceed row width {len(fields)}"
                )
            payload = _decode_payload(fields[data_i : data_i + dlc], lineno)
            label = Label.ATTACK if fields[label_i] in attack_markers else Label.BENIGN
            if not last_ts <= ts < inf:
                raise _timestamp_error(ts, last_ts, lineno)
            last_ts = ts
            yield _frame(CanFrame, (ts, can_id, dlc, payload, label))


def format_car_hacking_row(frame: CanFrame) -> str:
    timestamp, can_id, dlc, payload, label = frame
    flag = "T" if label == Label.ATTACK else "R"
    if not payload:  # DLC 0: no empty payload field
        return f"{timestamp!r},{can_id:04x},{dlc},{flag}"
    return f"{timestamp!r},{can_id:04x},{dlc},{bytes(payload).hex(',')},{flag}"


def write_car_hacking_csv(frames: Iterable[CanFrame], path) -> int:
    """Serialize frames to the canonical layout. Returns the row count."""
    n = 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for frame in frames:
            fh.write(format_car_hacking_row(frame) + "\n")
            n += 1
    return n
