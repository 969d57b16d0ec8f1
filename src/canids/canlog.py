"""CAN log frames, CSV parsers, and the canonical CSV writer.

The canonical on-disk layout is the Car-Hacking one:

    timestamp,ID(hex),DLC,DATA0,...,DATA{DLC-1},flag

with flag ``R`` for benign traffic and ``T`` for injected frames. Floats
are written with ``repr`` so a generate/serialize/parse round trip is
bit-exact.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from .errors import ConfigError, ParseError, open_ascii

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
        if any(not 0 <= b <= 255 for b in self.payload):
            raise ParseError("payload byte outside [0, 255]")
        return self


_FLAG_LABELS = {"R": Label.BENIGN, "T": Label.ATTACK}
# builds a CanFrame from its checked fields without the named tuple's generated __new__
_frame = tuple.__new__
# below every finite timestamp, so ``last_ts <= ts < inf`` also rejects nan and -inf on the first row
_BEFORE_FIRST_TS = -sys.float_info.max
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_BLOCK_CHARS = 1 << 20  # decode_car_hacking_csv reads whole lines about this many characters at a time
_PAD = "\0" * 32  # around a block's text, so that every field window lies inside it; also the longest array-path timestamp
_NEWLINE, _COMMA, _PLUS, _ZERO, _R, _T = b"\n,+0RT"
_HEX = np.full(256, -1, dtype=np.int16)  # the value of a hex digit's byte, -1 for any other byte
_HEX[list(b"0123456789abcdefABCDEF")] = [*range(16), *range(10, 16)]
# the byte that two hex digits spell, indexed by their characters read as a little-endian uint16; -1 if
# either is not a hex digit
_BYTE_OF_DIGITS = np.where((_HEX[:, None] >= 0) & (_HEX >= 0), _HEX * 16 + _HEX[:, None], -1).ravel()
_BYTE_SLOTS = np.arange(8)
_ID_SLOTS = np.arange(4)
_ID_WEIGHTS = 16 ** np.arange(3, -1, -1)


def _digits_of(base: int):
    """Full-match test for a field of one or more digits of ``base``: no sign, prefix, ``_`` or blank."""
    return re.compile(f"[{_DIGITS[:base]}]+", re.IGNORECASE).fullmatch


_is_hex = _digits_of(16)
_DLCS = {str(dlc): dlc for dlc in range(9)}
# what repr(float) writes: an optional "-", digits with at most one ".", an optional exponent;
# "nan", "inf" and "-inf" pass here so that the range check names them as non-finite
_is_decimal = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?|nan|-?inf").fullmatch


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


class FrameBlock(NamedTuple):
    """Consecutive frames as columns, one entry per frame."""

    timestamp: np.ndarray  # (n,) float64
    can_id: np.ndarray  # (n,) int64
    dlc: np.ndarray  # (n,) int64
    payload: np.ndarray  # (n, 8) uint8, zero past each frame's DLC
    attack: np.ndarray  # (n,) bool

    @classmethod
    def from_frames(cls, frames: Sequence[CanFrame]) -> "FrameBlock":
        ts, can_id, dlc, payloads, labels = zip(*frames) if frames else ((),) * 5
        dlc = np.array(dlc, dtype=np.int64)
        payload = np.zeros((len(dlc), 8), dtype=np.uint8)
        payload[_BYTE_SLOTS < dlc[:, None]] = np.frombuffer(b"".join(map(bytes, payloads)), dtype=np.uint8)
        attack = np.fromiter(labels, dtype=np.int64, count=len(labels)) == Label.ATTACK
        return cls(np.array(ts, dtype=np.float64), np.array(can_id, dtype=np.int64), dlc, payload, attack)

    def frames(self) -> Iterator[CanFrame]:
        labels = (Label.BENIGN, Label.ATTACK)
        rows = map(tuple, self.payload.tolist())
        columns = (c.tolist() for c in (self.timestamp, self.can_id, self.dlc))
        for ts, can_id, dlc, row, attack in zip(*columns, rows, self.attack.tolist()):
            yield _frame(CanFrame, (ts, can_id, dlc, row if dlc == 8 else row[:dlc], labels[attack]))


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

    Whole lines are read about 1 MB at a time. A block whose every line is
    canonical (``_canonical_block``) is decoded and checked column by
    column; any other block goes through the line loop
    (``_decode_lines``), which reads the rarer valid forms and names the
    first bad line. The rows before a bad row are yielded as one block
    before its ParseError; a non-ASCII byte raises before the rows of its
    block.
    """
    last_ts, lineno = _BEFORE_FIRST_TS, 1
    with open_ascii(path) as fh:
        while lines := fh.readlines(_BLOCK_CHARS):
            error = None
            block = _canonical_block(lines, last_ts)
            if block is None:
                block, error = _decode_lines(lines, lineno, last_ts)
            if len(block.dlc):
                last_ts = float(block.timestamp[-1])
                yield block
            if error is not None:
                raise error
            lineno += len(lines)


def _canonical_block(lines: list[str], last_ts: float) -> FrameBlock | None:
    """The frames of ``lines`` if every line is canonical, else None.

    A canonical line is ``timestamp,ID,DLC,B0,...,B{DLC-1},flag``: a
    timestamp of 1 to 32 characters in the form ``repr(float)`` writes,
    finite and not below ``last_ts`` or the line before; an ID of one to
    four hex digits up to 0x7ff; a DLC of one digit 0-8; DLC payload fields
    of exactly two hex digits; and the flag ``R`` or ``T``, with no blanks.
    Every rule is checked with array operations over the whole block, each
    field read from a fixed-width window of the text at its line's commas.
    """
    text = "".join(lines)
    if not text.endswith("\n"):  # the last line of the file
        text += "\n"
    b = np.frombuffer(f"{_PAD}{text}{_PAD}".encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(b == _NEWLINE)  # one per line
    starts = np.concatenate(([len(_PAD)], ends[:-1] + 1))
    commas = np.flatnonzero(b == _COMMA)
    per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    if not ((per_line >= 3) & (per_line <= 11)).all():
        return None
    first = np.cumsum(per_line) - per_line  # each line's first comma in ``commas``
    c0, c1, c2 = commas[first], commas[first + 1], commas[first + 2]
    dlc = b[c1 + 1].astype(np.int64) - _ZERO
    if not ((c2 - c1 == 2) & (dlc >= 0) & (per_line == dlc + 3)).all():  # so the DLC is at most 8
        return None
    # payload and flag: DLC slots of two hex digits and a comma, then the flag and the line end. The
    # line's other DLC commas can then only be the slots' third characters.
    last = c2 + 3 * dlc
    flag = b[last + 1]
    digits = _windows(b, 24)[c2 + 1].reshape(-1, 8, 3)[:, :, :2]
    values = _BYTE_OF_DIGITS.take(digits.copy().view("<u2")[:, :, 0])
    used = _BYTE_SLOTS < dlc[:, None]
    if not ((ends == last + 2) & ((flag == _R) | (flag == _T)) & ((values >= 0) | ~used).all(axis=1)).all():
        return None
    payload = np.where(used, values, 0).astype(np.uint8)
    # the ID: one to four hex digits, read from the four characters before its comma
    id_len = c1 - c0 - 1
    in_id = _ID_SLOTS >= 4 - id_len[:, None]
    digits = _HEX.take(_windows(b, 4)[c1 - 4])
    can_id = np.where(in_id, digits, 0) @ _ID_WEIGHTS
    if not ((id_len >= 1) & (id_len <= 4) & ((digits >= 0) | ~in_id).all(axis=1) & (can_id <= MAX_STD_ID)).all():
        return None
    # the timestamp: the characters before the first comma, NUL-padded. Of strings of digits, ".", "e",
    # "+" and "-" that do not start with "+", numpy's float conversion (float()'s) takes exactly those
    # that _is_decimal matches, and raises on the rest.
    width = c0 - starts
    span = int(width.max())
    if width.min() < 1 or span > len(_PAD):
        return None
    chars = _windows(b, span)[starts]
    pad = np.arange(span) >= width[:, None]
    ok = ((chars - _ZERO) < 10) | pad
    for char in b".e+-":
        ok |= chars == char
    if not (ok.all() and (chars[:, 0] != _PLUS).all()):
        return None
    chars[pad] = 0
    try:
        ts = chars.view(f"S{span}").ravel().astype(np.float64)
    except ValueError:
        return None
    if not (np.isfinite(ts[-1]) and ts[0] >= last_ts and (ts[1:] >= ts[:-1]).all()):
        return None
    return FrameBlock(ts, can_id, dlc, payload, flag == _T)


def _decode_lines(lines: list[str], lineno: int, last_ts: float) -> tuple[FrameBlock, ParseError | None]:
    """The frames of ``lines`` (numbered from ``lineno``) up to the first bad one, read one line at a
    time, and the ParseError of that line (None if there is none)."""
    frames: list[tuple] = []
    inf = math.inf
    ids: dict[str, int] = {}  # each distinct ID spelling is checked and converted once
    try:
        for lineno, raw in enumerate(lines, start=lineno):
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
            if not last_ts <= ts < inf:
                raise _timestamp_error(ts, last_ts, lineno)
            last_ts = ts
            frames.append((ts, can_id, dlc, payload, label))
    except ParseError as exc:
        return FrameBlock.from_frames(frames), exc
    return FrameBlock.from_frames(frames), None


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
