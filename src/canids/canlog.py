"""CAN log frames, CSV parsers, and the canonical CSV writer.

The canonical on-disk layout is the Car-Hacking one:

    timestamp,ID(hex),DLC,DATA0,...,DATA{DLC-1},flag

with flag ``R`` for benign traffic and ``T`` for injected frames. Floats
are written with ``repr`` so a generate/serialize/parse round trip is
bit-exact.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ConfigError, ParseError

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


def _parse_hex(field, what, lineno):
    try:
        return int(field, 16)
    except ValueError:
        raise ParseError(f"non-hex {what} {field!r}", line=lineno) from None


def _decode_payload(fields: list[str], lineno: int) -> tuple[int, ...]:
    """Payload bytes of one row, each field a hex number in [0, 0xff].

    A row whose fields are all exactly two hex digits decodes in one
    ``bytes.fromhex`` call. Those are the rows whose space-joined text has
    3n-1 characters, none of whose fields is empty (``["abcd", ""]``
    joins to two valid bytes) and whose text ``fromhex`` turns into n
    bytes (it skips blanks, so ``["  ", "ab"]`` gives one). Any other row
    takes the per-field path, which accepts what ``int(field, 16)``
    accepts and names the line on error.
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
    payload = tuple(_parse_hex(b, "payload byte", lineno) for b in fields)
    if any(b > 255 for b in payload):
        raise ParseError("payload byte exceeds 0xff", line=lineno)
    if any(b < 0 for b in payload):
        raise ParseError("negative payload byte", line=lineno)
    return payload


def parse_car_hacking_csv(path) -> Iterator[CanFrame]:
    """Stream frames from a Car-Hacking layout CSV.

    Raises ParseError (carrying the 1-based line number) on malformed rows,
    on negative or extended (>11-bit) identifiers, on payload bytes
    outside [0, 0xff], and on timestamp regressions.
    """
    last_ts = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            fields = raw.split(",")
            if len(fields) < 4:
                raise ParseError(f"expected at least 4 fields, got {len(fields)}", line=lineno)
            try:
                ts = float(fields[0])
            except ValueError:
                raise ParseError(f"bad timestamp {fields[0]!r}", line=lineno) from None
            can_id = _parse_hex(fields[1], "CAN ID", lineno)
            if can_id > MAX_STD_ID:
                raise ParseError(
                    f"CAN ID 0x{can_id:x} exceeds 11 bits (extended IDs unsupported)",
                    line=lineno,
                )
            if can_id < 0:
                raise ParseError(f"negative CAN ID {fields[1]!r}", line=lineno)
            try:
                dlc = int(fields[2])
            except ValueError:
                raise ParseError(f"bad DLC {fields[2]!r}", line=lineno) from None
            if not 0 <= dlc <= 8:
                raise ParseError(f"DLC {dlc} outside [0, 8]", line=lineno)
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
            if last_ts is not None and ts < last_ts:
                raise ParseError(f"timestamp {ts} decreases (previous {last_ts})", line=lineno)
            last_ts = ts
            yield CanFrame(ts, can_id, dlc, payload, label)


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
    label cell contained in ``attack_markers`` maps to ATTACK.
    """
    missing = [name for name in REQUIRED_COLUMNS if name not in column_map]
    if missing:
        raise ConfigError(f"column_map missing entries for {missing}")
    ts_i, id_i, dlc_i = (column_map[k] for k in ("timestamp", "id", "dlc"))
    data_i, label_i = column_map["data"], column_map["label"]

    last_ts = None
    with open(path, "r", encoding="ascii") as fh:
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
            try:
                ts = float(fields[ts_i])
            except ValueError:
                raise ParseError(f"bad timestamp {fields[ts_i]!r}", line=lineno) from None
            try:
                can_id = int(fields[id_i], id_base)
            except ValueError:
                raise ParseError(f"bad CAN ID {fields[id_i]!r}", line=lineno) from None
            if can_id > MAX_STD_ID or can_id < 0:
                raise ParseError(f"CAN ID {can_id} outside 11-bit range", line=lineno)
            try:
                dlc = int(fields[dlc_i])
            except ValueError:
                raise ParseError(f"bad DLC {fields[dlc_i]!r}", line=lineno) from None
            if not 0 <= dlc <= 8:
                raise ParseError(f"DLC {dlc} outside [0, 8]", line=lineno)
            if len(fields) < data_i + dlc:
                raise ConfigError(
                    f"line {lineno}: payload columns {data_i}..{data_i + dlc - 1} "
                    f"exceed row width {len(fields)}"
                )
            payload = _decode_payload(fields[data_i : data_i + dlc], lineno)
            label = Label.ATTACK if fields[label_i] in attack_markers else Label.BENIGN
            if last_ts is not None and ts < last_ts:
                raise ParseError(f"timestamp {ts} decreases (previous {last_ts})", line=lineno)
            last_ts = ts
            yield CanFrame(ts, can_id, dlc, payload, label)


def format_car_hacking_row(frame: CanFrame) -> str:
    parts = [repr(frame.timestamp), f"{frame.can_id:04x}", str(frame.dlc)]
    parts.extend(f"{b:02x}" for b in frame.payload)
    parts.append("T" if frame.label == Label.ATTACK else "R")
    return ",".join(parts)


def write_car_hacking_csv(frames: Iterable[CanFrame], path) -> int:
    """Serialize frames to the canonical layout. Returns the row count."""
    n = 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for frame in frames:
            fh.write(format_car_hacking_row(frame))
            fh.write("\n")
            n += 1
    return n
