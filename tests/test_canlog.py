"""CSV parsing, the canonical writer, and the frame container.

``per_field_parse_car_hacking_csv`` is a reference Car-Hacking parser
that decodes one payload field at a time, each field checked against the
row grammar (hex digits only) before ``int(field, 16)``. The parser,
which decodes most payloads in one ``bytes.fromhex`` call, must agree
with it on every row, valid or not. The block tests shrink
``decode_car_hacking_csv``'s block size, so that bad lines, timestamp
checks and windows fall across block boundaries.
"""

import importlib
import math
import pkgutil
import random
import re
import time
from re import _constants, _parser

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import canids
from canids import canlog, cli
from canids.canlog import (
    CanFrame,
    FrameBlock,
    Label,
    decode_car_hacking_csv,
    format_car_hacking_row,
    parse_car_hacking_csv,
    parse_generic_labeled_csv,
    write_car_hacking_csv,
)
from canids.errors import ConfigError, ParseError
from canids.graphs import save_graph_cache
from helpers import loop_windows, per_field_format_car_hacking_row, random_frames


def write_lines(tmp_path, lines, name="log.csv"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


def test_parse_documented_row(tmp_path):
    p = write_lines(tmp_path, ["1478198376.389427,0316,8,05,21,68,09,21,21,00,6f,R"])
    [frame] = list(parse_car_hacking_csv(p))
    assert frame.can_id == 0x316 == 790
    assert frame.dlc == 8
    assert frame.payload == (0x05, 0x21, 0x68, 0x09, 0x21, 0x21, 0x00, 0x6F)
    assert frame.label == Label.BENIGN
    assert frame.timestamp == 1478198376.389427


def test_flag_t_maps_to_attack(tmp_path):
    p = write_lines(tmp_path, ["1.0,0316,2,aa,bb,T"])
    [frame] = list(parse_car_hacking_csv(p))
    assert frame.label == Label.ATTACK


def test_malformed_row_carries_line_number(tmp_path):
    p = write_lines(tmp_path, ["1.0,0316,0,R", "bad,row"])
    with pytest.raises(ParseError) as err:
        list(parse_car_hacking_csv(p))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "row",
    [
        "1.0,zzzz,2,aa,bb,R",  # non-hex id
        "1.0,0316,9,aa,R",  # dlc out of range
        "1.0,0316,3,aa,bb,R",  # payload shorter than dlc
        "1.0,0316,1,aa,bb,R",  # payload longer than dlc
        "1.0,0316,1,aa,X",  # unknown flag
        "1.0,800,0,R",  # 0x800 = 2048 exceeds 11 bits
        "1.0,-7ff,2,-1,aa,R",  # negative id (and byte)
        "1.0,0316,2,-1,aa,R",  # negative payload byte
        "1.0,0316,2,aa,1ff,R",  # payload byte exceeds 0xff
        "1.0,0316,2,abcd,,R",  # right byte count once joined, wrong fields
        "1.0,0316,2,  ,ab,R",  # a blank field, which bytes.fromhex would skip
        "1.0,0316,2,ab cd,  ,R",  # a space inside a field, a blank one after it
        "1.0,0x10,0,R",  # prefixes, signs, underscores and blanks are not hex digits
        "1.0,0X10,0,R",
        "1.0,+10,0,R",
        "1.0,1_0,0,R",
        "1.0, 10,0,R",
        "1.0,0316,1,0x1,R",
        "1.0,0316,1,+f,R",
        "1.0,0316,2,1_f,aa,R",
        "1.0,0316,2,aa, f,R",
        "nan,0316,0,R",  # non-finite timestamps
        "inf,0316,0,R",
        "-inf,0316,0,R",
        "1_0.5,0316,0,R",  # underscores, blanks and a leading + are not decimal
        "11.0 ,0316,0,R",  # a blank inside the field (the row's own ends are stripped)
        "+2,0316,0,R",
        "1.0,0316, 2 ,aa,bb,R",
        "1.0,0316,0_2,aa,bb,R",
        "1.0,0316,+2,aa,bb,R",
    ],
)
def test_bad_rows_rejected(tmp_path, row):
    p = write_lines(tmp_path, [row])
    with pytest.raises(ParseError) as err:
        list(parse_car_hacking_csv(p))
    assert err.value.line == 1


@pytest.mark.parametrize("parser", ["car-hacking", "generic"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("1_0.5,0316,2,aa,bb,R", "bad timestamp '1_0.5'"),
        ("11.0 ,0316,2,aa,bb,R", "bad timestamp '11.0 '"),
        ("+2,0316,2,aa,bb,R", "bad timestamp '+2'"),
        ("1.0.0,0316,2,aa,bb,R", "bad timestamp '1.0.0'"),
        ("Infinity,0316,2,aa,bb,R", "bad timestamp 'Infinity'"),
        ("1.0,0316,+2,aa,bb,R", "bad DLC '+2'"),
        ("1.0,0316, 2 ,aa,bb,R", "bad DLC ' 2 '"),
        ("1.0,0316,0_2,aa,bb,R", "bad DLC '0_2'"),
        ("1.0,0316,-1,aa,bb,R", "bad DLC '-1'"),
        ("1.0,0316,9,aa,bb,R", "DLC 9 outside [0, 8]"),
        ("1.0,0316,12,aa,bb,R", "DLC 12 outside [0, 8]"),
    ],
)
def test_timestamp_and_dlc_are_strict_decimals(tmp_path, parser, row, message):
    p = write_lines(tmp_path, ["0.5,0316,2,aa,bb,R", row])
    frames = parse_car_hacking_csv(p) if parser == "car-hacking" else parse_generic_labeled_csv(p, GENERIC_MAP)
    with pytest.raises(ParseError) as err:
        list(frames)
    assert err.value.line == 2 and message in str(err.value)


@pytest.mark.parametrize("parser", ["car-hacking", "generic"])
def test_timestamps_in_repr_form_parse(tmp_path, parser):
    stamps = [-1.5, -0.0, 0.0, 2.5e-07, 1e-05, 3.0, 1478198376.389427, 1e16, 1.5e300]
    p = write_lines(tmp_path, [f"{t!r},0316,2,aa,bb,R" for t in stamps] + ["1.5e300,0316,02,aa,bb,R"])
    frames = parse_car_hacking_csv(p) if parser == "car-hacking" else parse_generic_labeled_csv(p, GENERIC_MAP)
    frames = list(frames)
    assert [f.timestamp for f in frames] == stamps + [1.5e300]
    assert all(f.dlc == 2 for f in frames)  # "02" is decimal digits too


def test_one_to_three_hex_digits_are_a_byte(tmp_path):
    p = write_lines(tmp_path, ["1.0,316,3,f,0A,0ff,R"])
    [frame] = list(parse_car_hacking_csv(p))
    assert frame.can_id == 0x316 and frame.payload == (0x0F, 0x0A, 0xFF)


GENERIC_MAP = {"timestamp": 0, "id": 1, "dlc": 2, "data": 3, "label": 5}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("parser", ["car-hacking", "generic"])
def test_non_finite_timestamp_rejected(tmp_path, parser, value):
    # a nan must not switch off the regression check for the row after it
    p = write_lines(tmp_path, ["5.0,0316,2,aa,bb,R", f"{value},0316,2,aa,bb,R", "1.0,0316,2,aa,bb,R"])
    frames = parse_car_hacking_csv(p) if parser == "car-hacking" else parse_generic_labeled_csv(p, GENERIC_MAP)
    with pytest.raises(ParseError, match="non-finite timestamp") as err:
        list(frames)
    assert err.value.line == 2


@pytest.mark.parametrize("parser", ["car-hacking", "generic"])
def test_non_ascii_byte_names_its_line(tmp_path, parser):
    rows = [f"{k / 1000!r},0316,2,aa,bb,R" for k in range(5000)]
    rows[4321] = rows[4321].replace(",R", ",\u00e9R")
    p = write_lines(tmp_path, rows)
    frames = parse_car_hacking_csv(p) if parser == "car-hacking" else parse_generic_labeled_csv(p, GENERIC_MAP)
    with pytest.raises(ParseError, match="non-ASCII") as err:
        list(frames)
    assert err.value.line == 4322 and str(p) in str(err.value)


def test_timestamp_regression_rejected(tmp_path):
    p = write_lines(tmp_path, ["2.0,0316,0,R", "1.0,0316,0,R"])
    with pytest.raises(ParseError) as err:
        list(parse_car_hacking_csv(p))
    assert err.value.line == 2


def test_generic_parse_and_column_errors(tmp_path):
    p = write_lines(tmp_path, ["0.5,316,2,aa,bb,x,x,x,x,x,x,T"])
    cmap = {"timestamp": 0, "id": 1, "dlc": 2, "data": 3, "label": 11}
    [frame] = list(parse_generic_labeled_csv(p, cmap))
    assert frame.can_id == 0x316 and frame.label == Label.ATTACK

    with pytest.raises(ConfigError):
        list(parse_generic_labeled_csv(p, {**cmap, "label": 99}))
    with pytest.raises(ConfigError):
        list(parse_generic_labeled_csv(p, {"timestamp": 0, "id": 1}))


@pytest.mark.parametrize("byte", ["-1", "1ff", "zz", "", "0x1", "+f", "1_f"])
def test_generic_bad_payload_byte_rejected(tmp_path, byte):
    p = write_lines(tmp_path, ["0.5,316,2,aa,bb,T", f"0.6,316,2,{byte},bb,T"])
    cmap = {"timestamp": 0, "id": 1, "dlc": 2, "data": 3, "label": 5}
    with pytest.raises(ParseError) as err:
        list(parse_generic_labeled_csv(p, cmap))
    assert err.value.line == 2


def test_generic_custom_markers_and_base(tmp_path):
    p = write_lines(tmp_path, ["0.5,790,1,ff,attack", "0.6,790,1,7f,normal"])
    cmap = {"timestamp": 0, "id": 1, "dlc": 2, "data": 3, "label": 4}
    frames = list(
        parse_generic_labeled_csv(p, cmap, attack_markers=frozenset({"attack"}), id_base=10)
    )
    assert [f.label for f in frames] == [Label.ATTACK, Label.BENIGN]
    assert frames[0].can_id == 790


@pytest.mark.parametrize(
    "can_id, base", [("0x316", 16), ("0X316", 16), ("+316", 16), ("3_16", 16), ("+790", 10), (" 790", 10), ("31a", 10)]
)
def test_generic_id_must_be_digits_of_its_base(tmp_path, can_id, base):
    p = write_lines(tmp_path, [f"0.5,{can_id},1,ff,T"])
    cmap = {"timestamp": 0, "id": 1, "dlc": 2, "data": 3, "label": 4}
    with pytest.raises(ParseError) as err:
        list(parse_generic_labeled_csv(p, cmap, id_base=base))
    assert err.value.line == 1


@pytest.mark.parametrize("base", [0, 1, 37])
def test_generic_id_base_outside_2_to_36_rejected(tmp_path, base):
    p = write_lines(tmp_path, ["0.5,316,1,ff,T"])
    cmap = {"timestamp": 0, "id": 1, "dlc": 2, "data": 3, "label": 4}
    with pytest.raises(ConfigError):
        list(parse_generic_labeled_csv(p, cmap, id_base=base))


def test_generic_empty_file(tmp_path):
    p = write_lines(tmp_path, [])
    cmap = {"timestamp": 0, "id": 1, "dlc": 2, "data": 3, "label": 4}
    assert list(parse_generic_labeled_csv(p, cmap)) == []


def test_round_trip_write_parse(tmp_path):
    frames = [
        CanFrame(0.25, 0x7FF, 0, (), Label.BENIGN),
        CanFrame(0.5, 0x0, 3, (1, 128, 255), Label.ATTACK),
        CanFrame(1478198376.389427, 790, 8, (5, 33, 104, 9, 33, 33, 0, 111), Label.BENIGN),
    ]
    p = tmp_path / "out.csv"
    assert write_car_hacking_csv(frames, p) == 3
    assert list(parse_car_hacking_csv(p)) == frames


frame_strategy = st.builds(
    CanFrame,
    timestamp=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    can_id=st.integers(min_value=0, max_value=2047),
    dlc=st.just(0),
    payload=st.just(()),
    label=st.sampled_from([Label.BENIGN, Label.ATTACK]),
).flatmap(
    lambda f: st.integers(min_value=0, max_value=8).flatmap(
        lambda dlc: st.tuples(*[st.integers(0, 255)] * dlc).map(
            lambda payload: CanFrame(f.timestamp, f.can_id, dlc, payload, f.label)
        )
    )
)


@given(st.lists(frame_strategy, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_parser_outputs_satisfy_frame_invariants(tmp_path_factory, frames):
    frames.sort(key=lambda f: f.timestamp)
    p = tmp_path_factory.mktemp("fuzz") / "log.csv"
    write_car_hacking_csv(frames, p)
    for frame in parse_car_hacking_csv(p):
        frame.validate()
        assert 0 <= frame.can_id <= 2047
        assert len(frame.payload) == frame.dlc


def test_format_row_matches_layout():
    row = format_car_hacking_row(CanFrame(1.5, 0x316, 2, (0x0A, 0xFF), Label.ATTACK))
    assert row == "1.5,0316,2,0a,ff,T"
    assert format_car_hacking_row(CanFrame(0.25, 0x7FF, 0, ())) == "0.25,07ff,0,R"


@given(st.lists(frame_strategy, max_size=40))
@settings(max_examples=100, deadline=None)
def test_format_row_matches_per_field_reference(tmp_path_factory, frames):
    p = tmp_path_factory.mktemp("rows") / "log.csv"
    assert write_car_hacking_csv(frames, p) == len(frames)
    assert p.read_bytes() == "".join(per_field_format_car_hacking_row(f) + "\n" for f in frames).encode()


def test_frame_is_an_immutable_hashable_record():
    frame = CanFrame(0.5, 0x316, 2, (1, 2))
    assert frame._fields == ("timestamp", "can_id", "dlc", "payload", "label")
    assert frame.label is Label.BENIGN
    assert frame == CanFrame(0.5, 0x316, 2, (1, 2), Label.BENIGN)
    assert frame != CanFrame(0.5, 0x316, 2, (1, 3))
    assert frame == (0.5, 0x316, 2, (1, 2), Label.BENIGN)  # a named tuple
    assert len({frame, CanFrame(0.5, 0x316, 2, (1, 2))}) == 1
    with pytest.raises(AttributeError):
        frame.can_id = 1
    with pytest.raises(AttributeError):
        frame.extra = 1
    assert frame.validate() is frame
    with pytest.raises(ParseError):
        CanFrame(0.5, -1, 0, ()).validate()
    with pytest.raises(ParseError):
        CanFrame(0.5, 1, 1, (-1,)).validate()


@given(st.lists(frame_strategy, max_size=40))
@settings(max_examples=100, deadline=None)
def test_frame_block_gives_back_its_frames(frames):
    got = list(FrameBlock.from_frames(frames).frames())
    assert got == frames
    for frame, fields in zip(got, frames):
        assert type(frame) is CanFrame and type(frame.payload) is tuple and frame.label is fields.label
        assert type(frame.timestamp) is float and all(type(v) is int for v in frame[1:3] + frame.payload)


def per_field_parse_car_hacking_csv(path):
    """Reference parser: one ``int(field, 16)`` per payload field.

    Yields (line number, field tuple) pairs. ID and payload fields must be
    one or more hex digits, timestamps decimals as ``repr`` writes them,
    finite and non-decreasing, and the DLC decimal digits.
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
            if re.fullmatch(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)(e[-+]?[0-9]+)?|nan|inf|-inf", fields[0]) is None:
                raise ParseError(f"bad timestamp {fields[0]!r}", line=lineno)
            ts = float(fields[0])

            def hex_field(field, what):
                if re.fullmatch("[0-9a-fA-F]+", field) is None:
                    raise ParseError(f"non-hex {what} {field!r}", line=lineno)
                return int(field, 16)

            can_id = hex_field(fields[1], "CAN ID")
            if can_id > 2047:
                raise ParseError(f"CAN ID 0x{can_id:x} exceeds 11 bits", line=lineno)
            if re.fullmatch("[0-9]+", fields[2]) is None:
                raise ParseError(f"bad DLC {fields[2]!r}", line=lineno)
            dlc = int(fields[2])
            if dlc > 8:
                raise ParseError(f"DLC {dlc} outside [0, 8]", line=lineno)
            if len(fields) != 4 + dlc:
                raise ParseError(f"expected {4 + dlc} fields, got {len(fields)}", line=lineno)
            payload = tuple(hex_field(b, "payload byte") for b in fields[3 : 3 + dlc])
            if any(b > 255 for b in payload):
                raise ParseError("payload byte exceeds 0xff", line=lineno)
            flag = fields[3 + dlc]
            if flag == "R":
                label = Label.BENIGN
            elif flag == "T":
                label = Label.ATTACK
            else:
                raise ParseError(f"unknown flag {flag!r}", line=lineno)
            if not math.isfinite(ts):
                raise ParseError(f"non-finite timestamp {ts}", line=lineno)
            if last_ts is not None and ts < last_ts:
                raise ParseError(f"timestamp {ts} decreases", line=lineno)
            last_ts = ts
            yield lineno, (ts, can_id, dlc, payload, label)


def run_parser(rows):
    """(items, line of the ParseError or None) for an iterator of rows."""
    items = []
    try:
        for item in rows:
            items.append(item)
    except ParseError as exc:
        return items, exc.line
    return items, None


MALFORMED_BYTES = [
    "f", "abc", "0ff", "abcd", "", "0x1f", "+f", " f", "F ", "1_f", "zz", "-1", "-0", "-ff", "1ff",
    " ", "  ", "a b", "ab cd",  # fromhex skips whitespace, int() only strips it
    "0X1", "0x", "+0", "f_f", "ff ", "\t1",
]
two_hex_digits = st.integers(0, 255).flatmap(lambda b: st.sampled_from([f"{b:02x}", f"{b:02X}"]))
payload_fields = st.integers(0, 8).flatmap(
    lambda dlc: st.lists(
        st.one_of(two_hex_digits, two_hex_digits, two_hex_digits, st.sampled_from(MALFORMED_BYTES)),
        min_size=dlc,
        max_size=dlc,
    )
)
payload_fields = st.one_of(payload_fields, st.just(["abcd", ""]), st.just(["", "abcd"]))
csv_row = st.tuples(
    st.one_of(
        st.floats(0.0, 10.0, allow_nan=False).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "-nan", "Infinity", "1e400", "1_0.5", " 1.0", "+2", "1e-05", "."]),
    ),
    st.one_of(
        st.integers(0, 0x7FF).map(lambda i: f"{i:04x}"),
        st.integers(0, 0x7FF).map(lambda i: f"{i:X}"),
        st.sampled_from(["-7ff", "-1", "+10", "800", "zz", "0x10", "0X10", "1_0", " 10", "10 ", ""]),
    ),
    payload_fields,
    st.integers(-1, 1),  # DLC offset from the payload's field count
    st.sampled_from(["R", "R", "T", "X"]),
    st.sampled_from(["{}"] * 6 + ["0{}", "+{}", " {}", "{} ", "{}_0"]),  # the DLC field's spelling
).map(lambda r: ",".join([r[0], r[1], r[5].format(len(r[2]) + r[3]), *r[2], r[4]]))


@given(st.lists(csv_row, min_size=1, max_size=6))
@example(["1.0,0316,2,abcd,,R"])
@example(["1.0,0316,2,  ,ab,R"])
@example(["1.0,0316,2,ab cd,  ,R"])
@example(["1.0,0316,2, ab,cd,R", "2.0,0316,2,-1,cd,R"])
@example(["5.0,0316,0,R", "nan,0316,0,R", "1.0,0316,0,R"])
@example(["-inf,0316,0,R"])
@settings(max_examples=300, deadline=None)
def test_parser_matches_per_field_reference(tmp_path_factory, rows):
    p = tmp_path_factory.mktemp("rows") / "log.csv"
    p.write_text("\n".join(rows) + "\n")
    expected, expected_error = run_parser(per_field_parse_car_hacking_csv(p))
    frames, error = run_parser(parse_car_hacking_csv(p))
    assert error == expected_error
    assert len(frames) == len(expected)
    for frame, (_, fields) in zip(frames, expected):
        assert tuple(frame) == fields
        assert type(frame.payload) is tuple and all(type(b) is int for b in frame.payload)
        assert frame.label is fields[4]


# ---------------------------------------------------------------- column blocks


@pytest.fixture(params=[1, 64, 1 << 20], ids=["line-blocks", "64-char-blocks", "default-blocks"])
def block_chars(request, monkeypatch):
    """decode_car_hacking_csv's block size: 1 makes every line a block of its own."""
    monkeypatch.setattr(canlog, "_BLOCK_CHARS", request.param)
    return request.param


def canonical_rows(count, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [format_car_hacking_row(f) for f in random_frames(rng, count, [0x316, 0x7FF, 0x5, 0x100])]


def assert_matches_reference(path):
    """parse_car_hacking_csv gives the reference's frames and error line; returns that line."""
    expected, expected_error = run_parser(per_field_parse_car_hacking_csv(path))
    frames, error = run_parser(parse_car_hacking_csv(path))
    assert error == expected_error
    assert [tuple(f) for f in frames] == [fields for _, fields in expected]
    assert all(type(f.payload) is tuple and f.label is fields[4] for f, (_, fields) in zip(frames, expected))
    return error


@pytest.mark.parametrize(
    "bad",
    ["{t},0316,9,aa,R", "{t},0316,2,aa,bb,X", "{t},0316,2,aa,zz,R", "{t},0800,0,R", "nan,0316,0,R", "0.0,0316,0,R"],
)
def test_bad_line_in_a_later_block(tmp_path, block_chars, bad):
    rows = canonical_rows(40)
    rows[33] = bad.format(t=rows[32].split(",")[0])
    p = write_lines(tmp_path, rows)
    assert assert_matches_reference(p) == 34
    if block_chars < 1 << 20:
        blocks, error = run_parser(decode_car_hacking_csv(p))
        assert error == 34 and len(blocks) > 1 and sum(len(b.dlc) for b in blocks) == 33


@pytest.mark.parametrize("chars", [1, 64])
@pytest.mark.parametrize("shift", [-2, -1, 0], ids=["before-cut", "across-cut", "after-cut"])
def test_non_ascii_byte_around_a_block_cut(tmp_path, capsys, monkeypatch, chars, shift):
    """A two-byte character that ends before the third read's cut, straddles it or starts after it: the
    rows before its block are read, then build-graphs names its line."""
    monkeypatch.setattr(canlog, "_BLOCK_CHARS", chars)
    data = ("\n".join(canonical_rows(12)) + "\n").encode()
    at = 3 * 64 + shift
    data = data[:at] + "é".encode() + data[at:]
    p = tmp_path / "log.csv"
    p.write_bytes(data)
    line = data[:at].count(b"\n") + 1
    frames, error = run_parser(parse_car_hacking_csv(p))
    assert error == line
    ascii_part = tmp_path / "before.csv"
    ascii_part.write_bytes(b"".join(data.splitlines(keepends=True)[: line - 1]))
    before, _ = run_parser(per_field_parse_car_hacking_csv(ascii_part))
    assert [tuple(f) for f in frames] == [fields for _, fields in before[: len(frames)]]
    out = tmp_path / "out.cache"
    assert cli.main(["build-graphs", "--in", str(p), "--window", "2", "--out", str(out)]) == 1
    errors = [row for row in capsys.readouterr().err.splitlines() if row.startswith("canids-error")]
    assert errors == [f"canids-error category=parse message=line {line}: {p}: non-ASCII byte"]
    assert not out.exists()


def test_cr_and_crlf_line_ends_across_block_cuts(tmp_path, block_chars):
    """``\\r``, ``\\r\\n`` and ``\\r\\r\\n`` line ends, a ``\\r\\n`` cut by a read and a final ``\\r`` are read as
    text mode reads them, as ``\\n``: the bad last line is line 16."""
    rows = canonical_rows(12)
    ends = ["\r", "\r\n", "\n", "\r\r\n"] * 3
    p = tmp_path / "log.csv"
    p.write_bytes(("".join(row + end for row, end in zip(rows, ends)) + "x\r").encode())
    assert assert_matches_reference(p) == 16


def test_timestamp_decreasing_across_block_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(canlog, "_BLOCK_CHARS", 1)
    rows = canonical_rows(10)
    rows[6] = "0.0" + rows[6][rows[6].index(",") :]
    p = write_lines(tmp_path, rows)
    with pytest.raises(ParseError, match="decreases") as err:
        list(parse_car_hacking_csv(p))
    assert err.value.line == 7 == assert_matches_reference(p)


@pytest.mark.parametrize(
    "name, text",
    [
        ("crlf", "1.0,0316,2,aa,bb,R\r\n2.5,07ff,0,T\r\n3,0005,8,00,01,02,03,04,05,06,07,R\r\n"),
        ("blank lines", "1.0,0316,2,aa,bb,R\n\n  \n2.5,07ff,0,T\n\n"),
        ("exponent", "1e-05,0316,2,aa,bb,R\n2.5e-05,0316,0,R\n"),
        ("one-digit bytes", "1.0,0316,3,a,0,f,R\n2.0,0316,1,0ff,T\n"),
        ("long ID", "1.0,00000316,2,aa,bb,R\n2.0,0000000000000007ff,0,T\n"),
        ("short ID", "1.0,316,2,aa,bb,R\n2.0,5,0,T\n3.0,0,1,AB,R\n"),
        ("no final newline", "1.0,0316,2,aa,bb,R\n2.0,0316,0,T"),
        ("negative zero", "-0.0,0316,2,aa,bb,R\n0.0,0316,0,T\n"),
    ],
)
def test_valid_forms_give_the_reference_frames(tmp_path, monkeypatch, name, text):
    p = tmp_path / "log.csv"
    p.write_bytes(text.encode("ascii"))
    fallbacks = []
    decode_lines = canlog._decode_lines
    monkeypatch.setattr(canlog, "_decode_lines", lambda *args: fallbacks.append(args) or decode_lines(*args))
    assert assert_matches_reference(p) is None
    canonical = name in ("crlf", "exponent", "short ID", "no final newline", "negative zero")
    assert (not fallbacks) == canonical  # CRLF line ends stay on the array path


def oddly_written(rng: random.Random, row: str) -> str:
    """``row`` in one of the valid forms that are not canonical: a byte of one or three digits, a
    five-digit ID, blanks around the row or a CRLF line end (the line end is text-mode translated)."""
    fields = row.split(",")
    kind = rng.choice(["byte", "id", "blanks", "crlf"] if fields[2] != "0" else ["id", "blanks", "crlf"])
    if kind == "byte":
        k = rng.randrange(3, len(fields) - 1)
        fields[k] = fields[k][1] if fields[k][0] == "0" else "0" + fields[k]
    elif kind == "id":
        fields[1] = "0" + fields[1]
    row = ",".join(fields)
    return {"blanks": f"  {row} ", "crlf": row + "\r"}.get(kind, row)


BAD_ROWS = ["{t},0316,9,aa,R", "{t},0316,2,aa,bb,X", "{t},0316,2,aa,zz,R", "{t},0800,0,R", "{t},00316,2,1ff,bb,R",
            "nan,0316,0,R", "1e309,0316,0,R", "0.0,0316,0,R", "0.0,00316,0,R", "{t}", "1.5.1,0316,0,R"]


@pytest.mark.parametrize("seed", range(len(BAD_ROWS) + 2))
def test_odd_and_bad_lines_anywhere_give_the_reference_frames(tmp_path, block_chars, seed):
    """Odd but valid lines, blank lines and one bad line (BAD_ROWS[seed], none past its end) at
    random rows of a canonical log."""
    rng = random.Random(seed)
    rows = canonical_rows(120, seed=seed)
    for k in rng.sample(range(len(rows)), 12):
        rows[k] = oddly_written(rng, rows[k])
    for k in sorted(rng.sample(range(len(rows)), 3), reverse=True):
        rows.insert(k, rng.choice(["", "  "]))
    if seed < len(BAD_ROWS):
        k = rng.randrange(1, len(rows))
        rows[k] = BAD_ROWS[seed].format(t=rows[k - 1].split(",")[0].strip() or "1e9")
    p = write_lines(tmp_path, rows)
    error = assert_matches_reference(p)
    assert (error is None) == (seed >= len(BAD_ROWS))


def test_only_the_odd_line_takes_the_line_loop(tmp_path, monkeypatch):
    rows = canonical_rows(40)
    fields = rows[17].split(",")
    rows[17] = ",".join([fields[0], "0" + fields[1], *fields[2:]])  # a five-digit ID
    p = write_lines(tmp_path, rows)
    seen = []
    decode_lines = canlog._decode_lines
    monkeypatch.setattr(canlog, "_decode_lines", lambda *args: seen.append(args) or decode_lines(*args))
    assert assert_matches_reference(p) is None
    assert seen == [([rows[17]], [18])]


def canonical_mask(lines, last_ts):
    """_canonical_lines's mask over ``lines`` and the frames of its canonical lines."""
    block, canonical, _ = canlog._canonical_lines("".join(lines).encode(), last_ts)
    return canonical.tolist(), list(FrameBlock(*(column[canonical] for column in block)).frames())


def test_canonical_block_checks_every_rule(tmp_path):
    good = "1.5,0316,2,aa,bb,R\n"
    good_frame = CanFrame(1.5, 0x316, 2, (0xAA, 0xBB), Label.BENIGN)
    assert canonical_mask([good], -1.0) == ([True], [good_frame])
    for line in [
        "1.5,0316,2,aa,bb,R ",  # a blank after the flag
        "1.5,0316,2,aa,bb,",
        "1.5,0316,2,aa,bb,RR",
        "1.5,0316,2,aa,b,R",
        "1.5,0316,2,aa,bbb,R",
        "1.5,0316,2,a,bbb,R",
        "1.5,0316,2,aa,bg,R",
        "1.5,0316,2,aa;bb,R",  # a separator that is not a comma
        "1.5,0316,9,aa,bb,R",
        "1.5,0316,02,aa,bb,R",
        "1.5,0316,3,aa,bb,R",
        "1.5,0800,2,aa,bb,R",
        "1.5,00316,2,aa,bb,R",
        "1.5,,2,aa,bb,R",
        "1.5,03x6,2,aa,bb,R",
        ",0316,2,aa,bb,R",
        ".,0316,2,aa,bb,R",
        "1.5.1,0316,2,aa,bb,R",
        "+1.5,0316,2,aa,bb,R",
        "1E5,0316,2,aa,bb,R",
        "1e,0316,2,aa,bb,R",
        "1.5e+,0316,2,aa,bb,R",
        "e5,0316,2,aa,bb,R",
        "1-5,0316,2,aa,bb,R",
        "1e5.5,0316,2,aa,bb,R",
        "--1.5,0316,2,aa,bb,R",
        "1_5,0316,2,aa,bb,R",
        "inf,0316,2,aa,bb,R",
        "1e309,0316,2,aa,bb,R",  # overflows to inf
        "1\x005,0316,2,aa,bb,R",
        "1.5\x00,0316,2,aa,bb,R",  # a NUL at the end of the timestamp
        "1" * 33 + ",0316,2,aa,bb,R",
        "0.5,0316,2,aa,bb,R",  # below the block's last_ts
    ]:
        assert canonical_mask([line + "\n"], 1.0) == ([False], []), line
        assert canonical_mask([good, line + "\n"], 1.0) == ([True, False], [good_frame]), line


def test_canonical_timestamps_read_as_float_reads_them():
    rng = np.random.Generator(np.random.PCG64(8))
    values = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.integers(-30, 31, 400)
    values = np.sort(np.concatenate([values, [0.0, 1e-05, 2.5e-07, 1e16, 5e-324, 1.7976931348623157e308]]))
    lines = [f"{v!r},0316,0,R\n" for v in values.tolist()]
    assert any("e-" in line for line in lines) and any("e+" in line for line in lines)
    block, canonical, _ = canlog._canonical_lines("".join(lines).encode(), -math.inf)
    assert canonical.all()
    assert block.timestamp.tobytes() == np.array([float(line.split(",")[0]) for line in lines]).tobytes()


@given(st.text(alphabet="0123456789.e+-", min_size=1, max_size=34))
@example("1e")
@example("1e309")
@example("-0.0")
@settings(max_examples=300, deadline=None)
def test_canonical_timestamps_are_the_decimals_float_reads(stamp):
    block, canonical, _ = canlog._canonical_lines(f"{stamp},0316,0,R\n".encode(), -math.inf)
    decimal = canlog._is_decimal(stamp) is not None and len(stamp) <= 32
    assert canonical[0] == (decimal and math.isfinite(float(stamp)))
    if canonical[0]:
        assert block.timestamp.tobytes() == np.float64(float(stamp)).tobytes()


def test_a_long_malformed_decimal_fails_without_backtracking():
    # a grammar that matches a run of digits more than one way takes quadratic time to reject it: ~10 s
    # for a 20,000-digit field
    field = "1" * 20_000
    start = time.perf_counter()
    assert canlog._is_decimal(field) and not canlog._is_decimal(field + "x")
    assert not canlog._is_decimal(f"{field}e{field}x") and not canlog._is_decimal(f"{field}.{field}-")
    assert time.perf_counter() - start < 1.0


def test_module_patterns_use_no_syntax_newer_than_python_3_10():
    """pyproject.toml allows Python 3.10, whose re rejects possessive quantifiers and atomic groups."""
    newer = {_constants.POSSESSIVE_REPEAT, _constants.ATOMIC_GROUP}

    def ops(item):
        if isinstance(item, _parser.SubPattern):
            for op, arg in item:
                yield op
                yield from ops(arg)
        elif isinstance(item, (tuple, list)):
            for part in item:
                yield from ops(part)

    patterns = {}
    for info in pkgutil.iter_modules(canids.__path__):
        module = importlib.import_module(f"canids.{info.name}")
        for name, value in vars(module).items():
            value = getattr(value, "__self__", value)
            if isinstance(value, re.Pattern):
                patterns[f"{info.name}.{name}"] = value
    assert {"canlog._is_decimal", "checkpoint._is_plain_row", "pipeline._is_scores_row"} <= patterns.keys()
    for name, pattern in patterns.items():
        assert newer.isdisjoint(ops(_parser.parse(pattern.pattern, pattern.flags))), name


@pytest.mark.parametrize("window, stride, undirected", [(10, 10, False), (40, 37, False), (10, 1, False), (10, 10, True), (7, 1, True)])
def test_build_graphs_windows_straddle_blocks(tmp_path, capsys, block_chars, window, stride, undirected):
    rows = canonical_rows(300, seed=4)
    p = write_lines(tmp_path, rows)
    frames = [CanFrame(*fields) for _, fields in per_field_parse_car_hacking_csv(p)]
    expected = tmp_path / "expected.cache"
    save_graph_cache(loop_windows(frames, window, stride, directed=not undirected), expected)
    out = tmp_path / "got.cache"
    argv = ["build-graphs", "--in", str(p), "--window", str(window), "--stride", str(stride), "--out", str(out)]
    assert cli.main(argv + ["--undirected"] * undirected) == 0
    capsys.readouterr()
    assert out.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------- mutation sweep

MUTATIONS = ("truncate", "flip", "drop", "copy", "blank", "swap", "nan", "1e309", "1_0", "non-ascii")


def mutate(rng: random.Random, text: str) -> bytes:
    """One mutation of a log's text: a cut, a flipped bit, a dropped, copied or blanked line, two
    swapped fields, or a field replaced by ``nan``, ``1e309`` or ``1_0``, or a non-ASCII byte."""
    kind = rng.choice(MUTATIONS)
    if kind == "truncate":
        return text[: rng.randrange(len(text))].encode()
    if kind == "flip":
        data = bytearray(text.encode())
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    lines = text.split("\n")[:-1]
    k = rng.randrange(len(lines))
    fields = lines[k].split(",")
    if kind == "drop":
        del lines[k]
    elif kind == "copy":
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif kind == "blank":
        lines[k] = ""
    elif kind == "swap":
        i, j = rng.sample(range(len(fields)), 2)
        fields[i], fields[j] = fields[j], fields[i]
        lines[k] = ",".join(fields)
    elif kind == "non-ascii":
        at = rng.randrange(len(lines[k]) + 1)
        lines[k] = lines[k][:at] + "é" + lines[k][at:]
    else:
        fields[rng.randrange(len(fields))] = kind
        lines[k] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("chars", [256, 1 << 20])
def test_csv_mutation_sweep(tmp_path, capsys, monkeypatch, chars):
    """Mutated logs parse as the reference parses them, and build-graphs exits 0 with the loop's windows
    or ends in one canids-error line, never a traceback."""
    monkeypatch.setattr(canlog, "_BLOCK_CHARS", chars)
    text = "\n".join(canonical_rows(40, seed=9)) + "\n"
    rng = random.Random(2026)
    log, out = tmp_path / "log.csv", tmp_path / "out.cache"
    for trial in range(200):
        data = mutate(rng, text)
        log.write_bytes(data)
        if data.isascii():
            error = assert_matches_reference(log)
        else:  # the reference's ASCII decoding fails on its read-ahead chunk, not at the line
            error = next(k for k, line in enumerate(data.split(b"\n"), start=1) if not line.isascii())
            frames, got = run_parser(parse_car_hacking_csv(log))
            assert got == error
            log.write_bytes(b"\n".join(data.split(b"\n")[: error - 1]) + b"\n")
            before, _ = run_parser(per_field_parse_car_hacking_csv(log))
            assert [tuple(f) for f in frames] == [fields for _, fields in before[: len(frames)]]
            log.write_bytes(data)
        out.unlink(missing_ok=True)
        code = cli.main(["build-graphs", "--in", str(log), "--window", "4", "--stride", "3", "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            frames = [CanFrame(*fields) for _, fields in per_field_parse_car_hacking_csv(log)]
            expected = tmp_path / "expected.cache"
            save_graph_cache(loop_windows(frames, 4, 3), expected)
            assert error is None and out.read_bytes() == expected.read_bytes()
        else:
            assert code in (1, 2) and "Traceback" not in err, err
            assert sum(line.startswith("canids-error") for line in err.splitlines()) == 1, err
            assert code == 2 or error is not None or not data.isascii()
