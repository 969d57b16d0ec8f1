"""The synthetic traffic generator.

``per_frame_generate_synthetic_log`` is the generator as it was written
first: one ``rng.integers`` call per frame and one sort by (timestamp,
generation order). The generator, which draws each schedule's payloads
in one call into frame columns and merges them with one stable argsort,
must return the same frames for the same seed, Python types included,
and ``write_car_hacking_csv`` must write them as the per-field row
formatter does. The generator returns a ``FrameLog``; the writer must
write it as it writes the FrameLog of the list of its frames, and
``build_windows`` read it as that list, without building those frames.
"""

import hashlib
import math
import re
from collections.abc import Sequence

import numpy as np
import pytest

from canids import canlog, synth
from canids.canlog import (
    CanFrame,
    FrameBlock,
    FrameLog,
    Label,
    decode_car_hacking_csv,
    parse_car_hacking_csv,
    read_frame_log,
    write_car_hacking_csv,
)
from canids.errors import ConfigError, ParseError
from canids.graphs import build_windows
from canids.synth import (
    BENIGN_BYTE_MAX,
    DOS_CAN_ID,
    REPLAY_BUFFER_LEN,
    SPOOF_BYTE_MIN,
    AttackKind,
    AttackSpec,
    EcuSpec,
    generate_synthetic_log,
    load_synth_config,
)
from helpers import log_of, per_field_format_car_hacking_row

TWO_ECUS = [EcuSpec(100, 0.01, 7), EcuSpec(200, 0.01, 8)]


def test_benign_counts_within_one_per_ecu():
    frames = generate_synthetic_log(TWO_ECUS, 10.0, rng_seed=3)
    assert all(f.label == Label.BENIGN for f in frames)
    for ecu in TWO_ECUS:
        count = sum(1 for f in frames if f.can_id == ecu.can_id)
        assert abs(count - 10.0 / ecu.period) <= 1


def test_timestamps_non_decreasing_and_deterministic():
    a = generate_synthetic_log(TWO_ECUS, 5.0, rng_seed=11)
    b = generate_synthetic_log(TWO_ECUS, 5.0, rng_seed=11)
    assert list(a) == list(b)
    assert all(x.timestamp <= y.timestamp for x, y in zip(a, a[1:]))
    c = generate_synthetic_log(TWO_ECUS, 5.0, rng_seed=12)
    assert list(c) != list(a)


def test_dos_injection_rate_and_labels():
    atk = AttackSpec(AttackKind.DOS, 5.0, 1.0, 2000.0)
    frames = generate_synthetic_log(TWO_ECUS, 10.0, [atk], rng_seed=4)
    dos = [f for f in frames if f.can_id == 0]
    assert len(dos) == 2000
    assert all(f.label == Label.ATTACK for f in dos)
    assert all(4.9 < f.timestamp < 6.1 for f in dos)
    benign = [f for f in frames if f.can_id != 0]
    assert all(f.label == Label.BENIGN for f in benign)


def test_fuzzing_frames_are_random_ids():
    atk = AttackSpec(AttackKind.FUZZING, 2.0, 1.0, 500.0)
    frames = generate_synthetic_log(TWO_ECUS, 5.0, [atk], rng_seed=5)
    fuzz = [f for f in frames if f.label == Label.ATTACK]
    assert len(fuzz) == 500
    assert len({f.can_id for f in fuzz}) > 50
    for f in fuzz:
        assert len(f.payload) == f.dlc


def test_spoof_payloads_disjoint_from_benign():
    atk = AttackSpec(AttackKind.SPOOFING, 2.0, 1.0, 300.0, target_id=100)
    frames = generate_synthetic_log(TWO_ECUS, 5.0, [atk], rng_seed=6)
    spoofed = [f for f in frames if f.label == Label.ATTACK]
    benign = [f for f in frames if f.label == Label.BENIGN]
    assert spoofed and all(f.can_id == 100 for f in spoofed)
    assert all(b >= SPOOF_BYTE_MIN for f in spoofed for b in f.payload)
    assert all(b <= BENIGN_BYTE_MAX for f in benign for b in f.payload)


def test_replay_reemits_recorded_payloads():
    atk = AttackSpec(AttackKind.REPLAY, 3.0, 1.0, 200.0, target_id=200)
    frames = generate_synthetic_log(TWO_ECUS, 5.0, [atk], rng_seed=7)
    replayed = [f for f in frames if f.label == Label.ATTACK]
    assert len(replayed) == 200
    prior = {
        f.payload
        for f in frames
        if f.can_id == 200 and f.label == Label.BENIGN and f.timestamp < 3.0
    }
    assert all(f.payload in prior for f in replayed)


@pytest.mark.parametrize(
    "atk",
    [
        AttackSpec(AttackKind.DOS, 9.5, 1.0, 100.0),  # overruns log end
        AttackSpec(AttackKind.DOS, -1.0, 0.5, 100.0),
        AttackSpec(AttackKind.DOS, 1.0, 0.0, 100.0),
        AttackSpec(AttackKind.DOS, 1.0, 1.0, 0.0),
        AttackSpec(AttackKind.SPOOFING, 1.0, 1.0, 100.0),  # no target
        AttackSpec(AttackKind.SPOOFING, 1.0, 1.0, 100.0, target_id=5000),  # beyond 11 bits
    ],
)
def test_invalid_attack_specs(atk):
    with pytest.raises(ConfigError):
        generate_synthetic_log(TWO_ECUS, 10.0, [atk], rng_seed=1)


def test_ecu_dlc_outside_0_to_8_rejected():
    with pytest.raises(ConfigError, match=r"dlc 12 outside \[0, 8\]"):
        generate_synthetic_log([EcuSpec(100, 0.01, 7, dlc=12)], 10.0, rng_seed=1)


def test_no_ecus_rejected():
    with pytest.raises(ConfigError):
        generate_synthetic_log([], 10.0, rng_seed=1)


@pytest.mark.parametrize("duration", [0.0, -5.0, math.nan])
def test_duration_not_above_zero_rejected(duration):
    with pytest.raises(ConfigError, match=f"^duration must be > 0, got {duration}$"):
        generate_synthetic_log(TWO_ECUS, duration, rng_seed=1)


@pytest.mark.parametrize(
    "ecus, duration, attacks, message",
    [
        (TWO_ECUS, 10.0, [AttackSpec(AttackKind.DOS, 1.0, 0.5, 1e308)], "dos: 5e+307 frames"),
        (TWO_ECUS, 10.0, [AttackSpec(AttackKind.FUZZING, 1.0, 5.0, 1e308)], "fuzzing: inf frames"),
        ([TWO_ECUS[0], EcuSpec(0x7F0, 1e-300, 1)], 10.0, [], "ECU 0x7f0: 1e+301 frames"),
        (TWO_ECUS, 1e300, [], "ECU 0x64: 1e+302 frames"),
    ],
    ids=["dos-rate-1e308", "fuzzing-inf", "period-1e-300", "duration-1e300"],
)
def test_frame_count_beyond_an_array_rejected_before_any_draw(ecus, duration, attacks, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}, more than an array can hold$"):
        generate_synthetic_log(ecus, duration, attacks, rng_seed=1)


def test_memory_error_while_generating_gives_the_frame_count(monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(synth, "_part", out_of_memory)
    dos = AttackSpec(AttackKind.DOS, 1.0, 0.5, 1e9)
    with pytest.raises(ConfigError, match="^the log of about 500,002,000 frames does not fit in memory$"):
        generate_synthetic_log(TWO_ECUS, 10.0, [dos], rng_seed=1)


def test_serialize_round_trip(tmp_path):
    atk = AttackSpec(AttackKind.DOS, 1.0, 0.5, 500.0)
    frames = generate_synthetic_log(TWO_ECUS, 3.0, [atk], rng_seed=9)
    p = tmp_path / "log.csv"
    write_car_hacking_csv(frames, p)
    assert list(parse_car_hacking_csv(p)) == list(frames)
    # writing the parse result again is byte-identical
    q = tmp_path / "log2.csv"
    write_car_hacking_csv(read_frame_log(decode_car_hacking_csv(p)), q)
    assert p.read_bytes() == q.read_bytes()


def test_load_synth_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        '{"duration": 5.0, "ecus": [{"can_id": 10, "period": 0.1, "payload_seed": 1}],'
        ' "attacks": [{"kind": "spoofing", "start": 1.0, "duration": 0.5, "rate": 10.0, "target_id": 10}]}'
    )
    cfg = load_synth_config(p)
    assert cfg.duration == 5.0
    assert cfg.ecus[0].can_id == 10
    assert cfg.attacks[0].kind == AttackKind.SPOOFING

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_synth_config(bad)


def per_frame_generate_synthetic_log(ecus, duration, attacks=(), rng_seed=0):
    """Reference generator: one draw per frame, sorted by (timestamp, generation order)."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    events = []
    seq = 0
    for ecu in ecus:
        lo_rng = np.random.Generator(np.random.PCG64(ecu.payload_seed))
        lo = int(lo_rng.integers(0, BENIGN_BYTE_MAX - 40 + 1))
        phase = float(rng.uniform(0.0, ecu.period))
        n_emit = int(np.ceil((duration - phase) / ecu.period)) if phase < duration else 0
        base = phase + ecu.period * np.arange(n_emit)
        jitter = rng.uniform(-0.1 * ecu.period, 0.1 * ecu.period, size=n_emit)
        for t in np.maximum(base + jitter, 0.0):
            payload = tuple(int(b) for b in rng.integers(lo, lo + 41, size=ecu.dlc))
            events.append((float(t), seq, CanFrame(float(t), ecu.can_id, ecu.dlc, payload)))
            seq += 1
    for atk in attacks:
        step = 1.0 / atk.injection_rate
        n_inject = int(np.floor(atk.duration * atk.injection_rate))
        base = atk.start_time + step * np.arange(n_inject)
        times = np.maximum(base + rng.uniform(-0.1 * step, 0.1 * step, size=n_inject), 0.0)
        if atk.kind == AttackKind.REPLAY:
            buffer = [
                f
                for _, _, f in sorted(events, key=lambda e: (e[0], e[1]))
                if f.can_id == atk.target_id and f.label == Label.BENIGN and f.timestamp < atk.start_time
            ][-REPLAY_BUFFER_LEN:]
        for k, t in enumerate(times):
            if atk.kind == AttackKind.DOS:
                frame = CanFrame(float(t), DOS_CAN_ID, 8, (0,) * 8, Label.ATTACK)
            elif atk.kind == AttackKind.FUZZING:
                can_id = int(rng.integers(0, 2048))
                dlc = int(rng.integers(0, 9))
                payload = tuple(int(b) for b in rng.integers(0, 256, size=dlc))
                frame = CanFrame(float(t), can_id, dlc, payload, Label.ATTACK)
            elif atk.kind == AttackKind.SPOOFING:
                payload = tuple(int(b) for b in rng.integers(SPOOF_BYTE_MIN, 256, size=8))
                frame = CanFrame(float(t), atk.target_id, 8, payload, Label.ATTACK)
            else:
                src = buffer[k % len(buffer)]
                frame = CanFrame(float(t), src.can_id, src.dlc, src.payload, Label.ATTACK)
            events.append((frame.timestamp, seq, frame))
            seq += 1
    events.sort(key=lambda e: (e[0], e[1]))
    return [f for _, _, f in events]


def typed(frames):
    """Each frame with the Python type of every field and payload byte, so 1 and 1.0 or np.int64(1) differ."""
    return [(f, tuple(map(type, f)), tuple(map(type, f.payload))) for f in frames]


# one ECU per DLC 0-8, odd and even; 0x7FF's period exceeds any log here, so it emits nothing
EVERY_DLC = [EcuSpec(0x100 + 0x10 * dlc, 0.004 + 0.001 * dlc, 40 + dlc, dlc) for dlc in range(9)]
SILENT = EcuSpec(0x7FF, 1e9, 99)
EVERY_ATTACK = [
    # each burst's first frame clips to t=0.0 half the time: equal timestamps keep generation order
    *(AttackSpec(AttackKind.SPOOFING, 0.0, 0.01, 1000.0, target_id=ecu.can_id) for ecu in EVERY_DLC),
    AttackSpec(AttackKind.DOS, 0.2, 0.05, 2000.0),
    AttackSpec(AttackKind.FUZZING, 0.4, 0.05, 2000.0),
    AttackSpec(AttackKind.SPOOFING, 0.6, 0.05, 1000.0, target_id=0x130),
    AttackSpec(AttackKind.REPLAY, 0.9, 0.05, 1000.0, target_id=0x170),
    AttackSpec(AttackKind.REPLAY, 1.2, 0.05, 1000.0, target_id=0x100),  # replays DLC-0 frames
    AttackSpec(AttackKind.REPLAY, 0.05, 0.05, 1000.0, target_id=0x180),  # cycles a 3- or 4-frame buffer
]


# with a 15,200-frame DoS burst the log spans two of frame_blocks' blocks
TWO_BLOCKS = [*EVERY_ATTACK, AttackSpec(AttackKind.DOS, 1.3, 0.19, 80000.0)]


@pytest.mark.parametrize(
    "seed, attacks",
    [*((seed, EVERY_ATTACK) for seed in [0, 3, 2026, (201, 1), (205, 3)]), (11, TWO_BLOCKS)],
    ids=["0", "3", "2026", "seed3", "seed4", "two-blocks"],
)
def test_generator_matches_per_frame_reference(tmp_path, seed, attacks):
    ecus = [*EVERY_DLC, SILENT]
    frames = generate_synthetic_log(ecus, 1.5, attacks, rng_seed=seed)
    expected = per_frame_generate_synthetic_log(ecus, 1.5, attacks, rng_seed=seed)
    assert typed(frames) == typed(expected)
    assert (len(frames) > canlog._BLOCK_FRAMES) == (attacks is TWO_BLOCKS)
    assert {f.dlc for f in frames if f.label == Label.BENIGN} == set(range(9))
    assert {f.label for f in frames} == {Label.BENIGN, Label.ATTACK}
    assert not any(f.can_id == SILENT.can_id for f in frames)
    assert len({f.can_id for f in frames if f.timestamp == 0.0}) >= 2

    p = tmp_path / "log.csv"
    assert write_car_hacking_csv(frames, p) == len(frames)
    assert p.read_bytes() == "".join(per_field_format_car_hacking_row(f) + "\n" for f in expected).encode()


@pytest.mark.parametrize("seed", [1, 2])
def test_replay_of_an_id_two_ecus_send_matches_reference(seed):
    # the two schedules' frames interleave in time, so the replay buffer must be sorted
    ecus = [EcuSpec(0x170, 0.01, 1, 3), EcuSpec(0x170, 0.007, 2, 5), EcuSpec(0x100, 0.005, 3)]
    attacks = [AttackSpec(AttackKind.REPLAY, 0.9, 0.1, 1000.0, target_id=0x170)]
    frames = generate_synthetic_log(ecus, 1.5, attacks, rng_seed=seed)
    assert typed(frames) == typed(per_frame_generate_synthetic_log(ecus, 1.5, attacks, rng_seed=seed))
    assert {f.dlc for f in frames if f.label == Label.ATTACK} == {3, 5}


def test_only_silent_ecu_gives_empty_log():
    assert list(generate_synthetic_log([SILENT], 2.0, rng_seed=1)) == []
    assert per_frame_generate_synthetic_log([SILENT], 2.0, rng_seed=1) == []


# sha256 of the CSV below as the per-frame generator and row formatter write it; it moves if
# numpy's PCG64 stream, the draw order or the row layout changes
GOLDEN_LOG_SHA256 = "5ab3ad0c027f0c3ccb8fac29fbd3bee014d4769fb133b84dd948605416c18962"


def test_golden_log_bytes(tmp_path):
    frames = generate_synthetic_log(EVERY_DLC, 2.0, EVERY_ATTACK, rng_seed=7919)
    p = tmp_path / "log.csv"
    write_car_hacking_csv(frames, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == GOLDEN_LOG_SHA256


# fuzzing bursts: _fuzzing_draws against the per-frame integers calls it replaces


def per_frame_fuzzing(rng, n):
    """A fuzzing burst's ID, DLC and payload columns, drawn frame by frame."""
    can_id, dlc, payload = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros((n, 8), np.uint8)
    for k in range(n):
        can_id[k] = rng.integers(0, 2048)
        dlc[k] = size = int(rng.integers(0, 9))
        payload[k, :size] = rng.integers(0, 256, size=size)
    return can_id, dlc, payload


def assert_draws_as_per_frame(make_rng, n):
    """_fuzzing_draws gives the per-frame columns, dtypes included, and leaves the generator where
    the per-frame calls leave it."""
    expected_rng, rng = make_rng(), make_rng()
    expected = per_frame_fuzzing(expected_rng, n)
    for column, want in zip(synth._fuzzing_draws(rng, n), expected):
        assert column.dtype == want.dtype and np.array_equal(column, want)
    # 32-bit draws first, so that a buffered half left behind shows
    after = [[*r.integers(0, 2**32, size=3, dtype=np.uint64).tolist(), r.random()] for r in (rng, expected_rng)]
    assert after[0] == after[1]


CHUNKS = {"chunk-1": 1, "chunk-2": 2, "chunk-7": 7, "chunk-default": canlog._BLOCK_FRAMES}


@pytest.mark.parametrize("chunk", list(CHUNKS))
@pytest.mark.parametrize("drawn", [0, 1], ids=["after-even-words", "after-odd-words"])
@pytest.mark.parametrize("n", [0, 1, 2, 5000])
def test_fuzzing_draws_match_per_frame_draws(monkeypatch, chunk, drawn, n):
    """An odd number of 32-bit words drawn before leaves half of a PCG64 output buffered in its state."""
    monkeypatch.setattr(canlog, "_BLOCK_FRAMES", CHUNKS[chunk])

    def make_rng():
        rng = np.random.Generator(np.random.PCG64(201 + n))
        rng.integers(0, 2**32, size=drawn, dtype=np.uint64)
        return rng

    assert_draws_as_per_frame(make_rng, n)


def untempered(word):
    """The MT19937 state word that its output tempering turns into ``word``."""
    for shift, mask in ((-18, 0xFFFFFFFF), (15, 0xEFC60000), (7, 0x9D2C5680), (-11, 0xFFFFFFFF)):
        x = word
        for _ in range(32):
            x = word ^ ((x << shift if shift > 0 else x >> -shift) & mask)
        word = x
    return word


def chosen_words_rng(words):
    """A Generator whose first 32-bit words are ``words``: an MT19937 at position 0 of its state."""
    key = np.random.Generator(np.random.PCG64(5)).integers(0, 2**32, size=624, dtype=np.uint32)
    key[: len(words)] = [untempered(w) for w in words]
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bits)


# integers(0, 9) rejects a word u for the next while (u * 9) mod 2**32 < 2**32 mod 9 = 4
REJECTED = [u for j in range(9) for r in range(4) if ((j << 32) | r) % 9 == 0 for u in [((j << 32) | r) // 9]]


def fuzzing_words(frames):
    """The words that draw ``frames``, each (rejected DLC words before its DLC, DLC), as the frame
    count, an ID word and payload words that give 0x5A, 0x5B, ..."""
    words = []
    for k, (rejections, dlc) in enumerate(frames):
        words.append((k * 0x2AB) % 2048 << 21 | 0x1FFFFF)
        words += [REJECTED[(k + j) % len(REJECTED)] for j in range(rejections)]
        words.append(((dlc << 32) + (1 << 31)) // 9)  # mid-bucket, so accepted
        words += [(0x5A + b) << 24 | 0xABCDE for b in range(dlc)]
    return words


REJECTION_LAYOUTS = {
    # the burst's first DLC word is rejected, and the frame takes 11 words, more than one frame's draw
    "first": [(1, 8), (0, 3), (0, 0), (1, 0)],
    # frames 2 and 4 of 6 are rejected once and three times, mid-chunk for every chunk size
    "mid-chunk": [(0, 5), (0, 8), (1, 2), (0, 0), (3, 7), (0, 1)],
    # with 2 frames a chunk, the first draw is 20 words: frame 0 takes 18, frame 1's rejected DLC is word 19
    "chunk-last-word": [(8, 8), (1, 4), (0, 6), (2, 8), (0, 0)],
}


@pytest.mark.parametrize("chunk", list(CHUNKS))
@pytest.mark.parametrize("layout", list(REJECTION_LAYOUTS))
def test_fuzzing_draws_skip_rejected_dlc_words_as_integers_does(monkeypatch, layout, chunk):
    monkeypatch.setattr(canlog, "_BLOCK_FRAMES", CHUNKS[chunk])
    frames = REJECTION_LAYOUTS[layout]
    words = fuzzing_words(frames)
    assert all((u * 9) % 2**32 < 4 for u in REJECTED) and len(REJECTED) == 4
    assert list(chosen_words_rng(words).integers(0, 2**32, size=len(words), dtype=np.uint64)) == words
    if layout == "chunk-last-word":
        assert words[19] in REJECTED and words[18] >> 21 == 0x2AB
    can_id, dlc, payload = synth._fuzzing_draws(chosen_words_rng(words), len(frames))
    assert dlc.tolist() == [d for _, d in frames]
    assert [bytes(row[:d]) for row, d in zip(payload, dlc)] == [bytes(range(0x5A, 0x5A + d)) for _, d in frames]
    assert_draws_as_per_frame(lambda: chosen_words_rng(words), len(frames))


# FrameLog: the generator's columns, which the writer and build_windows read without building frames


def window_key(g):
    """A window's node IDs, label, start and the bytes of its arrays."""
    arrays = (g.node_features, g.edge_src, g.edge_dst, g.edge_weight)
    return g.node_ids, g.label, g.window_start_index, *(a.tobytes() for a in arrays)


def sinks(tmp_path):
    """Name -> function of a frame sequence: the bytes the writer writes (of a frame list's FrameLog), or the
    keys of its windows."""

    def written(frames):
        p = tmp_path / "log.csv"
        write_car_hacking_csv(frames if isinstance(frames, FrameLog) else log_of(frames), p)
        return p.read_bytes()

    def windows(stride, directed):
        return lambda frames: [window_key(g) for g in build_windows(frames, 100, stride, directed)]

    return {
        "writer": written,
        "stride-W": windows(None, True),
        "stride-7-undirected": windows(7, False),
        "stride-1": windows(1, True),
    }


def outcome(run):
    """("ok", what ``run()`` returns), or ("error", the message of the ParseError it raises)."""
    try:
        return "ok", run()
    except ParseError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "ecus, attacks", [([*EVERY_DLC, SILENT], TWO_BLOCKS), ([SILENT], ())], ids=["two-blocks", "empty"]
)
def test_frame_log_writes_and_windows_as_its_frame_list(tmp_path, ecus, attacks):
    log = generate_synthetic_log(ecus, 1.5, attacks, rng_seed=11)
    frames = list(log)
    assert type(frames) is list and type(log) is FrameLog
    assert (len(log) > canlog._BLOCK_FRAMES) == bool(attacks) and (len(log) == 0) == (not attacks)
    for name, sink in sinks(tmp_path).items():
        assert sink(log) == sink(frames), name


def test_frame_log_is_a_sequence_of_its_frames():
    log = generate_synthetic_log(TWO_ECUS, 3.0, [AttackSpec(AttackKind.DOS, 1.0, 0.5, 500.0)], rng_seed=9)
    frames = list(log)
    assert isinstance(log, Sequence) and len(log) == len(frames) > 500
    assert log[-1] == frames[-1] and log[-len(log)] == frames[0] and log[250] == frames[250]
    assert log[3:40] == frames[3:40] and type(log[3:40]) is list and log[::-7] == frames[::-7]
    assert [f for f in log] == frames and list(reversed(log)) == frames[::-1]
    assert frames[17] in log and CanFrame(-1.0, 1, 0, ()) not in log
    again = generate_synthetic_log(TWO_ECUS, 3.0, [AttackSpec(AttackKind.DOS, 1.0, 0.5, 500.0)], rng_seed=9)
    assert list(again) == frames
    assert list(generate_synthetic_log([SILENT], 2.0, rng_seed=1)) == [] == list(generate_synthetic_log([SILENT], 2.0))
    with pytest.raises(IndexError):
        log[len(log)]


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("can_id", 0x800, "frame 150: can_id 2048 outside 11-bit range"),
        ("dlc", 9, "frame 150: dlc 9 outside [0, 8]"),
        ("timestamp", math.nan, "frame 150: timestamp nan is not a finite number"),
    ],
    ids=["id-0x800", "dlc-9", "nan"],
)
def test_bad_frame_log_fails_as_its_frame_list(tmp_path, column, value, message):
    """A bad ID, DLC or timestamp raises when the log is made, with the ParseError that writing its frame
    list raises."""
    block = generate_synthetic_log(TWO_ECUS, 3.0, rng_seed=9).block
    frames = list(FrameLog(block))
    getattr(block, column)[150] = value
    frames[150] = frames[150]._replace(**{column: value})
    from_list = {name: outcome(lambda: sink(frames)) for name, sink in sinks(tmp_path).items()}
    assert from_list["writer"] == ("error", message)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        FrameLog(block)
    if column == "timestamp":  # the windows of a frame list do not read its timestamps
        assert from_list["stride-W"][0] == "ok"


def frame_list(block):
    """The frames of a block's columns, as ``FrameBlock.frames()`` builds them but with no cast: each
    payload cut to its DLC when that is an int."""
    rows = block.payload.tolist()
    return [
        CanFrame(t, can_id, dlc, tuple(row[:dlc] if isinstance(dlc, int) else row), Label(int(attack)))
        for t, can_id, dlc, row, attack in zip(*(c.tolist() for c in block[:3]), rows, block.attack.tolist())
    ]


def with_value(array, k, value, dtype=None):
    """A copy of ``array`` (as ``dtype`` if given) with ``value`` at ``k``."""
    array = array.astype(dtype or array.dtype)
    array[k] = value
    return array


BAD_LOG_COLUMNS = {
    "id-float-1.5": ("can_id", lambda c: with_value(c, 7, 1.5, float), "frame 0: can_id 256.0 is not an integer"),
    "id-float-1.0": ("can_id", lambda c: np.full(len(c), 1.0), "frame 0: can_id 1.0 is not an integer"),
    "id-object-1.5": ("can_id", lambda c: with_value(c, 7, 1.5, object), "frame 7: can_id 1.5 is not an integer"),
    "dlc-float": ("dlc", lambda c: c.astype(float), "frame 0: dlc 2.0 is not an integer"),
    "id-0x800": ("can_id", lambda c: with_value(c, 7, 0x800), "frame 7: can_id 2048 outside 11-bit range"),
    "id-negative": ("can_id", lambda c: with_value(c, 7, -1), "frame 7: can_id -1 outside 11-bit range"),
    "dlc-9": ("dlc", lambda c: with_value(c, 7, 9), "frame 7: dlc 9 outside [0, 8]"),
    "payload-int64-300": (
        "payload",
        lambda c: with_value(c, 7, 300, np.int64),
        "payload column: want uint8, shape (20, 8); got int64, shape (20, 8)",
    ),
    "payload-n-3": (
        "payload", lambda c: c[:, :3], "payload column: want uint8, shape (20, 8); got uint8, shape (20, 3)"
    ),
    "payload-past-dlc": (
        "payload", lambda c: with_value(c, (7, 5), 1), "payload column: frame 7 has a nonzero byte past its dlc 2"
    ),
    "attack-int": ("attack", lambda c: c.astype(int), "attack column: want bool, shape (20,); got int64, shape (20,)"),
    "timestamp-list": ("timestamp", list, "timestamp column: want float64, shape (20,); got list"),
    "dlc-short": ("dlc", lambda c: c[1:], "timestamp column: want float64, shape (19,); got float64, shape (20,)"),
}


@pytest.mark.parametrize("case", list(BAD_LOG_COLUMNS))
def test_bad_frame_log_raises_when_made(tmp_path, case):
    """A bad column raises at ``FrameLog(...)``: a bad ID or DLC with the ParseError that writing the
    log's frame list raises, any other with a ParseError naming the column."""
    column, bad, message = BAD_LOG_COLUMNS[case]
    block = FrameBlock.from_frames([CanFrame(0.01 * k, 0x100 + k % 3, 2, (k, 7)) for k in range(20)])
    block = block._replace(**{column: bad(getattr(block, column))})
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        FrameLog(block)
    if message.startswith("frame"):
        assert outcome(lambda: sinks(tmp_path)["writer"](frame_list(block))) == ("error", message)


def test_frame_log_keeps_ids_and_dlcs_as_int64(tmp_path):
    """Integer columns of any dtype, or objects that are all ints in range, are the log's int64 columns."""
    frames = [CanFrame(0.01 * k, 0x100 + k % 3, 2, (k, 7)) for k in range(20)]
    block = FrameBlock.from_frames(frames)
    for can_id, dlc in (
        (block.can_id.astype(np.uint16), block.dlc.astype(np.int8)),
        (block.can_id.astype(object), block.dlc),
    ):
        log = FrameLog(block._replace(can_id=can_id, dlc=dlc))
        assert log.block.can_id.dtype == log.block.dlc.dtype == np.int64
        assert list(log) == frames and sinks(tmp_path)["writer"](log) == sinks(tmp_path)["writer"](frames)


def test_writer_and_block_windows_read_a_logs_columns(tmp_path, monkeypatch):
    """Only the directed stride-1 path and the sequence protocol build a FrameLog's frames, once, and
    only making the log checks its IDs and DLCs."""
    built, checked = [], []
    frames_of, ids_and_dlcs_ok = FrameBlock.frames, canlog._ids_and_dlcs_ok

    def counted(block):
        built.append(len(block.dlc))
        return frames_of(block)

    def counted_check(can_id, dlc):
        checked.append(len(dlc))
        return ids_and_dlcs_ok(can_id, dlc)

    monkeypatch.setattr(FrameBlock, "frames", counted)
    monkeypatch.setattr(canlog, "_ids_and_dlcs_ok", counted_check)
    log = generate_synthetic_log([*EVERY_DLC, SILENT], 1.5, TWO_BLOCKS, rng_seed=11)
    assert checked == [len(log)] and len(log) > canlog._BLOCK_FRAMES
    assert write_car_hacking_csv(log, tmp_path / "log.csv") == len(log)
    for stride, directed in ((None, True), (7, False), (7, True), (1, False)):
        assert list(build_windows(log, 100, stride, directed))
    assert built == []
    assert len(list(build_windows(log, 100, 1))) == len(log) - 99
    assert log[0] == list(log)[0] and log[-1] in log
    assert built == [len(log)] and checked == [len(log)]
