"""Synthetic CAN traffic with injected attacks, for desk-scale experiments.

Benign traffic is a merge of periodic per-ECU schedules with uniform
timestamp jitter of +/-10% of the period (perfectly periodic logs would
produce degenerate edge structure). Benign payload bytes stay below
BENIGN_BYTE_MAX so spoofed payloads, drawn from [SPOOF_BYTE_MIN, 255],
come from a provably disjoint distribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import canlog
from .canlog import MAX_STD_ID, FrameBlock, FrameLog, concat
from .errors import ConfigError, read_json, require_finite, require_int

BENIGN_BYTE_MAX = 119
SPOOF_BYTE_MIN = 136
REPLAY_BUFFER_LEN = 100
DOS_CAN_ID = 0  # lowest ID wins arbitration, so flooding uses 0
_MAX_FRAMES = np.iinfo(np.intp).max // 8  # the frames whose float64 timestamps numpy can size as one array


class AttackKind(enum.Enum):
    DOS = "dos"
    FUZZING = "fuzzing"
    SPOOFING = "spoofing"
    REPLAY = "replay"


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    start_time: float
    duration: float
    injection_rate: float
    target_id: int | None = None

    def validate(self, log_duration: float) -> "AttackSpec":
        if self.duration <= 0:
            raise ConfigError(f"{self.kind.value}: duration must be > 0")
        if self.injection_rate <= 0:
            raise ConfigError(f"{self.kind.value}: injection_rate must be > 0")
        if self.kind in (AttackKind.SPOOFING, AttackKind.REPLAY) and self.target_id is None:
            raise ConfigError(f"{self.kind.value} requires target_id")
        if self.target_id is not None and not 0 <= self.target_id <= MAX_STD_ID:
            raise ConfigError(f"{self.kind.value}: target_id {self.target_id} outside 11-bit range")
        if self.start_time < 0 or self.start_time + self.duration > log_duration:
            raise ConfigError(
                f"{self.kind.value}: window [{self.start_time}, "
                f"{self.start_time + self.duration}] outside [0, {log_duration}]"
            )
        return self


@dataclass(frozen=True)
class EcuSpec:
    can_id: int
    period: float
    payload_seed: int
    dlc: int = 8

    def validate(self) -> "EcuSpec":
        if self.period <= 0:
            raise ConfigError(f"ECU 0x{self.can_id:x}: period must be > 0")
        if not 0 <= self.can_id <= MAX_STD_ID:
            raise ConfigError(f"ECU ID {self.can_id} outside 11-bit range")
        if not 0 <= self.dlc <= 8:
            raise ConfigError(f"ECU 0x{self.can_id:x}: dlc {self.dlc} outside [0, 8]")
        return self


@dataclass(frozen=True)
class SynthConfig:
    ecus: tuple[EcuSpec, ...]
    duration: float
    attacks: tuple[AttackSpec, ...] = field(default_factory=tuple)


def _ecu_payload_low(ecu: EcuSpec) -> int:
    # per-ECU byte range [lo, lo+40], always within [0, BENIGN_BYTE_MAX]
    lo_rng = np.random.Generator(np.random.PCG64(ecu.payload_seed))
    return int(lo_rng.integers(0, BENIGN_BYTE_MAX - 40 + 1))


def generate_synthetic_log(
    ecu_schedule: Sequence[EcuSpec],
    duration: float,
    attacks: Sequence[AttackSpec] = (),
    rng_seed: int = 0,
) -> FrameLog:
    """Produce a labeled frame log, deterministic for a given seed.

    Injected frames carry Label.ATTACK; everything emitted by the periodic
    schedules is BENIGN. Frames are returned sorted by timestamp with a
    stable generation-order tie break, as a FrameLog: the log's columns,
    built into frames only when they are first read.

    A duration that is not > 0 is a ConfigError. Each schedule's and each
    burst's frame count is bounded from the config before any draw: a
    schedule sends at most about ``duration / period`` frames and a burst
    ``duration * rate``. A count that is not finite, or that no array can
    hold, is a ConfigError naming its ECU or attack; a MemoryError while
    generating is a ConfigError giving the total count.
    """
    if not duration > 0:  # also nan
        raise ConfigError(f"duration must be > 0, got {duration}")
    if not ecu_schedule:
        raise ConfigError("need at least one ECU")
    for ecu in ecu_schedule:
        ecu.validate()
    for atk in attacks:
        atk.validate(duration)
    counts = [(f"ECU 0x{ecu.can_id:x}", duration / ecu.period) for ecu in ecu_schedule]
    counts += [(atk.kind.value, atk.duration * atk.injection_rate) for atk in attacks]
    for name, count in counts:
        if not count < _MAX_FRAMES:  # also inf and nan
            raise ConfigError(f"{name}: {count:.3g} frames, more than an array can hold")
    try:
        return FrameLog(_merged_frames(ecu_schedule, duration, attacks, rng_seed))
    except MemoryError:
        total = sum(max(count, 0.0) for _, count in counts)
        raise ConfigError(f"the log of about {total:,.0f} frames does not fit in memory") from None


def _merged_frames(
    ecu_schedule: Sequence[EcuSpec], duration: float, attacks: Sequence[AttackSpec], rng_seed: int
) -> FrameBlock:
    """The frames of generate_synthetic_log's log, drawn and merged into one block."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    parts: list[FrameBlock] = []  # in generation order; a stable sort on the timestamp breaks ties by it

    for ecu in ecu_schedule:
        lo = _ecu_payload_low(ecu)
        phase = float(rng.uniform(0.0, ecu.period))
        n_emit = int(np.ceil((duration - phase) / ecu.period)) if phase < duration else 0
        base = phase + ecu.period * np.arange(n_emit)
        jitter = rng.uniform(-0.1 * ecu.period, 0.1 * ecu.period, size=n_emit)
        payload = np.zeros((n_emit, 8), dtype=np.uint8)
        # one (n_emit, dlc) draw takes the same numbers from the stream as n_emit draws of dlc
        payload[:, : ecu.dlc] = rng.integers(lo, lo + 41, size=(n_emit, ecu.dlc))
        parts.append(_part(np.maximum(base + jitter, 0.0), ecu.can_id, ecu.dlc, payload, False))

    for atk in attacks:
        step = 1.0 / atk.injection_rate
        n_inject = int(np.floor(atk.duration * atk.injection_rate))
        base = atk.start_time + step * np.arange(n_inject)
        times = np.maximum(base + rng.uniform(-0.1 * step, 0.1 * step, size=n_inject), 0.0)
        if atk.kind == AttackKind.DOS:
            parts.append(_part(times, DOS_CAN_ID, 8, np.zeros((n_inject, 8), dtype=np.uint8), True))
        elif atk.kind == AttackKind.FUZZING:
            parts.append(_part(times, *_fuzzing_draws(rng, n_inject), True))
        elif atk.kind == AttackKind.SPOOFING:
            payload = rng.integers(SPOOF_BYTE_MIN, 256, size=(n_inject, 8)).astype(np.uint8)
            parts.append(_part(times, atk.target_id, 8, payload, True))
        else:  # REPLAY
            sent = concat(parts)
            recorded = np.flatnonzero((sent.can_id == atk.target_id) & ~sent.attack & (sent.timestamp < atk.start_time))
            buffer = recorded[np.argsort(sent.timestamp[recorded], kind="stable")][-REPLAY_BUFFER_LEN:]
            if not len(buffer):
                raise ConfigError(
                    f"replay: no benign frames of 0x{atk.target_id:x} before t={atk.start_time}"
                )
            src = buffer[np.arange(n_inject) % len(buffer)]
            parts.append(_part(times, sent.can_id[src], sent.dlc[src], sent.payload[src], True))

    log = concat(parts)
    order = np.argsort(log.timestamp, kind="stable")
    return FrameBlock(*(column[order] for column in log))


def _fuzzing_draws(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ID, DLC and payload columns of ``n`` fuzzing frames, and ``rng`` left where it stands after

        for each frame: can_id = rng.integers(0, 2048); dlc = rng.integers(0, 9)
                        payload = rng.integers(0, 256, size=dlc)

    numpy's ``Generator.integers`` maps one 32-bit stream word ``u`` to each value below a bound
    ``b < 2**32`` by Lemire's method (Lemire, "Fast Random Integer Generation in an Interval", ACM
    TOMACS 2019): the value is ``(u * b) >> 32``, and ``u`` is rejected for the next word while
    ``(u * b) mod 2**32 < 2**32 mod b``. So the ID is ``u >> 21`` and a payload byte ``u >> 24``, with
    no rejection, and the DLC is ``(u * 9) >> 32`` unless ``(u * 9) mod 2**32 < 4``.

    The frames go in chunks of at most canlog._BLOCK_FRAMES. For each, the raw words are drawn in
    one ``integers(0, 2**32, dtype=np.uint64)`` call, 10 per frame (a frame without a rejection uses
    at most 10), and mapped; then the bit generator's saved state, which holds PCG64's buffered
    32-bit half, is restored and exactly the words the chunk's complete frames used are drawn again.
    The frames whose words ran out go to the next chunk; a draw that completes none is doubled.
    """
    can_id, dlc = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    payload = np.zeros((n, 8), dtype=np.uint8)
    done = stalls = 0
    while done < n:
        m = min(n - done, canlog._BLOCK_FRAMES)
        state = rng.bit_generator.state
        words = rng.integers(0, 2**32, size=(10 * m) << stalls, dtype=np.uint64)
        size = len(words)
        scaled = words * 9
        # dlc_at[p]: where the DLC of a frame that starts at p is drawn, the first accepted word after p
        accepted = np.arange(size + 1)
        accepted[:-1][(scaled & 0xFFFFFFFF) < 4] = size
        dlc_at = np.minimum.accumulate(accepted[::-1])[-2::-1]
        frame_dlc = (scaled[np.minimum(dlc_at, size - 1)] >> 32).astype(np.int64)
        end = dlc_at + 1 + frame_dlc  # where the next frame starts; past size if this one does not fit
        fits = np.append(end <= size, False)
        # the starts 0, end[0], end[end[0]], ...: the next 2**b are the first 2**b moved on by 2**b frames
        start, jump = np.zeros(1, dtype=np.int64), np.append(np.minimum(end, size), size)
        while len(start) < m:
            start, jump = np.append(start, jump[start]), jump[jump]
        start = start[:m][fits[start[:m]]]
        k = len(start)
        rng.bit_generator.state = state
        rng.integers(0, 2**32, size=end[start[-1]] if k else 0, dtype=np.uint64)
        stalls = 0 if k else stalls + 1
        frames = slice(done, done + k)
        can_id[frames] = words[start] >> 21
        dlc[frames] = frame_dlc[start]
        byte_at = np.minimum(dlc_at[start, None] + np.arange(1, 9), size - 1)
        payload[frames] = np.where(np.arange(8) < dlc[frames, None], words[byte_at] >> 24, 0)
        done += k
    return can_id, dlc, payload


def _part(times: np.ndarray, can_id, dlc, payload: np.ndarray, attack: bool) -> FrameBlock:
    """The frames sent at ``times``, each column given per frame or as one value for all."""
    n = len(times)
    return FrameBlock(
        times,
        np.broadcast_to(np.asarray(can_id, dtype=np.int64), n),
        np.broadcast_to(np.asarray(dlc, dtype=np.int64), n),
        payload,
        np.full(n, attack),
    )


def load_synth_config(path) -> SynthConfig:
    """Read a generator config from a JSON file.

    Numbers must be JSON numbers: integers (not booleans) for the IDs, seeds and DLC, finite numbers
    for the times and rates, and the log's duration > 0. Each ECU and attack is validated here, so that
    its error names the file.

    Schema: {"duration": float,
             "ecus": [{"can_id", "period", "payload_seed", "dlc"?}, ...],
             "attacks": [{"kind", "start", "duration", "rate", "target_id"?}, ...]}
    """
    raw = read_json(path)
    try:
        ecus = tuple(
            EcuSpec(
                require_int(f"ecus[{i}].can_id", e["can_id"], 0),
                require_finite(f"ecus[{i}].period", e["period"]),
                require_int(f"ecus[{i}].payload_seed", e["payload_seed"], 0),
                require_int(f"ecus[{i}].dlc", e.get("dlc", 8), 0),
            ).validate()
            for i, e in enumerate(raw["ecus"])
        )
        attacks = tuple(
            AttackSpec(
                AttackKind(a["kind"]),
                require_finite(f"attacks[{i}].start", a["start"]),
                require_finite(f"attacks[{i}].duration", a["duration"]),
                require_finite(f"attacks[{i}].rate", a["rate"]),
                require_int(f"attacks[{i}].target_id", a["target_id"], 0) if a.get("target_id") is not None else None,
            )
            for i, a in enumerate(raw.get("attacks", []))
        )
        duration = require_finite("duration", raw["duration"], positive=True)
        for attack in attacks:
            attack.validate(duration)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: bad generator config ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return SynthConfig(ecus=ecus, duration=duration, attacks=attacks)
