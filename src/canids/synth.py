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

    Each schedule's and each burst's frame count is bounded from the config
    before any draw: a schedule sends at most about ``duration / period``
    frames and a burst ``duration * rate``. A count that is not finite, or
    that no array can hold, is a ConfigError naming its ECU or attack; a
    MemoryError while generating is a ConfigError giving the total count.
    """
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
            # ID, DLC and payload draws interleave frame by frame, so they stay per frame
            can_id = np.zeros(n_inject, dtype=np.int64)
            dlc = np.zeros(n_inject, dtype=np.int64)
            payload = np.zeros((n_inject, 8), dtype=np.uint8)
            for k in range(n_inject):
                can_id[k] = rng.integers(0, 2048)
                dlc[k] = n = int(rng.integers(0, 9))
                payload[k, :n] = rng.integers(0, 256, size=n)
            parts.append(_part(times, can_id, dlc, payload, True))
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
    for the times and rates. Each ECU and attack is validated here, so that its error names the file.

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
        duration = require_finite("duration", raw["duration"])
        for attack in attacks:
            attack.validate(duration)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: bad generator config ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return SynthConfig(ecus=ecus, duration=duration, attacks=attacks)
