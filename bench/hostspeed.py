"""Work time at a fixed host speed, for a host whose speed drifts.

On a shared virtual machine the same work can take 1.5-2x as long in a
slow spell as in a fast one, and spells last from a second to several
minutes, longer than a benchmark run. No choice of repeats inside a run
gets round a slow spell that lasts the whole run. So every timed piece
of work is scaled by the host's speed at that moment, measured with a
probe that never calls canids. The probe has two parts, each timed best
of PROBE_REPEATS: a fixed mix of pure-Python object work and small numpy
operations, like the mix of the canids layers, and two sums over a 16 MB
array, which track the slowdown of memory-bound work. Either part alone
follows the canids layers less closely than the two together.

``HostSpeed.probe()`` sets ``factor`` to the host's speed relative to
the reference (the mean of each part's reference time over its probe
time, inverted); ``scaled(seconds)`` is then the time the work would
have taken at the reference speed. Callers probe again with
``maybe_probe()`` between pieces of work, at most every PROBE_EVERY_S,
and take the probe out of the pieces they time.
"""

from __future__ import annotations

import time

import numpy as np

# The parts' times in a fast spell on the 2-vCPU VM the benchmark was
# tuned on (Xeon, Python 3.11, numpy 2.4 on OpenBLAS at one thread).
MIX_REF_S = 0.003
SUM_REF_S = 0.0018
PROBE_EVERY_S = 0.3
PROBE_REPEATS = 3

_MATRIX = np.random.default_rng(0).random((16, 16))
_VECTOR = np.arange(256, dtype=np.float64)
_LARGE = np.ones(2_000_000)


def _mix() -> float:
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(1000):
        total += i * i
        table[i & 255] = str(i)
        _MATRIX @ _MATRIX
        _VECTOR[i & 127 : (i & 127) + 32].sum()
    return time.perf_counter() - t0


def _sums() -> float:
    t0 = time.perf_counter()
    _LARGE.sum()
    _LARGE.sum()
    return time.perf_counter() - t0


class HostSpeed:
    """The host's speed as last probed; with ``enabled=False`` it never probes and scales by 1."""

    def __init__(self, enabled: bool = True):
        self.factor = 1.0
        self.enabled = enabled
        self.readings: list[float] = []  # slowness: reference speed over the host's
        self.probe_s = 0.0  # time spent probing
        self._last = -float("inf")

    def probe(self):
        if not self.enabled:
            return
        t0 = time.perf_counter()
        mix = min(_mix() for _ in range(PROBE_REPEATS))
        sums = min(_sums() for _ in range(PROBE_REPEATS))
        slowness = (mix / MIX_REF_S + sums / SUM_REF_S) / 2
        self.readings.append(slowness)
        self.factor = 1.0 / slowness
        self._last = time.perf_counter()
        self.probe_s += self._last - t0

    def maybe_probe(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor
