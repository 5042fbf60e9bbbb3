"""Reference seconds: times scaled by a fixed kernel timed alongside them.

The benchmark runs on a few cores of a shared host, whose speed drifts with
the load of its neighbours: from one half-minute to the next, the same work
can take 1.3 to 1.7 times as long.  Raw wall times of runs made minutes
apart then differ by more than any change worth measuring.

So a child times its work with a ``Clock`` that also runs a fixed
pure-Python reference kernel (tuple-keyed dict lookups, the package's own
kind of work): once before timing starts, again at a tick once at least
``TICK_S`` seconds of timed work have passed (ticks come only between calls
into the package, never inside one), and once after timing stops.  The kernel's time is never part of the timed
work.  ``scaled`` turns a child's raw times into reference seconds, using
the median of that child's kernel times: the time the work would have
taken on a host where the kernel takes ``REFERENCE_S`` seconds, its time
on an idle 2-vCPU x86-64 VM, where scaled and raw times then roughly
agree.  Pairing each repetition with its own kernel times follows the
host's drift from one repetition to the next; a set-up-only child runs the
kernel three times.

The kernel's table is built once, before timing starts, and the kernel
allocates nothing at all: it only looks up keys and xors cached small
ints.  (A kernel whose arithmetic made int objects raised the peak RSS of
one seeded h_metric run by 6 MB, by where its objects landed between the
package's.)  So it adds a constant, about 4 MB, to the peak RSS of every
repetition.
"""
from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.023  # the kernel's time on an idle 2-vCPU x86-64 VM
TICK_S = 0.5  # timed work between two kernel runs, at least
_KEYS = 20_000
_ROUNDS = 12


def _table():
    keys = [(i, (i * 7919) % _KEYS, i & 1) for i in range(_KEYS)]
    table = {k: i & 255 for i, k in enumerate(keys)}  # small ints: never allocated
    keys.sort(key=lambda k: k[1])  # visit the table out of insertion order
    return table, keys


def _kernel(table, keys) -> int:
    acc = 0
    for _ in range(_ROUNDS):
        for k in keys:
            acc ^= table[k]
    return acc


def scaled(raw_s: float, kernel_s: list[float]) -> float:
    """raw_s in reference seconds, given the kernel times of the same child."""
    return raw_s * REFERENCE_S / statistics.median(kernel_s)


class Clock:
    """Raw seconds of the work between ``start()`` and ``stop()``, kernel excluded."""

    def __init__(self) -> None:
        self._table, self._keys = _table()
        _kernel(self._table, self._keys)  # warm-up, not a sample
        self.kernel_s: list[float] = []
        self.raw_s = 0.0
        self._t0 = None

    def kernel(self) -> float:
        """Run the reference kernel once; its time (also kept in kernel_s)."""
        t0 = time.perf_counter()
        _kernel(self._table, self._keys)
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt)
        return dt

    def start(self) -> None:
        self.kernel()
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        """Between calls into the package: run the kernel if it is due."""
        if self._t0 is not None and time.perf_counter() - self._t0 >= TICK_S:
            self.raw_s += time.perf_counter() - self._t0
            self.kernel()
            self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.raw_s += time.perf_counter() - self._t0
        self._t0 = None
        self.kernel()
