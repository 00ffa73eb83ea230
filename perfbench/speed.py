"""Host-speed calibration: every end-to-end time at one reference speed.

The benchmark runs on a shared host whose speed drifts by up to a factor
of two over tens of seconds, and process CPU time drifts with it, so a
raw wall or CPU time measures the neighbours as much as the program.
The benchmark therefore times a fixed kernel of its own (:func:`kernel`,
the mix of work a release does) right before and right after each timed
operation, and scales the operation's time by how fast the kernel ran
around it::

    scaled = seconds * REFERENCE_S / mean(kernel before, kernel after)

A scaled time is the time the operation would take on a host that runs
the kernel in :data:`REFERENCE_S` seconds. The kernel is part of the
benchmark, not of the program, so a faster program still reads faster.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Seconds the kernel takes on the reference host (a 2-core shared host
#: ran it in 0.08-0.14 s).
REFERENCE_S = 0.10


class _Record:
    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def kernel(ramp: np.ndarray, noise: np.ndarray) -> float:
    """A fixed amount of work of four kinds that a release also does:
    dict updates in an interpreter loop, small-array numpy calls, sorts
    of a 1 MB array, and building and sorting many small objects. Timed
    on the same host, the four together follow a release's speed more
    closely than any one alone."""
    table: dict[int, int] = {}
    total = 0.0
    for i in range(60_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        total += (i & 7) * 0.5
    values = ramp
    for _ in range(1_500):
        values = np.sqrt(np.abs(np.sin(values) * 1.0001 + 0.1))
        total += float(values[::64].sum())
    for _ in range(20):
        total += float(np.sort(noise[::3])[100])
    records = [_Record(i, float(i)) for i in range(60_000)]
    records.sort(key=lambda record: -record.value)
    return total + len(table) + sum(record.key for record in records[:100])


class Gauge:
    """Kernel timings around a sequence of timed operations.

    Call :meth:`tick` once before the first operation and once after
    each; :meth:`scale` then turns an operation's wall and CPU seconds
    into reference seconds with the two ticks around it.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._inputs = (
            np.linspace(0.0, 1.0, 512),
            np.random.default_rng(0).random(400_000),
        )

    def tick(self) -> None:
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        kernel(*self._inputs)
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(time.process_time() - cpu0)

    def scale(self, wall: float, cpu: float = 0.0) -> tuple[float, float]:
        """``(wall, cpu)`` of the operation between the last two ticks,
        in reference seconds."""
        return (
            wall * 2 * REFERENCE_S / (self.wall[-2] + self.wall[-1]),
            cpu * 2 * REFERENCE_S / (self.cpu[-2] + self.cpu[-1]),
        )
