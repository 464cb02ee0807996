"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the processor's speed drifts by 20 % and more over tens
of seconds, and ``time.process_time`` drifts with wall time, so no run
length averages it away.  The benchmark times this kernel right before and
right after each timed call and divides the call's wall time by it: the
drift cancels, and what remains is the call's cost in units of the kernel.
Times are reported as that ratio times ``NOMINAL_S``, the kernel's median
time on the machine the bounds were set on, so they read as wall seconds
there.

The kernel does the kinds of work the rinclose walks do (interpreter loops,
Python big-integer masks, numpy fancy indexing, sorting and reductions on
small arrays) on fixed data, and it never touches rinclose, so no change to
the program moves it.
"""

from __future__ import annotations

import statistics
import time

# a typical median chunk time on a shared 2-core x86-64 VM (Python 3.11, numpy 2.4),
# where it ranged over 4.8-7.3 ms as the machine's speed drifted; it only sets the unit
NOMINAL_S = 0.0060
CHUNKS = 5


class Reference:
    """The kernel and its fixed data (built once, outside any timed region)."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20140315)
        self.np = np
        self.values = rng.random((400, 12))
        self.rows = [np.sort(rng.choice(400, size=120, replace=False)) for _ in range(8)]
        self.masks = [int(x) for x in rng.integers(0, 2**62, size=64)]
        self.masks = [a << 640 | b << 320 | a ^ b for a, b in zip(self.masks, self.masks[1:])]

    def _chunk(self) -> int:
        np = self.np
        acc = 0
        for k in range(48):
            rows = self.rows[k % 8]
            sub = self.values[rows]
            span = sub.max(axis=0) - sub.min(axis=0)
            order = np.lexsort((rows, sub[:, k % 12]))
            acc += int(np.flatnonzero(sub[order, k % 12] > 0.5).size) + int(span.argmax())
            seen = set()
            for j in range(40):
                m = self.masks[(k + j) % 63] & self.masks[(k * 7 + j) % 63]
                acc += bin(m).count("1")
                seen.add(j * k % 17)
            acc += len(seen)
        return acc

    def seconds(self) -> float:
        """Median seconds of one chunk over CHUNKS runs (the median drops interrupts)."""
        times = []
        for _ in range(CHUNKS):
            t0 = time.perf_counter()
            self._chunk()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def cost(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds of a call, rescaled to the speed at which the kernel takes NOMINAL_S."""
    return seconds * NOMINAL_S / ((ref_before + ref_after) / 2)
