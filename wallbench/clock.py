"""Clock marks that carry the machine's current speed.

The machine's other tenants change how fast it runs this process, by up
to half, from one fraction of a second to the next; CPU time tracks wall
time, so the slowdown is not preemption.  Just before each clock mark,
:class:`SpeedClock` times :func:`reference_work`, a fixed slice of
interpreter work.  Dividing the wall time between two marks by how much
slower than :data:`REFERENCE_S` the slice ran gives the time the work
would have taken at the reference speed: over twelve trials of one seed,
window times so scaled varied by 2-4% (coefficient of variation) against
16% in plain wall-clock time.  Set-up, timed per 1000-row load batch,
is scaled the same way.  The slice is not part of the program, so a
change to the program still moves every chunk it touches.
"""

from __future__ import annotations

import time
from typing import Dict, List

perf_counter = time.perf_counter

#: Seconds :func:`reference_work` is taken to last at the reference speed
#: that scaled times refer to (about its typical duration on the 2-core
#: Xeon VM the benchmark was tuned on).
REFERENCE_S = 40e-6


def reference_work() -> int:
    """Dictionary reads and updates, as the engine does, for about
    :data:`REFERENCE_S` seconds."""
    counts: Dict[int, int] = {}
    for i in range(300):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return len(counts)


class SpeedClock:
    """Clock marks that time :func:`reference_work` on the way.

    Chunk ``i`` is the work between marks ``i`` and ``i + 1``.  A mark
    reads the clock (the end of the chunk before it), runs the reference
    slice, and reads the clock again (the start of the chunk after it).
    The slice runs right after the program's work, on caches that work
    left behind; a slice run twice and timed warm tracked the program's
    chunk times less closely (twice the spread over four runs of a seed),
    presumably because a cold slice also feels the other tenants' memory
    traffic as the program does.
    """

    def __init__(self) -> None:
        #: perf_counter at each mark where the chunk before it ends, and
        #: where the chunk after it starts.
        self.stops: List[float] = []
        self.marks: List[float] = []
        #: Seconds the timed reference slice took at each mark.
        self.refs: List[float] = []

    def mark(self) -> int:
        """Take a mark; returns its index."""
        stop = perf_counter()
        reference_work()
        end = perf_counter()
        self.stops.append(stop)
        self.refs.append(end - stop)
        self.marks.append(end)
        return len(self.marks) - 1

    def seconds(self, i: int) -> float:
        """Wall time of chunk ``i``."""
        return self.stops[i + 1] - self.marks[i]

    def slowdown(self, i: int) -> float:
        """How much slower than the reference speed the machine ran chunk
        ``i``: the mean reference time at its two marks over
        :data:`REFERENCE_S`."""
        refs = self.refs
        return (refs[i] + refs[min(i + 1, len(refs) - 1)]) / 2 / REFERENCE_S

    def scaled(self, i: int) -> float:
        """Time of chunk ``i`` at the reference speed."""
        return self.seconds(i) / self.slowdown(i)
