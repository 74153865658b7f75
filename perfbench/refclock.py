"""Time scaled to a fixed machine speed.

The machines this benchmark runs on share their cores, and the speed of a
pure-Python loop there drifts by a factor of two in phases lasting seconds
to minutes. A raw wall-clock figure then says more about the neighbours
than about arborkit. So every reported time is a reference time: while the
benchmark runs, an interval timer interrupts it every ``INTERVAL`` seconds
and times a fixed calibration loop (its second run, as the first one finds
the caches full of whatever was interrupted). Each stretch of wall time
between two probes is scaled by ``CAL_SECONDS / (median of the last three
probe times)``. A stretch at the speed where the loop takes ``CAL_SECONDS`` counts
at face value; the probes' own time is not counted. Raw wall times are
printed next to the reference times.

The calibration loop does the interpreter work arborkit does (dict and list
updates, integer arithmetic, tuple building, a sort) and touches no arborkit
code, so a change to arborkit moves the reference times and not the scale.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.05
CAL_SECONDS = 0.0005


def calibration_loop() -> int:
    table: dict[int, int] = {}
    pairs = []
    acc = 0
    for i in range(1200):
        key = i % 89
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
        acc += (i * 2654435761) & 0xFFFF
    pairs.sort()
    return acc + len(pairs)


class RefClock:
    """Maps perf_counter readings to reference seconds; see the module doc."""

    def __init__(self):
        self._wall = [time.perf_counter()]  # segment starts
        self._ref = [0.0]                   # reference time at each start
        self._speed: list[float] = []       # speed of each closed segment
        self._recent: list[float] = []
        self._last_speed = 1.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_loop()  # warms the caches the interrupted code has cooled
        timed = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self._recent = (self._recent + [end - timed])[-3:]
        speed = CAL_SECONDS / statistics.median(self._recent)
        # the stretch since the last probe ran at this speed, then the
        # probe itself, which counts for nothing
        at_start = self._ref[-1] + (start - self._wall[-1]) * speed
        self._speed += [speed, 0.0]
        self._wall += [start, end]
        self._ref += [at_start, at_start]
        self._last_speed = speed

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def ref(self, wall: float) -> float:
        """Reference seconds at a perf_counter reading taken since start()."""
        i = bisect.bisect_right(self._wall, wall) - 1
        speed = self._speed[i] if i < len(self._speed) else self._last_speed
        return self._ref[i] + (wall - self._wall[i]) * speed

    def span(self, start: float, end: float) -> float:
        return self.ref(end) - self.ref(start)
