"""Host-speed probe: times measured in seconds at a fixed reference speed.

The shared host this benchmark was built on changes speed by up to 2x
within seconds, with CPU time equal to wall time, so a raw time says
more about the neighbours than about the program.  The probe times a
fixed pure-Python loop, the reference, next to the program and scales
each stretch of program time by ``REFERENCE_S / reference time``.  The
result is the time the program would take on a host where the reference
takes ``REFERENCE_S``: a slower host makes both slower and cancels out,
a slower program does not.

During a pass the probe runs the reference from a ``SIGALRM`` handler
every ``INTERVAL_S`` seconds of wall time, in the same thread as the
program, and leaves the handler's own time out of the program's.
"""

import signal
import statistics
import time

REFERENCE_S = 0.002  # the reference loop's time on the nominal host
REFERENCE_ITERATIONS = 1400
INTERVAL_S = 0.1


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x):
        self.x = x
        self.y = x + 1

    def area(self):
        return self.x * self.y


def _add(a, b=1):
    return a + b


def reference_loop() -> int:
    """Fixed interpreter work: calls, small objects, tuples and dicts.

    Of the loops tried on the host above, calls and short-lived objects
    slowed the most like the program did; tight dict loops and pointer
    chasing through large lists slowed more or less than it.
    """
    kept = []
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        point = _Point(i)
        total += _add(i, b=point.area()) & 0xFFFF
        key = tuple(range(i % 8))
        kept.append({key: [i, key], "k": (i, str(i))})
    return total + len(kept)


def reference_time(repeats=5) -> float:
    """Median seconds of one reference loop, timed ``repeats`` times now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Probe:
    """Scales the program time between ``start`` and ``stop``.

    After ``stop``, ``raw_s`` is the program's own wall time (the
    handler's time left out) and ``scaled_s`` that time at reference
    speed.  Each stretch between two probes is scaled by the mean of the
    reference times at its two ends.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.references = []

    def _sample(self, *_):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        ref = end - start
        stretch = start - self._last_end
        self.raw_s += stretch
        self.scaled_s += stretch * REFERENCE_S / ((self._last_ref + ref) / 2)
        self.references.append(ref)
        self._last_end, self._last_ref = end, ref

    def start(self):
        self._last_ref = reference_time()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last_end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()  # an alarm still pending is handled in here
        signal.signal(signal.SIGALRM, self._previous)
