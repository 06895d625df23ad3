"""Host-speed calibration: wall time scaled to a reference host.

On a shared virtual machine the speed of a vCPU drifts as neighbours load
the host: the same count took from 87 ms to 295 ms within a minute, in CPU
time as much as in wall time, and the mean over 30 s windows moved by about
20%.  A fixed pure-Python loop slows down with denthex.  On a 2-vCPU VM,
over twelve 30 s windows, the mean time of Hex(6,6,6) counts, RS filter
counts and small verify suites, each divided by the mean time of
calibration loops interleaved with them, spread 3% (quartiles over median)
where the raw means spread 18-21%.  Medians and minima of the same samples
tracked the host two to three times worse, so means are used, with a loop
that a pause interrupted capped (see ``CLIP``).

``Sampler`` runs the calibration loop from a ``SIGALRM`` timer every
``INTERVAL`` seconds, so the samples are spread evenly over wall time, also
inside a long count.  The time the loop takes is kept out of every
measurement: ``Sampler.now`` is the wall clock minus all calibration time so
far.  ``factor`` then turns times measured over a span of the run into
reference seconds: ``REF_SECONDS`` over the mean loop time of the samples
taken in that span, each capped at ``CLIP`` times their median.  On a host
where the loop takes ``REF_SECONDS`` the two agree.  The loop touches
nothing of denthex, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The reference host is one on which the calibration loop takes 0.2 ms.  A
# shared 2.1 GHz VM with Python 3.11.7 took 0.15 to 0.3 ms as its load changed.
REF_SECONDS = 0.0002
# Sampling every 10 ms and scaling a short operation by the 5 samples nearest
# to it halved the pass-to-pass spread of single counts of 5-180 ms on that
# VM; sampling every 100 ms removed only a third of it.
INTERVAL = 0.01  # seconds of wall time between calibration loops
MIN_SAMPLES = 5  # a span with fewer samples borrows its nearest neighbours'
CLIP = 3.0  # a loop counts as at most this many times its span's median loop


def _loop() -> int:
    """A frontier-style DP in miniature: int masks and dict updates."""
    states = {0: 1}
    for i in range(10):
        new: dict[int, int] = {}
        for mask, acc in states.items():
            for m2 in (mask ^ (1 << (i % 6)), (mask | (1 << ((i + 3) % 6))) & 63):
                new[m2] = new.get(m2, 0) + acc * 3 + i
        states = new
    return sum(states.values())


class Sampler:
    """Calibration loops on a wall-clock timer, and a clock that skips them."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter when each loop began
        self.loops: list[float] = []  # seconds each loop took
        self.stolen = 0.0  # wall seconds spent in the handler so far
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.loops.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        self._handler(None, None)  # one sample before any timer fires
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> float:
        """Wall time in seconds, calibration loops left out."""
        while True:
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:  # no loop ran in between
                return t - stolen

    def factor(self, spans) -> float:
        """Reference seconds per second of work done in the given spans.

        ``spans`` are (begin, end) ``time.perf_counter`` readings.  The
        samples taken inside them are used, or the MIN_SAMPLES nearest to
        the middle of the first span if they are fewer: the host's speed
        changes within tens of milliseconds, so a short operation is scaled
        by the samples closest to it.
        """
        starts, loops = self.starts, self.loops
        inside = []
        for b, e in spans:
            inside += loops[bisect.bisect_left(starts, b) : bisect.bisect_right(starts, e)]
        if len(inside) < MIN_SAMPLES:
            mid = (spans[0][0] + spans[0][1]) / 2
            i = bisect.bisect(starts, mid)
            window = range(max(0, i - MIN_SAMPLES), min(len(starts), i + MIN_SAMPLES))
            nearest = sorted(window, key=lambda j: abs(starts[j] - mid))[:MIN_SAMPLES]
            inside = [loops[j] for j in nearest]
        # A loop far slower than its neighbours was interrupted rather than
        # slowed: left in, one such sample moved a pass by up to 15%.
        cap = CLIP * statistics.median(inside)
        return REF_SECONDS / statistics.fmean(min(t, cap) for t in inside)
