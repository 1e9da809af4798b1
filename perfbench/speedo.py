"""Speedometer: times scaled to a fixed machine speed, call limits on that
scaled clock, and memory samples.

On a shared machine the speed of one core changes by up to 2x within
seconds, and no clock inside the process shows it: CPU time grows as fast as
wall time.  So every PERIOD_S of wall time a signal handler runs a short
fixed kernel (interpreter work on small tuples and dicts, plus one
str.translate, the mix of the package's own work) and records how long it
took.  An interval of wall time is then converted into the time it would
have taken at the speed where the kernel takes NOMINAL_S, with the kernel's
own time taken out.  Measured on a 2-vCPU VM, this cut the run-to-run
spread of a fixed pass of work from 8-16% to 0.5-3.5%.

The conversion is additive: scaled(a, c) == scaled(a, b) + scaled(b, c),
so span self times can be scaled too.  Call limits run on the same clock: a
limited call is stopped at the first tick after it has used its scaled
time, so up to PERIOD_S late.  The speedometer owns SIGALRM while it runs.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import time

PERIOD_S = 0.1
NOMINAL_S = 0.001
SMOOTH = 2  # each slice's speed is the mean over this many samples either side

_TABLE = {ord("a"): "ab", ord("b"): "a", ord("c"): "c"}
_TEXT = "abcab" * 4000
_KEYS = tuple(range(200))
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def _kernel() -> int:
    d = {}
    for i in range(300):
        d[_KEYS[i % 200 : i % 200 + 3]] = i
    return _TEXT.translate(_TABLE).count("aab") + len(d)


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE_MB


class CallTimeout(BaseException):
    """Raised from the speedometer's tick when a limited call has used up its
    scaled time.

    A BaseException, so that verify_certificate's blanket `except Exception`
    cannot turn a timeout into a failed certificate.  `interval` is the
    call's (start, stop) on the perf_counter clock.
    """

    interval = (0.0, 0.0)


class Speedometer:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.rss_mb: list[float] = []
        self._cum: list[float] = []
        self._factor: list[float] = []
        self._limit: float | None = None
        self._used = 0.0
        self._since = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.rss_mb.append(_rss_mb())
        if self._limit is not None:
            recent = self.durations[-1 - 2 * SMOOTH :]
            self._used += (t0 - self._since) * NOMINAL_S * len(recent) / sum(recent)
            self._since = time.perf_counter()
            if self._used > self._limit:
                raise CallTimeout  # again at each tick, should a caller swallow it

    @contextlib.contextmanager
    def limit(self, seconds: float):
        """Stop the body with CallTimeout at the first tick after it has used
        `seconds` of scaled time."""
        self._limit, self._used, self._since = seconds, 0.0, time.perf_counter()
        try:
            yield
        finally:
            self._limit = None

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling; a last sample brackets even a run shorter than PERIOD_S."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._limit = None
        self._tick(None, None)
        n = len(self.durations)
        self._factor = []
        for i in range(n):
            window = self.durations[max(0, i - SMOOTH) : i + SMOOTH + 1]
            self._factor.append(NOMINAL_S * len(window) / sum(window))
        # scaled time from the first sample's start to each sample's start
        self._cum = [0.0]
        for i in range(n - 1):
            gap = self.starts[i + 1] - self.starts[i] - self.durations[i]
            self._cum.append(self._cum[-1] + max(gap, 0.0) * self._factor[i])

    def at(self, t: float) -> float:
        """Scaled time from the first sample to t (negative before it)."""
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self._factor[0]
        since = t - self.starts[i] - self.durations[i]
        return self._cum[i] + max(since, 0.0) * self._factor[i]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the wall interval [t0, t1] takes at the nominal speed."""
        return self.at(t1) - self.at(t0)

    def slowdown(self) -> float:
        """Mean kernel time over nominal: above 1, the machine ran slower."""
        return sum(self.durations) / len(self.durations) / NOMINAL_S
