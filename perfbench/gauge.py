"""Host speed gauge: a fixed calibration loop sampled while ops run.

On a shared host the speed a process gets swings by tens of percent over a
few seconds (neighbours on the same cores, memory bandwidth), often in
steps.  Timings are therefore reported in nominal seconds: an op's own
wall time times the loop's nominal time over the loop's time measured
while the op ran.  A nominal second is a wall second on a host that runs
the loop in NOMINAL_S, about its uncontended time on this benchmark's
first host (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).  Wall times are
printed too.

A SIGALRM interval timer runs the loop every PERIOD_S in the main thread,
between bytecodes of whatever is running, so that a step in host speed in
the middle of a long op is seen; the time spent in the loop is taken out
of the op's time.  An op that no sample fell into uses the latest sample
of its kind, renewed before the op when it is older than PERIOD_S.  A
sample is the median of SAMPLE_LOOPS loops, so that one interrupt does not
skew it, and the garbage collector is off while it runs: otherwise the
loop's allocations would set off collections of the op's live objects, and
a package change that grows or shrinks its heap would move the loop's
speed as well as its own.  Samples taken inside ops and between them are
kept apart; gauge_check.py compares the two, so that any other way in
which an op's state reaches the loop shows.

How much a neighbour slows code depends on what the code does, so each op
names the loop that resembles it: "python" (calls, frozen dataclasses,
math: the scalar sweeps, estimation, tables and CLI), "numpy-small" (8x8
eigh: the exact oracles) or "numpy-large" (Philox draws: Monte Carlo
sampling at large M).  The loops use no code of the package, so a change
to it cannot move them.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, replace

#: Interval between two speed samples, in wall seconds.
PERIOD_S = 0.05
#: Loops per sample; the sample is their median.
SAMPLE_LOOPS = 3
#: Nominal time of one calibration loop, in seconds.
NOMINAL_S = 0.001
KINDS = ("python", "numpy-small", "numpy-large")


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a < 0.0:
            raise ValueError("a must be >= 0")


def _python_loop() -> None:
    point = _Point(1.0, 2.0)
    for i in range(265):
        x = i * 1e-4
        step = _Point(a=1.0 / (1.0 + math.exp(-x)), b=math.log1p(x))
        point = replace(point, a=step.a + 0.5 * point.a)


def _numpy_loops() -> dict:
    import numpy as np

    h = np.random.default_rng(1).random((8, 8))
    h = h + h.T
    rng = np.random.Generator(np.random.Philox(0))

    def small() -> None:
        for _ in range(44):
            np.linalg.eigh(h)

    def large() -> None:
        np.count_nonzero(rng.random(100_000) < 0.5)

    return {"numpy-small": small, "numpy-large": large}


class Gauge:
    """Samples host speed while ops run; use as a context manager."""

    def __init__(self, kinds: tuple[str, ...] = KINDS) -> None:
        self.loops = {"python": _python_loop}
        if any(k != "python" for k in kinds):
            self.loops.update(_numpy_loops())
        self.kind = kinds[0]
        self.inside = False  # whether an op is running
        self.latest: dict[str, float] = {}
        self.latest_at: dict[str, float] = {}
        self.sums = {(k, inside): 0.0 for k in kinds for inside in (False, True)}
        self.counts = {(k, inside): 0 for k in kinds for inside in (False, True)}
        self.spent = 0.0  # wall seconds inside the loop, all kinds
        for kind in kinds:
            self.loops[kind]()  # warm-up
            self.sample(kind)

    def sample(self, kind: str) -> float:
        loop = self.loops[kind]
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(SAMPLE_LOOPS):
                start = time.perf_counter()
                loop()
                times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        speed = statistics.median(times)
        self.latest[kind], self.latest_at[kind] = speed, time.perf_counter()
        self.sums[kind, self.inside] += speed
        self.counts[kind, self.inside] += 1
        self.spent += sum(times)
        return speed

    def _tick(self, signum, frame) -> None:
        self.sample(self.kind)

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run(self, kind: str, fn):
        """(fn's result or the exception it raised, own wall s, nominal s)."""
        self.kind = kind
        if time.perf_counter() - self.latest_at[kind] > PERIOD_S:
            self.sample(kind)
        sum0, count0, spent0 = self.sums[kind, True], self.counts[kind, True], self.spent
        start = time.perf_counter()
        self.inside = True
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed op
            result = exc
        finally:
            self.inside = False
        own = time.perf_counter() - start - (self.spent - spent0)
        count = self.counts[kind, True] - count0
        speed = (self.sums[kind, True] - sum0) / count if count else self.latest[kind]
        return result, own, own * NOMINAL_S / speed

    def mean_ms(self, inside: bool) -> dict[str, float]:
        """Mean loop time per kind so far in ms, inside ops or between them."""
        return {
            kind: round(1e3 * self.sums[kind, inside] / self.counts[kind, inside], 4)
            for kind in self.loops
            if self.counts.get((kind, inside))
        }

    def nominal(self, kind: str, fn) -> float:
        """Nominal seconds of fn(); exceptions propagate."""
        result, _, nominal = self.run(kind, fn)
        if isinstance(result, Exception):
            raise result
        return nominal
