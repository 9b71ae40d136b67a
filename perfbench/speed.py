"""How fast the machine runs right now, from fixed reference work.

The effective speed of a shared sandbox drifts by tens of percent over
seconds (on the 2-core machine the reference figures come from, one
second's throughput of a fixed loop ranged over 0.49-0.82 ms per chunk
within a minute), and the two cores drift apart. A median over a run
does not remove drift that lasts as long as the run, so timed work is
measured against two fixed chunks that import nothing from rispeb:
plain interpreter work, and small arrays with Python objects around
them. A sample's slowness is the geometric mean over the chunks of
(chunk time / reference time); a time divided by the slowness of the
same moments is a time at reference speed.

- A query (milliseconds) is divided by the mean slowness of single
  samples taken just before and just after it.
- A map computation (seconds) runs with a Sampler, which takes a sample
  every INTERVAL_S while the computation runs, so the slowness is
  averaged over the same interval. The samples run in a SIGALRM handler,
  which Python calls in the main thread between bytecodes: a sample
  always pauses the computation, whether that holds the interpreter lock
  or sits in a numpy call that released it, and the samples' own time is
  taken out of the computation's exactly. (A sampler thread would share
  the pinned core with GIL-free numpy calls; `python3 perfbench/speed.py`
  shows the sampler gives the same slowness on both kinds of work.)
- A cold set-up runs in a fresh interpreter under its own Sampler,
  every SETUP_INTERVAL_S, of the interpreter chunk only (the other
  chunk would import numpy).

Changing a chunk or a reference time changes every reported time, so
both belong to the benchmark's definition: change them only in a change
that re-measures the baseline.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import sys
import time

INTERVAL_S = 0.02
SETUP_INTERVAL_S = 0.005


def _interpreter() -> None:
    acc = 0.0
    for i in range(200):
        pair = (i * 0.5, i + 1.0)
        acc += math.hypot(*pair) + math.atan2(pair[1], pair[0])
        acc += len({"k": i}) + sum([i, i + 1, i + 2])


def _small_arrays() -> None:
    import numpy as np
    m = np.arange(100)
    acc = 0.0
    for i in range(40):
        v = np.exp(1j * math.pi * 0.37 * m)
        acc += abs(v.sum()) + len(str({"a": i, "b": [i] * 5}))


# Median chunk times in seconds on the reference machine: 2 cores,
# Python 3.11.7, numpy 2.4.6.
INTERPRETER = (_interpreter, 1.95e-4)
CHUNKS = (INTERPRETER, (_small_arrays, 4.54e-4))


def slowness(repeats: int = 1, chunks=CHUNKS) -> float:
    """Geometric mean over the chunks of median(chunk time) / reference."""
    log_sum = 0.0
    for chunk, reference in chunks:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            chunk()
            times.append(time.perf_counter() - start)
        log_sum += math.log(statistics.median(times) / reference)
    return math.exp(log_sum / len(chunks))


class Sampler:
    """Samples slowness every `interval` seconds while the `with` block runs.

    Use it from the main thread only (it owns SIGALRM meanwhile).
    work(start, end) gives the block's seconds without the samples' own
    time, and that time at reference speed.
    """

    def __init__(self, interval: float = INTERVAL_S, chunks=CHUNKS):
        self.interval = interval
        self.chunks = chunks
        self.samples = []  # (start, end, slowness)

    def _sample(self, *_):
        start = time.perf_counter()
        value = slowness(chunks=self.chunks)
        self.samples.append((start, time.perf_counter(), value))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work(self, start: float, end: float) -> tuple[float, float]:
        inside = [(a, b, v) for a, b, v in self.samples if a >= start and b <= end]
        raw = (end - start) - sum(b - a for a, b, _ in inside)
        values = [v for _, _, v in inside] or [slowness(chunks=self.chunks)]  # a short block
        return raw, raw / statistics.mean(values)


def _numpy_work() -> None:
    import numpy as np
    big = np.exp(1j * np.linspace(0.0, 1.0, 400_000))
    for _ in range(60):
        np.exp(big * 1.0001)  # large arrays: numpy releases the interpreter lock


def _python_work() -> None:
    acc = 0.0
    for i in range(3_000_000):
        acc += math.sqrt(i) * 0.5


def main(rounds: int = 6) -> int:
    """Shows that the Sampler treats GIL-free numpy work and pure-Python
    work alike: for each kind, the sampled work time over the same work's
    unsampled time, and the slowness the samples gave, as medians over
    alternating rounds on one core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kinds = {"numpy (lock released)": _numpy_work, "pure Python": _python_work}
    found = {kind: [] for kind in kinds}
    for i in range(rounds + 1):
        for kind, work in kinds.items():
            start = time.perf_counter()
            work()
            bare = time.perf_counter() - start
            with Sampler() as sampler:
                start = time.perf_counter()
                work()
                raw, scaled = sampler.work(start, time.perf_counter())
            if i:  # round 0 warms up
                found[kind].append((raw / bare, raw / scaled))
    for kind, rows in found.items():
        print(f"{kind:22s} sampled/unsampled work "
              f"{statistics.median(r for r, _ in rows):.3f}, "
              f"slowness {statistics.median(v for _, v in rows):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
