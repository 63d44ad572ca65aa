"""The host's CPU speed, probed beside every timed operation.

On a shared virtual machine the speed of a single-threaded process changes
while it runs: on a 2-vCPU one it switches between a fast level and one ~1.5x
slower in phases of a fraction of a second to several seconds, and the fast
level itself moves by up to a third from one minute to the next.  Timed as
measured, runs of the same code spread by 20-50%, and no statistic over one
run's samples removes that, because whole runs fall in slow minutes.

So the benchmark times a fixed probe, a small mix of the Python dict, sort
and numpy work the program does, at least every ``INTERVAL_S`` of replay, and
rescales each op's measured time by ``REFERENCE_S`` over the faster of the
two probes around it: times are reported at the speed at which the probe
takes ``REFERENCE_S``.  The probe is not program code, so a change to the
program moves rescaled times as much as measured ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Times are reported at the CPU speed at which one probe takes this long:
# about the fast level of such a host.
REFERENCE_S = 150e-6

# Longest stretch of replay between two probes.
INTERVAL_S = 0.02

_MATRIX = np.random.default_rng(0).standard_normal((16, 64))
_VECTOR = np.random.default_rng(1).standard_normal(64)
_KEYS = tuple((i * 7919) % 1000 for i in range(300))


def _work() -> float:
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(ranked) + float((_MATRIX @ _VECTOR).sum())


def probe() -> float:
    """Seconds one run of the probe takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def rescale(latencies: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Latencies at the reference speed.

    ``marks`` holds ``(ops done, probe seconds)`` in order, the first before
    op 0 and the last after the final op; each op is scaled by the faster of
    the two probes around it.
    """
    scaled: list[float] = []
    for (start, before), (end, after) in zip(marks, marks[1:]):
        factor = REFERENCE_S / min(before, after)
        scaled.extend(t * factor for t in latencies[start:end])
    return scaled


def timed(fn, *args):
    """``(result, seconds at the reference speed, seconds as measured)`` of
    one call, probed before and after."""
    before = probe()
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    return result, elapsed * REFERENCE_S / min(before, probe()), elapsed
