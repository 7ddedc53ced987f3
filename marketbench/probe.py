"""CPU-speed probe and the per-op timing correction it drives.

A shared virtual CPU does not run at one speed: on a 2-vCPU cloud host a
fixed stdlib loop wanders by a third between 30-second windows, and each
vCPU drifts on its own, within a run.  Raw wall times therefore move
between two runs of identical code by more than most optimisations gain.

The remedy is to measure the CPU's speed *where the ops run*: the
benchmark process calls :meth:`ProbeClock.maybe_probe` at every quiescent
point (no op in flight, write queue drained) and, once ``PROBE_EVERY_S``
has passed since the last probe, runs a few milliseconds of fixed work and
records how long it took.  Each op's wall time is then scaled by
``PROBE_REF_S / mean(nearest probes)``: an op that ran while the CPU was
20% slow is reported 20% shorter, in units of a CPU doing the probe work
in exactly ``PROBE_REF_S``.

Two choices were made on measurements of repeated runs of one seed:

* The probe work is a mix of dict updates, sorting, JSON, string and
  ``stat`` calls rather than a tight integer loop.  A neighbour on the
  host slows the program's memory- and kernel-heavy work more than an
  integer loop, which left corrected times correlated with the host's
  speed: over six ``http`` runs the interquartile range of
  ``search_p50_ms`` was 27% of the median raw, 14% corrected by an
  integer loop and 5.5% corrected by the mixed work.
* The *mean* of the ``NEAREST`` probes, not their median: much of the
  slowdown arrives as short bursts in which the vCPU does not run.  An op
  of tens of milliseconds absorbs its share of those bursts, a median of
  2.5 ms probes discards them.  Over seven runs of one ``trade`` seed
  (integer-loop probe) the interquartile range of ``ops_per_s`` was 10.6%
  of the median raw, 5.5% with the median of the 3 nearest probes and
  2.6% with the mean of the 7 nearest.

The probe is stdlib only and contains no program code.  It runs with the
garbage collector disabled, so it never pays for a collection the program
triggered.  Its own time is never part of an op's time.  A measured phase
counts only if 95% of its probe gaps stay within ``MAX_PROBE_GAP_S``: no
probe can run inside an op, so the few ops that outlast the spacing on
their own (an fsync stall, a full garbage collection, the slowest
``ingest`` writes at about 0.2 s) may stretch their gap.
"""

from __future__ import annotations

import gc
import json
import os
import time
from bisect import bisect_left
from statistics import fmean, median

#: dict updates in one probe (the whole probe takes 1.7-3 ms on a 2-vCPU
#: cloud VM, depending on how busy its host is)
PROBE_LOOPS = 12_000
#: the probe duration every corrected time is expressed against (fixed)
PROBE_REF_S = 0.0025
#: probe at the first quiescent point this long after the previous probe
PROBE_EVERY_S = 0.03
#: the 95th percentile of a measured phase's probe gaps must stay below
MAX_PROBE_GAP_S = 0.25
#: how many probes nearest to an op set its correction factor
NEAREST = 7


def correction_factor(
    probe_times: list[float], probe_durations: list[float],
    start: float, end: float,
) -> float:
    """``PROBE_REF_S / mean`` of the ``NEAREST`` probes closest to the
    interval ``[start, end]`` (``probe_times`` sorted ascending)."""
    if not probe_times:
        raise ValueError("no probes recorded")
    mid = (start + end) / 2.0
    i = bisect_left(probe_times, mid)
    lo, hi = max(0, i - NEAREST), min(len(probe_times), i + NEAREST)
    window = sorted(
        range(lo, hi), key=lambda j: abs(probe_times[j] - mid)
    )[:NEAREST]
    return PROBE_REF_S / fmean(probe_durations[j] for j in window)


def gap_p95(probe_times: list[float], start: float, end: float) -> float:
    """95th percentile of the gaps between probes (and the phase edges)
    over ``[start, end]``."""
    inside = [t for t in probe_times if start <= t <= end]
    edges = [start, *inside, end]
    gaps = sorted(b - a for a, b in zip(edges, edges[1:]))
    return gaps[min(len(gaps) - 1, int(0.95 * len(gaps)))]


_KEYS = [f"key{i}" for i in range(256)]
_FLOATS = [((i * 7919) % 1009) / 7.0 for i in range(3000)]
_ROWS = [[i, f"v{i}", i * 0.5] for i in range(120)]


def probe_once() -> float:
    """Run the fixed probe work once; returns its wall time in seconds.

    The work is a small mix of what the program spends its time on —
    dict updates, a sort, JSON encoding, string splitting and ``stat``
    system calls — so that it slows down the way the program does."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for i in range(PROBE_LOOPS):
            key = _KEYS[i & 255]
            counts[key] = counts.get(key, 0) + i
        sorted(_FLOATS)
        text = json.dumps(_ROWS)
        tuple(part for part in text.split(",") if part)
        for _ in range(50):
            os.stat(".")
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class ProbeClock:
    """Records probes and corrects op intervals against them."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        duration = probe_once()
        now = time.perf_counter()
        self.times.append(now - duration / 2.0)
        self.durations.append(duration)
        self._last = now

    def maybe_probe(self) -> None:
        """Probe if the last probe is ``PROBE_EVERY_S`` old (call only at
        quiescent points)."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        return correction_factor(self.times, self.durations, start, end)

    def corrected(self, start: float, end: float) -> float:
        """The interval's wall time scaled to the reference probe speed."""
        return (end - start) * self.factor(start, end)

    def median_probe(self) -> float:
        return median(self.durations)

    def gap_p95(self, start: float, end: float) -> float:
        return gap_p95(self.times, start, end)
