"""The noise protocol: calibrated, GC-paused, median-of-slices timing.

This box is a small VM on a shared host.  Its speed moves by 30-60%
for seconds to minutes at a time, in more than one way: the whole
CPU slows (a busy hyperthread sibling), or only code with a large
footprint slows (shared cache and memory).  A raw wall-clock total
is useless as a regression signal, and so is a median of raw slices
— ten raw runs of one commit spread by 15-30%.  So every timed
region here is

* one of many *equal-work slices* (or the same slice index of a
  repeated deterministic job),
* run with the cyclic GC paused and the young generations collected
  before it (a full collection costs 80 ms in a 1024-enclave heap;
  jobs run one at their boundaries),
* bracketed by two ~10 ms calibrations that say how slow the machine
  is *right now* relative to a fixed reference speed.

A slice's time is divided by the mean of its two calibrations, which
turns it into **reference-box seconds**, and a metric is taken from
the **first quartile of the scaled slices**.  Scaling removes most of
what the machine does; contention only ever adds time, so what is
left sits in the upper part of the distribution, and the low quartile
repeats better than the median (ten runs of ``enclave_tag`` on a
quiet box: 4.0% against 7.4% between the runs' quartiles; ``host_mix``
1.4% against 5.7%).  The reference is a constant, not the run's own
median, because whole runs land in slow periods.

The calibration is half a tight integer loop (tracks CPU speed) and
half a basket of pure-Python standard-library work — ``pprint`` and
``difflib`` over fixed inputs — whose code and data footprint reacts
to cache pressure the way the system under test does.  Measured on
the enclave path over five noisy minutes: block medians of raw
slices spread 12.8%, scaled by the integer loop alone 5.1%, scaled
by both halves 1.2%.
"""

from __future__ import annotations

import difflib
import gc
import pprint
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Seconds each calibration half takes on the seed box when it is
#: quiet: the fixed reference every time is scaled to.
INT_REFERENCE_S = 0.0048
BASKET_REFERENCE_S = 0.0040

_INT_ITERS = 60_000
_BASKET_ROUNDS = 3
_NESTED = {f"k{i}": {"list": list(range(i % 7 + 3)),
                     "tuple": (i, str(i), float(i)),
                     "dict": {"x": [i, {"y": i}]}}
           for i in range(24)}
_LINES_A = [f"line {i} value {i * i % 97}" for i in range(60)]
_LINES_B = [f"line {i} value {i * i % 89}" for i in range(60)]


def calibrate() -> float:
    """How slow the machine is right now: 1.0 is the reference speed,
    1.4 means this code takes 40% longer than on the quiet seed box."""
    buf = [0] * 64
    acc = 0
    t0 = time.perf_counter()
    for i in range(_INT_ITERS):
        acc = (acc + i * 7) & 0xFFFF
        buf[i & 63] = acc
    t1 = time.perf_counter()
    for _ in range(_BASKET_ROUNDS):
        pprint.pformat(_NESTED, width=60)
        difflib.SequenceMatcher(None, _LINES_A, _LINES_B,
                                autojunk=False).ratio()
    t2 = time.perf_counter()
    return 0.5 * ((t1 - t0) / INT_REFERENCE_S
                  + (t2 - t1) / BASKET_REFERENCE_S)


class SliceClock:
    """Times slices in reference-box seconds.

    One clock serves every phase of a run; ``slowdown_median`` is
    recorded with the results so a reader can tell a quiet run from
    a noisy one.
    """

    def __init__(self) -> None:
        self.slowdowns: List[float] = []

    def timed(self, fn: Callable[[], object]) -> Tuple[float, object]:
        """Run ``fn`` as one GC-paused, calibrated slice.

        Returns the slice's scaled seconds and what ``fn`` returned.
        """
        gc.collect(1)
        gc.disable()
        try:
            before = calibrate()
            t0 = time.perf_counter()
            value = fn()
            wall = time.perf_counter() - t0
            after = calibrate()
        finally:
            gc.enable()
        slowdown = 0.5 * (before + after)
        self.slowdowns.append(slowdown)
        return wall / slowdown, value

    @property
    def slowdown_median(self) -> float:
        return statistics.median(self.slowdowns)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, q1, q3 and n of a sample (n >= 1).  Quartiles
    interpolate inside the sample, never beyond its ends."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4,
                                         method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def typical(values: Sequence[float]) -> Dict[str, float]:
    """What a metric reports from equal-work samples: ``value`` is
    their first quartile; median, q3 and n go along for the reader."""
    stats = quartiles(values)
    stats["value"] = stats["q1"]
    return stats


def build_seconds(clock: SliceClock, build: Callable[[], object],
                  builds: int) -> Dict[str, float]:
    """``setup_s``: the typical scaled seconds of ``builds`` fresh
    builds in one process.  Later builds find warm process-wide
    caches, as a user's second scenario in one process does, and the
    number does not hinge on one noisy build.
    """
    seconds = []
    for _ in range(builds):
        gc.collect()
        seconds.append(clock.timed(build)[0])
    return typical(seconds)


def typical_per_index(repeats: Sequence[Sequence[float]]
                      ) -> List[float]:
    """Per-slice-index first quartile across repeats of one
    deterministic job: the same index does the same work in every
    repeat, so this is that slice's time with the spikes voted out."""
    return [typical(column)["value"] for column in zip(*repeats)]
