"""Machine-speed probe for calibrating wall times.

Shared machines drift in speed by tens of percent over tens of seconds,
so raw wall times of two runs of the same code differ by that drift.
Before every job the benchmark times a fixed probe, built from the
benchmark's own interpreter-bound, JSON and numpy/scipy code and never
from the program's, and divides the job's wall time by the machine's
slowness: the median probe slowness over the nine jobs around it.  A
calibrated time reads as the wall time on a machine where the probe
takes its reference time.  A change to the program moves calibrated
times exactly as it moves raw times; the machine's drift largely
cancels.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np
from scipy import ndimage

#: Seconds each probe part takes at reference speed: the median between
#: jobs on the 2-vCPU machine the benchmark was introduced on, so that
#: calibrated and raw times agree there on average.
REFERENCE_S = (0.0013, 0.0028, 0.00057)
#: Jobs whose probes give the speed for one job (centred window).
WINDOW = 9

_ARRAY = np.random.default_rng(0).random((96, 96))
_DOC = {f"k{i}": [i * 0.1, {"a": [1, 2, 3], "b": "x" * 10}] for i in range(40)}


def _interpreter() -> str:
    acc, table, out = 0, {}, []
    for a in range(80):
        for b in range(40):
            m = (a * 2654435761 ^ b) & 0xFFFF
            table[m & 127] = table.get(m & 127, 0.0) + a * 0.5
            acc += m
        out.append(f"{a}|{acc & 255}")
    return "&".join(out)


def _numeric() -> float:
    return float(ndimage.median_filter(_ARRAY, size=3).sum()
                 + ndimage.uniform_filter(_ARRAY, size=3).sum())


def _serial() -> int:
    n = 0
    for _ in range(3):
        n += len(json.loads(json.dumps(_DOC)))
    return n


def probe() -> float:
    """Current machine slowness: 1.0 at reference speed, 1.2 when the
    probe takes 20% longer."""
    total = 0.0
    for part, ref in zip((_interpreter, _numeric, _serial), REFERENCE_S):
        start = perf_counter()
        part()
        total += (perf_counter() - start) / ref
    return total / len(REFERENCE_S)


def current(slowness) -> float:
    """Slowness from the latest probes, for decisions during a run."""
    return statistics.median(slowness[-WINDOW:])


def calibrate(times, slowness) -> list[float]:
    """Each time divided by the median slowness of its window."""
    half = WINDOW // 2
    return [t / statistics.median(slowness[max(0, j - half): j + half + 1])
            for j, t in enumerate(times)]
