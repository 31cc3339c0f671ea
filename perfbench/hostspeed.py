"""Host-speed probe: normalise measured seconds for a host whose speed drifts.

On a shared host the same process runs at very different speeds from
one moment to the next (other tenants on the sibling hyperthread, the
memory bus, the host's power budget).  On a 2-vCPU x86_64 VM a fixed
pure-Python loop flips between two speeds about 1.7x apart, each held
for seconds to tens of seconds, and CPU time slows with wall time, so
no clock can tell the two apart.  Medians over a run cannot remove a
drift that lasts as long as the run.

The probe measures the host's speed *while the workload runs*:
``ITIMER_PROF`` raises ``SIGPROF`` after every :data:`INTERVAL_S` of
CPU time the process uses, and the handler times one fixed unit of
interpreter work (dict and str operations, like the simulator's).
Each sample stands for an equal slice of CPU time, and ``REF_UNIT_S /
dt`` is the host's speed in that slice relative to a host where the
unit takes :data:`REF_UNIT_S` (about what it takes on the VM above when
it runs at its faster speed).  A phase of the workload that took
``raw`` seconds is reported as ``raw`` times the mean of that speed
over the samples taken in the phase: the seconds the phase would take
on the reference host.  On ``fig2`` this takes the spread of single
iterations from 0.14 to 0.03 (quartile distance / median, 40
iterations); a median of the samples instead of the mean leaves 0.08,
and a loop over a large working set in place of the unit tracks the
drift poorly, so the drift is in the CPU, not the memory.  The
program's own cost is untouched by the scaling; only the host's speed
is taken out.  The raw seconds are kept in every record beside the
scaled ones.

The handler's own time (well under 1% of the process's CPU time) is part
of every measured phase, on every commit alike.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

#: CPU seconds between two samples.
INTERVAL_S = 0.01
#: Loop trips in one unit of probe work (50 to 90 microseconds).
UNIT_TRIPS = 100
#: Seconds one unit takes on the reference host (see the module docstring).
REF_UNIT_S = 5.0e-5
#: A phase with fewer samples than this is scaled by all of the run's samples.
MIN_SAMPLES = 8

#: (time the sample was taken, seconds the unit took), this process only
samples: List[Tuple[float, float]] = []


def _unit() -> int:
    table = {}
    total = 0
    for i in range(UNIT_TRIPS):
        key = i & 31
        table[key] = (i, str(i))
        total += len(table[(i * 7) & 31][1]) if (i * 7) & 31 in table else 0
    return total


def _sample(_signum, _frame) -> None:
    start = perf_counter()
    _unit()
    end = perf_counter()
    samples.append((start, end - start))


def start() -> None:
    """Sample this process from now on (a forked child must call this
    again: interval timers are not inherited across ``fork``)."""
    samples.clear()
    signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


def scale(
    all_samples: Sequence[Sequence[float]],
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> float:
    """Factor that turns raw seconds between ``since`` and ``until``
    into reference-host seconds, from the samples taken then."""
    window = [
        dt
        for t, dt in all_samples
        if (since is None or t >= since) and (until is None or t < until)
    ]
    if len(window) < MIN_SAMPLES:
        window = [dt for _, dt in all_samples]
    if not window:
        raise ValueError("no host-speed samples were taken")
    return statistics.fmean(REF_UNIT_S / dt for dt in window)
