"""Simulator micro-benchmarks: kernel throughput and scenario cost.

Not a paper artifact — engineering benchmarks that keep the DES fast
enough for the sweeps (run_timer_sweep executes ~10 simulated hours).

The restart-heavy benchmarks pin the acceptance criteria of the
heap-compaction work (docs/PERFORMANCE.md): dispatch throughput on the
PIM-DM per-packet timer-restart pattern must stay >= 1.3x the pre-PR
kernel (reproduced verbatim as :class:`LegacySimulator` below:
``@dataclass(order=True)`` heap entries, lazy deletion with **no**
compaction), and the heap must stay bounded — no monotone growth —
over a million-event run.
"""

import heapq
from dataclasses import dataclass, field
from time import perf_counter

from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.net import Address, ApplicationData, Ipv6Packet
from repro.sim import Simulator, Timer
from repro.sim.kernel import Event, SimulationError


# ----------------------------------------------------------------------
# the pre-PR kernel, kept for comparison
# ----------------------------------------------------------------------

@dataclass(order=True)
class _LegacyHeapEntry:
    time: float
    seq: int
    event: Event = field(compare=False)


class LegacySimulator(Simulator):
    """The kernel as it was before tuple entries + compaction.

    Faithful to the old hot path: every heap sift comparison runs the
    generated Python ``__lt__`` of the dataclass entry, and cancelled
    entries stay in the heap until popped, so restart-heavy workloads
    grow the heap without bound.  A timer restart (:meth:`defer`) costs
    what it did then: the old entry is left behind as a tombstone and a
    fresh entry is pushed.
    """

    def _note_cancel(self) -> None:
        self._pending_count -= 1  # no tombstone accounting, no compaction

    def schedule_at(self, time, fn, *args, label="", **kwargs):
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, now is t={self._now!r}"
            )
        seq = next(self._seq)
        event = Event(time, fn, args, kwargs, label, seq)
        event._sim = self
        heapq.heappush(self._heap, _LegacyHeapEntry(time, seq, event))
        self._pending_count += 1
        return event

    def defer(self, event, time):
        super().defer(event, time)
        heapq.heappush(self._heap, _LegacyHeapEntry(time, event.seq, event))

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        dispatched = 0
        try:
            while self._heap:
                entry = self._heap[0]
                if entry.event.cancelled or entry.seq != entry.event.seq:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and entry.time > until:
                    break
                heapq.heappop(self._heap)
                event = entry.event
                self._now = event.time
                event.dispatched = True
                self._dispatched_count += 1
                self._pending_count -= 1
                event.fn(*event.args, **event.kwargs)
                dispatched += 1
                if max_events is not None and dispatched > max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False


def _restart_workload(
    sim, n, timers=64, sample_every=None, samples=None, raw=False
):
    """The PIM-DM per-packet (S,G) data-timeout pattern.

    Every dispatched tick restarts one of ``timers`` 210 s timers and
    schedules the next tick.  A :class:`Timer` restart re-keys its
    event in place; with ``raw=True`` each restart is instead an
    ``Event.cancel`` plus a fresh ``schedule``, the pattern that leaked
    cancelled entries in the pre-PR kernel and that compaction bounds.
    With ``sample_every`` (simulated seconds), ``(heap_size,
    heap_cancelled)`` pairs are appended to ``samples`` as the run
    progresses.
    """
    if raw:
        pool = [sim.schedule(210.0, _noop) for _ in range(timers)]

        def restart(j):
            pool[j].cancel()
            pool[j] = sim.schedule(210.0, _noop)
    else:
        pool = [Timer(sim, _noop, name=f"sg{i}") for i in range(timers)]
        for t in pool:
            t.start(210.0)

        def restart(j):
            pool[j].restart(210.0)
    remaining = [n]

    def tick(i):
        restart(i % timers)
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule(0.05, tick, i + 1)

    sim.schedule(0.0, tick, 0)
    if sample_every is not None:
        def sample():
            samples.append((sim.heap_size, sim.heap_cancelled))
            if sim.events_pending > len(pool):  # ticks still flowing
                sim.schedule(sample_every, sample)

        sim.schedule(sample_every, sample)
    started = perf_counter()
    sim.run()
    return perf_counter() - started


def _noop():
    return None


def _best_of(k, fn):
    return min(fn() for _ in range(k))


# ----------------------------------------------------------------------
# acceptance: >= 1.3x over the pre-PR kernel on the restart-heavy scenario
# ----------------------------------------------------------------------

def test_restart_heavy_dispatch_speedup_vs_legacy_kernel():
    n = 100_000
    legacy = _best_of(2, lambda: _restart_workload(LegacySimulator(), n))
    current = _best_of(2, lambda: _restart_workload(Simulator(), n))
    speedup = legacy / current
    print(
        f"\nrestart-heavy ({n} ticks): legacy {n / legacy:,.0f} ev/s, "
        f"current {n / current:,.0f} ev/s, speedup {speedup:.2f}x"
    )
    assert speedup >= 1.3, (
        f"dispatch throughput regressed: only {speedup:.2f}x over the "
        f"pre-PR kernel (need >= 1.3x)"
    )


def test_heap_stays_bounded_over_million_events():
    """10^6-event restart run: the heap must not grow monotonically.

    The pre-PR kernel accumulates ~one cancelled tombstone per tick
    (the heap ends ~10^6 entries deep).  Timer restarts re-key in
    place, so the heap holds exactly the live timers plus the next
    tick; the same loop driven by raw cancel + schedule is held within
    a small constant of the ~66 live events by compaction.
    """
    sim = Simulator()
    samples = []
    # ticks every 0.05 s -> 10^6 ticks span 50_000 simulated seconds;
    # sample the physical heap size every 250 s (~200 samples).
    _restart_workload(sim, 1_000_000, sample_every=250.0, samples=samples)
    assert sim.events_dispatched > 1_000_000
    assert len(samples) > 50
    assert all(cancelled == 0 for _, cancelled in samples)
    assert max(size for size, _ in samples) <= 64 + 1
    assert sim.heap_cancelled == 0

    sim = Simulator()
    samples = []
    _restart_workload(
        sim, 1_000_000, sample_every=250.0, samples=samples, raw=True
    )
    assert sim.events_dispatched > 1_000_000
    assert len(samples) > 50
    samples = [size for size, _ in samples]
    peak = max(samples)
    # Default compaction trigger is 1024 tombstones; live events are
    # ~66.  Anything monotone would blow straight past this bound.
    assert peak <= 4096, f"heap peaked at {peak} entries (expected bounded)"
    # No monotone growth: the tail of the run must not sit above the
    # level the heap reached early on.
    early, late = max(samples[: len(samples) // 4]), max(samples[-len(samples) // 4 :])
    assert late <= 2 * early, (samples[:8], samples[-8:])
    assert sim.compactions > 100


# ----------------------------------------------------------------------
# micro-benchmarks (pytest-benchmark)
# ----------------------------------------------------------------------

def test_bench_kernel_schedule_dispatch(benchmark):
    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 100), lambda: None)
        sim.run()
        return sim.events_dispatched

    assert benchmark(run) == 10_000


def test_bench_kernel_timer_restart(benchmark):
    """The MLD membership-timer pattern: frequent restarts."""

    def run():
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        for _ in range(5_000):
            timer.start(100.0)
        sim.run(until=1.0)
        return True

    assert benchmark(run)


def test_bench_packet_encapsulation(benchmark):
    inner = Ipv6Packet(
        Address("2001:db8:1::10"), Address("ff1e::1"),
        ApplicationData(seqno=0, payload_bytes=1000),
    )
    coa = Address("2001:db8:6::10")
    ha = Address("2001:db8:1::1")

    def run():
        outer = inner.encapsulate(coa, ha)
        return outer.size_bytes + outer.decapsulate().size_bytes

    assert benchmark(run) == 1080 + 1040


def test_bench_paper_scenario_convergence(benchmark):
    """Wall time to build + converge the full Figure 1 scenario."""

    def run():
        sc = PaperScenario(ScenarioConfig(seed=40, approach=LOCAL_MEMBERSHIP))
        sc.converge()
        return sc.net.sim.events_dispatched

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert events > 1_000
