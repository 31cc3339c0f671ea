"""In-place timer restarts: ``Simulator.defer`` and the lazy re-key.

A :class:`Timer` restart that does not shorten the timer moves its
pending event later without touching the heap; the stale heap entry is
re-keyed when it surfaces.  The contract is that this is invisible:
every callback runs under exactly the ``(time, seq)`` key an eager
cancel-and-reschedule would give it.  The differential test below runs
random operation streams against both and demands identical
observations at every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator, Timer


class EagerTimer(Timer):
    """Reference timer: every (re)start is ``stop()`` plus a new event."""

    __slots__ = ()

    def start(self, duration):
        self.stop()
        self.duration = duration
        self._event = self.sim.schedule(duration, self._fire, label=self.name)


class TestDeferErrors:
    def test_earlier_time_rejected(self, sim):
        event = sim.schedule(5.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.defer(event, 4.999)
        assert event.time == 5.0 and event.pending

    def test_cancelled_event_rejected(self, sim):
        event = sim.schedule(5.0, lambda: None)
        event.cancel()
        with pytest.raises(SimulationError):
            sim.defer(event, 6.0)

    def test_dispatched_event_rejected(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.defer(event, 6.0)

    def test_event_of_another_simulator_rejected(self, sim):
        event = Simulator().schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.defer(event, 6.0)

    def test_same_time_moves_behind_queued_events(self, sim):
        fired = []
        first = sim.schedule(2.0, fired.append, "first")
        sim.schedule(2.0, fired.append, "second")
        sim.defer(first, 2.0)
        sim.run()
        assert fired == ["second", "first"]


class TestTimerRestartInPlace:
    def test_extension_reuses_the_event(self, sim):
        timer = Timer(sim, lambda: None, name="t")
        timer.start(10.0)
        event = timer._event
        for _ in range(100):
            timer.restart(10.0)
        sim.run(until=3.0)
        timer.start(20.0)
        assert timer._event is event
        assert sim.heap_size == 1 and sim.heap_cancelled == 0
        assert timer.expires_at == 23.0

    def test_shortening_schedules_a_new_event(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now), name="t")
        timer.start(260.0)
        event = timer._event
        timer.start(2.0)  # e.g. MLD's last-listener window
        assert timer._event is not event and event.cancelled
        sim.run()
        assert fired == [2.0]


# ----------------------------------------------------------------------
# differential: deferred kernel vs an eager reference
# ----------------------------------------------------------------------

N_TIMERS = 3
#: durations and offsets on a 0.5 s grid, so deadlines tie exactly
GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
TIMER = st.integers(0, N_TIMERS - 1)

OPS = st.one_of(
    st.tuples(st.just("start"), TIMER, GRID),
    st.tuples(st.just("restart"), TIMER),
    st.tuples(st.just("stop"), TIMER),
    st.tuples(st.just("tie"), TIMER, GRID),
    st.tuples(st.just("restarter"), GRID, TIMER, GRID),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), GRID),
    st.tuples(st.just("run_below"), GRID),
    st.tuples(st.just("peek")),
)


class _Side:
    """One simulator, its timers, its raw events and its dispatch log."""

    def __init__(self, timer_cls, forced_compaction):
        self.sim = Simulator()
        if forced_compaction:
            self.sim.set_compaction(0, 0.0)
        self.log = []
        self.timers = [
            timer_cls(self.sim, self._expired(f"T{i}"), name=f"T{i}")
            for i in range(N_TIMERS)
        ]
        self.raw = []
        self.n_raw = 0

    def _expired(self, label):
        return lambda: self.log.append((self.sim.now, label))

    def _raw_fired(self, label, restart=None):
        self.log.append((self.sim.now, label))
        if restart is not None:
            index, duration = restart
            self.timers[index].start(duration)

    def _schedule_raw(self, time, restart=None):
        self.n_raw += 1
        label = f"raw{self.n_raw}"
        self.raw.append(
            self.sim.schedule_at(time, self._raw_fired, label, restart, label=label)
        )

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind == "start":
            self.timers[op[1]].start(op[2])
        elif kind == "restart":
            # the previous duration; an unstarted timer raises on both sides
            try:
                self.timers[op[1]].restart()
            except ValueError:
                return "never started"
        elif kind == "stop":
            self.timers[op[1]].stop()
        elif kind == "tie":
            # exactly on the (possibly deferred) deadline of a timer
            expiry = self.timers[op[1]].expires_at
            self._schedule_raw(sim.now + op[2] if expiry is None else expiry)
        elif kind == "restarter":
            self._schedule_raw(sim.now + op[1], restart=(op[2], op[3]))
        elif kind == "cancel":
            if self.raw:
                self.raw[op[1] % len(self.raw)].cancel()
        elif kind == "step":
            return sim.step()
        elif kind == "run":
            sim.run(until=sim.now + op[1])
        elif kind == "run_below":
            return sim.run_below(sim.now + op[1])
        elif kind == "peek":
            return sim.peek_next_time()
        return None

    def observe(self):
        sim = self.sim
        return (
            list(self.log),
            sim.now,
            sim.events_dispatched,
            sim.events_pending,
            [(t.expires_at, t.remaining, t.running) for t in self.timers],
        )


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=60), forced=st.booleans())
def test_deferred_kernel_matches_eager_reference(ops, forced):
    deferred = _Side(Timer, forced)
    eager = _Side(EagerTimer, False)
    for op in ops:
        assert deferred.apply(op) == eager.apply(op), op
        assert deferred.observe() == eager.observe(), op
        assert deferred.sim.peek_next_time() == eager.sim.peek_next_time()
        sim = deferred.sim
        # one heap entry per queued event: restarts add no tombstones
        assert sim.heap_size == sim.events_pending + sim.heap_cancelled
    deferred.sim.run()
    eager.sim.run()
    assert deferred.observe() == eager.observe()
    assert deferred.sim.heap_size == 0
