"""Unit tests for the structured tracer."""

import pytest

from repro.sim import Simulator, Tracer


def make(sim=None, **kw):
    sim = sim or Simulator()
    return sim, Tracer(sim, **kw)


class TestRecording:
    def test_records_time_and_fields(self):
        sim, tr = make()
        sim.schedule(2.5, tr.record, "mld", "R3", event="join")
        sim.run()
        (ev,) = tr.events
        assert ev.time == 2.5
        assert ev.category == "mld"
        assert ev.node == "R3"
        assert ev.detail == {"event": "join"}

    def test_disabled_category_dropped(self):
        _, tr = make(disabled_categories=["link"])
        tr.record("link", "L1", x=1)
        tr.record("mld", "R1", x=1)
        assert len(tr.events) == 1

    def test_enabled_whitelist(self):
        _, tr = make(enabled_categories=["pim"])
        tr.record("pim", "A")
        tr.record("mld", "A")
        assert [e.category for e in tr.events] == ["pim"]

    def test_disable_at_runtime(self):
        _, tr = make()
        tr.record("x", "n")
        tr.disable("x")
        tr.record("x", "n")
        assert len(tr.events) == 1

    def test_listener_called_live(self):
        _, tr = make()
        seen = []
        tr.add_listener(seen.append)
        tr.record("pim", "A", event="prune-sent")
        assert len(seen) == 1 and seen[0].detail["event"] == "prune-sent"

    def test_enable_reverses_disable(self):
        _, tr = make(disabled_categories=["link"])
        tr.record("link", "L1")
        tr.enable("link")
        tr.record("link", "L1")
        assert len(tr.events) == 1

    def test_enable_extends_whitelist(self):
        _, tr = make(enabled_categories=["pim"])
        tr.record("mld", "A")
        tr.enable("mld")
        tr.record("mld", "A")
        assert [e.category for e in tr.events] == ["mld"]

    def test_is_enabled(self):
        _, tr = make(disabled_categories=["link"])
        assert not tr.is_enabled("link")
        assert tr.is_enabled("pim")
        tr.enable("link")
        assert tr.is_enabled("link")

    def test_overlapping_enable_disable_rejected(self):
        with pytest.raises(ValueError, match="both enabled and disabled"):
            make(enabled_categories=["pim", "mld"], disabled_categories=["pim"])


class TestRingCapacity:
    def test_capacity_bounds_retained_events(self):
        _, tr = make(capacity=3)
        for i in range(8):
            tr.record("x", "n", i=i)
        assert [e.detail["i"] for e in tr.events] == [5, 6, 7]
        assert tr.capacity == 3
        assert tr.count("x") == 3

    def test_set_capacity_keeps_newest(self):
        _, tr = make()
        for i in range(10):
            tr.record("x", "n", i=i)
        tr.set_capacity(4)
        assert [e.detail["i"] for e in tr.events] == [6, 7, 8, 9]
        tr.set_capacity(None)  # back to unbounded, events retained
        for i in range(10, 13):
            tr.record("x", "n", i=i)
        assert len(tr.events) == 7


class TestQueries:
    def _populate(self):
        sim, tr = make()
        rows = [
            (1.0, "mld", "D", {"event": "join", "group": "g1"}),
            (2.0, "mld", "D", {"event": "leave", "group": "g1"}),
            (3.0, "pim", "E", {"event": "graft-sent"}),
            (4.0, "mld", "E", {"event": "join", "group": "g2"}),
        ]
        for t, cat, node, detail in rows:
            sim.schedule_at(t, tr.record, cat, node, **detail)
        sim.run()
        return tr

    def test_query_by_category(self):
        tr = self._populate()
        assert tr.count("mld") == 3

    def test_query_by_node(self):
        tr = self._populate()
        assert tr.count("mld", node="D") == 2

    def test_query_by_detail(self):
        tr = self._populate()
        assert tr.count("mld", event="join") == 2

    def test_query_time_window(self):
        tr = self._populate()
        assert tr.count(since=2.0, until=3.0) == 2

    def test_first(self):
        tr = self._populate()
        ev = tr.first("mld", event="join")
        assert ev.time == 1.0

    def test_first_none_when_absent(self):
        tr = self._populate()
        assert tr.first("mipv6") is None

    def test_last(self):
        tr = self._populate()
        assert tr.last("mld").time == 4.0

    def test_clear(self):
        tr = self._populate()
        tr.clear()
        assert tr.count() == 0

    def test_matches_helper(self):
        tr = self._populate()
        ev = tr.first("pim")
        assert ev.matches(event="graft-sent")
        assert not ev.matches(event="prune-sent")


class TestTraceEventRecord:
    """TraceEvent is a slotted, non-frozen dataclass."""

    def test_equality_and_slots(self):
        from repro.sim.trace import TraceEvent

        a = TraceEvent(1.0, "pim", "A", {"event": "x"})
        assert a == TraceEvent(1.0, "pim", "A", {"event": "x"})
        assert a != TraceEvent(1.0, "pim", "B", {"event": "x"})
        assert not hasattr(a, "__dict__")

    def test_repr(self):
        from repro.sim.trace import TraceEvent

        text = repr(TraceEvent(2.5, "mld", "R1", {"event": "join"}))
        assert "mld" in text and "R1" in text and "event=join" in text

    def test_replace(self):
        from dataclasses import replace

        from repro.sim.trace import TraceEvent

        a = TraceEvent(1.0, "pim", "A", {"event": "x"})
        b = replace(a, time=2.0)
        assert (b.time, b.category, b.node, b.detail) == (2.0, "pim", "A", {"event": "x"})
        assert a.time == 1.0

    def test_jsonl_round_trip(self, tmp_path):
        from repro.obs.export import digest_events, export_run, import_run

        sim, tr = make()
        sim.schedule(1.0, tr.record, "pim", "A", event="prune-sent", links=["L1"])
        sim.schedule(2.0, tr.record, "mcast.deliver", "H", seqno=3)
        sim.run()
        path = str(tmp_path / "run.jsonl")
        export_run(path, tr)
        archive = import_run(path)
        assert list(archive.events) == list(tr.events)
        assert digest_events(archive.events) == digest_events(tr.events)


class TestListenerRouting:
    def test_categories_route_only_matching_events(self):
        _, tr = make()
        pim, every = [], []
        tr.add_listener(pim.append, categories=("pim",))
        tr.add_listener(every.append)
        tr.record("pim", "A")
        tr.record("mcast.deliver", "H")
        assert [e.category for e in pim] == ["pim"]
        assert [e.category for e in every] == ["pim", "mcast.deliver"]

    def test_registration_order_kept(self):
        _, tr = make()
        order = []
        tr.add_listener(lambda ev: order.append("a"), categories=("pim",))
        tr.add_listener(lambda ev: order.append("b"))
        tr.add_listener(lambda ev: order.append("c"), categories=("pim", "mld"))
        tr.record("pim", "A")
        tr.record("mld", "A")
        assert order == ["a", "b", "c", "b", "c"]

    def test_listener_added_after_first_record_is_routed(self):
        _, tr = make()
        seen = []
        tr.record("pim", "A")  # fills the per-category memo
        tr.add_listener(seen.append, categories=("pim",))
        tr.record("pim", "A")
        assert len(seen) == 1

    def test_empty_categories_never_called(self):
        _, tr = make()
        seen = []
        tr.add_listener(seen.append, categories=())
        tr.record("pim", "A")
        assert seen == []
