"""Unit tests for the indexed trace store."""

import pytest

from repro.obs.store import TraceStore
from repro.sim.trace import TraceEvent


def ev(time, category="mld", node="A", **detail):
    return TraceEvent(time=time, category=category, node=node, detail=detail)


def fill(store, rows):
    for row in rows:
        store.append(ev(*row))
    return store


DEFAULT_ROWS = [
    (1.0, "mld", "A"),
    (2.0, "pim", "A"),
    (3.0, "mld", "B"),
    (4.0, "pim", "B"),
    (5.0, "mld", "A"),
]


class TestAppend:
    def test_len_and_order(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert len(store) == 5
        assert [e.time for e in store.events] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_out_of_order_rejected(self):
        store = fill(TraceStore(), [(2.0, "mld", "A")])
        with pytest.raises(ValueError, match="out-of-order"):
            store.append(ev(1.0))

    def test_equal_times_allowed(self):
        store = fill(TraceStore(), [(1.0, "mld", "A"), (1.0, "pim", "B")])
        assert len(store) == 2

    def test_categories_and_nodes(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert store.categories() == ["mld", "pim"]
        assert store.nodes() == ["A", "B"]

    def test_indexes_created_on_first_sight(self):
        store = TraceStore()
        store.append(ev(1.0, "mld", "A"))
        store.append(ev(2.0, "pim", "B"))
        store.append(ev(3.0, "mld", "B"))
        assert store._by_category == {"mld": [0, 2], "pim": [1]}
        assert store._by_node == {"A": [0], "B": [1, 2]}
        assert [e.time for e in store.select(category="mld", node="B")] == [3.0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_clear(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        store.clear()
        assert len(store) == 0
        assert store.count() == 0
        # appending after clear may go back in time (new run)
        store.append(ev(0.5))
        assert len(store) == 1


class TestSelect:
    def test_by_category(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld")] == [1.0, 3.0, 5.0]

    def test_by_node(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(node="B")] == [3.0, 4.0]

    def test_by_category_and_node(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld", node="A")] == [1.0, 5.0]

    def test_time_window(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(since=2.0, until=4.0)] == [2.0, 3.0, 4.0]

    def test_time_window_within_category(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld", since=2.0)] == [3.0, 5.0]

    def test_reverse(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld", reverse=True)] == [
            5.0,
            3.0,
            1.0,
        ]

    def test_unknown_category_empty(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert list(store.select(category="nope")) == []
        assert store.count(category="nope") == 0


class TestCount:
    def test_counts(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert store.count() == 5
        assert store.count(category="mld") == 3
        assert store.count(node="A") == 3
        assert store.count(category="pim", node="B") == 1
        assert store.count(since=2.0, until=4.0) == 3
        assert store.count(category="mld", since=2.0) == 2

    def test_count_matches_select(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        for kw in (
            {},
            {"category": "mld"},
            {"node": "B"},
            {"category": "pim", "node": "A"},
            {"since": 1.5},
            {"until": 3.5},
            {"category": "mld", "since": 0.0, "until": 3.0},
        ):
            assert store.count(**kw) == len(list(store.select(**kw)))


class TestRingMode:
    def test_eviction_keeps_newest(self):
        store = TraceStore(capacity=3)
        for i in range(10):
            store.append(ev(float(i), "c", "n", i=i))
        assert len(store) == 3
        assert [e.time for e in store.events] == [7.0, 8.0, 9.0]
        assert store.total_recorded == 10
        assert store.evicted == 7

    def test_indexes_respect_eviction(self):
        store = TraceStore(capacity=4)
        for i in range(12):
            store.append(ev(float(i), "even" if i % 2 == 0 else "odd", f"n{i % 3}"))
        # live window is events 8..11
        assert [e.time for e in store.select(category="even")] == [8.0, 10.0]
        assert [e.time for e in store.select(category="odd")] == [9.0, 11.0]
        assert store.count(node="n0") == len(
            [e for e in store.events if e.node == "n0"]
        )

    def test_ring_equals_tail_of_unbounded(self):
        unbounded, ring = TraceStore(), TraceStore(capacity=5)
        for i in range(37):
            for s in (unbounded, ring):
                s.append(ev(float(i), f"c{i % 4}", f"n{i % 3}"))
        assert ring.events == unbounded.events[-5:]
        for kw in ({}, {"category": "c1"}, {"node": "n2"}, {"since": 33.0}):
            tail = [e for e in unbounded.select(**kw) if e.time >= 32.0]
            assert list(ring.select(**kw)) == tail

    def test_compaction_bounds_memory(self):
        store = TraceStore(capacity=10)
        for i in range(1000):
            store.append(ev(float(i), "c", "n"))
        # internal array stays within 2x capacity after compaction
        assert len(store._events) <= 20
        assert len(store) == 10

    def test_capacity_larger_than_stream_is_lossless(self):
        unbounded, ring = TraceStore(), TraceStore(capacity=100)
        for row in DEFAULT_ROWS:
            unbounded.append(ev(*row))
            ring.append(ev(*row))
        assert ring.events == unbounded.events
