"""Unit tests for FIB computation, verified against networkx."""

import hashlib

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Address, Network, Prefix, RouteEntry, RoutingTable
from repro.pimdm import MulticastRouter

from topo_helpers import build_line


class TestRoutingTable:
    def _entry(self, prefix, metric=1):
        class FakeIface:
            link = None

        return RouteEntry(Prefix(prefix), FakeIface(), None, metric)

    def test_lookup_match(self):
        t = RoutingTable()
        e = self._entry("2001:db8:1::/64")
        t.install(e)
        assert t.lookup(Address("2001:db8:1::5")) is e

    def test_lookup_miss(self):
        t = RoutingTable()
        t.install(self._entry("2001:db8:1::/64"))
        assert t.lookup(Address("2001:db8:2::5")) is None

    def test_longest_prefix_wins(self):
        t = RoutingTable()
        short = self._entry("2001:db8::/32")
        long = self._entry("2001:db8:1::/64")
        t.install(short)
        t.install(long)
        assert t.lookup(Address("2001:db8:1::5")) is long
        assert t.lookup(Address("2001:db8:2::5")) is short

    def test_remove(self):
        t = RoutingTable()
        t.install(self._entry("2001:db8:1::/64"))
        t.remove(Prefix("2001:db8:1::/64"))
        assert t.lookup(Address("2001:db8:1::5")) is None

    def test_replace_same_prefix(self):
        t = RoutingTable()
        t.install(self._entry("2001:db8:1::/64", metric=5))
        newer = self._entry("2001:db8:1::/64", metric=1)
        t.install(newer)
        assert len(t) == 1
        assert t.lookup(Address("2001:db8:1::1")).metric == 1

    def test_connected_flag(self):
        e = self._entry("2001:db8:1::/64")
        assert e.connected


# ----------------------------------------------------------------------
# differential: per-length RoutingTable against a linear-scan reference
# ----------------------------------------------------------------------
_ANCHORS = [0x20010DB8 << 96, (0x20010DB8 << 96) | (1 << 64) | 5, 0xFF1E << 112, 7]
_LENGTHS = [0, 1, 16, 32, 48, 63, 64, 65, 127, 128]


class _LinearFib:
    """Reference FIB: ``(network, length) -> entry``, scanned in full."""

    def __init__(self):
        self.entries = {}

    def lookup(self, value):
        best, best_len = None, -1
        for (network, length), entry in self.entries.items():
            shift = 128 - length
            if value >> shift == network >> shift and length > best_len:
                best, best_len = entry, length
        return best


def _prefix(anchor_length):
    anchor, length = anchor_length
    network = anchor >> (128 - length) << (128 - length)
    return network, length


_prefixes = st.tuples(st.sampled_from(_ANCHORS), st.sampled_from(_LENGTHS)).map(_prefix)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), _prefixes, st.integers(1, 9)),
        st.tuples(st.just("remove"), _prefixes, st.just(0)),
        st.tuples(st.just("clear"), st.just((0, 0)), st.just(0)),
    ),
    max_size=30,
)
_probes = st.lists(
    st.one_of(
        st.sampled_from(_ANCHORS).flatmap(
            lambda a: st.integers(-2, 2).map(lambda d: min(max(a + d, 0), 2**128 - 1))
        ),
        st.integers(0, 2**128 - 1),
    ),
    min_size=1,
    max_size=10,
)


class TestRoutingTableDifferential:
    @given(_ops, _probes)
    @settings(max_examples=200)
    def test_matches_linear_scan(self, ops, probes):
        class FakeIface:
            link = None

        table, ref = RoutingTable(), _LinearFib()
        for op, (network, length), metric in ops:
            prefix = Prefix(f"{Address(network)}/{length}")
            if op == "install":
                entry = RouteEntry(prefix, FakeIface(), None, metric)
                table.install(entry)
                ref.entries[(network, length)] = entry
            elif op == "remove":
                table.remove(prefix)
                ref.entries.pop((network, length), None)
            else:
                table.clear()
                ref.entries.clear()
            assert len(table) == len(ref.entries)
            assert {id(e) for e in table.entries()} == {id(e) for e in ref.entries.values()}
            for value in probes + _ANCHORS:
                assert table.lookup(Address(value)) is ref.lookup(value)


class TestFibComputation:
    def test_line_metrics(self):
        topo = build_line(3)  # L0 -R0- L1 -R1- L2 -R2- L3
        topo.net.build_routes()
        r0 = topo.routers[0]
        assert r0.routing.lookup(Address("2001:db8:1::99")).metric == 1
        assert r0.routing.lookup(Address("2001:db8:3::99")).metric == 2
        assert r0.routing.lookup(Address("2001:db8:4::99")).metric == 3

    def test_line_next_hops(self):
        topo = build_line(3)
        topo.net.build_routes()
        r0 = topo.routers[0]
        entry = r0.routing.lookup(Address("2001:db8:4::99"))
        # next hop toward L3 is R1's address on the shared link L1
        assert entry.next_hop == topo.links[1].prefix.address_for_host(2)

    def test_connected_prefixes_have_no_next_hop(self):
        topo = build_line(2)
        topo.net.build_routes()
        for router in topo.routers:
            for iface in router.interfaces:
                entry = router.routing.lookup(
                    iface.link.prefix.address_for_host(250)
                )
                assert entry.connected
                assert entry.metric == 1

    def test_rebuild_is_idempotent(self):
        topo = build_line(2)
        topo.net.build_routes()
        before = {
            (r.name, str(e.prefix)): (e.metric, str(e.next_hop))
            for r in topo.routers
            for e in r.routing.entries()
        }
        topo.net.build_routes()
        after = {
            (r.name, str(e.prefix)): (e.metric, str(e.next_hop))
            for r in topo.routers
            for e in r.routing.entries()
        }
        assert before == after

    def test_metrics_match_networkx(self):
        """Cross-check hop metrics on the paper topology against networkx."""
        from repro.core import ROUTER_LINKS, build_paper_network

        paper = build_paper_network(seed=0)
        paper.net.build_routes()

        g = nx.Graph()
        for router, links in ROUTER_LINKS.items():
            for link in links:
                g.add_edge(f"r:{router}", f"l:{link}")

        for rname, router in paper.routers.items():
            for lname in paper.net.links:
                expected = nx.shortest_path_length(g, f"r:{rname}", f"l:{lname}") // 2 + (
                    0 if f"l:{lname}" in g[f"r:{rname}"] else 0
                )
                # networkx path alternates router/link nodes; hops in links
                # = (path_len+1)//2
                path_len = nx.shortest_path_length(g, f"r:{rname}", f"l:{lname}")
                expected = (path_len + 1) // 2
                entry = router.routing.lookup(
                    paper.net.link(lname).prefix.address_for_host(200)
                )
                assert entry is not None, (rname, lname)
                assert entry.metric == expected, (rname, lname)

    def test_paper_topology_rpf_toward_link1(self):
        """All routers reach Link 1 through the expected interfaces."""
        from repro.core import build_paper_network

        paper = build_paper_network(seed=0)
        paper.net.build_routes()
        target = paper.net.link("L1").prefix.address_for_host(100)
        assert paper.routers["A"].routing.lookup(target).connected
        for name in ("B", "C"):
            entry = paper.routers[name].routing.lookup(target)
            assert entry.iface.link.name == "L2"
            assert entry.metric == 2
        for name in ("D", "E"):
            entry = paper.routers[name].routing.lookup(target)
            assert entry.iface.link.name == "L3"
            assert entry.metric == 3


#: sha256 over the sorted "router prefix iface next_hop metric" lines of
#: every router's FIB, as computed by the linear-scan FIB before the
#: per-length tables.  hier depth 2 / fanout 4 is a tree (20 routers, 21
#: links); the Waxman graph (30 routers, 134 links) has equal-cost paths,
#: so it also pins the link-then-router-name tie-breaks.
FIB_DIGESTS = {
    "hier": (420, "ff3fc91a039c59f00e86cabd4808d7d299bc19094f6df2e7ed7ec6f5d3ad5402"),
    "waxman": (4020, "6bc85bfcbba760accc8b98e50e5bc89d07dfd32a00f876d85364f0cd0a97b460"),
}


@pytest.mark.parametrize("model", sorted(FIB_DIGESTS))
def test_generated_fib_digest_pinned(model):
    from repro.net.topogen import build_network, hierarchical_graph, waxman_graph

    graph = hierarchical_graph(depth=2, fanout=4) if model == "hier" else waxman_graph(n=30, seed=3)
    topo = build_network(graph)
    topo.net.build_routes()
    lines = sorted(
        f"{r.name} {e.prefix} {e.iface.name} {e.next_hop} {e.metric}"
        for r in topo.net.routers()
        for e in r.routing.entries()
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == FIB_DIGESTS[model]
