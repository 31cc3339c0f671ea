"""Unicast routing: FIB entries and shortest-path route computation.

PIM-DM is *protocol independent*: it relies on whatever unicast routing
the network runs, using it for (a) Reverse-Path-Forwarding checks — the
incoming interface of an (S,G) entry is the interface the router uses
to reach S by unicast (paper §3.1) — and (b) the routing metric carried
in Assert messages.

Routes are hop-count shortest paths, one BFS per destination link
(unit link cost; ties broken by link then router name, so every run
builds the same trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .addressing import Address, Prefix

if TYPE_CHECKING:  # pragma: no cover
    from .interface import Interface
    from .link import Link
    from .node import Node

__all__ = ["RouteEntry", "RoutingTable", "compute_router_fibs"]


@dataclass
class RouteEntry:
    """One FIB entry: how to reach ``prefix`` (``next_hop`` None: on-link).

    ``metric`` is the hop count (links crossed to reach the destination
    link, counting it) — the metric that PIM-DM Assert messages compare.
    """

    prefix: Prefix
    iface: "Interface"
    next_hop: Optional[Address]
    metric: int

    @property
    def connected(self) -> bool:
        return self.next_hop is None


class RoutingTable:
    """Per-node FIB with longest-prefix-match lookup.

    Entries live in one dict per prefix length, keyed by network int.
    A lookup masks the destination once per length present, longest
    first; every generated link is a /64, so that is one dict probe.
    """

    def __init__(self) -> None:
        #: prefix mask -> {network int -> entry}, longest prefix first
        self._tables: Dict[int, Dict[int, RouteEntry]] = {}

    def install(self, entry: RouteEntry) -> None:
        prefix = entry.prefix
        table = self._tables.get(prefix.mask)
        if table is None:
            table = self._tables[prefix.mask] = {}
            self._tables = dict(sorted(self._tables.items(), reverse=True))
        table[prefix.network] = entry

    def remove(self, prefix: Prefix) -> None:
        table = self._tables.get(prefix.mask)
        if table is not None:
            table.pop(prefix.network, None)

    def clear(self) -> None:
        self._tables.clear()

    def lookup(self, dst: Address) -> Optional[RouteEntry]:
        """Longest-prefix-match for ``dst``."""
        value = dst.as_int()
        for mask, table in self._tables.items():
            entry = table.get(value & mask)
            if entry is not None:
                return entry
        return None

    def entries(self) -> List[RouteEntry]:
        return [entry for table in self._tables.values() for entry in table.values()]

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


def compute_router_fibs(routers: List["Node"], links: List["Link"]) -> List[RouteEntry]:
    """Compute and install shortest-path FIBs on every router.

    Runs one BFS per destination link over the bipartite router/link
    graph.  Returns the installed entries.
    """
    # A router's first interface on each link it attaches to, and the
    # router/link adjacency by name in both directions, sorted.
    iface_on: Dict[Tuple[str, str], "Interface"] = {}
    for router in routers:
        for iface in router.interfaces:
            if iface.link is not None:
                iface_on.setdefault((router.name, iface.link.name), iface)
    links_of: Dict[str, List[str]] = {router.name: [] for router in routers}
    routers_on: Dict[str, List[str]] = {link.name: [] for link in links}
    for name, link_name in sorted(iface_on):
        links_of[name].append(link_name)
        routers_on.setdefault(link_name, []).append(name)
    routers_by_name = {router.name: router for router in routers}
    next_hops: Dict[Tuple[str, str], Address] = {}

    installed: List[RouteEntry] = []
    for dest_link in links:
        # BFS over routers; metric = links crossed to deliver onto dest_link.
        frontier = routers_on[dest_link.name]
        via = {name: (iface_on[(name, dest_link.name)], None) for name in frontier}
        metric = 1
        while frontier:
            next_frontier: List[str] = []
            for name in frontier:
                iface, next_hop = via[name]
                entry = RouteEntry(dest_link.prefix, iface, next_hop, metric)
                routers_by_name[name].routing.install(entry)
                installed.append(entry)
                for link_name in links_of[name]:
                    if link_name == dest_link.name:
                        continue
                    for neighbor in routers_on[link_name]:
                        if neighbor in via:
                            continue
                        # Our address on the shared link is the neighbor's
                        # next hop toward dest_link.
                        hop = next_hops.get((name, link_name))
                        if hop is None:
                            hop = _global_address(iface_on[(name, link_name)])
                            next_hops[(name, link_name)] = hop
                        via[neighbor] = (iface_on[(neighbor, link_name)], hop)
                        next_frontier.append(neighbor)
            frontier = sorted(next_frontier)
            metric += 1
    return installed


def _global_address(iface: "Interface") -> Address:
    """The interface's global address (used as a next hop)."""
    for addr in iface.addresses:
        if not addr.is_link_local and not addr.is_multicast:
            return addr
    raise ValueError(f"{iface.node.name} has no global address on {iface.link.name}")
