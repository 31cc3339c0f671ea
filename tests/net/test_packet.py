"""Unit + property tests for IPv6 packets and encapsulation."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.mipv6 import HomeAddressOption
from repro.mipv6.options import BindingRequestOption
from repro.net import (
    Address,
    ApplicationData,
    ControlPayload,
    IPV6_HEADER_BYTES,
    Ipv6Packet,
    LinkStats,
    classify_packet,
)

SRC = Address("2001:db8:1::10")
DST = Address("ff1e::1")
HA = Address("2001:db8:1::1")
COA = Address("2001:db8:6::10")


def data_packet(payload_bytes=1000, **kw):
    return Ipv6Packet(SRC, DST, ApplicationData(seqno=0, payload_bytes=payload_bytes), **kw)


class TestBasics:
    def test_size_is_header_plus_payload(self):
        assert data_packet(500).size_bytes == IPV6_HEADER_BYTES + 500

    def test_default_hop_limit(self):
        assert data_packet().hop_limit == 64

    def test_unique_uids(self):
        assert data_packet().uid != data_packet().uid

    def test_decrement_hop_limit_copies(self):
        p = data_packet()
        q = p.with_decremented_hop_limit()
        assert q.hop_limit == p.hop_limit - 1
        assert q.uid == p.uid  # same datagram identity
        assert q.payload is p.payload

    def test_describe_mentions_endpoints(self):
        text = data_packet().describe()
        assert str(SRC) in text and str(DST) in text


class TestOptionsHeader:
    def test_no_options_no_overhead(self):
        assert data_packet().size_bytes == 1040

    def test_options_header_padded_to_8(self):
        p = Ipv6Packet(
            SRC, DST, ApplicationData(seqno=0, payload_bytes=0),
            dest_options=(HomeAddressOption(SRC),),
        )
        # 2 bytes ext header + 18 bytes option = 20 -> padded to 24
        assert p.size_bytes == IPV6_HEADER_BYTES + 24

    def test_find_option(self):
        opt = HomeAddressOption(SRC)
        p = Ipv6Packet(SRC, DST, ApplicationData(seqno=0), dest_options=(opt,))
        assert p.find_option(HomeAddressOption) is opt
        assert data_packet().find_option(HomeAddressOption) is None


class TestEncapsulation:
    def test_encapsulate_adds_header(self):
        inner = data_packet()
        outer = inner.encapsulate(COA, HA)
        assert outer.size_bytes == inner.size_bytes + IPV6_HEADER_BYTES
        assert outer.overhead_bytes == IPV6_HEADER_BYTES

    def test_decapsulate_returns_inner(self):
        inner = data_packet()
        assert inner.encapsulate(COA, HA).decapsulate() is inner

    def test_decapsulate_plain_raises(self):
        with pytest.raises(ValueError):
            data_packet().decapsulate()

    def test_is_tunneled(self):
        inner = data_packet()
        assert not inner.is_tunneled
        assert inner.encapsulate(COA, HA).is_tunneled

    def test_inner_of_plain_is_self(self):
        p = data_packet()
        assert p.inner is p
        assert p.overhead_bytes == 0

    def test_double_encapsulation(self):
        inner = data_packet()
        outer2 = inner.encapsulate(COA, HA).encapsulate(HA, COA)
        assert outer2.inner is inner
        assert outer2.overhead_bytes == 2 * IPV6_HEADER_BYTES

    def test_innermost_message(self):
        inner = data_packet()
        outer = inner.encapsulate(COA, HA)
        assert outer.innermost_message() is inner.payload

    def test_outer_addresses(self):
        outer = data_packet().encapsulate(COA, HA)
        assert outer.src == COA and outer.dst == HA

    @given(
        st.integers(min_value=0, max_value=9000),
        st.integers(min_value=1, max_value=4),
    )
    def test_nested_overhead_property(self, payload, depth):
        """k levels of encapsulation cost exactly k extra base headers."""
        p = data_packet(payload)
        base = p.size_bytes
        for _ in range(depth):
            p = p.encapsulate(COA, HA)
        assert p.size_bytes == base + depth * IPV6_HEADER_BYTES
        assert p.overhead_bytes == depth * IPV6_HEADER_BYTES


class TestHopClone:
    def test_clone_keeps_identity_and_size(self):
        p = data_packet(700)
        size, text = p.size_bytes, p.describe()
        q = p.with_decremented_hop_limit()
        assert q is not p
        assert q.uid == p.uid
        assert (q.src, q.dst) == (p.src, p.dst)
        assert q.dest_options == p.dest_options
        assert q.size_bytes == size
        assert q.describe() == text

    def test_clone_of_unsized_packet_computes_size(self):
        q = data_packet(300).with_decremented_hop_limit()
        assert q.size_bytes == IPV6_HEADER_BYTES + 300

    def test_clone_draws_one_uid(self):
        """The next packet's uid is the one a constructed copy leaves."""
        from repro.net.packet import reset_packet_uids

        reset_packet_uids()
        p = data_packet()
        p.with_decremented_hop_limit()
        assert data_packet().uid == p.uid + 2


# ----------------------------------------------------------------------
# differential test of the per-packet memo (inner, size, classification)
# ----------------------------------------------------------------------
UNI = Address("2001:db8:2::20")


def walk_inner(packet):
    """Innermost packet, found by walking the payload chain."""
    while isinstance(packet.payload, Ipv6Packet):
        packet = packet.payload
    return packet


def walk_size(packet):
    """Wire size from scratch: headers, padded options, payload."""
    options = 0
    if packet.dest_options:
        raw = 2 + sum(opt.size_bytes for opt in packet.dest_options)
        options = (raw + 7) // 8 * 8
    payload = packet.payload
    body = walk_size(payload) if isinstance(payload, Ipv6Packet) else payload.size_bytes
    return IPV6_HEADER_BYTES + options + body


def walk_charges(packet):
    """(category, bytes charged per category) of one transmission."""
    inner = walk_inner(packet)
    message = inner.payload
    size = walk_size(packet)
    overhead = size - walk_size(inner)
    if message.protocol == "app":
        if message.probe:
            return "fluid_probe", {"fluid_probe": size}
        category = "mcast_data" if inner.dst.is_multicast else "unicast_data"
    else:
        category = message.protocol
    charges = {category: size - overhead}
    if overhead:
        charges["tunnel_overhead"] = overhead
    return category, charges


_messages = st.one_of(
    st.builds(
        ApplicationData,
        seqno=st.integers(0, 50),
        payload_bytes=st.integers(0, 1500),
        probe=st.booleans(),
    ),
    st.builds(
        ControlPayload,
        protocol=st.sampled_from(["mld", "pim", "mipv6"]),
        size=st.integers(0, 64),
    ),
)
_options = st.lists(
    st.sampled_from(["home", "request"]), max_size=3
).map(
    lambda kinds: tuple(
        HomeAddressOption(UNI) if kind == "home" else BindingRequestOption()
        for kind in kinds
    )
)
#: per level: (outer options, hop-limit clones, classify before cloning)
_levels = st.lists(
    st.tuples(_options, st.integers(0, 2), st.booleans()), min_size=1, max_size=4
)


def _build(message, dst, levels):
    """Innermost packet plus 0-3 encapsulations, with clones at every
    level; the memo is warmed before cloning on some levels only."""
    built = []
    packet = None
    for options, clones, warm in levels:
        if packet is None:
            packet = Ipv6Packet(UNI, dst, message, dest_options=options)
        else:
            packet = packet.encapsulate(COA, HA, dest_options=options)
        for _ in range(clones):
            if warm:
                classify_packet(packet)
            packet = packet.with_decremented_hop_limit()
        built.append(packet)
    return built


class TestPacketMemo:
    def _check(self, packet):
        inner = walk_inner(packet)
        category, charges = walk_charges(packet)
        assert packet.inner is inner
        assert packet.innermost_message() is inner.payload
        assert packet.is_tunneled == isinstance(packet.payload, Ipv6Packet)
        assert packet.size_bytes == walk_size(packet)
        assert packet.overhead_bytes == walk_size(packet) - walk_size(inner)
        stats = LinkStats()
        assert stats.account(packet) == category
        assert dict(stats.bytes_by_category) == charges
        assert dict(stats.packets_by_category) == {category: 1}
        assert classify_packet(packet) == category
        stats.account(packet)
        assert dict(stats.bytes_by_category) == {k: 2 * v for k, v in charges.items()}

    @given(_messages, st.sampled_from([DST, UNI]), _levels)
    def test_memo_matches_walker(self, message, dst, levels):
        for packet in _build(message, dst, levels):
            self._check(packet)

    @given(_messages, st.sampled_from([DST, UNI]), _levels)
    def test_memo_survives_pickle(self, message, dst, levels):
        packet = _build(message, dst, levels)[-1]
        if len(levels) % 2:
            classify_packet(packet)
        copy = pickle.loads(pickle.dumps(packet))
        self._check(copy)
        assert copy.uid == packet.uid and copy.hop_limit == packet.hop_limit
        self._check(copy.with_decremented_hop_limit())
