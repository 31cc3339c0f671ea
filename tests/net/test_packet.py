"""Unit + property tests for IPv6 packets and encapsulation."""

import pytest
from hypothesis import given, strategies as st

from repro.mipv6 import HomeAddressOption
from repro.net import Address, ApplicationData, IPV6_HEADER_BYTES, Ipv6Packet

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
