"""Wire codec tests.

The reference fixture bytes are assembled by hand from the RFC 6396 /
RFC 4271 field layouts, independent of the codec under test.
"""

from __future__ import annotations

import bz2
import gzip
import io
import ipaddress
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.errors import BgpParseError, MrtError, TruncatedRecord
from bgpchurn.mrt.bgp import (
    AS_SEQUENCE,
    AS_SET,
    PathSegment,
    WireAttribute,
    address_str,
    attr_communities,
    community_str,
    community_value,
    decode_as_path,
    decode_attribute_block,
    decode_prefix_strs,
    decode_prefixes,
    encode_as_path,
    encode_attribute_block,
    encode_prefixes,
    merge_as4_path,
    path_segments,
)
from bgpchurn.mrt.build import build_keepalive_record, build_update_record
from bgpchurn.mrt.codec import (
    BGP4MP_MESSAGE_ADDPATH,
    MrtReader,
    MrtRecordHeader,
    decode_entry,
    read_mrt_stream,
    write_mrt_stream,
)
from bgpchurn.mrt.tabledump import rib_peer_asns

from helpers import update_entry

# ---------------------------------------------------------------------------
# hand-built reference record
#
# BGP4MP_MESSAGE (type 16 subtype 1), peer AS 65001, announcing
# 10.0.0.0/24 with AS_PATH (65001 65002), community 65001:100 and
# next hop 10.0.0.1.

_ATTR_ORIGIN = bytes.fromhex("40010100")  # flags 0x40, type 1, len 1, IGP
_ATTR_AS_PATH = bytes.fromhex("40020602" + "02" + "fde9" + "fdea")
_ATTR_NEXT_HOP = bytes.fromhex("400304" + "0a000001")
_ATTR_COMMUNITIES = bytes.fromhex("c00804" + "fde9" + "0064")
_ATTRS = _ATTR_ORIGIN + _ATTR_AS_PATH + _ATTR_NEXT_HOP + _ATTR_COMMUNITIES

_UPDATE_BODY = (
    b"\x00\x00"  # withdrawn routes length
    + len(_ATTRS).to_bytes(2, "big")  # total path attribute length (27)
    + _ATTRS
    + bytes.fromhex("18" + "0a0000")  # NLRI 10.0.0.0/24
)
_BGP_MESSAGE = b"\xff" * 16 + (19 + len(_UPDATE_BODY)).to_bytes(2, "big") + b"\x02" + _UPDATE_BODY

_BGP4MP_BODY = (
    bytes.fromhex("fde9")  # peer AS 65001
    + bytes.fromhex("fc00")  # local AS 64512
    + b"\x00\x00"  # interface index
    + b"\x00\x01"  # AFI IPv4
    + bytes.fromhex("0a000001")  # peer address 10.0.0.1
    + bytes.fromhex("0a000002")  # local address 10.0.0.2
    + _BGP_MESSAGE
)
REFERENCE_TS = 1_600_000_000
REFERENCE_RECORD = (
    struct.pack("!IHHI", REFERENCE_TS, 16, 1, len(_BGP4MP_BODY)) + _BGP4MP_BODY
)
# extended-timestamp variant: 4-byte microsecond field inside the body
REFERENCE_RECORD_ET = (
    struct.pack("!IHHI", REFERENCE_TS, 17, 1, len(_BGP4MP_BODY) + 4)
    + struct.pack("!I", 999_999)
    + _BGP4MP_BODY
)


def test_reference_record_layout_sizes():
    assert len(_ATTRS) == 27
    assert len(_UPDATE_BODY) == 35
    assert len(_BGP_MESSAGE) == 54
    assert len(_BGP4MP_BODY) == 70
    assert len(REFERENCE_RECORD) == 82
    assert len(REFERENCE_RECORD_ET) == 86


def test_parse_hand_built_update():
    entries = list(read_mrt_stream(REFERENCE_RECORD))
    assert len(entries) == 1
    entry = entries[0]
    assert entry.kind == "update"
    assert entry.header.timestamp == REFERENCE_TS
    assert entry.arrival_us == REFERENCE_TS * 1_000_000
    msg = entry.message
    assert msg.peer_asn == 65001
    assert str(msg.peer_address) == "10.0.0.1"
    assert msg.local_asn == 64512
    assert [str(p) for p in msg.announced_prefixes] == ["10.0.0.0/24"]
    assert msg.withdrawn_prefixes == ()
    assert msg.attributes.path_elements() == (65001, 65002)
    assert msg.attributes.communities == ((65001 << 16) | 100,)
    assert msg.attributes.community_strs() == ("65001:100",)
    assert str(msg.attributes.next_hop) == "10.0.0.1"


def test_parse_extended_timestamp_record():
    (entry,) = read_mrt_stream(REFERENCE_RECORD_ET)
    assert entry.microsecond == 999_999
    assert entry.has_native_usec
    assert entry.arrival_us == REFERENCE_TS * 1_000_000 + 999_999
    assert entry.message.peer_asn == 65001


REFERENCE_COMMUNITY = (65001 << 16) | 100


def test_builder_matches_hand_built_bytes():
    entry = update_entry(communities=(REFERENCE_COMMUNITY,))
    assert entry.encode() == REFERENCE_RECORD
    entry_et = update_entry(communities=(REFERENCE_COMMUNITY,), microsecond=999_999)
    assert entry_et.encode() == REFERENCE_RECORD_ET


def test_empty_stream():
    assert list(read_mrt_stream(b"")) == []


def test_round_trip_bytes_identity(tmp_path):
    fixture = REFERENCE_RECORD + REFERENCE_RECORD_ET + REFERENCE_RECORD
    out = io.BytesIO()
    n = write_mrt_stream(read_mrt_stream(fixture), out)
    assert out.getvalue() == fixture
    assert n == len(fixture)


def test_round_trip_through_files(tmp_path):
    src = tmp_path / "fixture.mrt"
    src.write_bytes(REFERENCE_RECORD_ET + REFERENCE_RECORD)
    dst = tmp_path / "copy.mrt"
    write_mrt_stream(read_mrt_stream(src), dst)
    assert dst.read_bytes() == src.read_bytes()


@pytest.mark.parametrize(
    "compress,suffix",
    [(gzip.compress, "gz"), (bz2.compress, "bz2")],
)
def test_container_detection_by_magic(tmp_path, compress, suffix):
    raw = REFERENCE_RECORD + REFERENCE_RECORD_ET
    path = tmp_path / f"fixture.{suffix}"
    path.write_bytes(compress(raw))
    entries = list(read_mrt_stream(path))
    assert [e.kind for e in entries] == ["update", "update"]
    assert b"".join(e.encode() for e in entries) == raw


def test_truncated_header_raises():
    with pytest.raises(TruncatedRecord):
        list(read_mrt_stream(REFERENCE_RECORD[:8]))


def test_truncated_body_raises():
    with pytest.raises(TruncatedRecord):
        list(read_mrt_stream(REFERENCE_RECORD[:-5]))


def test_keepalive_and_unknown_kinds():
    keep = build_keepalive_record(1, 65001, "10.0.0.1", 64512, "10.0.0.2")
    other = decode_entry(MrtRecordHeader(1, 42, 7, 3), b"\x00\x01\x02")
    assert keep.kind == "keepalive"
    assert other.kind == "other"
    blob = keep.encode() + other.encode()
    assert b"".join(e.encode() for e in read_mrt_stream(blob)) == blob


def test_addpath_surfaced_as_other_with_counter():
    header = MrtRecordHeader(5, 16, BGP4MP_MESSAGE_ADDPATH, len(_BGP4MP_BODY))
    blob = header.encode() + _BGP4MP_BODY + REFERENCE_RECORD
    reader = MrtReader(blob)
    kinds = [e.kind for e in reader]
    assert kinds == ["other", "update"]
    assert reader.stats.addpath == 1
    assert reader.stats.updates == 1
    assert reader.stats.records == 2


def test_garbled_bgp_body_downgrades_to_other():
    bad_bgp = b"\x00" * 54  # no marker, nonsense length
    body = _BGP4MP_BODY[: len(_BGP4MP_BODY) - len(_BGP_MESSAGE)] + bad_bgp
    header = MrtRecordHeader(5, 16, 1, len(body))
    reader = MrtReader(header.encode() + body)
    (entry,) = list(reader)
    assert entry.kind == "other"
    assert entry.note
    assert reader.stats.undecodable == 1
    assert entry.encode() == header.encode() + body


def test_fuzzed_mutations_never_crash():
    rng = random.Random(20_200_315)
    base = bytearray(REFERENCE_RECORD + REFERENCE_RECORD_ET)
    for _ in range(10_000):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            for entry in read_mrt_stream(bytes(mutated)):
                entry.encode()
        except MrtError:
            pass  # typed errors are the allowed failure mode


def test_streaming_is_lazy():
    blob = REFERENCE_RECORD * 1000
    stream = read_mrt_stream(blob)
    first = next(stream)
    assert first.kind == "update"  # no full materialization needed


# ---------------------------------------------------------------------------
# attribute and prefix codecs


def test_prefix_codec_round_trip():
    import ipaddress

    prefixes = [
        ipaddress.ip_network(p)
        for p in ("0.0.0.0/0", "10.0.0.0/8", "10.64.0.0/10", "192.0.2.1/32")
    ]
    assert decode_prefixes(encode_prefixes(prefixes), 1) == prefixes


def test_prefix_codec_v6():
    import ipaddress

    prefixes = [ipaddress.ip_network("2001:db8::/32")]
    assert decode_prefixes(encode_prefixes(prefixes), 2) == prefixes


def test_nonminimal_prefix_trailing_bits_masked():
    # /23 with a set bit beyond the mask still yields the masked network
    blob = bytes([23, 10, 0, 1])
    (net,) = decode_prefixes(blob, 1)
    assert str(net) == "10.0.0.0/23"


MAX_BITS = {1: 32, 2: 128}


@st.composite
def prefix_encodings(draw):
    """(afi, [(bits, wire bytes)]) with random bits past each prefix length."""
    afi = draw(st.sampled_from((1, 2)))
    specs = []
    for bits in draw(st.lists(st.integers(0, MAX_BITS[afi]), max_size=6)):
        nbytes = (bits + 7) // 8
        specs.append((bits, draw(st.binary(min_size=nbytes, max_size=nbytes))))
    return afi, specs


@settings(max_examples=300, deadline=None)
@given(prefix_encodings())
def test_prefix_strs_equal_ipaddress_text(encoding):
    afi, specs = encoding
    blob = b"".join(bytes([bits]) + chunk for bits, chunk in specs)
    addr_len = MAX_BITS[afi] // 8
    expected = [
        str(
            ipaddress.ip_network(
                (ipaddress.ip_address(chunk.ljust(addr_len, b"\x00")), bits),
                strict=False,
            )
        )
        for bits, chunk in specs
    ]
    assert decode_prefix_strs(blob, afi) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2)), st.binary(max_size=40))
def test_prefix_strs_fail_as_decode_prefixes(afi, blob):
    try:
        expected = [str(net) for net in decode_prefixes(blob, afi)]
    except BgpParseError as exc:
        with pytest.raises(BgpParseError, match=re.escape(str(exc))):
            decode_prefix_strs(blob, afi)
    else:
        assert decode_prefix_strs(blob, afi) == expected


@pytest.mark.parametrize(
    "afi,blob,message",
    [
        (1, bytes([33, 10, 0, 0, 0, 0]), "exceeds AFI maximum"),
        (2, bytes([129]) + b"\x20" * 17, "exceeds AFI maximum"),
        (1, bytes([24, 10, 0]), "truncated prefix bytes"),
        (2, bytes([48, 0x20, 0x01, 0x0D]), "truncated prefix bytes"),
        (3, b"", "unsupported AFI"),
    ],
)
def test_prefix_strs_reject_bad_encodings(afi, blob, message):
    for decode in (decode_prefixes, decode_prefix_strs):
        with pytest.raises(BgpParseError, match=message):
            decode(blob, afi)


_KEEPALIVE = b"\xff" * 16 + (19).to_bytes(2, "big") + b"\x04"


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda afi: st.tuples(
            st.just(afi),
            st.binary(min_size=MAX_BITS[afi] // 8, max_size=MAX_BITS[afi] // 8),
            st.binary(min_size=MAX_BITS[afi] // 8, max_size=MAX_BITS[afi] // 8),
        )
    )
)
def test_bgp4mp_addresses_equal_ipaddress_text(fields):
    afi, peer, local = fields
    body = struct.pack("!HHHH", 65001, 64512, 0, afi) + peer + local + _KEEPALIVE
    entry = decode_entry(MrtRecordHeader(0, 16, 1, len(body)), body)
    assert entry.kind == "keepalive"
    assert entry.message.peer_address == str(ipaddress.ip_address(peer))
    assert entry.message.local_address == str(ipaddress.ip_address(local))
    assert address_str(peer) == str(ipaddress.ip_address(peer))


def test_as_path_codec_widths():
    segs = (PathSegment(AS_SEQUENCE, (65001, 65002)), PathSegment(AS_SET, (3, 1, 2)))
    assert decode_as_path(encode_as_path(segs, 2), 2) == segs
    wide = (PathSegment(AS_SEQUENCE, (4_200_000_000, 65002)),)
    assert decode_as_path(encode_as_path(wide, 4), 4) == wide


def test_as_set_collapses_to_sorted_element():
    segs = path_segments([65001, (65003, 65002), 65004])
    elements = tuple(el for seg in segs for el in seg.elements())
    assert elements == (65001, (65002, 65003), 65004)


def test_merge_as4_path_splices_tail():
    # 2-byte path shows AS_TRANS placeholders; the 4-byte tail wins
    path = (PathSegment(AS_SEQUENCE, (65001, 23456, 23456)),)
    as4 = (PathSegment(AS_SEQUENCE, (4_200_000_001, 4_200_000_002)),)
    merged = merge_as4_path(path, as4)
    flat = tuple(asn for seg in merged for asn in seg.asns)
    assert flat == (65001, 4_200_000_001, 4_200_000_002)


def test_merge_as4_path_longer_as4_ignored():
    path = (PathSegment(AS_SEQUENCE, (65001,)),)
    as4 = (PathSegment(AS_SEQUENCE, (1, 2, 3)),)
    assert merge_as4_path(path, as4) == path


def test_extended_length_attribute_round_trip():
    payload = bytes(range(256)) * 2  # 512 bytes forces the extended form
    attr = WireAttribute(0xC0, 99, payload)
    blob = attr.encode()
    assert blob[0] & 0x10  # extended-length flag set on the wire
    (back,) = decode_attribute_block(blob)
    assert back.payload == payload
    assert encode_attribute_block([back]) == blob


def test_community_rendering():
    value = (3356 << 16) | 2010
    assert community_str(value) == "3356:2010"
    assert community_value("3356:2010") == value


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 255),
            st.integers(0, 255),
            st.binary(max_size=300),
        ),
        max_size=8,
    )
)
def test_attribute_block_round_trip_property(specs):
    attrs = [
        WireAttribute(flags | (0x10 if len(payload) > 255 else 0), code, payload)
        for flags, code, payload in specs
    ]
    blob = encode_attribute_block(attrs)
    decoded = decode_attribute_block(blob)
    assert encode_attribute_block(decoded) == blob


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 999_999)),
        min_size=1,
        max_size=20,
    )
)
def test_record_stream_round_trip_property(stamps):
    blob = b"".join(
        update_entry(timestamp=ts, microsecond=us).encode() for ts, us in stamps
    )
    assert b"".join(e.encode() for e in read_mrt_stream(blob)) == blob


# ---------------------------------------------------------------------------
# TABLE_DUMP_V2 read-only support


def _peer_index_table_record():
    body = (
        bytes.fromhex("0a000001")  # collector BGP id
        + b"\x00\x00"  # empty view name
        + b"\x00\x02"  # two peers
        # peer 0: v4 address, 2-byte AS 65001
        + b"\x00" + bytes.fromhex("0a000001") + bytes.fromhex("0a000001") + bytes.fromhex("fde9")
        # peer 1: v4 address, 4-byte AS 4200000000
        + b"\x02" + bytes.fromhex("0a000002") + bytes.fromhex("0a000002") + struct.pack("!I", 4_200_000_000)
    )
    return MrtRecordHeader(0, 13, 1, len(body)).encode() + body


def _rib_v4_record():
    entry = struct.pack("!HIH", 1, 0, len(_ATTR_AS_PATH_4B)) + _ATTR_AS_PATH_4B
    body = (
        struct.pack("!I", 7)  # sequence number
        + bytes([24, 10, 0, 0])  # 10.0.0.0/24
        + b"\x00\x01"  # one entry
        + entry
    )
    return MrtRecordHeader(0, 13, 2, len(body)).encode() + body


# one-hop AS_SEQUENCE with a 4-byte ASN (TABLE_DUMP_V2 always uses 4)
_ATTR_AS_PATH_4B = (
    bytes.fromhex("4002") + bytes([6, 2, 1]) + struct.pack("!I", 4_200_000_000)
)


def test_rib_peer_asns_from_snapshot():
    blob = _peer_index_table_record() + _rib_v4_record()
    assert rib_peer_asns(blob) == {4_200_000_000}
