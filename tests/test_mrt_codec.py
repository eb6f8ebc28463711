"""Wire codec tests.

The reference fixture bytes are assembled by hand from the RFC 6396 /
RFC 4271 field layouts, independent of the codec under test.
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import io
import ipaddress
import random
import re
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.addr import address_text
from bgpchurn.errors import BgpParseError, MrtError
from bgpchurn.mrt import bgp, codec
from bgpchurn.mrt.bgp import (
    AS_SEQUENCE,
    AS_SET,
    ATTR_AS4_PATH,
    ATTR_AS_PATH,
    ATTR_COMMUNITIES,
    ATTR_MED,
    ATTR_MP_REACH_NLRI,
    ATTR_MP_UNREACH_NLRI,
    ATTR_NEXT_HOP,
    attr_as_path,
    community_str,
    community_value,
    decode_attribute_block,
    decode_path,
    decode_prefix_strs,
    decode_update_body,
    encode_as_path,
    encode_prefixes,
    merge_as4_path,
    path_segments,
    wire_attribute,
)
from bgpchurn.mrt.build import build_update_record
from bgpchurn.mrt.codec import (
    BGP4MP_MESSAGE_ADDPATH,
    RECORD_KINDS,
    MrtEntry,
    MrtRecordHeader,
    decode_entry,
    open_archive,
    read_mrt_stream,
    write_mrt_stream,
)

from helpers import build_keepalive_record, count_opens, decode_prefixes, update_entry

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
    assert [str(p) for p in msg.announced_prefixes] == ["10.0.0.0/24"]
    assert msg.withdrawn_prefixes == ()
    assert msg.attributes.path == (65001, 65002)
    assert msg.attributes.communities == ((65001 << 16) | 100,)
    assert tuple(map(community_str, msg.attributes.communities)) == ("65001:100",)
    assert msg.attributes.next_hop == "10.0.0.1"


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
    with open(dst, "wb") as f:
        write_mrt_stream(read_mrt_stream(src), f)
    assert dst.read_bytes() == src.read_bytes()


def raw_entry(size: int, fill: int) -> MrtEntry:
    """An opaque record of ``size`` bytes, header included."""
    body = bytes([fill]) * (size - 12)
    return MrtEntry(MrtRecordHeader(REFERENCE_TS, 16, 1, len(body)), body, "other")


def write_each(entries, container):
    """(bytes, count) of writing the records one write call each."""
    sink = io.BytesIO()
    if container == "gzip":
        out = gzip.GzipFile(fileobj=sink, mode="wb", filename="", mtime=0, compresslevel=6)
    elif container == "bzip2":
        out = bz2.open(sink, "wb")
    else:
        out = contextlib.nullcontext(sink)
    total = 0
    with out as f:
        for entry in entries:
            total += f.write(entry.encode())
    return sink.getvalue(), total


CHUNK = 64 * 1024
_CHUNKED_INPUTS = {
    "empty": [],
    "one record": [raw_entry(100, 1)],
    "whole chunks": [raw_entry(1024, i % 256) for i in range(3 * 64)],
    "whole chunks and a part": [raw_entry(1024, i % 256) for i in range(3 * 64 + 5)],
    "drawn sizes": [
        raw_entry(random.Random(i).randrange(12, 3000), i % 256) for i in range(300)
    ],
    "a record over a chunk": [raw_entry(100, 1), raw_entry(CHUNK + 7, 2), raw_entry(50, 3)],
}


class CountingSink(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(len(data))
        return super().write(data)


@pytest.mark.parametrize("container", ["plain", "gzip", "bzip2"])
@pytest.mark.parametrize("name", sorted(_CHUNKED_INPUTS))
def test_chunked_write_equals_a_write_per_record(name, container):
    entries = _CHUNKED_INPUTS[name]
    sink = CountingSink()
    count = write_mrt_stream(iter(entries), sink, container)
    assert (sink.getvalue(), count) == write_each(entries, container)
    if container == "plain":
        # every write but the last holds a chunk, and less than one more record
        largest = max((len(e.encode()) for e in entries), default=0)
        assert all(CHUNK <= n < CHUNK + largest for n in sink.writes[:-1])


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


def test_bytes_carry_their_container_and_a_stream_names_its_own():
    raw = REFERENCE_RECORD + REFERENCE_RECORD_ET
    for compress, container in ((gzip.compress, "gzip"), (bz2.compress, "bzip2")):
        blob = compress(raw)
        from_bytes = b"".join(e.encode() for e in read_mrt_stream(blob))
        from_stream = read_mrt_stream(io.BytesIO(blob), container)
        assert from_bytes == b"".join(e.encode() for e in from_stream) == raw
    with pytest.raises(ValueError, match="unknown container 'auto'"):
        list(read_mrt_stream(io.BytesIO(raw)))


@pytest.mark.parametrize(
    "compress", [gzip.compress, bz2.compress, bytes], ids=["gzip", "bzip2", "plain"]
)
def test_open_archive_opens_a_path_once(tmp_path, monkeypatch, compress):
    raw = REFERENCE_RECORD + REFERENCE_RECORD_ET
    path = tmp_path / "updates"  # no suffix: the container comes from the bytes
    path.write_bytes(compress(raw))
    opened = count_opens(monkeypatch)
    with open_archive(path) as f:
        assert f.read() == raw
    assert opened == [str(path)]
    assert f.closed


def test_open_archive_leaves_a_stream_open():
    raw = REFERENCE_RECORD + REFERENCE_RECORD_ET
    for compress, container in (
        (gzip.compress, "gzip"), (bz2.compress, "bzip2"), (bytes, "plain")
    ):
        stream = io.BytesIO(compress(raw))
        with open_archive(stream, container) as f:
            assert f.read() == raw
        assert not stream.closed, container


def test_truncated_header_raises():
    with pytest.raises(MrtError):
        list(read_mrt_stream(REFERENCE_RECORD[:8]))


def test_truncated_body_raises():
    with pytest.raises(MrtError):
        list(read_mrt_stream(REFERENCE_RECORD[:-5]))


@pytest.mark.parametrize(
    "cut,error",
    [
        (REFERENCE_RECORD[:8], "header cut short at 8 bytes"),
        (REFERENCE_RECORD[:-5], f"body cut short ({len(REFERENCE_RECORD) - 17} of "
                                f"{len(REFERENCE_RECORD) - 12} bytes)"),
        (MrtRecordHeader(REFERENCE_TS, 17, 1, 2).encode() + b"\x00\x01",
         "extended timestamp record shorter than 4 bytes"),
    ],
    ids=["header", "body", "extended-timestamp"],
)
def test_a_cut_record_is_named_by_its_index(cut, error):
    with pytest.raises(MrtError, match=f"^{re.escape(f'record 1: {error}')}$"):
        list(read_mrt_stream(REFERENCE_RECORD + cut))


class RecordingReader(io.BytesIO):
    """A plain stream that records the size of each read."""

    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_corrupt_length_reads_no_more_than_a_chunk_at_once():
    claimed = 3 << 30  # 3 GiB, over 20 bytes of body
    f = RecordingReader(MrtRecordHeader(REFERENCE_TS, 16, 1, claimed).encode() + bytes(20))
    cut = re.escape(f"record 0: body cut short (20 of {claimed} bytes)")
    with pytest.raises(MrtError, match=cut):
        list(read_mrt_stream(f, "plain"))
    assert 0 < max(f.sizes) <= codec._CHUNK


def test_a_non_update_file_is_refused_from_its_first_header():
    f = RecordingReader(MrtRecordHeader(REFERENCE_TS, 13, 1, 2**32 - 1).encode() + bytes(20))
    with pytest.raises(MrtError, match="^not an update file: first record type 13$"):
        list(read_mrt_stream(f, "plain"))
    assert f.sizes == [12] and f.tell() == 12  # the header alone, no body


def test_long_records_read_in_pieces_equal_the_input():
    entries = _CHUNKED_INPUTS["a record over a chunk"] + [raw_entry(3 * CHUNK, 4)]
    blob = b"".join(e.encode() for e in entries)
    f = RecordingReader(blob)
    assert b"".join(e.encode() for e in read_mrt_stream(f, "plain")) == blob
    assert max(f.sizes) == codec._CHUNK == CHUNK


_V6_GLOBAL = bytes.fromhex("20010db8000000000000000000000001")  # 2001:db8::1
_V6_LINK_LOCAL = bytes.fromhex("fe800000000000000000000000000001")  # fe80::1


@pytest.mark.parametrize(
    "afi,next_hop,expected",
    [
        (1, bytes([192, 0, 2, 1]), "192.0.2.1"),
        (1, _V6_GLOBAL, "2001:db8::1"),  # RFC 8950
        (1, _V6_GLOBAL + _V6_LINK_LOCAL, "2001:db8::1"),
        (2, _V6_GLOBAL, "2001:db8::1"),
        (2, _V6_GLOBAL + _V6_LINK_LOCAL, "2001:db8::1"),
        (1, bytes(8) + bytes([192, 0, 2, 1]), None),  # a route distinguisher first
    ],
    ids=["ipv4-4", "ipv4-16", "ipv4-32", "ipv6-16", "ipv6-32", "ipv4-12"],
)
def test_mp_reach_next_hop_is_read_by_its_length(afi, next_hop, expected):
    nlri = bytes([24, 10, 0, 0]) if afi == 1 else bytes([32]) + _V6_GLOBAL[:4]
    payload = struct.pack("!HBB", afi, 1, len(next_hop)) + next_hop + b"\x00" + nlri
    block = wire_attribute(0x80, ATTR_MP_REACH_NLRI, payload)  # and no NEXT_HOP
    body = struct.pack("!HH", 0, len(block)) + block
    _, announced, attributes = decode_update_body(body, True)
    assert announced == (("10.0.0.0/24",) if afi == 1 else ("2001:db8::/32",))
    assert attributes.next_hop == expected


def test_keepalive_and_unknown_kinds():
    keep = build_keepalive_record(1, 65001, "10.0.0.1", 64512, "10.0.0.2")
    other = decode_entry(MrtRecordHeader(1, 42, 7, 3), b"\x00\x01\x02")
    assert keep.kind == "other"
    assert keep.message is None  # only an UPDATE is decoded
    assert other.kind == "other"
    blob = keep.encode() + other.encode()
    assert b"".join(e.encode() for e in read_mrt_stream(blob)) == blob


def test_addpath_surfaced_as_other_with_note():
    header = MrtRecordHeader(5, 16, BGP4MP_MESSAGE_ADDPATH, len(_BGP4MP_BODY))
    blob = header.encode() + _BGP4MP_BODY + REFERENCE_RECORD
    entries = list(read_mrt_stream(blob))
    assert [e.kind for e in entries] == ["addpath", "update"]
    assert [e.note for e in entries] == [None, None]
    assert b"".join(e.encode() for e in entries) == blob


def test_garbled_bgp_body_downgrades_to_other():
    bad_bgp = b"\x00" * 54  # no marker, nonsense length
    body = _BGP4MP_BODY[: len(_BGP4MP_BODY) - len(_BGP_MESSAGE)] + bad_bgp
    header = MrtRecordHeader(5, 16, 1, len(body))
    (entry,) = list(read_mrt_stream(header.encode() + body))
    assert entry.kind == "undecodable"
    assert entry.note
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
                assert entry.kind in RECORD_KINDS
                assert (entry.message is not None) == (entry.kind == "update")
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
    prefixes = ["0.0.0.0/0", "10.0.0.0/8", "10.64.0.0/10", "192.0.2.1/32"]
    assert decode_prefix_strs(encode_prefixes(prefixes), 1) == prefixes


def test_prefix_codec_v6():
    prefixes = ["2001:db8::/32", "::/0", "2001:db8::1/128"]
    assert decode_prefix_strs(encode_prefixes(prefixes), 2) == prefixes


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


_END_OF_RIB = b"\xff" * 16 + (23).to_bytes(2, "big") + b"\x02" + bytes(4)


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
    body = struct.pack("!HHHH", 65001, 64512, 0, afi) + peer + local + _END_OF_RIB
    entry = decode_entry(MrtRecordHeader(0, 16, 1, len(body)), body)
    assert entry.kind == "update"
    assert entry.message.peer_address == str(ipaddress.ip_address(peer))
    assert address_text(local) == str(ipaddress.ip_address(local))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda afi: st.tuples(
            st.just(afi),
            st.lists(
                st.binary(min_size=MAX_BITS[afi] // 8, max_size=MAX_BITS[afi] // 8),
                min_size=1,
                max_size=3,
            ),
            st.lists(st.integers(0, 2), min_size=1, max_size=8),
        )
    )
)
def test_memoized_peer_address_equals_unmemoized(case):
    """The peer address text is read through a memo keyed on its bytes;
    a decode with it equals one that formats every address afresh."""
    afi, peers, order = case
    for pick in order:
        peer = peers[pick % len(peers)]
        body = struct.pack("!HHHH", 65001, 64512, 0, afi) + peer + peer + _END_OF_RIB
        header = MrtRecordHeader(0, 16, 1, len(body))
        with mock.patch.object(codec, "_peer_address", codec._peer_address.__wrapped__):
            want = decode_entry(header, body)
        assert want.message.peer_address == str(ipaddress.ip_address(peer))
        assert decode_entry(header, body) == want


def test_as_path_codec_widths():
    segs = ((AS_SEQUENCE, (65001, 65002)), (AS_SET, (3, 1, 2)))
    assert decode_path(encode_as_path(segs, 2), 2) == (65001, 65002, (1, 2, 3))
    wide = ((AS_SEQUENCE, (4_200_000_000, 65002)),)
    assert decode_path(encode_as_path(wide, 4), 4) == (4_200_000_000, 65002)


def test_as_set_collapses_to_sorted_element():
    payload = encode_as_path(path_segments([65001, (65003, 65002), 65004]), 2)
    assert decode_path(payload, 2) == (65001, (65002, 65003), 65004)
    # AS_SET members in any wire order give one sorted element
    unsorted = ((AS_SET, (65003, 65002)),)
    assert decode_path(encode_as_path(unsorted, 4), 4) == ((65002, 65003),)


def test_merge_as4_path_splices_tail():
    # 2-byte path shows AS_TRANS placeholders; the 4-byte tail wins
    path = (65001, 23456, 23456)
    as4 = (4_200_000_001, 4_200_000_002)
    assert merge_as4_path(path, as4) == (65001, 4_200_000_001, 4_200_000_002)
    assert merge_as4_path((23456, 23456), as4) == as4
    # the cut falls inside the leading sequence
    path = (65001, 65002, 23456, 23456)
    assert merge_as4_path(path, as4[1:]) == (65001, 65002, 23456, 4_200_000_002)
    # an AS_SET in the kept head, or in the AS4_PATH, counts as one element
    path = (65001, (3, 23456), 23456, 23456)
    as4_set = (4_200_000_001, (4_200_000_002, 4_200_000_003))
    assert merge_as4_path(path, as4_set) == (65001, (3, 23456)) + as4_set
    assert merge_as4_path(((1, 2), 23456), as4[:1]) == ((1, 2), 4_200_000_001)


def test_merge_as4_path_longer_as4_ignored():
    path = (65001,)
    assert merge_as4_path(path, (1, 2, 3)) == path
    assert merge_as4_path(path, ((1, 2), 3)) == path


def _as4_path_update(as4: bool):
    # an AS_TRANS-laden AS_PATH plus the AS4_PATH carrying the real tail
    as_path = path_segments([65001, (65010, 23456), 23456, 23456])
    as4_path = path_segments([4_200_000_001, 4_200_000_002])
    entry = build_update_record(
        timestamp=REFERENCE_TS,
        peer_asn=65001,
        peer_address="10.0.0.1",
        local_asn=64512,
        local_address="10.0.0.2",
        attributes=[
            attr_as_path(as_path, 4 if as4 else 2),
            wire_attribute(0xC0, ATTR_AS4_PATH, encode_as_path(as4_path, 4)),
        ],
        announced=["10.0.0.0/24"],
        as4=as4,
    )
    (back,) = read_mrt_stream(entry.encode())
    return back


def test_two_byte_update_merges_as4_path():
    entry = _as4_path_update(as4=False)
    assert entry.header.subtype == 1  # BGP4MP_MESSAGE: 2-byte ASNs
    assert entry.message.attributes.path == (
        65001, (23456, 65010), 4_200_000_001, 4_200_000_002
    )
    # a 4-byte session's AS_PATH is already exact; AS4_PATH is ignored
    entry = _as4_path_update(as4=True)
    assert entry.header.subtype == 4  # BGP4MP_MESSAGE_AS4
    assert entry.message.attributes.path == (65001, (23456, 65010), 23456, 23456)


def test_extended_length_attribute_round_trip():
    payload = bytes(range(256)) * 2  # 512 bytes forces the extended form
    blob = wire_attribute(0xC0, 99, payload)
    assert blob[0] & 0x10  # extended-length flag set on the wire
    (back,) = decode_attribute_block(blob)
    assert back == (0xD0, 99, payload)
    assert wire_attribute(*back) == blob


def test_community_rendering():
    value = (3356 << 16) | 2010
    assert community_str(value) == "3356:2010"
    assert community_value("3356:2010") == value
    assert community_value("65535:65535") == 0xFFFFFFFF


@pytest.mark.parametrize(
    "text",
    ["1:65536", "65536:0", "-1:5", "5:-1", "1", "a:b",
     "1_0:5", " 1:2 ", "+1:2", "\u0661:1"],
)
def test_community_value_rejects_out_of_range_halves(text):
    with pytest.raises(ValueError):
        community_value(text)


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
        (flags | (0x10 if len(payload) > 255 else 0), code, payload)
        for flags, code, payload in specs
    ]
    blob = b"".join(wire_attribute(*a) for a in attrs)
    decoded = list(decode_attribute_block(blob))
    assert decoded == attrs
    assert b"".join(wire_attribute(*a) for a in decoded) == blob


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
# UPDATE decoding against an independent oracle
#
# Messages are assembled here with struct from the RFC 4271, 4760 and 6793
# layouts.  The expected view is what the generator chose for the first
# occurrence of each modeled attribute; later occurrences, valid or not,
# and attributes the codec does not model must leave no trace in it.

_MODELED = (
    ATTR_AS_PATH,
    ATTR_NEXT_HOP,
    ATTR_MED,
    ATTR_COMMUNITIES,
    ATTR_MP_REACH_NLRI,
    ATTR_MP_UNREACH_NLRI,
    ATTR_AS4_PATH,
)


def _draw_prefixes(draw, afi):
    """A prefix field with random host bits, and its canonical texts."""
    addr_len = MAX_BITS[afi] // 8
    blob, texts = b"", []
    for bits in draw(st.lists(st.integers(0, MAX_BITS[afi]), max_size=3)):
        chunk = draw(st.binary(min_size=(bits + 7) // 8, max_size=(bits + 7) // 8))
        blob += bytes([bits]) + chunk
        addr = ipaddress.ip_address(chunk.ljust(addr_len, b"\x00"))
        texts.append(str(ipaddress.ip_network((addr, bits), strict=False)))
    return blob, texts


def _draw_path(draw, width):
    """An AS path payload and its elements, an AS_SET as a sorted tuple."""
    asn = st.integers(0, 2 ** (8 * width) - 1)
    kinds = st.sampled_from((AS_SET, AS_SEQUENCE))
    segments = draw(st.lists(st.tuples(kinds, st.lists(asn, max_size=4)), max_size=4))
    blob, elements = b"", []
    for kind, asns in segments:
        blob += bytes([kind, len(asns)])
        blob += b"".join(a.to_bytes(width, "big") for a in asns)
        if kind == AS_SEQUENCE:
            elements.extend(asns)
        else:
            elements.append(tuple(sorted(asns)))
    return blob, tuple(elements)


def _draw_attribute(draw, code, width):
    """(payload, decoded value) for a well-formed modeled attribute."""
    if code in (ATTR_AS_PATH, ATTR_AS4_PATH):
        return _draw_path(draw, width if code == ATTR_AS_PATH else 4)
    if code == ATTR_NEXT_HOP:
        packed = draw(st.binary(min_size=4, max_size=4))
        return packed, str(ipaddress.ip_address(packed))
    if code == ATTR_MED:
        med = draw(st.integers(0, 2**32 - 1))
        return struct.pack("!I", med), med
    if code == ATTR_COMMUNITIES:
        values = draw(st.lists(st.integers(0, 2**32 - 1), max_size=4))
        return b"".join(struct.pack("!I", v) for v in values), tuple(values)
    afi = draw(st.sampled_from((1, 2)))
    prefixes, texts = _draw_prefixes(draw, afi)
    if code == ATTR_MP_UNREACH_NLRI:
        return struct.pack("!HB", afi, 1) + prefixes, texts
    # MP_REACH: IPv4, IPv6 global, or IPv6 global + link-local next hop
    nh_len = 4 if afi == 1 else draw(st.sampled_from((16, 32)))
    nh = draw(st.binary(min_size=nh_len, max_size=nh_len))
    reserved = draw(st.binary(min_size=1, max_size=1))
    payload = struct.pack("!HBB", afi, 1, nh_len) + nh + reserved + prefixes
    return payload, (texts, str(ipaddress.ip_address(nh[: 4 if afi == 1 else 16])))


@st.composite
def update_bodies(draw):
    """(as4, UPDATE body, expected decoded fields) for one UPDATE."""
    as4 = draw(st.booleans())
    width = 4 if as4 else 2
    modeled = draw(st.lists(st.sampled_from(_MODELED), max_size=7))
    opaque = draw(st.lists(st.integers(0, 255), max_size=3))
    codes = draw(st.permutations(modeled + opaque))
    first = {}
    block = b""
    for code in codes:
        if code in _MODELED and code not in first:
            payload, first[code] = _draw_attribute(draw, code, width)
        elif code in _MODELED and draw(st.booleans()):
            payload, _ = _draw_attribute(draw, code, width)
        else:
            payload = draw(st.binary(max_size=300))
        flags = draw(st.integers(0, 255)) & ~0x10
        if len(payload) > 255 or draw(st.booleans()):
            block += struct.pack("!BBH", flags | 0x10, code, len(payload)) + payload
        else:
            block += struct.pack("!BBB", flags, code, len(payload)) + payload
    withdrawn, withdrawn_texts = _draw_prefixes(draw, 1)
    nlri, nlri_texts = _draw_prefixes(draw, 1)
    body = (
        struct.pack("!H", len(withdrawn)) + withdrawn
        + struct.pack("!H", len(block)) + block + nlri
    )

    path = first.get(ATTR_AS_PATH, ())
    as4_path = first.get(ATTR_AS4_PATH)
    if not as4 and as4_path is not None and len(as4_path) <= len(path):
        path = path[: len(path) - len(as4_path)] + as4_path
    mp_announced, mp_next_hop = first.get(ATTR_MP_REACH_NLRI, ([], None))
    expected = dict(
        withdrawn=tuple(withdrawn_texts + first.get(ATTR_MP_UNREACH_NLRI, [])),
        announced=tuple(nlri_texts + mp_announced),
        path=path,
        communities=first.get(ATTR_COMMUNITIES, ()),
        med=first.get(ATTR_MED),
        next_hop=first.get(ATTR_NEXT_HOP, mp_next_hop),
    )
    return as4, body, expected


@st.composite
def update_records(draw):
    """(record bytes, expected decoded fields) for one BGP4MP UPDATE."""
    as4, body, expected = draw(update_bodies())
    message = b"\xff" * 16 + struct.pack("!HB", 19 + len(body), 2) + body
    record = (
        struct.pack("!II" if as4 else "!HH", 65001, 64512)
        + struct.pack("!HH", 0, 1)
        + bytes([10, 0, 0, 1, 10, 0, 0, 2])
        + message
    )
    blob = struct.pack("!IHHI", REFERENCE_TS, 16, 4 if as4 else 1, len(record)) + record
    return blob, expected


@settings(max_examples=400, deadline=None)
@given(update_records())
def test_update_decode_matches_oracle(case):
    blob, expected = case
    (entry,) = read_mrt_stream(blob)
    assert entry.kind == "update", entry.note
    assert entry.encode() == blob
    msg = entry.message
    assert msg.withdrawn_prefixes == expected["withdrawn"]
    assert msg.announced_prefixes == expected["announced"]
    attrs = msg.attributes
    assert attrs.path == expected["path"]
    assert attrs.communities == expected["communities"]
    assert attrs.med == expected["med"]
    assert attrs.next_hop == expected["next_hop"]


# ---------------------------------------------------------------------------
# the field memos of decode_update_body
#
# decode_update_body keeps the decoded IPv4 prefix fields and attribute
# blocks in two lru_cache memos.  With each memo's __wrapped__ in its
# place, every call decodes from scratch: that is the reference.


def decode_unmemoized(body, as4):
    with mock.patch.object(
        bgp, "_decode_ipv4_prefixes", bgp._decode_ipv4_prefixes.__wrapped__
    ), mock.patch.object(bgp, "_decode_attributes", bgp._decode_attributes.__wrapped__):
        return decode_update_body(body, as4)


def decode_outcome(decode, body, as4):
    """The decoded fields with their types, or the error's type and text."""
    try:
        withdrawn, announced, attributes = decode(body, as4)
    except BgpParseError as exc:
        return type(exc), str(exc)
    return (
        (type(withdrawn), withdrawn),
        (type(announced), announced),
        (type(attributes), attributes),
    )


@settings(max_examples=300, deadline=None)
@given(update_bodies())
def test_memoized_decode_equals_unmemoized(case):
    """Two calls give what a fresh decode gives, under either AS width:
    the attribute memo's key holds as4 as well as the block."""
    as4, body, _ = case
    assert decode_outcome(decode_unmemoized, body, as4)[0][0] is tuple
    for width in (as4, not as4):
        want = decode_outcome(decode_unmemoized, body, width)
        for _ in range(2):
            assert decode_outcome(decode_update_body, body, width) == want


@st.composite
def malformed_bodies(draw):
    """(as4, an UPDATE body cut short or with one byte changed)."""
    as4, body, _ = draw(update_bodies())
    at = draw(st.integers(0, len(body) - 1))
    if draw(st.booleans()):
        return as4, body[:at]
    return as4, body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1 :]


@settings(max_examples=300, deadline=None)
@given(malformed_bodies())
def test_broken_body_decodes_alike_on_every_call(case):
    as4, body = case
    want = decode_outcome(decode_unmemoized, body, as4)
    for _ in range(3):
        assert decode_outcome(decode_update_body, body, as4) == want


@pytest.mark.parametrize(
    "attrs,nlri,memo,message",
    [
        (bytes.fromhex("800403000001"), b"", "_decode_attributes", "MED payload must be 4 bytes"),
        (_ATTRS, bytes.fromhex("190a0000"), "_decode_ipv4_prefixes", "truncated prefix bytes"),
        (_ATTRS + b"\x40\x02", b"", "_decode_attributes", "truncated attribute header"),
    ],
)
def test_a_field_that_fails_raises_on_every_call(attrs, nlri, memo, message):
    """Nothing is stored for a field that fails, so each call misses."""
    body = b"\x00\x00" + struct.pack("!H", len(attrs)) + attrs + nlri
    # the first call stores the fields before the bad one, which may miss too
    with pytest.raises(BgpParseError, match=message):
        decode_update_body(body, False)
    misses = getattr(bgp, memo).cache_info().misses
    for _ in range(3):
        with pytest.raises(BgpParseError, match=message):
            decode_update_body(body, False)
    assert getattr(bgp, memo).cache_info().misses == misses + 3


def test_repeated_fields_share_their_decoded_objects():
    """The classifier's n/n by identity rests on this."""
    first = decode_update_body(_UPDATE_BODY, False)
    second = decode_update_body(bytes(bytearray(_UPDATE_BODY)), False)
    assert first == second
    assert first[1] is second[1]  # the NLRI's prefixes
    assert first[2] is second[2]  # the attributes
