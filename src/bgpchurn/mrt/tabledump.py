"""Read-only TABLE_DUMP_V2 support (RFC 6396 section 4.3).

Only enough of the RIB snapshot format is decoded to recover the peer
table and per-prefix peer/path occupancy, which is what the update
pipeline needs to spot peers that never appear in update files.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..errors import BgpParseError
from .bgp import ATTR_AS_PATH, decode_as_path, decode_attribute_block
from .codec import TYPE_TABLE_DUMP_V2, MrtEntry

SUBTYPE_PEER_INDEX_TABLE = 1
SUBTYPE_RIB_IPV4_UNICAST = 2
SUBTYPE_RIB_IPV6_UNICAST = 4

_RIB_SUBTYPE_AFI = {SUBTYPE_RIB_IPV4_UNICAST: 4, SUBTYPE_RIB_IPV6_UNICAST: 16}


@dataclass(frozen=True)
class RibPeer:
    bgp_id: str
    address: Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
    asn: int


@dataclass(frozen=True)
class RibEntry:
    prefix: Union[ipaddress.IPv4Network, ipaddress.IPv6Network]
    peer_index: int
    originated: int
    as_path: tuple


def decode_peer_index_table(body: bytes) -> tuple[RibPeer, ...]:
    """PEER_INDEX_TABLE: collector id, view name, then peer entries."""
    if len(body) < 6:
        raise BgpParseError("short PEER_INDEX_TABLE")
    (view_len,) = struct.unpack_from("!H", body, 4)
    i = 6 + view_len
    if i + 2 > len(body):
        raise BgpParseError("PEER_INDEX_TABLE truncated before peer count")
    (count,) = struct.unpack_from("!H", body, i)
    i += 2
    peers = []
    for _ in range(count):
        if i + 5 > len(body):
            raise BgpParseError("peer entry truncated")
        peer_type = body[i]
        bgp_id = ".".join(str(b) for b in body[i + 1 : i + 5])
        i += 5
        addr_len = 16 if peer_type & 0x01 else 4
        as_len = 4 if peer_type & 0x02 else 2
        if i + addr_len + as_len > len(body):
            raise BgpParseError("peer entry truncated")
        address = ipaddress.ip_address(body[i : i + addr_len])
        i += addr_len
        asn = int.from_bytes(body[i : i + as_len], "big")
        i += as_len
        peers.append(RibPeer(bgp_id, address, asn))
    return tuple(peers)


def decode_rib_record(body: bytes, subtype: int) -> Iterator[RibEntry]:
    """One RIB_IPV{4,6}_UNICAST record: sequence, prefix, N entries."""
    addr_len = _RIB_SUBTYPE_AFI[subtype]
    max_bits = addr_len * 8
    if len(body) < 5:
        raise BgpParseError("short RIB record")
    bits = body[4]
    if bits > max_bits:
        raise BgpParseError("RIB prefix length out of range")
    nbytes = (bits + 7) // 8
    i = 5 + nbytes
    if i + 2 > len(body):
        raise BgpParseError("RIB record truncated at entry count")
    packed = body[5:i] + b"\x00" * (addr_len - nbytes)
    prefix = ipaddress.ip_network((ipaddress.ip_address(packed), bits), strict=False)
    (count,) = struct.unpack_from("!H", body, i)
    i += 2
    for _ in range(count):
        if i + 8 > len(body):
            raise BgpParseError("RIB entry truncated")
        peer_index, originated, attr_len = struct.unpack_from("!HIH", body, i)
        i += 8
        if i + attr_len > len(body):
            raise BgpParseError("RIB entry attributes truncated")
        attrs = decode_attribute_block(body[i : i + attr_len])
        i += attr_len
        as_path: tuple = ()
        for attr in attrs:
            if attr.type_code == ATTR_AS_PATH:
                # TABLE_DUMP_V2 always encodes 4-byte ASNs
                segments = decode_as_path(attr.payload, 4)
                as_path = tuple(
                    el for seg in segments for el in seg.elements()
                )
                break
        yield RibEntry(prefix, peer_index, originated, as_path)


def read_rib_peers(entries) -> dict[int, RibPeer]:
    """Map peer index -> peer for the stream's PEER_INDEX_TABLE."""
    for entry in entries:
        if (
            entry.header.type == TYPE_TABLE_DUMP_V2
            and entry.header.subtype == SUBTYPE_PEER_INDEX_TABLE
        ):
            return dict(enumerate(decode_peer_index_table(entry.body)))
    return {}


def rib_peer_asns(source) -> set[int]:
    """Collect the set of peer ASNs present in a RIB snapshot file.

    ``source`` is anything read_mrt_stream accepts; records are scanned
    once, so the peer table must precede the RIB records (RFC 6396
    requires this ordering).
    """
    from .codec import read_mrt_stream

    peers: dict[int, RibPeer] = {}
    seen: set[int] = set()
    for entry in read_mrt_stream(source):
        if entry.header.type != TYPE_TABLE_DUMP_V2:
            continue
        if entry.header.subtype == SUBTYPE_PEER_INDEX_TABLE:
            peers = dict(enumerate(decode_peer_index_table(entry.body)))
        elif entry.header.subtype in _RIB_SUBTYPE_AFI:
            for rib in decode_rib_record(entry.body, entry.header.subtype):
                peer = peers.get(rib.peer_index)
                if peer is not None:
                    seen.add(peer.asn)
    return seen
