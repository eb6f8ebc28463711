"""BGP UPDATE wire codec: path attributes, prefixes, message framing.

Covers the RFC 4271 UPDATE layout, RFC 1997 communities, RFC 4760
multiprotocol NLRI and RFC 6793 four-byte AS paths.  Attributes the
toolkit does not model are carried opaquely so parsed messages can be
re-emitted bit for bit.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from ..errors import BgpParseError

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]
IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]

# BGP message types (RFC 4271 4.1)
MSG_OPEN = 1
MSG_UPDATE = 2
MSG_NOTIFICATION = 3
MSG_KEEPALIVE = 4

MARKER = b"\xff" * 16
BGP_HEADER_LEN = 19

# Path attribute type codes
ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_MED = 4
ATTR_COMMUNITIES = 8
ATTR_MP_REACH_NLRI = 14
ATTR_MP_UNREACH_NLRI = 15
ATTR_AS4_PATH = 17

# Attribute flag bits
FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_PARTIAL = 0x20
FLAG_EXT_LEN = 0x10

# AS_PATH segment kinds
AS_SET = 1
AS_SEQUENCE = 2

AFI_IPV4 = 1
AFI_IPV6 = 2

# An AS_SET is folded into one synthetic element (its sorted members) so
# path comparison stays deterministic.
PathElement = Union[int, tuple]


def community_str(value: int) -> str:
    return f"{value >> 16}:{value & 0xFFFF}"


def community_value(text: str) -> int:
    high, _, low = text.partition(":")
    value = (int(high) << 16) | int(low)
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"community out of range: {text}")
    return value


@dataclass(frozen=True)
class PathSegment:
    kind: int  # AS_SET or AS_SEQUENCE
    asns: tuple[int, ...]

    def elements(self) -> tuple[PathElement, ...]:
        if self.kind == AS_SEQUENCE:
            return self.asns
        return (tuple(sorted(self.asns)),)


@dataclass(frozen=True)
class WireAttribute:
    """One path attribute exactly as read from (or destined for) the wire."""

    flags: int
    type_code: int
    payload: bytes

    def encode(self) -> bytes:
        flags = self.flags
        if len(self.payload) > 0xFF:
            flags |= FLAG_EXT_LEN
        if flags & FLAG_EXT_LEN:
            head = struct.pack("!BBH", flags, self.type_code, len(self.payload))
        else:
            head = struct.pack("!BBB", flags, self.type_code, len(self.payload))
        return head + self.payload


MODELED_ATTRS = frozenset(
    {ATTR_AS_PATH, ATTR_AS4_PATH, ATTR_NEXT_HOP, ATTR_MED, ATTR_COMMUNITIES}
)


@dataclass(frozen=True)
class BgpAttributes:
    """Decoded view of an UPDATE's attribute block.

    ``wire`` is authoritative for re-serialization and keeps every
    attribute in received order.  ``segments`` is the effective AS path
    after AS4_PATH merging; ``communities`` keeps wire order even though
    comparisons treat them as a multiset.
    """

    wire: tuple[WireAttribute, ...] = ()
    segments: tuple[PathSegment, ...] = ()
    communities: tuple[int, ...] = ()
    next_hop: Optional[IPAddress] = None
    med: Optional[int] = None

    def path_elements(self) -> tuple[PathElement, ...]:
        out: list[PathElement] = []
        for seg in self.segments:
            out.extend(seg.elements())
        return tuple(out)

    @property
    def other_attributes(self) -> tuple[WireAttribute, ...]:
        return tuple(a for a in self.wire if a.type_code not in MODELED_ATTRS)

    def community_strs(self) -> tuple[str, ...]:
        return tuple(community_str(c) for c in self.communities)


@dataclass(frozen=True)
class RawBgpMessage:
    """A BGP message lifted out of one MRT record.

    Addresses and prefixes are canonical strings, exactly what ``str()``
    gives for the ``ipaddress`` objects: "192.0.2.1", "10.0.0.0/24",
    "2001:db8::/32".
    """

    peer_asn: int
    peer_address: str
    local_asn: int
    local_address: str
    message_kind: str  # update | keepalive | open | notification | other
    withdrawn_prefixes: tuple[str, ...] = ()
    announced_prefixes: tuple[str, ...] = ()
    attributes: Optional[BgpAttributes] = None

    @property
    def is_end_of_rib(self) -> bool:
        return (
            self.message_kind == "update"
            and not self.withdrawn_prefixes
            and not self.announced_prefixes
            and (self.attributes is None or not self.attributes.wire)
        )


# ---------------------------------------------------------------------------
# prefix codec


def _prefix_chunks(buf: bytes, max_bits: int) -> Iterator[tuple[int, bytes]]:
    """Split the (length, truncated address) encoding into (bits, bytes)."""
    i = 0
    n = len(buf)
    while i < n:
        bits = buf[i]
        i += 1
        if bits > max_bits:
            raise BgpParseError(f"prefix length {bits} exceeds AFI maximum")
        end = i + (bits + 7) // 8
        if end > n:
            raise BgpParseError("truncated prefix bytes")
        yield bits, buf[i:end]
        i = end


def decode_prefixes(buf: bytes, afi: int) -> list[IPNetwork]:
    """Decode the (length, truncated address) prefix encoding."""
    if afi == AFI_IPV4:
        max_bits, addr_len = 32, 4
    elif afi == AFI_IPV6:
        max_bits, addr_len = 128, 16
    else:
        raise BgpParseError(f"unsupported AFI {afi}")
    out: list[IPNetwork] = []
    for bits, chunk in _prefix_chunks(buf, max_bits):
        addr = ipaddress.ip_address(chunk + b"\x00" * (addr_len - len(chunk)))
        # strict=False masks stray host bits in non-canonical encodings
        out.append(ipaddress.ip_network((addr, bits), strict=False))
    return out


_V4_PAD = (b"\x00\x00\x00\x00", b"\x00\x00\x00", b"\x00\x00", b"\x00", b"")
_OCTETS = tuple(str(n) for n in range(256))


def _dotted_quad(packed: bytes) -> str:
    a, b, c, d = packed
    return f"{_OCTETS[a]}.{_OCTETS[b]}.{_OCTETS[c]}.{_OCTETS[d]}"


def decode_prefix_strs(buf: bytes, afi: int) -> list[str]:
    """Decode prefixes straight to the text ``str()`` gives decode_prefixes.

    IPv4 is formatted from the wire bytes with stray host bits cleared;
    IPv6 goes through ``ipaddress`` to keep its RFC 5952 form.
    """
    if afi != AFI_IPV4:
        return [str(net) for net in decode_prefixes(buf, afi)]
    out: list[str] = []
    for bits, chunk in _prefix_chunks(buf, 32):
        if bits & 7:
            # only the last byte can hold host bits
            keep = 0xFF00 >> (bits & 7) & 0xFF
            chunk = chunk[:-1] + bytes((chunk[-1] & keep,))
        out.append(f"{_dotted_quad(chunk + _V4_PAD[len(chunk)])}/{bits}")
    return out


def address_str(packed: bytes) -> str:
    """``str(ip_address(packed))`` for a 4- or 16-byte address."""
    if len(packed) == 4:
        return _dotted_quad(packed)
    return str(ipaddress.IPv6Address(packed))


def encode_prefixes(prefixes: Iterable[IPNetwork]) -> bytes:
    parts = []
    for p in prefixes:
        nbytes = (p.prefixlen + 7) // 8
        parts.append(bytes([p.prefixlen]) + p.network_address.packed[:nbytes])
    return b"".join(parts)


# ---------------------------------------------------------------------------
# AS path codec


def decode_as_path(payload: bytes, width: int) -> tuple[PathSegment, ...]:
    segs = []
    i = 0
    n = len(payload)
    code = "!%dH" if width == 2 else "!%dI"
    while i < n:
        if i + 2 > n:
            raise BgpParseError("truncated AS path segment header")
        kind, count = payload[i], payload[i + 1]
        i += 2
        if kind not in (AS_SET, AS_SEQUENCE):
            raise BgpParseError(f"unknown AS path segment kind {kind}")
        need = count * width
        if i + need > n:
            raise BgpParseError("truncated AS path segment body")
        asns = struct.unpack(code % count, payload[i : i + need])
        i += need
        segs.append(PathSegment(kind, asns))
    return tuple(segs)


def encode_as_path(segments: Iterable[PathSegment], width: int) -> bytes:
    code = "!%dH" if width == 2 else "!%dI"
    parts = []
    for seg in segments:
        parts.append(bytes([seg.kind, len(seg.asns)]))
        parts.append(struct.pack(code % len(seg.asns), *seg.asns))
    return b"".join(parts)


def _segment_count(segments: Sequence[PathSegment]) -> int:
    # RFC 4271 path length: an AS_SET counts as one
    return sum(1 if s.kind == AS_SET else len(s.asns) for s in segments)


def merge_as4_path(
    segments: Sequence[PathSegment], as4_segments: Sequence[PathSegment]
) -> tuple[PathSegment, ...]:
    """RFC 6793 merge: keep the AS_PATH head, splice in the AS4_PATH tail."""
    n, n4 = _segment_count(segments), _segment_count(as4_segments)
    if n < n4:
        return tuple(segments)
    take = n - n4
    head: list[PathSegment] = []
    for seg in segments:
        if take <= 0:
            break
        if seg.kind == AS_SET:
            head.append(seg)
            take -= 1
        elif len(seg.asns) <= take:
            head.append(seg)
            take -= len(seg.asns)
        else:
            head.append(PathSegment(AS_SEQUENCE, seg.asns[:take]))
            take = 0
    return tuple(head) + tuple(as4_segments)


# ---------------------------------------------------------------------------
# attribute block codec


def decode_attribute_block(buf: bytes) -> list[WireAttribute]:
    attrs = []
    i = 0
    n = len(buf)
    while i < n:
        if i + 3 > n:
            raise BgpParseError("truncated attribute header")
        flags, type_code = buf[i], buf[i + 1]
        i += 2
        if flags & FLAG_EXT_LEN:
            if i + 2 > n:
                raise BgpParseError("truncated extended attribute length")
            (length,) = struct.unpack_from("!H", buf, i)
            i += 2
        else:
            length = buf[i]
            i += 1
        if i + length > n:
            raise BgpParseError("attribute payload exceeds block")
        attrs.append(WireAttribute(flags, type_code, buf[i : i + length]))
        i += length
    return attrs


def encode_attribute_block(attrs: Iterable[WireAttribute]) -> bytes:
    return b"".join(a.encode() for a in attrs)


def _decode_mp_reach(payload: bytes) -> tuple[list[str], Optional[IPAddress]]:
    if len(payload) < 5:
        raise BgpParseError("short MP_REACH_NLRI")
    afi, _safi, nh_len = struct.unpack_from("!HBB", payload)
    i = 4
    if i + nh_len + 1 > len(payload):
        raise BgpParseError("truncated MP_REACH next hop")
    nh_bytes = payload[i : i + nh_len]
    i += nh_len + 1  # skip reserved byte
    next_hop: Optional[IPAddress] = None
    if afi == AFI_IPV4 and nh_len >= 4:
        next_hop = ipaddress.ip_address(nh_bytes[:4])
    elif afi == AFI_IPV6 and nh_len >= 16:
        # a 32-byte next hop carries global + link-local; keep the global one
        next_hop = ipaddress.ip_address(nh_bytes[:16])
    return decode_prefix_strs(payload[i:], afi), next_hop


def _decode_mp_unreach(payload: bytes) -> list[str]:
    if len(payload) < 3:
        raise BgpParseError("short MP_UNREACH_NLRI")
    (afi,) = struct.unpack_from("!H", payload)
    return decode_prefix_strs(payload[3:], afi)


@dataclass
class DecodedUpdate:
    withdrawn: tuple[str, ...]
    announced: tuple[str, ...]
    attributes: BgpAttributes


def decode_update_body(body: bytes, as4: bool) -> DecodedUpdate:
    """Decode an UPDATE payload (everything after the 19-byte header).

    +-------------------------------+
    | Withdrawn Routes Length (2)   |
    | Withdrawn Routes (variable)   |
    | Total Path Attribute Len (2)  |
    | Path Attributes (variable)    |
    | NLRI (variable)               |
    +-------------------------------+
    """
    if len(body) < 4:
        raise BgpParseError("short UPDATE body")
    (wlen,) = struct.unpack_from("!H", body)
    if 2 + wlen + 2 > len(body):
        raise BgpParseError("withdrawn routes overflow UPDATE body")
    withdrawn = decode_prefix_strs(body[2 : 2 + wlen], AFI_IPV4)
    (alen,) = struct.unpack_from("!H", body, 2 + wlen)
    attrs_end = 4 + wlen + alen
    if attrs_end > len(body):
        raise BgpParseError("attributes overflow UPDATE body")
    wire = decode_attribute_block(body[4 + wlen : attrs_end])
    announced = decode_prefix_strs(body[attrs_end:], AFI_IPV4)

    segments: tuple[PathSegment, ...] = ()
    as4_segments: Optional[tuple[PathSegment, ...]] = None
    communities: tuple[int, ...] = ()
    next_hop: Optional[IPAddress] = None
    med: Optional[int] = None
    mp_next_hop: Optional[IPAddress] = None
    seen: set[int] = set()
    for attr in wire:
        if attr.type_code in seen:
            continue  # first occurrence wins for the modeled view
        seen.add(attr.type_code)
        if attr.type_code == ATTR_AS_PATH:
            segments = decode_as_path(attr.payload, 4 if as4 else 2)
        elif attr.type_code == ATTR_AS4_PATH:
            as4_segments = decode_as_path(attr.payload, 4)
        elif attr.type_code == ATTR_NEXT_HOP:
            if len(attr.payload) != 4:
                raise BgpParseError("NEXT_HOP payload must be 4 bytes")
            next_hop = ipaddress.ip_address(attr.payload)
        elif attr.type_code == ATTR_MED:
            if len(attr.payload) != 4:
                raise BgpParseError("MED payload must be 4 bytes")
            (med,) = struct.unpack("!I", attr.payload)
        elif attr.type_code == ATTR_COMMUNITIES:
            if len(attr.payload) % 4:
                raise BgpParseError("COMMUNITIES payload not a multiple of 4")
            communities = struct.unpack(f"!{len(attr.payload) // 4}I", attr.payload)
        elif attr.type_code == ATTR_MP_REACH_NLRI:
            mp_announced, mp_next_hop = _decode_mp_reach(attr.payload)
            announced.extend(mp_announced)
        elif attr.type_code == ATTR_MP_UNREACH_NLRI:
            withdrawn.extend(_decode_mp_unreach(attr.payload))

    if as4_segments is not None and not as4:
        segments = merge_as4_path(segments, as4_segments)
    attributes = BgpAttributes(
        wire=tuple(wire),
        segments=segments,
        communities=communities,
        next_hop=next_hop if next_hop is not None else mp_next_hop,
        med=med,
    )
    return DecodedUpdate(tuple(withdrawn), tuple(announced), attributes)


# ---------------------------------------------------------------------------
# message-level helpers

_KIND_BY_TYPE = {
    MSG_OPEN: "open",
    MSG_UPDATE: "update",
    MSG_NOTIFICATION: "notification",
    MSG_KEEPALIVE: "keepalive",
}


def split_bgp_message(buf: bytes) -> tuple[str, bytes]:
    """Return (kind, payload) for one wire BGP message."""
    if len(buf) < BGP_HEADER_LEN:
        raise BgpParseError("BGP message shorter than header")
    (length,) = struct.unpack_from("!H", buf, 16)
    msg_type = buf[18]
    if length < BGP_HEADER_LEN or length > len(buf):
        raise BgpParseError("BGP message length field inconsistent")
    kind = _KIND_BY_TYPE.get(msg_type, "other")
    return kind, buf[BGP_HEADER_LEN:length]


def build_bgp_message(msg_type: int, payload: bytes) -> bytes:
    return MARKER + struct.pack("!HB", BGP_HEADER_LEN + len(payload), msg_type) + payload


def build_update_message(
    withdrawn: Iterable[IPNetwork] = (),
    attributes: Iterable[WireAttribute] = (),
    announced: Iterable[IPNetwork] = (),
) -> bytes:
    wbytes = encode_prefixes(withdrawn)
    abytes = encode_attribute_block(attributes)
    nbytes = encode_prefixes(announced)
    payload = (
        struct.pack("!H", len(wbytes))
        + wbytes
        + struct.pack("!H", len(abytes))
        + abytes
        + nbytes
    )
    return build_bgp_message(MSG_UPDATE, payload)


# attribute constructors used when synthesizing messages


def attr_origin(value: int = 0) -> WireAttribute:
    return WireAttribute(FLAG_TRANSITIVE, ATTR_ORIGIN, bytes([value]))


def attr_as_path(segments: Iterable[PathSegment], width: int = 2) -> WireAttribute:
    return WireAttribute(FLAG_TRANSITIVE, ATTR_AS_PATH, encode_as_path(segments, width))


def attr_next_hop(address) -> WireAttribute:
    packed = ipaddress.ip_address(address).packed
    return WireAttribute(FLAG_TRANSITIVE, ATTR_NEXT_HOP, packed)


def attr_med(value: int) -> WireAttribute:
    return WireAttribute(FLAG_OPTIONAL, ATTR_MED, struct.pack("!I", value))


def attr_communities(values: Iterable[int]) -> WireAttribute:
    vals = tuple(values)
    return WireAttribute(
        FLAG_OPTIONAL | FLAG_TRANSITIVE,
        ATTR_COMMUNITIES,
        struct.pack(f"!{len(vals)}I", *vals),
    )


def attr_mp_reach(prefixes: Iterable[IPNetwork], next_hop) -> WireAttribute:
    nh = ipaddress.ip_address(next_hop)
    afi = AFI_IPV4 if nh.version == 4 else AFI_IPV6
    payload = (
        struct.pack("!HBB", afi, 1, len(nh.packed))
        + nh.packed
        + b"\x00"
        + encode_prefixes(prefixes)
    )
    return WireAttribute(FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, payload)


def attr_mp_unreach(prefixes: Iterable[IPNetwork], afi: int = AFI_IPV6) -> WireAttribute:
    payload = struct.pack("!HB", afi, 1) + encode_prefixes(prefixes)
    return WireAttribute(FLAG_OPTIONAL, ATTR_MP_UNREACH_NLRI, payload)


def path_segments(path: Iterable) -> tuple[PathSegment, ...]:
    """Build segments from a mixed sequence of ASNs and AS_SET tuples.

    Consecutive plain ints group into one AS_SEQUENCE; a tuple/list/set
    becomes an AS_SET segment.
    """
    segs: list[PathSegment] = []
    run: list[int] = []
    for item in path:
        if isinstance(item, int):
            run.append(item)
            continue
        if run:
            segs.append(PathSegment(AS_SEQUENCE, tuple(run)))
            run = []
        segs.append(PathSegment(AS_SET, tuple(sorted(item))))
    if run:
        segs.append(PathSegment(AS_SEQUENCE, tuple(run)))
    return tuple(segs)
