"""BGP UPDATE wire codec: path attributes, prefixes, message framing.

Covers the RFC 4271 UPDATE layout, RFC 1997 communities, RFC 4760
multiprotocol NLRI and RFC 6793 four-byte AS paths.  An UPDATE is
decoded once into the fields the pipeline reads; attributes the toolkit
does not model are skipped, not kept.  Re-emission is bit for bit
because the bytes written back are the record's own (``MrtEntry.body``),
never a re-encoding of the decoded view.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from ..addr import address_bytes, ipv4_text, ipv6_text, network_span
from ..errors import BgpParseError

# BGP message types (RFC 4271 4.1)
MSG_UPDATE = 2
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
FLAG_EXT_LEN = 0x10

# AS_PATH segment kinds
AS_SET = 1
AS_SEQUENCE = 2

AFI_IPV4 = 1
AFI_IPV6 = 2

# An AS_SET is folded into one synthetic element (its sorted members) so
# path comparison stays deterministic.
PathElement = Union[int, tuple]
# One wire AS path segment: AS_SET or AS_SEQUENCE, and its ASNs.
Segment = tuple[int, tuple]


def community_str(value: int) -> str:
    return f"{value >> 16}:{value & 0xFFFF}"


def community_value(text: str) -> int:
    """The 32-bit value of "high:low"; each half is ASCII digits, 0-65535."""
    high, _, low = text.partition(":")
    if not (text.isascii() and high.isdigit() and low.isdigit()):
        raise ValueError(f"community must be digits:digits: {text!r}")
    high_value, low_value = int(high), int(low)
    if high_value > 0xFFFF or low_value > 0xFFFF:
        raise ValueError(f"community out of range: {text}")
    return high_value << 16 | low_value


def wire_attribute(flags: int, type_code: int, payload: bytes) -> bytes:
    """One path attribute's wire bytes, for building messages; a payload
    over 255 bytes sets the extended-length flag."""
    if len(payload) > 0xFF:
        flags |= FLAG_EXT_LEN
    head = "!BBH" if flags & FLAG_EXT_LEN else "!BBB"
    return struct.pack(head, flags, type_code, len(payload)) + payload


class BgpAttributes(NamedTuple):
    """The attributes of an UPDATE that the pipeline reads.

    Only these fields are decoded; every other attribute is skipped, and
    ``MrtEntry.body`` is the copy of the wire bytes that gets written
    back.  ``path`` is the effective AS path after AS4_PATH merging, as
    elements; ``communities`` keeps wire order even though comparisons
    treat them as a multiset; ``next_hop`` is the canonical address
    text of ``bgpchurn.addr``, from NEXT_HOP or else from MP_REACH_NLRI
    by its length: 4 bytes IPv4, 16 or 32 the global IPv6 address, any
    other length None.
    """

    path: tuple[PathElement, ...] = ()
    communities: tuple[int, ...] = ()
    next_hop: Optional[str] = None
    med: Optional[int] = None


class RawBgpMessage(NamedTuple):
    """A BGP UPDATE lifted out of one MRT record: its peer, prefixes, attributes.

    Addresses and prefixes are canonical text (``bgpchurn.addr``):
    "192.0.2.1", "10.0.0.0/24", "2001:db8::/32".
    """

    peer_asn: int
    peer_address: str
    withdrawn_prefixes: tuple[str, ...]
    announced_prefixes: tuple[str, ...]
    attributes: BgpAttributes


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


# by AFI: the maximum length, the zero padding by bytes given, the formatter
_AFIS = {AFI_IPV4: (32, tuple(bytes(4 - n) for n in range(5)), ipv4_text),
         AFI_IPV6: (128, tuple(bytes(16 - n) for n in range(17)), ipv6_text)}


def decode_prefix_strs(buf: bytes, afi: int) -> list[str]:
    """Decode prefixes straight to their canonical text ("10.0.0.0/24",
    "2001:db8::/32"), with stray host bits cleared."""
    try:
        max_bits, pad, text = _AFIS[afi]
    except KeyError:
        raise BgpParseError(f"unsupported AFI {afi}") from None
    out: list[str] = []
    for bits, chunk in _prefix_chunks(buf, max_bits):
        if bits & 7:
            # only the last byte can hold host bits
            keep = 0xFF00 >> (bits & 7) & 0xFF
            chunk = chunk[:-1] + bytes((chunk[-1] & keep,))
        out.append(f"{text(chunk + pad[len(chunk)])}/{bits}")
    return out


def encode_prefixes(prefixes: Iterable[str]) -> bytes:
    """The (length, truncated address) encoding of IPv4 or IPv6 network text."""
    parts = []
    for prefix in prefixes:
        size = 16 if ":" in prefix else 4
        first, host = network_span(prefix, size == 16)
        bits = size * 8 - host.bit_length()
        parts.append(bytes([bits]) + first.to_bytes(size, "big")[: (bits + 7) // 8])
    return b"".join(parts)


# ---------------------------------------------------------------------------
# AS path codec


def _as_path_segments(payload: bytes, width: int) -> Iterator[Segment]:
    """Yield (kind, asns) per segment of an AS_PATH/AS4_PATH payload."""
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
        yield kind, struct.unpack(code % count, payload[i : i + need])
        i += need


def decode_path(payload: bytes, width: int) -> tuple[PathElement, ...]:
    """Decode an AS path payload straight to its elements."""
    n = len(payload)
    if n > 1 and payload[0] == AS_SEQUENCE and n == 2 + payload[1] * width:
        # the common path, one AS_SEQUENCE, is its ASNs as they stand
        code = "!%dH" if width == 2 else "!%dI"
        return struct.unpack_from(code % payload[1], payload, 2)
    out: list[PathElement] = []
    for kind, asns in _as_path_segments(payload, width):
        if kind == AS_SEQUENCE:
            out.extend(asns)
        else:
            out.append(tuple(sorted(asns)))
    return tuple(out)


def encode_as_path(segments: Iterable[Segment], width: int) -> bytes:
    code = "!%dH" if width == 2 else "!%dI"
    parts = []
    for kind, asns in segments:
        parts.append(bytes([kind, len(asns)]))
        parts.append(struct.pack(code % len(asns), *asns))
    return b"".join(parts)


def merge_as4_path(
    path: tuple[PathElement, ...], as4_path: tuple[PathElement, ...]
) -> tuple[PathElement, ...]:
    """RFC 6793 merge: keep the AS_PATH head, splice in the AS4_PATH tail.

    An AS_SET is one element, which is how RFC 4271 counts path length.
    """
    take = len(path) - len(as4_path)
    if take < 0:
        return path
    return path[:take] + as4_path


# ---------------------------------------------------------------------------
# attribute block codec


def decode_attribute_block(buf: bytes) -> Iterator[tuple[int, int, bytes]]:
    """Yield (flags, type code, payload) per attribute, in wire order."""
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
        yield flags, type_code, buf[i : i + length]
        i += length


def _decode_mp_reach(payload: bytes) -> tuple[list[str], Optional[str]]:
    if len(payload) < 5:
        raise BgpParseError("short MP_REACH_NLRI")
    afi, _safi, nh_len = struct.unpack_from("!HBB", payload)
    i = 4
    if i + nh_len + 1 > len(payload):
        raise BgpParseError("truncated MP_REACH next hop")
    nh_bytes = payload[i : i + nh_len]
    i += nh_len + 1  # skip reserved byte
    # the next hop's form is its length, whatever the AFI (RFC 8950): a
    # 32-byte next hop carries global + link-local; keep the global one
    next_hop: Optional[str] = None
    if nh_len == 4:
        next_hop = ipv4_text(nh_bytes)
    elif nh_len in (16, 32):
        next_hop = ipv6_text(nh_bytes[:16])
    return decode_prefix_strs(payload[i:], afi), next_hop


def _decode_mp_unreach(payload: bytes) -> list[str]:
    if len(payload) < 3:
        raise BgpParseError("short MP_UNREACH_NLRI")
    (afi,) = struct.unpack_from("!H", payload)
    return decode_prefix_strs(payload[3:], afi)


# A repeated UPDATE repeats its fields byte for byte, so decode keeps
# each field's decoded view in a bounded memo keyed on its wire bytes.
# The views are immutable, so every repeat shares one object; a field
# that fails to decode raises anew each time, as nothing is cached for it.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def _decode_ipv4_prefixes(buf: bytes) -> tuple[str, ...]:
    """The withdrawn-routes or NLRI field of an UPDATE, as prefix texts."""
    return tuple(decode_prefix_strs(buf, AFI_IPV4))


@lru_cache(maxsize=_MEMO_SIZE)
def _decode_attributes(
    block: bytes, as4: bool
) -> tuple[BgpAttributes, tuple[str, ...], tuple[str, ...]]:
    """(attributes, MP withdrawn, MP announced) of a path attribute block.

    The first occurrence of each attribute type code is the one read.
    """
    path: tuple[PathElement, ...] = ()
    as4_path: Optional[tuple[PathElement, ...]] = None
    communities: tuple[int, ...] = ()
    next_hop: Optional[str] = None
    med: Optional[int] = None
    mp_next_hop: Optional[str] = None
    mp_withdrawn: list[str] = []
    mp_announced: list[str] = []
    seen: set[int] = set()
    for _flags, type_code, payload in decode_attribute_block(block):
        if type_code in seen:
            continue
        seen.add(type_code)
        if type_code == ATTR_AS_PATH:
            path = decode_path(payload, 4 if as4 else 2)
        elif type_code == ATTR_AS4_PATH:
            as4_path = decode_path(payload, 4)
        elif type_code == ATTR_NEXT_HOP:
            if len(payload) != 4:
                raise BgpParseError("NEXT_HOP payload must be 4 bytes")
            next_hop = ipv4_text(payload)
        elif type_code == ATTR_MED:
            if len(payload) != 4:
                raise BgpParseError("MED payload must be 4 bytes")
            (med,) = struct.unpack("!I", payload)
        elif type_code == ATTR_COMMUNITIES:
            if len(payload) % 4:
                raise BgpParseError("COMMUNITIES payload not a multiple of 4")
            communities = struct.unpack(f"!{len(payload) // 4}I", payload)
        elif type_code == ATTR_MP_REACH_NLRI:
            mp_announced, mp_next_hop = _decode_mp_reach(payload)
        elif type_code == ATTR_MP_UNREACH_NLRI:
            mp_withdrawn = _decode_mp_unreach(payload)
    if as4_path is not None and not as4:
        path = merge_as4_path(path, as4_path)
    if next_hop is None:
        next_hop = mp_next_hop
    attributes = BgpAttributes(path, communities, next_hop, med)
    return attributes, tuple(mp_withdrawn), tuple(mp_announced)


def decode_update_body(
    body: bytes, as4: bool
) -> tuple[tuple[str, ...], tuple[str, ...], BgpAttributes]:
    """Decode an UPDATE payload (everything after the 19-byte header).

    Returns (withdrawn, announced, attributes): the IPv4 prefixes of each
    kind, then those of MP_UNREACH_NLRI or MP_REACH_NLRI.  The fields are
    decoded in wire order, so a malformed body fails on its first bad field.

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
    withdrawn = _decode_ipv4_prefixes(body[2 : 2 + wlen])
    (alen,) = struct.unpack_from("!H", body, 2 + wlen)
    attrs_end = 4 + wlen + alen
    if attrs_end > len(body):
        raise BgpParseError("attributes overflow UPDATE body")
    attributes, mp_withdrawn, mp_announced = _decode_attributes(
        body[4 + wlen : attrs_end], as4
    )
    announced = _decode_ipv4_prefixes(body[attrs_end:])
    if mp_withdrawn:
        withdrawn += mp_withdrawn
    if mp_announced:
        announced += mp_announced
    return withdrawn, announced, attributes


# ---------------------------------------------------------------------------
# message-level helpers


def split_bgp_message(buf: bytes) -> tuple[int, bytes]:
    """Return (message type, payload) for one wire BGP message."""
    if len(buf) < BGP_HEADER_LEN:
        raise BgpParseError("BGP message shorter than header")
    (length,) = struct.unpack_from("!H", buf, 16)
    if length < BGP_HEADER_LEN or length > len(buf):
        raise BgpParseError("BGP message length field inconsistent")
    return buf[18], buf[BGP_HEADER_LEN:length]


def build_bgp_message(msg_type: int, payload: bytes) -> bytes:
    return MARKER + struct.pack("!HB", BGP_HEADER_LEN + len(payload), msg_type) + payload


def build_update_message(
    withdrawn: Iterable[str] = (),
    attributes: Iterable[bytes] = (),
    announced: Iterable[str] = (),
) -> bytes:
    """An UPDATE of network texts and path attributes' wire bytes."""
    wbytes = encode_prefixes(withdrawn)
    abytes = b"".join(attributes)
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


def attr_origin(value: int = 0) -> bytes:
    return wire_attribute(FLAG_TRANSITIVE, ATTR_ORIGIN, bytes([value]))


def attr_as_path(segments: Iterable[Segment], width: int = 2) -> bytes:
    return wire_attribute(FLAG_TRANSITIVE, ATTR_AS_PATH, encode_as_path(segments, width))


def attr_next_hop(address: str) -> bytes:
    return wire_attribute(FLAG_TRANSITIVE, ATTR_NEXT_HOP, address_bytes(address))


def attr_med(value: int) -> bytes:
    return wire_attribute(FLAG_OPTIONAL, ATTR_MED, struct.pack("!I", value))


def attr_communities(values: Iterable[int]) -> bytes:
    vals = tuple(values)
    return wire_attribute(
        FLAG_OPTIONAL | FLAG_TRANSITIVE,
        ATTR_COMMUNITIES,
        struct.pack(f"!{len(vals)}I", *vals),
    )


def path_segments(path: Iterable) -> tuple[Segment, ...]:
    """Build segments from a mixed sequence of ASNs and AS_SET tuples.

    Consecutive plain ints group into one AS_SEQUENCE; a tuple/list/set
    becomes an AS_SET segment.
    """
    segs: list[Segment] = []
    run: list[int] = []
    for item in path:
        if isinstance(item, int):
            run.append(item)
            continue
        if run:
            segs.append((AS_SEQUENCE, tuple(run)))
            run = []
        segs.append((AS_SET, tuple(sorted(item))))
    if run:
        segs.append((AS_SEQUENCE, tuple(run)))
    return tuple(segs)
