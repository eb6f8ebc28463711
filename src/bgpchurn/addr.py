"""Address and prefix text, read, printed and packed in one place.

The text is what Python 3.11's ``ipaddress`` prints: dotted quads, and
IPv6 as RFC 5952 lowercase hex groups with the first longest run of two
or more zero groups as "::" and no dotted IPv4 tail.  Canonical text
(dotted quads without leading zeros, hex groups with at most one "::",
decimal lengths) is read straight to ints, and means the same address to
``ipaddress``; any other text goes through ``ipaddress``, which accepts
or refuses it, and its ValueError propagates.
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Optional

_OCTET_TEXT = tuple(map(str, range(256)))
_OCTETS = dict(zip(_OCTET_TEXT, range(256)))
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
# host-bit mask by prefix length text; only canonical decimal lengths are keys
_V4_HOST_MASKS = {str(n): (1 << (32 - n)) - 1 for n in range(33)}
_V6_HOST_MASKS = {str(n): (1 << (128 - n)) - 1 for n in range(129)}
_GROUPS = struct.Struct("!8H").unpack
# ":0:0:...:0:" for 8 down to 2 zero groups, the longest tried first
_ZERO_RUNS = tuple(":" + "0:" * n for n in range(8, 1, -1))


def ipv4_text(packed: bytes) -> str:
    a, b, c, d = packed
    return f"{_OCTET_TEXT[a]}.{_OCTET_TEXT[b]}.{_OCTET_TEXT[c]}.{_OCTET_TEXT[d]}"


def ipv6_text(packed: bytes) -> str:
    text = ":%x:%x:%x:%x:%x:%x:%x:%x:" % _GROUPS(packed)
    for run in _ZERO_RUNS:
        at = text.find(run)  # the first run of this length; none is longer
        if at >= 0:
            return f"{text[1:at]}::{text[at + len(run):-1]}"
    return text[1:-1]


def address_text(packed: bytes) -> str:
    """The text of a 4- or 16-byte address."""
    return ipv4_text(packed) if len(packed) == 4 else ipv6_text(packed)


def _v4_int(text: str) -> Optional[int]:
    """The address of four decimal octets without leading zeros, else None."""
    try:
        a, b, c, d = text.split(".")
        return _OCTETS[a] << 24 | _OCTETS[b] << 16 | _OCTETS[c] << 8 | _OCTETS[d]
    except (KeyError, ValueError):
        return None


def _hex_groups(groups: list[str], value: int) -> Optional[int]:
    """``value`` with each 1-4 digit hex group shifted in, else None."""
    for group in groups:
        if not 0 < len(group) <= 4 or not _HEX_DIGITS.issuperset(group):
            return None
        value = value << 16 | int(group, 16)
    return value


def _v6_int(text: str) -> Optional[int]:
    """The address of 1-4 digit hex groups with at most one "::", else None
    (an embedded IPv4 tail or a %scope suffix is left to ``ipaddress``)."""
    head, gap, tail = text.partition("::")
    left = head.split(":") if head else []
    right = tail.split(":") if tail else []
    missing = 8 - len(left) - len(right)
    # "::" stands for at least one zero group; without it there are eight
    if missing < 1 if gap else missing != 0:
        return None
    value = _hex_groups(left, 0)
    return None if value is None else _hex_groups(right, value << 16 * missing)


def ipv4_int(text: str) -> int:
    """``int(IPv4Address(text))``."""
    value = _v4_int(text)
    return int(ipaddress.IPv4Address(text)) if value is None else value


def _span(prefix: str, v6: bool) -> Optional[tuple[int, int]]:
    """(first address, host mask) of canonical network text, else None."""
    addr, _, length = prefix.partition("/")
    host = (_V6_HOST_MASKS if v6 else _V4_HOST_MASKS).get(length)
    first = _v6_int(addr) if v6 else _v4_int(addr)
    if host is None or first is None or first & host:
        return None
    return first, host


def network_span(prefix: str, v6: bool) -> tuple[int, int]:
    """The first address and host mask of IPv4 or IPv6 network text."""
    span = _span(prefix, v6)
    if span is None:
        net = (ipaddress.IPv6Network if v6 else ipaddress.IPv4Network)(prefix)
        span = int(net.network_address), int(net.hostmask)
    return span


def address_bytes(text: str) -> bytes:
    """The 4 or 16 wire bytes of address text; ``ip_address(text).packed``."""
    value = _v6_int(text) if ":" in text else _v4_int(text)
    if value is None:
        return ipaddress.ip_address(text).packed
    return value.to_bytes(16 if ":" in text else 4, "big")


def canonical_address(text: str) -> str:
    """``str(ip_address(text))``."""
    v6 = ":" in text
    value = _v6_int(text) if v6 else _v4_int(text)
    if value is None:
        return str(ipaddress.ip_address(text))
    return address_text(value.to_bytes(16 if v6 else 4, "big"))


def canonical_network(text: str) -> str:
    """``str(ip_network(text))``; host bits set raise ValueError."""
    v6 = ":" in text
    span = _span(text, v6)
    if span is None:
        return str(ipaddress.ip_network(text))
    if not v6:
        return text  # canonical IPv4 text is its own canonical form
    return f"{ipv6_text(span[0].to_bytes(16, 'big'))}/{text.partition('/')[2]}"
