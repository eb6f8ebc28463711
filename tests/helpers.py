"""Shared fixtures: synthetic record generators and reference oracles.

The brute-force classifier here re-derives every label from scratch by
storing full per-stream histories; the streaming implementation must
agree with it on every record.
"""

from __future__ import annotations

import builtins
import ipaddress
import random
import re
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from bgpchurn.classify import AnnouncementType, collapse_path
from bgpchurn.model import ANNOUNCEMENT, WITHDRAWAL, SessionKey, UpdateRecord
from bgpchurn.errors import BgpParseError
from bgpchurn.mrt.bgp import (
    AFI_IPV4,
    AFI_IPV6,
    ATTR_MP_REACH_NLRI,
    ATTR_MP_UNREACH_NLRI,
    FLAG_OPTIONAL,
    MSG_KEEPALIVE,
    BgpAttributes,
    attr_as_path,
    attr_communities,
    attr_next_hop,
    attr_origin,
    build_bgp_message,
    community_value,
    path_segments,
    wire_attribute,
)
from bgpchurn.mrt.build import build_bgp4mp_record, build_update_record
from bgpchurn.mrt.codec import write_mrt_stream

# ---------------------------------------------------------------------------
# record construction


def make_session(peer_asn: int = 65001, collector: str = "test") -> SessionKey:
    return SessionKey(collector, peer_asn, f"10.0.0.{peer_asn % 250 + 1}")


def make_announcement(
    arrival_us: int,
    prefix: str = "10.0.0.0/24",
    path: Iterable = (65001, 65002),
    communities: Iterable[int] = (),
    session: Optional[SessionKey] = None,
    med: Optional[int] = None,
    next_hop: str = "10.0.0.1",
) -> UpdateRecord:
    return UpdateRecord(
        arrival_us=arrival_us,
        session=session or make_session(),
        prefix=prefix,
        attrs=BgpAttributes(
            path=tuple(el if isinstance(el, int) else tuple(sorted(el)) for el in path),
            communities=tuple(communities),
            next_hop=next_hop,
            med=med,
        ),
    )


def make_withdrawal(
    arrival_us: int,
    prefix: str = "10.0.0.0/24",
    session: Optional[SessionKey] = None,
) -> UpdateRecord:
    return UpdateRecord(
        arrival_us=arrival_us,
        session=session or make_session(),
        prefix=prefix,
        attrs=None,
    )


# ---------------------------------------------------------------------------
# brute-force label oracle


def oracle_labels(records: Iterable[UpdateRecord]) -> list[AnnouncementType]:
    """Re-derive labels by direct pairwise comparison of full histories."""
    history: dict[tuple, list[UpdateRecord]] = {}
    labels = []
    for rec in records:
        key = (rec.session, rec.prefix)
        if rec.attrs is None:
            history.setdefault(key, []).append(rec)
            continue
        previous = [
            r for r in history.get(key, []) if r.attrs is not None
        ]
        history.setdefault(key, []).append(rec)
        if not previous:
            labels.append(AnnouncementType.INITIAL)
            continue
        prev = previous[-1]
        prev_path, cur_path = prev.attrs.path, rec.attrs.path
        if prev_path == cur_path:
            first = "n"
        elif collapse_path(prev_path) == collapse_path(cur_path):
            first = "x"
        else:
            first = "p"
        second = (
            "n"
            if Counter(prev.attrs.communities) == Counter(rec.attrs.communities)
            else "c"
        )
        labels.append(AnnouncementType(first + second))
    return labels


# ---------------------------------------------------------------------------
# reference JSONL row reader
#
# The reader model.record_from_dict replaced: one helper per field, and
# each check made directly where the fast reader memoizes it.  It
# checks the fields in the same order, so a bad row fails on the same
# field with the same error.

_TYPE_NAMES = {
    int: "an int", str: "a string", bool: "a bool", list: "a list", dict: "an object"
}
_UINT32_MAX = 2**32 - 1


def _require(value, kind: type, name: str):
    """``value`` when its type is exactly ``kind`` (so True is no int)."""
    if type(value) is not kind:
        raise ValueError(
            f"{name} must be {_TYPE_NAMES[kind]}, not {type(value).__name__}"
        )
    return value


def _uint32(value: int, name: str) -> int:
    if not 0 <= value <= _UINT32_MAX:
        raise ValueError(f"{name} must be from 0 to {_UINT32_MAX}, not {value}")
    return value


def _at_least_0(value: int, name: str) -> int:
    if value < 0:
        raise ValueError(f"{name} must be at least 0, not {value}")
    return value


def _address(text: str, name: str) -> str:
    try:
        return str(ipaddress.ip_address(text))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _prefix_from_json(value) -> str:
    text = _require(value, str, "prefix")
    try:
        return str(ipaddress.ip_network(text))
    except ValueError as exc:
        raise ValueError(f"prefix: {exc}") from None


def _as_set_from_json(item) -> tuple[int, ...]:
    if type(item) is not list or not all(type(asn) is int for asn in item):
        raise ValueError(f"as_path element must be an int or a list of ints: {item!r}")
    return tuple(sorted(_uint32(asn, "as_path ASN") for asn in item))


def _path_from_json(items: list) -> tuple:
    _require(items, list, "as_path")
    return tuple([
        _uint32(i, "as_path ASN") if type(i) is int else _as_set_from_json(i)
        for i in items
    ])


def _community_from_json(value) -> int:
    return community_value(_require(value, str, "community"))


def _next_hop_from_json(value) -> Optional[str]:
    if value is None:
        return None
    return _address(_require(value, str, "next_hop"), "next_hop")


def _session_from_json(obj: dict) -> SessionKey:
    collector = _require(obj["collector"], str, "collector")
    peer_asn = _require(obj["peer_asn"], int, "peer_asn")
    peer_address = _require(obj["peer_address"], str, "peer_address")
    _uint32(peer_asn, "peer_asn")
    return SessionKey(collector, peer_asn, _address(peer_address, "peer_address"))


def reference_record_from_dict(obj: dict) -> UpdateRecord:
    kind = _require(obj, dict, "record")["kind"]
    attrs = None
    if kind == ANNOUNCEMENT:
        med = obj.get("med")
        if med is not None:
            _uint32(_require(med, int, "med"), "med")
        communities = _require(obj.get("communities", []), list, "communities")
        attrs = BgpAttributes(
            _path_from_json(obj.get("as_path", [])),
            tuple(map(_community_from_json, communities)),
            _next_hop_from_json(obj.get("next_hop")),
            med,
        )
    elif kind != WITHDRAWAL:
        raise ValueError(f"kind must be {ANNOUNCEMENT!r} or {WITHDRAWAL!r}: {kind!r}")
    flags = _require(obj.get("flags", []), list, "flags")
    for flag in flags:
        _require(flag, str, "flag")
    return UpdateRecord(
        _at_least_0(_require(obj["arrival_us"], int, "arrival_us"), "arrival_us"),
        _session_from_json(obj),
        _prefix_from_json(obj["prefix"]),
        attrs,
        _at_least_0(
            _require(obj.get("source_message_index", 0), int, "source_message_index"),
            "source_message_index",
        ),
        _require(obj.get("source_file", ""), str, "source_file"),
        _require(obj.get("native_usec", False), bool, "native_usec"),
        tuple(flags),
    )


# ---------------------------------------------------------------------------
# reference delegated-extended loader
#
# The loader allocation.load_delegated replaced: every IPv4 start and
# IPv6 network goes through ipaddress.  The fast loader must keep,
# skip and convert every row as this one does.

_ALLOCATED_STATUSES = frozenset({"allocated", "assigned"})


def reference_load_delegated(
    lines: Iterable[str],
) -> tuple[dict[str, list[tuple[int, int, int]]], int]:
    """The sorted (first, last, valid_from) rows per family, and the
    smallest nonzero valid-from (0 when no kept row has one)."""
    rows: dict[str, list[tuple[int, int, int]]] = {"asn": [], "ipv4": [], "ipv6": []}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 7:
            continue
        _reg, _cc, rtype, start, value, date, status = parts[:7]
        if status not in _ALLOCATED_STATUSES or rtype not in rows:
            continue
        try:
            if rtype == "ipv6":
                net = ipaddress.IPv6Network(f"{start}/{value}")
                first, last = int(net.network_address), int(net.broadcast_address)
            else:  # counts, and ASN starts, are ASCII decimal; a count is at least 1
                if not re.fullmatch("[0-9]+", value) or int(value) == 0:
                    continue
                if rtype == "asn" and not re.fullmatch("[0-9]+", start):
                    continue
                first = int(start if rtype == "asn" else ipaddress.IPv4Address(start))
                last = first + int(value) - 1
        except ValueError:
            continue
        if date and not re.fullmatch("[0-9]{8}", date):
            continue  # a date is eight ASCII digits, or empty for undated
        valid_from = int(date or 0)
        rows[rtype].append((first, last, valid_from))
    earliest = min((v for group in rows.values() for *_, v in group if v), default=0)
    return {rtype: sorted(group) for rtype, group in rows.items()}, earliest


# ---------------------------------------------------------------------------
# reference prefix decoder
#
# The decoder mrt.bgp.decode_prefix_strs replaced: each prefix becomes
# an ipaddress network, host bits cleared by strict=False.  The fast
# decoder must give str() of each network, and fail where this one does.


def decode_prefixes(buf: bytes, afi: int) -> list:
    """Decode the (length, truncated address) prefix encoding to networks."""
    if afi == AFI_IPV4:
        max_bits, addr_len = 32, 4
    elif afi == AFI_IPV6:
        max_bits, addr_len = 128, 16
    else:
        raise BgpParseError(f"unsupported AFI {afi}")
    out = []
    i = 0
    while i < len(buf):
        bits = buf[i]
        i += 1
        if bits > max_bits:
            raise BgpParseError(f"prefix length {bits} exceeds AFI maximum")
        end = i + (bits + 7) // 8
        if end > len(buf):
            raise BgpParseError("truncated prefix bytes")
        addr = ipaddress.ip_address(buf[i:end].ljust(addr_len, b"\x00"))
        out.append(ipaddress.ip_network((addr, bits), strict=False))
        i = end
    return out


# ---------------------------------------------------------------------------
# random stream generator with construction-time ground truth


@dataclass
class SyntheticStream:
    records: list[UpdateRecord] = field(default_factory=list)
    true_labels: list[AnnouncementType] = field(default_factory=list)


_PATH_POOL = [
    (65001, 65002),
    (65001, 65002, 65003),
    (65001, 65004, 65003),
    (65005, 65002),
]
_COMM_POOL = [(), ((65001 << 16) | 100,), ((65001 << 16) | 200,), ((65002 << 16) | 7,)]


def random_stream(
    rng: random.Random,
    n_records: int,
    n_sessions: int = 3,
    n_prefixes: int = 4,
    withdrawal_rate: float = 0.15,
) -> SyntheticStream:
    """Randomized interleaved streams; labels derived on the fly.

    The generator tracks each stream's last announcement itself, so the
    expected labels are construction ground truth, independent of both
    the streaming classifier and the brute-force oracle.
    """
    sessions = [make_session(65001 + i) for i in range(n_sessions)]
    prefixes = [f"10.{i}.0.0/16" for i in range(n_prefixes)]
    last: dict[tuple, UpdateRecord] = {}
    out = SyntheticStream()
    t = 1_500_000_000_000_000
    for _ in range(n_records):
        session = rng.choice(sessions)
        prefix = rng.choice(prefixes)
        key = (session, prefix)
        t += rng.randint(1, 1_000_000)
        if rng.random() < withdrawal_rate:
            out.records.append(make_withdrawal(t, prefix, session))
            continue
        path = rng.choice(_PATH_POOL)
        if rng.random() < 0.25:
            # prepend inflation of the first hop
            path = (path[0],) * rng.randint(2, 3) + path[1:]
        communities = rng.choice(_COMM_POOL)
        rec = make_announcement(t, prefix, path, communities, session)
        prev = last.get(key)
        if prev is None:
            out.true_labels.append(AnnouncementType.INITIAL)
        else:
            prev_path, cur_path = prev.attrs.path, rec.attrs.path
            if prev_path == cur_path:
                first = "n"
            elif collapse_path(prev_path) == collapse_path(cur_path):
                first = "x"
            else:
                first = "p"
            second = (
                "n"
                if Counter(prev.attrs.communities) == Counter(rec.attrs.communities)
                else "c"
            )
            out.true_labels.append(AnnouncementType(first + second))
        last[key] = rec
        out.records.append(rec)
    return out


# ---------------------------------------------------------------------------
# synthetic MRT files


def wire_prefixes(prefixes: Iterable) -> bytes:
    """The NLRI encoding of ip_network objects or "address/length" texts.

    A text keeps the host bits it is written with, as a non-minimal
    encoding on the wire would.
    """
    out = b""
    for prefix in prefixes:
        if isinstance(prefix, str):
            address, _, bits = prefix.partition("/")
            packed, bits = ipaddress.ip_address(address).packed, int(bits)
        else:
            packed, bits = prefix.network_address.packed, prefix.prefixlen
        out += bytes([bits]) + packed[: (bits + 7) // 8]
    return out


def attr_mp_reach(prefixes: Iterable, next_hop, link_local=None) -> bytes:
    """An MP_REACH_NLRI attribute announcing ``prefixes`` (see wire_prefixes).

    With ``link_local`` the IPv6 next hop is 32 bytes: global, then link-local.
    """
    nh = ipaddress.ip_address(next_hop)
    afi = AFI_IPV4 if nh.version == 4 else AFI_IPV6
    packed = nh.packed
    if link_local is not None:
        packed += ipaddress.IPv6Address(link_local).packed
    payload = (
        struct.pack("!HBB", afi, 1, len(packed))
        + packed
        + b"\x00"
        + wire_prefixes(prefixes)
    )
    return wire_attribute(FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, payload)


def attr_mp_unreach(prefixes: Iterable, afi: int = AFI_IPV6) -> bytes:
    """An MP_UNREACH_NLRI attribute withdrawing ``prefixes`` (see wire_prefixes)."""
    payload = struct.pack("!HB", afi, 1) + wire_prefixes(prefixes)
    return wire_attribute(FLAG_OPTIONAL, ATTR_MP_UNREACH_NLRI, payload)


# IPv6 prefixes in each shape RFC 5952 text distinguishes
V6_PREFIXES = (
    "2001:db8::/32",  # one zero run, at the end
    "2001:0:0:1::/64",  # a shorter run before the longest
    "2001:db8:1:0:0:1:0:0/128",  # tied runs: the first is compressed
    "2001:db8:0:1:0:1:0:1/128",  # single zero groups: none compressed
    "::/0",
    "::ffff:0:0/96",  # IPv4-mapped
    "::a00:0/104",  # IPv4-compatible
    "64:ff9b::/96",
    "2001:db8:abcd:13ff::/55",  # a host bit on the wire: 2001:db8:abcd:1200::/55
)
T0 = 1_682_899_200  # 2023-05-01 00:00 UTC


def write_dual_stack(directory: Path) -> list[str]:
    """Write two five-minute update files from three sessions; their names.

    ``a`` is an IPv6 session whose peer address has tied zero runs and
    whose next hop is 32 bytes; ``b`` is an IPv4 session that also
    announces IPv6 prefixes; ``c`` is an AS4 session over an IPv4-mapped
    IPv6 address, with microsecond timestamps.
    """
    a = dict(peer_asn=65002, peer_address="2001:db8:0:0:1:0:0:1",
             local_asn=64512, local_address="2001:db8::2")
    b = dict(peer_asn=65001, peer_address="192.0.2.1",
             local_asn=64512, local_address="192.0.2.254")
    c = dict(peer_asn=4_200_000_000, peer_address="::ffff:192.0.2.7",
             local_asn=64512, local_address="::ffff:192.0.2.254")

    def v6(prefixes, path, community=1, link_local="fe80::1", width=2):
        return [attr_origin(), attr_as_path(path_segments(path), width),
                attr_communities([path[0] << 16 | community]),
                attr_mp_reach(prefixes, "2001:db8::1", link_local)]

    v4 = (65001, 65010)
    files = {
        "updates.20230501.0000": [
            build_update_record(T0, **a, attributes=v6(V6_PREFIXES[:5], (65002, 65020))),
            build_update_record(
                T0 + 10, **b, announced=("10.0.0.0/24", "10.1.0.0/16"),
                attributes=std_attrs(v4) + [
                    attr_mp_reach(V6_PREFIXES[5:], "2001:db8:ffff::1")
                ],
            ),
            build_update_record(T0 + 20, **a, attributes=v6(V6_PREFIXES[:5], (65002, 65020))),
            build_update_record(T0 + 30, **a, attributes=v6(V6_PREFIXES[:3], (65002, 65020), 2)),
            build_update_record(T0 + 40, **a, attributes=[attr_mp_unreach(V6_PREFIXES[1:2])]),
            build_update_record(T0 + 50, **a, attributes=v6(V6_PREFIXES[1:2], (65002, 65020), 2)),
            build_update_record(
                T0 + 60, **b, announced=("10.0.0.0/24", "10.1.0.0/16"),
                attributes=std_attrs(v4) + [
                    attr_mp_reach(V6_PREFIXES[5:], "2001:db8:ffff::1")
                ],
            ),
        ],
        "updates.20230501.0005": [
            build_update_record(
                T0 + 300, **a, attributes=v6(V6_PREFIXES[:5], (65002, 65030, 65020))
            ),
            build_update_record(
                T0 + 310, **b, announced=("10.0.0.0/24",),
                attributes=std_attrs((65001, 65001, 65010)),
            ),
            build_update_record(
                T0 + 320, **b, withdrawn=("10.1.0.0/16",),
                attributes=[attr_mp_unreach(V6_PREFIXES[5:7])],
            ),
            build_update_record(
                T0 + 330, **c, microsecond=1,
                attributes=v6(V6_PREFIXES[6:], (65003, 65040), link_local=None, width=4),
            ),
            build_update_record(
                T0 + 330, **c, microsecond=2,
                attributes=[attr_mp_unreach(V6_PREFIXES[8:])],
            ),
            build_update_record(
                T0 + 340, **c, microsecond=3,
                attributes=v6(V6_PREFIXES[:1] + V6_PREFIXES[8:], (65003, 65040), 2,
                              link_local=None, width=4),
            ),
        ],
    }
    for name, entries in files.items():
        with open(directory / name, "wb") as f:
            write_mrt_stream(entries, f)
    return list(files)


def build_keepalive_record(
    timestamp: int,
    peer_asn: int,
    peer_address: str,
    local_asn: int,
    local_address: str,
    microsecond: Optional[int] = None,
):
    message = build_bgp_message(MSG_KEEPALIVE, b"")
    return build_bgp4mp_record(
        timestamp, peer_asn, peer_address, local_asn, local_address, message, microsecond
    )


def std_attrs(
    path: Iterable = (65001, 65002),
    next_hop: str = "10.0.0.1",
    communities: Iterable[int] = (),
) -> list[bytes]:
    attrs = [attr_origin(0), attr_as_path(path_segments(path)), attr_next_hop(next_hop)]
    communities = tuple(communities)
    if communities:
        attrs.append(attr_communities(communities))
    return attrs


def update_entry(
    timestamp: int = 1_600_000_000,
    peer_asn: int = 65001,
    announced: Iterable[str] = ("10.0.0.0/24",),
    withdrawn: Iterable[str] = (),
    path: Iterable = (65001, 65002),
    communities: Iterable[int] = (),
    microsecond: Optional[int] = None,
):
    announced = tuple(announced)
    attributes = std_attrs(path, communities=communities) if announced else []
    return build_update_record(
        timestamp=timestamp,
        peer_asn=peer_asn,
        peer_address="10.0.0.1",
        local_asn=64512,
        local_address="10.0.0.2",
        withdrawn=withdrawn,
        attributes=attributes,
        announced=announced,
        microsecond=microsecond,
    )


def count_opens(monkeypatch, with_mode: bool = False) -> list:
    """The file of every ``builtins.open`` call from now on, as text, or
    with ``with_mode`` a (file, mode) pair."""
    opened, real_open = [], builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode) if with_mode else str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opened
