"""Normalized update records and their JSONL serialization.

An MRT update message fans out to one UpdateRecord per prefix it
announces or withdraws; downstream analysis works on these flat
records keyed by (session, prefix).
"""

from __future__ import annotations

import ipaddress
import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import BgpChurnError
from .mrt.bgp import BgpAttributes, PathElement, community_str, community_value
from .mrt.codec import MrtEntry

ANNOUNCEMENT = "announcement"
WITHDRAWAL = "withdrawal"


class SessionKey(NamedTuple):
    """Identifies one collector BGP session: the (peer AS, peer IP) pair."""

    collector_id: str
    peer_asn: int
    peer_address: str


# Decode and the JSONL reader both build sessions through one bounded
# memo, so the records of one session share one key object.
_MEMO_SIZE = 4096
_session_memo = lru_cache(maxsize=_MEMO_SIZE)(SessionKey)


# arrival_us // US_PER_DAY is a record's UTC day
US_PER_DAY = 86_400 * 1_000_000


class UpdateRecord(NamedTuple):
    """One announcement or withdrawal for one prefix.

    ``arrival_us`` is epoch microseconds.  ``attrs`` is None exactly
    for withdrawals, which carry no path or communities.  ``flags``
    accumulates normalization annotations (table_gap, overflow_second,
    out_of_order, repaired_path, anomalous_empty_path ...).  Records are
    immutable; ``_replace`` is the copy-with-change.
    """

    arrival_us: int
    session: SessionKey
    prefix: str
    attrs: Optional[BgpAttributes]
    source_message_index: int = 0
    source_file: str = ""
    native_usec: bool = False
    flags: tuple[str, ...] = ()

    def with_flag(self, flag: str) -> "UpdateRecord":
        if flag in self.flags:
            return self
        return self._replace(flags=self.flags + (flag,))


def expand_message(
    entry: MrtEntry,
    collector_id: str,
    source_file: str = "",
    index: int = 0,
) -> list[UpdateRecord]:
    """Fan one parsed update record out to per-prefix UpdateRecords.

    Withdrawals come first, then announcements, each in wire order; all
    share the originating record's index and one interned SessionKey.
    Non-update entries and end-of-RIB markers produce an empty list.
    """
    msg = entry.message
    if msg is None:
        return []
    session = _session_memo(collector_id, msg.peer_asn, msg.peer_address)
    arrival_us = entry.arrival_us
    native_usec = entry.has_native_usec
    attrs = msg.attributes
    return [
        UpdateRecord(arrival_us, session, p, None, index, source_file, native_usec)
        for p in msg.withdrawn_prefixes
    ] + [
        UpdateRecord(arrival_us, session, p, attrs, index, source_file, native_usec)
        for p in msg.announced_prefixes
    ]


def expand_stream(
    entries: Iterable[MrtEntry], collector_id: str, source_file: str = ""
) -> Iterator[UpdateRecord]:
    for index, entry in enumerate(entries):
        yield from expand_message(entry, collector_id, source_file, index)


# ---------------------------------------------------------------------------
# JSONL schema (schema_version 1)
#
# One object per line:
#   arrival_us: int epoch microseconds
#   collector, peer_asn, peer_address: session key
#   prefix: CIDR string
#   kind: "announcement" | "withdrawal", written from attrs (None for
#     a withdrawal)
#   as_path: list of ints / sorted-int lists (AS_SET), announcements only
#   communities: list of "high:low" strings
#   next_hop: canonical address text ("192.0.2.1", "2001:db8::1", the
#     global address of a 32-byte IPv6 next hop) or null; med: int or null
#   source_message_index, source_file, native_usec, flags


def _path_to_json(elements: tuple[PathElement, ...]) -> list:
    return [list(el) if isinstance(el, tuple) else el for el in elements]


_TYPE_NAMES = {int: "an int", str: "a string", bool: "a bool", list: "a list"}


def _require(value, kind: type, name: str):
    """``value`` when its type is exactly ``kind`` (so True is no int)."""
    if type(value) is not kind:
        raise ValueError(
            f"{name} must be {_TYPE_NAMES[kind]}, not {type(value).__name__}"
        )
    return value


def _as_set_from_json(item) -> tuple[int, ...]:
    if type(item) is not list or not all(type(asn) is int for asn in item):
        raise ValueError(f"as_path element must be an int or a list of ints: {item!r}")
    return tuple(sorted(item))


def _path_from_json(items: list) -> tuple[PathElement, ...]:
    _require(items, list, "as_path")
    return tuple([i if type(i) is int else _as_set_from_json(i) for i in items])


def record_to_dict(rec: UpdateRecord) -> dict:
    out = {
        "arrival_us": rec.arrival_us,
        "collector": rec.session.collector_id,
        "peer_asn": rec.session.peer_asn,
        "peer_address": rec.session.peer_address,
        "prefix": rec.prefix,
        "kind": WITHDRAWAL if rec.attrs is None else ANNOUNCEMENT,
        "source_message_index": rec.source_message_index,
        "source_file": rec.source_file,
        "native_usec": rec.native_usec,
        "flags": list(rec.flags),
    }
    if rec.attrs is not None:
        out["as_path"] = _path_to_json(rec.attrs.path)
        out["communities"] = [community_str(c) for c in rec.attrs.communities]
        out["next_hop"] = rec.attrs.next_hop
        out["med"] = rec.attrs.med
    return out


# labeled_lines writes JSON text directly: ints and bools as json.dumps
# formats them, strings through the escaper json.dumps uses by default
# (ensure_ascii), so each line has the bytes json.dumps gives it.


# the "kind" value, by whether attrs is None
_KIND_JSON = {False: _json_str(ANNOUNCEMENT), True: _json_str(WITHDRAWAL)}


def _session_json(session: SessionKey) -> str:
    collector, peer_asn, peer_address = session
    return (
        f'"collector":{_json_str(collector)},"peer_asn":{peer_asn},'
        f'"peer_address":{_json_str(peer_address)}'
    )


def _attrs_json(attrs: Optional[BgpAttributes]) -> str:
    """The as_path..med keys of record_to_dict, each after a comma."""
    if attrs is None:
        return ""
    path = ",".join(
        f"[{','.join(map(str, el))}]" if isinstance(el, tuple) else str(el)
        for el in attrs.path
    )
    communities = ",".join(_json_str(community_str(c)) for c in attrs.communities)
    next_hop = "null" if attrs.next_hop is None else _json_str(attrs.next_hop)
    med = "null" if attrs.med is None else attrs.med
    return (
        f',"as_path":[{path}],"communities":[{communities}],'
        f'"next_hop":{next_hop},"med":{med}'
    )


def labeled_lines(labeled: Iterable[tuple[UpdateRecord, str, bool]]) -> Iterator[str]:
    """One labels.jsonl line per (record, label, after_withdrawal).

    Each line is ``json.dumps({**record_to_dict(record), "label": label,
    "after_withdrawal": after_withdrawal}, separators=(",", ":"))`` and a
    newline.  The records of one message share their session and one
    attributes object, so each session's keys are rendered once, and the
    attribute keys once per run of equal attributes (route-server repair
    gives each record an equal copy).
    """
    sessions: dict[SessionKey, str] = {}
    last_attrs, attrs_json = None, ""
    for rec, label, after_withdrawal in labeled:
        arrival_us, session, prefix, attrs, index, source_file, native_usec, flags = rec
        session_json = sessions.get(session)
        if session_json is None:
            session_json = sessions[session] = _session_json(session)
        if attrs != last_attrs:
            last_attrs, attrs_json = attrs, _attrs_json(attrs)
        yield (
            f'{{"arrival_us":{arrival_us},{session_json},"prefix":{_json_str(prefix)},'
            f'"kind":{_KIND_JSON[attrs is None]},"source_message_index":{index},'
            f'"source_file":{_json_str(source_file)},'
            f'"native_usec":{"true" if native_usec else "false"},'
            f'"flags":[{",".join(map(_json_str, flags))}]{attrs_json},'
            f'"label":{_json_str(label)},'
            f'"after_withdrawal":{"true" if after_withdrawal else "false"}}}\n'
        )


# JSONL is outside input, so every line is checked: each field must
# have its JSON type exactly.  Next hops, communities and sessions
# repeat from line to line, so their checks are memoized in bounded
# memos that hold no exceptions, each reached only once the field's
# JSON types are checked.


@lru_cache(maxsize=_MEMO_SIZE)
def _address_memo(text: str) -> str:
    return str(ipaddress.ip_address(text))


_community_memo = lru_cache(maxsize=_MEMO_SIZE)(community_value)


def _next_hop_from_json(value) -> Optional[str]:
    if value is None:
        return None
    return _address_memo(_require(value, str, "next_hop"))


def _community_from_json(value) -> int:
    return _community_memo(_require(value, str, "community"))


def _session_from_json(obj: dict) -> SessionKey:
    return _session_memo(
        _require(obj["collector"], str, "collector"),
        _require(obj["peer_asn"], int, "peer_asn"),
        _require(obj["peer_address"], str, "peer_address"),
    )


def record_from_dict(obj: dict) -> UpdateRecord:
    kind = obj["kind"]
    attrs = None
    if kind == ANNOUNCEMENT:
        med = obj.get("med")
        if med is not None:
            _require(med, int, "med")
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
        _require(obj["arrival_us"], int, "arrival_us"),
        _session_from_json(obj),
        _require(obj["prefix"], str, "prefix"),
        attrs,
        _require(obj.get("source_message_index", 0), int, "source_message_index"),
        _require(obj.get("source_file", ""), str, "source_file"),
        _require(obj.get("native_usec", False), bool, "native_usec"),
        tuple(flags),
    )


def read_records_jsonl(path: Union[str, Path]) -> Iterator[UpdateRecord]:
    """Records of a .jsonl file; a bad line fails naming ``path:line``."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = record_from_dict(json.loads(line))
                except KeyError as exc:
                    raise BgpChurnError(f"{path}:{lineno}: missing key {exc}") from exc
                except (AttributeError, TypeError, ValueError) as exc:
                    raise BgpChurnError(f"{path}:{lineno}: {exc}") from exc
                yield rec
        except UnicodeDecodeError as exc:  # decoding happens in the for
            raise BgpChurnError(f"{path}: {exc}") from exc
