"""Normalized update records and their JSONL serialization.

An MRT update message fans out to one UpdateRecord per prefix it
announces or withdraws; downstream analysis works on these flat
records keyed by (session, prefix).
"""

from __future__ import annotations

import io
import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .addr import canonical_address, canonical_network
from .errors import BgpChurnError
from .mrt.bgp import BgpAttributes, PathElement, community_str, community_value
from .mrt.codec import MrtEntry, open_archive

ANNOUNCEMENT = "announcement"
WITHDRAWAL = "withdrawal"


class SessionKey(NamedTuple):
    """Identifies one collector BGP session: the (peer AS, peer IP) pair."""

    collector_id: str
    peer_asn: int
    peer_address: str


# NamedTuple construction through its Python __new__ costs a frame
_new = tuple.__new__

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
        _new(
            UpdateRecord,
            (arrival_us, session, p, None, index, source_file, native_usec, ()),
        )
        for p in msg.withdrawn_prefixes
    ] + [
        _new(
            UpdateRecord,
            (arrival_us, session, p, attrs, index, source_file, native_usec, ()),
        )
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
#   prefix: CIDR string, read in its canonical text (host bits unset)
#   kind: "announcement" | "withdrawal", written from attrs (None for
#     a withdrawal)
#   as_path: list of ints / sorted-int lists (AS_SET), announcements only
#   communities: list of "high:low" strings
#   next_hop: canonical address text ("192.0.2.1", "2001:db8::1", the
#     global address of a 32-byte IPv6 next hop; an MP_REACH next hop by
#     its length, whatever the AFI) or null; med: int or null
#   source_message_index, source_file, native_usec, flags


def _path_to_json(elements: tuple[PathElement, ...]) -> list:
    return [list(el) if isinstance(el, tuple) else el for el in elements]


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
# have its JSON type exactly, and ASNs, MEDs, arrival times and message
# indexes their range.  The checks are inline in record_from_dict, so a
# plain line costs one frame, and run in a fixed order, so a bad line
# fails on its first bad field.  Next hops, communities and sessions
# repeat from line to line, so their checks are memoized in bounded
# memos that hold no exceptions, each reached only once the field's
# JSON types are checked.  Peer addresses, next hops and prefixes are
# kept in the canonical text decode gives them; prefixes are mostly
# distinct, so theirs is read without a memo.

_TYPE_NAMES = {
    int: "an int", str: "a string", bool: "a bool", list: "a list", dict: "an object"
}
_UINT32_MAX = 2**32 - 1


def _wrong_type(name: str, kind: type, value) -> ValueError:
    return ValueError(f"{name} must be {_TYPE_NAMES[kind]}, not {type(value).__name__}")


def _out_of_range(name: str, value: int) -> ValueError:
    return ValueError(f"{name} must be from 0 to {_UINT32_MAX}, not {value}")


def _address(text: str, name: str) -> str:
    try:
        return canonical_address(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@lru_cache(maxsize=_MEMO_SIZE)
def _next_hop_memo(text: str) -> str:
    return _address(text, "next_hop")


_community_memo = lru_cache(maxsize=_MEMO_SIZE)(community_value)


@lru_cache(maxsize=_MEMO_SIZE)
def _json_session_memo(collector: str, peer_asn: int, peer_address: str) -> SessionKey:
    if not 0 <= peer_asn <= _UINT32_MAX:
        raise _out_of_range("peer_asn", peer_asn)
    return _session_memo(collector, peer_asn, _address(peer_address, "peer_address"))


def _path_with_sets(path: list) -> list:
    """as_path with AS_SETs as sorted tuples, each element checked in turn."""
    out = []
    for item in path:
        if type(item) is list and all(type(asn) is int for asn in item):
            members, item = item, tuple(sorted(item))
        elif type(item) is int:
            members = (item,)
        else:
            raise ValueError(f"as_path element must be an int or a list of ints: {item!r}")
        for asn in members:
            if not 0 <= asn <= _UINT32_MAX:
                raise _out_of_range("as_path ASN", asn)
        out.append(item)
    return out


def record_from_dict(obj: dict) -> UpdateRecord:
    if type(obj) is not dict:
        raise _wrong_type("record", dict, obj)
    kind = obj["kind"]
    attrs = None
    if kind == ANNOUNCEMENT:
        med = obj.get("med")
        if med is not None:
            if type(med) is not int:
                raise _wrong_type("med", int, med)
            if not 0 <= med <= _UINT32_MAX:
                raise _out_of_range("med", med)
        communities = obj.get("communities", [])
        if type(communities) is not list:
            raise _wrong_type("communities", list, communities)
        path = obj.get("as_path", [])
        if type(path) is not list:
            raise _wrong_type("as_path", list, path)
        for asn in path:
            if type(asn) is not int or not 0 <= asn <= _UINT32_MAX:
                path = _path_with_sets(path)
                break
        values = []
        for community in communities:
            if type(community) is not str:
                raise _wrong_type("community", str, community)
            values.append(_community_memo(community))
        next_hop = obj.get("next_hop")
        if next_hop is not None:
            if type(next_hop) is not str:
                raise _wrong_type("next_hop", str, next_hop)
            next_hop = _next_hop_memo(next_hop)
        attrs = _new(BgpAttributes, (tuple(path), tuple(values), next_hop, med))
    elif kind != WITHDRAWAL:
        raise ValueError(f"kind must be {ANNOUNCEMENT!r} or {WITHDRAWAL!r}: {kind!r}")
    flags = obj.get("flags", [])
    if type(flags) is not list:
        raise _wrong_type("flags", list, flags)
    for flag in flags:
        if type(flag) is not str:
            raise _wrong_type("flag", str, flag)
    arrival_us = obj["arrival_us"]
    if type(arrival_us) is not int:
        raise _wrong_type("arrival_us", int, arrival_us)
    if arrival_us < 0:
        raise ValueError(f"arrival_us must be at least 0, not {arrival_us}")
    collector = obj["collector"]
    if type(collector) is not str:
        raise _wrong_type("collector", str, collector)
    peer_asn = obj["peer_asn"]
    if type(peer_asn) is not int:
        raise _wrong_type("peer_asn", int, peer_asn)
    peer_address = obj["peer_address"]
    if type(peer_address) is not str:
        raise _wrong_type("peer_address", str, peer_address)
    session = _json_session_memo(collector, peer_asn, peer_address)
    prefix = obj["prefix"]
    if type(prefix) is not str:
        raise _wrong_type("prefix", str, prefix)
    try:
        prefix = canonical_network(prefix)
    except ValueError as exc:
        raise ValueError(f"prefix: {exc}") from None
    index = obj.get("source_message_index", 0)
    if type(index) is not int:
        raise _wrong_type("source_message_index", int, index)
    if index < 0:
        raise ValueError(f"source_message_index must be at least 0, not {index}")
    source_file = obj.get("source_file", "")
    if type(source_file) is not str:
        raise _wrong_type("source_file", str, source_file)
    native_usec = obj.get("native_usec", False)
    if type(native_usec) is not bool:
        raise _wrong_type("native_usec", bool, native_usec)
    return _new(
        UpdateRecord,
        (arrival_us, session, prefix, attrs, index, source_file, native_usec, tuple(flags)),
    )


# One JSON scan per line: raw_decode skips json.loads' two frames and
# its whitespace matches, which a stripped line does not need.
_raw_decode = json.JSONDecoder().raw_decode


def read_records_jsonl(path: Union[str, Path]) -> Iterator[UpdateRecord]:
    """Records of a .jsonl file, plain, gzip or bzip2 by its magic bytes.
    A bad line fails naming ``path:line``; a bad file raises an INPUT_ERRORS."""
    with open_archive(path) as raw, io.TextIOWrapper(raw, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    obj, end = _raw_decode(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    # not one JSON value: json.loads raises its exact error
                    obj = json.loads(line)
                rec = record_from_dict(obj)
            except KeyError as exc:
                raise BgpChurnError(f"{path}:{lineno}: missing key {exc}") from exc
            except (AttributeError, TypeError, ValueError, RecursionError) as exc:
                raise BgpChurnError(f"{path}:{lineno}: {exc}") from exc
            yield rec
