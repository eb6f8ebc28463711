"""Normalized update records and their JSONL serialization.

An MRT update message fans out to one UpdateRecord per prefix it
announces or withdraws; downstream analysis works on these flat
records keyed by (session, prefix).
"""

from __future__ import annotations

import ipaddress
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from .mrt.bgp import (
    BgpAttributes,
    PathElement,
    PathSegment,
    community_str,
    community_value,
    path_segments,
)
from .mrt.codec import MrtEntry

ANNOUNCEMENT = "announcement"
WITHDRAWAL = "withdrawal"


@dataclass(frozen=True)
class SessionKey:
    """Identifies one collector BGP session: the (peer AS, peer IP) pair."""

    collector_id: str
    peer_asn: int
    peer_address: str

    def __str__(self) -> str:
        return f"{self.collector_id}/{self.peer_asn}@{self.peer_address}"


@dataclass(frozen=True)
class UpdateRecord:
    """One announcement or withdrawal for one prefix.

    ``arrival_us`` is epoch microseconds.  ``attrs`` is None exactly
    for withdrawals.  ``flags`` accumulates normalization annotations
    (table_gap, overflow_second, out_of_order, repaired_path,
    anomalous_empty_path, end_of_rib ...).
    """

    arrival_us: int
    session: SessionKey
    prefix: str
    kind: str  # ANNOUNCEMENT or WITHDRAWAL
    attrs: Optional[BgpAttributes] = None
    source_message_index: int = 0
    source_file: str = ""
    native_usec: bool = False
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == WITHDRAWAL and self.attrs is not None:
            raise ValueError("withdrawal records carry no attributes")

    @property
    def is_announcement(self) -> bool:
        return self.kind == ANNOUNCEMENT

    def path_elements(self) -> tuple[PathElement, ...]:
        return self.attrs.path_elements() if self.attrs else ()

    def communities(self) -> tuple[int, ...]:
        return self.attrs.communities if self.attrs else ()

    def with_flag(self, flag: str) -> "UpdateRecord":
        if flag in self.flags:
            return self
        return replace(self, flags=self.flags + (flag,))


def expand_message(
    entry: MrtEntry,
    collector_id: str,
    source_file: str = "",
    index: Optional[int] = None,
) -> list[UpdateRecord]:
    """Fan one parsed update record out to per-prefix UpdateRecords.

    Withdrawals come first, then announcements, each in wire order; all
    share the originating record's index.  Non-update entries and
    end-of-RIB markers produce an empty list.
    """
    msg = entry.message
    if msg is None or msg.message_kind != "update":
        return []
    session = SessionKey(collector_id, msg.peer_asn, msg.peer_address)
    common = dict(
        arrival_us=entry.arrival_us,
        session=session,
        source_message_index=0 if index is None else index,
        source_file=source_file,
        native_usec=entry.has_native_usec,
    )
    out = [
        UpdateRecord(prefix=p, kind=WITHDRAWAL, **common)
        for p in msg.withdrawn_prefixes
    ]
    out.extend(
        UpdateRecord(prefix=p, kind=ANNOUNCEMENT, attrs=msg.attributes, **common)
        for p in msg.announced_prefixes
    )
    return out


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
#   kind: "announcement" | "withdrawal"
#   as_path: list of ints / sorted-int lists (AS_SET), announcements only
#   communities: list of "high:low" strings
#   next_hop: string or null; med: int or null
#   source_message_index, source_file, native_usec, flags

SCHEMA_VERSION = 1


def _path_to_json(elements: tuple[PathElement, ...]) -> list:
    return [list(el) if isinstance(el, tuple) else el for el in elements]


def _path_from_json(items: list) -> tuple[PathSegment, ...]:
    return path_segments(tuple(i) if isinstance(i, list) else i for i in items)


def record_to_dict(rec: UpdateRecord) -> dict:
    out = {
        "arrival_us": rec.arrival_us,
        "collector": rec.session.collector_id,
        "peer_asn": rec.session.peer_asn,
        "peer_address": rec.session.peer_address,
        "prefix": rec.prefix,
        "kind": rec.kind,
        "source_message_index": rec.source_message_index,
        "source_file": rec.source_file,
        "native_usec": rec.native_usec,
        "flags": list(rec.flags),
    }
    if rec.attrs is not None:
        out["as_path"] = _path_to_json(rec.attrs.path_elements())
        out["communities"] = [community_str(c) for c in rec.attrs.communities]
        out["next_hop"] = str(rec.attrs.next_hop) if rec.attrs.next_hop else None
        out["med"] = rec.attrs.med
    return out


def record_from_dict(obj: dict) -> UpdateRecord:
    attrs = None
    if obj["kind"] == ANNOUNCEMENT:
        attrs = BgpAttributes(
            segments=_path_from_json(obj.get("as_path", [])),
            communities=tuple(
                community_value(c) for c in obj.get("communities", [])
            ),
            next_hop=(
                ipaddress.ip_address(obj["next_hop"]) if obj.get("next_hop") else None
            ),
            med=obj.get("med"),
        )
    return UpdateRecord(
        arrival_us=obj["arrival_us"],
        session=SessionKey(obj["collector"], obj["peer_asn"], obj["peer_address"]),
        prefix=obj["prefix"],
        kind=obj["kind"],
        attrs=attrs,
        source_message_index=obj.get("source_message_index", 0),
        source_file=obj.get("source_file", ""),
        native_usec=obj.get("native_usec", False),
        flags=tuple(obj.get("flags", ())),
    )


def write_records_jsonl(
    records: Iterable[UpdateRecord], sink: Union[str, Path, IO[str]]
) -> int:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as f:
            return write_records_jsonl(records, f)
    n = 0
    for rec in records:
        sink.write(json.dumps(record_to_dict(rec), separators=(",", ":")) + "\n")
        n += 1
    return n


def read_records_jsonl(source: Union[str, Path, IO[str]]) -> Iterator[UpdateRecord]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            yield from read_records_jsonl(f)
        return
    for line in source:
        line = line.strip()
        if line:
            yield record_from_dict(json.loads(line))
