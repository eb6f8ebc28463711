"""Capture-log export: line-delimited JSON and synthetic MRT.

MRT export turns each logged message on one session into an
extended-timestamp record, so simulator output feeds the same pipeline
as collector archives (classifier, reducer, beacon analysis).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..mrt.bgp import (
    attr_as_path,
    attr_communities,
    attr_med,
    attr_next_hop,
    attr_origin,
    community_str,
    path_segments,
)
from ..mrt.build import build_update_record
from ..mrt.codec import MrtEntry, write_mrt_stream
from ..output import atomic_output
from .engine import CaptureLog, LogEntry, Simulation


def log_entry_to_dict(entry: LogEntry) -> dict:
    msg = entry.message
    out = {
        "at": entry.at,
        "seq": entry.seq,
        "sender": entry.sender,
        "receiver": entry.receiver,
        "prefix": msg.prefix,
    }
    if entry.is_announcement:
        out["kind"] = "announcement"
        out["path"] = list(msg.path)
        out["communities"] = [community_str(c) for c in msg.communities]
        out["next_hop"] = msg.next_hop
        out["med"] = msg.med
    else:
        out["kind"] = "withdrawal"
    return out


def write_log_jsonl(log: CaptureLog, path: Union[str, Path]) -> int:
    with atomic_output(path) as f:
        for entry in log.entries:
            f.write(json.dumps(log_entry_to_dict(entry), separators=(",", ":")) + "\n")
    return len(log.entries)


def capture_to_mrt_entries(
    sim: Simulation,
    log: CaptureLog,
    sender: str,
    receiver: str,
    base_timestamp: int = 1_500_000_000,
) -> list[MrtEntry]:
    """Render one session's messages as BGP4MP_ET update records.

    The virtual clock maps to base_timestamp + event-time seconds; the
    global message sequence number becomes the microsecond stamp, which
    keeps arrivals unique and strictly ordered.
    """
    session = sim.session_between(sender, receiver)
    peer = sim.routers[sender]
    local = sim.routers[receiver]
    entries = []
    for entry in log.between(sender, receiver):
        msg = entry.message
        if entry.is_announcement:
            attrs = [attr_origin(0), attr_as_path(path_segments(msg.path))]
            next_hop = msg.next_hop
            if not next_hop or ":" in next_hop:
                next_hop = session.addr_of(sender)
            attrs.append(attr_next_hop(next_hop))
            if msg.med is not None:
                attrs.append(attr_med(msg.med))
            if msg.communities:
                attrs.append(attr_communities(msg.communities))
            announced = [msg.prefix]
            withdrawn = []
        else:
            attrs = []
            announced = []
            withdrawn = [msg.prefix]
        entries.append(
            build_update_record(
                timestamp=base_timestamp + entry.at,
                peer_asn=peer.asn,
                peer_address=session.addr_of(sender),
                local_asn=local.asn,
                local_address=session.addr_of(receiver),
                withdrawn=withdrawn,
                attributes=attrs,
                announced=announced,
                microsecond=entry.seq % 1_000_000,
            )
        )
    return entries


def write_capture_mrt(
    sim: Simulation,
    log: CaptureLog,
    sender: str,
    receiver: str,
    path: Union[str, Path],
    base_timestamp: int = 1_500_000_000,
) -> int:
    entries = capture_to_mrt_entries(sim, log, sender, receiver, base_timestamp)
    with atomic_output(path, "wb") as f:
        return write_mrt_stream(entries, f)
