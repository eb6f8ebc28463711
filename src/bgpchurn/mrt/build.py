"""Builders for synthetic MRT records (fixtures, simulator export)."""

from __future__ import annotations

import struct
from typing import Iterable, Optional

from ..addr import address_bytes
from .bgp import build_update_message
from .codec import (
    BGP4MP_MESSAGE,
    BGP4MP_MESSAGE_AS4,
    TYPE_BGP4MP,
    TYPE_BGP4MP_ET,
    MrtEntry,
    MrtRecordHeader,
    decode_entry,
)


def build_bgp4mp_record(
    timestamp: int,
    peer_asn: int,
    peer_address: str,
    local_asn: int,
    local_address: str,
    bgp_message: bytes,
    microsecond: Optional[int] = None,
    as4: bool = False,
) -> MrtEntry:
    """Wrap one raw BGP message in a BGP4MP (or BGP4MP_ET) record."""
    peer, local = address_bytes(peer_address), address_bytes(local_address)
    if len(peer) != len(local):
        raise ValueError("peer and local addresses must share a family")
    afi = 1 if len(peer) == 4 else 2
    if not as4 and max(peer_asn, local_asn) > 0xFFFF:
        as4 = True
    as_code = "!II" if as4 else "!HH"
    body = (
        struct.pack(as_code, peer_asn, local_asn)
        + struct.pack("!HH", 0, afi)
        + peer + local
        + bgp_message
    )
    if microsecond is None:
        rec_type = TYPE_BGP4MP
    else:
        rec_type = TYPE_BGP4MP_ET
        body = struct.pack("!I", microsecond) + body
    subtype = BGP4MP_MESSAGE_AS4 if as4 else BGP4MP_MESSAGE
    header = MrtRecordHeader(timestamp, rec_type, subtype, len(body))
    return decode_entry(header, body)


def build_update_record(
    timestamp: int,
    peer_asn: int,
    peer_address: str,
    local_asn: int,
    local_address: str,
    withdrawn: Iterable[str] = (),
    attributes: Iterable[bytes] = (),
    announced: Iterable[str] = (),
    microsecond: Optional[int] = None,
    as4: bool = False,
) -> MrtEntry:
    message = build_update_message(withdrawn, attributes, announced)
    return build_bgp4mp_record(
        timestamp,
        peer_asn,
        peer_address,
        local_asn,
        local_address,
        message,
        microsecond,
        as4,
    )
