"""MRT container codec (RFC 6396).

Records are carried as (header, raw body) pairs so an unmodified stream
re-serializes to the exact input bytes.  BGP4MP / BGP4MP_ET message
records additionally get a decoded view; everything else passes through
opaquely.
"""

from __future__ import annotations

import bz2
import gzip
import io
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union

from ..errors import BgpParseError, ContainerCorrupt, SinkFailure, TruncatedRecord
from .bgp import RawBgpMessage, address_str, decode_update_body, split_bgp_message

# MRT record types
TYPE_TABLE_DUMP = 12
TYPE_TABLE_DUMP_V2 = 13
TYPE_BGP4MP = 16
TYPE_BGP4MP_ET = 17

# BGP4MP subtypes
BGP4MP_STATE_CHANGE = 0
BGP4MP_MESSAGE = 1
BGP4MP_MESSAGE_AS4 = 4
BGP4MP_STATE_CHANGE_AS4 = 5
BGP4MP_MESSAGE_LOCAL = 6
BGP4MP_MESSAGE_AS4_LOCAL = 7
BGP4MP_MESSAGE_ADDPATH = 8
BGP4MP_MESSAGE_AS4_ADDPATH = 9
BGP4MP_MESSAGE_LOCAL_ADDPATH = 10
BGP4MP_MESSAGE_AS4_LOCAL_ADDPATH = 11

_MESSAGE_SUBTYPES = {
    BGP4MP_MESSAGE: False,
    BGP4MP_MESSAGE_AS4: True,
    BGP4MP_MESSAGE_LOCAL: False,
    BGP4MP_MESSAGE_AS4_LOCAL: True,
}
_ADDPATH_SUBTYPES = frozenset(
    {
        BGP4MP_MESSAGE_ADDPATH,
        BGP4MP_MESSAGE_AS4_ADDPATH,
        BGP4MP_MESSAGE_LOCAL_ADDPATH,
        BGP4MP_MESSAGE_AS4_LOCAL_ADDPATH,
    }
)

# 0                   1                   2                   3
# 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
# +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
# |                           Timestamp                           |
# +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
# |             Type              |            Subtype            |
# +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
# |                             Length                            |
# +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
_COMMON_HEADER = struct.Struct("!IHHI")

GZIP_MAGIC = b"\x1f\x8b"
BZ2_MAGIC = b"\x42\x5a\x68"


@dataclass(frozen=True)
class MrtRecordHeader:
    timestamp: int
    type: int
    subtype: int
    length: int

    def encode(self) -> bytes:
        return _COMMON_HEADER.pack(self.timestamp, self.type, self.subtype, self.length)


@dataclass(frozen=True)
class MrtEntry:
    """One MRT record: verbatim bytes plus a best-effort decoded view.

    ``body`` is everything after the 12-byte common header, including
    the microsecond field of extended-timestamp records, so that
    ``header.encode() + body`` always reproduces the input.
    """

    header: MrtRecordHeader
    body: bytes
    kind: str  # update | keepalive | open | notification | state_change | other
    message: Optional[RawBgpMessage] = None
    microsecond: int = 0
    note: Optional[str] = None

    @property
    def arrival_us(self) -> int:
        return self.header.timestamp * 1_000_000 + self.microsecond

    @property
    def has_native_usec(self) -> bool:
        return self.header.type == TYPE_BGP4MP_ET

    def encode(self) -> bytes:
        return self.header.encode() + self.body


@dataclass
class StreamStats:
    records: int = 0
    updates: int = 0
    keepalives: int = 0
    opens: int = 0
    notifications: int = 0
    state_changes: int = 0
    other: int = 0
    addpath: int = 0
    undecodable: int = 0

    def count(self, entry: MrtEntry) -> None:
        self.records += 1
        bucket = {
            "update": "updates",
            "keepalive": "keepalives",
            "open": "opens",
            "notification": "notifications",
            "state_change": "state_changes",
        }.get(entry.kind, "other")
        setattr(self, bucket, getattr(self, bucket) + 1)
        if entry.note == "addpath":
            self.addpath += 1
        elif entry.note is not None:
            self.undecodable += 1


def _decode_bgp4mp_message(body: bytes, subtype: int, offset: int) -> RawBgpMessage:
    """Decode a BGP4MP (ET offset already applied) message body.

    Layout: peer AS, local AS (2 or 4 bytes each), interface index,
    address family, peer address, local address, raw BGP message.
    """
    as4 = _MESSAGE_SUBTYPES[subtype]
    as_width = 4 if as4 else 2
    as_code = "!II" if as4 else "!HH"
    i = offset
    if len(body) < i + 2 * as_width + 4:
        raise BgpParseError("BGP4MP message header truncated")
    peer_asn, local_asn = struct.unpack_from(as_code, body, i)
    i += 2 * as_width
    _ifindex, afi = struct.unpack_from("!HH", body, i)
    i += 4
    addr_len = {1: 4, 2: 16}.get(afi)
    if addr_len is None:
        raise BgpParseError(f"BGP4MP unknown address family {afi}")
    if len(body) < i + 2 * addr_len:
        raise BgpParseError("BGP4MP addresses truncated")
    peer_address = address_str(body[i : i + addr_len])
    local_address = address_str(body[i + addr_len : i + 2 * addr_len])
    i += 2 * addr_len
    kind, payload = split_bgp_message(body[i:])
    withdrawn: tuple = ()
    announced: tuple = ()
    attributes = None
    if kind == "update":
        decoded = decode_update_body(payload, as4)
        withdrawn = decoded.withdrawn
        announced = decoded.announced
        attributes = decoded.attributes
    return RawBgpMessage(
        peer_asn=peer_asn,
        peer_address=peer_address,
        local_asn=local_asn,
        local_address=local_address,
        message_kind=kind,
        withdrawn_prefixes=withdrawn,
        announced_prefixes=announced,
        attributes=attributes,
    )


def decode_entry(header: MrtRecordHeader, body: bytes) -> MrtEntry:
    """Classify one record and decode it when it is a BGP4MP message."""
    microsecond = 0
    offset = 0
    if header.type == TYPE_BGP4MP_ET:
        if len(body) < 4:
            raise TruncatedRecord("extended timestamp record shorter than 4 bytes")
        (microsecond,) = struct.unpack_from("!I", body)
        offset = 4
    if header.type not in (TYPE_BGP4MP, TYPE_BGP4MP_ET):
        return MrtEntry(header, body, "other", microsecond=microsecond)
    if header.subtype in (BGP4MP_STATE_CHANGE, BGP4MP_STATE_CHANGE_AS4):
        return MrtEntry(header, body, "state_change", microsecond=microsecond)
    if header.subtype in _ADDPATH_SUBTYPES:
        return MrtEntry(header, body, "other", microsecond=microsecond, note="addpath")
    if header.subtype not in _MESSAGE_SUBTYPES:
        return MrtEntry(header, body, "other", microsecond=microsecond)
    try:
        message = _decode_bgp4mp_message(body, header.subtype, offset)
    except BgpParseError as exc:
        return MrtEntry(header, body, "other", microsecond=microsecond, note=str(exc))
    return MrtEntry(header, body, message.message_kind, message, microsecond)


def _container_of(head: bytes) -> str:
    """gzip, bzip2 or plain, by the magic bytes a file starts with."""
    if head[:2] == GZIP_MAGIC:
        return "gzip"
    if head[:3] == BZ2_MAGIC:
        return "bzip2"
    return "plain"


def detect_container(path: Union[str, Path]) -> str:
    """The container of the file at ``path``: gzip, bzip2 or plain."""
    with open(path, "rb") as f:
        return _container_of(f.read(3))


def _wrap_container(source: Union[str, Path, BinaryIO], container: str) -> BinaryIO:
    """A reader over a path, which it then owns, or over a binary stream."""
    is_path = isinstance(source, (str, Path))
    if container == "auto":
        if is_path:
            container = detect_container(source)
        elif not source.seekable():
            raise ContainerCorrupt("container auto-detection needs a seekable stream")
        else:
            peek = source.read(3)
            source.seek(-len(peek), os.SEEK_CUR)
            container = _container_of(peek)
    if container == "gzip":
        return gzip.open(source, "rb")  # type: ignore[return-value]
    if container == "bzip2":
        return bz2.open(source, "rb")  # type: ignore[return-value]
    if container == "plain":
        return open(source, "rb") if is_path else source
    raise ValueError(f"unknown container {container!r}")


def open_archive(path: Union[str, Path], container: str = "auto") -> BinaryIO:
    """Open a possibly gzip- or bzip2-compressed file by magic bytes.

    Closing the returned object closes the file.
    """
    return _wrap_container(path, container)


def read_mrt_stream(
    source: Union[str, Path, BinaryIO, bytes], container: str = "auto"
) -> Iterator[MrtEntry]:
    """Yield MrtEntry objects from a path, binary stream or bytes."""
    if isinstance(source, bytes):
        yield from _read_stream(_wrap_container(io.BytesIO(source), container))
        return
    if isinstance(source, (str, Path)):
        with open_archive(source, container) as f:
            yield from _read_stream(f)
        return
    yield from _read_stream(_wrap_container(source, container))


def _read_stream(f: BinaryIO) -> Iterator[MrtEntry]:
    index = 0
    while True:
        try:
            head = f.read(_COMMON_HEADER.size)
        except (OSError, EOFError) as exc:
            raise ContainerCorrupt(f"record {index}: {exc}") from exc
        if not head:
            return
        if len(head) < _COMMON_HEADER.size:
            raise TruncatedRecord(
                f"record {index}: header cut short at {len(head)} bytes"
            )
        header = MrtRecordHeader(*_COMMON_HEADER.unpack(head))
        try:
            body = f.read(header.length)
        except (OSError, EOFError) as exc:
            raise ContainerCorrupt(f"record {index}: {exc}") from exc
        if len(body) < header.length:
            raise TruncatedRecord(
                f"record {index}: body cut short ({len(body)} of {header.length} bytes)"
            )
        yield decode_entry(header, body)
        index += 1


class MrtReader:
    """Iterate a file's records while tallying per-kind counts."""

    def __init__(self, source: Union[str, Path, BinaryIO, bytes]):
        self.source = source
        self.stats = StreamStats()

    def __iter__(self) -> Iterator[MrtEntry]:
        for entry in read_mrt_stream(self.source):
            self.stats.count(entry)
            yield entry


def write_mrt_stream(
    entries: Iterable[MrtEntry],
    sink: Union[str, Path, BinaryIO],
    container: str = "plain",
) -> int:
    """Write records verbatim; returns the byte count written."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as f:
            return write_mrt_stream(entries, f, container)
    if container == "gzip":
        # no file name and a zero mtime in the header: same records, same bytes
        with gzip.GzipFile(
            fileobj=sink, mode="wb", filename="", mtime=0, compresslevel=6
        ) as z:
            return write_mrt_stream(entries, z, "plain")
    if container == "bzip2":
        with bz2.open(sink, "wb") as z:
            return write_mrt_stream(entries, z, "plain")
    if container != "plain":
        raise ValueError(f"unknown container {container!r}")
    total = 0
    try:
        for entry in entries:
            blob = entry.encode()
            sink.write(blob)
            total += len(blob)
    except OSError as exc:
        raise SinkFailure(str(exc)) from exc
    return total
