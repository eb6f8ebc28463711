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
import struct
import zlib
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Union

from ..addr import address_text
from ..errors import BgpParseError, MrtError
from .bgp import MSG_UPDATE, RawBgpMessage, decode_update_body, split_bgp_message

# MRT record types
TYPE_BGP4MP = 16
TYPE_BGP4MP_ET = 17
# the record types of an update file; its first record must be one of them
UPDATE_TYPES = (TYPE_BGP4MP, TYPE_BGP4MP_ET)

# MrtEntry.kind; "other" is any record no stage reads, such as a KEEPALIVE
RECORD_KINDS = ("update", "state_change", "addpath", "undecodable", "other")

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
# the kind of each other BGP4MP subtype's record, which is not decoded
_UNDECODED_SUBTYPES = {
    BGP4MP_STATE_CHANGE: "state_change",
    BGP4MP_STATE_CHANGE_AS4: "state_change",
    BGP4MP_MESSAGE_ADDPATH: "addpath",
    BGP4MP_MESSAGE_AS4_ADDPATH: "addpath",
    BGP4MP_MESSAGE_LOCAL_ADDPATH: "addpath",
    BGP4MP_MESSAGE_AS4_LOCAL_ADDPATH: "addpath",
}

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
# what fails an input: the file system's, a container's, UTF-8's or MRT's errors
INPUT_ERRORS = (OSError, EOFError, zlib.error, UnicodeDecodeError, MrtError)
# the container a file's name promises
CONTAINER_OF_SUFFIX = {".gz": "gzip", ".bz2": "bzip2"}
# each compressed container's reader over an open binary file
_DECOMPRESSORS = {"gzip": gzip.open, "bzip2": bz2.open}


# BGP4MP address family -> address length
_ADDRESS_LENGTHS = {1: 4, 2: 16}

# compressed inputs are read, and outputs written, in pieces of this size
_CHUNK = 64 * 1024

# NamedTuple construction through its Python __new__ costs a frame
_new = tuple.__new__

# every UPDATE of a session repeats its peer address: format each once
_peer_address = lru_cache(maxsize=1024)(address_text)


class MrtRecordHeader(NamedTuple):
    timestamp: int
    type: int
    subtype: int
    length: int

    def encode(self) -> bytes:
        return _COMMON_HEADER.pack(*self)


class MrtEntry(NamedTuple):
    """One MRT record: verbatim bytes plus a best-effort decoded view.

    ``body`` is everything after the 12-byte common header, including
    the microsecond field of extended-timestamp records, so that
    ``header.encode() + body`` always reproduces the input.  ``message``
    is the decoded UPDATE, and None for every other kind; ``note`` says
    why an undecodable record failed.
    """

    header: MrtRecordHeader
    body: bytes
    kind: str  # one of RECORD_KINDS
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


def _decode_bgp4mp_message(
    body: bytes, subtype: int, offset: int
) -> Optional[RawBgpMessage]:
    """Decode a BGP4MP (ET offset already applied) message body.

    Returns the decoded message when it is an UPDATE, else None.
    Layout: peer AS, local AS (2 or 4 bytes each), interface index,
    address family, peer address, local address, raw BGP message.  The
    local AS and address are bounds-checked, not decoded.
    """
    as4 = _MESSAGE_SUBTYPES[subtype]
    i = offset + (8 if as4 else 4) + 4  # past the two ASes, interface index and AFI
    if len(body) < i:
        raise BgpParseError("BGP4MP message header truncated")
    (peer_asn,) = struct.unpack_from("!I" if as4 else "!H", body, offset)
    (afi,) = struct.unpack_from("!H", body, i - 2)
    addr_len = _ADDRESS_LENGTHS.get(afi)
    if addr_len is None:
        raise BgpParseError(f"BGP4MP unknown address family {afi}")
    if len(body) < i + 2 * addr_len:
        raise BgpParseError("BGP4MP addresses truncated")
    msg_type, payload = split_bgp_message(body[i + 2 * addr_len :])
    if msg_type != MSG_UPDATE:
        return None
    peer_address = _peer_address(body[i : i + addr_len])
    withdrawn, announced, attributes = decode_update_body(payload, as4)
    return _new(
        RawBgpMessage, (peer_asn, peer_address, withdrawn, announced, attributes)
    )


def decode_entry(header: MrtRecordHeader, body: bytes) -> MrtEntry:
    """Classify one record and decode it when it is a BGP4MP message."""
    microsecond = 0
    offset = 0
    if header.type == TYPE_BGP4MP_ET:
        if len(body) < 4:
            raise MrtError("extended timestamp record shorter than 4 bytes")
        (microsecond,) = struct.unpack_from("!I", body)
        offset = 4
    if header.type not in UPDATE_TYPES:
        return _new(MrtEntry, (header, body, "other", None, microsecond, None))
    if header.subtype not in _MESSAGE_SUBTYPES:
        kind = _UNDECODED_SUBTYPES.get(header.subtype, "other")
        return _new(MrtEntry, (header, body, kind, None, microsecond, None))
    try:
        message = _decode_bgp4mp_message(body, header.subtype, offset)
    except BgpParseError as exc:
        return _new(MrtEntry, (header, body, "undecodable", None, microsecond, str(exc)))
    kind = "other" if message is None else "update"
    return _new(MrtEntry, (header, body, kind, message, microsecond, None))


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


@contextmanager
def open_archive(
    source: Union[str, Path, BinaryIO], container: str = "auto"
) -> Iterator[BinaryIO]:
    """A reader over a path, opened once, or over a binary stream.

    With ``auto`` a path's container comes from a peek of its magic
    bytes; a stream must name its container.  On exit it closes what it
    opened, never a stream passed in.  A compressed reader is buffered in
    ``_CHUNK`` pieces, so the small reads of each record are served
    without a call into the decompressor.
    """
    with ExitStack() as opened:
        if isinstance(source, (str, Path)):
            source = opened.enter_context(open(source, "rb"))
            if container == "auto":
                container = _container_of(source.peek(3))
        if container in _DECOMPRESSORS:
            source = _DECOMPRESSORS[container](source, "rb")
            source = opened.enter_context(io.BufferedReader(source, _CHUNK))
        elif container != "plain":
            raise ValueError(f"unknown container {container!r}")
        yield source


def read_mrt_stream(
    source: Union[str, Path, BinaryIO, bytes], container: str = "auto"
) -> Iterator[MrtEntry]:
    """Yield the MrtEntry objects of an update file: a path, bytes or a
    binary stream whose first record is BGP4MP or BGP4MP_ET.

    With ``auto`` the container of a path or of the bytes comes from
    its magic bytes; a stream must name its container.
    """
    if isinstance(source, bytes):
        if container == "auto":
            container = _container_of(source)
        source = io.BytesIO(source)
    with open_archive(source, container) as f:
        yield from _read_stream(f)


def _read_long(f: BinaryIO, length: int) -> bytes:
    """A body longer than ``_CHUNK``, read in ``_CHUNK`` pieces: a corrupt
    32-bit length then costs what the file holds, not what it claims."""
    body = bytearray()
    while len(body) < length:
        piece = f.read(min(length - len(body), _CHUNK))
        if not piece:
            break
        body += piece
    return bytes(body)


def _read_stream(f: BinaryIO) -> Iterator[MrtEntry]:
    """A first record of another type than UPDATE_TYPES is refused from
    its header, before its body is read; a later one passes through.
    Every other error, the container's or the record's, names the
    record's index."""
    index = 0
    while True:
        try:
            head = f.read(_COMMON_HEADER.size)
            if not head:
                return
            if len(head) < _COMMON_HEADER.size:
                raise MrtError(f"header cut short at {len(head)} bytes")
            header = _new(MrtRecordHeader, _COMMON_HEADER.unpack(head))
            if not index and header.type not in UPDATE_TYPES:
                break
            length = header.length
            body = f.read(length) if length <= _CHUNK else _read_long(f, length)
            if len(body) < length:
                raise MrtError(f"body cut short ({len(body)} of {length} bytes)")
            entry = decode_entry(header, body)
        except INPUT_ERRORS as exc:
            raise MrtError(f"record {index}: {exc}") from exc
        yield entry
        index += 1
    raise MrtError(f"not an update file: first record type {header.type}")


def write_mrt_stream(
    entries: Iterable[MrtEntry],
    sink: BinaryIO,
    container: str = "plain",
) -> int:
    """Write records verbatim to a binary handle; returns the byte count.

    Records are joined into writes of about ``_CHUNK`` bytes.
    """
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
    chunk = bytearray()
    try:
        for entry in entries:
            chunk += entry.encode()
            if len(chunk) >= _CHUNK:
                sink.write(chunk)
                total += len(chunk)
                chunk = bytearray()  # the sink may keep what it was given
        if chunk:
            sink.write(chunk)
    except OSError as exc:
        raise MrtError(str(exc)) from exc
    return total + len(chunk)
