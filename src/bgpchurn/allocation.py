"""Registry allocation data and the unallocated-resource filter.

Ingests the pipe-separated delegated-extended statistics published by
the regional registries and answers "was this ASN / prefix allocated on
this date".  Records that predate table coverage pass through flagged
rather than being dropped.
"""

from __future__ import annotations

import bisect
import ipaddress
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from .model import UpdateRecord
from .mrt.bgp import address_str

# delegated-extended status values that mean "usable on the internet"
ALLOCATED_STATUSES = frozenset({"allocated", "assigned"})

FLAG_TABLE_GAP = "table_gap"


def _date_key(yyyymmdd: str) -> int:
    return int(yyyymmdd) if yyyymmdd and yyyymmdd.isdigit() else 0


def _record_date_key(arrival_us: int) -> int:
    dt = datetime.fromtimestamp(arrival_us // 1_000_000, tz=timezone.utc)
    return dt.year * 10000 + dt.month * 100 + dt.day


_US_PER_DAY = 86_400_000_000

_V4_HOST_MASKS = {str(n): (1 << (32 - n)) - 1 for n in range(33)}


def _v4_span(prefix: str) -> Optional[tuple[int, int]]:
    """First and last address of a canonical IPv4 CIDR ("10.0.0.0/8").

    None for any other text, including IPv6, leading zeros and set host
    bits, which ``ipaddress`` then parses or rejects.  The address is
    canonical when formatting its bytes gives the same text back.
    """
    addr, _, length = prefix.partition("/")
    host = _V4_HOST_MASKS.get(length)
    if host is None:
        return None
    try:
        packed = bytes(map(int, addr.split(".")))
    except ValueError:
        return None
    if len(packed) != 4 or address_str(packed) != addr:
        return None
    first = int.from_bytes(packed, "big")
    if first & host:
        return None
    return first, first | host


@dataclass
class _IntervalSet:
    """Static interval stabbing: sorted starts + running max end.

    Query: did any interval containing x become valid on or before the
    query date?  Intervals may overlap across registries; the running
    maximum of ends keeps lookups O(log n) without normalization.
    """

    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    valid_from: list = field(default_factory=list)
    _max_ends: list = field(default_factory=list)
    _frozen: bool = False

    def add(self, start: int, end: int, valid_from: int) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self.valid_from.append(valid_from)
        self._frozen = False

    def freeze(self) -> None:
        order = sorted(range(len(self.starts)), key=lambda i: self.starts[i])
        self.starts = [self.starts[i] for i in order]
        self.ends = [self.ends[i] for i in order]
        self.valid_from = [self.valid_from[i] for i in order]
        self._max_ends = []
        top = -1
        for e in self.ends:
            top = max(top, e)
            self._max_ends.append(top)
        self._frozen = True

    def covers(self, first: int, last: int, date_key: int) -> bool:
        """True iff one interval valid by date_key contains [first, last]."""
        if not self._frozen:
            self.freeze()
        hi = bisect.bisect_right(self.starts, first)
        # walk left only while some interval to the left can still reach last
        for i in range(hi - 1, -1, -1):
            if self._max_ends[i] < last:
                return False
            if self.ends[i] >= last and self.valid_from[i] <= date_key:
                return True
        return False


@dataclass
class AllocationTable:
    """ASN and prefix allocation intervals with valid-from dates."""

    asn_intervals: _IntervalSet = field(default_factory=_IntervalSet)
    v4_intervals: _IntervalSet = field(default_factory=_IntervalSet)
    v6_intervals: _IntervalSet = field(default_factory=_IntervalSet)
    earliest_date: int = 0

    def add_asn_range(self, first: int, count: int, valid_from: int = 0) -> None:
        self.asn_intervals.add(first, first + count - 1, valid_from)
        self._note_date(valid_from)

    def add_prefix(self, network, valid_from: int = 0) -> None:
        net = ipaddress.ip_network(network)
        first = int(net.network_address)
        last = int(net.broadcast_address)
        target = self.v4_intervals if net.version == 4 else self.v6_intervals
        target.add(first, last, valid_from)
        self._note_date(valid_from)

    def _note_date(self, valid_from: int) -> None:
        if valid_from and (not self.earliest_date or valid_from < self.earliest_date):
            self.earliest_date = valid_from

    def asn_allocated(self, asn: int, date_key: int) -> bool:
        return self.asn_intervals.covers(asn, asn, date_key)

    def prefix_allocated(self, prefix: str, date_key: int) -> bool:
        span = _v4_span(prefix)
        if span is not None:
            return self.v4_intervals.covers(span[0], span[1], date_key)
        net = ipaddress.ip_network(prefix)
        table = self.v4_intervals if net.version == 4 else self.v6_intervals
        return table.covers(
            int(net.network_address), int(net.broadcast_address), date_key
        )

    def covers_date(self, date_key: int) -> bool:
        return bool(self.earliest_date) and date_key >= self.earliest_date


def load_delegated(source: Union[str, Path, IO[str], Iterable[str]]) -> AllocationTable:
    """Parse one or more concatenated delegated-extended files.

    Line layout: registry|cc|type|start|value|date|status[|opaque-id].
    Only allocated/assigned asn, ipv4 and ipv6 rows are kept.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            return load_delegated(f)
    table = AllocationTable()
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 7:
            continue  # version / summary rows
        _reg, _cc, rtype, start, value, date, status = parts[:7]
        if status not in ALLOCATED_STATUSES:
            continue
        valid_from = _date_key(date)
        try:
            if rtype == "asn":
                table.add_asn_range(int(start), int(value), valid_from)
            elif rtype == "ipv4":
                first = int(ipaddress.IPv4Address(start))
                table.v4_intervals.add(first, first + int(value) - 1, valid_from)
                table._note_date(valid_from)
            elif rtype == "ipv6":
                table.add_prefix(f"{start}/{value}", valid_from)
        except (ValueError, ipaddress.AddressValueError):
            continue
    return table


@dataclass
class FilterStats:
    kept: int = 0
    dropped_prefix: int = 0
    dropped_asn: int = 0
    table_gaps: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_prefix + self.dropped_asn


def _path_asns(record: UpdateRecord) -> Iterator[int]:
    for el in record.path_elements():
        if isinstance(el, tuple):
            yield from el
        else:
            yield el


class AllocationFilter:
    """The allocation filter for one record at a time; see filter_allocated.

    Calling it returns the record (flagged table_gap when it predates
    the table) or None when the record is dropped.  The date key is
    worked out once per UTC day.
    """

    def __init__(self, table: AllocationTable, stats: Optional[FilterStats] = None):
        self.table = table
        self.stats = stats if stats is not None else FilterStats()
        self._day: Optional[int] = None
        self._date_key, self._covered = 0, False

    def __call__(self, rec: UpdateRecord) -> Optional[UpdateRecord]:
        table, stats = self.table, self.stats
        rec_day = rec.arrival_us // _US_PER_DAY
        if rec_day != self._day:
            self._day = rec_day
            self._date_key = _record_date_key(rec.arrival_us)
            self._covered = table.covers_date(self._date_key)
        if not self._covered:
            stats.table_gaps += 1
            stats.kept += 1
            return rec.with_flag(FLAG_TABLE_GAP)
        date_key = self._date_key
        if not table.prefix_allocated(rec.prefix, date_key):
            stats.dropped_prefix += 1
            return None
        if rec.is_announcement and any(
            not table.asn_allocated(asn, date_key) for asn in _path_asns(rec)
        ):
            stats.dropped_asn += 1
            return None
        stats.kept += 1
        return rec


def filter_allocated(
    records: Iterable[UpdateRecord],
    table: AllocationTable,
    stats: Optional[FilterStats] = None,
) -> Iterator[UpdateRecord]:
    """Drop records with unallocated prefixes or path ASNs.

    Withdrawals are checked on prefix only.  A record dated before the
    table's coverage is flagged table_gap and passed through.
    """
    check = AllocationFilter(table, stats)
    return (rec for rec in map(check, records) if rec is not None)
