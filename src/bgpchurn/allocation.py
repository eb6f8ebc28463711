"""Registry allocation data and the unallocated-resource filter.

Ingests the pipe-separated delegated-extended statistics published by
the regional registries and answers "was this ASN / prefix allocated on
this date".  Records that predate table coverage pass through flagged
rather than being dropped.
"""

from __future__ import annotations

import bisect
import ipaddress
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from .errors import BgpChurnError
from .model import US_PER_DAY, UpdateRecord
from .mrt.bgp import BgpAttributes, PathElement, address_str

# delegated-extended status values that mean "usable on the internet"
ALLOCATED_STATUSES = frozenset({"allocated", "assigned"})

FLAG_TABLE_GAP = "table_gap"


def _date_key(yyyymmdd: str) -> int:
    return int(yyyymmdd) if yyyymmdd and yyyymmdd.isdigit() else 0


def _record_date_key(arrival_us: int) -> int:
    dt = datetime.fromtimestamp(arrival_us // 1_000_000, tz=timezone.utc)
    return dt.year * 10000 + dt.month * 100 + dt.day


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


class _IntervalSet:
    """Static interval stabbing: sorted starts + running max end.

    Built once from (first, last, valid_from) rows.  Query: did any
    interval containing x become valid on or before the query date?
    Intervals may overlap across registries; the running maximum of ends
    keeps lookups O(log n) without normalization.
    """

    def __init__(self, rows: Iterable[tuple[int, int, int]]):
        rows = sorted(rows)
        self.starts = [first for first, _, _ in rows]
        self.ends = [last for _, last, _ in rows]
        self.valid_from = [valid_from for _, _, valid_from in rows]
        self._max_ends = list(accumulate(self.ends, max))

    def covers(self, first: int, last: int, date_key: int) -> bool:
        """True iff one interval valid by date_key contains [first, last]."""
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

    asn_intervals: _IntervalSet
    v4_intervals: _IntervalSet
    v6_intervals: _IntervalSet
    earliest_date: int  # the smallest nonzero valid-from, 0 when no row has one

    def asn_allocated(self, asn: int, date_key: int) -> bool:
        return self.asn_intervals.covers(asn, asn, date_key)

    def prefix_allocated(self, prefix: str, date_key: int) -> bool:
        """Whether one block valid by date_key covers ``prefix``.

        Text that is no network address, such as "10.0.0.1/24", raises
        BgpChurnError.
        """
        span = _v4_span(prefix)
        if span is not None:
            return self.v4_intervals.covers(span[0], span[1], date_key)
        try:
            net = ipaddress.ip_network(prefix)
        except ValueError as exc:
            raise BgpChurnError(f"bad prefix {prefix!r}: {exc}") from exc
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
    # (first, last, valid_from) per family, in AllocationTable's field order
    rows: dict[str, list[tuple[int, int, int]]] = {"asn": [], "ipv4": [], "ipv6": []}
    dates: dict[str, int] = {}  # rows share few dates: one int object each
    for line in source:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 7:
            continue  # version / summary rows
        _reg, _cc, rtype, start, value, date, status = parts[:7]
        if status not in ALLOCATED_STATUSES or rtype not in rows:
            continue
        try:
            if rtype == "ipv6":
                net = ipaddress.IPv6Network(f"{start}/{value}")
                first, last = int(net.network_address), int(net.broadcast_address)
            else:  # a first ASN or IPv4 address and a count
                first = int(start if rtype == "asn" else ipaddress.IPv4Address(start))
                last = first + int(value) - 1
        except ValueError:
            continue
        valid_from = dates.setdefault(date, _date_key(date))
        rows[rtype].append((first, last, valid_from))
    earliest = min((v for group in rows.values() for *_, v in group if v), default=0)
    return AllocationTable(*map(_IntervalSet, rows.values()), earliest)


@dataclass
class FilterStats:
    kept: int = 0
    dropped_prefix: int = 0
    dropped_asn: int = 0
    table_gaps: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_prefix + self.dropped_asn


class AllocationFilter:
    """The allocation filter for one record at a time; see filter_allocated.

    Calling it returns the record (flagged table_gap when it predates
    the table) or None when the record is dropped.  The date key is
    worked out once per UTC day, and the path ASNs are judged once per
    attributes object and day: the records of one message share their
    attributes, so a message's path is checked once.  Each ASN is looked
    up in the table once per day, and a path's check stops at its first
    unallocated ASN.
    """

    def __init__(self, table: AllocationTable, stats: Optional[FilterStats] = None):
        self.table = table
        self.stats = stats if stats is not None else FilterStats()
        self._day: Optional[int] = None
        self._date_key, self._covered = 0, False
        # the verdict on _judged_attrs' path; no attributes, no path
        self._judged_attrs: Optional[BgpAttributes] = None
        self._path_allocated = True
        # asn -> allocated on _date_key
        self._asn_allocated: dict[int, bool] = {}

    def __call__(self, rec: UpdateRecord) -> Optional[UpdateRecord]:
        table, stats = self.table, self.stats
        rec_day = rec.arrival_us // US_PER_DAY
        if rec_day != self._day:
            self._day = rec_day
            self._date_key = _record_date_key(rec.arrival_us)
            self._covered = table.covers_date(self._date_key)
            self._judged_attrs, self._path_allocated = None, True
            self._asn_allocated = {}
        if not self._covered:
            stats.table_gaps += 1
            stats.kept += 1
            return rec.with_flag(FLAG_TABLE_GAP)
        date_key = self._date_key
        if not table.prefix_allocated(rec.prefix, date_key):
            stats.dropped_prefix += 1
            return None
        if rec.attrs is not None:
            if rec.attrs is not self._judged_attrs:
                self._judged_attrs = rec.attrs
                self._path_allocated = self._path_ok(rec.attrs.path)
            if not self._path_allocated:
                stats.dropped_asn += 1
                return None
        stats.kept += 1
        return rec

    def _path_ok(self, path: tuple[PathElement, ...]) -> bool:
        verdicts = self._asn_allocated
        for el in path:
            for asn in el if isinstance(el, tuple) else (el,):
                allocated = verdicts.get(asn)
                if allocated is None:
                    allocated = verdicts[asn] = self.table.asn_allocated(
                        asn, self._date_key
                    )
                if not allocated:
                    return False
        return True


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
