"""Registry allocation data and the unallocated-resource filter.

Ingests the pipe-separated delegated-extended statistics published by
the regional registries and answers "was this ASN / prefix allocated on
this date".  Records that predate table coverage pass through flagged
rather than being dropped.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from .addr import ipv4_int, network_span
from .errors import BgpChurnError
from .model import US_PER_DAY, UpdateRecord
from .mrt.bgp import BgpAttributes, PathElement

# delegated-extended status values that mean "usable on the internet"
ALLOCATED_STATUSES = frozenset({"allocated", "assigned"})

FLAG_TABLE_GAP = "table_gap"


def _date_key(yyyymmdd: str) -> int:
    """Eight ASCII digits as an int, an empty date (undated) as 0; any
    other text raises ValueError."""
    if not yyyymmdd:
        return 0
    if len(yyyymmdd) != 8 or not (yyyymmdd.isascii() and yyyymmdd.isdigit()):
        raise ValueError(f"bad date {yyyymmdd!r}")
    return int(yyyymmdd)


# 9999-12-31T23:59:59Z: a later arrival is judged as of 99991231, the last
# date an 8-digit delegated date names, since datetime stops at year 9999
_LAST_SECOND = 253_402_300_799


def _record_date_key(arrival_us: int) -> int:
    second = min(arrival_us // 1_000_000, _LAST_SECOND)
    dt = datetime.fromtimestamp(second, tz=timezone.utc)
    return dt.year * 10000 + dt.month * 100 + dt.day


class _IntervalSet:
    """Static interval stabbing: sorted starts, and per date a running max end.

    Built once from (first, last, valid_from) rows.  Query: did one
    interval valid by the query date contain [first, last]?  For a date,
    ``reach[i]`` is the largest end among rows ``0..i`` that are valid by
    then, so a lookup is one bisect and one read: O(log n) whatever the
    rows' overlap.  Only the last date's reach array is kept, so each
    change of the query date costs one O(n) build; records in day order
    pay it once per day.
    """

    def __init__(self, rows: Iterable[tuple[int, int, int]]):
        rows = sorted(rows)
        self.starts = [first for first, _, _ in rows]
        self.ends = [last for _, last, _ in rows]
        self.valid_from = [valid_from for _, _, valid_from in rows]
        self._date: Optional[int] = None
        self._reach: list = []

    def _build_reach(self, date_key: int) -> list:
        below = float("-inf")  # no row valid yet reaches anything
        return list(accumulate(
            (last if valid_from <= date_key else below
             for last, valid_from in zip(self.ends, self.valid_from)),
            max,
        ))

    def covers(self, first: int, last: int, date_key: int) -> bool:
        """True iff one interval valid by date_key contains [first, last]."""
        if date_key != self._date:
            self._date, self._reach = date_key, self._build_reach(date_key)
        hi = bisect.bisect_right(self.starts, first)
        return hi > 0 and self._reach[hi - 1] >= last


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
        v6 = ":" in prefix
        try:
            first, host = network_span(prefix, v6)
        except ValueError as exc:
            raise BgpChurnError(f"bad prefix {prefix!r}: {exc}") from exc
        table = self.v6_intervals if v6 else self.v4_intervals
        return table.covers(first, first | host, date_key)

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
                first, host = network_span(f"{start}/{value}", True)
                last = first | host
            else:  # a first ASN or IPv4 address, and a count of at least 1
                # in ASCII digits: int() alone also takes "+32", " 8" and "1_0"
                count = int(value) if value.isascii() and value.isdigit() else 0
                if count == 0 or rtype == "asn" and not (start.isascii() and start.isdigit()):
                    continue
                first = int(start) if rtype == "asn" else ipv4_int(start)
                last = first + count - 1
            valid_from = dates.get(date)
            if valid_from is None:
                valid_from = dates[date] = _date_key(date)
        except ValueError:
            continue
        rows[rtype].append((first, last, valid_from))
    # dates holds the dates of kept rows only
    earliest = min(filter(None, dates.values()), default=0)
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
