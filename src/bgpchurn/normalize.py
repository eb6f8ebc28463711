"""Record cleaning: allocation filter, route-server path repair,
timestamp disambiguation.

A Normalizer applies all three to one record at a time, in that order,
so the pipeline can clean records as it expands them.  Repair and
disambiguation are order-preserving and idempotent.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, Optional

from .allocation import AllocationFilter, AllocationTable, FilterStats
from .model import UpdateRecord

FLAG_REPAIRED_PATH = "repaired_path"
FLAG_ANOMALOUS_EMPTY_PATH = "anomalous_empty_path"
FLAG_OVERFLOW_SECOND = "overflow_second"


def repair_route_server_path(record: UpdateRecord) -> UpdateRecord:
    """Prepend the peer ASN when a route server left itself off the path.

    Applies to announcements whose leftmost AS differs from the session
    peer; an empty path becomes just the peer ASN and is flagged
    anomalous.  Multi-hop gaps beyond the one missing ASN cannot be
    detected here and are left alone.
    """
    if not record.is_announcement or record.attrs is None:
        return record
    peer = record.session.peer_asn
    path = record.attrs.path
    if path and path[0] == peer:
        return record
    attrs = replace(record.attrs, path=(peer,) + path)
    flagged = record.with_flag(FLAG_REPAIRED_PATH)
    if not path:
        flagged = flagged.with_flag(FLAG_ANOMALOUS_EMPTY_PATH)
    return replace(flagged, attrs=attrs)


class Normalizer:
    """The full cleaning pipeline, one record per call, in publication order.

    Allocation filter (when a table is given), route-server repair,
    then timestamp disambiguation.  A call returns the cleaned record,
    or None when the filter drops it.  The current same-second run is
    kept between calls, so one Normalizer cleans one stream in arrival
    order.
    """

    def __init__(
        self,
        allocation: Optional[AllocationTable] = None,
        allocation_stats: Optional[FilterStats] = None,
    ):
        self._allocated = (
            AllocationFilter(allocation, allocation_stats)
            if allocation is not None
            else None
        )
        self._run_second: Optional[int] = None
        self._run_index = 0

    def __call__(self, rec: UpdateRecord) -> Optional[UpdateRecord]:
        if self._allocated is not None:
            rec = self._allocated(rec)
            if rec is None:
                return None
        return self.disambiguate(repair_route_server_path(rec))

    def disambiguate(self, rec: UpdateRecord) -> UpdateRecord:
        """Spread same-second runs of coarse timestamps by +1 us per record.

        Only records without native microsecond stamps are renumbered; a
        run longer than 10^6 spills into the next second's range and is
        flagged.  Native-stamped records break a run.
        """
        if rec.native_usec:
            self._run_second = None
            return rec
        second = rec.arrival_us // 1_000_000
        if second != self._run_second:
            self._run_second = second
            self._run_index = 1
            return rec
        index = self._run_index
        self._run_index += 1
        bumped = replace(rec, arrival_us=second * 1_000_000 + index)
        if index >= 1_000_000:
            bumped = bumped.with_flag(FLAG_OVERFLOW_SECOND)
        return bumped


def disambiguate_timestamps(
    records: Iterable[UpdateRecord],
) -> Iterator[UpdateRecord]:
    """Normalizer.disambiguate over a whole stream."""
    return map(Normalizer().disambiguate, records)


def normalize_stream(
    records: Iterable[UpdateRecord],
    allocation: Optional[AllocationTable] = None,
    allocation_stats: Optional[FilterStats] = None,
) -> Iterator[UpdateRecord]:
    """One Normalizer over a whole stream; dropped records are left out."""
    step = Normalizer(allocation, allocation_stats)
    return (rec for rec in map(step, records) if rec is not None)
