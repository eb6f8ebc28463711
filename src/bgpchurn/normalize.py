"""Record cleaning: allocation filter, route-server path repair,
timestamp disambiguation.

A Normalizer applies all three to one record at a time, in that order,
so the pipeline can clean records as it expands them.  Repair and
disambiguation are order-preserving and idempotent.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .model import UpdateRecord

if TYPE_CHECKING:  # an annotation only; classify imports it with --allocation
    from .allocation import AllocationFilter

# NamedTuple construction through its Python __new__ costs a frame
_new = tuple.__new__

FLAG_REPAIRED_PATH = "repaired_path"
FLAG_ANOMALOUS_EMPTY_PATH = "anomalous_empty_path"
FLAG_OVERFLOW_SECOND = "overflow_second"
FLAG_REOPENED_SECOND = "reopened_second"

# the flags a Normalizer sets, in the order classify_report.json lists them
NORMALIZER_FLAGS = (
    FLAG_REPAIRED_PATH,
    FLAG_ANOMALOUS_EMPTY_PATH,
    FLAG_OVERFLOW_SECOND,
    FLAG_REOPENED_SECOND,
)


def repair_route_server_path(record: UpdateRecord) -> UpdateRecord:
    """Prepend the peer ASN when a route server left itself off the path.

    Applies to announcements whose leftmost AS differs from the session
    peer; an empty path becomes just the peer ASN and is flagged
    anomalous.  Multi-hop gaps beyond the one missing ASN cannot be
    detected here and are left alone.
    """
    if record.attrs is None:  # a withdrawal
        return record
    peer = record.session.peer_asn
    path = record.attrs.path
    if path and path[0] == peer:
        return record
    attrs = record.attrs._replace(path=(peer,) + path)
    flagged = record.with_flag(FLAG_REPAIRED_PATH)
    if not path:
        flagged = flagged.with_flag(FLAG_ANOMALOUS_EMPTY_PATH)
    return flagged._replace(attrs=attrs)


class Normalizer:
    """The full cleaning pipeline, one record per call, in publication order.

    Allocation filter (when one is given), route-server repair, then
    timestamp disambiguation.  A call returns the cleaned record, or
    None when the filter drops it.  The count of the current second is
    kept between calls, so one Normalizer cleans one stream in arrival order.
    ``flags`` counts the records it flags, per flag.
    """

    def __init__(self, allocated: Optional[AllocationFilter] = None):
        self._allocated = allocated
        self._run_second: Optional[int] = None
        self._run_index = 0
        self._latest_second: Optional[int] = None
        self.flags: Counter = Counter()

    def __call__(self, rec: UpdateRecord) -> Optional[UpdateRecord]:
        if self._allocated is not None:
            rec = self._allocated(rec)
            if rec is None:
                return None
        repaired = repair_route_server_path(rec)
        if repaired is not rec:  # count the flags the repair added
            self.flags.update(repaired.flags[len(rec.flags):])
        return self.disambiguate(repaired)

    def disambiguate(self, rec: UpdateRecord) -> UpdateRecord:
        """Number the records without native microseconds within their second.

        Such a record's stamp becomes its UTC second x 10^6 plus its
        0-based position among that second's non-native records, so any
        sub-second digits it came with are replaced.  Native-stamped
        records are left alone and do not interrupt the count.  A second
        with more than 10^6 such records spills into the next second's
        range, and each record that spills is flagged.  A second that comes
        back after a later one is counted anew and may repeat a stamp, so
        each record from a second before the latest numbered is flagged.
        """
        if rec.native_usec:
            return rec
        second = rec.arrival_us // 1_000_000
        if second == self._run_second:
            self._run_index += 1
        else:
            self._run_second, self._run_index = second, 0
            if self._latest_second is None or second > self._latest_second:
                self._latest_second = second
        index = self._run_index
        stamp = second * 1_000_000 + index
        if rec.arrival_us != stamp:
            rec = _new(UpdateRecord, (stamp, *rec[1:]))
        if index >= 1_000_000:
            self.flags[FLAG_OVERFLOW_SECOND] += 1
            rec = rec.with_flag(FLAG_OVERFLOW_SECOND)
        if second < self._latest_second:
            self.flags[FLAG_REOPENED_SECOND] += 1
            rec = rec.with_flag(FLAG_REOPENED_SECOND)
        return rec


def normalize_stream(records: Iterable[UpdateRecord]) -> Iterator[UpdateRecord]:
    """Route-server repair and timestamp disambiguation over a whole stream."""
    return map(Normalizer(), records)
