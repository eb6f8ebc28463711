"""Six-type labeling of announcement streams.

Each announcement is compared against the previous announcement for
the same (session, prefix) stream.  The label's first letter is the
AS-path verdict (p=changed, n=same, x=prepending-only change) and the
second letter the community verdict (c=changed, n=same).  The first
announcement of a stream has no predecessor and is labeled initial.
"""

from __future__ import annotations

import csv
import enum
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from .mrt.bgp import PathElement
from .model import ANNOUNCEMENT, WITHDRAWAL, SessionKey, UpdateRecord

FLAG_OUT_OF_ORDER = "out_of_order"
FLAG_MED_CHANGED = "med_changed"
FLAG_REORDER_MULTISET = "reorder_equal_multiset"


class AnnouncementType(str, enum.Enum):
    PC = "pc"
    PN = "pn"
    NC = "nc"
    NN = "nn"
    XC = "xc"
    XN = "xn"
    INITIAL = "initial"

    def __str__(self) -> str:  # csv-friendly
        return self.value


LABELED_TYPES = (
    AnnouncementType.PC,
    AnnouncementType.PN,
    AnnouncementType.NC,
    AnnouncementType.NN,
    AnnouncementType.XC,
    AnnouncementType.XN,
)

UNNECESSARY_TYPES = frozenset({AnnouncementType.NC, AnnouncementType.NN})


def collapse_path(path: tuple[PathElement, ...]) -> tuple[PathElement, ...]:
    """Merge consecutive duplicate elements (undo prepending)."""
    out: list[PathElement] = []
    for el in path:
        if not out or out[-1] != el:
            out.append(el)
    return tuple(out)


def path_verdict(prev: tuple[PathElement, ...], cur: tuple[PathElement, ...]) -> str:
    """p / n / x verdict for one pair of AS paths.

    n: element-wise equal.  x: unequal but equal after collapsing
    consecutive duplicates, i.e. pure prepending inflation or
    deflation.  p: anything else, including reorderings.
    """
    if prev == cur:
        return "n"
    if collapse_path(prev) == collapse_path(cur):
        return "x"
    return "p"


def community_verdict(prev: Iterable[int], cur: Iterable[int]) -> str:
    """c / n verdict: order-insensitive multiset equality."""
    if prev == cur:  # equal sequences: skip building the multisets
        return "n"
    return "n" if Counter(prev) == Counter(cur) else "c"


_VERDICT_TO_TYPE = {
    ("p", "c"): AnnouncementType.PC,
    ("p", "n"): AnnouncementType.PN,
    ("n", "c"): AnnouncementType.NC,
    ("n", "n"): AnnouncementType.NN,
    ("x", "c"): AnnouncementType.XC,
    ("x", "n"): AnnouncementType.XN,
}


@dataclass(slots=True)
class StreamState:
    """Predecessor attributes for one (session, prefix) stream."""

    last_path: tuple[PathElement, ...]
    last_communities: tuple[int, ...]
    last_med: Optional[int]
    last_kind: str
    last_arrival_us: int


@dataclass(frozen=True)
class LabeledRecord:
    record: UpdateRecord
    label: AnnouncementType
    after_withdrawal: bool = False

    @property
    def flags(self) -> tuple[str, ...]:
        return self.record.flags


@dataclass
class TypeTally:
    """Counts per label plus the per-peer nc/nn breakdown."""

    counts: Counter = field(default_factory=Counter)
    per_peer: dict[int, list[int]] = field(default_factory=dict)
    withdrawals: int = 0
    reorder_multiset_cases: int = 0

    def add(self, labeled: LabeledRecord) -> None:
        self.counts[labeled.label] += 1
        if labeled.label in UNNECESSARY_TYPES:
            slot = self.per_peer.setdefault(labeled.record.session.peer_asn, [0, 0])
            slot[0 if labeled.label is AnnouncementType.NC else 1] += 1
        if FLAG_REORDER_MULTISET in labeled.record.flags:
            self.reorder_multiset_cases += 1

    def merge(self, other: "TypeTally") -> "TypeTally":
        self.counts.update(other.counts)
        for peer, (nc, nn) in other.per_peer.items():
            slot = self.per_peer.setdefault(peer, [0, 0])
            slot[0] += nc
            slot[1] += nn
        self.withdrawals += other.withdrawals
        self.reorder_multiset_cases += other.reorder_multiset_cases
        return self

    @property
    def announcements(self) -> int:
        return sum(self.counts.values())

    @property
    def labeled(self) -> int:
        return self.announcements - self.counts[AnnouncementType.INITIAL]

    def shares(self) -> dict[AnnouncementType, float]:
        """Per-type share over labeled (non-initial) announcements."""
        total = self.labeled
        if total == 0:
            return {t: 0.0 for t in LABELED_TYPES}
        return {t: self.counts[t] / total for t in LABELED_TYPES}


class StreamClassifier:
    """Streaming labeler; feed records in arrival order."""

    def __init__(self):
        self.state: dict[tuple[SessionKey, str], StreamState] = {}
        self.tally = TypeTally()

    def observe(self, record: UpdateRecord) -> Optional[LabeledRecord]:
        """Label one record; withdrawals return None and update state."""
        key = (record.session, record.prefix)
        state = self.state.get(key)
        if record.kind == WITHDRAWAL:
            self.tally.withdrawals += 1
            if state is not None:
                state.last_kind = WITHDRAWAL
                state.last_arrival_us = record.arrival_us
            return None
        path = record.path_elements()
        communities = record.communities()
        med = record.attrs.med if record.attrs else None
        if state is None:
            self.state[key] = StreamState(
                path, communities, med, ANNOUNCEMENT, record.arrival_us
            )
            labeled = LabeledRecord(record, AnnouncementType.INITIAL)
            self.tally.add(labeled)
            return labeled
        if record.arrival_us < state.last_arrival_us:
            record = record.with_flag(FLAG_OUT_OF_ORDER)
        pv = path_verdict(state.last_path, path)
        cv = community_verdict(state.last_communities, communities)
        if pv == "p" and Counter(state.last_path) == Counter(path):
            # reordering with equal multiset: p by rule, counted apart
            record = record.with_flag(FLAG_REORDER_MULTISET)
        label = _VERDICT_TO_TYPE[(pv, cv)]
        if label is AnnouncementType.NN and med != state.last_med:
            record = record.with_flag(FLAG_MED_CHANGED)
        labeled = LabeledRecord(
            record, label, after_withdrawal=state.last_kind == WITHDRAWAL
        )
        state.last_path = path
        state.last_communities = communities
        state.last_med = med
        state.last_kind = ANNOUNCEMENT
        state.last_arrival_us = record.arrival_us
        self.tally.add(labeled)
        return labeled

    def process(self, records: Iterable[UpdateRecord]) -> Iterator[LabeledRecord]:
        for record in records:
            labeled = self.observe(record)
            if labeled is not None:
                yield labeled


def classify_stream(records: Iterable[UpdateRecord]) -> Iterator[LabeledRecord]:
    yield from StreamClassifier().process(records)


def tally(records: Iterable[UpdateRecord]) -> TypeTally:
    clf = StreamClassifier()
    for _ in clf.process(records):
        pass
    return clf.tally


# ---------------------------------------------------------------------------
# report output

TALLY_HEADER = ["type", "count", "share"]
PEER_HEADER = ["peer_asn", "nc_count", "nn_count"]


def write_tally_csv(t: TypeTally, sink: Union[str, Path, IO[str]]) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="", encoding="utf-8") as f:
            write_tally_csv(t, f)
        return
    w = csv.writer(sink)
    w.writerow(TALLY_HEADER)
    shares = t.shares()
    for kind in LABELED_TYPES:
        w.writerow([kind.value, t.counts[kind], f"{shares[kind]:.6f}"])
    w.writerow([AnnouncementType.INITIAL.value, t.counts[AnnouncementType.INITIAL], ""])


def write_peer_csv(t: TypeTally, sink: Union[str, Path, IO[str]]) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="", encoding="utf-8") as f:
            write_peer_csv(t, f)
        return
    w = csv.writer(sink)
    w.writerow(PEER_HEADER)
    for peer in sorted(t.per_peer):
        nc, nn = t.per_peer[peer]
        w.writerow([peer, nc, nn])
