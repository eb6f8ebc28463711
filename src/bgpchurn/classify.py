"""Six-type labeling of announcement streams.

Each announcement is compared against the previous announcement for
the same (session, prefix) stream.  The label's first letter is the
AS-path verdict (p=changed, n=same, x=prepending-only change) and the
second letter the community verdict (c=changed, n=same).  The first
announcement of a stream has no predecessor and is labeled initial.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .mrt.bgp import PathElement
from .model import SessionKey, UpdateRecord
from .output import write_csv

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
    """c / n verdict: order-insensitive multiset equality.

    Communities are ints, so sorting both sides compares them as
    multisets.
    """
    if prev == cur:  # equal sequences: skip sorting
        return "n"
    return "n" if sorted(prev) == sorted(cur) else "c"


# a label's value is its verdict pair, path verdict first
_LABEL_OF_VERDICTS = {t.value: t for t in LABELED_TYPES}


@dataclass(slots=True)
class StreamState:
    """Predecessor attributes for one (session, prefix) stream."""

    last_path: tuple[PathElement, ...]
    last_communities: tuple[int, ...]
    last_med: Optional[int]
    withdrawn: bool
    last_arrival_us: int


class LabeledRecord(NamedTuple):
    record: UpdateRecord
    label: AnnouncementType
    after_withdrawal: bool = False


# NamedTuple construction through its Python __new__ costs a frame
_new = tuple.__new__


# the flags observe sets, in the order classify_report.json lists them
CLASSIFIER_FLAGS = (FLAG_OUT_OF_ORDER, FLAG_REORDER_MULTISET, FLAG_MED_CHANGED)


@dataclass
class TypeTally:
    """Counts per label and per flag observe sets, and per-peer nc/nn."""

    counts: Counter = field(default_factory=Counter)
    per_peer: dict[int, list[int]] = field(default_factory=dict)
    withdrawals: int = 0
    flags: Counter = field(default_factory=Counter)

    def add(self, labeled: LabeledRecord) -> None:
        self.counts[labeled.label] += 1
        if labeled.label in UNNECESSARY_TYPES:
            slot = self.per_peer.setdefault(labeled.record.session.peer_asn, [0, 0])
            slot[0 if labeled.label is AnnouncementType.NC else 1] += 1

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

    def _flagged(self, record: UpdateRecord, flag: str) -> UpdateRecord:
        self.tally.flags[flag] += 1
        return record.with_flag(flag)

    def observe(self, record: UpdateRecord) -> Optional[LabeledRecord]:
        """Label one record; withdrawals return None and update state."""
        key = (record.session, record.prefix)
        state = self.state.get(key)
        attrs = record.attrs
        if attrs is None:
            self.tally.withdrawals += 1
            if state is not None:
                state.withdrawn = True
                state.last_arrival_us = record.arrival_us
            return None
        path, communities, med = attrs.path, attrs.communities, attrs.med
        if state is None:
            self.state[key] = StreamState(
                path, communities, med, False, record.arrival_us
            )
            labeled = _new(LabeledRecord, (record, AnnouncementType.INITIAL, False))
            self.tally.add(labeled)
            return labeled
        if record.arrival_us < state.last_arrival_us:
            record = self._flagged(record, FLAG_OUT_OF_ORDER)
        last_path = state.last_path
        if path is last_path and communities is state.last_communities:
            # a repeat of a decoded attribute block shares its objects
            label = AnnouncementType.NN
        else:
            pv = path_verdict(last_path, path)
            cv = community_verdict(state.last_communities, communities)
            if (
                pv == "p"
                and len(last_path) == len(path)
                and Counter(last_path) == Counter(path)
            ):
                # reordering with equal multiset: p by rule, counted apart
                record = self._flagged(record, FLAG_REORDER_MULTISET)
            label = _LABEL_OF_VERDICTS[pv + cv]
        if label is AnnouncementType.NN and med != state.last_med:
            record = self._flagged(record, FLAG_MED_CHANGED)
        labeled = _new(LabeledRecord, (record, label, state.withdrawn))
        state.last_path = path
        state.last_communities = communities
        state.last_med = med
        state.withdrawn = False
        state.last_arrival_us = record.arrival_us
        self.tally.add(labeled)
        return labeled

    def process(self, records: Iterable[UpdateRecord]) -> Iterator[LabeledRecord]:
        for record in records:
            labeled = self.observe(record)
            if labeled is not None:
                yield labeled


# ---------------------------------------------------------------------------
# report output


def write_tally_csv(t: TypeTally, path: Union[str, Path]) -> None:
    shares = t.shares()
    rows = [(kind.value, t.counts[kind], shares[kind]) for kind in LABELED_TYPES]
    initial = AnnouncementType.INITIAL
    rows.append((initial.value, t.counts[initial], ""))
    write_csv(path, ["type", "count", "share"], rows)


def write_peer_csv(t: TypeTally, path: Union[str, Path]) -> None:
    rows = ((peer, *t.per_peer[peer]) for peer in sorted(t.per_peer))
    write_csv(path, ["peer_asn", "nc_count", "nn_count"], rows)
