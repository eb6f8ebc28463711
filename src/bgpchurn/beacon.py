"""Beacon-prefix phase machinery.

Routing beacons announce on a fixed 4-hour cycle (00:00, 04:00, ...)
and withdraw on the offset cycle (02:00, 06:00, ...), all UTC.  Updates
landing inside the 15 minutes after a phase start are attributed to
that phase; community values are then partitioned by the set of phases
in which they were ever revealed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Union

from .mrt.bgp import community_str
from .model import UpdateRecord

PHASE_ANNOUNCE = "announce_phase"
PHASE_WITHDRAW = "withdraw_phase"
PHASE_OUTSIDE = "outside"

US_PER_DAY = 86_400 * 1_000_000

# RIPE RIS IPv4 beacon convention: 84.205.(64+N).0/24 per collector
DEFAULT_BEACONS = tuple(f"84.205.{64 + n}.0/24" for n in range(16))


@dataclass(frozen=True)
class BeaconSchedule:
    """Announce/withdraw cycle anchors and the attribution window."""

    announce_offset_s: int = 0
    withdraw_offset_s: int = 2 * 3600
    period_s: int = 4 * 3600
    window_s: int = 15 * 60

    def phase_of(self, arrival_us: int) -> str:
        in_day = arrival_us % US_PER_DAY
        period_us = self.period_s * 1_000_000
        window_us = self.window_s * 1_000_000
        for offset_s, phase in (
            (self.announce_offset_s, PHASE_ANNOUNCE),
            (self.withdraw_offset_s, PHASE_WITHDRAW),
        ):
            rel = (in_day - offset_s * 1_000_000) % period_us
            if 0 <= rel < window_us:
                return phase
        return PHASE_OUTSIDE


DEFAULT_SCHEDULE = BeaconSchedule()


@dataclass
class RevealPartition:
    """Community values (or whole attribute multisets) by reveal phase."""

    withdrawal_only: set = field(default_factory=set)
    announce_only: set = field(default_factory=set)
    outside_only: set = field(default_factory=set)
    ambiguous: set = field(default_factory=set)

    _BUCKETS = (
        (frozenset({PHASE_WITHDRAW}), "withdrawal_only"),
        (frozenset({PHASE_ANNOUNCE}), "announce_only"),
        (frozenset({PHASE_OUTSIDE}), "outside_only"),
    )

    @classmethod
    def from_phase_sets(cls, seen: dict) -> "RevealPartition":
        part = cls()
        exact = dict(cls._BUCKETS)
        for value, phases in seen.items():
            bucket = exact.get(frozenset(phases), "ambiguous")
            getattr(part, bucket).add(value)
        return part

    def sizes(self) -> dict[str, int]:
        return {
            "withdrawal_only": len(self.withdrawal_only),
            "announce_only": len(self.announce_only),
            "outside_only": len(self.outside_only),
            "ambiguous": len(self.ambiguous),
        }

    def shares(self) -> dict[str, float]:
        sizes = self.sizes()
        total = sum(sizes.values())
        if total == 0:
            return {k: 0.0 for k in sizes}
        return {k: v / total for k, v in sizes.items()}

    def total(self) -> int:
        return sum(self.sizes().values())


def partition_communities(
    records: Iterable[UpdateRecord],
    schedule: BeaconSchedule = DEFAULT_SCHEDULE,
) -> tuple[RevealPartition, RevealPartition]:
    """Partition reveal phases at both granularities.

    Returns (per-value, per-attribute-multiset) partitions: the first
    assigns each individual community value, the second each distinct
    whole attribute multiset (as a sorted value tuple).
    """
    value_phases: dict[int, set] = {}
    multiset_phases: dict[tuple, set] = {}
    for rec in records:
        if not rec.is_announcement:
            continue
        phase = schedule.phase_of(rec.arrival_us)
        communities = rec.communities()
        for value in communities:
            value_phases.setdefault(value, set()).add(phase)
        if communities:
            key = tuple(sorted(communities))
            multiset_phases.setdefault(key, set()).add(phase)
    return (
        RevealPartition.from_phase_sets(value_phases),
        RevealPartition.from_phase_sets(multiset_phases),
    )


# ---------------------------------------------------------------------------
# CSV output

PARTITION_VALUE_HEADER = ["community_value", "category"]
PARTITION_SUMMARY_HEADER = ["category", "count", "share"]


def write_partition_csv(
    part: RevealPartition, sink: Union[str, Path, IO[str]], granularity: str = "value"
) -> None:
    """Per-item category rows; values rendered high16:low16."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="", encoding="utf-8") as f:
            write_partition_csv(part, f, granularity)
        return

    def render(item):
        if isinstance(item, tuple):
            return " ".join(community_str(v) for v in item)
        return community_str(item)

    w = csv.writer(sink)
    w.writerow(PARTITION_VALUE_HEADER)
    for category in ("withdrawal_only", "announce_only", "outside_only", "ambiguous"):
        for item in sorted(getattr(part, category)):
            w.writerow([render(item), category])


def write_partition_summary_csv(
    part: RevealPartition, sink: Union[str, Path, IO[str]]
) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="", encoding="utf-8") as f:
            write_partition_summary_csv(part, f)
        return
    w = csv.writer(sink)
    w.writerow(PARTITION_SUMMARY_HEADER)
    shares = part.shares()
    for category, count in part.sizes().items():
        w.writerow([category, count, f"{shares[category]:.6f}"])
