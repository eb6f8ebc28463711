"""Beacon-prefix phase machinery.

Routing beacons announce on a fixed 4-hour cycle (00:00, 04:00, ...)
and withdraw on the offset cycle (02:00, 06:00, ...), all UTC.  Updates
landing inside the 15 minutes after a phase start are attributed to
that phase; community values are then partitioned by the set of phases
in which they were ever revealed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .addr import canonical_network
from .errors import BgpChurnError
from .mrt.bgp import community_str
from .model import UpdateRecord
from .output import make_directory, write_csv
from .pipeline import read_messages, side_input

PHASE_ANNOUNCE = "announce_phase"
PHASE_WITHDRAW = "withdraw_phase"
PHASE_OUTSIDE = "outside"
_WITHDRAW_US = 2 * 3600 * 1_000_000
_WINDOW_US = 15 * 60 * 1_000_000

# RIPE RIS IPv4 beacon convention: 84.205.(64+N).0/24 per collector
DEFAULT_BEACONS = tuple(f"84.205.{64 + n}.0/24" for n in range(16))

BEACON_OUTPUTS = (
    "partition_values.csv",
    "partition_values_summary.csv",
    "partition_multisets.csv",
    "partition_multisets_summary.csv",
)


class BeaconSchedule:
    """The RIS cycle above.  Its period divides a day, so an arrival's
    place in the cycle is the arrival modulo the period."""

    period_s = 4 * 3600

    def phase_of(self, arrival_us: int) -> str:
        rel = arrival_us % (self.period_s * 1_000_000)
        if rel < _WINDOW_US:
            return PHASE_ANNOUNCE
        if 0 <= rel - _WITHDRAW_US < _WINDOW_US:
            return PHASE_WITHDRAW
        return PHASE_OUTSIDE


DEFAULT_SCHEDULE = BeaconSchedule()


@dataclass
class RevealPartition:
    """Community values (or whole attribute multisets) by reveal phase."""

    withdrawal_only: set = field(default_factory=set)
    announce_only: set = field(default_factory=set)
    outside_only: set = field(default_factory=set)
    ambiguous: set = field(default_factory=set)

    @classmethod
    def from_phase_sets(cls, seen: dict) -> "RevealPartition":
        part = cls()
        exact = {
            frozenset({PHASE_WITHDRAW}): part.withdrawal_only,
            frozenset({PHASE_ANNOUNCE}): part.announce_only,
            frozenset({PHASE_OUTSIDE}): part.outside_only,
        }
        for value, phases in seen.items():
            exact.get(frozenset(phases), part.ambiguous).add(value)
        return part

    def sizes(self) -> dict[str, int]:
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}

    def shares(self) -> dict[str, float]:
        sizes = self.sizes()
        total = sum(sizes.values())
        if total == 0:
            return {k: 0.0 for k in sizes}
        return {k: v / total for k, v in sizes.items()}


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
        if rec.attrs is None:
            continue
        phase = schedule.phase_of(rec.arrival_us)
        communities = rec.attrs.communities
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


def write_partition_csv(
    part: RevealPartition, path: Union[str, Path], granularity: str = "value"
) -> None:
    """Per-item category rows; values rendered high16:low16."""

    def render(item):
        if isinstance(item, tuple):
            return " ".join(community_str(v) for v in item)
        return community_str(item)

    rows = (
        (render(item), category)
        for category in part.sizes()
        for item in sorted(getattr(part, category))
    )
    write_csv(path, ["community_value", "category"], rows)


def write_partition_summary_csv(part: RevealPartition, path: Union[str, Path]) -> None:
    shares = part.shares()
    rows = ((category, n, shares[category]) for category, n in part.sizes().items())
    write_csv(path, ["category", "count", "share"], rows)


def _beacon_list(path: Path) -> frozenset[str]:
    """One prefix per line, canonicalized as decoded prefixes are."""
    beacons = set()
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            beacons.add(canonical_network(text))
        except ValueError as exc:
            raise BgpChurnError(f"{path}:{lineno}: bad beacon prefix: {exc}") from exc
    return frozenset(beacons)


def run_beacon(
    inputs: Iterable[str], output: Union[str, Path], beacon_list: Optional[str] = None
) -> str:
    """The ``beacon`` command: writes its outputs, returns its summary line."""
    out = make_directory(output, BEACON_OUTPUTS)
    beacons = (
        side_input(_beacon_list, Path(beacon_list))
        if beacon_list
        else frozenset(DEFAULT_BEACONS)
    )
    matched = 0

    def beacon_records() -> Iterator[UpdateRecord]:
        nonlocal matched
        for _, expanded in read_messages(inputs):
            for r in expanded:
                if r.prefix in beacons:
                    matched += 1
                    yield r

    by_value, by_multiset = partition_communities(beacon_records(), DEFAULT_SCHEDULE)
    if not matched:
        raise BgpChurnError(f"no records matched {len(beacons)} beacon prefixes")
    write_partition_csv(by_value, out / "partition_values.csv")
    write_partition_summary_csv(by_value, out / "partition_values_summary.csv")
    write_partition_csv(by_multiset, out / "partition_multisets.csv", "multiset")
    write_partition_summary_csv(by_multiset, out / "partition_multisets_summary.csv")
    return (
        f"{matched} beacon records; value partition {by_value.sizes()}, "
        f"attribute partition {by_multiset.sizes()}"
    )
