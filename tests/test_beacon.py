"""Beacon phase attribution and reveal partitions."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.beacon import (
    DEFAULT_BEACONS,
    DEFAULT_SCHEDULE,
    PHASE_ANNOUNCE,
    PHASE_OUTSIDE,
    PHASE_WITHDRAW,
    BeaconSchedule,
    RevealPartition,
    partition_communities,
    write_partition_csv,
    write_partition_summary_csv,
)

from helpers import make_announcement, make_withdrawal

DAY0 = 18_500 * 86_400  # epoch seconds at a UTC midnight


def at(hours: float, day: int = 0) -> int:
    """Epoch microseconds at the given UTC hour of the test day."""
    return int((DAY0 + day * 86_400 + hours * 3600) * 1_000_000)


# --- phase boundaries ---


def test_phase_window_boundaries():
    phase = DEFAULT_SCHEDULE.phase_of
    assert phase(at(2.0)) == PHASE_WITHDRAW  # 02:00:00 inclusive
    assert phase(at(2.0) + 14 * 60 * 1_000_000 + 59_999_999) == PHASE_WITHDRAW
    assert phase(at(2.25)) == PHASE_OUTSIDE  # 02:15:00 exclusive
    assert phase(at(0.0)) == PHASE_ANNOUNCE  # 00:00:00 inclusive
    assert phase(at(0.25) - 1) == PHASE_ANNOUNCE
    assert phase(at(0.25)) == PHASE_OUTSIDE
    assert phase(at(23.75)) == PHASE_OUTSIDE  # 23:45 belongs to no window
    assert phase(at(1.0)) == PHASE_OUTSIDE


def test_phase_cycle_anchors():
    for k in range(6):
        assert DEFAULT_SCHEDULE.phase_of(at(4.0 * k)) == PHASE_ANNOUNCE
        assert DEFAULT_SCHEDULE.phase_of(at(4.0 * k + 2.0)) == PHASE_WITHDRAW


def test_phase_day_wrap():
    phase = DEFAULT_SCHEDULE.phase_of
    assert phase(at(0.05, day=1)) == PHASE_ANNOUNCE
    assert phase(at(22.1)) == PHASE_WITHDRAW  # last withdraw window of the day


def test_custom_schedule():
    sched = BeaconSchedule(announce_offset_s=600, withdraw_offset_s=4200,
                           period_s=7200, window_s=60)
    assert sched.phase_of(at(0.0)) == PHASE_OUTSIDE
    assert sched.phase_of(at(0.0) + 600 * 1_000_000) == PHASE_ANNOUNCE
    assert sched.phase_of(at(0.0) + 4200 * 1_000_000) == PHASE_WITHDRAW
    assert sched.phase_of(at(2.0) + 600 * 1_000_000) == PHASE_ANNOUNCE  # 2h period


@settings(max_examples=200)
@given(st.integers(0, 2**55))
def test_phase_periodicity_property(arrival_us):
    period_us = DEFAULT_SCHEDULE.period_s * 1_000_000
    phase = DEFAULT_SCHEDULE.phase_of
    assert phase(arrival_us) == phase(arrival_us + period_us)


@settings(max_examples=200)
@given(st.integers(0, 2**55))
def test_phase_is_total_function(arrival_us):
    phases = (PHASE_ANNOUNCE, PHASE_WITHDRAW, PHASE_OUTSIDE)
    assert DEFAULT_SCHEDULE.phase_of(arrival_us) in phases


# --- reveal partition ---


def _comm(i: int) -> int:
    return (65000 << 16) | i


def test_partition_known_composition():
    # 100 distinct community values with a planted 50/20/5/25 composition
    w, a, o = at(2.05), at(0.05), at(1.0)
    records = []
    for i in range(0, 50):
        records.append(make_announcement(w, communities=(_comm(i),)))
    for i in range(50, 70):
        records.append(make_announcement(a, communities=(_comm(i),)))
    for i in range(70, 75):
        records.append(make_announcement(o, communities=(_comm(i),)))
    for i in range(75, 100):
        records.append(make_announcement(w, communities=(_comm(i),)))
        records.append(make_announcement(a, communities=(_comm(i),)))
    per_value, _ = partition_communities(records)
    assert per_value.sizes() == {
        "withdrawal_only": 50,
        "announce_only": 20,
        "outside_only": 5,
        "ambiguous": 25,
    }
    shares = per_value.shares()
    assert shares["withdrawal_only"] == pytest.approx(0.50)
    assert shares["announce_only"] == pytest.approx(0.20)
    assert shares["outside_only"] == pytest.approx(0.05)
    assert shares["ambiguous"] == pytest.approx(0.25)
    assert per_value.total() == 100


def test_partition_permutation_invariant():
    w, a = at(2.05), at(0.05)
    records = [
        make_announcement(w, communities=(_comm(1), _comm(2))),
        make_announcement(a, communities=(_comm(2),)),
        make_announcement(w + 1, communities=(_comm(3),)),
    ]
    base, _ = partition_communities(records)
    for seed in range(5):
        shuffled = records[:]
        random.Random(seed).shuffle(shuffled)
        part, _ = partition_communities(shuffled)
        assert part.sizes() == base.sizes()
        assert part.withdrawal_only == base.withdrawal_only
        assert part.ambiguous == base.ambiguous


def test_partition_disjoint_and_complete():
    w, a, o = at(2.05), at(0.05), at(1.0)
    rng = random.Random(7)
    records = []
    values = [_comm(i) for i in range(40)]
    for v in values:
        for arrival in rng.sample([w, a, o], rng.randint(1, 3)):
            records.append(make_announcement(arrival, communities=(v,)))
    part, _ = partition_communities(records)
    buckets = [
        part.withdrawal_only, part.announce_only, part.outside_only, part.ambiguous
    ]
    union = set().union(*buckets)
    assert union == set(values)
    assert sum(len(b) for b in buckets) == len(values)  # pairwise disjoint


def test_partition_multiset_granularity():
    w, a = at(2.05), at(0.05)
    records = [
        # pair revealed only at withdrawal, lone value also at announce
        make_announcement(w, communities=(_comm(1), _comm(2))),
        make_announcement(a, communities=(_comm(1),)),
    ]
    per_value, per_multiset = partition_communities(records)
    assert per_value.ambiguous == {_comm(1)}
    assert per_value.withdrawal_only == {_comm(2)}
    assert per_multiset.withdrawal_only == {tuple(sorted((_comm(1), _comm(2))))}
    assert per_multiset.announce_only == {(_comm(1),)}


def test_partition_ignores_withdrawals_and_empty():
    records = [
        make_withdrawal(at(2.05)),
        make_announcement(at(2.05)),  # no communities
    ]
    per_value, per_multiset = partition_communities(records)
    assert per_value.total() == 0
    assert per_multiset.total() == 0


def test_default_beacon_prefixes():
    assert DEFAULT_BEACONS[0] == "84.205.64.0/24"
    assert DEFAULT_BEACONS[-1] == "84.205.79.0/24"
    assert len(DEFAULT_BEACONS) == 16
    assert "84.205.80.0/24" not in DEFAULT_BEACONS


# --- CSV output ---


def test_partition_csvs():
    part = RevealPartition(
        withdrawal_only={_comm(2), _comm(1)},
        announce_only={_comm(3)},
        ambiguous={_comm(4)},
    )
    buf = io.StringIO()
    write_partition_csv(part, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "community_value,category"
    assert lines[1] == "65000:1,withdrawal_only"
    assert lines[2] == "65000:2,withdrawal_only"
    assert "65000:3,announce_only" in lines
    assert "65000:4,ambiguous" in lines

    buf = io.StringIO()
    write_partition_summary_csv(part, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "category,count,share"
    assert lines[1] == "withdrawal_only,2,0.500000"
    assert lines[-1] == "ambiguous,1,0.250000"


def test_partition_csv_multiset_rendering():
    part = RevealPartition(withdrawal_only={(_comm(1), _comm(2))})
    buf = io.StringIO()
    write_partition_csv(part, buf, granularity="multiset")
    assert "65000:1 65000:2,withdrawal_only" in buf.getvalue()
