"""Acceptance gate: one test per shipped guarantee.

Each test is self-contained and enforces its stated tolerance and time
budget; `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.
"""

from __future__ import annotations

import io
import os
import random
import time

import pytest

from bgpchurn.beacon import (
    DEFAULT_SCHEDULE,
    PHASE_ANNOUNCE,
    PHASE_OUTSIDE,
    PHASE_WITHDRAW,
    partition_communities,
)
from bgpchurn.classify import AnnouncementType, classify_stream
from bgpchurn.errors import MrtError
from bgpchurn.model import expand_stream
from bgpchurn.mrt.build import build_keepalive_record
from bgpchurn.mrt.codec import read_mrt_stream, write_mrt_stream
from bgpchurn.reduce import reduce_file
from bgpchurn.sim.export import capture_to_mrt_entries
from bgpchurn.sim.lab import PROFILES, run_experiment, run_experiment_matrix

from helpers import make_announcement, oracle_labels, random_stream, update_entry
from test_mrt_codec import REFERENCE_RECORD, REFERENCE_RECORD_ET


def test_criterion_1_experiment_matrix_exact():
    """Four profiles x four experiments, exact table, under a second."""
    started = time.perf_counter()
    outcomes = {o.profile: o.as_tuple() for o in run_experiment_matrix()}
    elapsed = time.perf_counter() - started
    assert outcomes == {
        "default-forwarding": (True, True, True, True),
        "adj-rib-out": (False, True, False, True),
        "no-forward": (True, False, True, True),
        "community-suppress": (True, True, False, True),
    }
    assert all(row[3] for row in outcomes.values())  # exp4 true everywhere
    assert elapsed < 1.0, f"matrix took {elapsed:.2f}s"


def test_criterion_2_classifier_matches_oracle_on_100_streams():
    """Streaming labels equal brute-force pairwise labels, 100 seeds."""
    started = time.perf_counter()
    sizes = [10_000] * 3 + [1_000] * 97  # all within the 10^4 bound
    for seed, n_records in enumerate(sizes):
        stream = random_stream(random.Random(seed), n_records)
        streaming = [lr.label for lr in classify_stream(stream.records)]
        assert streaming == oracle_labels(stream.records), f"seed {seed}"
        assert streaming == stream.true_labels, f"seed {seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.2f}s"


def _collector_labels(experiment: str) -> list[AnnouncementType]:
    """Lab run -> MRT bytes -> codec -> classifier, end to end."""
    sim, log = run_experiment(experiment, PROFILES["default-forwarding"])
    buf = io.BytesIO()
    write_mrt_stream(capture_to_mrt_entries(sim, log, "X1", "C1"), buf)
    entries = read_mrt_stream(buf.getvalue())
    return [lr.label for lr in classify_stream(expand_stream(entries, "lab"))]


def test_criterion_3_community_exploration_end_to_end():
    """Exp2 shows nc at the collector; Exp4's ingress strip shows none."""
    exp2 = _collector_labels("exp2")
    assert exp2.count(AnnouncementType.NC) >= 1
    exp4 = _collector_labels("exp4")
    assert exp4.count(AnnouncementType.NC) == 0


def test_criterion_4_duplicate_end_to_end():
    """Exp3's egress strip turns the flap into a plain nn duplicate."""
    sim, log = run_experiment("exp3", PROFILES["default-forwarding"])
    buf = io.BytesIO()
    write_mrt_stream(capture_to_mrt_entries(sim, log, "X1", "C1"), buf)
    records = list(expand_stream(read_mrt_stream(buf.getvalue()), "lab"))
    labeled = list(classify_stream(records))
    nn = [lr for lr in labeled if lr.label is AnnouncementType.NN]
    assert len(nn) >= 1
    assert all(lr.record.communities() == () for lr in nn)


# --- criterion 5: reduction against generator-known necessity ---

_PATHS = ((65001, 65002, 65010), (65001, 65003, 65010), (65001, 65002, 65011))
_COMMS = ((), ((65001 << 16) | 100,), ((65001 << 16) | 200,))


def _known_file(rng: random.Random):
    """One synthetic update file with per-message necessity fixed at
    construction: every discardable message is an exact repeat (nn) or a
    pure community change (nc) of live per-prefix state."""
    suffix = rng.randint(0, 190)
    pa, pb, pc_, pd = (f"10.{suffix}.{j}.0/24" for j in range(4))
    path1, path2 = rng.sample(_PATHS, 2)
    comm1, comm2 = rng.sample(_COMMS, 2)
    keep, drop = True, False
    # script rows: (announced, path, communities, withdrawn, necessary)
    script_a = [
        ((pa,), path1, comm1, (), keep),  # initial
        ((pa,), path1, comm1, (), drop),  # nn
        ((pa,), path1, comm2, (), drop),  # nc
        ((pa,), path2, comm2, (), keep),  # path change
    ]
    script_a += [((pa,), path2, comm2, (), drop)] * rng.randint(1, 4)  # nn run
    script_a.append(((pa,), (path2[0],) + path2, comm2, (), keep))  # xn
    script_b = [
        ((pb, pc_), path1, comm1, (), keep),  # both initial
        ((pb, pc_), path1, comm1, (), drop),  # both nn
        ((pb, pd), path1, comm1, (), keep),   # pd initial vetoes discard
        ((pb,), path1, comm1, (pc_,), keep),  # withdrawal veto
    ]
    specs = []  # riffle merge: interleave while keeping each script's order
    ia = ib = 0
    while ia < len(script_a) or ib < len(script_b):
        take_a = ib == len(script_b) or (ia < len(script_a) and rng.random() < 0.5)
        if take_a:
            specs.append(script_a[ia])
            ia += 1
        else:
            specs.append(script_b[ib])
            ib += 1
    specs.append(((), path1, (), (), keep))  # end-of-RIB
    t = 1_600_000_000
    entries_keep = []
    for announced, path, comms, withdrawn, kept in specs:
        t += rng.randint(1, 3)
        entry = update_entry(
            t, announced=announced, withdrawn=withdrawn,
            path=path, communities=comms,
        )
        entries_keep.append((entry, kept))
    updates = len(entries_keep)
    entries_keep.insert(
        rng.randrange(len(entries_keep)),
        (build_keepalive_record(t + 1, 65001, "10.0.0.1", 64512, "10.0.0.2"), keep),
    )
    return entries_keep, updates


def test_criterion_5_reduction_ground_truth_on_50_files(tmp_path):
    started = time.perf_counter()
    for i in range(50):
        entries_keep, updates = _known_file(random.Random(4200 + i))
        src = tmp_path / f"in_{i}.mrt"
        dst = tmp_path / f"out_{i}.mrt"
        with open(src, "wb") as f:
            write_mrt_stream((e for e, _ in entries_keep), f)
        report = reduce_file(src, dst)
        expected_drops = sum(1 for _, kept in entries_keep if not kept)
        assert report.total_messages == updates
        assert report.discarded_messages == expected_drops
        assert report.reduction_ratio == expected_drops / updates
        kept_bytes = [e.encode() for e in read_mrt_stream(dst)]  # must re-parse
        assert kept_bytes == [
            e.encode() for e, kept in entries_keep if kept
        ]  # byte-identical and in order
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"50-file reduction took {elapsed:.2f}s"


def test_criterion_6_beacon_partition_composition():
    """Planted (50, 20, 5, 25) reveal composition recovered exactly."""
    day0_us = 18_500 * 86_400 * 1_000_000
    withdraw_w = day0_us + (2 * 3600 + 300) * 1_000_000
    announce_w = day0_us + 300 * 1_000_000
    outside = day0_us + 3600 * 1_000_000
    comm = lambda i: (65000 << 16) | i
    records = []
    for i in range(0, 50):
        records.append(make_announcement(withdraw_w, communities=(comm(i),)))
    for i in range(50, 70):
        records.append(make_announcement(announce_w, communities=(comm(i),)))
    for i in range(70, 75):
        records.append(make_announcement(outside, communities=(comm(i),)))
    for i in range(75, 100):
        records.append(make_announcement(withdraw_w, communities=(comm(i),)))
        records.append(make_announcement(outside, communities=(comm(i),)))
    part, _ = partition_communities(records)
    assert part.sizes() == {
        "withdrawal_only": 50,
        "announce_only": 20,
        "outside_only": 5,
        "ambiguous": 25,
    }
    # window boundaries: starts inclusive, ends exclusive
    phase = DEFAULT_SCHEDULE.phase_of
    assert phase(day0_us + 2 * 3600 * 1_000_000) == PHASE_WITHDRAW
    assert phase(day0_us + (2 * 3600 + 900) * 1_000_000) == PHASE_OUTSIDE
    assert phase(day0_us) == PHASE_ANNOUNCE
    assert phase(day0_us + 900 * 1_000_000) == PHASE_OUTSIDE


def _fixture_blobs() -> list[bytes]:
    hand_built = REFERENCE_RECORD + REFERENCE_RECORD_ET
    synthetic = [
        update_entry(1_600_000_000, announced=("10.0.0.0/24", "10.0.1.0/25")),
        update_entry(1_600_000_001, announced=(), withdrawn=("10.0.0.0/24",)),
        update_entry(1_600_000_002, announced=()),  # end-of-RIB
        update_entry(1_600_000_003, peer_asn=4_200_000_000,
                     communities=((65001 << 16) | 7,), microsecond=999_999),
        build_keepalive_record(1_600_000_004, 65001, "10.0.0.1", 64512, "10.0.0.2"),
    ]
    sim, log = run_experiment("exp2", PROFILES["default-forwarding"])
    capture = capture_to_mrt_entries(sim, log, "X1", "C1")
    blobs = [hand_built]
    for entry_set in (synthetic, capture):
        buf = io.BytesIO()
        write_mrt_stream(entry_set, buf)
        blobs.append(buf.getvalue())
    return blobs


def test_criterion_7_codec_round_trip_and_fuzz():
    for blob in _fixture_blobs():
        out = io.BytesIO()
        written = write_mrt_stream(read_mrt_stream(blob), out)
        assert out.getvalue() == blob
        assert written == len(blob)

    rng = random.Random(20240815)
    base = bytearray(_fixture_blobs()[1])
    for _ in range(10_000):
        blob = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            if not blob:
                break
            op = rng.randrange(3)
            pos = rng.randrange(len(blob))
            if op == 0:
                blob[pos] = rng.randrange(256)
            elif op == 1:
                del blob[pos:]
            else:
                blob.insert(pos, rng.randrange(256))
        try:
            for entry in read_mrt_stream(bytes(blob)):
                entry.encode()
        except MrtError:
            pass  # controlled rejection is the contract


@pytest.mark.skipif(
    not os.environ.get("BGPCHURN_NETWORK_CHECK"),
    reason="optional full-data check; set BGPCHURN_NETWORK_CHECK=1 "
    "with live network access to run",
)
def test_criterion_8_full_data_spot_check(tmp_path):
    """Qualitative beacon pattern on one real collector hour (optional)."""
    from datetime import datetime, timezone

    from bgpchurn.fetch import ArchiveTarget, fetch_target

    target = ArchiveTarget(
        project="ripe_ris",
        collector="rrc00",
        kind="updates",
        start=datetime(2023, 5, 1, 1, 55, tzinfo=timezone.utc),
        end=datetime(2023, 5, 1, 2, 20, tzinfo=timezone.utc),
    )
    plan, report = fetch_target(target, tmp_path)
    assert report.complete, report.failures
    beacon = "84.205.64.0/24"
    records = [
        r
        for item in plan
        for r in expand_stream(
            read_mrt_stream(tmp_path / item.relative_path), "rrc00"
        )
        if r.prefix == beacon
    ]
    assert records, "no beacon traffic in the sampled window"
    in_window = [
        r for r in records if DEFAULT_SCHEDULE.phase_of(r.arrival_us) == PHASE_WITHDRAW
    ]
    # announcements cluster inside the 15-minute withdrawal window
    assert len(in_window) >= len(records) // 2
    labels = [lr.label.value for lr in classify_stream(records)]
    assert {"nc", "nn"} & set(labels)
