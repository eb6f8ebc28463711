"""End-to-end command-line behavior."""

from __future__ import annotations

import argparse
import gzip
import io
import ipaddress
import json
import os
import re
import shlex
import shutil
import stat
import subprocess
from pathlib import Path

import pytest

from bgpchurn.cli import build_parser, main
from bgpchurn.fetch import FetchReport
from bgpchurn.mrt.build import build_update_record
from bgpchurn.model import record_to_dict
from bgpchurn.mrt.codec import read_mrt_stream, write_mrt_stream

from helpers import attr_mp_reach, make_announcement, std_attrs, update_entry

C1 = (65001 << 16) | 100
C2 = (65001 << 16) | 200

DAY0 = 18_500 * 86_400  # UTC midnight


def write_mrt(path, entries):
    with open(path, "wb") as f:
        write_mrt_stream(entries, f)
    return path


def classify_fixture():
    t = 1_600_000_000
    return [
        update_entry(t + 0, announced=("10.1.0.0/24",), path=(65001, 65002)),
        update_entry(t + 1, announced=("10.1.0.0/24",), path=(65001, 65002)),
        update_entry(t + 2, announced=("10.1.0.0/24",), path=(65001, 65002),
                     communities=(C1,)),
        update_entry(t + 3, announced=("10.1.0.0/24",), path=(65001, 65003),
                     communities=(C1,)),
        update_entry(t + 4, announced=(), withdrawn=("10.1.0.0/24",)),
        update_entry(t + 5, announced=("10.1.0.0/24",), path=(65001, 65003),
                     communities=(C1,)),
    ]


def read_tally(path):
    return {
        row.split(",")[0]: row.split(",")[1]
        for row in path.read_text().strip().splitlines()[1:]
    }


def read_report(path):
    """A JSON report, which must end with a newline."""
    text = path.read_text()
    assert text.endswith("\n")
    return json.loads(text)


# --- classify ---


def test_classify_collector_from_archive_layout(tmp_path, capsys):
    # the same peer and prefix in each file: one stream per collector
    names = [
        "rrc00/2023.05/updates.20230501.0000",
        "rrc01/2023.05/updates.20230501.0000",
        "bgpdata/2023.05/UPDATES/updates.20230501.0000.bz2",
        "rrc02.updates.20230501.0000",
        "bgpdata/rrc03.updates.20230501.0000",
        "bgpdata/rrc04.updates.20230501.0000",
    ]
    for name in names:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        container = "bzip2" if name.endswith(".bz2") else "plain"
        with open(path, "wb") as f:
            write_mrt_stream([update_entry(1_682_899_200)], f, container)
    out = tmp_path / "out"
    inputs = [str(tmp_path / name) for name in names]
    assert main(["classify", *inputs, "-o", str(out)]) == 0
    rows = [
        json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()
    ]
    assert [(r["collector"], r["label"]) for r in rows] == [
        ("rrc00", "initial"),
        ("rrc01", "initial"),
        ("route-views2", "initial"),
        ("rrc02", "initial"),
        ("rrc03", "initial"),
        ("rrc04", "initial"),
    ]
    printed = capsys.readouterr().out
    assert "(pc=0 pn=0 nc=0 nn=0 xc=0 xn=0 initial=6 over 6 streams)" in printed


def test_classify_mrt_file(tmp_path, capsys):
    src = write_mrt(tmp_path / "updates.mrt", classify_fixture())
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 0
    tally = read_tally(out / "tally.csv")
    assert tally == {
        "pc": "0", "pn": "1", "nc": "1", "nn": "2", "xc": "0", "xn": "0",
        "initial": "1",
    }
    rows = [
        json.loads(line)
        for line in (out / "labels.jsonl").read_text().splitlines()
    ]
    assert [r["label"] for r in rows] == ["initial", "nn", "nc", "pn", "nn"]
    assert rows[-1]["after_withdrawal"] is True
    report = read_report(out / "classify_report.json")
    assert report["announcements"] == 5
    assert report["withdrawals"] == 1
    assert report["allocation_filter"] is False
    assert report["flags"] == {
        "out_of_order": 0, "reorder_equal_multiset": 0, "med_changed": 0,
        "repaired_path": 0, "anomalous_empty_path": 0, "overflow_second": 0,
    }
    assert (out / "peer_nc_nn.csv").read_text().strip().splitlines()[1] == "65001,1,2"
    assert "labeled 4 announcements" in capsys.readouterr().out


def test_classify_report_counts_each_flag(tmp_path):
    # one second apart, so no same-second renumbering reorders them
    base = 1_600_000_000_000_000

    def row(seconds, path, med):
        arrival = base + seconds * 1_000_000
        return record_to_dict(make_announcement(arrival, path=path, med=med))

    src = write_jsonl(tmp_path / "records.jsonl", [
        row(10, (65001, 65002, 65003), 10),
        row(11, (65001, 65002, 65003), 20),  # nn with a new MED
        row(12, (65001, 65003, 65002), 20),  # the same ASNs, reordered
        row(5, (65001, 65004), 20),  # older than its predecessor
    ])
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 0
    report = read_report(out / "classify_report.json")
    assert report["flags"] == {
        "out_of_order": 1, "reorder_equal_multiset": 1, "med_changed": 1,
        "repaired_path": 0, "anomalous_empty_path": 0, "overflow_second": 0,
    }
    rows = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
    assert [r["flags"] for r in rows] == [
        [], ["med_changed"], ["reorder_equal_multiset"], ["out_of_order"],
    ]


def test_classify_report_counts_repaired_paths(tmp_path):
    # the peer is AS65001: paths not starting with it are repaired
    t = 1_600_000_000
    src = write_mrt(tmp_path / "updates.mrt", [
        update_entry(t, announced=("10.1.0.0/24",), path=(65001, 65002)),
        update_entry(t + 1, announced=("10.2.0.0/24",), path=(65003,)),
        update_entry(t + 2, announced=("10.3.0.0/24",), path=()),
        update_entry(t + 3, announced=("10.4.0.0/24", "10.5.0.0/24", "10.6.0.0/24"),
                     withdrawn=("10.1.0.0/24",), path=(65010, 65011)),
        update_entry(t + 4, announced=("10.2.0.0/24",), path=(65003,)),
    ])
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 0
    report = read_report(out / "classify_report.json")
    rows = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
    assert report["flags"] == {
        "out_of_order": 0, "reorder_equal_multiset": 0, "med_changed": 0,
        "repaired_path": 6, "anomalous_empty_path": 1, "overflow_second": 0,
    }
    for flag in ("repaired_path", "anomalous_empty_path"):
        assert report["flags"][flag] == sum(flag in r["flags"] for r in rows)
    assert [r["as_path"] for r in rows] == [
        [65001, 65002], [65001, 65003], [65001],
        [65001, 65010, 65011], [65001, 65010, 65011], [65001, 65010, 65011],
        [65001, 65003],
    ]


def test_classify_jsonl_round_trip(tmp_path):
    src = write_mrt(tmp_path / "updates.mrt", classify_fixture())
    out1 = tmp_path / "one"
    main(["classify", str(src), "-o", str(out1), "--collector", "rrc00"])
    # labels.jsonl (sans label keys) is itself valid classifier input
    records = out1 / "records.jsonl"
    with open(records, "w") as f:
        for line in (out1 / "labels.jsonl").read_text().splitlines():
            row = json.loads(line)
            row.pop("label")
            row.pop("after_withdrawal")
            f.write(json.dumps(row) + "\n")
    out2 = tmp_path / "two"
    assert main(["classify", str(records), "-o", str(out2)]) == 0
    # withdrawals are not in labels.jsonl, so only announcement counts match
    t1, t2 = read_tally(out1 / "tally.csv"), read_tally(out2 / "tally.csv")
    assert t1 == t2


def test_classify_warm_split_equals_whole(tmp_path):
    entries = classify_fixture()
    a = write_mrt(tmp_path / "a.mrt", entries[:3])
    b = write_mrt(tmp_path / "b.mrt", entries[3:])
    whole = write_mrt(tmp_path / "whole.mrt", entries)
    out_split, out_whole = tmp_path / "split", tmp_path / "whole"
    main(["classify", str(a), str(b), "-o", str(out_split), "--collector", "x"])
    main(["classify", str(whole), "-o", str(out_whole), "--collector", "x"])
    assert (out_split / "tally.csv").read_text() == (
        out_whole / "tally.csv"
    ).read_text()


def test_classify_allocation_filter(tmp_path):
    src = write_mrt(tmp_path / "updates.mrt", classify_fixture())
    delegated = tmp_path / "delegated.txt"
    delegated.write_text(
        "ripencc|ZZ|asn|65001|2|20000101|allocated|x\n"
        # 65003 outside the block: its announcements drop
        "ripencc|ZZ|ipv4|10.0.0.0|16777216|20000101|allocated|y\n"
    )
    out = tmp_path / "out"
    assert main([
        "classify", str(src), "-o", str(out), "--allocation", str(delegated)
    ]) == 0
    report = read_report(out / "classify_report.json")
    assert report["allocation_filter"] is True
    assert report["allocation"]["dropped_asn"] == 2
    assert report["announcements"] == 3

    out2 = tmp_path / "out2"
    assert main(["classify", str(src), "-o", str(out2)]) == 0
    report2 = read_report(out2 / "classify_report.json")
    assert report2["allocation_filter"] is False
    assert report2["announcements"] == 5


def test_classify_reads_gzip_mrt(tmp_path):
    import io

    buf = io.BytesIO()
    write_mrt_stream(classify_fixture(), buf)
    src = tmp_path / "updates.mrt.gz"
    src.write_bytes(gzip.compress(buf.getvalue()))
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 0
    assert read_tally(out / "tally.csv")["nn"] == "2"


def test_classify_failure_leaves_no_output(tmp_path):
    import io

    buf = io.BytesIO()
    write_mrt_stream(classify_fixture(), buf)
    src = tmp_path / "updates.mrt"
    src.write_bytes(buf.getvalue()[:-10])  # truncate the final record
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) != 0
    assert list(out.iterdir()) == []  # no partial labels.jsonl, no temp file


def truncated_gzip(tmp_path):
    buf = io.BytesIO()
    write_mrt_stream(classify_fixture(), buf)
    path = tmp_path / "updates.20230501.0000.gz"
    path.write_bytes(gzip.compress(buf.getvalue())[:-30])
    return path


def directory(tmp_path):
    path = tmp_path / "adir"
    path.mkdir()
    return path


def not_utf8(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    return path


@pytest.mark.parametrize(
    "fault",
    [lambda tmp_path: tmp_path / "nothere.mrt", directory, truncated_gzip, not_utf8],
    ids=["missing", "directory", "truncated-gzip", "not-utf8"],
)
@pytest.mark.parametrize("command", ["classify", "beacon"])
def test_unreadable_input_is_named(tmp_path, capsys, command, fault):
    src = fault(tmp_path)
    out = tmp_path / "out"
    assert main([command, str(src), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: "), err
    assert list(out.iterdir()) == []  # no labels.jsonl, partition_*.csv or temp file


# --- reduce ---


def test_reduce_cli(tmp_path, capsys):
    entries = classify_fixture()
    a = write_mrt(tmp_path / "a.mrt", entries[:3])
    b = write_mrt(tmp_path / "b.mrt", entries[3:])
    out = tmp_path / "out"
    assert main(["reduce", str(a), str(b), "-o", str(out)]) == 0
    assert (out / "pruned" / "a.mrt").exists()
    assert (out / "pruned" / "b.mrt").exists()
    lines = (out / "reduction.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    summary = read_report(out / "reduction_summary.json")
    assert summary["files"] == 2
    # warm state: messages 2,3 (nn,nc) and 6 (nn after withdrawal) drop
    total_discarded = sum(r["discarded_messages"] for r in summary["reports"])
    assert total_discarded == 3
    assert "2 files reduced" in capsys.readouterr().out


def test_reduce_cli_writes_gzip_for_gzip_input(tmp_path):
    import io

    buf = io.BytesIO()
    write_mrt_stream(classify_fixture(), buf)
    src = tmp_path / "updates.mrt.gz"
    src.write_bytes(gzip.compress(buf.getvalue()))
    out = tmp_path / "out"
    assert main(["reduce", str(src), "-o", str(out)]) == 0
    pruned = gzip.decompress((out / "pruned" / src.name).read_bytes())
    assert len(list(read_mrt_stream(pruned))) == len(classify_fixture()) - 3


def test_reduce_cold_vs_warm_state(tmp_path):
    entries = classify_fixture()
    repeat = update_entry(1_600_000_010, announced=("10.1.0.0/24",),
                          path=(65001, 65002), communities=(C1,))
    # consecutive files of one collector: the names share their head
    a = write_mrt(tmp_path / "updates.0000.mrt", entries[:3])
    b = write_mrt(tmp_path / "updates.0005.mrt", [repeat])  # replays a's last update

    cold_out, warm_out = tmp_path / "cold", tmp_path / "warm"
    assert main(["reduce", str(a), str(b), "-o", str(cold_out),
                 "--state", "cold"]) == 0
    assert main(["reduce", str(a), str(b), "-o", str(warm_out),
                 "--state", "warm"]) == 0

    def discards(out):
        summary = read_report(out / "reduction_summary.json")
        return {r["file"]: r["discarded_messages"] for r in summary["reports"]}

    cold, warm = discards(cold_out), discards(warm_out)
    assert cold[str(a)] == warm[str(a)] == 2
    assert cold[str(b)] == 0  # fresh classifier: the replay labels initial
    assert warm[str(b)] == 1  # carried state: the replay labels nn


def test_reduce_missing_file_exit_code(tmp_path):
    a = write_mrt(tmp_path / "a.mrt", classify_fixture())
    out = tmp_path / "out"
    assert main(["reduce", str(a), str(tmp_path / "ghost.mrt"),
                 "-o", str(out)]) == 1
    summary = read_report(out / "reduction_summary.json")
    assert len(summary["failures"]) == 1


def test_reduce_refuses_inputs_with_one_name(tmp_path, capsys):
    names = ["rrc00/2023.05/updates.20230501.0000", "rrc01/2023.05/updates.20230501.0000"]
    for name in names:
        (tmp_path / name).parent.mkdir(parents=True)
        write_mrt(tmp_path / name, [update_entry(1_682_899_200)])
    out = tmp_path / "out"
    inputs = [str(tmp_path / name) for name in names]
    assert main(["reduce", *inputs, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert inputs[0] in err and inputs[1] in err
    assert not (out / "pruned").exists()
    assert not (out / "reduction.csv").exists()


@pytest.mark.parametrize(
    "names",
    [
        ["rrc00/2023.05/updates.20230501.0000", "rrc01/2023.05/updates.20230501.0005"],
        ["rrc00.updates.20230501.0000", "rrc01.updates.20230501.0000"],
    ],
)
def test_reduce_warm_keeps_collectors_apart(tmp_path, names):
    # the same peer, prefix and path at two collectors: two sessions
    for name in names:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        write_mrt(tmp_path / name, [update_entry(1_682_899_200)])
    out = tmp_path / "out"
    inputs = [str(tmp_path / name) for name in names]
    assert main(["reduce", "--state", "warm", *inputs, "-o", str(out)]) == 0
    summary = read_report(out / "reduction_summary.json")
    assert [r["discarded_messages"] for r in summary["reports"]] == [0, 0]
    for name in names:
        pruned = out / "pruned" / name.rsplit("/", 1)[-1]
        assert pruned.read_bytes() == (tmp_path / name).read_bytes()


# --- simulate ---


def test_simulate_matrix(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--matrix", "-o", str(out)]) == 0
    rows = (out / "matrix.csv").read_text().strip().splitlines()
    assert rows[0] == "profile,exp1,exp2,exp3,exp4"
    cells = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
    assert cells["default-forwarding"] == ["True", "True", "True", "True"]
    assert cells["adj-rib-out"] == ["False", "True", "False", "True"]
    assert cells["no-forward"] == ["True", "False", "True", "True"]
    assert cells["community-suppress"] == ["True", "True", "False", "True"]
    shown = capsys.readouterr().out
    assert "exp1" in shown and "community-suppress" in shown


def test_simulate_builtin_experiment(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", "exp2", "-o", str(out)]) == 0
    capture = [
        json.loads(line)
        for line in (out / "exp2_capture.jsonl").read_text().splitlines()
    ]
    assert capture and {"sender", "receiver", "prefix"} <= set(capture[0])
    collector_mrt = out / "exp2_collector.mrt"
    upstream_mrt = out / "exp2_upstream.mrt"
    assert collector_mrt.exists() and upstream_mrt.exists()

    out2 = tmp_path / "labels"
    assert main(["classify", str(collector_mrt), "-o", str(out2)]) == 0
    tally = read_tally(out2 / "tally.csv")
    assert tally["nc"] == "1" and tally["initial"] == "1"


def test_simulate_scenario_file(tmp_path):
    doc = {
        "name": "tiny",
        "routers": [
            {"name": "A", "asn": 64500, "origins": ["203.0.113.0/24"]},
            {"name": "B", "asn": 64501},
        ],
        "sessions": [{"a": "A", "b": "B"}],
        "events": [],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "-o", str(out)]) == 0
    lines = (out / "tiny_capture.jsonl").read_text().splitlines()
    assert len(lines) == 1  # A announces to B, nothing else to do
    assert json.loads(lines[0])["path"] == [64500]


def test_simulate_invalid_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["simulate", "--scenario", str(bad), "-o", str(tmp_path)]) == 2


# --- beacon ---


def beacon_entries():
    prefix = "84.205.64.0/24"
    announce_t = DAY0 + 60  # inside the 00:00 announce window
    withdraw_t = DAY0 + 2 * 3600 + 60  # inside the 02:00 withdraw window
    outside_t = DAY0 + 3600
    return [
        update_entry(announce_t, announced=(prefix,), communities=(C1,)),
        update_entry(withdraw_t, announced=(prefix,), communities=(C2,)),
        update_entry(outside_t, announced=("10.0.0.0/24",), communities=(C1,)),
    ]


def test_beacon_partitions(tmp_path, capsys):
    src = write_mrt(tmp_path / "updates.mrt", beacon_entries())
    out = tmp_path / "out"
    assert main(["beacon", str(src), "-o", str(out)]) == 0
    values = (out / "partition_values.csv").read_text()
    assert "65001:100,announce_only" in values
    assert "65001:200,withdrawal_only" in values
    for name in (
        "partition_values_summary.csv",
        "partition_multisets.csv",
        "partition_multisets_summary.csv",
    ):
        assert (out / name).exists()
    assert "2 beacon records" in capsys.readouterr().out


def test_beacon_custom_list(tmp_path):
    src = write_mrt(tmp_path / "updates.mrt", beacon_entries())
    listing = tmp_path / "beacons.txt"
    listing.write_text("10.0.0.0/24\n")
    out = tmp_path / "out"
    assert main(["beacon", str(src), "-o", str(out),
                 "--beacon-list", str(listing)]) == 0
    values = (out / "partition_values.csv").read_text()
    assert "65001:100,outside_only" in values


def test_beacon_list_is_canonicalized(tmp_path, capsys):
    v6 = build_update_record(
        timestamp=DAY0 + 3600,
        peer_asn=65001,
        peer_address="10.0.0.1",
        local_asn=64512,
        local_address="10.0.0.2",
        attributes=std_attrs(communities=(C1,))
        + [attr_mp_reach([ipaddress.ip_network("2001:db8::/32")], "2001:db8::1")],
    )
    src = write_mrt(tmp_path / "updates.mrt", beacon_entries() + [v6])
    listing = tmp_path / "beacons.txt"
    # a non-canonical spelling of the decoded "2001:db8::/32"
    listing.write_text("  2001:0db8::/32  \n\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["beacon", str(src), "-o", str(out),
                 "--beacon-list", str(listing)]) == 0
    assert "65001:100,outside_only" in (out / "partition_values.csv").read_text()
    assert "1 beacon records" in capsys.readouterr().out


def test_beacon_list_bad_line_exit_code(tmp_path, capsys):
    src = write_mrt(tmp_path / "updates.mrt", beacon_entries())
    listing = tmp_path / "beacons.txt"
    listing.write_text("10.0.0.0/24\n10.0.0.1/24\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["beacon", str(src), "-o", str(out),
                 "--beacon-list", str(listing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "beacons.txt:2" in err and "10.0.0.1/24" in err
    assert not (out / "partition_values.csv").exists()


def test_beacon_no_records_exit_code(tmp_path, capsys):
    src = write_mrt(
        tmp_path / "updates.mrt",
        [update_entry(DAY0, announced=("192.0.2.0/24",))],
    )
    assert main(["beacon", str(src), "-o", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


def beacon_rows():
    announce_t = (DAY0 + 60) * 1_000_000
    return [
        record_to_dict(make_announcement(
            announce_t + i, prefix=prefix, communities=(C1,)
        ))
        for i, prefix in enumerate(("84.205.64.0/24", "10.0.0.0/24") * 3)
    ]


BAD_LINES = [
    ("next_hop", "10.0.0.256"),
    ("communities", ["65536:0"]),
    ("communities", [65536]),
    ("communities", ["1:65536"]),  # each half is 16 bits
    ("arrival_us", "1600000000000001"),
    ("as_path", ["abc"]),
    ("peer_asn", True),
    ("native_usec", 1),
    ("kind", "announce"),
    ("arrival_us", None),  # None: the key is left out
    ("line", "not json"),  # "line": the whole line is replaced
    ("next_hop", True),  # a next hop is a string or null
    ("next_hop", 167772161),
    ("next_hop", 0),
    ("next_hop", ""),
    ("communities", ["1_0:5"]),  # each half is ASCII digits
    ("communities", [" 1:2 "]),
    ("communities", ["+1:2"]),
    ("communities", ["\u0661:1"]),
]


def write_bad_jsonl(path, field, value):
    """beacon_rows() with line 4, a non-beacon prefix, made bad."""
    rows = beacon_rows()
    assert rows[3]["prefix"] == "10.0.0.0/24"
    if value is None:
        del rows[3][field]
    else:
        rows[3][field] = value
    lines = [json.dumps(row) for row in rows]
    if field == "line":
        lines[3] = value
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("field,value", BAD_LINES)
def test_beacon_validates_non_beacon_lines(tmp_path, capsys, field, value):
    src = write_bad_jsonl(tmp_path / "records.jsonl", field, value)
    out = tmp_path / "out"
    assert main(["beacon", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {src}:4: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("field,value", BAD_LINES)
def test_classify_rejects_bad_jsonl_line(tmp_path, capsys, field, value):
    src = write_bad_jsonl(tmp_path / "records.jsonl", field, value)
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {src}:4: ")
    assert list(out.iterdir()) == []  # no labels.jsonl, report or temp file


@pytest.mark.parametrize("prefix", ["10.0.0.1/24", "banana"])
def test_classify_allocation_rejects_bad_jsonl_prefix(tmp_path, capsys, prefix):
    rows = beacon_rows()
    rows[3]["prefix"] = prefix
    src = write_jsonl(tmp_path / "records.jsonl", rows)
    delegated = tmp_path / "delegated.txt"
    delegated.write_text("ripencc|ZZ|ipv4|10.0.0.0|16777216|20000101|allocated|y\n")
    out = tmp_path / "out"
    argv = ["classify", str(src), "-o", str(out), "--allocation", str(delegated)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(prefix) in err
    assert list(out.iterdir()) == []


def test_artifacts_get_umask_permissions(tmp_path):
    src = write_mrt(tmp_path / "updates.mrt", classify_fixture())
    old = os.umask(0o027)
    try:
        assert main(["classify", str(src), "-o", str(tmp_path / "c")]) == 0
        assert main(["reduce", str(src), "-o", str(tmp_path / "r")]) == 0
    finally:
        os.umask(old)
    written = [p for p in tmp_path.glob("[cr]/**/*") if p.is_file()]
    names = {p.relative_to(tmp_path).as_posix() for p in written}
    assert {"c/labels.jsonl", "c/tally.csv", "r/pruned/updates.mrt"} <= names
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o640, path


def test_beacon_jsonl_without_beacon_prefix_exit_code(tmp_path, capsys):
    rows = [row for row in beacon_rows() if row["prefix"] == "10.0.0.0/24"]
    src = write_jsonl(tmp_path / "records.jsonl", rows)
    out = tmp_path / "out"
    assert main(["beacon", str(src), "-o", str(out)]) == 2
    assert "no records matched 16 beacon prefixes" in capsys.readouterr().err
    assert not list(out.glob("partition_*.csv"))


# --- fetch ---


def test_fetch_offline_with_cache(tmp_path):
    import io

    buf = io.BytesIO()
    write_mrt_stream([update_entry(1_600_000_000)], buf)
    blob = gzip.compress(buf.getvalue())
    cache = tmp_path / "cache"
    rel = "rrc00/2023.05/updates.20230501.0000.gz"
    (cache / rel).parent.mkdir(parents=True)
    (cache / rel).write_bytes(blob)

    out = tmp_path / "out"
    code = main([
        "fetch", "--project", "ripe_ris", "--collector", "rrc00",
        "--start", "2023-05-01T00:00", "--end", "2023-05-01T00:05",
        "--cache-dir", str(cache), "--offline", "-o", str(out),
    ])
    assert code == 0
    report = read_report(out / "fetch_report.json")
    assert report == {
        "planned": 1, "cached": 1, "downloaded": 0, "failures": {},
        "files": [rel],
    }


def test_fetch_offline_cold_cache_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("BGPCHURN_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "out"
    code = main([
        "fetch", "--project", "ripe_ris", "--collector", "rrc00",
        "--start", "2023-05-01T00:00", "--end", "2023-05-01T00:05",
        "--offline", "-o", str(out),
    ])
    assert code == 1
    report = read_report(out / "fetch_report.json")
    assert len(report["failures"]) == 1


def test_fetch_counts_that_do_not_add_up_exit_nonzero(tmp_path, monkeypatch, capsys):
    # one planned file neither cached, downloaded nor failed
    monkeypatch.setattr(
        "bgpchurn.cli.fetch", lambda *args, **kwargs: FetchReport(planned=1)
    )
    out = tmp_path / "out"
    code = main([
        "fetch", "--project", "ripe_ris", "--collector", "rrc00",
        "--start", "2023-05-01T00:00", "--end", "2023-05-01T00:05",
        "--offline", "-o", str(out),
    ])
    assert code == 2
    assert "fetch counts do not add up" in capsys.readouterr().err
    report = read_report(out / "fetch_report.json")
    assert report["planned"] == 1 and report["failures"] == {}


def test_fetch_unknown_collector_exit_code(tmp_path, capsys):
    code = main([
        "fetch", "--project", "ripe_ris", "--collector", "bogus",
        "--start", "2023-05-01T00:00", "--end", "2023-05-01T00:05",
        "-o", str(tmp_path),
    ])
    assert code == 2
    assert "not a ripe_ris collector" in capsys.readouterr().err


def test_fetch_has_no_rib_kind(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main([
            "fetch", "--project", "ripe_ris", "--collector", "rrc00", "--kind", "rib",
            "--start", "2023-05-01T00:00", "--end", "2023-05-01T08:00",
            "--offline", "-o", str(tmp_path),
        ])
    assert exc_info.value.code == 2
    assert not list(tmp_path.iterdir())


# --- entry point wiring ---


def test_version_flag():
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The arguments of each ``bgpchurn`` line in README.md's sh blocks."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["bgpchurn"]:
                yield words[1:]


README_COMMANDS = list(readme_commands())


def test_readme_has_commands():
    assert len(README_COMMANDS) == 9


@pytest.mark.parametrize("args", README_COMMANDS, ids=" ".join)
def test_readme_command_parses(args):
    build_parser().parse_args(args)


def test_readme_documents_every_long_option():
    text = README.read_text(encoding="utf-8")
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    missing = [
        f"{command} {option}"
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
        and not re.search(re.escape(option) + r"(?![\w-])", text)
    ]
    assert not missing, missing


def test_console_script_installed():
    exe = shutil.which("bgpchurn")
    assert exe, "console script missing"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
