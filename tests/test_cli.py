"""End-to-end command-line behavior."""

from __future__ import annotations

import argparse
import bz2
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
from bgpchurn.mrt.codec import MrtRecordHeader, read_mrt_stream, write_mrt_stream

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
        "reopened_second": 0,
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
        "reopened_second": 1,
    }
    rows = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
    assert [r["flags"] for r in rows] == [
        [], ["med_changed"], ["reorder_equal_multiset"],
        ["reopened_second", "out_of_order"],
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
        "reopened_second": 0,
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


def truncated_jsonl_gzip(tmp_path):
    path = tmp_path / "labels.jsonl.gz"
    rows = "".join(json.dumps(row) + "\n" for row in beacon_rows())
    path.write_bytes(gzip.compress(rows.encode())[:-30])
    return path


def directory(tmp_path):
    path = tmp_path / "adir"
    path.mkdir()
    return path


def not_utf8(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    return path


def corrupt_length(tmp_path):
    """One record whose header claims 3 GiB over a 20-byte body."""
    path = tmp_path / "updates.20230501.0000"
    path.write_bytes(MrtRecordHeader(1_682_899_200, 16, 1, 3 << 30).encode() + bytes(20))
    return path


def assert_one_error_line(err, path):
    """``error: <path>: …`` alone, as one line and without a traceback."""
    assert err.startswith(f"error: {path}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize(
    "fault",
    [lambda tmp_path: tmp_path / "nothere.mrt", directory, truncated_gzip, not_utf8,
     corrupt_length, truncated_jsonl_gzip],
    ids=["missing", "directory", "truncated-gzip", "not-utf8", "corrupt-length",
         "truncated-jsonl-gzip"],
)
@pytest.mark.parametrize("command", ["classify", "beacon"])
def test_unreadable_input_is_named(tmp_path, capsys, command, fault):
    src = fault(tmp_path)
    out = tmp_path / "out"
    assert main([command, str(src), "-o", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, src)
    assert list(out.iterdir()) == []  # no labels.jsonl, partition_*.csv or temp file


@pytest.mark.parametrize("content", ["records", "not-utf8"])
@pytest.mark.parametrize("command", ["classify", "beacon"])
def test_compressed_record_file_reads_as_the_plain_file(tmp_path, capsys, command, content):
    """A .jsonl.gz or .jsonl.bz2 input writes the bytes, prints the line and
    fails with the message of the plain .jsonl it holds."""
    if content == "records":
        plain = write_jsonl(tmp_path / "labels.jsonl", beacon_rows())
    else:
        plain = not_utf8(tmp_path)
    copies = {"plain": plain}
    for name, compress in (("gz", gzip.compress), ("bz2", bz2.compress)):
        copies[name] = plain.with_name(f"{plain.name}.{name}")
        copies[name].write_bytes(compress(plain.read_bytes()))
    runs = {}
    for name, src in copies.items():
        status = main([command, str(src), "-o", str(tmp_path / name)])
        out, err = capsys.readouterr()
        runs[name] = status, out, err.replace(str(src), "<input>"), tree_bytes(tmp_path / name)
    assert runs["gz"] == runs["bz2"] == runs["plain"]
    status, _, err, tree = runs["plain"]
    assert (status, bool(tree)) == ((0, True) if content == "records" else (2, False))


@pytest.mark.parametrize(
    "fault",
    [lambda tmp_path: tmp_path / "nothere.txt", directory, not_utf8],
    ids=["missing", "directory", "not-utf8"],
)
@pytest.mark.parametrize(
    "command,option",
    [("classify", "--allocation"), ("beacon", "--beacon-list"), ("simulate", "--scenario")],
)
def test_unreadable_side_input_is_named(tmp_path, capsys, command, option, fault):
    side = fault(tmp_path)
    inputs = [] if command == "simulate" else [
        str(write_mrt(tmp_path / "updates.mrt", classify_fixture()))
    ]
    out = tmp_path / "out"
    assert main([command, *inputs, option, str(side), "-o", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, side)
    assert list(out.iterdir()) == []


FETCH_ARGS = ["--project", "ripe_ris", "--collector", "rrc00", "--offline",
              "--start", "2023-05-01T00:00", "--end", "2023-05-01T00:05"]


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["classify", "beacon", "reduce", "simulate", "fetch"])
def test_output_directory_that_cannot_be_made_is_named(
    tmp_path, capsys, monkeypatch, command, under
):
    def no_download(*args, **kwargs):
        raise AssertionError("fetch ran before the output directory was made")

    monkeypatch.setattr("bgpchurn.cli.fetch", no_download)
    monkeypatch.setenv("BGPCHURN_CACHE", str(tmp_path / "cache"))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    if command == "fetch":
        args = FETCH_ARGS
    elif command == "simulate":
        args = []
    else:
        args = [str(write_mrt(tmp_path / "updates.mrt", classify_fixture()))]
    assert main([command, *args, "-o", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, out)


# every fixed name each command writes under -o
OUTPUTS = {
    "reduce": ["pruned", "reduction.csv", "reduction_summary.json"],
    "classify": ["labels.jsonl", "tally.csv", "peer_nc_nn.csv", "classify_report.json"],
    "beacon": ["partition_values.csv", "partition_values_summary.csv",
               "partition_multisets.csv", "partition_multisets_summary.csv"],
}


def data_command_args(tmp_path, command):
    """Inputs and options on which ``command`` succeeds: beacon is given
    the fixture's prefix as its beacon list."""
    args = [str(write_mrt(tmp_path / "updates.mrt", classify_fixture()))]
    if command == "beacon":
        beacons = tmp_path / "beacons.txt"
        beacons.write_text("10.1.0.0/24\n")
        args += ["--beacon-list", str(beacons)]
    return args


@pytest.mark.parametrize(
    "command,taken", [(command, name) for command in OUTPUTS for name in OUTPUTS[command]]
)
def test_output_that_cannot_be_created_is_named(tmp_path, capsys, command, taken):
    """Refused before any input is read, so the run writes nothing."""
    out = tmp_path / "out"
    out.mkdir()
    blocker = out / taken
    if taken == "pruned":
        blocker.write_text("")  # a file where reduce makes a directory
    else:
        blocker.mkdir()  # a directory where a report goes
    assert main([command, *data_command_args(tmp_path, command), "-o", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, blocker)
    assert list(out.rglob("*")) == [blocker]


@pytest.mark.parametrize("command", ["classify", "beacon", "reduce"])
def test_output_name_linked_to_a_directory_is_replaced(tmp_path, capsys, command):
    """The rename replaces a link, not the directory it points to."""
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    link = out / OUTPUTS[command][-1]
    link.symlink_to(elsewhere, target_is_directory=True)
    assert main([command, *data_command_args(tmp_path, command), "-o", str(out)]) == 0
    assert link.is_file() and not link.is_symlink()
    assert elsewhere.is_dir() and list(elsewhere.iterdir()) == []


def write_table_dump(path):
    """A one-record TABLE_DUMP_V2 (type 13) file: a RIB dump, no updates."""
    # PEER_INDEX_TABLE: collector id, an empty view name, no peers
    body = b"\x0a\x00\x00\x01\x00\x00\x00\x00"
    path.write_bytes(MrtRecordHeader(1_682_899_200, 13, 1, len(body)).encode() + body)
    return path


def write_record_file(path):
    """A .jsonl record file under an MRT name, gzip when named .gz.

    Its first line's ``{"arrival_us"`` reads as a header of type 29289
    ("ri") claiming 1,818,195,315 bytes ("l_us").
    """
    text = "".join(json.dumps(row) + "\n" for row in beacon_rows()).encode()
    path.write_bytes(gzip.compress(text) if path.suffix == ".gz" else text)
    return path


# each non-update file, by the name it is written under, and its first record type
NON_UPDATE_FILES = [
    (write_table_dump, "bview.20230501.0000", 13),
    (write_record_file, "labels.mrt", 29289),
    (write_record_file, "labels.mrt.gz", 29289),
]


@pytest.mark.parametrize("command", ["classify", "beacon"])
def test_non_update_file_is_refused(tmp_path, capsys, command):
    empty = tmp_path / "empty.mrt"
    empty.write_bytes(b"")
    if command == "classify":  # an empty file is an update file with no records
        assert main([command, str(empty), "-o", str(tmp_path / "empty_out")]) == 0
    for write, name, record_type in NON_UPDATE_FILES:
        bad = write(tmp_path / name)
        out = tmp_path / f"out-{name}"
        assert main([command, str(empty), str(bad), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not an update file: first record type {record_type}\n"
        assert list(out.iterdir()) == []


def test_reduce_lists_a_non_update_file_under_failures(tmp_path):
    empty = tmp_path / "empty.mrt"
    empty.write_bytes(b"")
    updates = write_mrt(tmp_path / "updates.mrt", classify_fixture())
    for write, name, record_type in NON_UPDATE_FILES:
        bad = write(tmp_path / name)
        out = tmp_path / f"out-{name}"
        assert main(["reduce", str(empty), str(bad), str(updates), "-o", str(out)]) == 1
        summary = read_report(out / "reduction_summary.json")
        assert summary["failures"] == {
            str(bad): f"not an update file: first record type {record_type}"
        }
        assert [r["file"] for r in summary["reports"]] == [str(empty), str(updates)]
        pruned = sorted(p.name for p in (out / "pruned").iterdir())
        assert pruned == ["empty.mrt", "updates.mrt"]
        assert (out / "pruned" / "empty.mrt").read_bytes() == b""


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


def test_reduce_lists_a_corrupt_length_under_failures(tmp_path):
    bad = corrupt_length(tmp_path)
    good = write_mrt(tmp_path / "good.mrt", classify_fixture())
    out = tmp_path / "out"
    assert main(["reduce", str(bad), str(good), "-o", str(out)]) == 1
    summary = read_report(out / "reduction_summary.json")
    assert summary["failures"] == {
        str(bad): f"record 0: body cut short (20 of {3 << 30} bytes)"
    }


def test_reduce_names_a_failure_without_text_by_its_type(tmp_path, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr("bgpchurn.reduce.reduce_file", out_of_memory)
    good = write_mrt(tmp_path / "good.mrt", classify_fixture())
    out = tmp_path / "out"
    assert main(["reduce", str(good), "-o", str(out)]) == 1
    summary = read_report(out / "reduction_summary.json")
    assert summary["failures"] == {str(good): "MemoryError"}


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


def write_gzip_mrt(path, entries):
    buf = io.BytesIO()
    write_mrt_stream(entries, buf)
    path.write_bytes(gzip.compress(buf.getvalue()))
    return path


@pytest.mark.parametrize("via", ["out", "link-to-out"])
def test_reduce_refuses_an_input_its_output_would_replace(tmp_path, capsys, via):
    """Paths are compared resolved, so a link to ``out`` hides no clash."""
    out = tmp_path / "out"
    (out / "pruned").mkdir(parents=True)
    (tmp_path / "link-to-out").symlink_to(out, target_is_directory=True)
    inputs = [
        write_gzip_mrt(tmp_path / via / "pruned" / f"updates.20230501.{hhmm}.gz",
                       classify_fixture())
        for hhmm in ("0000", "0005")
    ]
    before = [path.read_bytes() for path in inputs]
    assert main(["reduce", "-o", str(out), *map(str, inputs)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err, inputs[0])
    assert f"the output {out / 'pruned' / inputs[0].name} would replace it" in err
    assert [path.read_bytes() for path in inputs] == before
    assert sorted(p.name for p in out.rglob("*")) == sorted(
        ["pruned", *(path.name for path in inputs)]
    )


def test_reduce_replaces_a_link_at_its_output_name_not_its_target(tmp_path):
    (tmp_path / "raw").mkdir()
    raw = write_gzip_mrt(tmp_path / "raw" / "updates.20230501.0000.gz", classify_fixture())
    before = raw.read_bytes()
    out = tmp_path / "out"
    (out / "pruned").mkdir(parents=True)
    link = out / "pruned" / raw.name
    link.symlink_to(raw)
    assert main(["reduce", "-o", str(out), str(link)]) == 0
    assert raw.read_bytes() == before
    assert link.is_file() and not link.is_symlink()
    assert read_report(out / "reduction_summary.json")["reports"][0]["discarded_messages"]


def test_classify_refuses_an_input_its_output_would_replace(tmp_path, capsys):
    src = write_mrt(tmp_path / "updates.20230501.0000", classify_fixture())
    assert main(["classify", str(src), "-o", str(tmp_path / "first")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    labels = out / "labels.jsonl"
    shutil.copy(tmp_path / "first" / "labels.jsonl", labels)
    before = labels.read_bytes()
    capsys.readouterr()
    assert main(["classify", "-o", str(out), str(labels)]) == 2
    assert_one_error_line(capsys.readouterr().err, labels)
    assert labels.read_bytes() == before
    assert list(out.iterdir()) == [labels]


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


def test_simulate_unknown_profile_is_named(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--profile", "x", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: unknown profile 'x'; one of: adj-rib-out, community-suppress, "
        "default-forwarding, no-forward\n"
    )
    assert not out.exists()


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
    ("arrival_us", -5),  # integers out of range
    ("peer_asn", -7),
    ("peer_asn", 2**32),
    ("as_path", [-7, 99999999999]),
    ("as_path", [65001, [65002, 2**32]]),
    ("med", -3),
    ("source_message_index", -1),
    pytest.param("line", "[" * 100_000, id="line-nested-past-recursion-limit"),
    ("prefix", "banana"),  # a prefix is network text, host bits unset
    ("prefix", ""),
    ("prefix", "10.0.0.1/24"),
    ("prefix", "10.0.0.0/33"),
    ("prefix", "2001:db8::1/32"),
    *(("line", text) for text in ("[1,2]", '"x"', "5", "null")),  # not an object
]
# a line that is JSON but not an object, and the type its error names
NOT_OBJECTS = {"[1,2]": "list", '"x"': "str", "5": "int", "null": "NoneType"}


def assert_bad_line_error(err, src, field, value):
    """``error: <src>:4: …``, naming the type of a line that is not an object."""
    assert err.startswith(f"error: {src}:4: "), err
    if field == "line" and value in NOT_OBJECTS:
        assert err == f"error: {src}:4: record must be an object, not {NOT_OBJECTS[value]}\n"


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
    assert_bad_line_error(capsys.readouterr().err, src, field, value)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("field,value", BAD_LINES)
def test_classify_rejects_bad_jsonl_line(tmp_path, capsys, field, value):
    src = write_bad_jsonl(tmp_path / "records.jsonl", field, value)
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 2
    assert_bad_line_error(capsys.readouterr().err, src, field, value)
    assert list(out.iterdir()) == []  # no labels.jsonl, report or temp file


def test_classify_keys_jsonl_peers_by_canonical_address(tmp_path, capsys):
    t = 1_600_000_000
    mrt = write_mrt(tmp_path / "rrc00.updates.mrt", [build_update_record(
        timestamp=t, peer_asn=65001, peer_address="2001:db8::1",
        local_asn=64512, local_address="2001:db8::2",
        attributes=std_attrs((65001, 65002)), announced=("10.1.0.0/24",),
    )])
    row = record_to_dict(make_announcement((t + 1) * 1_000_000, prefix="10.1.0.0/24"))
    row.update(collector="rrc00", peer_address="2001:DB8::1")
    records = write_jsonl(tmp_path / "records.jsonl", [row])
    out = tmp_path / "out"
    assert main(["classify", str(mrt), str(records), "-o", str(out)]) == 0
    assert "initial=1 over 1 streams" in capsys.readouterr().out
    rows = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
    assert [(r["peer_address"], r["label"]) for r in rows] == [
        ("2001:db8::1", "initial"), ("2001:db8::1", "nn"),
    ]


def test_classify_rejects_leading_zero_peer_address(tmp_path, capsys):
    rows = beacon_rows()
    rows[3]["peer_address"] = "10.0.0.01"
    src = write_jsonl(tmp_path / "records.jsonl", rows)
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {src}:4: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("field", ["peer_address", "next_hop"])
def test_bad_address_error_names_its_field(tmp_path, capsys, field):
    rows = beacon_rows()
    rows[3][field] = "10.0.0.01"
    src = write_jsonl(tmp_path / "records.jsonl", rows)
    assert main(["classify", str(src), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {src}:4: {field}: '10.0.0.01' does not appear to be an IPv4 or IPv6 address\n"
    )


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
    assert err.startswith(f"error: {src}:4: prefix: ") and prefix in err
    assert list(out.iterdir()) == []


def test_classify_allocation_judges_an_arrival_after_year_9999_as_of_99991231(tmp_path):
    rows = beacon_rows()  # 84.205.64.0/24 at even indexes, 10.0.0.0/24 at odd
    rows[4]["arrival_us"] = 10**20  # in the year 3170843
    src = write_jsonl(tmp_path / "records.jsonl", rows)
    delegated = tmp_path / "delegated.txt"
    delegated.write_text(
        "ripencc|ZZ|asn|65001|2|20000101|allocated|x\n"
        "ripencc|ZZ|ipv4|10.0.0.0|16777216|20000101|allocated|y\n"
        "ripencc|ZZ|ipv4|84.205.64.0|256|99991231|allocated|z\n"
    )
    out = tmp_path / "out"
    argv = ["classify", str(src), "-o", str(out), "--allocation", str(delegated)]
    assert main(argv) == 0
    assert read_report(out / "classify_report.json")["allocation"]["dropped_prefix"] == 2
    labeled = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
    assert [(row["prefix"], row["arrival_us"]) for row in labeled
            if row["prefix"] == "84.205.64.0/24"] == [("84.205.64.0/24", 10**20)]


def test_classify_reads_jsonl_prefixes_in_canonical_text(tmp_path, capsys):
    rows = beacon_rows()
    rows[1]["prefix"], rows[3]["prefix"] = "2001:0DB8::/32", "2001:db8::/32"
    src = write_jsonl(tmp_path / "records.jsonl", rows)
    out = tmp_path / "out"
    assert main(["classify", str(src), "-o", str(out)]) == 0
    labels = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
    assert [(r["prefix"], r["label"]) for r in labels[1:4:2]] == [
        ("2001:db8::/32", "initial"), ("2001:db8::/32", "nn"),
    ]


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


@pytest.mark.parametrize(
    "times,retries,jobs",
    [
        (("banana", "2023-05-01T00:05"), "3", "4"),
        (("2023-05-02T00:00", "2023-05-01T00:00"), "3", "4"),
        (("2023-05-01T00:00", "2023-05-01T00:00"), "3", "4"),
        (("2023-05-01T00:00", "2023-05-01T00:05"), "0", "4"),
        (("2023-05-01T00:00", "2023-05-01T00:05"), "3", "0"),
        (("2023-05-01T00:00", "2023-05-01T00:05"), "3", "-1"),
    ],
    ids=["bad-start", "end-before-start", "end-at-start", "no-attempts",
         "no-workers", "negative-workers"],
)
def test_fetch_argument_errors_are_usage_errors(tmp_path, times, retries, jobs):
    argv = [
        "fetch", "--project", "ripe_ris", "--collector", "rrc00",
        "--start", times[0], "--end", times[1], "--retries", retries, "--jobs", jobs,
        "--cache-dir", str(tmp_path / "cache"), "--offline", "-o", str(tmp_path / "out"),
    ]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        code = exc.code
    assert code == 2
    assert list(tmp_path.iterdir()) == []  # no fetch_report.json, no cache


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


def tree_bytes(top):
    return {str(p.relative_to(top)): p.read_bytes() for p in top.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["classify", "beacon", "reduce"])
def test_library_run_is_the_command(tmp_path, capsys, command):
    """run_classify, run_beacon and run_reduce, called in process, write
    the command's files byte for byte and return the line it prints."""
    from bgpchurn.beacon import run_beacon
    from bgpchurn.pipeline import run_classify
    from bgpchurn.reduce import run_reduce

    entries = classify_fixture()
    inputs = [str(write_mrt(tmp_path / "a.mrt", entries[:3])),
              str(write_mrt(tmp_path / "b.mrt", entries[3:]))]
    side = tmp_path / "side.txt"
    if command == "classify":  # every prefix and ASN of the fixture allocated
        side.write_text("ripencc|ZZ|ipv4|10.0.0.0|16777216|20000101|allocated|x\n"
                        "ripencc|ZZ|asn|65001|3|20000101|allocated|x\n")
        argv = ["--collector", "rrc00", "--allocation", str(side)]
        run = lambda out: run_classify(inputs, out, "rrc00", str(side))  # noqa: E731
    elif command == "beacon":
        side.write_text("10.1.0.0/24\n")
        argv = ["--beacon-list", str(side)]
        run = lambda out: run_beacon(inputs, out, str(side))  # noqa: E731
    else:
        argv = ["--state", "cold"]
        run = lambda out: run_reduce(inputs, out, warm=False)[0]  # noqa: E731
    assert main([command, *inputs, *argv, "-o", str(tmp_path / "cli")]) == 0
    printed = capsys.readouterr().out
    assert run(str(tmp_path / "lib")) + "\n" == printed
    assert tree_bytes(tmp_path / "lib") == tree_bytes(tmp_path / "cli") != {}


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
