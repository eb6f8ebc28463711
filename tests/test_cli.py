"""End-to-end command-line behavior."""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess

import pytest

from bgpchurn.cli import main
from bgpchurn.mrt.codec import read_mrt_stream, write_mrt_stream

from helpers import update_entry

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


# --- classify ---


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
    report = json.loads((out / "classify_report.json").read_text())
    assert report["announcements"] == 5
    assert report["withdrawals"] == 1
    assert report["allocation_filter"] is False
    assert (out / "peer_nc_nn.csv").read_text().strip().splitlines()[1] == "65001,1,2"
    assert "labeled 4 announcements" in capsys.readouterr().out


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
    report = json.loads((out / "classify_report.json").read_text())
    assert report["allocation_filter"] is True
    assert report["allocation"]["dropped_asn"] == 2
    assert report["announcements"] == 3

    out2 = tmp_path / "out2"
    assert main([
        "classify", str(src), "-o", str(out2),
        "--allocation", str(delegated), "--no-alloc-filter",
    ]) == 0
    report2 = json.loads((out2 / "classify_report.json").read_text())
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
    summary = json.loads((out / "reduction_summary.json").read_text())
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
    a = write_mrt(tmp_path / "a.mrt", entries[:3])
    b = write_mrt(tmp_path / "b.mrt", [repeat])  # replays a's last update

    cold_out, warm_out = tmp_path / "cold", tmp_path / "warm"
    assert main(["reduce", str(a), str(b), "-o", str(cold_out),
                 "--state", "cold"]) == 0
    assert main(["reduce", str(a), str(b), "-o", str(warm_out),
                 "--state", "warm"]) == 0

    def discards(out):
        summary = json.loads((out / "reduction_summary.json").read_text())
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
    summary = json.loads((out / "reduction_summary.json").read_text())
    assert len(summary["failures"]) == 1


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


def test_beacon_no_records_exit_code(tmp_path, capsys):
    src = write_mrt(
        tmp_path / "updates.mrt",
        [update_entry(DAY0, announced=("192.0.2.0/24",))],
    )
    assert main(["beacon", str(src), "-o", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


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
    report = json.loads((out / "fetch_report.json").read_text())
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
    report = json.loads((out / "fetch_report.json").read_text())
    assert len(report["failures"]) == 1


def test_fetch_unknown_collector_exit_code(tmp_path, capsys):
    code = main([
        "fetch", "--project", "ripe_ris", "--collector", "bogus",
        "--start", "2023-05-01T00:00", "--end", "2023-05-01T00:05",
        "-o", str(tmp_path),
    ])
    assert code == 2
    assert "not a ripe_ris collector" in capsys.readouterr().err


# --- entry point wiring ---


def test_version_flag():
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0


def test_console_script_installed():
    exe = shutil.which("bgpchurn")
    assert exe, "console script missing"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
