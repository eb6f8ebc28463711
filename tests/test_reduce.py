"""Update-file pruning rules and reports."""

from __future__ import annotations

import bz2
import gzip
import io
import json
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.classify import AnnouncementType, StreamClassifier
from bgpchurn.cli import main as cli_main
from bgpchurn.errors import LabelMismatch, TruncatedRecord
from bgpchurn.mrt.build import build_keepalive_record, build_update_record
from bgpchurn.mrt.codec import read_mrt_stream, write_mrt_stream
from bgpchurn.reduce import (
    CorpusSummary,
    ReductionReport,
    corpus_reduction,
    infer_project,
    message_is_unnecessary,
    reduce_file,
    write_reports_csv,
    write_summary_json,
)

from helpers import update_entry

NC = AnnouncementType.NC
NN = AnnouncementType.NN
PC = AnnouncementType.PC
INITIAL = AnnouncementType.INITIAL

C1 = (65001 << 16) | 100
C2 = (65001 << 16) | 200


# --- single-message discard rule ---


def msg_of(announced=("10.0.0.0/24",), withdrawn=()):
    return update_entry(announced=announced, withdrawn=withdrawn).message


def test_all_unnecessary_labels_discardable():
    assert message_is_unnecessary(msg_of(), [NN]) is True
    assert message_is_unnecessary(msg_of(), [NC]) is True
    two = msg_of(announced=("10.0.0.0/24", "10.0.1.0/24"))
    assert message_is_unnecessary(two, [NC, NN]) is True


def test_mixed_labels_keep():
    two = msg_of(announced=("10.0.0.0/24", "10.0.1.0/24"))
    assert message_is_unnecessary(two, [NC, PC]) is False
    assert message_is_unnecessary(msg_of(), [INITIAL]) is False


def test_withdrawal_vetoes_discard():
    mixed = msg_of(announced=("10.0.0.0/24",), withdrawn=("10.0.9.0/24",))
    assert message_is_unnecessary(mixed, [NN]) is False


def test_no_announcements_kept():
    pure = msg_of(announced=(), withdrawn=("10.0.0.0/24",))
    assert message_is_unnecessary(pure, []) is False
    end_of_rib = msg_of(announced=(), withdrawn=())
    assert message_is_unnecessary(end_of_rib, []) is False


def test_label_coverage_gap_raises():
    two = msg_of(announced=("10.0.0.0/24", "10.0.1.0/24"))
    with pytest.raises(LabelMismatch):
        message_is_unnecessary(two, [NN])


# --- file reduction ---


def fixture_entries():
    """Ten update messages; exactly three are purely unnecessary."""
    e = []
    t = 1_600_000_000
    path_a, path_b = (65001, 65002), (65001, 65003)
    e.append(update_entry(t + 0, announced=("10.1.0.0/24",), path=path_a))  # initial
    e.append(update_entry(t + 1, announced=("10.1.0.0/24",), path=path_a))  # nn  DROP
    e.append(update_entry(t + 2, announced=("10.1.0.0/24",), path=path_a,
                          communities=(C1,)))                               # nc  DROP
    e.append(update_entry(t + 3, announced=("10.1.0.0/24",), path=path_b,
                          communities=(C1,)))                               # pn
    e.append(update_entry(t + 4, announced=(), withdrawn=("10.1.0.0/24",)))
    e.append(update_entry(t + 5, announced=("10.1.0.0/24",), path=path_b,
                          communities=(C1,)))                               # nn  DROP
    e.append(update_entry(t + 6, announced=("10.2.0.0/24",), path=path_a))  # initial
    e.append(update_entry(t + 7, announced=("10.1.0.0/24",), path=path_b,
                          communities=(C1,), withdrawn=("10.2.0.0/24",)))   # veto
    e.append(update_entry(t + 8, announced=("10.1.0.0/24",),
                          path=(65001, 65001, 65003), communities=(C1,)))   # xn
    e.append(update_entry(t + 9, announced=()))  # end-of-RIB marker
    return e


def write_fixture(path, entries):
    with open(path, "wb") as f:
        return write_mrt_stream(entries, f)


def test_reduce_fixture_ratio(tmp_path):
    src, dst = tmp_path / "in.mrt", tmp_path / "out.mrt"
    bytes_in = write_fixture(src, fixture_entries())
    report = reduce_file(src, dst)
    assert report.total_messages == 10
    assert report.discarded_messages == 3
    assert report.kept_messages == 7
    assert report.reduction_ratio == pytest.approx(0.30)
    assert report.total_bytes_in == bytes_in
    assert report.total_bytes_out == dst.stat().st_size
    assert 0 < report.bytes_ratio < 1


def test_reduce_output_is_byte_subsequence(tmp_path):
    src, dst = tmp_path / "in.mrt", tmp_path / "out.mrt"
    write_fixture(src, fixture_entries())
    reduce_file(src, dst)
    original = [e.encode() for e in read_mrt_stream(src)]
    kept = [e.encode() for e in read_mrt_stream(dst)]
    assert len(kept) == 7
    it = iter(original)
    assert all(any(blob == o for o in it) for blob in kept)  # ordered subsequence
    # the kept records are byte-identical members of the input
    assert all(blob in original for blob in kept)


def test_reduce_idempotent(tmp_path):
    src = tmp_path / "in.mrt"
    first, second = tmp_path / "once.mrt", tmp_path / "twice.mrt"
    write_fixture(src, fixture_entries())
    reduce_file(src, first)
    again = reduce_file(first, second)
    assert again.discarded_messages == 0
    assert second.read_bytes() == first.read_bytes()


def test_reduce_withdrawals_only(tmp_path):
    src, dst = tmp_path / "in.mrt", tmp_path / "out.mrt"
    entries = [
        update_entry(1_600_000_000 + i, announced=(), withdrawn=("10.0.0.0/24",))
        for i in range(4)
    ]
    write_fixture(src, entries)
    report = reduce_file(src, dst)
    assert report.reduction_ratio == 0.0
    assert dst.read_bytes() == src.read_bytes()


def test_reduce_passes_non_update_records(tmp_path):
    src, dst = tmp_path / "in.mrt", tmp_path / "out.mrt"
    keepalive = build_keepalive_record(
        1_600_000_000, 65001, "10.0.0.1", 64512, "10.0.0.2"
    )
    entries = [
        keepalive,
        update_entry(1_600_000_001, announced=()),
        update_entry(1_600_000_002, announced=()),
    ]
    write_fixture(src, entries)
    report = reduce_file(src, dst)
    # keepalive passes through uncounted; both end-of-RIBs counted, kept
    assert report.total_messages == 2
    assert report.discarded_messages == 0
    assert len(list(read_mrt_stream(dst))) == 3


def test_reduce_dry_run(tmp_path):
    src = tmp_path / "in.mrt"
    write_fixture(src, fixture_entries())
    report = reduce_file(src, None)
    assert report.discarded_messages == 3
    assert list(tmp_path.iterdir()) == [src]  # nothing written


def test_reduce_atomic_on_failure(tmp_path):
    src, dst = tmp_path / "in.mrt", tmp_path / "out.mrt"
    blob = io.BytesIO()
    write_mrt_stream(fixture_entries(), blob)
    src.write_bytes(blob.getvalue()[:-10])  # truncate the final record
    with pytest.raises(TruncatedRecord):
        reduce_file(src, dst)
    assert not dst.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["in.mrt"]  # no temp litter


@pytest.mark.parametrize(
    "compress,decompress,magic",
    [(gzip.compress, gzip.decompress, b"\x1f\x8b"), (bz2.compress, bz2.decompress, b"BZh")],
)
def test_reduce_keeps_input_container(tmp_path, compress, decompress, magic):
    plain_src, plain_out = tmp_path / "in.mrt", tmp_path / "plain-out.mrt"
    write_fixture(plain_src, fixture_entries())
    reduce_file(plain_src, plain_out)
    packed_src = tmp_path / "in.mrt.packed"
    packed_src.write_bytes(compress(plain_src.read_bytes()))
    first, second = tmp_path / "first.out", tmp_path / "second.out"
    report = reduce_file(packed_src, first)
    reduce_file(packed_src, second)
    assert report.discarded_messages == 3
    blob = first.read_bytes()
    assert blob.startswith(magic)
    assert decompress(blob) == plain_out.read_bytes()
    assert second.read_bytes() == blob  # no timestamp or temp-file name inside


def test_reduce_gzip_header_is_deterministic(tmp_path):
    src, dst = tmp_path / "in.mrt.gz", tmp_path / "out.mrt.gz"
    blob = io.BytesIO()
    write_mrt_stream(fixture_entries(), blob)
    src.write_bytes(gzip.compress(blob.getvalue()))
    reduce_file(src, dst)
    header = dst.read_bytes()[:10]
    assert header[3] == 0  # no FNAME or other optional fields
    assert header[4:8] == b"\x00\x00\x00\x00"  # mtime 0


def test_reduce_repairs_route_server_paths(tmp_path):
    # route server 65001 leaves itself off the first path; after repair
    # both paths read (65001, 65002, 65010), so the second is nn
    src = tmp_path / "in.mrt"
    write_fixture(src, [
        update_entry(1_600_000_000, announced=("10.1.0.0/24",), path=(65002, 65010)),
        update_entry(1_600_000_001, announced=("10.1.0.0/24",),
                     path=(65001, 65002, 65010)),
    ])
    assert reduce_file(src, None).discarded_messages == 1


ROUTE_SERVER = 65100
PREFIXES = ("10.1.0.0/24", "10.2.0.0/24", "10.3.0.0/24")

# repeated choices make nc/nn labels, and so discards, common
message_specs = st.lists(
    st.tuples(
        st.sampled_from((65001, ROUTE_SERVER)),
        st.integers(0, 2),  # seconds after the previous message
        st.none() | st.integers(0, 999_999),  # BGP4MP or BGP4MP_ET stamp
        st.lists(st.sampled_from(PREFIXES), unique=True, max_size=3),  # announced
        st.sampled_from(((),) * 4 + ((PREFIXES[0],), PREFIXES[1:])),  # withdrawn
        st.sampled_from(((65002, 65010), (65002, 65010), (65002, 65002, 65010))),
        st.booleans(),  # the route server puts its own ASN on the path
        st.sampled_from(((), (), (C1,), (C2, C1))),
        st.sampled_from((False,) * 7 + (True,)),  # a keepalive instead of an update
    ),
    max_size=30,
)


@settings(max_examples=150)
@given(message_specs)
def test_reduce_drops_exactly_what_classify_labels_unnecessary(messages):
    entries = []
    t = 1_600_000_000
    for peer, gap, usec, announced, withdrawn, path, on_path, comms, keepalive in messages:
        t += gap
        if keepalive:
            entries.append(build_keepalive_record(
                t, peer, "10.0.0.1", 64512, "10.0.0.2", usec
            ))
            continue
        if peer != ROUTE_SERVER or on_path:
            path = (peer,) + path
        entries.append(update_entry(
            t, peer, announced=announced,
            withdrawn=[p for p in withdrawn if p not in announced],
            path=path, communities=comms, microsecond=usec,
        ))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "in.mrt"
        write_fixture(src, entries)
        assert cli_main(["classify", str(src), "-o", str(tmp / "labels")]) == 0
        labels = defaultdict(list)
        with open(tmp / "labels" / "labels.jsonl", encoding="utf-8") as f:
            for line in f:
                row = json.loads(line)
                labels[row["source_message_index"]].append(row["label"])
        decoded = list(read_mrt_stream(src))
        dropped = [
            e.kind == "update"
            and bool(e.message.announced_prefixes)
            and not e.message.withdrawn_prefixes
            and all(label in ("nc", "nn") for label in labels[i])
            for i, e in enumerate(decoded)
        ]
        report = reduce_file(src, tmp / "out.mrt")
        kept = [e.encode() for e, drop in zip(decoded, dropped) if not drop]
        assert [e.encode() for e in read_mrt_stream(tmp / "out.mrt")] == kept
        assert report.discarded_messages == sum(dropped)


def test_reduce_warm_start_across_files(tmp_path):
    part1, part2 = tmp_path / "a.mrt", tmp_path / "b.mrt"
    repeat = lambda t: update_entry(t, announced=("10.1.0.0/24",), path=(65001, 65002))
    write_fixture(part1, [repeat(1_600_000_000)])
    write_fixture(part2, [repeat(1_600_000_100)])

    cold = reduce_file(part2, None)
    assert cold.discarded_messages == 0  # initial when classified alone

    clf = StreamClassifier()
    reduce_file(part1, None, clf)
    warm = reduce_file(part2, None, clf)
    assert warm.discarded_messages == 1  # nn given part1's history


def test_corpus_reduction_warm_equals_concatenation(tmp_path):
    entries = fixture_entries()
    part1, part2 = tmp_path / "p1.mrt", tmp_path / "p2.mrt"
    whole = tmp_path / "whole.mrt"
    write_fixture(part1, entries[:5])
    write_fixture(part2, entries[5:])
    write_fixture(whole, entries)
    out = tmp_path / "out"
    out.mkdir()
    summary = corpus_reduction([part1, part2], out, warm=True)
    split_discards = sum(r.discarded_messages for r in summary.reports)
    whole_report = reduce_file(whole, None)
    assert split_discards == whole_report.discarded_messages == 3
    assert (out / "p1.mrt").read_bytes() + (out / "p2.mrt").read_bytes()


def test_corpus_records_failures(tmp_path):
    ok = tmp_path / "ok.mrt"
    write_fixture(ok, fixture_entries())
    missing = tmp_path / "missing.mrt"
    summary = corpus_reduction([ok, missing], None)
    assert len(summary.reports) == 1
    assert str(missing) in summary.failures


# --- corpus summary math ---


def mk_report(name, total, discarded):
    return ReductionReport(name, total, discarded, 1000, 1000 - discarded * 50)


def test_summary_statistics():
    summary = CorpusSummary(
        reports=[
            mk_report("rrc00/updates.1", 10, 5),
            mk_report("rrc01/updates.2", 10, 3),
            mk_report("route-views2/updates.3", 10, 1),
        ]
    )
    assert summary.mean_ratio() == pytest.approx((0.5 + 0.3 + 0.1) / 3)
    cdf = summary.cdf_points()
    assert cdf == [(0.1, pytest.approx(1 / 3)),
                   (0.3, pytest.approx(2 / 3)),
                   (0.5, pytest.approx(1.0))]
    means = summary.per_project_means()
    assert means["ripe_ris"] == pytest.approx(0.4)
    assert means["routeviews"] == pytest.approx(0.1)


def test_infer_project():
    assert infer_project("data/rrc00/updates.20230101.mrt") == "ripe_ris"
    assert infer_project("route-views2/bgpdata/updates.mrt") == "routeviews"
    assert infer_project("somewhere/else.mrt") == "unknown"


def test_report_outputs(tmp_path):
    summary = CorpusSummary(reports=[mk_report("rrc00/u", 10, 4)])
    csv_buf = io.StringIO()
    write_reports_csv(summary, csv_buf)
    lines = csv_buf.getvalue().strip().splitlines()
    assert lines[0].startswith("file,total_messages,discarded_messages")
    assert lines[1].split(",")[3] == "0.400000"

    json_buf = io.StringIO()
    write_summary_json(summary, json_buf)
    data = json.loads(json_buf.getvalue())
    assert data["files"] == 1
    assert data["mean_reduction_ratio"] == pytest.approx(0.4)
    assert data["cdf"] == [[0.4, 1.0]]
