"""Update-file pruning rules and reports."""

from __future__ import annotations

import builtins
import bz2
import gzip
import io
import json
import tempfile
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.classify import AnnouncementType, StreamClassifier
from bgpchurn.cli import main as cli_main
from bgpchurn.errors import BgpChurnError, MrtError
from bgpchurn.fetch import ArchiveTarget, plan_urls
from bgpchurn.mrt.codec import read_mrt_stream, write_mrt_stream
from bgpchurn.reduce import (
    REPORT_HEADER,
    CorpusSummary,
    ReductionReport,
    message_is_unnecessary,
    reduce_file,
    run_reduce,
    write_reports_csv,
    write_summary_json,
)

from helpers import build_keepalive_record, count_opens, update_entry

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
    with pytest.raises(BgpChurnError):
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


def test_reduce_atomic_on_failure(tmp_path):
    src, dst = tmp_path / "in.mrt", tmp_path / "out.mrt"
    blob = io.BytesIO()
    write_mrt_stream(fixture_entries(), blob)
    src.write_bytes(blob.getvalue()[:-10])  # truncate the final record
    with pytest.raises(MrtError):
        reduce_file(src, dst)
    assert not dst.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["in.mrt"]  # no temp litter


def test_pruned_file_that_cannot_be_created_is_one_named_failure(tmp_path):
    """A directory where the pruned file goes fails that file alone."""
    src, other = tmp_path / "in.mrt", tmp_path / "other.mrt"
    write_fixture(src, fixture_entries())
    write_fixture(other, fixture_entries())
    pruned = tmp_path / "out" / "pruned"
    taken = pruned / src.name
    taken.mkdir(parents=True)
    _, summary = run_reduce([src, other], tmp_path / "out")
    assert [r.file for r in summary.reports] == [str(other)]
    assert summary.failures[str(src)].startswith(f"{taken}: ")
    assert sorted(pruned.iterdir()) == [taken, pruned / other.name]
    assert list(taken.iterdir()) == []


def test_input_name_of_250_bytes_is_reduced(tmp_path):
    """The temp file's name does not grow with the output's."""
    src = tmp_path / ("u" * 250)
    write_fixture(src, fixture_entries())
    _, summary = run_reduce([src], tmp_path / "out")
    assert summary.failures == {}
    assert summary.reports[0].discarded_messages == 3
    pruned = tmp_path / "out" / "pruned"
    assert list(pruned.iterdir()) == [pruned / src.name]


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


@pytest.mark.parametrize(
    "suffix,decompress,magic",
    [(".gz", gzip.decompress, b"\x1f\x8b"), (".bz2", bz2.decompress, b"BZh")],
)
def test_reduce_writes_the_container_its_name_says(tmp_path, suffix, decompress, magic):
    plain_src, plain_out = tmp_path / "in.mrt", tmp_path / "plain-out.mrt"
    write_fixture(plain_src, fixture_entries())
    reduce_file(plain_src, plain_out)
    # plain MRT under a compressed name, pruned to that same name
    named_src = tmp_path / f"plain_named{suffix}"
    named_src.write_bytes(plain_src.read_bytes())
    out = tmp_path / "pruned" / named_src.name
    out.parent.mkdir()
    report = reduce_file(named_src, out)
    assert report.discarded_messages == 3
    blob = out.read_bytes()
    assert blob.startswith(magic)
    assert decompress(blob) == plain_out.read_bytes()


def test_reduce_gzip_header_is_deterministic(tmp_path):
    src, dst = tmp_path / "in.mrt.gz", tmp_path / "out.mrt.gz"
    blob = io.BytesIO()
    write_mrt_stream(fixture_entries(), blob)
    src.write_bytes(gzip.compress(blob.getvalue()))
    reduce_file(src, dst)
    header = dst.read_bytes()[:10]
    assert header[3] == 0  # no FNAME or other optional fields
    assert header[4:8] == b"\x00\x00\x00\x00"  # mtime 0


@pytest.mark.parametrize(
    "pack", [gzip.compress, bz2.compress, bytes], ids=["gzip", "bzip2", "plain"]
)
def test_reduce_opens_its_input_twice(tmp_path, monkeypatch, pack):
    """Once for the magic bytes, once to read the records."""
    src = tmp_path / "in.mrt"
    blob = io.BytesIO()
    write_mrt_stream(fixture_entries(), blob)
    src.write_bytes(pack(blob.getvalue()))
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    reduce_file(src, tmp_path / "out.mrt")
    assert opened.count(str(src)) == 2


@pytest.mark.parametrize(
    "pack,suffix", [(gzip.compress, ".gz"), (bz2.compress, ".bz2")], ids=["gzip", "bzip2"]
)
def test_reduce_opens_an_input_named_by_its_container_once(
    tmp_path, monkeypatch, pack, suffix
):
    """The output's name says its container, so the input is not peeked."""
    src = tmp_path / f"in.mrt{suffix}"
    blob = io.BytesIO()
    write_mrt_stream(fixture_entries(), blob)
    src.write_bytes(pack(blob.getvalue()))
    opened = count_opens(monkeypatch)
    reduce_file(src, tmp_path / f"out{suffix}")
    assert opened.count(str(src)) == 1


def test_reduce_repairs_route_server_paths(tmp_path):
    # route server 65001 leaves itself off the first path; after repair
    # both paths read (65001, 65002, 65010), so the second is nn
    src = tmp_path / "in.mrt"
    write_fixture(src, [
        update_entry(1_600_000_000, announced=("10.1.0.0/24",), path=(65002, 65010)),
        update_entry(1_600_000_001, announced=("10.1.0.0/24",),
                     path=(65001, 65002, 65010)),
    ])
    assert reduce_file(src, tmp_path / "out.mrt").discarded_messages == 1


def test_reduce_summary_counts_normalizer_flags(tmp_path):
    # route server 65001 leaves itself off two paths, one of them empty
    t = 1_600_000_000
    first, second = tmp_path / "updates.0000.mrt", tmp_path / "updates.0005.mrt"
    write_fixture(first, [
        update_entry(t, announced=("10.1.0.0/24",), path=(65002, 65010)),
        update_entry(t + 1, announced=("10.1.0.0/24",), path=(65001, 65002, 65010)),
    ])
    write_fixture(second, [
        update_entry(t + 2, announced=("10.2.0.0/24", "10.3.0.0/24"), path=()),
    ])
    out = tmp_path / "out"
    assert cli_main(["reduce", str(first), str(second), "-o", str(out)]) == 0
    summary = json.loads((out / "reduction_summary.json").read_text())
    assert list(summary["flags"].items()) == [
        ("repaired_path", 3), ("anomalous_empty_path", 2), ("overflow_second", 0),
        ("reopened_second", 0),
    ]
    assert all("flags" not in report for report in summary["reports"])
    header = (out / "reduction.csv").read_text().splitlines()[0]
    assert header == ",".join(REPORT_HEADER)

    report = reduce_file(second, tmp_path / "second.mrt")
    assert report.flags == {"repaired_path": 2, "anomalous_empty_path": 2}


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


def entries_of(messages):
    """The MRT entries that ``message_specs`` describe."""
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
    return entries


@settings(max_examples=150)
@given(message_specs)
def test_reduce_drops_exactly_what_classify_labels_unnecessary(messages):
    entries = entries_of(messages)
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


def prune_against_labels(tmp, files):
    """Run ``classify`` and ``reduce --state warm`` over the same update
    files, and check each pruned file against the labels: it is its input,
    byte for byte, less exactly the messages that announce a prefix,
    withdraw nothing and have only nc or nn labels.  Labels are paired
    with messages by (source_file, source_message_index).  Returns the
    labels in file order and the number of discarded messages."""
    paths = []
    for i, entries in enumerate(files):
        path = tmp / f"updates.{i:04d}.mrt"  # one collector, consecutive files
        write_fixture(path, entries)
        paths.append(str(path))
    assert cli_main(["classify", *paths, "-o", str(tmp / "labels")]) == 0
    assert cli_main(["reduce", "--state", "warm", *paths, "-o", str(tmp / "out")]) == 0
    labels = defaultdict(list)
    with open(tmp / "labels" / "labels.jsonl", encoding="utf-8") as f:
        for row in map(json.loads, f):
            labels[row["source_file"], row["source_message_index"]].append(row["label"])
    discarded = 0
    for path in paths:
        kept = []
        for i, entry in enumerate(read_mrt_stream(path)):
            msg = entry.message
            if (
                msg is not None
                and msg.announced_prefixes
                and not msg.withdrawn_prefixes
                and all(label in ("nc", "nn") for label in labels[path, i])
            ):
                discarded += 1
            else:
                kept.append(entry.encode())
        assert (tmp / "out" / "pruned" / Path(path).name).read_bytes() == b"".join(kept)
    summary = json.loads((tmp / "out" / "reduction_summary.json").read_text())
    assert sum(r["discarded_messages"] for r in summary["reports"]) == discarded
    return [label for key in sorted(labels) for label in labels[key]], discarded


def test_reduce_warm_prunes_what_classify_labels_across_files(tmp_path):
    t = 1_600_000_000
    both = ("10.1.0.0/24", "10.2.0.0/24")
    files = [
        [
            update_entry(t, announced=both),  # initial, initial: kept
            build_keepalive_record(t + 1, 65001, "10.0.0.1", 64512, "10.0.0.2"),
            update_entry(t + 2, announced=both[:1]),  # a repeat: nn
            update_entry(t + 3, announced=both[:1], communities=(C1,)),  # nc
            update_entry(t + 4, announced=(), withdrawn=both[1:]),  # kept
        ],
        [
            update_entry(t + 300, announced=both[:1], communities=(C1,)),  # nn, warm
            # nn after its withdrawal, so dropped: README's known limitation
            update_entry(t + 301, announced=both[1:]),
            # an nn announcement beside a withdrawal: kept
            update_entry(t + 302, announced=both[:1], withdrawn=("10.3.0.0/24",),
                         communities=(C1,)),
            update_entry(t + 303, announced=both, communities=(C2,)),  # nc, nc
            update_entry(t + 304, announced=both[:1], path=(65001, 65003),
                         communities=(C2,)),  # a path change: kept
        ],
        [
            update_entry(t + 600, announced=()),  # end-of-RIB: kept
            update_entry(t + 601, announced=both[:1], path=(65001, 65003),
                         communities=(C2,)),  # nn
        ],
    ]
    labels, discarded = prune_against_labels(tmp_path, files)
    assert discarded == 6
    assert {"nc", "nn", "initial"} < set(labels)


@settings(max_examples=60)
@given(message_specs, st.lists(st.integers(0, 30), min_size=1, max_size=2))
def test_reduce_warm_prunes_what_classify_labels_at_any_file_cuts(messages, cuts):
    entries = entries_of(messages)
    bounds = [0, *sorted(cut % (len(entries) + 1) for cut in cuts), len(entries)]
    files = [entries[a:b] for a, b in zip(bounds, bounds[1:])]
    with tempfile.TemporaryDirectory() as tmp:
        prune_against_labels(Path(tmp), files)


def test_reduce_warm_start_across_files(tmp_path):
    # consecutive files of one collector: the names share their head
    part1, part2 = tmp_path / "updates.0000.mrt", tmp_path / "updates.0005.mrt"
    repeat = lambda t: update_entry(t, announced=("10.1.0.0/24",), path=(65001, 65002))
    write_fixture(part1, [repeat(1_600_000_000)])
    write_fixture(part2, [repeat(1_600_000_100)])

    out = tmp_path / "out.mrt"
    cold = reduce_file(part2, out)
    assert cold.discarded_messages == 0  # initial when classified alone

    clf = StreamClassifier()
    reduce_file(part1, out, clf)
    warm = reduce_file(part2, out, clf)
    assert warm.discarded_messages == 1  # nn given part1's history


def test_run_reduce_warm_equals_concatenation(tmp_path):
    entries = fixture_entries()
    part1, part2 = tmp_path / "updates.0000.mrt", tmp_path / "updates.0005.mrt"
    whole = tmp_path / "whole.mrt"
    write_fixture(part1, entries[:5])
    write_fixture(part2, entries[5:])
    write_fixture(whole, entries)
    _, summary = run_reduce([part1, part2], tmp_path / "out", warm=True)
    out = tmp_path / "out" / "pruned"
    split_discards = sum(r.discarded_messages for r in summary.reports)
    whole_report = reduce_file(whole, tmp_path / "whole.out")
    assert split_discards == whole_report.discarded_messages == 3
    assert (out / part1.name).read_bytes() + (out / part2.name).read_bytes()


def test_corpus_records_failures(tmp_path):
    ok = tmp_path / "ok.mrt"
    write_fixture(ok, fixture_entries())
    missing = tmp_path / "missing.mrt"
    _, summary = run_reduce([ok, missing], tmp_path / "out")
    assert len(summary.reports) == 1
    assert str(missing) in summary.failures


def replay(paths):
    """A listener's final route per (peer, prefix) stream after ``paths``."""
    routes = {}
    for path in paths:
        for entry in read_mrt_stream(path):
            msg = entry.message
            for prefix in msg.withdrawn_prefixes:
                routes[msg.peer_address, prefix] = None
            for prefix in msg.announced_prefixes:
                routes[msg.peer_address, prefix] = msg.attributes
    return routes


def test_warm_state_restarts_after_a_failed_file(tmp_path):
    # a and c are kept; b fails, so c must not be judged against b
    t = 1_600_000_000
    a, b, c = (tmp_path / f"updates.{n}.mrt" for n in ("0000", "0005", "0010"))
    write_fixture(a, [update_entry(t, announced=("10.1.0.0/24",), path=(65001, 65002))])
    blob = io.BytesIO()
    write_mrt_stream([
        update_entry(t + 300, announced=("10.1.0.0/24",), path=(65001, 65003)),
        update_entry(t + 301, announced=("10.2.0.0/24",), path=(65001, 65003)),
    ], blob)
    b.write_bytes(blob.getvalue()[:-10])  # the second record is cut
    write_fixture(c, [update_entry(t + 600, announced=("10.1.0.0/24",),
                                   path=(65001, 65003))])
    _, summary = run_reduce([a, b, c], tmp_path / "out", warm=True)
    out = tmp_path / "out" / "pruned"
    assert list(summary.failures) == [str(b)]
    assert [r.discarded_messages for r in summary.reports] == [0, 0]
    assert (out / c.name).read_bytes() == c.read_bytes()
    assert replay([out / a.name, out / c.name]) == replay([a, c])


# --- corpus summary math ---


def mk_report(name, total, discarded):
    return ReductionReport(name, total, discarded, 1000, 1000 - discarded * 50)


def test_summary_statistics():
    summary = CorpusSummary(
        reports=[
            mk_report("rrc00/2023.05/updates.20230501.0000.gz", 10, 5),
            mk_report("rrc01/2023.05/updates.20230501.0000.gz", 10, 3),
            mk_report("bgpdata/2023.05/UPDATES/updates.20230501.0000.bz2", 10, 1),
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


def test_per_project_means_follow_the_collector():
    # a file counts for the project of the collector its sessions are keyed to
    ratios = {"rrc00": 0.4, "route-views2": 0.2, "route-views.sydney": 0.1}
    reports = [mk_report("somewhere/else.mrt", 10, 9)]
    for collector, ratio in ratios.items():
        project = "ripe_ris" if collector.startswith("rrc") else "routeviews"
        target = ArchiveTarget(
            project,
            collector,
            datetime(2023, 5, 1, tzinfo=timezone.utc),
            datetime(2023, 5, 1, 0, 5, tzinfo=timezone.utc),
        )
        (planned,) = plan_urls(target)
        path = f"/home/u/.cache/bgpchurn/{planned.relative_path}"
        reports.append(mk_report(path, 10, round(ratio * 10)))
    assert CorpusSummary(reports=reports).per_project_means() == {
        "ripe_ris": pytest.approx(0.4),
        "routeviews": pytest.approx(0.15),
        "unknown": pytest.approx(0.9),
    }


def test_report_outputs(tmp_path):
    summary = CorpusSummary(reports=[mk_report("rrc00/u", 10, 4)])
    write_reports_csv(summary, tmp_path / "reduction.csv")
    lines = (tmp_path / "reduction.csv").read_text().strip().splitlines()
    assert lines[0].startswith("file,total_messages,discarded_messages")
    assert lines[1].split(",")[3] == "0.400000"

    write_summary_json(summary, tmp_path / "summary.json")
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["files"] == 1
    assert data["mean_reduction_ratio"] == pytest.approx(0.4)
    assert data["cdf"] == [[0.4, 1.0]]
