"""The shared pipeline: each MRT entry with its labeled announcements."""

from __future__ import annotations

import gzip
import random
import tracemalloc
from collections import deque
from itertools import chain

from bgpchurn.allocation import AllocationFilter, filter_allocated, load_delegated
from bgpchurn.classify import StreamClassifier
from bgpchurn.model import expand_stream, labeled_lines, read_records_jsonl
from bgpchurn.mrt.codec import read_mrt_stream, write_mrt_stream
from bgpchurn.normalize import FLAG_REPAIRED_PATH, Normalizer, normalize_stream
from bgpchurn.pipeline import label_messages, mrt_messages

from helpers import build_keepalive_record, random_stream, update_entry

C1 = (65001 << 16) | 100
T = 1_600_000_000

# 10.0.0.0/8 and AS65001-65010 are allocated; 11.0.0.0/24 and AS64999 are not
DELEGATED = [
    "ripencc|ZZ|asn|65001|10|20000101|allocated",
    "ripencc|ZZ|ipv4|10.0.0.0|16777216|20000101|allocated",
]


def fixture_entries():
    return [
        build_keepalive_record(T, 65001, "10.0.0.1", 64512, "10.0.0.2"),
        update_entry(T + 1, announced=("10.2.0.0/24", "10.1.0.0/24")),
        update_entry(T + 2, announced=("10.1.0.0/24",), withdrawn=("10.2.0.0/24",)),
        update_entry(T + 3, announced=("11.0.0.0/24", "10.1.0.0/24"), communities=(C1,)),
        # peer 65001 as a route server: the path gets its ASN prepended
        update_entry(T + 4, announced=("10.2.0.0/24",), path=(65002, 65010)),
        update_entry(T + 5, announced=()),  # end-of-RIB marker
        update_entry(T + 6, announced=("10.3.0.0/24",), path=(65001, 64999)),
    ]


def write_fixture(tmp_path):
    path = tmp_path / "updates.mrt"
    with open(path, "wb") as f:
        write_mrt_stream(fixture_entries(), f)
    return path


def label_file(path, allocated=None):
    messages = mrt_messages(path, "rrc00")
    return list(label_messages(messages, Normalizer(allocated), StreamClassifier()))


def test_labels_come_per_entry_in_wire_order(tmp_path):
    path = write_fixture(tmp_path)
    labeled = label_file(path, AllocationFilter(load_delegated(DELEGATED)))
    assert [entry.encode() for entry, _ in labeled] == [
        entry.encode() for entry in fixture_entries()
    ]
    by_entry = [
        [(r.record.prefix, r.label.value, r.after_withdrawal) for r in labels]
        for _, labels in labeled
    ]
    assert by_entry == [
        [],  # a keepalive
        [("10.2.0.0/24", "initial", False), ("10.1.0.0/24", "initial", False)],
        [("10.1.0.0/24", "nn", False)],  # the withdrawal leaves no label
        [("10.1.0.0/24", "nc", False)],  # the filter drops 11.0.0.0/24
        [("10.2.0.0/24", "pn", True)],
        [],  # end-of-RIB
        [],  # the filter drops the path through AS64999
    ]
    (repaired,) = labeled[4][1]
    assert FLAG_REPAIRED_PATH in repaired.record.flags
    assert repaired.record.attrs.path == (65001, 65002, 65010)


def test_labels_equal_the_record_stream_wrappers(tmp_path):
    path = write_fixture(tmp_path)
    table = load_delegated(DELEGATED)
    for allocated, clean in (
        (None, normalize_stream),
        (AllocationFilter(table), lambda recs: normalize_stream(filter_allocated(recs, table))),
    ):
        per_entry = label_file(path, allocated)
        records = expand_stream(read_mrt_stream(path), "rrc00", str(path))
        expected = list(StreamClassifier().process(clean(records)))
        assert [r for _, labels in per_entry for r in labels] == expected


def test_native_stamp_does_not_reset_the_same_second_count(tmp_path):
    path = tmp_path / "updates.mrt"
    with open(path, "wb") as f:
        write_mrt_stream(
            [
                update_entry(T, announced=("10.1.0.0/24",)),
                # another session, with a native microsecond stamp
                update_entry(T, peer_asn=65002, path=(65002,), microsecond=500),
                update_entry(T, announced=("10.1.0.0/24",)),  # a re-announcement
            ],
            f,
        )
    first, native, again = [labels[0].record for _, labels in label_file(path)]
    assert native.arrival_us == T * 1_000_000 + 500
    assert again.arrival_us > first.arrival_us
    assert "out_of_order" not in again.flags


# ---------------------------------------------------------------------------
# memory stays flat over a replayed corpus
#
# Every structure that grows with input is bounded (README), so once one
# pass has filled the streams, sessions and memos, replaying the same
# corpus allocates nothing that stays.  tracemalloc's size counts bytes,
# not seconds, so the property needs no timing.

DAY_US = 86_400 * 1_000_000
PASSES = 4
SLACK = 4096  # bytes: a free list or a resized table may settle late


def corpus():
    return random_stream(random.Random(7), 3000, n_sessions=12, n_prefixes=40).records


def replay(records, sizes):
    """Each record as a message, PASSES times, a day later each pass;
    ``sizes`` gets tracemalloc's current size as each pass ends."""
    for n in range(PASSES):
        for rec in records:
            yield None, [rec._replace(arrival_us=rec.arrival_us + n * DAY_US)]
        sizes.append(tracemalloc.get_traced_memory()[0])


def traced(run):
    """The sizes ``run`` records, with tracemalloc on for its span."""
    sizes = []
    tracemalloc.start()
    try:
        run(sizes)
    finally:
        tracemalloc.stop()
    assert len(sizes) == PASSES
    return sizes


def labeled(messages):
    return label_messages(messages, Normalizer(), StreamClassifier())


def test_labeling_a_replayed_corpus_keeps_memory_flat():
    records = corpus()
    sizes = traced(lambda sizes: deque(labeled(replay(records, sizes)), maxlen=0))
    assert abs(sizes[3] - sizes[1]) < SLACK, sizes


def test_writing_label_lines_of_a_replayed_corpus_keeps_memory_flat():
    records = corpus()

    def run(sizes):
        labels = chain.from_iterable(out for _, out in labeled(replay(records, sizes)))
        deque(labeled_lines(labels), maxlen=0)

    sizes = traced(run)
    assert abs(sizes[3] - sizes[1]) < SLACK, sizes


def test_reading_one_jsonl_file_again_keeps_memory_flat(tmp_path):
    path = tmp_path / "labels.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(labeled_lines(
            chain.from_iterable(out for _, out in labeled((None, [r]) for r in corpus()))
        ))

    packed = tmp_path / "labels.jsonl.gz"
    packed.write_bytes(gzip.compress(path.read_bytes()))

    for source in (path, packed):
        def run(sizes):
            for _ in range(PASSES):
                deque(read_records_jsonl(source), maxlen=0)
                sizes.append(tracemalloc.get_traced_memory()[0])

        sizes = traced(run)
        assert abs(sizes[3] - sizes[1]) < SLACK, (source.name, sizes)
