"""The three commands' pipelines, driven through the layers' public functions.

Each ``*_pass`` function does what one ``bgpchurn`` subcommand does at
this commit and writes the same output files, so the same checks apply
to it.  A ``Tracer`` times every boundary from this side of the call:
a pipeline stage's inclusive time is the time spent inside its
iterator's ``next()``, and its self time is that minus its upstream's
inclusive time.  With a disabled tracer the stages run unwrapped, which
gives the untraced wall time the tracing overhead is measured against.
"""

from __future__ import annotations

import gc
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from bgpchurn import __version__
from bgpchurn.allocation import FilterStats, filter_allocated, load_delegated
from bgpchurn.beacon import (
    DEFAULT_BEACONS,
    DEFAULT_SCHEDULE,
    partition_communities,
    write_partition_csv,
    write_partition_summary_csv,
)
from bgpchurn.classify import StreamClassifier, write_peer_csv, write_tally_csv
from bgpchurn.model import expand_message, expand_stream, read_records_jsonl, record_to_dict
from bgpchurn.mrt.codec import open_archive, read_mrt_stream, write_mrt_stream
from bgpchurn.normalize import FLAG_REPAIRED_PATH, normalize_stream
from bgpchurn.reduce import (
    CorpusSummary,
    ReductionReport,
    message_is_unnecessary,
    write_reports_csv,
    write_summary_json,
)

# Spans whose self times are reported as "<span>_s", in pipeline order;
# with trace.unattributed_s they sum to trace.wall_s.
SELF_TIMES = (
    "mrt.container",
    "mrt.read",
    "model.jsonl_read",
    "model.expand",
    "allocation.load",
    "allocation.filter",
    "normalize.self",
    "classify.observe",
    "reduce.decide",
    "beacon.partition",
    "mrt.write",
    "model.jsonl_write",
)
COUNTS = (
    "mrt.records",
    "model.records",
    "allocation.dropped",
    "normalize.repaired",
    "classify.labeled",
    "classify.streams",
    "reduce.discarded",
    "reduce.bytes_out",
    "beacon.matched",
)


class Tracer:
    """Inclusive time per named span, and the span each one pulls from."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.inclusive: dict[str, float] = defaultdict(float)
        self.upstream: dict[str, str] = {}

    def stage(self, name: str, iterable, upstream: str | None = None):
        if not self.enabled:
            return iterable
        if upstream:
            self.upstream[name] = upstream
        return self._timed(name, iter(iterable))

    def _timed(self, name, it):
        clock = time.perf_counter
        busy = 0.0
        try:
            while True:
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    busy += clock() - start
                    return
                busy += clock() - start
                yield item
        finally:
            self.inclusive[name] += busy

    @contextmanager
    def span(self, name: str, upstream: str | None = None):
        if upstream:
            self.upstream[name] = upstream
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.enabled:
                self.inclusive[name] += time.perf_counter() - start

    def close_unused(self) -> None:
        """Give layers this pipeline does not run an empty span.

        Their time then reads as what an empty span measures (under a
        microsecond) rather than as a constant written-in zero.
        """
        for name in SELF_TIMES:
            if self.enabled and name not in self.inclusive:
                with self.span(name):
                    pass

    def file(self, name: str, f):
        return _TimedFile(f, self, name) if self.enabled else f

    def self_times(self) -> dict[str, float]:
        return {
            name: self.inclusive.get(name, 0.0) - self.inclusive.get(self.upstream.get(name, ""), 0.0)
            for name in SELF_TIMES
        }


class _TimedFile:
    """Read side of a (de)compressing file; its time is the container layer's."""

    def __init__(self, f, tracer: Tracer, name: str):
        self._f, self._tracer, self._name = f, tracer, name

    def read(self, n=-1):
        start = time.perf_counter()
        try:
            return self._f.read(n)
        finally:
            self._tracer.inclusive[self._name] += time.perf_counter() - start


@dataclass
class PassResult:
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    classifier: StreamClassifier | None = None


def reduce_pass(tr: Tracer, inputs: list[Path], out: Path, allocation=None) -> PassResult:
    """``bgpchurn reduce --state warm``: reduce_file per input with one classifier."""
    res = PassResult(classifier=StreamClassifier())
    clf, counts = res.classifier, res.counts
    pruned = out / "pruned"
    pruned.mkdir(parents=True, exist_ok=True)
    summary = CorpusSummary()
    for path in inputs:
        tally = {"total": 0, "discarded": 0, "bytes_in": 0}

        def expand(entries):
            for entry in entries:
                counts["mrt.records"] += 1
                tally["bytes_in"] += len(entry.body) + 12
                records = expand_message(entry, "", str(path)) if entry.kind == "update" else []
                counts["model.records"] += len(records)
                yield entry, records

        def observe(pairs):
            for entry, records in pairs:
                labels = []
                for rec in records:
                    labeled = clf.observe(rec)
                    if labeled is not None:
                        labels.append(labeled.label)
                yield entry, labels

        def decide(pairs):
            for entry, labels in pairs:
                if entry.kind == "update":
                    tally["total"] += 1
                    if entry.message is not None and message_is_unnecessary(entry.message, labels):
                        tally["discarded"] += 1
                        continue
                yield entry

        with open_archive(path) as raw:
            entries = tr.stage("mrt.read", read_mrt_stream(tr.file("mrt.container", raw), "plain"), "mrt.container")
            expanded = tr.stage("model.expand", expand(entries), "mrt.read")
            labeled = tr.stage("classify.observe", observe(expanded), "model.expand")
            kept = tr.stage("reduce.decide", decide(labeled), "classify.observe")
            with open(pruned / path.name, "wb") as sink, tr.span("mrt.write", "reduce.decide"):
                bytes_out = write_mrt_stream(kept, sink, "plain")
        summary.reports.append(ReductionReport(str(path), tally["total"], tally["discarded"], tally["bytes_in"], bytes_out))
        counts["reduce.discarded"] += tally["discarded"]
        counts["reduce.bytes_out"] += bytes_out
    write_reports_csv(summary, out / "reduction.csv")
    write_summary_json(summary, out / "reduction_summary.json")
    counts["classify.labeled"] = clf.tally.labeled
    counts["classify.streams"] = len(clf.state)
    return res


def classify_pass(tr: Tracer, inputs: list[Path], out: Path, allocation: Path) -> PassResult:
    """``bgpchurn classify --collector rrc00 --allocation``."""
    res = PassResult(classifier=StreamClassifier())
    clf, counts = res.classifier, res.counts
    out.mkdir(parents=True, exist_ok=True)
    with tr.span("allocation.load"):
        table = load_delegated(allocation)
    stats = FilterStats()

    def count(name, items):
        for item in items:
            counts[name] += 1
            yield item

    (path,) = inputs
    with open_archive(path) as raw:
        entries = tr.stage("mrt.read", count("mrt.records", read_mrt_stream(tr.file("mrt.container", raw), "plain")), "mrt.container")
        records = tr.stage("model.expand", count("model.records", expand_stream(entries, "rrc00", str(path))), "mrt.read")
        allocated = tr.stage("allocation.filter", filter_allocated(records, table, stats), "model.expand")
        normalized = tr.stage("normalize.self", normalize_stream(allocated), "allocation.filter")
        labeled_records = tr.stage("classify.observe", clf.process(normalized), "normalize.self")
        with open(out / "labels.jsonl", "w", encoding="utf-8") as f, tr.span("model.jsonl_write", "classify.observe"):
            for labeled in labeled_records:
                counts["normalize.repaired"] += FLAG_REPAIRED_PATH in labeled.record.flags
                row = record_to_dict(labeled.record)
                row["label"] = labeled.label.value
                row["after_withdrawal"] = labeled.after_withdrawal
                f.write(json.dumps(row, separators=(",", ":")) + "\n")
    write_tally_csv(clf.tally, out / "tally.csv")
    write_peer_csv(clf.tally, out / "peer_nc_nn.csv")
    report = {
        "version": __version__,
        "allocation_filter": True,
        "announcements": clf.tally.announcements,
        "withdrawals": clf.tally.withdrawals,
        "allocation": {
            "kept": stats.kept,
            "dropped_prefix": stats.dropped_prefix,
            "dropped_asn": stats.dropped_asn,
            "table_gaps": stats.table_gaps,
        },
    }
    (out / "classify_report.json").write_text(json.dumps(report, indent=2))
    counts["allocation.dropped"] = stats.dropped
    counts["classify.labeled"] = clf.tally.labeled
    counts["classify.streams"] = len(clf.state)
    return res


def beacon_pass(tr: Tracer, inputs: list[Path], out: Path, allocation=None) -> PassResult:
    """``bgpchurn beacon`` with the default beacon list and schedule."""
    res = PassResult()
    out.mkdir(parents=True, exist_ok=True)
    beacons = list(DEFAULT_BEACONS)
    (path,) = inputs
    records_in = tr.stage("model.jsonl_read", read_records_jsonl(path))
    with tr.span("beacon.partition", "model.jsonl_read"):
        records = [r for r in records_in if r.prefix in beacons]
        by_value, by_multiset = partition_communities(records, DEFAULT_SCHEDULE)
    write_partition_csv(by_value, out / "partition_values.csv")
    write_partition_summary_csv(by_value, out / "partition_values_summary.csv")
    write_partition_csv(by_multiset, out / "partition_multisets.csv", "multiset")
    write_partition_summary_csv(by_multiset, out / "partition_multisets_summary.csv")
    res.counts["beacon.matched"] = len(records)
    return res


def state_bytes_per_stream(run_pass, inputs, out, allocation) -> float:
    """Bytes the classifier keeps alive per stream, from a tracemalloc pass.

    Measured as traced memory with the classifier alive minus traced
    memory once it is released, so everything its state retains counts
    (path tuples, community tuples shared with decoded records, the
    stream dict) and nothing transient does.
    """
    gc.collect()
    tracemalloc.start()
    try:
        res = run_pass(Tracer(False), inputs, out, allocation)
        if res.classifier is None:
            return 0.0
        streams = len(res.classifier.state)
        gc.collect()
        alive = tracemalloc.get_traced_memory()[0]
        res.classifier = None
        gc.collect()
        released = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (alive - released) / streams if streams else 0.0
