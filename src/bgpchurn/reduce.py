"""MRT update-file pruning.

A BGP update message is purely unnecessary when it announces at least
one prefix, withdraws none, and every announced prefix is labeled nc or
nn by the classifier.  Such messages are discarded; everything else is
kept byte-identically, so pruned files stay valid MRT.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union

from .classify import UNNECESSARY_TYPES, AnnouncementType, StreamClassifier
from .errors import LabelMismatch
from .model import expand_message
from .mrt.bgp import RawBgpMessage
from .mrt.codec import detect_container, read_mrt_stream, write_mrt_stream


def message_is_unnecessary(
    msg: RawBgpMessage, labels: Sequence[AnnouncementType]
) -> bool:
    """Decide whether one update message can be discarded.

    ``labels`` must give the classifier label for each announced prefix
    in wire order.  Mixed messages are kept: any withdrawal, or any
    label outside {nc, nn} (including initial), vetoes the discard.
    """
    if len(labels) != len(msg.announced_prefixes):
        raise LabelMismatch(
            f"{len(msg.announced_prefixes)} announced prefixes "
            f"but {len(labels)} labels"
        )
    if msg.withdrawn_prefixes or not msg.announced_prefixes:
        return False
    return all(label in UNNECESSARY_TYPES for label in labels)


@dataclass(frozen=True)
class ReductionReport:
    file: str
    total_messages: int
    discarded_messages: int
    total_bytes_in: int
    total_bytes_out: int

    @property
    def kept_messages(self) -> int:
        return self.total_messages - self.discarded_messages

    @property
    def reduction_ratio(self) -> float:
        if self.total_messages == 0:
            return 0.0
        return self.discarded_messages / self.total_messages

    @property
    def bytes_ratio(self) -> float:
        if self.total_bytes_in == 0:
            return 0.0
        return 1.0 - self.total_bytes_out / self.total_bytes_in

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "total_messages": self.total_messages,
            "discarded_messages": self.discarded_messages,
            "reduction_ratio": self.reduction_ratio,
            "total_bytes_in": self.total_bytes_in,
            "total_bytes_out": self.total_bytes_out,
            "bytes_ratio": self.bytes_ratio,
        }


def reduce_file(
    input_path: Union[str, Path],
    output_path: Union[str, Path, None],
    classifier: Optional[StreamClassifier] = None,
    collector_id: str = "",
    container: str = "auto",
) -> ReductionReport:
    """Prune one MRT file; returns the per-file report.

    A passed-in classifier warm-starts labeling from preceding files;
    by default the state is cold (first announcements label initial and
    their messages are kept).  The output file appears atomically: a
    sibling temp file is renamed over the target only after a complete
    pass, and output_path=None runs a dry pass with no output.  With
    container="auto" the output is compressed as the input is (gzip,
    bzip2 or plain, by magic bytes).

    Byte counts are uncompressed record sizes including MRT headers.
    """
    input_path = Path(input_path)
    source_container = detect_container(input_path)
    if container == "auto":
        container = source_container
    clf = classifier if classifier is not None else StreamClassifier()
    total = discarded = 0
    bytes_in = bytes_out = 0

    def decide(entry) -> bool:
        """True to keep this record."""
        nonlocal total, discarded, bytes_in, bytes_out
        blob_len = len(entry.body) + 12
        bytes_in += blob_len
        if entry.kind != "update":
            bytes_out += blob_len
            return True
        total += 1
        records = expand_message(entry, collector_id, str(input_path))
        labels = []
        for rec in records:
            labeled = clf.observe(rec)
            if labeled is not None:
                labels.append(labeled.label)
        if entry.message is not None and message_is_unnecessary(
            entry.message, labels
        ):
            discarded += 1
            return False
        bytes_out += blob_len
        return True

    entries = read_mrt_stream(input_path, source_container)
    if output_path is None:
        for entry in entries:
            decide(entry)
    else:
        output_path = Path(output_path)
        fd, tmp_name = tempfile.mkstemp(
            dir=output_path.parent, prefix=output_path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as tmp:
                write_mrt_stream((e for e in entries if decide(e)), tmp, container)
            os.replace(tmp_name, output_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    return ReductionReport(str(input_path), total, discarded, bytes_in, bytes_out)


def infer_project(path: Union[str, Path]) -> str:
    parts = [p.lower() for p in Path(path).parts] + [Path(path).name.lower()]
    for p in parts:
        if p.startswith("rrc"):
            return "ripe_ris"
        if "route-views" in p or "routeviews" in p:
            return "routeviews"
    return "unknown"


@dataclass
class CorpusSummary:
    reports: list[ReductionReport] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)

    def ratios(self) -> list[float]:
        return [r.reduction_ratio for r in self.reports]

    def mean_ratio(self) -> float:
        ratios = self.ratios()
        return sum(ratios) / len(ratios) if ratios else 0.0

    def mean_bytes_ratio(self) -> float:
        reports = self.reports
        if not reports:
            return 0.0
        return sum(r.bytes_ratio for r in reports) / len(reports)

    def cdf_points(self) -> list[tuple[float, float]]:
        """Sorted (ratio, fraction of files with ratio <= it)."""
        ratios = sorted(self.ratios())
        n = len(ratios)
        return [(r, (i + 1) / n) for i, r in enumerate(ratios)]

    def per_project_means(self) -> dict[str, float]:
        groups: dict[str, list[float]] = {}
        for report in self.reports:
            groups.setdefault(infer_project(report.file), []).append(
                report.reduction_ratio
            )
        return {k: sum(v) / len(v) for k, v in sorted(groups.items())}


def corpus_reduction(
    files: Iterable[Union[str, Path]],
    output_dir: Optional[Union[str, Path]] = None,
    warm: bool = True,
    container: str = "auto",
) -> CorpusSummary:
    """Reduce many files; per-file failures are recorded, not fatal.

    With warm=True one classifier persists across files in input order;
    cold restarts per file.
    """
    summary = CorpusSummary()
    clf = StreamClassifier() if warm else None
    for path in files:
        path = Path(path)
        out = Path(output_dir) / path.name if output_dir is not None else None
        try:
            summary.reports.append(
                reduce_file(path, out, clf, container=container)
            )
        except Exception as exc:  # noqa: BLE001 - per-file isolation
            summary.failures[str(path)] = str(exc)
    return summary


# ---------------------------------------------------------------------------
# report output

REPORT_HEADER = [
    "file",
    "total_messages",
    "discarded_messages",
    "reduction_ratio",
    "total_bytes_in",
    "total_bytes_out",
    "bytes_ratio",
]


def write_reports_csv(
    summary: CorpusSummary, sink: Union[str, Path, IO[str]]
) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", newline="", encoding="utf-8") as f:
            write_reports_csv(summary, f)
        return
    w = csv.writer(sink)
    w.writerow(REPORT_HEADER)
    for r in summary.reports:
        w.writerow(
            [
                r.file,
                r.total_messages,
                r.discarded_messages,
                f"{r.reduction_ratio:.6f}",
                r.total_bytes_in,
                r.total_bytes_out,
                f"{r.bytes_ratio:.6f}",
            ]
        )


def write_summary_json(
    summary: CorpusSummary, sink: Union[str, Path, IO[str]]
) -> None:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as f:
            write_summary_json(summary, f)
        return
    json.dump(
        {
            "files": len(summary.reports),
            "failures": summary.failures,
            "mean_reduction_ratio": summary.mean_ratio(),
            "mean_bytes_ratio": summary.mean_bytes_ratio(),
            "per_project_means": summary.per_project_means(),
            "cdf": summary.cdf_points(),
            "reports": [r.to_dict() for r in summary.reports],
        },
        sink,
        indent=2,
    )
    sink.write("\n")
