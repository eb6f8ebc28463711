"""MRT update-file pruning.

A BGP update message is purely unnecessary when it announces at least
one prefix, withdraws none, and every announced prefix is labeled nc or
nn by the classifier.  Such messages are discarded; everything else is
kept byte-identically, so pruned files stay valid MRT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .classify import UNNECESSARY_TYPES, AnnouncementType, StreamClassifier
from .errors import BgpChurnError
from .fetch import collector_id, project_of
from .mrt.bgp import RawBgpMessage
from .mrt.codec import (
    CONTAINER_OF_SUFFIX,
    MrtEntry,
    detect_container,
    write_mrt_stream,
)
from .normalize import NORMALIZER_FLAGS, Normalizer
from .output import atomic_output, make_directory, refuse_clobber, write_csv, write_json
from .pipeline import label_messages, mrt_messages


def message_is_unnecessary(
    msg: RawBgpMessage, labels: Sequence[AnnouncementType]
) -> bool:
    """Decide whether one update message can be discarded.

    ``labels`` must give the classifier label for each announced prefix
    in wire order.  Mixed messages are kept: any withdrawal, or any
    label outside {nc, nn} (including initial), vetoes the discard.
    """
    if len(labels) != len(msg.announced_prefixes):
        raise BgpChurnError(
            f"{len(msg.announced_prefixes)} announced prefixes "
            f"but {len(labels)} labels"
        )
    if msg.withdrawn_prefixes or not msg.announced_prefixes:
        return False
    return all(label in UNNECESSARY_TYPES for label in labels)


REDUCE_OUTPUTS = ("reduction.csv", "reduction_summary.json")
# the columns of reduction.csv and the keys of each report in
# reduction_summary.json, in order
REPORT_HEADER = [
    "file",
    "total_messages",
    "discarded_messages",
    "reduction_ratio",
    "total_bytes_in",
    "total_bytes_out",
    "bytes_ratio",
]


@dataclass(frozen=True)
class ReductionReport:
    file: str
    total_messages: int
    discarded_messages: int
    total_bytes_in: int
    total_bytes_out: int
    flags: Counter = field(default_factory=Counter)  # the Normalizer's, per flag

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
        return {name: getattr(self, name) for name in REPORT_HEADER}


def reduce_file(
    input_path: Union[str, Path],
    output_path: Union[str, Path],
    classifier: Optional[StreamClassifier] = None,
) -> ReductionReport:
    """Prune one MRT file; returns the per-file report.

    A passed-in classifier warm-starts labeling from preceding files;
    by default the state is cold (first announcements label initial and
    their messages are kept).  The output file appears atomically: a
    sibling temp file is renamed over the target only after a complete
    pass.  The output is gzip or bzip2 when its name ends ``.gz`` or
    ``.bz2``, and is otherwise compressed as the input is (gzip, bzip2 or
    plain, by magic bytes).  Session keys take the collector from the path, as
    ``classify`` does, so warm state never joins two collectors' sessions.

    Byte counts are uncompressed record sizes including MRT headers.
    """
    input_path = Path(input_path)
    clf = classifier if classifier is not None else StreamClassifier()
    total = discarded = bytes_in = 0

    def kept(labeled_messages) -> Iterator[MrtEntry]:
        nonlocal total, discarded, bytes_in
        for entry, labeled in labeled_messages:
            bytes_in += len(entry.body) + 12
            if entry.message is not None:
                total += 1
                if message_is_unnecessary(entry.message, [lr.label for lr in labeled]):
                    discarded += 1
                    continue
            yield entry

    # A fresh Normalizer per file: its same-second numbering changes no label.
    normalizer = Normalizer()
    messages = mrt_messages(input_path, collector_id(input_path))
    entries = kept(label_messages(messages, normalizer, clf))
    # not a .get default, which would open the input even when the name says
    suffix = Path(output_path).suffix
    out_container = CONTAINER_OF_SUFFIX.get(suffix) or detect_container(input_path)
    with atomic_output(output_path, "wb") as tmp:
        bytes_out = write_mrt_stream(entries, tmp, out_container)
    return ReductionReport(
        str(input_path), total, discarded, bytes_in, bytes_out, normalizer.flags
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class CorpusSummary:
    reports: list[ReductionReport] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)

    def ratios(self) -> list[float]:
        return [r.reduction_ratio for r in self.reports]

    def mean_ratio(self) -> float:
        return _mean(self.ratios())

    def mean_bytes_ratio(self) -> float:
        return _mean([r.bytes_ratio for r in self.reports])

    def cdf_points(self) -> list[tuple[float, float]]:
        """Sorted (ratio, fraction of files with ratio <= it)."""
        ratios = sorted(self.ratios())
        n = len(ratios)
        return [(r, (i + 1) / n) for i, r in enumerate(ratios)]

    def per_project_means(self) -> dict[str, float]:
        """Mean ratio per project of the collector each file's sessions
        are keyed to."""
        groups: dict[str, list[float]] = {}
        for report in self.reports:
            project = project_of(collector_id(Path(report.file)))
            groups.setdefault(project, []).append(report.reduction_ratio)
        return {k: _mean(v) for k, v in sorted(groups.items())}


# ---------------------------------------------------------------------------
# report output


def write_reports_csv(summary: CorpusSummary, path: Union[str, Path]) -> None:
    """One row per report."""
    write_csv(path, REPORT_HEADER, (r.to_dict().values() for r in summary.reports))


def write_summary_json(summary: CorpusSummary, path: Union[str, Path]) -> None:
    write_json(
        path,
        {
            "files": len(summary.reports),
            "failures": summary.failures,
            "mean_reduction_ratio": summary.mean_ratio(),
            "mean_bytes_ratio": summary.mean_bytes_ratio(),
            "per_project_means": summary.per_project_means(),
            "cdf": summary.cdf_points(),
            "flags": {
                flag: sum(r.flags[flag] for r in summary.reports)
                for flag in NORMALIZER_FLAGS
            },
            "reports": [r.to_dict() for r in summary.reports],
        },
    )


def run_reduce(
    inputs: Iterable[str], output: Union[str, Path], warm: bool = True
) -> tuple[str, CorpusSummary]:
    """The ``reduce`` command: writes its outputs, returns its summary line
    and the summary, whose failures set the exit code.

    Each input is pruned to ``pruned/<input name>``; two inputs with one
    name, or an input an output would replace, are refused before
    ``pruned/`` is made.  A failed file is recorded, not fatal.  warm=True
    keeps one classifier across files in input order, restarted cold after
    a failed file, whose labels reached no pruned output; cold restarts per file.
    """
    out = make_directory(output, REDUCE_OUTPUTS)
    files, pruned = [Path(p) for p in inputs], out / "pruned"
    firsts: dict[str, Path] = {}
    for path in files:
        if (first := firsts.setdefault(path.name, path)) is not path:
            raise BgpChurnError(
                f"{first} and {path} would both be pruned to {pruned / path.name}"
            )
    refuse_clobber(files, {out: REDUCE_OUTPUTS, pruned: firsts})
    make_directory(pruned)
    summary = CorpusSummary()
    clf = StreamClassifier() if warm else None
    for path in files:
        try:
            summary.reports.append(reduce_file(path, pruned / path.name, clf))
        except Exception as exc:  # noqa: BLE001 - per-file isolation
            summary.failures[str(path)] = str(exc) or type(exc).__name__
            clf = StreamClassifier() if warm else None
    write_reports_csv(summary, out / "reduction.csv")
    write_summary_json(summary, out / "reduction_summary.json")
    line = (
        f"{len(summary.reports)} files reduced, mean ratio "
        f"{summary.mean_ratio():.3f}, {len(summary.failures)} failures"
    )
    return line, summary
