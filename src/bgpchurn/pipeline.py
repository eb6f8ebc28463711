"""The record pipeline: decode -> expand -> normalize -> classify.

Inputs are read as messages: an MRT entry paired with the per-prefix
records it expands to.  ``label_messages`` cleans and labels those
records and keeps each entry's labels together, so ``classify``, which
writes the labels, and ``reduce``, which judges each message by its
labels, label every record the same way.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import __version__
from .classify import (
    CLASSIFIER_FLAGS,
    AnnouncementType,
    LabeledRecord,
    StreamClassifier,
    write_peer_csv,
    write_tally_csv,
)
from .errors import BgpChurnError
from .fetch import collector_id
from .model import UpdateRecord, expand_message, labeled_lines, read_records_jsonl
from .mrt.codec import CONTAINER_OF_SUFFIX, INPUT_ERRORS, MrtEntry, read_mrt_stream
from .normalize import NORMALIZER_FLAGS, Normalizer
from .output import atomic_output, make_directory, refuse_clobber, write_json

Message = tuple[Optional[MrtEntry], list[UpdateRecord]]

CLASSIFY_OUTPUTS = (
    "labels.jsonl", "tally.csv", "peer_nc_nn.csv", "classify_report.json"
)


def mrt_messages(path: Path, collector: str) -> Iterator[Message]:
    """Decode an update file and expand every entry, updates or not.

    A file whose first record is not BGP4MP or BGP4MP_ET raises MrtError.
    """
    source = str(path)
    for index, entry in enumerate(read_mrt_stream(path)):
        yield entry, expand_message(entry, collector, source, index)


def read_messages(
    paths: Iterable[str], collector: Optional[str] = None
) -> Iterator[Message]:
    """The messages of MRT files and .jsonl record files, in input order.

    Any file may be plain, gzip or bzip2, by its magic bytes; one named
    .jsonl, .jsonl.gz or .jsonl.bz2 gives (None, [record]) per line.
    MRT sessions take ``collector``, or else the collector of each file's
    path.  A file that cannot be opened or decoded fails with a
    BgpChurnError that starts with its path.
    """
    for path in map(Path, paths):
        base = path.with_suffix("") if path.suffix in CONTAINER_OF_SUFFIX else path
        try:
            if base.suffix == ".jsonl":
                yield from ((None, [rec]) for rec in read_records_jsonl(path))
            else:
                yield from mrt_messages(path, collector or collector_id(path))
        except INPUT_ERRORS as exc:
            raise BgpChurnError(f"{path}: {exc}") from exc


def label_messages(
    messages: Iterable[Message],
    normalizer: Normalizer,
    classifier: StreamClassifier,
) -> Iterator[tuple[Optional[MrtEntry], list[LabeledRecord]]]:
    """Normalize and classify each message's records.

    Yields every entry with its labeled announcements in wire order;
    withdrawals and records the normalizer drops leave no label.
    """
    observe = classifier.observe
    for entry, records in messages:
        labeled = []
        for rec in records:
            rec = normalizer(rec)
            if rec is not None:
                out = observe(rec)
                if out is not None:
                    labeled.append(out)
        yield entry, labeled


def side_input(read, path):
    """``read(path)``; a file that cannot be read fails as a main input does."""
    try:
        return read(path)
    except INPUT_ERRORS as exc:
        raise BgpChurnError(f"{path}: {exc}") from exc


def run_classify(
    inputs: Sequence[str],
    output: Union[str, Path],
    collector: Optional[str] = None,
    allocation: Optional[str] = None,
) -> str:
    """The ``classify`` command: writes its outputs, returns its summary line."""
    out = make_directory(output, CLASSIFY_OUTPUTS)
    refuse_clobber(inputs, {out: CLASSIFY_OUTPUTS})
    allocated = None
    if allocation:
        from .allocation import AllocationFilter, load_delegated

        allocated = AllocationFilter(side_input(load_delegated, allocation))
    normalizer, clf = Normalizer(allocated), StreamClassifier()
    messages = label_messages(read_messages(inputs, collector), normalizer, clf)
    with atomic_output(out / "labels.jsonl") as f:
        f.writelines(labeled_lines(chain.from_iterable(labeled for _, labeled in messages)))
    write_tally_csv(clf.tally, out / "tally.csv")
    write_peer_csv(clf.tally, out / "peer_nc_nn.csv")
    meta = {
        "version": __version__,
        "allocation_filter": allocated is not None,
        "announcements": clf.tally.announcements,
        "withdrawals": clf.tally.withdrawals,
        "flags": {
            **{flag: clf.tally.flags[flag] for flag in CLASSIFIER_FLAGS},
            **{flag: normalizer.flags[flag] for flag in NORMALIZER_FLAGS},
        },
    }
    if allocated is not None:
        meta["allocation"] = asdict(allocated.stats)
    write_json(out / "classify_report.json", meta)
    counts = " ".join(f"{t.value}={clf.tally.counts[t]}" for t in AnnouncementType)
    return (
        f"labeled {clf.tally.labeled} announcements "
        f"({counts} over {len(clf.state)} streams)"
    )
