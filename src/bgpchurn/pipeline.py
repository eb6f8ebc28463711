"""The record pipeline: decode -> expand -> normalize -> classify.

Inputs are read as messages: an MRT entry paired with the per-prefix
records it expands to.  ``label_messages`` cleans and labels those
records and keeps each entry's labels together, so ``classify``, which
writes the labels, and ``reduce``, which judges each message by its
labels, label every record the same way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional

from .classify import LabeledRecord, StreamClassifier
from .errors import BgpChurnError, MrtError
from .fetch import collector_id
from .model import UpdateRecord, expand_message, read_records_jsonl
from .mrt.codec import UPDATE_TYPES, MrtEntry, read_mrt_stream
from .normalize import Normalizer

Message = tuple[Optional[MrtEntry], list[UpdateRecord]]


def mrt_messages(path: Path, collector: str, container: str) -> Iterator[Message]:
    """Decode an update file and expand every entry, updates or not.

    A file whose first record is not BGP4MP or BGP4MP_ET raises MrtError.
    """
    source = str(path)
    for index, entry in enumerate(read_mrt_stream(path, container)):
        if index == 0 and entry.header.type not in UPDATE_TYPES:
            raise MrtError(f"not an update file: first record type {entry.header.type}")
        yield entry, expand_message(entry, collector, source, index)


def read_messages(
    paths: Iterable[str], collector: Optional[str] = None
) -> Iterator[Message]:
    """The messages of MRT files and .jsonl record files, in input order.

    A .jsonl file gives (None, [record]) per line.  MRT sessions take
    ``collector``, or else the collector of each file's path.  A file
    that cannot be opened or decoded fails with a BgpChurnError that
    starts with its path.
    """
    for path in map(Path, paths):
        try:
            if path.suffix == ".jsonl":
                yield from ((None, [rec]) for rec in read_records_jsonl(path))
            else:
                yield from mrt_messages(path, collector or collector_id(path), "auto")
        except (OSError, MrtError) as exc:
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
