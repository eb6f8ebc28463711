"""The record pipeline: decode -> expand -> normalize -> classify.

Inputs are read as messages: an MRT entry paired with the per-prefix
records it expands to.  ``label_messages`` cleans and labels those
records and keeps each entry's labels together, so ``classify``, which
writes the labels, and ``reduce``, which judges each message by its
labels, label every record the same way.  Outputs appear through
``atomic_output``, whole or not at all.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from .classify import LabeledRecord, StreamClassifier
from .model import UpdateRecord, expand_message, read_records_jsonl
from .mrt.codec import MrtEntry, read_mrt_stream
from .normalize import Normalizer

Message = tuple[Optional[MrtEntry], list[UpdateRecord]]


def mrt_messages(path: Path, collector_id: str) -> Iterator[Message]:
    """Decode an MRT file and expand every entry, updates or not."""
    source = str(path)
    for index, entry in enumerate(read_mrt_stream(path)):
        yield entry, expand_message(entry, collector_id, source, index)


def read_messages(path: Path, collector_id: str) -> Iterator[Message]:
    """mrt_messages, or (None, [record]) per line of a .jsonl record file."""
    if path.suffix == ".jsonl":
        return ((None, [rec]) for rec in read_records_jsonl(path))
    return mrt_messages(path, collector_id)


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


@contextmanager
def atomic_output(path: Union[str, Path], mode: str = "w") -> Iterator[IO]:
    """Write through a sibling temp file renamed over ``path`` on success.

    If the block raises, the temp file is removed and ``path`` is left
    as it was.  Text is written as UTF-8.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
