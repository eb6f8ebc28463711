"""The one way bgpchurn writes a file.

Every artifact is written through ``atomic_output``, so it appears
whole or not at all, with the permissions a plain ``open`` would give.
An output that cannot be created fails as ``BgpChurnError`` naming its
path, and so does an output directory, made by ``make_directory``,
which also refuses a fixed output name that a directory holds before
the run writes anything.
Every report is written by one of two writers: ``write_csv`` (the
``csv`` module's default dialect, every float at six decimals) or
``write_json`` (indented by two spaces, with a final newline).
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Collection, Iterable, Iterator, Sequence, Union

from .errors import BgpChurnError


@contextmanager
def atomic_output(path: Union[str, Path], mode: str = "w") -> Iterator[IO]:
    """Write through a sibling temp file renamed over ``path`` on success.

    If the block raises, the temp file is removed, ``path`` is left as
    it was and the exception passes through.  A temp file that cannot
    be created, or renamed over ``path`` (a directory of that name,
    say), raises ``BgpChurnError`` naming ``path``.  ``mode`` is "w"
    (UTF-8 text, newlines written as given) or "wb".  The temp file is
    created as ``open`` creates any new file, so the result gets mode
    0o666 less the umask.  Its name has a fixed length, so any name
    that ``path`` may have can be written.
    """
    path = Path(path)
    tmp = path.with_name(f"{os.urandom(8).hex()}.tmp")
    binary = "b" in mode
    try:
        f = open(  # "x": a name already taken fails instead of being truncated
            tmp,
            mode.replace("w", "x"),
            encoding=None if binary else "utf-8",
            newline=None if binary else "",
        )
    except OSError as exc:
        raise BgpChurnError(f"{path}: {exc}") from exc
    try:
        with f:
            yield f
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise BgpChurnError(f"{path}: {exc}") from exc
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def make_directory(path: Union[str, Path], files: Iterable[str] = ()) -> Path:
    """``path``, made with its parents if missing; a failure names it.

    Each of ``files`` names an output to be written in it; one that a
    directory holds is refused here, so that a run writes none of its
    outputs rather than some.  A link to a directory passes, since the
    rename replaces the link.
    """
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BgpChurnError(f"{path}: {exc}") from exc
    for taken in (path / name for name in files):
        if taken.is_dir() and not taken.is_symlink():
            raise BgpChurnError(f"{taken}: is a directory")
    return path


def refuse_clobber(inputs: Iterable, outputs: dict[Path, Collection[str]]) -> None:
    """Refuse an input that a name in ``outputs[directory]`` would replace;
    paths resolved, but not an output's own link, which the rename replaces."""
    directories = {os.path.realpath(directory): directory for directory in outputs}
    for path in inputs:
        parent, name = os.path.split(os.path.realpath(path))
        if name in outputs.get(directories.get(parent), ()):
            raise BgpChurnError(f"{path}: the output {directories[parent] / name} would replace it")


def write_csv(path: Union[str, Path], header: Sequence, rows: Iterable) -> None:
    """A header row, then ``rows``; floats as ``.6f``, the rest as given."""
    with atomic_output(path) as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(
            [f"{v:.6f}" if isinstance(v, float) else v for v in row] for row in rows
        )


def write_json(path: Union[str, Path], obj) -> None:
    """``obj`` as JSON indented by two spaces, ending with a newline."""
    with atomic_output(path) as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
