"""The one way bgpchurn writes a file.

Every artifact is written through ``atomic_output``, so it appears
whole or not at all, with the permissions a plain ``open`` would give.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union


@contextmanager
def atomic_output(path: Union[str, Path], mode: str = "w") -> Iterator[IO]:
    """Write through a sibling temp file renamed over ``path`` on success.

    If the block raises, the temp file is removed and ``path`` is left
    as it was.  ``mode`` is "w" (UTF-8 text, newlines written as given)
    or "wb".  The temp file is created as ``open`` creates any new file,
    so the result gets mode 0o666 less the umask.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    binary = "b" in mode
    f = open(  # "x": a name already taken fails instead of being truncated
        tmp,
        mode.replace("w", "x"),
        encoding=None if binary else "utf-8",
        newline=None if binary else "",
    )
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
