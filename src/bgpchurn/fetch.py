"""Collector archive client for the two public MRT update archives.

Plans deterministic URL lists of update files from each archive's
directory layout, names the collector and project of a path in that
layout, downloads with bounded parallelism and retry, and commits files
to the cache only after the whole payload reads as BGP4MP updates in
the container its name says.
"""

from __future__ import annotations

import re
import shutil
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import BinaryIO, Callable, Optional, Sequence, Union

from .errors import BgpChurnError, MrtError
from .mrt.codec import CONTAINER_OF_SUFFIX, detect_container, read_mrt_stream
from .output import atomic_output

PROJECT_ROUTEVIEWS = "routeviews"
PROJECT_RIPE_RIS = "ripe_ris"

# updates binning: RouteViews writes 96 files/day, RIS 288
UPDATE_BIN_MINUTES = {PROJECT_ROUTEVIEWS: 15, PROJECT_RIPE_RIS: 5}

ROUTEVIEWS_BASE = "http://archive.routeviews.org"
RIPE_RIS_BASE = "https://data.ris.ripe.net"

_RIS_COLLECTOR = re.compile(r"^rrc\d{2}$")
_RV_COLLECTOR = re.compile(r"^route-views[0-9a-z.\-]*$")
_MONTH = re.compile(r"^\d{4}\.\d{2}$")

# the wait before the first retry; each later retry waits twice the last
BACKOFF_S = 1.0


@dataclass(frozen=True)
class ArchiveTarget:
    project: str  # routeviews | ripe_ris
    collector: str
    start: datetime  # inclusive, UTC
    end: datetime  # exclusive, UTC

    def __post_init__(self):
        if self.project not in (PROJECT_ROUTEVIEWS, PROJECT_RIPE_RIS):
            raise ValueError(f"unknown project {self.project!r}")
        if project_of(self.collector) != self.project:
            raise BgpChurnError(
                f"{self.collector!r} is not a {self.project} collector name"
            )


@dataclass(frozen=True)
class PlannedFile:
    url: str
    relative_path: str  # cache path mirrors the remote layout


def _bins(target: ArchiveTarget):
    step = timedelta(minutes=UPDATE_BIN_MINUTES[target.project])
    start = target.start.astimezone(timezone.utc)
    end = target.end.astimezone(timezone.utc)
    # align to the bin grid within the day
    day = start.replace(hour=0, minute=0, second=0, microsecond=0)
    offset = (start - day) // step
    t = day + offset * step
    if t < start:
        t += step
    while t < end:
        yield t
        t += step


def plan_urls(target: ArchiveTarget) -> list[PlannedFile]:
    """Deterministic update-file plan following each archive's layout."""
    plan = []
    for t in _bins(target):
        month = f"{t.year:04d}.{t.month:02d}"
        stamp = f"{t:%Y%m%d.%H%M}"
        if target.project == PROJECT_ROUTEVIEWS:
            # route-views2 lives at the archive root; others under
            # their collector directory
            base = (
                "bgpdata"
                if target.collector == "route-views2"
                else f"{target.collector}/bgpdata"
            )
            rel = f"{base}/{month}/UPDATES/updates.{stamp}.bz2"
            plan.append(PlannedFile(f"{ROUTEVIEWS_BASE}/{rel}", rel))
        else:
            rel = f"{target.collector}/{month}/updates.{stamp}.gz"
            plan.append(PlannedFile(f"{RIPE_RIS_BASE}/{rel}", rel))
    return plan


def layout_collector(path: Path) -> Optional[str]:
    """The collector of a file at a path shaped as plan_urls writes, or None.

    RIS: ``rrcNN/YYYY.MM/<file>``.  RouteViews:
    ``[collector/]bgpdata/YYYY.MM/UPDATES/<file>``, where no collector
    directory above ``bgpdata`` means route-views2.
    """
    if path.name.split(".")[0] != "updates":
        return None
    dirs = ("",) * 4 + path.parts[:-1]
    if _RIS_COLLECTOR.match(dirs[-2]) and _MONTH.match(dirs[-1]):
        return dirs[-2]
    if dirs[-3] == "bgpdata" and _MONTH.match(dirs[-2]) and dirs[-1] == "UPDATES":
        return dirs[-4] if _RV_COLLECTOR.match(dirs[-4]) else "route-views2"
    return None


def collector_id(path: Path) -> str:
    """The collector by the archive layout, else the file name's head."""
    return layout_collector(path) or path.stem.split(".")[0] or path.stem


def project_of(collector: str) -> str:
    """The project whose collector names ``collector`` fits, or "unknown"."""
    if _RIS_COLLECTOR.match(collector):
        return PROJECT_RIPE_RIS
    if _RV_COLLECTOR.match(collector):
        return PROJECT_ROUTEVIEWS
    return "unknown"


@dataclass
class FetchReport:
    planned: int = 0
    cached: int = 0
    downloaded: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.failures

    def counts_consistent(self) -> bool:
        return self.planned == self.cached + self.downloaded + len(self.failures)


def _default_transport(url: str) -> BinaryIO:
    # imported here: it is slow to import, and only a download needs it
    import urllib.request

    return urllib.request.urlopen(url, timeout=60)


def fetch(
    plan: Sequence[PlannedFile],
    cache_dir: Union[str, Path],
    parallelism: int = 4,
    attempts: int = 3,
    transport: Optional[Callable[[str], BinaryIO]] = None,
    offline: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> FetchReport:
    """Bring the planned files into the cache.

    Cached files are never re-downloaded or rewritten.  ``transport``
    opens a URL as a binary stream, which is copied in chunks into a
    sibling temp file, renamed in only once it reads whole as an update
    file in the container its name says.  A file whose cache directory
    can be made is tried up to ``attempts`` times, waiting ``BACKOFF_S``,
    then twice as long after each later failure, and not after the last.
    Per-file failures are collected in the report.
    """
    cache_dir = Path(cache_dir)
    report = FetchReport(planned=len(plan))
    get = transport or _default_transport

    def download(url: str, path: Path) -> Optional[str]:
        """One attempt: None once ``path`` holds the payload, else the error."""
        try:
            # a raise inside the block removes the temp file
            with atomic_output(path, "wb") as tmp:
                with get(url) as response:
                    shutil.copyfileobj(response, tmp)
                tmp.flush()
                expected = CONTAINER_OF_SUFFIX.get(path.suffix, "plain")
                try:
                    records = sum(1 for _ in read_mrt_stream(tmp.name, expected))
                except MrtError:
                    if (found := detect_container(tmp.name)) == expected:
                        raise
                    raise BgpChurnError(
                        f"payload is {found}, but the name {path.name} says {expected}"
                    )
                if not records:
                    raise BgpChurnError("payload holds no MRT record")
        except Exception as exc:  # noqa: BLE001 - transport-defined
            return str(exc)
        return None

    def fetch_one(item: PlannedFile) -> tuple[PlannedFile, Optional[str], bool]:
        path = cache_dir / item.relative_path
        if path.is_file():
            return item, None, True
        if path.exists():  # a directory, say: no download can replace it
            return item, f"{path}: not a regular file", False
        if offline:
            return item, "not cached and offline mode is on", False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return item, str(exc), False
        error = "no attempts made"
        for attempt in range(attempts):
            if attempt:
                sleep(BACKOFF_S * 2 ** (attempt - 1))
            if (error := download(item.url, path)) is None:
                return item, None, False
        return item, error, False

    # imported here: it pulls in logging, and only fetch runs a pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        for item, error, was_cached in pool.map(fetch_one, plan):
            if error is not None:
                report.failures[item.url] = error
            elif was_cached:
                report.cached += 1
            else:
                report.downloaded += 1
    return report
