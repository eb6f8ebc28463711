"""Collector archive client for the two public MRT archives.

Plans deterministic URL lists from each archive's directory layout,
downloads with bounded parallelism and retry, and commits files to the
cache only after the payload's first MRT record header parses.
"""

from __future__ import annotations

import bz2
import gzip
import io
import re
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .errors import UnknownCollector
from .mrt.codec import BZ2_MAGIC, GZIP_MAGIC
from .pipeline import atomic_output

PROJECT_ROUTEVIEWS = "routeviews"
PROJECT_RIPE_RIS = "ripe_ris"

# updates binning: RouteViews writes 96 files/day, RIS 288
UPDATE_BIN_MINUTES = {PROJECT_ROUTEVIEWS: 15, PROJECT_RIPE_RIS: 5}
RIB_BIN_MINUTES = {PROJECT_ROUTEVIEWS: 120, PROJECT_RIPE_RIS: 480}

ROUTEVIEWS_BASE = "http://archive.routeviews.org"
RIPE_RIS_BASE = "https://data.ris.ripe.net"

_RIS_COLLECTOR = re.compile(r"^rrc\d{2}$")
_RV_COLLECTOR = re.compile(r"^route-views[0-9a-z.\-]*$")

_KNOWN_MRT_TYPES = frozenset({11, 12, 13, 16, 17, 32, 33, 48, 49})


@dataclass(frozen=True)
class ArchiveTarget:
    project: str  # routeviews | ripe_ris
    collector: str
    kind: str  # updates | rib
    start: datetime  # inclusive, UTC
    end: datetime  # exclusive, UTC

    def __post_init__(self):
        if self.project not in (PROJECT_ROUTEVIEWS, PROJECT_RIPE_RIS):
            raise ValueError(f"unknown project {self.project!r}")
        if self.kind not in ("updates", "rib"):
            raise ValueError(f"unknown kind {self.kind!r}")
        pattern = (
            _RIS_COLLECTOR if self.project == PROJECT_RIPE_RIS else _RV_COLLECTOR
        )
        if not pattern.match(self.collector):
            raise UnknownCollector(
                f"{self.collector!r} is not a {self.project} collector name"
            )

    @property
    def bin_minutes(self) -> int:
        table = UPDATE_BIN_MINUTES if self.kind == "updates" else RIB_BIN_MINUTES
        return table[self.project]


@dataclass(frozen=True)
class PlannedFile:
    url: str
    relative_path: str  # cache path mirrors the remote layout


def _bins(target: ArchiveTarget):
    step = timedelta(minutes=target.bin_minutes)
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
    """Deterministic file plan following each archive's layout."""
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
            if target.kind == "updates":
                rel = f"{base}/{month}/UPDATES/updates.{stamp}.bz2"
            else:
                rel = f"{base}/{month}/RIBS/rib.{stamp}.bz2"
            plan.append(PlannedFile(f"{ROUTEVIEWS_BASE}/{rel}", rel))
        else:
            name = "updates" if target.kind == "updates" else "bview"
            rel = f"{target.collector}/{month}/{name}.{stamp}.gz"
            plan.append(PlannedFile(f"{RIPE_RIS_BASE}/{rel}", rel))
    return plan


@dataclass(frozen=True)
class RetryPolicy:
    attempts: int = 3
    backoff_s: float = 1.0

    def delays(self):
        for i in range(self.attempts):
            yield self.backoff_s * (2**i)


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


def probe_mrt_payload(blob: bytes) -> bool:
    """Does the payload's first MRT record header parse sensibly?"""
    try:
        if blob[:2] == GZIP_MAGIC:
            head = gzip.open(io.BytesIO(blob)).read(12)
        elif blob[:3] == BZ2_MAGIC:
            head = bz2.open(io.BytesIO(blob)).read(12)
        else:
            head = blob[:12]
    except OSError:
        return False
    if len(head) < 12:
        return False
    _ts, rtype, _subtype, _length = struct.unpack("!IHHI", head)
    return rtype in _KNOWN_MRT_TYPES


def _default_transport(url: str) -> bytes:
    import requests

    response = requests.get(url, timeout=60)
    response.raise_for_status()
    return response.content


def fetch(
    plan: Sequence[PlannedFile],
    cache_dir: Union[str, Path],
    parallelism: int = 4,
    retry: RetryPolicy = RetryPolicy(),
    transport: Optional[Callable[[str], bytes]] = None,
    offline: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> FetchReport:
    """Bring the planned files into the cache.

    Cached files are never re-downloaded or rewritten; downloads land
    in a sibling temp file and are renamed in only after the integrity
    probe passes.  Per-file failures are collected in the report.
    """
    cache_dir = Path(cache_dir)
    report = FetchReport(planned=len(plan))
    get = transport or _default_transport

    def fetch_one(item: PlannedFile) -> tuple[PlannedFile, Optional[str], bool]:
        path = cache_dir / item.relative_path
        if path.exists():
            return item, None, True
        if offline:
            return item, "not cached and offline mode is on", False
        error = "no attempts made"
        for delay in retry.delays():
            try:
                blob = get(item.url)
            except Exception as exc:  # noqa: BLE001 - transport-defined
                error = str(exc)
                sleep(delay)
                continue
            if not probe_mrt_payload(blob):
                error = "payload failed MRT header probe"
                sleep(delay)
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_output(path, "wb") as tmp:
                tmp.write(blob)
            return item, None, False
        return item, error, False

    workers = max(1, parallelism)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item, error, was_cached in pool.map(fetch_one, plan):
            if error is not None:
                report.failures[item.url] = error
            elif was_cached:
                report.cached += 1
            else:
                report.downloaded += 1
    return report


def fetch_target(
    target: ArchiveTarget,
    cache_dir: Union[str, Path],
    **kwargs,
) -> tuple[list[PlannedFile], FetchReport]:
    plan = plan_urls(target)
    return plan, fetch(plan, cache_dir, **kwargs)
