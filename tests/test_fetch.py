"""Archive URL planning and cache-safe downloading."""

from __future__ import annotations

import bz2
import functools
import gzip
import http.server
import io
import struct
import threading
import zlib
from datetime import datetime, timezone
from pathlib import Path

import pytest

from bgpchurn.errors import UnknownCollector
from bgpchurn.fetch import (
    ArchiveTarget,
    PlannedFile,
    fetch,
    layout_collector,
    plan_urls,
    probe_mrt_payload,
)
from bgpchurn.mrt.codec import write_mrt_stream

from helpers import update_entry


def day(project="ripe_ris", collector="rrc00"):
    return ArchiveTarget(
        project=project,
        collector=collector,
        start=datetime(2023, 5, 1, tzinfo=timezone.utc),
        end=datetime(2023, 5, 2, tzinfo=timezone.utc),
    )


def mrt_blob(compress=None) -> bytes:
    buf = io.BytesIO()
    write_mrt_stream([update_entry(1_600_000_000)], buf)
    raw = buf.getvalue()
    return gzip.compress(raw) if compress == "gzip" else raw


# --- planning ---


def test_ripe_day_has_288_files():
    plan = plan_urls(day())
    assert len(plan) == 288
    assert plan[0].url == (
        "https://data.ris.ripe.net/rrc00/2023.05/updates.20230501.0000.gz"
    )
    assert plan[1].relative_path == "rrc00/2023.05/updates.20230501.0005.gz"
    assert plan[-1].relative_path == "rrc00/2023.05/updates.20230501.2355.gz"


def test_routeviews_day_has_96_files():
    plan = plan_urls(day(project="routeviews", collector="route-views2"))
    assert len(plan) == 96
    # the original collector sits at the archive root
    assert plan[0].url == (
        "http://archive.routeviews.org/bgpdata/2023.05/UPDATES/"
        "updates.20230501.0000.bz2"
    )
    assert plan[1].relative_path == "bgpdata/2023.05/UPDATES/updates.20230501.0015.bz2"


def test_routeviews_secondary_collector_path():
    plan = plan_urls(day(project="routeviews", collector="route-views3"))
    assert plan[0].relative_path == (
        "route-views3/bgpdata/2023.05/UPDATES/updates.20230501.0000.bz2"
    )


def test_partial_range_aligns_to_grid():
    target = ArchiveTarget(
        project="ripe_ris",
        collector="rrc00",
        start=datetime(2023, 5, 1, 10, 2, tzinfo=timezone.utc),
        end=datetime(2023, 5, 1, 10, 20, tzinfo=timezone.utc),
    )
    plan = plan_urls(target)
    assert [p.relative_path.rsplit(".", 2)[1] for p in plan] == ["1005", "1010", "1015"]


def test_empty_range():
    target = ArchiveTarget(
        project="ripe_ris",
        collector="rrc00",
        start=datetime(2023, 5, 1, tzinfo=timezone.utc),
        end=datetime(2023, 5, 1, tzinfo=timezone.utc),
    )
    assert plan_urls(target) == []


def test_month_boundary_crossing():
    target = ArchiveTarget(
        project="ripe_ris",
        collector="rrc01",
        start=datetime(2023, 4, 30, 23, 50, tzinfo=timezone.utc),
        end=datetime(2023, 5, 1, 0, 10, tzinfo=timezone.utc),
    )
    months = {p.relative_path.split("/")[1] for p in plan_urls(target)}
    assert months == {"2023.04", "2023.05"}


def test_collector_name_validation():
    with pytest.raises(UnknownCollector):
        day(collector="rrc1")  # needs two digits
    with pytest.raises(UnknownCollector):
        day(collector="route-views2")  # wrong project
    with pytest.raises(UnknownCollector):
        day(project="routeviews", collector="rrc00")
    with pytest.raises(UnknownCollector):
        day(project="routeviews", collector="route-views2;rm")
    assert day(collector="rrc21").collector == "rrc21"
    assert day(project="routeviews", collector="route-views.sydney").collector


def test_bad_target_fields():
    with pytest.raises(ValueError):
        day(project="torrents")


# --- payload probe ---


def test_probe_accepts_real_payloads():
    assert probe_mrt_payload(mrt_blob())
    assert probe_mrt_payload(mrt_blob(compress="gzip"))
    assert probe_mrt_payload(bz2.compress(mrt_blob()))
    two = mrt_blob() + mrt_blob()
    assert probe_mrt_payload(two) and probe_mrt_payload(gzip.compress(two))
    buf = io.BytesIO()
    write_mrt_stream([update_entry(1_600_000_000, microsecond=5)], buf)
    assert probe_mrt_payload(buf.getvalue())  # BGP4MP_ET


def gzip_cut_after_first_record() -> bytes:
    """A gzip stream cut short right after its first whole record."""
    z = zlib.compressobj(wbits=31)  # gzip framing
    return z.compress(mrt_blob()) + z.flush(zlib.Z_FULL_FLUSH)


def test_probe_rejects_garbage():
    assert not probe_mrt_payload(b"<html>404 not found</html>")
    assert not probe_mrt_payload(b"")
    assert not probe_mrt_payload(b"\x1f\x8b broken gzip stream")
    raw = mrt_blob()
    assert not probe_mrt_payload(raw[:-1])  # first record cut short
    assert not probe_mrt_payload(mrt_blob(compress="gzip")[:10])  # header only
    assert not probe_mrt_payload(mrt_blob(compress="gzip")[:10] + b"\xff" * 20)
    assert not probe_mrt_payload(bz2.compress(raw)[:20])
    assert not probe_mrt_payload(bz2.compress(raw)[:-8])  # trailer cut off
    assert not probe_mrt_payload(gzip_cut_after_first_record())
    # plausible length but absurd record type
    assert not probe_mrt_payload(b"\x00" * 4 + b"\xff\xff" + b"\x00" * 6)
    # a whole TABLE_DUMP_V2 PEER_INDEX_TABLE: a RIB dump, not updates
    body = b"\x0a\x00\x00\x01" + b"\x00\x00" + b"\x00\x00"
    assert not probe_mrt_payload(struct.pack("!IHHI", 0, 13, 1, len(body)) + body)


# --- fetching with a fake transport ---


class FakeTransport:
    def __init__(self, responses):
        # url -> bytes | stream | Exception | [attempt, ...]
        self.responses = responses
        self.calls = []

    def __call__(self, url):
        self.calls.append(url)
        result = self.responses[url]
        if isinstance(result, list):
            result = result.pop(0)
        if isinstance(result, Exception):
            raise result
        return io.BytesIO(result) if isinstance(result, bytes) else result


def no_sleep(_):
    pass


def two_file_plan():
    return plan_urls(
        ArchiveTarget(
            project="ripe_ris",
            collector="rrc00",
            start=datetime(2023, 5, 1, tzinfo=timezone.utc),
            end=datetime(2023, 5, 1, 0, 10, tzinfo=timezone.utc),
        )
    )


def test_fetch_downloads_and_commits(tmp_path):
    plan = two_file_plan()
    blob = mrt_blob(compress="gzip")
    transport = FakeTransport({p.url: blob for p in plan})
    report = fetch(plan, tmp_path, transport=transport, sleep=no_sleep)
    assert report.downloaded == 2
    assert report.cached == 0
    assert report.complete
    assert report.counts_consistent()
    for item in plan:
        assert (tmp_path / item.relative_path).read_bytes() == blob
    assert not list(tmp_path.rglob("*.tmp"))


def test_fetch_warm_cache_never_touches_network(tmp_path):
    plan = two_file_plan()
    blob = mrt_blob(compress="gzip")
    transport = FakeTransport({p.url: blob for p in plan})
    fetch(plan, tmp_path, transport=transport, sleep=no_sleep)
    transport.calls.clear()

    again = fetch(plan, tmp_path, transport=transport, sleep=no_sleep)
    assert transport.calls == []
    assert again.cached == 2
    assert again.downloaded == 0
    assert again.counts_consistent()


def test_fetch_retries_then_succeeds(tmp_path):
    plan = two_file_plan()[:1]
    url = plan[0].url
    transport = FakeTransport(
        {url: [ConnectionError("reset"), mrt_blob(compress="gzip")]}
    )
    sleeps = []
    report = fetch(plan, tmp_path, transport=transport,
                   attempts=3, sleep=sleeps.append)
    assert report.downloaded == 1
    assert report.complete
    assert len(transport.calls) == 2
    assert sleeps == [1.0]  # first backoff step only


def test_fetch_rejects_corrupt_payload(tmp_path):
    plan = two_file_plan()[:1]
    url = plan[0].url
    transport = FakeTransport({url: b"<html>error page</html>"})
    report = fetch(plan, tmp_path, transport=transport,
                   attempts=2, sleep=no_sleep)
    assert report.downloaded == 0
    assert report.failures[url] == "payload failed MRT header probe"
    assert len(transport.calls) == 2  # kept retrying to the attempt cap
    assert not (tmp_path / plan[0].relative_path).exists()
    assert not list(tmp_path.rglob("*.tmp"))


def test_fetch_truncated_payload_fails_only_its_file(tmp_path):
    plan = two_file_plan()
    a, b = plan
    good = mrt_blob(compress="gzip")
    transport = FakeTransport({a.url: good[:10], b.url: good})
    report = fetch(plan, tmp_path, transport=transport,
                   attempts=2, sleep=no_sleep)
    assert (tmp_path / b.relative_path).read_bytes() == good
    assert report.downloaded == 1
    assert list(report.failures) == [a.url]
    assert not (tmp_path / a.relative_path).exists()
    assert not list(tmp_path.rglob("*.tmp"))


def test_fetch_refuses_a_payload_in_another_container_than_its_name(tmp_path):
    ris, rv = two_file_plan()[0], plan_urls(day("routeviews", "route-views2"))[0]
    transport = FakeTransport({
        ris.url: mrt_blob(),  # plain MRT named .gz
        rv.url: mrt_blob(compress="gzip"),  # gzip named .bz2
    })
    report = fetch([ris, rv], tmp_path, transport=transport,
                   attempts=1, sleep=no_sleep)
    assert report.downloaded == 0
    assert report.failures == {
        ris.url: "payload is plain, but the name updates.20230501.0000.gz says gzip",
        rv.url: "payload is gzip, but the name updates.20230501.0000.bz2 says bzip2",
    }
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


class ChunkedStream(io.BytesIO):
    """A response that fails the test if asked for all of it at once."""

    def __init__(self, payload, cut_after=None):
        super().__init__(payload)
        self.sizes = []
        self.cut_after = cut_after  # raise on the read after this many

    def read(self, size=-1):
        assert size is not None and 0 < size <= 1 << 20, f"read({size})"
        if len(self.sizes) == self.cut_after:
            raise ConnectionResetError("connection reset mid-payload")
        self.sizes.append(size)
        return super().read(size)


def test_fetch_copies_the_payload_in_bounded_reads(tmp_path):
    plan = two_file_plan()[:1]
    # stored, not compressed: a gzip payload of more than 1 MiB
    blob = gzip.compress(mrt_blob() * 40_000, compresslevel=0)
    assert len(blob) > 1 << 20
    stream = ChunkedStream(blob)
    report = fetch(plan, tmp_path, transport=lambda url: stream, sleep=no_sleep)
    assert report.downloaded == 1
    assert (tmp_path / plan[0].relative_path).read_bytes() == blob
    assert len(stream.sizes) > 2


def test_fetch_stream_cut_mid_copy_leaves_no_file(tmp_path):
    plan = two_file_plan()[:1]
    blob = gzip.compress(mrt_blob() * 40_000, compresslevel=0)
    report = fetch(plan, tmp_path, transport=lambda url: ChunkedStream(blob, 2),
                   attempts=1, sleep=no_sleep)
    assert report.failures == {plan[0].url: "connection reset mid-payload"}
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


# --- the default transport, offline through file:// URLs ---


def served(tmp_path, planned, payload=None) -> PlannedFile:
    """``planned`` with its URL pointing into a local mirror."""
    source = tmp_path / "mirror" / planned.relative_path
    if payload is not None:
        source.parent.mkdir(parents=True)
        source.write_bytes(payload)
    return PlannedFile(source.as_uri(), planned.relative_path)


def test_default_transport_downloads_a_served_file(tmp_path):
    blob = mrt_blob(compress="gzip")
    item = served(tmp_path, two_file_plan()[0], blob)
    cache = tmp_path / "cache"
    report = fetch([item], cache, sleep=no_sleep)
    assert report.downloaded == 1 and report.complete
    assert (cache / item.relative_path).read_bytes() == blob
    assert not list(cache.rglob("*.tmp"))


def test_default_transport_missing_file_fails(tmp_path):
    item = served(tmp_path, two_file_plan()[0])
    cache = tmp_path / "cache"
    report = fetch([item], cache, attempts=1, sleep=no_sleep)
    assert report.downloaded == 0
    assert report.failures[item.url].startswith("<urlopen error")
    assert "No such file or directory" in report.failures[item.url]
    assert not [p for p in cache.rglob("*") if p.is_file()]


class QuietHandler(http.server.SimpleHTTPRequestHandler):
    def log_message(self, *args):
        pass


def test_default_transport_over_http(tmp_path):
    """A served file is committed, and an HTTP error status is a failure."""
    good, missing = two_file_plan()
    blob = mrt_blob(compress="gzip")
    (tmp_path / "mirror" / "good.gz").parent.mkdir()
    (tmp_path / "mirror" / "good.gz").write_bytes(blob)
    handler = functools.partial(QuietHandler, directory=str(tmp_path / "mirror"))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        plan = [
            PlannedFile(f"{base}/good.gz", good.relative_path),
            PlannedFile(f"{base}/missing.gz", missing.relative_path),
        ]
        cache = tmp_path / "cache"
        report = fetch(plan, cache, attempts=1, sleep=no_sleep)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.downloaded == 1
    assert report.failures == {plan[1].url: "HTTP Error 404: File not found"}
    assert (cache / good.relative_path).read_bytes() == blob
    assert not (cache / missing.relative_path).exists()
    assert not list(cache.rglob("*.tmp"))


def test_fetch_offline_mode(tmp_path):
    plan = two_file_plan()
    blob = mrt_blob(compress="gzip")
    cached = tmp_path / plan[0].relative_path
    cached.parent.mkdir(parents=True)
    cached.write_bytes(blob)
    transport = FakeTransport({})
    report = fetch(plan, tmp_path, transport=transport, offline=True, sleep=no_sleep)
    assert transport.calls == []
    assert report.cached == 1
    assert len(report.failures) == 1
    assert report.counts_consistent()


def test_fetch_exhausted_retries_reports_error(tmp_path):
    plan = two_file_plan()[:1]
    url = plan[0].url
    transport = FakeTransport({url: ConnectionError("refused")})
    sleeps = []
    report = fetch(plan, tmp_path, transport=transport,
                   attempts=3, sleep=sleeps.append)
    assert len(transport.calls) == 3
    assert sleeps == [1.0, 2.0]  # no wait after the last attempt
    assert "refused" in report.failures[url]
    assert not report.complete


@pytest.mark.parametrize(
    "project,collector",
    [
        ("ripe_ris", "rrc00"),
        ("ripe_ris", "rrc21"),
        ("routeviews", "route-views2"),
        ("routeviews", "route-views3"),
        ("routeviews", "route-views.linx"),
    ],
)
def test_layout_collector_reads_planned_paths(project, collector):
    for planned in plan_urls(day(project, collector))[:3]:
        assert layout_collector(Path(planned.relative_path)) == collector
        cached = Path("/home/u/.cache/bgpchurn") / planned.relative_path
        assert layout_collector(cached) == collector


@pytest.mark.parametrize(
    "path",
    [
        "rrc00.updates.20230501.0800",
        "data/updates.20230501.0000.gz",
        "/x/bgpdata/rrc00.updates.20230501.0800",
        "/x/bgpdata/rrc01.updates.20230501.0800",
        "/x/bgpdata/2023.05/rrc01.updates.20230501.0800",
        "rrc01/2023.05/rrc00.updates.20230501.0800",
        "rrc01/2023.05/x/updates.20230501.0000.gz",
        "rrc01/data/updates.20230501.0000.gz",
        "bgpdata/2023.05/OTHER/updates.20230501.0000.bz2",
        "bgpdata/UPDATES/updates.20230501.0000.bz2",
        "rrc00/2023.05/bview.20230501.0000.gz",
        "bgpdata/2023.05/RIBS/rib.20230501.0000.bz2",
    ],
)
def test_layout_collector_outside_the_layout(path):
    assert layout_collector(Path(path)) is None
