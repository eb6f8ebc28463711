"""Command-line entry point.

Subcommands: fetch, classify, beacon, reduce, simulate.  Analytic
outputs are CSV or line-delimited JSON; all runs are deterministic for
identical inputs and flags (fetch excepted).
"""

from __future__ import annotations

import argparse
import ipaddress
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional

from . import __version__
from .allocation import AllocationFilter, load_delegated
from .beacon import (
    DEFAULT_BEACONS,
    DEFAULT_SCHEDULE,
    partition_communities,
    write_partition_csv,
    write_partition_summary_csv,
)
from .classify import (
    CLASSIFIER_FLAGS,
    LABELED_TYPES,
    AnnouncementType,
    StreamClassifier,
    write_peer_csv,
    write_tally_csv,
)
from .errors import BgpChurnError, NoBeaconRecords
from .fetch import ArchiveTarget, fetch, plan_urls
from .model import UpdateRecord, labeled_lines
from .normalize import NORMALIZER_FLAGS, Normalizer
from .output import atomic_output, write_csv, write_json
from .pipeline import label_messages, read_messages
from .reduce import corpus_reduction, write_reports_csv, write_summary_json
from .sim.export import write_capture_mrt, write_log_jsonl
from .sim.lab import EXPERIMENTS, PROFILES, run_experiment, run_experiment_matrix
from .sim.scenario import load_scenario

CACHE_ENV = "BGPCHURN_CACHE"
DEFAULT_CACHE = "~/.cache/bgpchurn"


def _utc(stamp: str) -> datetime:
    dt = datetime.fromisoformat(stamp)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _outdir(ns) -> Path:
    out = Path(ns.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands -------------------------------------------------------------


def cmd_fetch(ns) -> int:
    target = ArchiveTarget(
        project=ns.project,
        collector=ns.collector,
        start=_utc(ns.start),
        end=_utc(ns.end),
    )
    cache_dir = ns.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    plan = plan_urls(target)
    report = fetch(
        plan,
        Path(cache_dir).expanduser(),
        parallelism=ns.jobs,
        attempts=ns.retries,
        offline=ns.offline,
    )
    write_json(
        _outdir(ns) / "fetch_report.json",
        {**asdict(report), "files": [p.relative_path for p in plan]},
    )
    print(
        f"planned {report.planned}, cached {report.cached}, "
        f"downloaded {report.downloaded}, failed {len(report.failures)}"
    )
    if not report.counts_consistent():
        raise BgpChurnError(
            f"fetch counts do not add up: {report.planned} planned, but "
            f"{report.cached} cached + {report.downloaded} downloaded + "
            f"{len(report.failures)} failed"
        )
    return 0 if report.complete else 1


def cmd_classify(ns) -> int:
    out = _outdir(ns)
    allocated = (
        AllocationFilter(load_delegated(ns.allocation)) if ns.allocation else None
    )
    normalizer, clf = Normalizer(allocated), StreamClassifier()
    labeled_messages = label_messages(
        read_messages(ns.inputs, ns.collector), normalizer, clf
    )
    with atomic_output(out / "labels.jsonl") as f:
        f.writelines(
            labeled_lines(chain.from_iterable(labeled for _, labeled in labeled_messages))
        )
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
    counts = " ".join(
        f"{kind.value}={clf.tally.counts[kind]}"
        for kind in LABELED_TYPES + (AnnouncementType.INITIAL,)
    )
    print(
        f"labeled {clf.tally.labeled} announcements "
        f"({counts} over {len(clf.state)} streams)"
    )
    return 0


def _beacon_list(path: Path) -> frozenset[str]:
    """One prefix per line, canonicalized as decoded prefixes are."""
    beacons = set()
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            beacons.add(str(ipaddress.ip_network(text)))
        except ValueError as exc:
            raise BgpChurnError(f"{path}:{lineno}: bad beacon prefix: {exc}") from exc
    return frozenset(beacons)


def cmd_beacon(ns) -> int:
    out = _outdir(ns)
    beacons = (
        _beacon_list(Path(ns.beacon_list))
        if ns.beacon_list
        else frozenset(DEFAULT_BEACONS)
    )
    matched = 0

    def beacon_records() -> Iterator[UpdateRecord]:
        nonlocal matched
        for _, expanded in read_messages(ns.inputs):
            for r in expanded:
                if r.prefix in beacons:
                    matched += 1
                    yield r

    by_value, by_multiset = partition_communities(beacon_records(), DEFAULT_SCHEDULE)
    if not matched:
        raise NoBeaconRecords(f"no records matched {len(beacons)} beacon prefixes")
    write_partition_csv(by_value, out / "partition_values.csv")
    write_partition_summary_csv(by_value, out / "partition_values_summary.csv")
    write_partition_csv(by_multiset, out / "partition_multisets.csv", "multiset")
    write_partition_summary_csv(by_multiset, out / "partition_multisets_summary.csv")
    print(
        f"{matched} beacon records; value partition {by_value.sizes()}, "
        f"attribute partition {by_multiset.sizes()}"
    )
    return 0


def cmd_reduce(ns) -> int:
    out = _outdir(ns)
    summary = corpus_reduction(
        [Path(p) for p in ns.inputs],
        out / "pruned",
        warm=ns.state == "warm",
    )
    write_reports_csv(summary, out / "reduction.csv")
    write_summary_json(summary, out / "reduction_summary.json")
    print(
        f"{len(summary.reports)} files reduced, mean ratio "
        f"{summary.mean_ratio():.3f}, {len(summary.failures)} failures"
    )
    return 0 if not summary.failures else 1


def _simulate_scenario(ns, out: Path) -> int:
    profile = PROFILES[ns.profile]
    if ns.scenario in EXPERIMENTS:
        sim, log = run_experiment(ns.scenario, profile)
        name = ns.scenario
    else:
        sim, events, name = load_scenario(ns.scenario)
        log = sim.run(events)
    write_log_jsonl(log, out / f"{name}_capture.jsonl")
    for sender, receiver, tag in (("X1", "C1", "collector"), ("Y1", "X1", "upstream")):
        if sender in sim.routers and receiver in sim.routers:
            write_capture_mrt(
                sim, log, sender, receiver, out / f"{name}_{tag}.mrt"
            )
    print(f"{name}: {len(log.entries)} messages captured")
    return 0


def cmd_simulate(ns) -> int:
    out = _outdir(ns)
    if ns.matrix:
        rows = run_experiment_matrix()
        write_csv(
            out / "matrix.csv",
            ["profile", "exp1", "exp2", "exp3", "exp4"],
            ((r.profile, *r.as_tuple()) for r in rows),
        )
        width = max(len(r.profile) for r in rows)
        print(f"{'profile'.ljust(width)}  exp1  exp2  exp3  exp4")
        for r in rows:
            marks = ["true " if v else "false" for v in r.as_tuple()]
            print(f"{r.profile.ljust(width)}  " + "  ".join(marks))
        return 0
    return _simulate_scenario(ns, out)


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgpchurn",
        description="BGP update parsing, labeling, pruning and lab replay",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", default=".", help="output directory")

    p = sub.add_parser("fetch", help="download archive files into the cache")
    common(p)
    p.add_argument("--jobs", "-j", type=int, default=4, help="parallel downloads")
    p.add_argument("--project", choices=("routeviews", "ripe_ris"), required=True)
    p.add_argument("--collector", required=True)
    p.add_argument("--start", required=True, help="UTC ISO time, inclusive")
    p.add_argument("--end", required=True, help="UTC ISO time, exclusive")
    p.add_argument("--cache-dir", help=f"cache directory (or ${CACHE_ENV})")
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--offline", action="store_true", help="never hit the network")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("classify", help="label announcements by change type")
    common(p)
    p.add_argument("inputs", nargs="+", help="MRT files or .jsonl record files")
    p.add_argument("--collector", help="collector id for session keys")
    p.add_argument("--allocation", help="delegated-extended stats file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("beacon", help="beacon phase partition reports")
    common(p)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--beacon-list", help="file with one beacon prefix per line")
    p.set_defaults(func=cmd_beacon)

    p = sub.add_parser("reduce", help="prune purely-unnecessary update messages")
    common(p)
    p.add_argument("inputs", nargs="+", help="MRT update files")
    p.add_argument(
        "--state",
        choices=("cold", "warm"),
        default="warm",
        help="classifier state across files in input order",
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="run lab scenarios or the full matrix")
    common(p)
    p.add_argument(
        "--scenario",
        default="exp1",
        help="built-in name (exp1..exp4) or scenario JSON path",
    )
    p.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="default-forwarding",
    )
    p.add_argument(
        "--matrix",
        action="store_true",
        help="run all experiments for all shipped profiles",
    )
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except BgpChurnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
