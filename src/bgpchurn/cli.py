"""Command-line entry point.

Subcommands: fetch, classify, beacon, reduce, simulate.  Analytic
outputs are CSV or line-delimited JSON; all runs are deterministic for
identical inputs and flags (fetch excepted).
"""

from __future__ import annotations

import argparse
import ipaddress
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional

from . import __version__
from .allocation import FilterStats, load_delegated
from .beacon import (
    DEFAULT_BEACONS,
    DEFAULT_SCHEDULE,
    partition_communities,
    write_partition_csv,
    write_partition_summary_csv,
)
from .classify import StreamClassifier, write_peer_csv, write_tally_csv
from .errors import BgpChurnError, NoBeaconRecords
from .fetch import ArchiveTarget, RetryPolicy, fetch_target
from .model import record_to_dict
from .normalize import Normalizer
from .pipeline import Message, atomic_output, label_messages, read_messages
from .reduce import corpus_reduction, write_reports_csv, write_summary_json
from .sim.export import write_capture_mrt, write_log_jsonl
from .sim.lab import EXPERIMENTS, PROFILES, run_experiment, run_experiment_matrix
from .sim.scenario import load_scenario

CACHE_ENV = "BGPCHURN_CACHE"
DEFAULT_CACHE = "~/.cache/bgpchurn"


def _cache_dir(value: Optional[str]) -> Path:
    chosen = value or os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    return Path(chosen).expanduser()


def _utc(stamp: str) -> datetime:
    dt = datetime.fromisoformat(stamp)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _collector_id(path: Path) -> str:
    return path.stem.split(".")[0] or path.stem


def _input_messages(ns) -> Iterator[Message]:
    """MRT files and .jsonl record files both feed the pipeline."""
    for name in ns.inputs:
        path = Path(name)
        yield from read_messages(path, ns.collector or _collector_id(path))


def _outdir(ns) -> Path:
    out = Path(ns.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands -------------------------------------------------------------


def cmd_fetch(ns) -> int:
    target = ArchiveTarget(
        project=ns.project,
        collector=ns.collector,
        kind=ns.kind,
        start=_utc(ns.start),
        end=_utc(ns.end),
    )
    plan, report = fetch_target(
        target,
        _cache_dir(ns.cache_dir),
        parallelism=ns.jobs,
        retry=RetryPolicy(attempts=ns.retries),
        offline=ns.offline,
    )
    out = _outdir(ns)
    with open(out / "fetch_report.json", "w", encoding="utf-8") as f:
        json.dump(
            {
                "planned": report.planned,
                "cached": report.cached,
                "downloaded": report.downloaded,
                "failures": report.failures,
                "files": [p.relative_path for p in plan],
            },
            f,
            indent=2,
        )
    print(
        f"planned {report.planned}, cached {report.cached}, "
        f"downloaded {report.downloaded}, failed {len(report.failures)}"
    )
    return 0 if report.complete else 1


def cmd_classify(ns) -> int:
    out = _outdir(ns)
    alloc_stats = None
    table = None
    if ns.allocation:
        table = load_delegated(ns.allocation)
        alloc_stats = FilterStats()
    clf = StreamClassifier()
    labeled_messages = label_messages(
        _input_messages(ns), Normalizer(table, alloc_stats), clf
    )
    with atomic_output(out / "labels.jsonl") as f:
        for _, labeled_records in labeled_messages:
            for labeled in labeled_records:
                row = record_to_dict(labeled.record)
                row["label"] = labeled.label.value
                row["after_withdrawal"] = labeled.after_withdrawal
                f.write(json.dumps(row, separators=(",", ":")) + "\n")
    write_tally_csv(clf.tally, out / "tally.csv")
    write_peer_csv(clf.tally, out / "peer_nc_nn.csv")
    meta = {
        "version": __version__,
        "allocation_filter": bool(table),
        "announcements": clf.tally.announcements,
        "withdrawals": clf.tally.withdrawals,
    }
    if alloc_stats is not None:
        meta["allocation"] = {
            "kept": alloc_stats.kept,
            "dropped_prefix": alloc_stats.dropped_prefix,
            "dropped_asn": alloc_stats.dropped_asn,
            "table_gaps": alloc_stats.table_gaps,
        }
    with open(out / "classify_report.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
    print(
        f"labeled {clf.tally.labeled} announcements "
        f"({clf.tally.counts} over {len(clf.state)} streams)"
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
    records = [
        r
        for _, expanded in _input_messages(ns)
        for r in expanded
        if r.prefix in beacons
    ]
    if not records:
        raise NoBeaconRecords(f"no records matched {len(beacons)} beacon prefixes")
    by_value, by_multiset = partition_communities(records, DEFAULT_SCHEDULE)
    write_partition_csv(by_value, out / "partition_values.csv")
    write_partition_summary_csv(by_value, out / "partition_values_summary.csv")
    write_partition_csv(by_multiset, out / "partition_multisets.csv", "multiset")
    write_partition_summary_csv(by_multiset, out / "partition_multisets_summary.csv")
    print(
        f"{len(records)} beacon records; value partition {by_value.sizes()}, "
        f"attribute partition {by_multiset.sizes()}"
    )
    return 0


def cmd_reduce(ns) -> int:
    out = _outdir(ns)
    pruned_dir = out / "pruned"
    pruned_dir.mkdir(exist_ok=True)
    summary = corpus_reduction(
        [Path(p) for p in ns.inputs],
        pruned_dir,
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
        with open(out / "matrix.csv", "w", encoding="utf-8") as f:
            f.write("profile,exp1,exp2,exp3,exp4\n")
            for row in rows:
                f.write(
                    f"{row.profile},{row.exp1},{row.exp2},{row.exp3},{row.exp4}\n"
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
    p.add_argument("--kind", choices=("updates", "rib"), default="updates")
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
    p.add_argument("--collector")
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
