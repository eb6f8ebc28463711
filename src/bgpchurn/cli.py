"""Command-line entry point.

Subcommands: fetch, classify, beacon, reduce, simulate.  Analytic
outputs are CSV or line-delimited JSON; all runs are deterministic for
identical inputs and flags (fetch excepted).  Each data command is one
library call that writes its whole output tree; this module parses,
prints and picks the exit code.
"""

# Every invocation pays for what this module imports, and a day is
# reduced file by file, one process per file.  So the code only one
# subcommand runs (the simulator, beacon, reduce, the allocation table)
# is imported inside that subcommand.

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import BgpChurnError
from .fetch import ArchiveTarget, fetch, plan_urls
from .output import make_directory, write_csv, write_json
from .pipeline import run_classify, side_input

CACHE_ENV = "BGPCHURN_CACHE"
DEFAULT_CACHE = "~/.cache/bgpchurn"


def _utc(stamp: str) -> datetime:
    """An ISO time; one without a zone is UTC."""
    try:
        dt = datetime.fromisoformat(stamp)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO time: {stamp!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


# -- subcommands -------------------------------------------------------------


def cmd_fetch(ns) -> int:
    if ns.end <= ns.start:
        raise BgpChurnError(f"--end {ns.end} is not after --start {ns.start}")
    if ns.retries < 1:
        raise BgpChurnError(f"--retries {ns.retries} makes no attempt; give at least 1")
    if ns.jobs < 1:
        raise BgpChurnError(f"--jobs {ns.jobs} runs no download; give at least 1")
    target = ArchiveTarget(ns.project, ns.collector, ns.start, ns.end)
    cache_dir = ns.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    plan = plan_urls(target)
    out = make_directory(ns.output)
    report = fetch(
        plan,
        Path(cache_dir).expanduser(),
        parallelism=ns.jobs,
        attempts=ns.retries,
        offline=ns.offline,
    )
    write_json(
        out / "fetch_report.json",
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
    print(run_classify(ns.inputs, ns.output, ns.collector, ns.allocation))
    return 0


def cmd_beacon(ns) -> int:
    from .beacon import run_beacon

    print(run_beacon(ns.inputs, ns.output, ns.beacon_list))
    return 0


def cmd_reduce(ns) -> int:
    from .reduce import run_reduce

    line, summary = run_reduce(ns.inputs, ns.output, ns.state == "warm")
    print(line)
    return 1 if summary.failures else 0


def _simulate_scenario(ns, out: Path) -> int:
    from .sim.export import write_capture_mrt, write_log_jsonl
    from .sim.lab import EXPERIMENTS, PROFILES, run_experiment
    from .sim.scenario import load_scenario

    profile = PROFILES[ns.profile]
    if ns.scenario in EXPERIMENTS:
        sim, log = run_experiment(ns.scenario, profile)
        name = ns.scenario
    else:
        sim, events, name = side_input(load_scenario, ns.scenario)
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
    from .sim.lab import PROFILES, run_experiment_matrix

    if ns.profile not in PROFILES:
        raise BgpChurnError(
            f"unknown profile {ns.profile!r}; one of: {', '.join(sorted(PROFILES))}"
        )
    out = make_directory(ns.output)
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
    p.add_argument("--start", type=_utc, required=True, help="UTC ISO time, inclusive")
    p.add_argument("--end", type=_utc, required=True, help="UTC ISO time, exclusive")
    p.add_argument("--cache-dir", help=f"cache directory (or ${CACHE_ENV})")
    p.add_argument("--retries", type=int, default=3, help="attempts per file")
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
        default="default-forwarding",
        help="router profile for --scenario; the README lists the names",
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
