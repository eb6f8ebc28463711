"""Every committed ``BENCH_*.json`` summary recomputes from its own runs.

Each file holds, per workload, alternating parent/change pairs of
``perfbench/run.py --trace 0`` results (``runs``) and a summary of them
(``pairs``, ``attempted``, ``failed``, ``correct`` and ``metrics``).
The summarizer below derives that summary from the runs alone, so a
hand-edited or mis-summarized figure fails here.  It stays in this file
until a committed pair script shares it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# the files this test checks; a new BENCH file is added here
BENCH_FILES = [
    "BENCH_7.json", "BENCH_9.json", "BENCH_11.json", "BENCH_12.json",
    "BENCH_14.json", "BENCH_15.json", "BENCH_16.json", "BENCH_17.json",
    "BENCH_18.json", "BENCH_19.json", "BENCH_20.json", "BENCH_21.json",
    "BENCH_22.json", "BENCH_23.json", "BENCH_24.json", "BENCH_25.json",
    "BENCH_26.json", "BENCH_27.json", "BENCH_28.json", "BENCH_29.json",
    "BENCH_30.json", "BENCH_33.json",
]
# files written before the bound fields were added to each metric
WITHOUT_BOUNDS = {"BENCH_7.json", "BENCH_9.json", "BENCH_11.json"}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize_metric(runs: list[dict], name: str, better: str) -> dict:
    """One metric's quartiles per side, the ratio of the medians and the
    pairs the change won outright; a tie is not a win."""
    values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
    sides = {side: quartiles(values[side]) for side in SIDES}
    wins = sum(
        (change < parent) if better == "lower" else (change > parent)
        for parent, change in zip(values["parent"], values["change"])
    )
    return {
        "better": better,
        **sides,
        "change_over_parent": sides["change"]["median"] / sides["parent"]["median"],
        "change_wins": wins,
    }


def within_bound(change_over_parent: float, better: str, bound: float) -> bool:
    if better == "lower":
        return change_over_parent <= 1 + bound
    return change_over_parent >= 1 - bound


def test_every_bench_file_is_listed():
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == sorted(BENCH_FILES)


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_summary_recomputes_from_its_runs(name):
    bench = json.loads((ROOT / name).read_text())
    bounds = {
        m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    assert bench["workloads"]
    for workload, summary in bench["workloads"].items():
        runs = summary["runs"]
        where = f"{name} {workload}"
        assert summary["pairs"] == len(runs), where
        assert [run["pair"] for run in runs] == list(range(len(runs))), where
        seeds = bench["seeds"]  # one list for every workload, in the oldest file
        seeds = seeds[workload] if isinstance(seeds, dict) else seeds
        assert [run["seed"] for run in runs] == seeds, where
        # parent first in even pairs
        assert [run["first"] for run in runs] == [SIDES[run["pair"] % 2] for run in runs]
        for key in ("attempted", "failed"):
            want = {side: sum(run[side][key] for run in runs) for side in SIDES}
            if isinstance(summary[key], int):  # the oldest file sums both sides
                want = sum(want.values())
            assert summary[key] == want, (where, key)
        assert summary["correct"] == all(run[side]["correct"] for run in runs for side in SIDES)
        for metric, got in summary["metrics"].items():
            want = summarize_metric(runs, metric, got["better"])
            assert got["better"] == bounds[metric]["better"], (where, metric)
            assert {key: got[key] for key in want} == want, (where, metric)
            if name in WITHOUT_BOUNDS:
                assert "bound" not in got and "within_bound" not in got, (where, metric)
                continue
            assert got["bound"] == bounds[metric]["bound"], (where, metric)
            assert got["within_bound"] == within_bound(
                got["change_over_parent"], got["better"], got["bound"]
            ), (where, metric)
