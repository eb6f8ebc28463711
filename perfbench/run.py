"""End-to-end and per-layer benchmark for bgpchurn's reduce, classify and beacon.

    python3 perfbench/run.py --workload reduce-archive --seed 1 --seconds 30 --trace 0

Run from the repository root.  Inputs are generated from ``--seed`` by
``corpus.py``.  With ``--trace 0`` the workload's real ``bgpchurn``
subcommand runs as one child process at a time, over and over for
``--seconds``, and the last stdout line reports the end-to-end metrics,
with times scaled to a fixed reference speed (see ``reference``).
With ``--trace 1`` the same pipeline runs in this process through the
layers' public functions, traced and untraced in turn, and the per-layer
metrics are reported.  Every output is checked against the generator's
truth; see README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

SETUP_REPEATS = 7
REFERENCE_S = 0.25  # end-to-end times are reported at the speed where reference() takes this long
CHILD_TIMEOUT_S = 60  # a hung command fails its round well inside a run's 180 s
GZIP_MAGIC = b"\x1f\x8b"


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    wall_s: float
    maxrss_kb: int
    returncode: int


def run_child(argv: list[str], errlog: Path) -> ChildRun:
    """Run one command through spawn.py, so its peak RSS is its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawn = [sys.executable, "-I", str(HERE / "spawn.py"), str(errlog), str(CHILD_TIMEOUT_S)]
    done = subprocess.run(spawn + argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 20, check=True)
    r = json.loads(done.stdout)
    return ChildRun(r["wall_s"], r["maxrss_kb"], r["returncode"])


def bgpchurn(*args: str) -> list[str]:
    return [sys.executable, "-m", "bgpchurn.cli", *args]


# ---------------------------------------------------------------------------
# checks against the generator's truth


class Outcome:
    """Operation verdicts; ``problems`` are wrong outputs, ``not_gzip`` the known fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.not_gzip: list[str] = []

    def op(self, failed: bool) -> None:
        self.attempted += 1
        self.failed += failed

    def expect(self, what: str, got, want) -> bool:
        if got == want:
            return True
        self.problems.append(f"{what}: got {got!r}, want {want!r}")
        return False


def read_csv_counts(path: Path) -> dict[str, int]:
    rows = path.read_text().splitlines()[1:]
    return {r.split(",")[0]: int(r.split(",")[1]) for r in rows}


def check_reduce(out: Path, truth: dict, rc: int, res: Outcome) -> None:
    """Pruned records equal the kept records in order; counts match; ``.gz`` is gzip.

    A pruned ``.gz`` that is not gzip is a failed operation but not a
    wrong output; the other checks run on its bytes read by magic.  Any
    file that reduce itself reports as failed is a wrong output: every
    generated input is valid, so the gzip fault stays the only excused
    failure.
    """
    summary = json.loads((out / "reduction_summary.json").read_text())
    reports = {Path(r["file"]).name: r for r in summary["reports"]}
    reported_failed = {Path(f).name for f in summary["failures"]}
    res.expect("reduce exit code", rc, 0)
    for t in truth["files"]:
        name = t["name"]
        if name in reported_failed:
            res.problems.append(f"{name}: reduce reported the file as failed")
            res.op(True)
            continue
        ok = res.expect(f"{name} messages", reports[name]["total_messages"], t["updates"])
        ok &= res.expect(f"{name} discarded", reports[name]["discarded_messages"], t["discarded"])
        blob = (out / "pruned" / name).read_bytes()
        container_ok = blob[:2] == GZIP_MAGIC
        if container_ok:
            try:
                blob = gzip.decompress(blob)
            except (OSError, EOFError) as exc:
                container_ok = False
                res.problems.append(f"{name}: gzip output does not decompress: {exc}")
        if not container_ok:
            res.not_gzip.append(name)
        records = corpus.split_records(blob)
        ok &= res.expect(f"{name} kept records", len(records), t["kept"])
        ok &= res.expect(f"{name} kept bytes digest", corpus.digest(records), t["kept_digest"])
        res.op(not (ok and container_ok))


def check_classify(out: Path, truth: dict, rc: int, res: Outcome) -> None:
    """Every label row, the repaired paths, the tally and the allocation drop count match."""
    ok = res.expect("classify exit code", rc, 0)
    if ok:
        with open(out / "labels.jsonl", encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        labels = [row["label"] for row in rows]
        ok &= res.expect("labels.jsonl row count", len(labels), len(truth["labels_in_order"]))
        repaired = sum("repaired_path" in row["flags"] for row in rows)
        ok &= res.expect("route-server paths repaired", repaired, truth["repaired"])
        wrong = sum(a != b for a, b in zip(labels, truth["labels_in_order"]))
        ok &= res.expect("labels.jsonl rows with a wrong label", wrong, 0)
        ok &= res.expect("tally.csv", read_csv_counts(out / "tally.csv"), truth["labels"])
        alloc = json.loads((out / "classify_report.json").read_text())["allocation"]
        ok &= res.expect("records dropped as unallocated", alloc["dropped_prefix"] + alloc["dropped_asn"], truth["dropped"])
    res.op(not ok)


def check_beacon(out: Path, truth: dict, rc: int, res: Outcome) -> None:
    """Value and multiset partition sizes equal the planted composition."""
    ok = res.expect("beacon exit code", rc, 0)
    if ok:
        ok &= res.expect("value partition", read_csv_counts(out / "partition_values_summary.csv"), truth["value_partition"])
        ok &= res.expect("multiset partition", read_csv_counts(out / "partition_multisets_summary.csv"), truth["multiset_partition"])
    res.op(not ok)


def check_round_trip(inputs: list[Path], res: Outcome) -> None:
    """``write(read(f)) == f`` on every MRT input (the CLI's rule: not ``.jsonl``)."""
    from bgpchurn.mrt.codec import read_mrt_stream, write_mrt_stream

    for path in (p for p in inputs if p.suffix != ".jsonl"):
        blob = path.read_bytes()
        if blob[:2] == GZIP_MAGIC:
            blob = gzip.decompress(blob)
        buf = io.BytesIO()
        write_mrt_stream(read_mrt_stream(blob), buf)
        res.expect(f"{path.name} round trip", buf.getvalue() == blob, True)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    argv: object  # (inputs, out, corpus dir) -> argv
    check: object
    traced_pass: str  # function name in pipelines.py


WORKLOADS = {
    "reduce-archive": Workload(
        lambda inputs, out, d: bgpchurn("reduce", "--state", "warm", "-o", str(out), *map(str, inputs)),
        check_reduce,
        "reduce_pass",
    ),
    "classify-wide": Workload(
        lambda inputs, out, d: bgpchurn(
            "classify", "--collector", "rrc00", "--allocation", str(d / "delegated-extended.txt"),
            "-o", str(out), *map(str, inputs),
        ),
        check_classify,
        "classify_pass",
    ),
    "beacon-phases": Workload(
        lambda inputs, out, d: bgpchurn("beacon", "-o", str(out), *map(str, inputs)),
        check_beacon,
        "beacon_pass",
    ),
}


def command_round(wl: Workload, inputs, out: Path, corpus_dir: Path, truth: dict, res: Outcome) -> ChildRun:
    shutil.rmtree(out, ignore_errors=True)
    run = run_child(wl.argv(inputs, out, corpus_dir), out.parent / "stderr.txt")
    if run.returncode not in (0, 1):
        log((out.parent / "stderr.txt").read_text()[-2000:])
    try:
        wl.check(out, truth, run.returncode, res)
    except (OSError, ValueError, KeyError) as exc:
        res.problems.append(f"outputs unreadable: {exc!r}")
        res.op(True)
    return run


def reference_lines(n: int = 30_000) -> list[str]:
    """Fixed JSON records for the reference work; they do not depend on ``--seed``."""
    rng = random.Random("perfbench-reference")
    return [
        json.dumps({
            "peer_asn": rng.randrange(65_536),
            "prefix": f"{rng.randrange(224)}.{rng.randrange(256)}.{rng.randrange(256)}.0/24",
            "as_path": [rng.randrange(65_536) for _ in range(rng.randint(2, 6))],
            "communities": [f"{rng.randrange(65_536)}:{rng.randrange(65_536)}" for _ in range(rng.randint(0, 4))],
        })
        for _ in range(n)
    ]


def reference(lines: list[str]) -> float:
    """Seconds for a fixed piece of JSON and dict work, the mix bgpchurn's layers do.

    It runs in this process between the commands, so its median over a
    run tracks how fast the machine is during that run.
    """
    gc.disable()  # the benchmark's own heap must not set the pace
    try:
        t0 = time.perf_counter()
        counts: dict[tuple, int] = {}
        for line in lines:
            r = json.loads(line)
            key = (r["peer_asn"], r["prefix"], tuple(r["as_path"]), tuple(sorted(r["communities"])))
            counts[key] = counts.get(key, 0) + 1
            ",".join(map(str, r["as_path"]))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def measure_end_to_end(wl, inputs, one, corpus_dir, work, truth, seconds, res) -> dict:
    """Full-input rounds for ``seconds``, with one-message runs and the reference between them.

    The machine's speed drifts by tens of percent over minutes, longer
    than a run, so the median of the rounds alone moves with it.  The
    reference work runs between the commands; every time is scaled by
    ``REFERENCE_S`` / its median, which cancels the drift the commands
    share with it.  The raw medians go to stderr.
    """

    def one_message_run() -> float:
        shutil.rmtree(work / "one-out", ignore_errors=True)
        r = run_child(wl.argv(one, work / "one-out", corpus_dir), work / "stderr.txt")
        if r.returncode != 0:
            raise RuntimeError(f"one-message run exited {r.returncode}: {(work / 'stderr.txt').read_text()[-2000:]}")
        return r.wall_s

    lines = reference_lines()
    one_message_run()  # compiles bytecode and warms the page cache; not timed
    reference(lines)
    setups, walls, rss, refs = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for _ in range(2):
            refs.append(reference(lines))
            setups.append(one_message_run())
        refs.append(reference(lines))
        run = command_round(wl, inputs, work / "out", corpus_dir, truth, res)
        walls.append(run.wall_s)
        rss.append(run.maxrss_kb)
    while len(setups) < SETUP_REPEATS:
        refs.append(reference(lines))
        setups.append(one_message_run())
    ref = statistics.median(refs)
    scale = REFERENCE_S / ref
    setup_s, wall_s = statistics.median(setups) * scale, statistics.median(walls) * scale
    log(f"raw setup {sorted(round(x, 4) for x in setups)}; raw wall {sorted(round(x, 3) for x in walls)}")
    log(f"reference median {ref:.4f} s over {len(refs)}; scale {scale:.3f}")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "records_per_s": {"value": truth["records"] / (wall_s - setup_s), "unit": "records/s"},
        "peak_rss_mb": {"value": statistics.median(rss) / 1024, "unit": "MB"},
    }


def head_copies(inputs: list[Path], dest: Path) -> list[Path]:
    """Copies holding the first quarter of each MRT input's records.

    tracemalloc slows the pipeline about fivefold; a quarter of the
    input keeps that pass short and still holds thousands of streams.
    """
    dest.mkdir(parents=True, exist_ok=True)
    heads = []
    for path in inputs:
        blob = path.read_bytes()
        packed = blob[:2] == GZIP_MAGIC
        records = corpus.split_records(gzip.decompress(blob) if packed else blob)
        head = b"".join(records[: len(records) // 4])
        (dest / path.name).write_bytes(gzip.compress(head, mtime=0) if packed else head)
        heads.append(dest / path.name)
    return heads


def measure_layers(wl, inputs, corpus_dir, work, truth, seconds, res) -> dict:
    import pipelines

    run_pass = getattr(pipelines, wl.traced_pass)
    allocation = corpus_dir / "delegated-extended.txt"
    traced, overheads = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Each traced pass is paired with the untraced pass next to it,
        # in alternating order, so drift between pairs cancels out.
        walls = {}
        for enabled in (len(traced) % 2 == 0, len(traced) % 2 == 1):
            out = work / "pass-out"
            shutil.rmtree(out, ignore_errors=True)
            tr = pipelines.Tracer(enabled)
            t0 = time.perf_counter()
            result = run_pass(tr, inputs, out, allocation)
            tr.close_unused()
            wall = time.perf_counter() - t0
            walls[enabled] = wall
            if not enabled:
                continue
            traced.append((wall, tr.self_times(), result.counts))
            if len(traced) == 1:  # the in-process pipeline must give the command's outputs
                check = Outcome()
                wl.check(out, truth, 0, check)
                res.problems.extend(f"traced pass: {p}" for p in check.problems)
        overheads.append(walls[True] - walls[False])
    traced.sort(key=lambda t: t[0])
    wall, self_times, counts = traced[len(traced) // 2]
    metrics = {}
    for name, value in self_times.items():
        metrics[name + "_s"] = {"value": value, "unit": "s"}
    unattributed = wall - sum(self_times.values())
    if unattributed < 0:
        res.problems.append(f"layer self times exceed the traced wall by {-unattributed} s")
    metrics["trace.unattributed_s"] = {"value": unattributed, "unit": "s"}
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    for name, value in counts.items():
        unit = "B" if name.endswith("bytes_out") else "count"
        metrics[name] = {"value": value, "unit": unit}
    per_stream = 0.0
    if counts["classify.streams"]:
        shutil.rmtree(work / "pass-out", ignore_errors=True)
        heads = head_copies(inputs, work / "head")
        per_stream = pipelines.state_bytes_per_stream(run_pass, heads, work / "pass-out", allocation)
    metrics["classify.state_bytes_per_stream"] = {"value": per_stream, "unit": "B"}
    log(f"traced walls {sorted(round(t[0], 3) for t in traced)}; overheads {[round(d, 3) for d in overheads]}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="bgpchurn benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()
    if not (SRC / "bgpchurn" / "cli.py").is_file():
        log(f"no bgpchurn sources under {SRC}; run from the repository root")
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[ns.workload]
    work = ROOT / ".perfbench_work" / f"{ns.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = work / "corpus"
    corpus_dir.mkdir(parents=True)
    try:
        truth = corpus.BUILDERS[ns.workload](ns.seed, corpus_dir)
        inputs = [corpus_dir / name for name in truth["inputs"]]
        one = [corpus_dir / name for name in truth["one_message"]]
        res = Outcome()
        check_round_trip(inputs, res)
        if ns.trace:
            command_round(wl, inputs, work / "out", corpus_dir, truth, res)
            metrics = measure_layers(wl, inputs, corpus_dir, work, truth, ns.seconds, res)
        else:
            metrics = measure_end_to_end(wl, inputs, one, corpus_dir, work, truth, ns.seconds, res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    if res.not_gzip:
        log(f"{len(res.not_gzip)} pruned .gz outputs are not gzip (known fault), e.g. {res.not_gzip[0]}")
    for problem in res.problems[:20]:
        log(f"CHECK FAILED: {problem}")
    result = {"correct": not res.problems, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
