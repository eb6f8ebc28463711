"""The benchmark's traced passes run on the library and match the commands.

``perfbench/run.py --trace 0`` never runs ``perfbench/pipelines.py``, so
a changed call shape there, such as ``read_mrt_stream(stream, "plain")``
or ``write_partition_csv(..., "multiset")``, would break only
``--trace 1``.  Each pass runs once here, traced, on a tiny input, and
writes what its command writes.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bgpchurn.cli import main
from bgpchurn.model import record_to_dict
from bgpchurn.mrt.codec import write_mrt_stream

from helpers import build_keepalive_record, make_announcement, update_entry

ROOT = Path(__file__).resolve().parents[1]
C1 = (65001 << 16) | 100
C2 = (65001 << 16) | 200
T = 1_600_000_000


@pytest.fixture(scope="module")
def pipelines():
    spec = importlib.util.spec_from_file_location(
        "perfbench_pipelines", ROOT / "perfbench" / "pipelines.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def write_mrt(path, entries):
    with open(path, "wb") as f:
        write_mrt_stream(entries, f)
    return path


def same_files(left: Path, right: Path, names) -> None:
    for name in names:
        assert (left / name).read_bytes() == (right / name).read_bytes(), name


def test_reduce_pass(pipelines, tmp_path):
    first = write_mrt(tmp_path / "updates.0000.mrt", [
        update_entry(T, announced=("10.1.0.0/24",)),
        update_entry(T + 1, announced=("10.1.0.0/24",)),  # nn: dropped
        build_keepalive_record(T + 2, 65001, "10.0.0.1", 64512, "10.0.0.2"),
    ])
    second = write_mrt(tmp_path / "updates.0005.mrt", [
        update_entry(T + 3, announced=("10.1.0.0/24",), communities=(C1,)),  # nc
        update_entry(T + 4, announced=("10.1.0.0/24", "10.2.0.0/24"), path=(65001, 65003)),
        update_entry(T + 5, announced=(), withdrawn=("10.2.0.0/24",)),
    ])
    tracer = pipelines.Tracer(True)
    res = pipelines.reduce_pass(tracer, [first, second], tmp_path / "traced")
    cli = tmp_path / "cli"
    assert main(["reduce", "--state", "warm", "-o", str(cli), str(first), str(second)]) == 0
    same_files(tmp_path / "traced", cli, (
        "reduction.csv", "pruned/updates.0000.mrt", "pruned/updates.0005.mrt"
    ))
    assert res.counts["mrt.records"] == 6
    assert res.counts["reduce.discarded"] == 2
    assert tracer.inclusive["mrt.read"] > 0


def test_classify_pass(pipelines, tmp_path):
    src = write_mrt(tmp_path / "updates.mrt", [
        update_entry(T, announced=("10.1.0.0/24", "11.0.0.0/24")),
        update_entry(T + 1, announced=("10.1.0.0/24",), communities=(C1,)),
        update_entry(T + 2, announced=(), withdrawn=("10.1.0.0/24",)),
        update_entry(T + 3, announced=("10.1.0.0/24",), path=(65001, 65003)),
    ])
    delegated = tmp_path / "delegated.txt"
    delegated.write_text(
        "ripencc|ZZ|asn|65001|3|20000101|allocated\n"
        "ripencc|ZZ|ipv4|10.0.0.0|16777216|20000101|allocated\n"
    )
    tracer = pipelines.Tracer(True)
    res = pipelines.classify_pass(tracer, [src], tmp_path / "traced", delegated)
    cli = tmp_path / "cli"
    argv = ["classify", "--collector", "rrc00", "--allocation", str(delegated)]
    assert main(argv + ["-o", str(cli), str(src)]) == 0
    same_files(tmp_path / "traced", cli, ("labels.jsonl", "tally.csv", "peer_nc_nn.csv"))
    assert res.counts["allocation.dropped"] == 1  # 11.0.0.0/24
    assert res.counts["classify.labeled"] == 2  # nc, pc; initial is no change
    assert tracer.inclusive["allocation.filter"] > 0


def test_beacon_pass(pipelines, tmp_path):
    day0 = 18_500 * 86_400  # UTC midnight
    stamps = ((day0 + 60, C1), (day0 + 2 * 3600 + 60, C2), (day0 + 3600, C1))
    src = tmp_path / "records.jsonl"
    src.write_text("".join(
        json.dumps(record_to_dict(make_announcement(
            t * 1_000_000, prefix=prefix, communities=(community,)
        ))) + "\n"
        for t, community in stamps
        for prefix in ("84.205.64.0/24", "10.0.0.0/24")
    ))
    tracer = pipelines.Tracer(True)
    res = pipelines.beacon_pass(tracer, [src], tmp_path / "traced")
    cli = tmp_path / "cli"
    assert main(["beacon", "-o", str(cli), str(src)]) == 0
    same_files(tmp_path / "traced", cli, (
        "partition_values.csv",
        "partition_values_summary.csv",
        "partition_multisets.csv",
        "partition_multisets_summary.csv",
    ))
    assert res.counts["beacon.matched"] == 3
    assert tracer.inclusive["model.jsonl_read"] > 0
