"""Every output byte of the shipped commands, pinned on seed-3 corpora.

The benchmark's generator (``perfbench/corpus.py``) builds the three
workloads' inputs at seed 3.  Each command then runs through
``cli.main`` from its corpus directory with relative paths, since
``reduction.csv`` and ``reduction_summary.json`` record each input path
as given.  The SHA-256 of every output file, of standard output and
the exit status are compared with ``tests/golden.json``.

The manifest also pins the SHA-256 of each generated input and of the
generator's truth, so a change to the generator fails as an input
mismatch rather than passing as an output change.

The seed-3 corpora hold IPv4 only, so a fourth input, ``dual-stack``,
is built with ``tests/helpers.py``: IPv4 and IPv6 sessions whose
MP_REACH/MP_UNREACH prefixes take every zero-run shape, with a 32-byte
next hop and one prefix carrying host bits on the wire.

A change that alters an output on purpose rewrites the manifest with::

    PYTHONPATH=src python tests/test_golden.py

and names each changed file, and why, alongside the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from bgpchurn.cli import main

from helpers import write_dual_stack

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
SEED = 3
ALLOCATION = "delegated-extended.txt"

# (run name, corpus directory, argv builder over that corpus's truth)
COMMANDS = (
    ("reduce-warm", "reduce-archive",
     lambda t: ["reduce", "--state", "warm", "-o", "out/reduce-warm", *t["inputs"]]),
    ("reduce-cold", "reduce-archive",
     lambda t: ["reduce", "--state", "cold", "-o", "out/reduce-cold", *t["inputs"]]),
    ("classify-allocation", "classify-wide",
     lambda t: ["classify", "--collector", "rrc00", "--allocation", ALLOCATION,
                "-o", "out/classify-allocation", *t["inputs"]]),
    ("classify-gz", "reduce-archive",
     lambda t: ["classify", "-o", "out/classify-gz", *t["inputs"]]),
    ("classify-jsonl", "beacon-phases",
     lambda t: ["classify", "-o", "out/classify-jsonl", *t["inputs"]]),
    ("classify-labels", "classify-wide",
     lambda t: ["classify", "-o", "out/classify-labels",
                "out/classify-allocation/labels.jsonl"]),
    ("beacon", "beacon-phases",
     lambda t: ["beacon", "-o", "out/beacon", *t["inputs"]]),
    ("dual-stack-classify", "dual-stack",
     lambda t: ["classify", "-o", "out/dual-stack-classify", *t["inputs"]]),
    ("dual-stack-reduce-warm", "dual-stack",
     lambda t: ["reduce", "--state", "warm", "-o", "out/dual-stack-reduce-warm",
                *t["inputs"]]),
    ("dual-stack-labels", "dual-stack",
     lambda t: ["classify", "-o", "out/dual-stack-labels",
                "out/dual-stack-classify/labels.jsonl"]),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(top: Path) -> dict[str, str]:
    """SHA-256 of each file under ``top``, by its path relative to ``top``."""
    return {
        path.relative_to(top).as_posix(): sha256(path.read_bytes())
        for path in sorted(top.rglob("*"))
        if path.is_file()
    }


def load_corpus_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def build_and_run(base: Path) -> dict:
    """Generate the seed-3 corpora under ``base`` and run every command."""
    builders = {
        **load_corpus_module().BUILDERS,
        "dual-stack": lambda seed, directory: {"inputs": write_dual_stack(directory)},
    }
    inputs, truths = {}, {}
    for workload, build in builders.items():
        directory = base / workload
        directory.mkdir()
        truths[workload] = truth = build(SEED, directory)
        for name, digest in tree_digests(directory).items():
            inputs[f"{workload}/{name}"] = digest
        inputs[f"{workload}/truth"] = sha256(json.dumps(truth, sort_keys=True).encode())
    runs = {}
    cwd = os.getcwd()
    try:
        for name, workload, argv in COMMANDS:
            os.chdir(base / workload)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = main(argv(truths[workload]))
            runs[name] = {
                "rc": rc,
                "stdout": sha256(stdout.getvalue().encode()),
                "files": tree_digests(base / workload / "out" / name),
            }
    finally:
        os.chdir(cwd)
    return {"seed": SEED, "inputs": inputs, "runs": runs}


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return build_and_run(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_generated_inputs_match_manifest(observed, golden):
    assert observed["seed"] == golden["seed"]
    assert observed["inputs"] == golden["inputs"], (
        "perfbench/corpus.py generates other inputs than the manifest pins"
    )


@pytest.mark.parametrize("name", [name for name, _, _ in COMMANDS])
def test_outputs_match_manifest(observed, golden, name):
    assert observed["inputs"] == golden["inputs"], "inputs changed; see the input test"
    assert observed["runs"][name] == golden["runs"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        manifest = build_and_run(Path(scratch))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
