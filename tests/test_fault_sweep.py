"""A fault sweep over the data commands: a good input, then a faulted one.

Each run goes through ``cli.main``.  No exception may escape it.
``classify`` and ``beacon`` exit 2 with one error line naming the
faulted file and write nothing; ``reduce`` exits 1 with the faulted file
alone under ``failures``, and its pruned good file equals a run on that
file alone.  No run leaves a temp file.  A fault the reader takes in
stride, such as a cut at a record boundary, exits 0.
"""

from __future__ import annotations

import gzip
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.cli import main
from bgpchurn.model import record_to_dict

from helpers import make_announcement, update_entry

DAY0 = 18_500 * 86_400  # UTC midnight
C1 = (65001 << 16) | 100
BEACON = "84.205.64.0/24"  # a default beacon prefix


def _update_file() -> bytes:
    """A beacon announcement, its repeat, and a stream that reduce prunes."""
    t = DAY0 + 60  # inside the 00:00 announce window
    entries = [
        update_entry(t, announced=(BEACON,), communities=(C1,)),
        update_entry(t + 1, announced=(BEACON,), communities=(C1,)),
        update_entry(t + 2, announced=("10.1.0.0/24",), path=(65001, 65002)),
        update_entry(t + 3, announced=("10.1.0.0/24",), path=(65001, 65002)),
        update_entry(t + 4, announced=(), withdrawn=("10.1.0.0/24",)),
        update_entry(t + 5, announced=("10.1.0.0/24",), path=(65001, 65003),
                     microsecond=7),
    ]
    return b"".join(entry.encode() for entry in entries)


MRT = _update_file()
RECORDS = "".join(
    json.dumps(record_to_dict(make_announcement((DAY0 + 60 + i) * 1_000_000,
                                                prefix=BEACON, communities=(C1,))))
    + "\n"
    for i in range(3)
).encode()

_GZIP_MRT = gzip.compress(MRT, mtime=0)

# (name, content): bytes to write, or "directory" or "missing"
FAULTS = st.one_of(
    # truncated at a drawn offset, plain or gzip
    st.sampled_from([("faulted.mrt", MRT), ("faulted.mrt.gz", _GZIP_MRT)]).flatmap(
        lambda fault: st.integers(0, len(fault[1]) - 1).map(
            lambda cut: (fault[0], fault[1][:cut])
        )
    ),
    # one byte of plain MRT replaced by another
    st.tuples(st.integers(0, len(MRT) - 1), st.integers(1, 255)).map(
        lambda at: ("faulted.mrt", MRT[: at[0]] + bytes([MRT[at[0]] ^ at[1]]) + MRT[at[0] + 1:])
    ),
    # a record file under an MRT name
    st.sampled_from([
        ("faulted.mrt", RECORDS), ("faulted.mrt.gz", gzip.compress(RECORDS, mtime=0))
    ]),
    st.sampled_from([("faulted.mrt", b""), ("faulted.mrt", "directory"),
                     ("faulted.mrt", "missing")]),
    # a .jsonl line that is not an object, or nested past the recursion limit
    st.sampled_from(["[1,2]", '"x"', "5", "null", "[" * 100_000]).map(
        lambda line: ("faulted.jsonl", RECORDS + line.encode() + b"\n")
    ),
)

COMMANDS = {
    "classify": ["classify"],
    "beacon": ["beacon"],
    "reduce-cold": ["reduce", "--state", "cold"],
    "reduce-warm": ["reduce", "--state", "warm"],
}


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=100)
@given(fault=FAULTS)
def test_a_faulted_input_fails_alone(command, fault):
    name, content = fault
    args = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        good, bad, out = Path(tmp, "good.mrt"), Path(tmp, name), Path(tmp, "out")
        good.write_bytes(MRT)
        if content == "directory":
            bad.mkdir()
        elif content != "missing":
            bad.write_bytes(content)
        code, err = _run([*args, str(good), str(bad), "-o", str(out)])
        assert list(out.rglob("*.tmp")) == []
        if args[0] != "reduce":
            assert code in (0, 2)
            if code == 2:
                assert err.startswith(f"error: {bad}:") and err.count("\n") == 1, err
                assert list(out.iterdir()) == []
            return
        assert code in (0, 1) and err == ""
        summary = json.loads((out / "reduction_summary.json").read_text())
        assert list(summary["failures"]) == ([str(bad)] if code else [])
        assert (out / "pruned" / name).exists() == (code == 0)
        alone = Path(tmp, "alone")
        assert _run([*args, str(good), "-o", str(alone)]) == (0, "")
        pruned = (out / "pruned" / good.name).read_bytes()
        assert pruned == (alone / "pruned" / good.name).read_bytes()
