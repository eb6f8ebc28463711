"""Path repair and timestamp disambiguation."""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.allocation import FilterStats, load_delegated
from bgpchurn.normalize import (
    FLAG_ANOMALOUS_EMPTY_PATH,
    FLAG_OVERFLOW_SECOND,
    FLAG_REPAIRED_PATH,
    disambiguate_timestamps,
    normalize_stream,
    repair_route_server_path,
)

from helpers import make_announcement, make_session, make_withdrawal


def _ann(peer_asn, path, arrival=1_600_000_000_000_000):
    return make_announcement(arrival, path=path, session=make_session(peer_asn))


# --- route-server path repair ---


def test_repair_prepends_missing_peer():
    rec = _ann(6695, (3356, 174))
    fixed = repair_route_server_path(rec)
    assert fixed.path_elements() == (6695, 3356, 174)
    assert FLAG_REPAIRED_PATH in fixed.flags
    assert FLAG_ANOMALOUS_EMPTY_PATH not in fixed.flags


def test_repair_leaves_complete_path_alone():
    rec = _ann(20205, (20205, 3356, 174))
    assert repair_route_server_path(rec) is rec


def test_repair_prepends_before_leading_as_set():
    rec = _ann(6695, ((6695, 3356), 174))
    assert repair_route_server_path(rec).path_elements() == (6695, (3356, 6695), 174)


def test_repair_empty_path_flagged_anomalous():
    rec = _ann(6695, ())
    fixed = repair_route_server_path(rec)
    assert fixed.path_elements() == (6695,)
    assert FLAG_REPAIRED_PATH in fixed.flags
    assert FLAG_ANOMALOUS_EMPTY_PATH in fixed.flags


def test_repair_skips_withdrawals():
    rec = make_withdrawal(1, session=make_session(6695))
    assert repair_route_server_path(rec) is rec


def test_repair_idempotent():
    rec = _ann(6695, (3356, 174))
    once = repair_route_server_path(rec)
    assert repair_route_server_path(once).path_elements() == once.path_elements()


def test_repair_keeps_other_attributes():
    rec = make_announcement(
        5,
        path=(3356,),
        session=make_session(6695),
        communities=((3356 << 16) | 7,),
        med=42,
    )
    fixed = repair_route_server_path(rec)
    assert fixed.attrs.communities == rec.attrs.communities
    assert fixed.attrs.med == 42
    assert fixed.attrs.next_hop == rec.attrs.next_hop


# --- timestamp disambiguation ---


def test_disambiguate_spreads_same_second_run():
    base = 1_600_000_000_000_000
    records = [make_withdrawal(base, prefix=f"10.{i}.0.0/16") for i in range(4)]
    out = list(disambiguate_timestamps(records))
    assert [r.arrival_us for r in out] == [base, base + 1, base + 2, base + 3]


def test_disambiguate_new_second_resets_run():
    s0, s1 = 1_600_000_000_000_000, 1_600_000_001_000_000
    records = [
        make_withdrawal(s0),
        make_withdrawal(s0),
        make_withdrawal(s1),
        make_withdrawal(s1),
    ]
    out = [r.arrival_us for r in disambiguate_timestamps(records)]
    assert out == [s0, s0 + 1, s1, s1 + 1]


def test_disambiguate_skips_native_stamps():
    import dataclasses

    base = 1_600_000_000_000_000
    native = dataclasses.replace(make_withdrawal(base + 250), native_usec=True)
    records = [make_withdrawal(base), native, make_withdrawal(base)]
    out = list(disambiguate_timestamps(records))
    # native record untouched and it breaks the run: the third starts fresh
    assert [r.arrival_us for r in out] == [base, base + 250, base]
    assert not any(r.native_usec for r in (out[0], out[2]))


def test_disambiguate_overflow_flagged():
    base = 1_600_000_000_000_000
    n = 1_000_002
    records = (make_withdrawal(base) for _ in range(n))
    out_flags = []
    last_us = None
    for rec in disambiguate_timestamps(records):
        out_flags.append(FLAG_OVERFLOW_SECOND in rec.flags)
        last_us = rec.arrival_us
    assert out_flags[:1_000_000] == [False] * 1_000_000
    assert out_flags[1_000_000:] == [True, True]
    assert last_us == base + n - 1  # spilled into the next second


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.booleans()),  # (second offset, native?)
        max_size=40,
    )
)
def test_disambiguate_idempotent_and_order_preserving(items):
    import dataclasses

    base_s = 1_600_000_000
    records = [
        dataclasses.replace(
            make_withdrawal((base_s + off) * 1_000_000, prefix=f"10.{i}.0.0/16"),
            native_usec=nat,
        )
        for i, (off, nat) in enumerate(items)
    ]
    once = list(disambiguate_timestamps(records))
    twice = list(disambiguate_timestamps(once))
    assert [r.arrival_us for r in twice] == [r.arrival_us for r in once]
    assert [r.prefix for r in once] == [r.prefix for r in records]
    # bumps never cross into a different second for short runs
    for orig, out in zip(records, once):
        assert out.arrival_us // 1_000_000 == orig.arrival_us // 1_000_000


# --- combined pipeline ---


def test_normalize_stream_composes_stages():
    delegated = io.StringIO(
        "ripencc|FR|asn|3356|1|20000101|allocated|x\n"
        "ripencc|FR|asn|6695|1|20000101|allocated|x\n"
        "ripencc|DE|ipv4|10.0.0.0|16777216|20000101|allocated|y\n"
    )
    table = load_delegated(delegated)
    base = 1_600_000_000_000_000
    records = [
        _ann(6695, (3356,), arrival=base),
        _ann(6695, (3356,), arrival=base),
        _ann(6695, (9999,), arrival=base),  # unallocated ASN: dropped
    ]
    stats = FilterStats()
    out = list(normalize_stream(records, table, stats))
    assert len(out) == 2
    assert stats.dropped_asn == 1
    assert all(r.path_elements() == (6695, 3356) for r in out)
    assert [r.arrival_us for r in out] == [base, base + 1]


def test_normalize_stream_without_allocation():
    records = [_ann(20205, (20205, 3356))]
    out = list(normalize_stream(records))
    assert out[0].path_elements() == (20205, 3356)
    assert out[0].session == make_session(20205)
