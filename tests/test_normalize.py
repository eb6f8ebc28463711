"""Path repair and timestamp disambiguation."""

from __future__ import annotations

import io
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.allocation import FilterStats, filter_allocated, load_delegated
from bgpchurn.normalize import (
    FLAG_ANOMALOUS_EMPTY_PATH,
    FLAG_OVERFLOW_SECOND,
    FLAG_REOPENED_SECOND,
    FLAG_REPAIRED_PATH,
    Normalizer,
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
    assert fixed.attrs.path == (6695, 3356, 174)
    assert FLAG_REPAIRED_PATH in fixed.flags
    assert FLAG_ANOMALOUS_EMPTY_PATH not in fixed.flags


def test_repair_leaves_complete_path_alone():
    rec = _ann(20205, (20205, 3356, 174))
    assert repair_route_server_path(rec) is rec


def test_repair_prepends_before_leading_as_set():
    rec = _ann(6695, ((6695, 3356), 174))
    assert repair_route_server_path(rec).attrs.path == (6695, (3356, 6695), 174)


def test_repair_empty_path_flagged_anomalous():
    rec = _ann(6695, ())
    fixed = repair_route_server_path(rec)
    assert fixed.attrs.path == (6695,)
    assert FLAG_REPAIRED_PATH in fixed.flags
    assert FLAG_ANOMALOUS_EMPTY_PATH in fixed.flags


def test_repair_skips_withdrawals():
    rec = make_withdrawal(1, session=make_session(6695))
    assert repair_route_server_path(rec) is rec


def test_repair_idempotent():
    rec = _ann(6695, (3356, 174))
    once = repair_route_server_path(rec)
    assert repair_route_server_path(once).attrs.path == once.attrs.path


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
    out = list(map(Normalizer().disambiguate, records))
    assert [r.arrival_us for r in out] == [base, base + 1, base + 2, base + 3]


def test_disambiguate_new_second_resets_run():
    s0, s1 = 1_600_000_000_000_000, 1_600_000_001_000_000
    records = [
        make_withdrawal(s0),
        make_withdrawal(s0),
        make_withdrawal(s1),
        make_withdrawal(s1),
    ]
    out = [r.arrival_us for r in map(Normalizer().disambiguate, records)]
    assert out == [s0, s0 + 1, s1, s1 + 1]


def test_disambiguate_skips_native_stamps():
    base = 1_600_000_000_000_000
    native = make_withdrawal(base + 250)._replace(native_usec=True)
    records = [make_withdrawal(base), native, make_withdrawal(base)]
    out = list(map(Normalizer().disambiguate, records))
    # native record untouched and it does not interrupt the count
    assert [r.arrival_us for r in out] == [base, base + 250, base + 1]
    assert not any(r.native_usec for r in (out[0], out[2]))


def test_disambiguate_overflow_flagged():
    base = 1_600_000_000_000_000
    n = 1_000_002
    records = (make_withdrawal(base) for _ in range(n))
    out_flags = []
    last_us = None
    normalizer = Normalizer()
    for rec in map(normalizer.disambiguate, records):
        out_flags.append(FLAG_OVERFLOW_SECOND in rec.flags)
        last_us = rec.arrival_us
    assert out_flags[:1_000_000] == [False] * 1_000_000
    assert out_flags[1_000_000:] == [True, True]
    assert normalizer.flags[FLAG_OVERFLOW_SECOND] == 2
    assert last_us == base + n - 1  # spilled into the next second


def test_disambiguate_flags_a_reopened_second():
    s0, s1 = 1_600_000_000_000_000, 1_600_000_001_000_000
    records = [make_withdrawal(s0), make_withdrawal(s1), make_withdrawal(s0)]
    normalizer = Normalizer()
    out = list(map(normalizer.disambiguate, records))
    # the count of s0 restarts, so its stamp repeats: flagged, not hidden
    assert [r.arrival_us for r in out] == [s0, s1, s0]
    assert [FLAG_REOPENED_SECOND in r.flags for r in out] == [False, False, True]
    assert normalizer.flags[FLAG_REOPENED_SECOND] == 1


@settings(max_examples=100)
@given(
    st.lists(
        # (second offset, sub-second digits, native?)
        st.tuples(st.integers(0, 3), st.integers(0, 999_999), st.booleans()),
        max_size=40,
    ),
    st.booleans(),
)
def test_disambiguate_idempotent_and_order_preserving(items, in_order):
    if in_order:
        items = sorted(items, key=lambda item: item[0])
    base_s = 1_600_000_000
    records = [
        make_withdrawal(
            (base_s + off) * 1_000_000 + usec, prefix=f"10.{i}.0.0/16"
        )._replace(native_usec=nat)
        for i, (off, usec, nat) in enumerate(items)
    ]
    once = list(map(Normalizer().disambiguate, records))
    twice = list(map(Normalizer().disambiguate, once))
    assert [r.arrival_us for r in twice] == [r.arrival_us for r in once]
    assert [r.prefix for r in once] == [r.prefix for r in records]
    # bumps never cross into a different second for short runs
    for orig, out in zip(records, once):
        assert out.arrival_us // 1_000_000 == orig.arrival_us // 1_000_000
        if orig.native_usec:
            assert out is orig
    if in_order:
        # each second's non-native records are numbered 0, 1, 2, ... in input order
        seen = Counter()
        for orig, out in zip(records, once):
            if not orig.native_usec:
                second = orig.arrival_us // 1_000_000
                assert out.arrival_us == second * 1_000_000 + seen[second]
                seen[second] += 1


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
    out = list(normalize_stream(filter_allocated(records, table, stats)))
    assert len(out) == 2
    assert stats.dropped_asn == 1
    assert all(r.attrs.path == (6695, 3356) for r in out)
    assert [r.arrival_us for r in out] == [base, base + 1]


def test_normalize_stream_without_allocation():
    records = [_ann(20205, (20205, 3356))]
    out = list(normalize_stream(records))
    assert out[0].attrs.path == (20205, 3356)
    assert out[0].session == make_session(20205)
