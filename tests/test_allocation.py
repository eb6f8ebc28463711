"""Allocation table parsing and the unallocated-resource filter."""

from __future__ import annotations

import io
import ipaddress
import random
from datetime import datetime, timezone

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.allocation import (
    FLAG_TABLE_GAP,
    AllocationTable,
    FilterStats,
    filter_allocated,
    load_delegated,
)

from helpers import make_announcement, make_withdrawal

DELEGATED_SAMPLE = """\
2|ripencc|20200101|4|19840101|20200101|+00:00
ripencc|*|asn|*|1|summary
ripencc|FR|asn|64496|16|20050701|allocated|opaque1
ripencc|DE|ipv4|10.0.0.0|65536|20040101|allocated|opaque2
ripencc|DE|ipv4|192.0.2.0|256|20100115|assigned|opaque3
ripencc|NL|ipv4|198.51.100.0|256|20120301|reserved|opaque4
ripencc|SE|ipv6|2001:db8::|32|20080801|assigned|opaque5
# trailing comment line
"""

# arrival stamp inside table coverage (2015-06-01 UTC)
IN_RANGE_US = 1_433_116_800 * 1_000_000


def sample_table() -> AllocationTable:
    return load_delegated(io.StringIO(DELEGATED_SAMPLE))


def test_load_delegated_parses_rows():
    table = sample_table()
    day = 20150601
    assert table.asn_allocated(64496, day)
    assert table.asn_allocated(64511, day)  # last of the 16-AS block
    assert not table.asn_allocated(64512, day)
    assert table.prefix_allocated("10.0.0.0/16", day)
    assert table.prefix_allocated("10.0.128.0/24", day)  # inside the block
    assert not table.prefix_allocated("11.0.0.0/24", day)
    assert table.prefix_allocated("2001:db8::/48", day)
    # reserved rows are not usable
    assert not table.prefix_allocated("198.51.100.0/24", day)


def test_valid_from_dates_respected():
    table = sample_table()
    assert not table.prefix_allocated("192.0.2.0/24", 20100114)
    assert table.prefix_allocated("192.0.2.0/24", 20100115)
    assert table.earliest_date == 20040101


def test_prefix_needs_single_covering_block():
    table = AllocationTable()
    table.add_prefix("10.0.0.0/25", 20000101)
    table.add_prefix("10.0.0.128/25", 20000101)
    day = 20150601
    # both halves allocated but no single block covers the /24
    assert not table.prefix_allocated("10.0.0.0/24", day)
    assert table.prefix_allocated("10.0.0.0/25", day)
    table.add_prefix("10.0.0.0/24", 20000101)
    assert table.prefix_allocated("10.0.0.0/24", day)


def test_filter_drops_unallocated_prefix_and_asn():
    table = sample_table()
    stats = FilterStats()
    records = [
        make_announcement(IN_RANGE_US, prefix="10.0.0.0/24", path=(64496, 64497)),
        make_announcement(IN_RANGE_US, prefix="11.0.0.0/24", path=(64496,)),
        make_announcement(IN_RANGE_US, prefix="10.0.1.0/24", path=(64496, 65000)),
        make_withdrawal(IN_RANGE_US, prefix="10.0.2.0/24"),
        make_withdrawal(IN_RANGE_US, prefix="11.0.0.0/24"),
    ]
    kept = list(filter_allocated(records, table, stats))
    assert [r.prefix for r in kept] == ["10.0.0.0/24", "10.0.2.0/24"]
    assert stats.kept == 2
    assert stats.dropped_prefix == 2
    assert stats.dropped_asn == 1
    assert stats.table_gaps == 0


def test_filter_checks_as_set_members():
    table = sample_table()
    bad_set = make_announcement(
        IN_RANGE_US, prefix="10.0.0.0/24", path=(64496, (64497, 65000))
    )
    assert list(filter_allocated([bad_set], table)) == []


def test_records_before_coverage_flagged_not_dropped():
    table = sample_table()  # earliest_date 20040101
    old_us = 1_000_000_000 * 1_000_000  # 2001-09-09
    rec = make_announcement(old_us, prefix="203.0.113.0/24", path=(65000,))
    stats = FilterStats()
    kept = list(filter_allocated([rec], table, stats))
    assert len(kept) == 1
    assert FLAG_TABLE_GAP in kept[0].flags
    assert stats.table_gaps == 1


def test_known_composition_drop_rate():
    # 100 records with a planted composition: 83 clean, 17 bad.
    table = sample_table()
    rng = random.Random(20240817)
    records = []
    expected_kept = []
    bad_slots = set(rng.sample(range(100), 17))
    for i in range(100):
        if i in bad_slots:
            if i % 2:
                rec = make_announcement(
                    IN_RANGE_US + i, prefix="172.16.0.0/24", path=(64496,)
                )
            else:
                rec = make_announcement(
                    IN_RANGE_US + i, prefix="10.0.0.0/24", path=(64496, 65333)
                )
        else:
            rec = make_announcement(
                IN_RANGE_US + i, prefix="10.0.3.0/24", path=(64496, 64497)
            )
            expected_kept.append(rec)
        records.append(rec)
    stats = FilterStats()
    kept = list(filter_allocated(records, table, stats))
    assert kept == expected_kept
    assert stats.kept == 83
    assert stats.dropped == 17


@settings(max_examples=200)
@given(
    blocks=st.lists(
        st.tuples(st.integers(0, 2**20), st.integers(1, 4096)), min_size=1, max_size=20
    ),
    query=st.tuples(st.integers(0, 2**20 + 5000), st.integers(0, 64)),
)
def test_interval_cover_matches_linear_scan(blocks, query):
    table = AllocationTable()
    for start, count in blocks:
        table.asn_intervals.add(start, start + count - 1, 20000101)
    first, width = query
    last = first + width
    linear = any(s <= first and last <= s + c - 1 for s, c in blocks)
    assert table.asn_intervals.covers(first, last, 20150601) == linear


# --- the canonical-text and per-day shortcuts agree with ipaddress/datetime ---


def reference_prefix_allocated(table, prefix, date_key):
    net = ipaddress.ip_network(prefix)
    intervals = table.v4_intervals if net.version == 4 else table.v6_intervals
    return intervals.covers(
        int(net.network_address), int(net.broadcast_address), date_key
    )


def outcome(check, prefix, date_key):
    try:
        return check(prefix, date_key)
    except ValueError:
        return ValueError


@settings(max_examples=300)
@given(
    blocks=st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1), st.integers(8, 32), st.integers(2000, 2020)
        ),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_prefix_allocated_matches_ipaddress_at_block_edges(blocks, data):
    table = AllocationTable()
    edges, dates = [], []
    for start, bits, year in blocks:
        net = ipaddress.ip_network((start, bits), strict=False)
        table.add_prefix(net, year * 10000 + 101)
        edges += [int(net.network_address), int(net.broadcast_address)]
        dates += [year * 10000 + 101, (year - 1) * 10000 + 1231]
    address = (data.draw(st.sampled_from(edges)) + data.draw(st.integers(-1, 1))) % 2**32
    prefix = str(ipaddress.ip_network((address, data.draw(st.integers(0, 32))), strict=False))
    date_key = data.draw(st.sampled_from(dates))
    assert table.prefix_allocated(prefix, date_key) == reference_prefix_allocated(
        table, prefix, date_key
    )


@pytest.mark.parametrize(
    "prefix",
    [
        "10.0.0.0/16", "10.0.0.1/24", "010.0.0.0/8", "10.0.0.0/08", "10.0.0.0/33",
        "10.0.0/24", "10.0.0.0.0/24", "10.0.0.0", "10.0.0.0/", "/24", "",
        "10.0.0.0/+8", " 10.0.0.0/8", "10.0.0.0/255.255.0.0", "10.0.0.256/32",
        "\u0661\u0660.0.0.0/8", "2001:db8::/48", "2001:db8::1/48", "garbage",
    ],
)
def test_prefix_allocated_text_forms_match_ipaddress(prefix):
    table = sample_table()
    assert outcome(table.prefix_allocated, prefix, 20150601) == outcome(
        lambda p, d: reference_prefix_allocated(table, p, d), prefix, 20150601
    )


def test_prefix_allocated_rejects_malformed_text():
    table = sample_table()
    for prefix in ("10.0.0.1/24", "10.0.0.0/33", "garbage"):
        with pytest.raises(ValueError):
            table.prefix_allocated(prefix, 20150601)


def midnight_us(year, month, day):
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp()) * 1_000_000


# the table's first day, AS64496's and 192.0.2.0/24's valid-from days
BOUNDARIES = (midnight_us(2004, 1, 1), midnight_us(2005, 7, 1), midnight_us(2010, 1, 15))


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(BOUNDARIES),
            st.integers(-2 * 86_400_000_000, 2 * 86_400_000_000),
            st.sampled_from(("192.0.2.0/24", "10.0.0.0/24", "11.0.0.0/24")),
        ),
        max_size=12,
    )
)
def test_filter_dates_match_per_record_datetime(stamps):
    table = sample_table()
    records = [
        make_announcement(boundary + offset, prefix=prefix, path=(64496,))
        for boundary, offset, prefix in stamps
    ]
    expected = []
    for rec in records:
        dt = datetime.fromtimestamp(rec.arrival_us // 1_000_000, tz=timezone.utc)
        date_key = int(dt.strftime("%Y%m%d"))
        if not table.covers_date(date_key):
            expected.append((rec.arrival_us, rec.prefix, True))
        elif reference_prefix_allocated(
            table, rec.prefix, date_key
        ) and table.asn_allocated(64496, date_key):
            expected.append((rec.arrival_us, rec.prefix, False))
    kept = [
        (r.arrival_us, r.prefix, FLAG_TABLE_GAP in r.flags)
        for r in filter_allocated(records, table)
    ]
    assert kept == expected
