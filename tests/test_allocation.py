"""Allocation table parsing and the unallocated-resource filter."""

from __future__ import annotations

import io
import ipaddress
import random
import re
from datetime import datetime, timezone

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgpchurn.allocation import (
    FLAG_TABLE_GAP,
    AllocationTable,
    FilterStats,
    _IntervalSet,
    filter_allocated,
    load_delegated,
)
from bgpchurn.errors import BgpChurnError

from bgpchurn.model import expand_message

from helpers import (
    make_announcement,
    make_withdrawal,
    reference_load_delegated,
    update_entry,
)

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

ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

# arrival stamp inside table coverage (2015-06-01 UTC)
IN_RANGE_US = 1_433_116_800 * 1_000_000


def sample_table() -> AllocationTable:
    return load_delegated(io.StringIO(DELEGATED_SAMPLE))


def delegated(rows) -> AllocationTable:
    """The table of allocated (type, start, value, date) rows."""
    return load_delegated(
        f"ripencc|ZZ|{rtype}|{start}|{value}|{date}|allocated"
        for rtype, start, value, date in rows
    )


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


def test_earliest_date_skips_undated_and_dropped_rows():
    table = delegated([
        ("asn", 64496, 1, ""),  # no date: valid from the start, no coverage date
        ("ipv4", "10.0.0.256", 256, 19990101),  # a bad row is dropped
        ("ipv6", "2001:db8::1", 32, 19990101),  # host bits set: dropped too
        ("ipv4", "10.0.0.0", 256, 20040101),
    ])
    assert table.earliest_date == 20040101
    assert table.asn_allocated(64496, 19840101)
    assert not table.prefix_allocated("2001:db8::/32", 20150601)


def test_empty_row_sets_no_coverage_date():
    table = load_delegated([
        "ripencc|ZZ|ipv4|10.0.0.0|0|19000101|allocated",
        "ripencc|ZZ|ipv4|192.0.2.0|256|20100115|allocated",
    ])
    assert table.earliest_date == 20100115
    assert not table.covers_date(19500101)


# the last is 19000101 in Arabic-Indic digits, which isdigit() and int() take
@pytest.mark.parametrize(
    "date", ["2010-01-01", "2010101", "201001011", " ", "19000101".translate(ARABIC_INDIC)]
)
def test_a_row_with_a_bad_date_is_skipped(date):
    table = load_delegated([
        f"ripencc|ZZ|ipv4|10.0.0.0|256|{date}|allocated",
        "ripencc|ZZ|ipv4|192.0.2.0|256|20100115|allocated",
    ])
    assert table.v4_intervals.starts == [0xC0000200]
    assert not table.prefix_allocated("10.0.0.0/24", 19500101)
    assert table.earliest_date == 20100115


@pytest.mark.parametrize("value", ["+32", " 8", "1_0", "-1", "\u0661"])
def test_counts_and_asn_starts_are_ascii_decimal(value):
    table = load_delegated([
        f"ripencc|ZZ|asn|64496|{value}|20050701|allocated",
        f"ripencc|ZZ|asn|{value}|1|20050701|allocated",
        f"ripencc|ZZ|ipv4|10.0.0.0|{value}|20040101|allocated",
    ])
    assert table.asn_intervals.starts == table.v4_intervals.starts == []
    assert table.earliest_date == 0


def test_prefix_needs_single_covering_block():
    halves = [("ipv4", "10.0.0.0", 128, 20000101), ("ipv4", "10.0.0.128", 128, 20000101)]
    table = delegated(halves)
    day = 20150601
    # both halves allocated but no single block covers the /24
    assert not table.prefix_allocated("10.0.0.0/24", day)
    assert table.prefix_allocated("10.0.0.0/25", day)
    table = delegated(halves + [("ipv4", "10.0.0.0", 256, 20000101)])
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


@pytest.mark.parametrize("path", [(64496, 64497), (64496, 65000)])
def test_filter_judges_a_message_path_once(path):
    table = sample_table()
    checked = []
    allocated = table.asn_allocated
    table.asn_allocated = lambda asn, day: checked.append(asn) or allocated(asn, day)
    entry = update_entry(
        IN_RANGE_US // 1_000_000,
        peer_asn=64496,
        announced=("10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"),
        path=path,
    )
    records = expand_message(entry, "c")
    stats = FilterStats()
    kept = list(filter_allocated(records, table, stats))
    assert checked == list(path)  # three records share one attributes object

    # equal attributes in separate objects: each ASN is still looked up once
    checked.clear()
    apart = [rec._replace(attrs=rec.attrs._replace()) for rec in records]
    apart_stats = FilterStats()
    assert list(filter_allocated(apart, table, apart_stats)) == kept
    assert checked == list(path)
    assert apart_stats == stats
    assert stats.dropped_asn == (0 if 65000 not in path else 3)


# 2015-06-01 and 2015-06-02 UTC, an hour before and after midnight
DAY1_US = IN_RANGE_US + 23 * 3_600_000_000
DAY2_US = IN_RANGE_US + 25 * 3_600_000_000


def reference_filter(records, table):
    """filter_allocated without memos: every ASN of every path, every record."""
    stats, kept = FilterStats(), []
    for rec in records:
        day = int(datetime.fromtimestamp(
            rec.arrival_us // 1_000_000, tz=timezone.utc
        ).strftime("%Y%m%d"))
        if not table.covers_date(day):
            stats.table_gaps += 1
            stats.kept += 1
            kept.append(rec.with_flag(FLAG_TABLE_GAP))
        elif not table.prefix_allocated(rec.prefix, day):
            stats.dropped_prefix += 1
        elif rec.attrs is not None and not all(
            table.asn_allocated(asn, day)
            for el in rec.attrs.path
            for asn in (el if isinstance(el, tuple) else (el,))
        ):
            stats.dropped_asn += 1
        else:
            stats.kept += 1
            kept.append(rec)
    return kept, stats


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([DAY1_US, DAY2_US]),
            st.lists(
                st.sampled_from([64496, 64500, 65000, 65001, (64496, 65001)]),
                max_size=4,
            ),
            st.booleans(),
        ),
        max_size=12,
    )
)
def test_asn_memo_matches_direct_lookups(rows):
    # AS65001 becomes valid on the second day; AS65000 never does
    table = load_delegated(io.StringIO(
        DELEGATED_SAMPLE + "ripencc|NL|asn|65001|1|20150602|allocated|opaque6\n"
    ))
    assert not table.asn_allocated(65001, 20150601)
    assert table.asn_allocated(65001, 20150602)
    records, attrs = [], None
    for arrival, path, shared in rows:
        rec = make_announcement(arrival, path=path)
        if shared and attrs is not None:  # one attributes object, as in a message
            rec = rec._replace(attrs=attrs)
        attrs = rec.attrs
        records.append(rec)
    for ordered in (records, records[::-1]):
        stats = FilterStats()
        kept = list(filter_allocated(ordered, table, stats))
        assert (kept, stats) == reference_filter(ordered, table)


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
    table = delegated(("asn", start, count, 20000101) for start, count in blocks)
    first, width = query
    last = first + width
    linear = any(s <= first and last <= s + c - 1 for s, c in blocks)
    assert table.asn_intervals.covers(first, last, 20150601) == linear


DATES = ("", "19991231", "20000101", "20100101", "20150601")


@st.composite
def dated_blocks(draw):
    """(start, count, date) ASN rows, some nested in or overlapping others."""
    blocks = []
    for _ in range(draw(st.integers(1, 20))):
        if blocks and draw(st.booleans()):
            start, count, _ = draw(st.sampled_from(blocks))
            inner = draw(st.integers(0, count - 1))
            start += inner
            count = draw(st.integers(1, count - inner + 8))  # inside, or past the end
        else:
            start, count = draw(st.integers(0, 2**12)), draw(st.integers(1, 2**10))
        blocks.append((start, count, draw(st.sampled_from(DATES))))
    return blocks


@settings(max_examples=300)
@given(
    blocks=dated_blocks(),
    queries=st.lists(
        st.tuples(
            st.integers(0, 2**12 + 2**10),
            st.integers(0, 64),
            st.sampled_from([int(d) for d in DATES if d]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_dated_cover_matches_linear_scan(blocks, queries):
    """Each row has its own valid-from date, and the queries interleave
    dates, so the per-date reach arrays are built, kept and dropped."""
    table = delegated(("asn", start, count, date) for start, count, date in blocks)
    for first, width, date_key in queries:
        last = first + width
        linear = any(
            s <= first and last <= s + c - 1 and int(d or 0) <= date_key
            for s, c, d in blocks
        )
        assert table.asn_intervals.covers(first, last, date_key) == linear


def counted_intervals(monkeypatch, rows):
    """An _IntervalSet over ``rows`` and the lists of its reach builds
    (dates) and reach reads (indices)."""
    intervals = _IntervalSet(rows)
    builds, reads = [], []

    class CountedReads(list):
        def __getitem__(self, index):
            reads.append(index)
            return list.__getitem__(self, index)

    build = intervals._build_reach
    monkeypatch.setattr(
        intervals, "_build_reach", lambda d: builds.append(d) or CountedReads(build(d))
    )
    return intervals, builds, reads


def test_worst_case_lookup_reads_one_reach_entry(monkeypatch):
    """One wide row valid since 2000 over 200,000 narrower rows that only
    become valid in 2030: each lookup reads one reach entry, and dates
    queried in order build one array each."""
    rows = [(0, 10**9, 20000101)]
    rows += [(10 * i + 1, 10 * i + 5, 20300101) for i in range(200_000)]
    intervals, builds, reads = counted_intervals(monkeypatch, rows)
    lookups = 0
    for date_key in (20150601, 20150602):
        for i in range(0, 200_000, 10_000):
            assert intervals.covers(10 * i + 2, 10 * i + 4, date_key)  # the wide row
            assert not intervals.covers(10 * i + 2, 10**9 + 1, date_key)
            lookups += 2
    assert builds == [20150601, 20150602]
    assert len(reads) == lookups
    assert intervals.covers(10 * 199_999 + 2, 10 * 199_999 + 4, 20300101)
    assert builds == [20150601, 20150602, 20300101]


def test_each_date_change_builds_one_reach_array(monkeypatch):
    """Only the last date's array is kept: queries that interleave three
    dates pay one O(n) build at every change of date, none on a repeat."""
    rows = [(10 * i, 10 * i + 5, 20150601 + i % 3) for i in range(1_000)]
    intervals, builds, _ = counted_intervals(monkeypatch, rows)
    dates = [20150601, 20150602, 20150602, 20150603, 20150601, 20150603, 20150603]
    for date_key in dates:
        intervals.covers(0, 5, date_key)
    assert builds == [20150601, 20150602, 20150603, 20150601, 20150603]


# --- the fast loader keeps, skips and converts every row as ipaddress does ---

@st.composite
def ipv4_texts(draw):
    octets = draw(st.lists(st.integers(0, 255), min_size=4, max_size=4))
    canonical = ".".join(map(str, octets))
    form = draw(st.sampled_from(
        ("canonical", "canonical", "zeros", "three", "arabic", "padded", "junk")
    ))
    if form == "zeros":
        at = draw(st.integers(0, 3))
        octets = [f"0{o}" if i == at else str(o) for i, o in enumerate(octets)]
        return ".".join(octets)
    if form == "three":
        return ".".join(map(str, octets[:3]))
    if form == "arabic":
        return canonical.translate(ARABIC_INDIC)
    if form == "padded":
        return draw(st.sampled_from((f" {canonical}", f"{canonical} ", f" {canonical} ")))
    if form == "junk":
        return draw(st.text(alphabet="0123456789.:x/ ", max_size=12))
    return canonical


@st.composite
def ipv6_rows(draw):
    """(start, value) of an ipv6 row, in the text forms registries and typos give."""
    length = draw(st.integers(0, 128))
    value = draw(st.integers(0, 2**128 - 1))
    for group in draw(st.lists(st.integers(0, 7), max_size=8)):  # zero runs for "::"
        value &= ~(0xFFFF << 16 * group)
    if not draw(st.booleans()):  # host bits set stays possible
        value &= ~((1 << (128 - length)) - 1)
    address = ipaddress.IPv6Address(value)
    form = draw(st.sampled_from(
        ("compressed", "compressed", "upper", "exploded", "mapped", "scope", "odd",
         "ipv4", "junk")
    ))
    groups = address.exploded.split(":")
    at = draw(st.integers(0, 7))
    odd = draw(st.sampled_from(("0x{}", "+{}", " {}", "{}_0", "{}\u0660")))
    groups[at] = odd.format(groups[at].lstrip("0")[:2] or "0")  # int(..., 16) takes it
    start = {
        "odd": ":".join(groups),
        "compressed": str(address),
        "upper": str(address).upper(),
        "exploded": address.exploded,
        "mapped": f"::ffff:{ipaddress.IPv4Address(value & 0xFFFFFFFF)}",
        "scope": f"{address}%eth0",
        "ipv4": str(ipaddress.IPv4Address(value >> 96)),  # an IPv4 network when length <= 32
        "junk": draw(st.text(alphabet="0123456789abcdefABX:.%/ ", max_size=16)),
    }[form]
    lengths = (str(length),) * 3 + (f"0{length}", f"+{length}", "129", "", f"{length} ")
    return start, draw(st.sampled_from(lengths))


COUNTS = ("256", "1", "0", "-1", "abc", "1_0", "+32", "032", "", " 8", "65536")


@st.composite
def delegated_lines(draw):
    kind = draw(st.sampled_from(("asn", "ipv4", "ipv6", "ipv6", "other")))
    if kind == "other":
        return draw(st.sampled_from((
            "", "# a comment", "ripencc|*|asn|*|1|summary", "ripencc|*|ipv4|*|2",
            "2|ripencc|20200101|4|19840101|20200101|+00:00",
            "ripencc|ZZ|ipv5|10.0.0.0|256|20100101|allocated",
        )))
    if kind == "asn":
        n = draw(st.integers(0, 2**32))
        start = draw(st.sampled_from(
            (str(n), f"+{n}", f" {n}", "-1", "x", str(n).translate(ARABIC_INDIC))
        ))
        value = draw(st.sampled_from(COUNTS))
    elif kind == "ipv4":
        start, value = draw(ipv4_texts()), draw(st.sampled_from(COUNTS))
    else:
        start, value = draw(ipv6_rows())
    date = draw(st.sampled_from(
        DATES + ("2010-01-01", "00000000", "2010101", "19000101".translate(ARABIC_INDIC))
    ))
    status = draw(st.sampled_from(("allocated", "assigned", "available", "reserved")))
    line = f"ripencc|ZZ|{kind}|{start}|{value}|{date}|{status}"
    return line + draw(st.sampled_from(("", "|opaque", "\n", "  ")))


@settings(max_examples=400)
@given(st.lists(delegated_lines(), max_size=25))
@example(["ripencc|ZZ|ipv6|10.0.0.0|8|20100101|allocated"])  # an IPv4 network, no IPv6 row
def test_loader_matches_reference_loader(lines):
    table = load_delegated(lines)
    rows, earliest = reference_load_delegated(lines)
    for intervals, rtype in (
        (table.asn_intervals, "asn"),
        (table.v4_intervals, "ipv4"),
        (table.v6_intervals, "ipv6"),
    ):
        found = list(zip(intervals.starts, intervals.ends, intervals.valid_from))
        assert found == rows[rtype]
    assert table.earliest_date == earliest


# --- the canonical-text and per-day shortcuts agree with ipaddress/datetime ---


def reference_prefix_allocated(table, prefix, date_key):
    net = ipaddress.ip_network(prefix)
    intervals = table.v4_intervals if net.version == 4 else table.v6_intervals
    return intervals.covers(
        int(net.network_address), int(net.broadcast_address), date_key
    )


def outcome(check, prefix, date_key, rejection):
    """The answer, or "rejected" when ``check`` raises ``rejection``."""
    try:
        return check(prefix, date_key)
    except rejection:
        return "rejected"


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
    rows, edges, dates = [], [], []
    for start, bits, year in blocks:
        net = ipaddress.ip_network((start, bits), strict=False)
        rows.append(("ipv4", net.network_address, net.num_addresses, year * 10000 + 101))
        edges += [int(net.network_address), int(net.broadcast_address)]
        dates += [year * 10000 + 101, (year - 1) * 10000 + 1231]
    table = delegated(rows)
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
        "2001:DB8::/48", "2001:0db8:0000:0000:0000:0000:0000:0000/48", "2001:db8::/048",
        "::ffff:10.0.0.0/104", "2001:db8::%eth0/48", "2001:db8::/129", "2001:db8::/+48",
        "1:2:3:4::5:6:7:8/128", "2001::db8::/48", ":2001:db8::/48", "12345::/16",
        "0x20::/16", "::/0", "::/128",
    ],
)
def test_prefix_allocated_text_forms_match_ipaddress(prefix):
    table = sample_table()
    assert outcome(table.prefix_allocated, prefix, 20150601, BgpChurnError) == outcome(
        lambda p, d: reference_prefix_allocated(table, p, d), prefix, 20150601, ValueError
    )


@settings(max_examples=300)
@given(
    st.one_of(
        ipv6_rows(),
        st.tuples(  # inside or at the edge of the sample table's 2001:db8::/32
            st.sampled_from(
                ("2001:db8::", "2001:db8:ffff::", "2001:DB8::", "2001:0db8::",
                 "2001:db9::")
            ),
            st.sampled_from(("31", "32", "48", "128", "048")),
        ),
    ),
    st.sampled_from((20150601, 20080731, 20080801)),
)
def test_prefix_allocated_v6_text_matches_ipaddress(row, date_key):
    start, length = row
    prefix = f"{start}/{length}"
    table = sample_table()  # 2001:db8::/32 from 2008-08-01
    assert outcome(table.prefix_allocated, prefix, date_key, BgpChurnError) == outcome(
        lambda p, d: reference_prefix_allocated(table, p, d), prefix, date_key, ValueError
    )


def test_prefix_allocated_rejects_malformed_text():
    table = sample_table()
    for prefix in ("10.0.0.1/24", "10.0.0.0/33", "garbage", "2001:db8::1/48"):
        with pytest.raises(BgpChurnError, match=re.escape(repr(prefix))):
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
