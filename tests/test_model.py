"""Record model: message fan-out and JSONL serialization."""

from __future__ import annotations

import ipaddress
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.model import (
    SessionKey,
    UpdateRecord,
    expand_message,
    expand_stream,
    labeled_lines,
    read_records_jsonl,
    record_from_dict,
    record_to_dict,
)
from bgpchurn.classify import AnnouncementType
from bgpchurn.errors import BgpChurnError
from bgpchurn.mrt.bgp import (
    ATTR_MP_REACH_NLRI,
    BgpAttributes,
    FLAG_OPTIONAL,
    attr_as_path,
    attr_communities,
    attr_med,
    attr_next_hop,
    attr_origin,
    encode_prefixes,
    path_segments,
    wire_attribute,
)
from bgpchurn.mrt.build import build_update_record

from helpers import (
    attr_mp_reach,
    make_announcement,
    make_withdrawal,
    reference_record_from_dict,
    update_entry,
)


def test_expand_multi_prefix_announcement():
    entry = update_entry(announced=("10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"))
    records = expand_message(entry, "rrc00", "f", 7)
    assert len(records) == 3
    assert all(r.attrs is not None for r in records)
    assert [r.prefix for r in records] == ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"]
    assert len({r.attrs for r in records}) == 1  # shared attribute set
    assert {r.source_message_index for r in records} == {7}
    assert records[0].session == SessionKey("rrc00", 65001, "10.0.0.1")


def test_expand_withdrawals_without_attrs():
    entry = update_entry(announced=(), withdrawn=("10.0.0.0/24", "10.1.0.0/16"))
    records = expand_message(entry, "rrc00")
    assert [r.attrs for r in records] == [None, None]


def test_expand_order_withdrawals_then_announcements():
    entry = update_entry(announced=("10.2.0.0/24",), withdrawn=("10.1.0.0/24",))
    withdrawn = [r.attrs is None for r in expand_message(entry, "c")]
    assert withdrawn == [True, False]


def test_expand_end_of_rib_empty():
    entry = build_update_record(
        timestamp=1, peer_asn=65001, peer_address="10.0.0.1",
        local_asn=64512, local_address="10.0.0.2",
    )
    assert expand_message(entry, "c") == []


def test_fanout_conservation():
    entries = [
        update_entry(announced=("10.0.0.0/24", "10.0.1.0/24")),
        update_entry(announced=(), withdrawn=("10.0.0.0/24",)),
        update_entry(announced=("10.0.2.0/24",), withdrawn=("10.0.1.0/24",)),
    ]
    expected = sum(
        len(e.message.announced_prefixes) + len(e.message.withdrawn_prefixes)
        for e in entries
    )
    assert len(list(expand_stream(entries, "c"))) == expected


def test_copies_of_a_record_are_records():
    withdrawal = make_withdrawal(1)
    assert UpdateRecord._make(withdrawal) == withdrawal
    assert type(withdrawal._replace(arrival_us=2)) is UpdateRecord


def write_jsonl(path, records):
    rows = (json.dumps(record_to_dict(r), separators=(",", ":")) for r in records)
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    return path


def test_jsonl_round_trip(tmp_path):
    records = [
        make_announcement(
            1_600_000_000_000_001,
            path=(65001, (65002, 65003), 65004),
            communities=((65001 << 16) | 100, (65002 << 16) | 7),
        ),
        make_withdrawal(1_600_000_000_000_002),
        make_announcement(1_600_000_000_000_003).with_flag("table_gap"),
    ]
    back = list(read_records_jsonl(write_jsonl(tmp_path / "r.jsonl", records)))
    assert len(back) == 3
    for orig, rt in zip(records, back):
        assert rt.arrival_us == orig.arrival_us
        assert rt.session == orig.session
        assert rt.prefix == orig.prefix
        assert (rt.attrs is None) == (orig.attrs is None)
        assert rt.flags == orig.flags
        assert rt.attrs == orig.attrs


def test_jsonl_files(tmp_path):
    records = [make_announcement(10), make_withdrawal(20)]
    back = list(read_records_jsonl(write_jsonl(tmp_path / "r.jsonl", records)))
    assert [r.attrs is None for r in back] == [False, True]


def test_jsonl_as_set_reads_back_sorted(tmp_path):
    line = (
        '{"arrival_us":1,"collector":"c","peer_asn":65001,'
        '"peer_address":"10.0.0.1","prefix":"10.0.0.0/24",'
        '"kind":"announcement","as_path":[65001,[65030,65010,65020],65040],'
        '"communities":["65001:100"],"next_hop":null,"med":null}\n'
    )
    path = tmp_path / "records.jsonl"
    path.write_text(line)
    (rec,) = read_records_jsonl(path)
    assert rec.attrs.path == (65001, (65010, 65020, 65030), 65040)
    as_path = record_to_dict(rec)["as_path"]
    assert as_path == [65001, [65010, 65020, 65030], 65040]


_KEY = {"arrival_us": 1, "collector": "c", "peer_asn": 65001,
        "peer_address": "10.0.0.1", "prefix": "10.0.0.0/24"}
_DEFAULTS = {"source_message_index": 0, "source_file": "", "native_usec": False, "flags": []}


@pytest.mark.parametrize(
    "fields,attrs,written",
    [
        (
            {"kind": "announcement"},
            BgpAttributes(),
            {"kind": "announcement", "as_path": [], "communities": [],
             "next_hop": None, "med": None},
        ),
        (  # a withdrawal's attribute keys are not read
            {"kind": "withdrawal", "as_path": [65001], "communities": ["65001:100"]},
            None,
            {"kind": "withdrawal"},
        ),
    ],
    ids=["announcement-without-attributes", "withdrawal-with-attributes"],
)
def test_jsonl_kind_survives_the_round_trip(fields, attrs, written):
    rec = record_from_dict(json.loads(json.dumps({**_KEY, **fields})))
    assert rec.attrs == attrs
    row = {**_KEY, **_DEFAULTS, **written}
    assert record_to_dict(rec) == row
    (line,) = labeled_lines([(rec, "initial", False)])
    assert json.loads(line) == {**row, "label": "initial", "after_withdrawal": False}


@settings(max_examples=100)
@given(
    arrival=st.integers(0, 2**60),
    peer=st.integers(1, 2**32 - 1),
    med=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    flags=st.lists(st.sampled_from(["table_gap", "out_of_order"]), max_size=2, unique=True),
)
def test_record_dict_round_trip_property(arrival, peer, med, flags):
    rec = UpdateRecord(
        arrival_us=arrival,
        session=SessionKey("c", peer, "10.0.0.9"),
        prefix="192.0.2.0/24",
        attrs=make_announcement(1, med=med).attrs,
        flags=tuple(flags),
    )
    back = record_from_dict(record_to_dict(rec))
    assert back.arrival_us == rec.arrival_us
    assert back.session == rec.session
    assert back.flags == rec.flags
    assert back.attrs.med == rec.attrs.med
    assert back.attrs.path == rec.attrs.path


_ASN = st.integers(0, 2**32 - 1)


def _prefixes(version, min_size=0):
    bits = 32 if version == 4 else 128
    return st.lists(
        st.builds(
            lambda addr, length: str(ipaddress.ip_network((addr, length), strict=False)),
            st.ip_addresses(v=version),
            st.integers(0, bits),
        ),
        min_size=min_size,
        max_size=3,
    )


@st.composite
def expanded_updates(draw):
    """Records expand_message makes of one generated UPDATE, and its next hop."""
    form = draw(st.sampled_from(("next_hop", "mp16", "mp32", "none")))
    as_set = st.lists(_ASN, min_size=1, max_size=3)
    path = draw(st.lists(st.one_of(_ASN, as_set), max_size=5))
    attrs = [attr_origin(), attr_as_path(path_segments(path), 4)]
    communities = draw(st.lists(_ASN, max_size=4))
    if communities:
        attrs.append(attr_communities(communities))
    med = draw(st.one_of(st.none(), _ASN))
    if med is not None:
        attrs.append(attr_med(med))
    v4 = draw(_prefixes(4, min_size=1 if form in ("next_hop", "none") else 0))
    next_hop = None
    if form == "next_hop":
        next_hop = draw(st.ip_addresses(v=4))
        attrs.append(attr_next_hop(str(next_hop)))
    elif form == "mp16":
        next_hop = draw(st.ip_addresses(v=6))
        attrs.append(attr_mp_reach(draw(_prefixes(6, min_size=1)), next_hop))
    elif form == "mp32":
        next_hop, link_local = draw(st.ip_addresses(v=6)), draw(st.ip_addresses(v=6))
        payload = (
            struct.pack("!HBB", 2, 1, 32) + next_hop.packed + link_local.packed
            + b"\x00" + encode_prefixes(draw(_prefixes(6, min_size=1)))
        )
        attrs.append(wire_attribute(FLAG_OPTIONAL, ATTR_MP_REACH_NLRI, payload))
    peer, local = draw(
        st.sampled_from((("10.0.0.1", "10.0.0.2"), ("2001:db8::1", "2001:db8::2")))
    )
    entry = build_update_record(
        timestamp=draw(st.integers(0, 2**32 - 1)),
        peer_asn=draw(_ASN),
        peer_address=peer,
        local_asn=64512,
        local_address=local,
        withdrawn=draw(_prefixes(4)),
        attributes=attrs,
        announced=v4,
        microsecond=draw(st.one_of(st.none(), st.integers(0, 999_999))),
        as4=True,
    )
    index = draw(st.integers(0, 10**6))
    records = expand_message(entry, "rrc00", "updates.mrt", index)
    return records, None if next_hop is None else str(next_hop)


@settings(max_examples=200, deadline=None)
@given(expanded_updates())
def test_jsonl_round_trip_is_identity(case):
    records, next_hop = case
    assert any(rec.attrs is not None for rec in records)
    for rec in records:
        if rec.attrs is not None:
            assert rec.attrs.next_hop == next_hop
        assert record_from_dict(json.loads(json.dumps(record_to_dict(rec)))) == rec


# non-ASCII, quotes, backslashes and control characters escape as json.dumps does
_TEXT = st.text(st.one_of(st.sampled_from('a/"\\\n\x00\u00e9\u2603\U0001f600'),
                          st.characters()), max_size=6)
_FLAGS = ["repaired_path", "anomalous_empty_path", "out_of_order", "med_changed"]


@st.composite
def _attributes(draw):
    as_set = st.lists(_ASN, min_size=1, max_size=3).map(lambda s: tuple(sorted(s)))
    edge_asn = st.sampled_from([0, 2**32 - 1])  # the largest 4-byte ASN
    next_hop = st.one_of(
        st.none(), st.ip_addresses().map(str), st.just("2001:db8::1")
    )
    return BgpAttributes(
        tuple(draw(st.lists(st.one_of(_ASN, edge_asn, as_set), max_size=4))),
        tuple(draw(st.lists(_ASN, max_size=3))),
        draw(next_hop),
        draw(st.one_of(st.none(), _ASN)),
    )


@st.composite
def labeled_runs(draw):
    """(record, label, after_withdrawal) triples whose consecutive records
    share session and attributes objects, hold equal copies or differ."""
    out, session, attrs = [], None, None
    for _ in range(draw(st.integers(1, 8))):
        reuse = st.sampled_from(["same", "equal", "new"])
        session_reuse = draw(reuse) if session else "new"
        if session_reuse == "new":
            peer_asn = draw(st.one_of(st.sampled_from([65001, 2**32 - 1]), _ASN))
            session = SessionKey(draw(_TEXT), peer_asn, draw(_TEXT))
        elif session_reuse == "equal":
            session = session._replace()
        withdrawal = draw(st.sampled_from([False, False, True]))
        attrs_reuse = draw(reuse) if attrs else "new"
        if attrs_reuse == "new":
            attrs = draw(_attributes())
        elif attrs_reuse == "equal":  # a route-server repaired copy
            attrs = attrs._replace()
        rec = UpdateRecord(
            draw(st.integers(0, 2**63)),
            session,
            draw(_TEXT),
            None if withdrawal else attrs,
            draw(st.integers(0, 2**32)),
            draw(_TEXT),
            draw(st.booleans()),
            tuple(draw(st.lists(st.sampled_from(_FLAGS), max_size=2, unique=True))),
        )
        out.append((rec, draw(st.sampled_from(list(AnnouncementType))), draw(st.booleans())))
    return out


@settings(max_examples=300, deadline=None)
@given(labeled_runs())
def test_labeled_lines_match_json_dumps(labeled):
    expected = [
        json.dumps(
            {**record_to_dict(rec), "label": label.value, "after_withdrawal": after},
            separators=(",", ":"),
        )
        + "\n"
        for rec, label, after in labeled
    ]
    assert list(labeled_lines(labeled)) == expected


@pytest.mark.parametrize(
    "value",
    [
        "192.0.2.1",
        "0.0.0.0",
        "2001:0DB8:0:0::1",
        "::ffff:192.0.2.1",
        3_221_225_985,
        "192.0.2.01",
        "192.0.2.1/32",
        " 192.0.2.1",
        "2001:db8::g",
    ],
)
def test_jsonl_next_hop_read_as_ipaddress_text(value):
    # a string only: ipaddress would also read the int as 192.0.2.1
    row = record_to_dict(make_announcement(1))
    row["next_hop"] = value
    try:
        expected = str(ipaddress.ip_address(_exact(value, str)))
    except ValueError:
        with pytest.raises(ValueError):
            record_from_dict(row)
    else:
        assert record_from_dict(row).attrs.next_hop == expected


# record_from_dict memoizes the next-hop, community and session checks;
# the reference reader in helpers makes them directly.
_ADDRESSES = st.sampled_from(
    ["192.0.2.1", "2001:0DB8::1", "::ffff:192.0.2.1", "192.0.2.01", "10.0.0.256",
     "192.0.2.1/32", " 192.0.2.1", "2001:db8::g", ""]
)
_COMMUNITY_TEXT = st.sampled_from(
    ["65001:100", "0:0", "65535:65535", "65536:0", "1:2:3", "x", ":5", "\u0661:1"]
)
_NUMBERS = st.one_of(
    st.integers(-1, 2**32 + 1), st.floats(allow_nan=False), st.booleans()
)
_FIELD_VALUES = {
    "next_hop": st.one_of(_ADDRESSES, _NUMBERS, st.none()),
    "communities": st.lists(st.one_of(_COMMUNITY_TEXT, _NUMBERS), max_size=3),
    "peer_asn": st.one_of(
        _NUMBERS, st.sampled_from(["65001", "x"]), st.lists(st.integers(), max_size=1)
    ),
    "collector": st.one_of(st.sampled_from(["rrc00", "rrc01", ""]), _NUMBERS),
}


def _typed(value):
    """Compares 1, 1.0 and True as different values."""
    if isinstance(value, (tuple, list)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


def _exact(value, kind):
    if type(value) is not kind:
        raise ValueError(f"not {kind.__name__}: {value!r}")
    return value


def _outcome(read, row):
    """(typed record, None), or (exception type, message) when ``read`` fails."""
    try:
        return _typed(read(row)), None
    except Exception as exc:  # noqa: BLE001 - compared with the reference's
        return type(exc), str(exc)


@st.composite
def repeated_rows(draw):
    """Rows over a small pool of field values, each read twice, so memos hit."""
    pools = {
        name: draw(st.lists(values, min_size=1, max_size=3))
        for name, values in _FIELD_VALUES.items()
    }
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = record_to_dict(make_announcement(1))
        for name, pool in pools.items():
            row[name] = draw(st.sampled_from(pool))
        rows.append(row)
    return rows + rows


@settings(max_examples=300, deadline=None)
@given(repeated_rows())
def test_memoized_record_from_dict_matches_direct_checks(rows):
    for row in rows:
        assert _outcome(record_from_dict, row) == _outcome(reference_record_from_dict, row)


# Rows for the differential test: a valid row with some fields dropped,
# retyped or set to bad text.  Out-of-range numbers sit at each bound.
_BAD_TEXT = st.sampled_from(
    ["", "x", "192.0.2.01", "10.0.0.256", "2001:DB8::1", "65536:0", "1:2:3",
     "\u0661:1", "announcement", "withdrawal", "banana", "65001"]
)
_INTS = st.one_of(
    st.sampled_from([-1, 0, 2**32 - 1, 2**32, -(2**63), 2**64]), st.integers()
)
_SCALARS = st.one_of(
    _INTS, st.floats(), st.booleans(), _BAD_TEXT, st.text(max_size=4), st.none()
)
_VALUES = st.one_of(
    _SCALARS, st.lists(st.one_of(_SCALARS, st.lists(_INTS, max_size=3)), max_size=3)
)
_DROPPED = object()
_FIELDS = [
    "arrival_us", "collector", "peer_asn", "peer_address", "prefix", "kind",
    "source_message_index", "source_file", "native_usec", "flags", "as_path",
    "communities", "next_hop", "med",
]


@st.composite
def mutated_rows(draw):
    rec = draw(st.sampled_from([
        make_announcement(
            1_600_000_000_000_001, path=(65001, (65003, 65002)),
            communities=((65001 << 16) | 100,), med=5,
        ),
        make_announcement(7, next_hop="2001:db8::1"),
        make_withdrawal(0),
    ]))
    row = record_to_dict(rec)
    changes = draw(st.dictionaries(
        st.sampled_from(_FIELDS), st.one_of(st.just(_DROPPED), _VALUES), max_size=6
    ))
    for name, value in changes.items():
        if value is _DROPPED:
            row.pop(name, None)
        else:
            row[name] = value
    return row


@settings(max_examples=500, deadline=None)
@given(st.lists(mutated_rows(), min_size=1, max_size=4))
def test_record_from_dict_matches_the_reference_reader(rows):
    for row in rows + rows:  # read twice, so the memos hit
        assert _outcome(record_from_dict, row) == _outcome(reference_record_from_dict, row)


# one bad value per check, in the order record_from_dict makes them
_CHECK_ORDER = [
    ("kind", "announce"),
    ("med", -3),
    ("communities", "65001:100"),
    ("as_path", ["x"]),
    ("communities", ["x"]),
    ("next_hop", "10.0.0.01"),
    ("flags", "x"),
    ("arrival_us", -5),
    ("collector", 1),
    ("peer_asn", -7),
    ("peer_address", "10.0.0.01"),
    ("prefix", 1),
    ("source_message_index", -1),
    ("source_file", 1),
    ("native_usec", 1),
]


def test_a_row_fails_on_its_first_bad_field():
    def row_with(*bad):
        row = record_to_dict(make_announcement(1))
        row.update(bad)
        return row

    for i, first in enumerate(_CHECK_ORDER):
        alone = _outcome(record_from_dict, row_with(first))
        assert alone[1] is not None
        assert alone == _outcome(reference_record_from_dict, row_with(first))
        for later in _CHECK_ORDER[i + 1:]:
            if later[0] != first[0]:
                assert _outcome(record_from_dict, row_with(first, later)) == alone, later


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("arrival_us", -5, "arrival_us must be at least 0, not -5"),
        ("peer_asn", -7, "peer_asn must be from 0 to 4294967295, not -7"),
        ("peer_asn", 2**32, "peer_asn must be from 0 to 4294967295, not 4294967296"),
        ("as_path", [-7], "as_path ASN must be from 0 to 4294967295, not -7"),
        ("as_path", [65001, 99999999999],
         "as_path ASN must be from 0 to 4294967295, not 99999999999"),
        ("as_path", [65001, [65002, 2**32]],
         "as_path ASN must be from 0 to 4294967295, not 4294967296"),
        ("med", -3, "med must be from 0 to 4294967295, not -3"),
        ("source_message_index", -1, "source_message_index must be at least 0, not -1"),
    ],
    ids=["arrival_us", "peer_asn-below", "peer_asn-above", "as_path-below", "as_path-above",
         "as_set-above", "med", "source_message_index"],
)
def test_jsonl_integers_out_of_range_fail_with_path_line(tmp_path, field, value, message):
    rows = [record_to_dict(make_announcement(1)) for _ in range(2)]
    rows[1][field] = value
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(BgpChurnError) as info:
        list(read_records_jsonl(path))
    assert str(info.value) == f"{path}:2: {message}"


def test_jsonl_integers_at_their_bounds_are_read():
    row = record_to_dict(make_announcement(0, path=(0, (0, 2**32 - 1)), med=2**32 - 1))
    row["peer_asn"] = 2**32 - 1
    rec = record_from_dict(row)
    assert rec.arrival_us == 0 and rec.session.peer_asn == 2**32 - 1
    assert rec.attrs.path == (0, (0, 2**32 - 1)) and rec.attrs.med == 2**32 - 1


def _loads_reader(path):
    """read_records_jsonl with json.loads on every line, and the reference rows."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = reference_record_from_dict(json.loads(line))
            except KeyError as exc:
                raise BgpChurnError(f"{path}:{lineno}: missing key {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise BgpChurnError(f"{path}:{lineno}: {exc}") from exc
            yield rec


_ROW_TEXT = [
    json.dumps(record_to_dict(make_announcement(1, communities=(100,)))),
    json.dumps(record_to_dict(make_withdrawal(2)), separators=(",", ":")),
    json.dumps(record_to_dict(make_announcement(3)), indent=1).replace("\n", " "),
]
_LINES = st.one_of(
    st.sampled_from(_ROW_TEXT),
    st.sampled_from(_ROW_TEXT).map(lambda text: "\ufeff" + text),
    st.tuples(
        st.sampled_from(_ROW_TEXT),
        st.sampled_from([" x", "{}", "]", " 1", ",", "\t\"\"", " \u2028"]),
    ).map("".join),
    st.sampled_from(_ROW_TEXT).map(lambda text: text.replace("0,", "NaN,", 1)),
    st.sampled_from(
        ["NaN", "Infinity", "-Infinity", "[]", '"x"', "{}", "1", "null", "{", "[1,",
         "", " ", "\t \t", "\u3000", "\x1c", "\ufeff"]
    ),
    st.tuples(st.sampled_from([" ", "\t", "\u3000"]), st.sampled_from(_ROW_TEXT)).map(
        "".join
    ),
)


def _read_all(read, path):
    try:
        return [_typed(rec) for rec in read(path)], None
    except BgpChurnError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, min_size=1, max_size=5))
def test_one_scan_reader_matches_json_loads(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert _read_all(read_records_jsonl, path) == _read_all(_loads_reader, path)
