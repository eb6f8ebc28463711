"""Record model: message fan-out and JSONL serialization."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.model import (
    ANNOUNCEMENT,
    WITHDRAWAL,
    SessionKey,
    UpdateRecord,
    expand_message,
    expand_stream,
    read_records_jsonl,
    record_from_dict,
    record_to_dict,
    write_records_jsonl,
)
from bgpchurn.mrt.build import build_update_record

from helpers import make_announcement, make_withdrawal, std_attrs, update_entry


def test_expand_multi_prefix_announcement():
    entry = update_entry(announced=("10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"))
    records = expand_message(entry, "rrc00", "f", 7)
    assert len(records) == 3
    assert all(r.kind == ANNOUNCEMENT for r in records)
    assert [r.prefix for r in records] == ["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"]
    assert len({r.attrs for r in records}) == 1  # shared attribute set
    assert {r.source_message_index for r in records} == {7}
    assert records[0].session == SessionKey("rrc00", 65001, "10.0.0.1")


def test_expand_withdrawals_without_attrs():
    entry = update_entry(announced=(), withdrawn=("10.0.0.0/24", "10.1.0.0/16"))
    records = expand_message(entry, "rrc00")
    assert [r.kind for r in records] == [WITHDRAWAL, WITHDRAWAL]
    assert all(r.attrs is None for r in records)


def test_expand_order_withdrawals_then_announcements():
    entry = update_entry(announced=("10.2.0.0/24",), withdrawn=("10.1.0.0/24",))
    kinds = [r.kind for r in expand_message(entry, "c")]
    assert kinds == [WITHDRAWAL, ANNOUNCEMENT]


def test_expand_end_of_rib_empty():
    entry = build_update_record(
        timestamp=1, peer_asn=65001, peer_address="10.0.0.1",
        local_asn=64512, local_address="10.0.0.2",
    )
    assert entry.message.is_end_of_rib
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


def test_withdrawal_with_attrs_rejected():
    with pytest.raises(ValueError):
        UpdateRecord(
            arrival_us=1,
            session=SessionKey("c", 65001, "10.0.0.1"),
            prefix="10.0.0.0/24",
            kind=WITHDRAWAL,
            attrs=make_announcement(1).attrs,
        )


def test_jsonl_round_trip():
    records = [
        make_announcement(
            1_600_000_000_000_001,
            path=(65001, (65002, 65003), 65004),
            communities=((65001 << 16) | 100, (65002 << 16) | 7),
        ),
        make_withdrawal(1_600_000_000_000_002),
        make_announcement(1_600_000_000_000_003).with_flag("table_gap"),
    ]
    buf = io.StringIO()
    assert write_records_jsonl(records, buf) == 3
    buf.seek(0)
    back = list(read_records_jsonl(buf))
    assert len(back) == 3
    for orig, rt in zip(records, back):
        assert rt.arrival_us == orig.arrival_us
        assert rt.session == orig.session
        assert rt.prefix == orig.prefix
        assert rt.kind == orig.kind
        assert rt.flags == orig.flags
        assert rt.path_elements() == orig.path_elements()
        assert sorted(rt.communities()) == sorted(orig.communities())


def test_jsonl_files(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [make_announcement(10), make_withdrawal(20)]
    write_records_jsonl(records, path)
    back = list(read_records_jsonl(path))
    assert [r.kind for r in back] == [ANNOUNCEMENT, WITHDRAWAL]


def test_jsonl_as_set_reads_back_sorted():
    line = (
        '{"arrival_us":1,"collector":"c","peer_asn":65001,'
        '"peer_address":"10.0.0.1","prefix":"10.0.0.0/24",'
        '"kind":"announcement","as_path":[65001,[65030,65010,65020],65040],'
        '"communities":["65001:100"],"next_hop":null,"med":null}\n'
    )
    (rec,) = read_records_jsonl(io.StringIO(line))
    assert rec.path_elements() == (65001, (65010, 65020, 65030), 65040)
    as_path = record_to_dict(rec)["as_path"]
    assert as_path == [65001, [65010, 65020, 65030], 65040]


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
        kind=ANNOUNCEMENT,
        attrs=make_announcement(1, med=med).attrs,
        flags=tuple(flags),
    )
    back = record_from_dict(record_to_dict(rec))
    assert back.arrival_us == rec.arrival_us
    assert back.session == rec.session
    assert back.flags == rec.flags
    assert back.attrs.med == rec.attrs.med
    assert back.path_elements() == rec.path_elements()
