"""Address and prefix text: bgpchurn.addr against ipaddress, and pinned.

``ipaddress`` is the oracle for every text form.  The literal pins fix
the rule itself (Python 3.11's RFC 5952 text, no dotted IPv4 tail), so
an interpreter that prints other text fails a pin, not the oracle alone.
"""

from __future__ import annotations

import ipaddress
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgpchurn import addr
from bgpchurn.allocation import load_delegated
from bgpchurn.model import (
    _json_session_memo,
    _next_hop_memo,
    expand_stream,
    read_records_jsonl,
)
from bgpchurn.mrt import bgp, codec
from bgpchurn.mrt.bgp import (
    attr_as_path, attr_next_hop, attr_origin, encode_prefixes, path_segments
)
from bgpchurn.mrt.build import build_update_record
from bgpchurn.mrt.codec import read_mrt_stream

from helpers import attr_mp_reach, attr_mp_unreach, write_dual_stack


@st.composite
def ipv6_packed(draw):
    """16 bytes whose groups are drawn zero half the time, so zero runs
    of every length and position appear, ties included; IPv4-mapped and
    IPv4-compatible addresses besides."""
    form = draw(st.sampled_from(("groups", "groups", "mapped", "compatible")))
    low = draw(st.integers(0, 2**32 - 1))
    if form == "mapped":
        return ((0xFFFF << 32) | low).to_bytes(16, "big")
    if form == "compatible":
        return low.to_bytes(16, "big")
    groups = draw(st.lists(
        st.one_of(st.just(0), st.integers(0, 0xFFFF)), min_size=8, max_size=8
    ))
    return b"".join(g.to_bytes(2, "big") for g in groups)


@settings(max_examples=2000, deadline=None)
@given(ipv6_packed())
@example(bytes(16))  # "::"
@example(bytes(15) + b"\x01")  # "::1"
@example(b"\x00\x01" + bytes(12) + b"\x00\x01")  # "1::1"
@example(b"\x00\x01\x00\x00" + b"\x00\x02" * 6)  # one zero group, not compressed
def test_ipv6_text_equals_ipaddress_text(packed):
    assert addr.address_text(packed) == str(ipaddress.IPv6Address(packed))
    assert addr.address_bytes(addr.address_text(packed)) == packed


@given(st.binary(min_size=4, max_size=4))
def test_ipv4_text_equals_ipaddress_text(packed):
    assert addr.address_text(packed) == str(ipaddress.IPv4Address(packed))
    assert addr.address_bytes(addr.address_text(packed)) == packed


@pytest.mark.parametrize(
    "text,expected",
    [
        ("::ffff:1.2.3.4", "::ffff:102:304"),  # IPv4-mapped: hex groups, no dotted tail
        ("::1.2.3.4", "::102:304"),  # IPv4-compatible
        ("2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"),  # tied runs: the first
        ("2001:0:0:1:0:0:0:1", "2001:0:0:1::1"),  # the longest run, not the first
        ("2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"),  # one zero group stays
        ("0:0:0:0:0:0:0:0", "::"),
        ("0:0:0:0:0:0:0:1", "::1"),
        ("1:0:0:0:0:0:0:0", "1::"),
        ("2001:DB8:00AB::", "2001:db8:ab::"),  # lowercase, leading zeros dropped
    ],
)
def test_address_text_is_pinned(text, expected):
    packed = ipaddress.IPv6Address(text).packed
    assert addr.address_text(packed) == expected
    assert addr.canonical_address(text) == expected


ADDRESS_TEXTS = [
    "192.0.2.1", "0.0.0.0", "255.255.255.255", "192.0.2.01", "192.0.2", "10.0.0.256",
    " 192.0.2.1", "192.0.2.1/32", "\u0661.0.0.1", "", "2001:db8::1", "2001:DB8::1",
    "2001:0db8:0000:0000:0000:0000:0000:0001", "::", "::ffff:192.0.2.1", "fe80::1%eth0",
    "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7::", "1::2::3", "12345::", "::g", ":1::",
    "1:2:3:4:5:6:7:8:9",
]


@pytest.mark.parametrize("text", ADDRESS_TEXTS)
def test_canonical_address_equals_ipaddress(text):
    try:
        expected = ipaddress.ip_address(text)
    except ValueError as exc:
        for read in (addr.canonical_address, addr.address_bytes):
            with pytest.raises(ValueError) as info:
                read(text)
            assert str(info.value) == str(exc)
    else:
        assert addr.canonical_address(text) == str(expected)
        assert addr.address_bytes(text) == expected.packed


NETWORK_TEXTS = [
    "10.0.0.0/8", "10.0.0.1/24", "010.0.0.0/8", "10.0.0.0/08", "10.0.0.0/33", "10.0.0.0",
    "10.0.0.0/", "/24", "", "banana", "10.0.0.0/+8", " 10.0.0.0/8", "10.0.0.0/255.0.0.0",
    "0.0.0.0/0", "2001:db8::/32", "2001:DB8::/32", "2001:0db8::/32", "2001:db8::1/32",
    "2001:db8::/129", "2001:db8::/032", "::/0", "::ffff:10.0.0.0/104", "::ffff:a00:0/104",
    "fe80::%eth0/64", "2001:db8:0:0:1::/80", "1:2:3:4:5:6:7:8/128",
]


@pytest.mark.parametrize("text", NETWORK_TEXTS)
def test_canonical_network_equals_ipaddress(text):
    try:
        expected = str(ipaddress.ip_network(text))
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            addr.canonical_network(text)
        assert str(info.value) == str(exc)
    else:
        assert addr.canonical_network(text) == expected


@pytest.mark.parametrize("text", NETWORK_TEXTS)
def test_encode_prefixes_equals_ipaddress(text):
    try:
        net = ipaddress.ip_network(text)
    except ValueError:
        with pytest.raises(ValueError):
            encode_prefixes([text])
    else:
        packed = net.network_address.packed[: (net.prefixlen + 7) // 8]
        assert encode_prefixes([text]) == bytes([net.prefixlen]) + packed


@settings(max_examples=500, deadline=None)
@given(ipv6_packed(), st.integers(0, 128), st.sampled_from(("compressed", "exploded", "upper")))
def test_canonical_network_v6_equals_ipaddress(packed, length, form):
    net = ipaddress.IPv6Network((packed, length), strict=False)
    text = {
        "compressed": str(net.network_address),
        "exploded": net.network_address.exploded,
        "upper": str(net.network_address).upper(),
    }[form]
    assert addr.canonical_network(f"{text}/{length}") == str(net)


# --- canonical input never reaches ipaddress, read or written ----------------

IPADDRESS_NAMES = (
    "ip_address", "ip_network", "IPv4Address", "IPv6Address", "IPv4Network", "IPv6Network"
)


@pytest.fixture
def no_ipaddress(monkeypatch):
    """A call that clears the memos, so each read is made afresh, and
    then makes every ipaddress constructor raise."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"ipaddress called with {args}")

    def patch():
        for memo in (bgp._decode_attributes, bgp._decode_ipv4_prefixes,
                     codec._peer_address, _next_hop_memo, _json_session_memo):
            memo.cache_clear()
        for name in IPADDRESS_NAMES:
            monkeypatch.setattr(ipaddress, name, refuse)

    return patch


def test_dual_stack_decode_calls_no_ipaddress(tmp_path, no_ipaddress):
    names = write_dual_stack(tmp_path)

    def expanded():
        return [list(expand_stream(read_mrt_stream(tmp_path / name), "rrc00"))
                for name in names]

    want = expanded()
    assert any(":" in rec.prefix for records in want for rec in records)
    no_ipaddress()
    assert expanded() == want


def test_allocation_table_calls_no_ipaddress(no_ipaddress):
    lines = [
        "ripencc|ZZ|asn|64496|16|20050701|allocated",
        "ripencc|ZZ|ipv4|10.0.0.0|65536|20040101|allocated",
        "ripencc|ZZ|ipv6|2001:db8::|32|20080801|allocated",
        "ripencc|ZZ|ipv6|2001:DB8:0:1::|64|20080801|assigned",
    ]
    no_ipaddress()
    table = load_delegated(lines)
    assert table.prefix_allocated("10.0.1.0/24", 20150601)
    assert not table.prefix_allocated("11.0.0.0/8", 20150601)
    assert table.prefix_allocated("2001:db8:ffff::/48", 20150601)
    assert not table.prefix_allocated("2001:db9::/48", 20150601)


def test_jsonl_read_calls_no_ipaddress(tmp_path, no_ipaddress):
    rows = [
        {"arrival_us": 1, "collector": "rrc00", "peer_asn": 65001,
         "peer_address": peer, "prefix": prefix, "kind": "announcement",
         "as_path": [65001], "communities": [], "next_hop": next_hop, "med": None}
        for peer, prefix, next_hop in (
            ("192.0.2.1", "10.0.0.0/24", "192.0.2.1"),
            ("2001:db8::1:0:0:1", "2001:db8::/32", "2001:db8::1"),
            ("2001:DB8::1", "2001:DB8:0:1::/64", "2001:0db8::a"),
        )
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    no_ipaddress()
    records = list(read_records_jsonl(path))
    assert [r.session.peer_address for r in records] == [
        "192.0.2.1", "2001:db8::1:0:0:1", "2001:db8::1"
    ]
    assert [r.attrs.next_hop for r in records] == ["192.0.2.1", "2001:db8::1", "2001:db8::a"]
    assert [r.prefix for r in records] == ["10.0.0.0/24", "2001:db8::/32", "2001:db8:0:1::/64"]


def test_building_updates_calls_no_ipaddress(no_ipaddress):
    mp = [attr_mp_reach(["2001:db8::/32", "2001:0:0:1::/64"], "2001:db8::1", "fe80::1"),
          attr_mp_unreach(["2001:db8:1::/48"])]
    no_ipaddress()
    head = [attr_origin(), attr_as_path(path_segments([65001, 65002]))]
    v4 = build_update_record(
        1, 65001, "192.0.2.1", 64512, "192.0.2.2", withdrawn=["10.1.0.0/16"],
        attributes=head + [attr_next_hop("192.0.2.1")], announced=["10.0.0.0/24", "0.0.0.0/0"],
    )
    v6 = build_update_record(
        1, 65002, "2001:db8::1:0:0:1", 64512, "2001:db8::2", attributes=head + mp
    )
    assert v4.message.withdrawn_prefixes == ("10.1.0.0/16",)
    assert v4.message.announced_prefixes == ("10.0.0.0/24", "0.0.0.0/0")
    assert v4.message.attributes.next_hop == "192.0.2.1"
    assert v6.message.peer_address == "2001:db8::1:0:0:1"
    assert v6.message.withdrawn_prefixes == ("2001:db8:1::/48",)
    assert v6.message.announced_prefixes == ("2001:db8::/32", "2001:0:0:1::/64")
    assert v6.message.attributes.next_hop == "2001:db8::1"
    assert encode_prefixes(["2001:db8::/32", "10.0.0.0/8"]) == bytes.fromhex("2020010db8080a")
