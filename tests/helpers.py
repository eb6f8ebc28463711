"""Shared fixtures: synthetic record generators and reference oracles.

The brute-force classifier here re-derives every label from scratch by
storing full per-stream histories; the streaming implementation must
agree with it on every record.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from bgpchurn.classify import AnnouncementType, collapse_path
from bgpchurn.model import ANNOUNCEMENT, WITHDRAWAL, SessionKey, UpdateRecord
from bgpchurn.mrt.bgp import (
    BgpAttributes,
    WireAttribute,
    attr_as_path,
    attr_communities,
    attr_next_hop,
    attr_origin,
    path_segments,
)
from bgpchurn.mrt.build import build_update_record

# ---------------------------------------------------------------------------
# record construction


def make_session(peer_asn: int = 65001, collector: str = "test") -> SessionKey:
    return SessionKey(collector, peer_asn, f"10.0.0.{peer_asn % 250 + 1}")


def make_announcement(
    arrival_us: int,
    prefix: str = "10.0.0.0/24",
    path: Iterable = (65001, 65002),
    communities: Iterable[int] = (),
    session: Optional[SessionKey] = None,
    med: Optional[int] = None,
    next_hop: str = "10.0.0.1",
) -> UpdateRecord:
    import ipaddress

    return UpdateRecord(
        arrival_us=arrival_us,
        session=session or make_session(),
        prefix=prefix,
        kind=ANNOUNCEMENT,
        attrs=BgpAttributes(
            path=tuple(el if isinstance(el, int) else tuple(sorted(el)) for el in path),
            communities=tuple(communities),
            next_hop=ipaddress.ip_address(next_hop),
            med=med,
        ),
    )


def make_withdrawal(
    arrival_us: int,
    prefix: str = "10.0.0.0/24",
    session: Optional[SessionKey] = None,
) -> UpdateRecord:
    return UpdateRecord(
        arrival_us=arrival_us,
        session=session or make_session(),
        prefix=prefix,
        kind=WITHDRAWAL,
    )


# ---------------------------------------------------------------------------
# brute-force label oracle


def oracle_labels(records: Iterable[UpdateRecord]) -> list[AnnouncementType]:
    """Re-derive labels by direct pairwise comparison of full histories."""
    history: dict[tuple, list[UpdateRecord]] = {}
    labels = []
    for rec in records:
        key = (rec.session, rec.prefix)
        if rec.kind == WITHDRAWAL:
            history.setdefault(key, []).append(rec)
            continue
        previous = [
            r for r in history.get(key, []) if r.kind == ANNOUNCEMENT
        ]
        history.setdefault(key, []).append(rec)
        if not previous:
            labels.append(AnnouncementType.INITIAL)
            continue
        prev = previous[-1]
        prev_path, cur_path = prev.path_elements(), rec.path_elements()
        if prev_path == cur_path:
            first = "n"
        elif collapse_path(prev_path) == collapse_path(cur_path):
            first = "x"
        else:
            first = "p"
        second = (
            "n" if Counter(prev.communities()) == Counter(rec.communities()) else "c"
        )
        labels.append(AnnouncementType(first + second))
    return labels


# ---------------------------------------------------------------------------
# random stream generator with construction-time ground truth


@dataclass
class SyntheticStream:
    records: list[UpdateRecord] = field(default_factory=list)
    true_labels: list[AnnouncementType] = field(default_factory=list)


_PATH_POOL = [
    (65001, 65002),
    (65001, 65002, 65003),
    (65001, 65004, 65003),
    (65005, 65002),
]
_COMM_POOL = [(), ((65001 << 16) | 100,), ((65001 << 16) | 200,), ((65002 << 16) | 7,)]


def random_stream(
    rng: random.Random,
    n_records: int,
    n_sessions: int = 3,
    n_prefixes: int = 4,
    withdrawal_rate: float = 0.15,
) -> SyntheticStream:
    """Randomized interleaved streams; labels derived on the fly.

    The generator tracks each stream's last announcement itself, so the
    expected labels are construction ground truth, independent of both
    the streaming classifier and the brute-force oracle.
    """
    sessions = [make_session(65001 + i) for i in range(n_sessions)]
    prefixes = [f"10.{i}.0.0/16" for i in range(n_prefixes)]
    last: dict[tuple, UpdateRecord] = {}
    out = SyntheticStream()
    t = 1_500_000_000_000_000
    for _ in range(n_records):
        session = rng.choice(sessions)
        prefix = rng.choice(prefixes)
        key = (session, prefix)
        t += rng.randint(1, 1_000_000)
        if rng.random() < withdrawal_rate:
            out.records.append(make_withdrawal(t, prefix, session))
            continue
        path = rng.choice(_PATH_POOL)
        if rng.random() < 0.25:
            # prepend inflation of the first hop
            path = (path[0],) * rng.randint(2, 3) + path[1:]
        communities = rng.choice(_COMM_POOL)
        rec = make_announcement(t, prefix, path, communities, session)
        prev = last.get(key)
        if prev is None:
            out.true_labels.append(AnnouncementType.INITIAL)
        else:
            prev_path, cur_path = prev.path_elements(), rec.path_elements()
            if prev_path == cur_path:
                first = "n"
            elif collapse_path(prev_path) == collapse_path(cur_path):
                first = "x"
            else:
                first = "p"
            second = (
                "n"
                if Counter(prev.communities()) == Counter(rec.communities())
                else "c"
            )
            out.true_labels.append(AnnouncementType(first + second))
        last[key] = rec
        out.records.append(rec)
    return out


# ---------------------------------------------------------------------------
# synthetic MRT files


def std_attrs(
    path: Iterable = (65001, 65002),
    next_hop: str = "10.0.0.1",
    communities: Iterable[int] = (),
) -> list[WireAttribute]:
    attrs = [attr_origin(0), attr_as_path(path_segments(path)), attr_next_hop(next_hop)]
    communities = tuple(communities)
    if communities:
        attrs.append(attr_communities(communities))
    return attrs


def update_entry(
    timestamp: int = 1_600_000_000,
    peer_asn: int = 65001,
    announced: Iterable[str] = ("10.0.0.0/24",),
    withdrawn: Iterable[str] = (),
    path: Iterable = (65001, 65002),
    communities: Iterable[int] = (),
    microsecond: Optional[int] = None,
):
    announced = tuple(announced)
    attributes = std_attrs(path, communities=communities) if announced else []
    return build_update_record(
        timestamp=timestamp,
        peer_asn=peer_asn,
        peer_address="10.0.0.1",
        local_asn=64512,
        local_address="10.0.0.2",
        withdrawn=withdrawn,
        attributes=attributes,
        announced=announced,
        microsecond=microsecond,
    )
