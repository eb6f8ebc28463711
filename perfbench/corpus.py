"""Seeded synthetic inputs for the benchmark, with their ground truth.

Each workload's inputs are built here from a seed.  The MRT bytes are
packed by this module's own encoder and every expected outcome (each
announcement's label, each message's keep/discard verdict, the records
an allocation filter must drop and the beacon reveal composition) is
derived while generating, by this module's own per-stream tracker.
Nothing in ``bgpchurn`` is called, so the truth is independent of the
code under test.

Regenerate a corpus (files plus ``truth.json``) with::

    python3 perfbench/corpus.py --workload reduce-archive --seed 1 --out corpus/
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import itertools
import json
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

DAY0 = 1_682_899_200  # 2023-05-01T00:00:00Z
LOCAL_ASN = 12654
LOCAL_IP = "193.0.4.28"
BEACON_PREFIXES = tuple(f"84.205.{64 + n}.0/24" for n in range(16))

# ---------------------------------------------------------------------------
# wire encoding (RFC 6396 BGP4MP/BGP4MP_ET, RFC 4271 UPDATE, RFC 6793 AS4)

MRT_BGP4MP, MRT_BGP4MP_ET = 16, 17
SUB_STATE_CHANGE_AS4, SUB_MESSAGE_AS4 = 5, 4
MARKER = b"\xff" * 16


def ip4(text: str) -> bytes:
    return bytes(int(x) for x in text.split("."))


def _attr(flags: int, code: int, payload: bytes) -> bytes:
    if len(payload) > 0xFF:
        return struct.pack("!BBH", flags | 0x10, code, len(payload)) + payload
    return struct.pack("!BBB", flags, code, len(payload)) + payload


def encode_prefix(prefix: str) -> bytes:
    addr, _, bits = prefix.partition("/")
    n = int(bits)
    return bytes([n]) + ip4(addr)[: (n + 7) // 8]


def encode_attrs(path: tuple, communities: tuple, next_hop: str) -> bytes:
    """ORIGIN, 4-byte AS_PATH, NEXT_HOP and optional COMMUNITIES."""
    out = _attr(0x40, 1, b"\x00")
    seg = bytes([2, len(path)]) + struct.pack(f"!{len(path)}I", *path) if path else b""
    out += _attr(0x40, 2, seg)
    out += _attr(0x40, 3, ip4(next_hop))
    if communities:
        out += _attr(0xC0, 8, struct.pack(f"!{len(communities)}I", *communities))
    return out


def bgp_update(withdrawn: tuple, attrs: bytes, announced: tuple) -> bytes:
    w = b"".join(encode_prefix(p) for p in withdrawn)
    a = attrs if announced else b""
    nlri = b"".join(encode_prefix(p) for p in announced)
    payload = struct.pack("!H", len(w)) + w + struct.pack("!H", len(a)) + a + nlri
    return MARKER + struct.pack("!HB", 19 + len(payload), 2) + payload


def bgp_keepalive() -> bytes:
    return MARKER + struct.pack("!HB", 19, 4)


def mrt_record(ts: int, usec, subtype: int, peer_asn: int, peer_ip: str, tail: bytes) -> bytes:
    """One BGP4MP (usec None) or BGP4MP_ET record with an AS4 peer header."""
    body = struct.pack("!IIHH", peer_asn, LOCAL_ASN, 0, 1) + ip4(peer_ip) + ip4(LOCAL_IP) + tail
    if usec is None:
        return struct.pack("!IHHI", ts, MRT_BGP4MP, subtype, len(body)) + body
    body = struct.pack("!I", usec) + body
    return struct.pack("!IHHI", ts, MRT_BGP4MP_ET, subtype, len(body)) + body


def split_records(blob: bytes) -> list[bytes]:
    """Cut an uncompressed MRT byte string into whole records."""
    out, i = [], 0
    while i < len(blob):
        if i + 12 > len(blob):
            raise ValueError("MRT header cut short")
        (length,) = struct.unpack_from("!I", blob, i + 8)
        if i + 12 + length > len(blob):
            raise ValueError("MRT body cut short")
        out.append(blob[i : i + 12 + length])
        i += 12 + length
    return out


# ---------------------------------------------------------------------------
# ground-truth labelling, independent of bgpchurn.classify


def _collapse(path: tuple) -> tuple:
    return tuple(a for i, a in enumerate(path) if i == 0 or path[i - 1] != a)


class Tracker:
    """Last path and community multiset per (peer, prefix) stream."""

    def __init__(self):
        self.last: dict[tuple, tuple] = {}
        self.counts = {k: 0 for k in ("pc", "pn", "xc", "xn", "nc", "nn", "initial")}

    def announce(self, stream: tuple, path: tuple, communities: tuple) -> str:
        comm = tuple(sorted(communities))
        prev = self.last.get(stream)
        self.last[stream] = (path, comm)
        if prev is None:
            label = "initial"
        else:
            if prev[0] == path:
                first = "n"
            elif _collapse(prev[0]) == _collapse(path):
                first = "x"
            else:
                first = "p"
            label = first + ("n" if prev[1] == comm else "c")
        self.counts[label] += 1
        return label


# ---------------------------------------------------------------------------
# allocation space: delegated-extended rows plus pools drawn from them


@dataclass
class AllocationSpace:
    lines: list[str] = field(default_factory=list)
    blocks: list[tuple[int, int]] = field(default_factory=list)  # allocated (start, size)
    holes: list[tuple[int, int]] = field(default_factory=list)  # never allocated
    asns: list[int] = field(default_factory=list)
    bad_asns: list[int] = field(default_factory=list)


def _dotted(n: int) -> str:
    return f"{n >> 24}.{(n >> 16) & 255}.{(n >> 8) & 255}.{n & 255}"


def build_allocation(rng: random.Random, v4_rows=12_000, asn_rows=8_000, v6_rows=4_000) -> AllocationSpace:
    """A delegated-extended table of about 27k rows.

    IPv4 blocks of /22 to /16 are laid out from 20.0.0.0 upward; every
    fourth block is a hole (listed as available/reserved or absent),
    which is where unallocated prefixes come from.  Unallocated ASNs
    are drawn from the private range above 4.2e9, which no row covers.
    """
    space = AllocationSpace()
    rirs = ("ripencc", "arin", "apnic", "lacnic", "afrinic")
    lines = ["2|ripencc|20230501|27000|19830705|20230430|+0100"]
    cursor = 20 << 24
    for i in range(v4_rows):
        size = 1 << rng.randint(10, 16)
        cursor = (cursor + size - 1) // size * size
        date = 19900101 + rng.randint(0, 30) * 10000 + rng.randint(0, 11) * 100
        rir = rirs[i % 5]
        if i % 4 == 3:
            space.holes.append((cursor, size))
            if i % 8 == 3:
                status = "available" if i % 16 == 3 else "reserved"
                lines.append(f"{rir}||ipv4|{_dotted(cursor)}|{size}||{status}")
        else:
            space.blocks.append((cursor, size))
            lines.append(f"{rir}|NL|ipv4|{_dotted(cursor)}|{size}|{date}|allocated|a{i}")
        cursor += size
    asn = 1000
    for i in range(asn_rows):
        count = rng.choice((1, 1, 1, 2, 4))
        lines.append(f"{rirs[i % 5]}|DE|asn|{asn}|{count}|20050101|assigned|b{i}")
        space.asns.extend(range(asn, asn + count))
        asn += count + rng.randint(0, 3)
    for i in range(v6_rows):
        lines.append(f"{rirs[i % 5]}|FR|ipv6|2a0{i % 10}:{i:x}::|32|20100101|allocated|c{i}")
    space.bad_asns = [4_200_000_000 + i * 7 for i in range(500)]
    body = lines[1:]
    rng.shuffle(body)
    space.lines = lines[:1] + body
    return space


def _pick_prefix(rng: random.Random, blocks: list[tuple[int, int]]) -> str:
    start, size = rng.choice(blocks)
    return f"{_dotted(start + rng.randrange(size // 256) * 256)}/24"


# ---------------------------------------------------------------------------
# workload builders


@dataclass
class Session:
    peer_asn: int
    peer_ip: str
    et: bool  # BGP4MP_ET records carry native microseconds
    route_server: bool = False


def _sessions(rng: random.Random, n: int, asns: list[int], route_servers: int = 0) -> list[Session]:
    chosen = rng.sample(asns, n)
    return [
        Session(asn, f"80.81.{192 + i // 250}.{1 + i % 250}", et=i % 3 != 0, route_server=i < route_servers)
        for i, asn in enumerate(chosen)
    ]


def _path(rng: random.Random, peer: int, asns: list[int]) -> tuple:
    """Peer first, then 1-5 distinct transit ASNs and an origin."""
    hops = rng.sample(asns, rng.randint(2, 6))
    return (peer,) + tuple(a for a in hops if a != peer)


def _prepend(rng: random.Random, path: tuple) -> tuple:
    """The same path with the origin prepended 0-3 extra times."""
    core = _collapse(path)
    return core + (core[-1],) * rng.randint(0, 3)


def _communities(rng: random.Random, pool: list[int], lo=0, hi=4) -> tuple:
    return tuple(rng.sample(pool, rng.randint(lo, hi)))


class MessageWriter:
    """Packs update messages into one file's records and records their truth."""

    def __init__(self, tracker: Tracker, bad_prefixes: frozenset = frozenset()):
        self.tracker = tracker
        self.bad_prefixes = bad_prefixes
        self.blobs: list[bytes] = []
        self.keep: list[bool] = []  # per record: False only for discardable updates
        self.updates = 0
        self.records = 0
        self.labels: list[str] = []  # per announcement past the filter, in expansion order
        self.dropped = 0
        self.repaired = 0

    def other(self, blob: bytes) -> None:
        self.blobs.append(blob)
        self.keep.append(True)

    def update(self, ts, usec, s: Session, withdrawn=(), announced=(), path=(), comms=(), bad_asn=False) -> None:
        """``path`` is the logical path, peer first; a route server omits the peer on the wire.

        A record is dropped as unallocated when its prefix is in
        ``bad_prefixes`` or, for an announcement, when ``bad_asn`` says
        its path holds an unallocated ASN.
        """
        wire_path = path[1:] if s.route_server else path
        attrs = encode_attrs(wire_path, comms, s.peer_ip) if announced else b""
        tail = bgp_update(tuple(withdrawn), attrs, tuple(announced))
        self.blobs.append(mrt_record(ts, usec if s.et else None, SUB_MESSAGE_AS4, s.peer_asn, s.peer_ip, tail))
        self.updates += 1
        self.records += len(withdrawn) + len(announced)
        self.dropped += sum(p in self.bad_prefixes for p in withdrawn)
        labels = []
        for p in announced:
            if bad_asn or p in self.bad_prefixes:
                self.dropped += 1
                continue
            labels.append(self.tracker.announce((s.peer_asn, s.peer_ip, p), path, comms))
            self.repaired += s.route_server
        self.labels.extend(labels)
        self.keep.append(not (announced and not withdrawn and all(x in ("nc", "nn") for x in labels)))

    def kept_records(self) -> list[bytes]:
        return [b for b, k in zip(self.blobs, self.keep) if k]


def _one_message(out: Path, name: str, compress: bool = False) -> str:
    """A file holding one announcement, for timing a command's fixed cost."""
    (out / "one").mkdir(exist_ok=True)
    s = Session(3333, "80.81.192.1", et=True)
    tail = bgp_update((), encode_attrs((3333, 1299, 2914), (), s.peer_ip), ("20.0.0.0/24",))
    blob = mrt_record(DAY0, 0, SUB_MESSAGE_AS4, s.peer_asn, s.peer_ip, tail)
    (out / "one" / name).write_bytes(gzip.compress(blob, mtime=0) if compress else blob)
    return f"one/{name}"


def _stamp(rng: random.Random, t0: int, i: int, n: int, span_s: int):
    """Monotone (seconds, microseconds) spread of message i of n over span_s."""
    us = t0 * 1_000_000 + (i * span_s * 1_000_000) // n + rng.randrange(1000)
    return us // 1_000_000, us % 1_000_000


def make_reduce_archive(seed: int, out: Path, files=4, messages_per_file=7_000) -> dict:
    """Consecutive RIS-style ``updates.*.gz`` files from a few busy sessions.

    Prefixes come in route groups of 1-4 that are always announced
    together, and groups recur with a skewed popularity, so most
    announcements have a predecessor and whole messages repeat byte for
    byte.  Truth: per file, the update count, the discard count and the
    kept records in order, under warm state across files.
    """
    rng = random.Random(f"reduce-archive/{seed}")
    space = build_allocation(rng, 400, 400, 0)
    sessions = _sessions(rng, 6, space.asns)
    # group size follows popularity rank, so the records per message do not depend on the seed
    sizes = (1, 2, 1, 3, 1, 4, 2, 1)
    groups = [tuple(dict.fromkeys(_pick_prefix(rng, space.blocks) for _ in range(sizes[g % 8]))) for g in range(1_200)]
    popularity = list(itertools.accumulate(1 / (i + 10) for i in range(len(groups))))
    comm_pool = [(rng.choice(space.asns) << 16 | rng.randrange(1000)) & 0xFFFFFFFF for _ in range(300)]
    current: dict[tuple, tuple] = {}
    tracker = Tracker()
    truth_files = []
    for f in range(files):
        t0 = DAY0 + 300 * f
        name = f"updates.20230501.{(5 * f) // 60:02d}{(5 * f) % 60:02d}.gz"
        w = MessageWriter(tracker)
        for i in range(messages_per_file):
            ts, usec = _stamp(rng, t0, i, messages_per_file, 300)
            s = rng.choice(sessions)
            if i % 500 == 0:
                w.other(mrt_record(ts, usec if s.et else None, SUB_MESSAGE_AS4, s.peer_asn, s.peer_ip, bgp_keepalive()))
            g = rng.choices(range(len(groups)), cum_weights=popularity)[0]
            prefixes = groups[g]
            key = (s.peer_asn, g)
            cur = current.get(key)
            roll = rng.random()
            if cur is None:
                cur = (_path(rng, s.peer_asn, space.asns), _communities(rng, comm_pool))
            elif roll < 0.10:
                cur = (_path(rng, s.peer_asn, space.asns), cur[1] if rng.random() < 0.5 else _communities(rng, comm_pool))
            elif roll < 0.20:
                cur = (_prepend(rng, cur[0]), cur[1] if rng.random() < 0.5 else _communities(rng, comm_pool))
            elif roll < 0.45:
                cur = (cur[0], _communities(rng, comm_pool, 1))
            elif roll < 0.55:
                w.update(ts, usec, s, withdrawn=prefixes)
                continue
            elif roll < 0.60:
                other = groups[rng.randrange(len(groups))]
                gone = tuple(p for p in other if p not in prefixes)
                current[key] = cur
                w.update(ts, usec, s, withdrawn=gone, announced=prefixes, path=cur[0], comms=cur[1])
                continue
            current[key] = cur
            w.update(ts, usec, s, announced=prefixes, path=cur[0], comms=cur[1])
        raw = b"".join(w.blobs)
        (out / name).write_bytes(gzip.compress(raw, compresslevel=6, mtime=0))
        kept = w.kept_records()
        truth_files.append(
            {
                "name": name,
                "records": w.records,
                "updates": w.updates,
                "discarded": len(w.blobs) - len(kept),
                "kept": len(kept),
                "kept_digest": digest(kept),
                "raw_bytes": len(raw),
            }
        )
    return {
        "workload": "reduce-archive",
        "inputs": [t["name"] for t in truth_files],
        "one_message": [_one_message(out, truth_files[0]["name"], compress=True)],
        "files": truth_files,
        "records": sum(t["records"] for t in truth_files),
        "sessions": len(sessions),
        "distinct_prefixes": len({p for g in groups for p in g}),
        "labels": tracker.counts,
    }


def digest(records: list[bytes]) -> str:
    """SHA-256 over length-prefixed records: equal iff same records in the same order."""
    h = hashlib.sha256()
    for r in records:
        h.update(struct.pack("!I", len(r)))
        h.update(r)
    return h.hexdigest()


def make_classify_wide(seed: int, out: Path, messages=12_000) -> dict:
    """One plain MRT file where most announcements open a new stream.

    48 sessions reset at the start of the file (state-change records),
    12 of them route servers that leave their own ASN off the path.
    About 70% of messages announce fresh prefixes, 20% re-announce an
    earlier group with a changed or repeated route, the rest withdraw.
    About 1 in 20 messages carries an unallocated prefix or path ASN.
    Truth: the label of every announcement that survives the
    allocation filter, in expansion order, the label tally, the number
    of dropped records and of repaired route-server paths.
    """
    rng = random.Random(f"classify-wide/{seed}")
    space = build_allocation(rng)
    (out / "delegated-extended.txt").write_text("\n".join(space.lines) + "\n")
    sessions = _sessions(rng, 48, space.asns, route_servers=12)
    comm_pool = [(rng.choice(space.asns) << 16 | rng.randrange(1000)) & 0xFFFFFFFF for _ in range(2_000)]
    hole_prefixes = [f"{_dotted(start + rng.randrange(size // 256) * 256)}/24" for start, size in space.holes]
    w = MessageWriter(Tracker(), frozenset(hole_prefixes))
    t0 = DAY0 + 8 * 3600
    for i, s in enumerate(sessions):
        tail = struct.pack("!HH", 6, 1)  # Established -> Idle
        w.other(mrt_record(t0, i if s.et else None, SUB_STATE_CHANGE_AS4, s.peer_asn, s.peer_ip, tail))
    announced_groups: list[tuple] = []
    routes: dict[tuple, tuple] = {}
    for i in range(messages):
        ts, usec = _stamp(rng, t0 + 1, i, messages, 900)
        s = rng.choice(sessions)
        roll = rng.random()
        bad = rng.random() < 0.05
        if roll < 0.70 or not announced_groups:
            prefixes = tuple(dict.fromkeys(_pick_prefix(rng, space.blocks) for _ in range(rng.randint(1, 3))))
            path = _path(rng, s.peer_asn, space.asns)
            comms = _communities(rng, comm_pool)
            bad_asn = False
            if bad and rng.random() < 0.5:
                prefixes = prefixes[:-1] + (rng.choice(hole_prefixes),)
            elif bad:
                path = path[:-1] + (rng.choice(space.bad_asns),)
                bad_asn = True
            else:
                announced_groups.append((s.peer_asn, prefixes))
                routes[(s.peer_asn, prefixes)] = (path, comms)
            w.update(ts, usec, s, announced=prefixes, path=path, comms=comms, bad_asn=bad_asn)
            continue
        peer, prefixes = rng.choice(announced_groups)
        s = next(x for x in sessions if x.peer_asn == peer)
        path, comms = routes[(peer, prefixes)]
        if roll < 0.90:
            change = rng.random()
            if change < 0.3:
                path = _path(rng, s.peer_asn, space.asns)
            elif change < 0.5:
                path = _prepend(rng, path)
            if rng.random() < 0.5:
                comms = _communities(rng, comm_pool)
            routes[(peer, prefixes)] = (path, comms)
            w.update(ts, usec, s, announced=prefixes, path=path, comms=comms)
        else:
            w.update(ts, usec, s, withdrawn=prefixes)
    name = "rrc00.updates.20230501.0800"
    (out / name).write_bytes(b"".join(w.blobs))
    return {
        "workload": "classify-wide",
        "inputs": [name],
        "one_message": [_one_message(out, name)],
        "files": [{"name": name, "records": w.records, "updates": w.updates}],
        "records": w.records,
        "sessions": len(sessions),
        "route_servers": sum(s.route_server for s in sessions),
        "labels_in_order": w.labels,
        "labels": w.tracker.counts,
        "dropped": w.dropped,
        "repaired": w.repaired,
        "allocation_rows": len(space.lines),
    }


def _phase(arrival_us: int) -> str:
    """Beacon phase by the RIS schedule: announce at 00/04/.., withdraw at 02/06/.., 15-minute windows."""
    in_day = arrival_us % (86_400 * 1_000_000)
    cycle, window = 4 * 3600 * 1_000_000, 900 * 1_000_000
    if in_day % cycle < window:
        return "announce"
    if (in_day - 2 * 3600 * 1_000_000) % cycle < window:
        return "withdraw"
    return "outside"


_PHASE_BUCKET = {
    frozenset({"withdraw"}): "withdrawal_only",
    frozenset({"announce"}): "announce_only",
    frozenset({"outside"}): "outside_only",
}
PLANTED = {"withdrawal_only": 150, "announce_only": 100, "outside_only": 50, "ambiguous": 100}


def _time_in(rng: random.Random, phase: str, days: int) -> int:
    """A random arrival (us) well inside a window of the given phase."""
    day = rng.randrange(days)
    cycle = rng.randrange(6)
    base = (DAY0 + day * 86_400 + cycle * 4 * 3600) * 1_000_000
    if phase == "announce":
        off = rng.randint(10, 880)
    elif phase == "withdraw":
        off = 2 * 3600 + rng.randint(10, 880)
    else:
        off = rng.choice((rng.randint(1000, 7100), rng.randint(2 * 3600 + 1000, 4 * 3600 - 100)))
    return base + off * 1_000_000 + rng.randrange(1_000_000)


def _json_record(us, s: Session, prefix, kind, path=(), comms=()) -> str:
    """One record in the model layer's JSONL schema (version 1)."""
    rec = {
        "arrival_us": us,
        "collector": "rrc00",
        "peer_asn": s.peer_asn,
        "peer_address": s.peer_ip,
        "prefix": prefix,
        "kind": kind,
        "source_message_index": 0,
        "source_file": "rrc00.updates.20230501",
        "native_usec": s.et,
        "flags": [],
    }
    if kind == "announcement":
        rec["as_path"] = list(path)
        rec["communities"] = [f"{c >> 16}:{c & 0xFFFF}" for c in comms]
        rec["next_hop"] = s.peer_ip
        rec["med"] = None
    return json.dumps(rec, separators=(",", ":"))


def make_beacon_phases(seed: int, out: Path, records=80_000, beacon_share=0.25, days=2) -> dict:
    """A records ``.jsonl`` file with beacon announcements in planted phases.

    Community values are planted per category: each withdrawal-only,
    announce-only and outside-only value is revealed only in windows of
    that phase, each ambiguous value in at least two phases.  Beacon
    withdrawals and background traffic on other prefixes carry no
    partition signal.  Truth: the value and multiset partition sizes,
    tracked here with this module's own phase function.
    """
    rng = random.Random(f"beacon-phases/{seed}")
    asns = list(range(1000, 40_000))
    sessions = _sessions(rng, 20, asns)
    values = rng.sample(range(1, 0xFFFFFFFF), sum(PLANTED.values()))
    pools, i = {}, 0
    for cat, n in PLANTED.items():
        pools[cat] = values[i : i + n]
        i += n
    home = {"withdrawal_only": "withdraw", "announce_only": "announce", "outside_only": "outside"}
    value_phases: dict[int, set] = {}
    multiset_phases: dict[tuple, set] = {}
    events = []  # (arrival_us, json line)

    def beacon_announce(us, comms):
        s = rng.choice(sessions)
        prefix = rng.choice(BEACON_PREFIXES)
        path = (s.peer_asn,) + tuple(rng.sample(asns, 2)) + (12654,)
        phase = _phase(us)
        for v in comms:
            value_phases.setdefault(v, set()).add(phase)
        if comms:
            multiset_phases.setdefault(tuple(sorted(comms)), set()).add(phase)
        events.append((us, _json_record(us, s, prefix, "announcement", path, comms)))

    # every planted value is revealed at least once in its phase(s)
    for cat, phase in home.items():
        for v in pools[cat]:
            beacon_announce(_time_in(rng, phase, days), (v,))
    for v in pools["ambiguous"]:
        for phase in rng.sample(("announce", "withdraw", "outside"), rng.choice((2, 2, 3))):
            beacon_announce(_time_in(rng, phase, days), (v,))
    n_beacon = int(records * beacon_share)
    while len(events) < n_beacon:
        roll = rng.random()
        if roll < 0.25:
            us = _time_in(rng, "withdraw", days)
            s = rng.choice(sessions)
            events.append((us, _json_record(us, s, rng.choice(BEACON_PREFIXES), "withdrawal")))
            continue
        cat = rng.choices(list(home), (0.45, 0.4, 0.15))[0]
        comms = tuple(rng.sample(pools[cat], rng.randint(1, 3)))
        if rng.random() < 0.1:
            comms = ()
        beacon_announce(_time_in(rng, home[cat], days), comms)
    background_comms = [rng.randrange(1, 0xFFFFFFFF) for _ in range(500)]
    while len(events) < records:
        us = (DAY0 + rng.randrange(days * 86_400)) * 1_000_000 + rng.randrange(1_000_000)
        s = rng.choice(sessions)
        prefix = f"{rng.randint(1, 223)}.{rng.randrange(256)}.{rng.randrange(256)}.0/24"
        if prefix in BEACON_PREFIXES:
            continue
        if rng.random() < 0.1:
            events.append((us, _json_record(us, s, prefix, "withdrawal")))
        else:
            path = (s.peer_asn,) + tuple(rng.sample(asns, rng.randint(1, 5)))
            events.append((us, _json_record(us, s, prefix, "announcement", path, _communities(rng, background_comms))))
    events.sort(key=lambda e: e[0])
    name = "rrc00.records.20230501.jsonl"
    with open(out / name, "w", encoding="utf-8") as f:
        for _, line in events:
            f.write(line + "\n")

    def sizes(seen: dict) -> dict:
        counts = dict.fromkeys(("withdrawal_only", "announce_only", "outside_only", "ambiguous"), 0)
        for phases in seen.values():
            counts[_PHASE_BUCKET.get(frozenset(phases), "ambiguous")] += 1
        return counts

    by_value = sizes(value_phases)
    if by_value != PLANTED:
        raise AssertionError(f"generator planted {by_value}, meant {PLANTED}")
    (out / "one").mkdir(exist_ok=True)
    us = _time_in(rng, "announce", days)
    (out / "one" / name).write_text(_json_record(us, sessions[0], BEACON_PREFIXES[0], "announcement", (sessions[0].peer_asn, 12654), (1,)) + "\n")
    return {
        "workload": "beacon-phases",
        "inputs": [name],
        "one_message": [f"one/{name}"],
        "files": [{"name": name, "records": records}],
        "records": records,
        "sessions": len(sessions),
        "beacon_records": n_beacon,
        "value_partition": by_value,
        "multiset_partition": sizes(multiset_phases),
    }


BUILDERS = {
    "reduce-archive": make_reduce_archive,
    "classify-wide": make_classify_wide,
    "beacon-phases": make_beacon_phases,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the files and truth.json")
    ns = parser.parse_args()
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = BUILDERS[ns.workload](ns.seed, out)
    (out / "truth.json").write_text(json.dumps(truth, indent=1) + "\n")
    print(json.dumps({k: v for k, v in truth.items() if k != "labels_in_order"}))


if __name__ == "__main__":
    main()
