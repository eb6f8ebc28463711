"""Six-type announcement labeling."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from bgpchurn.classify import (
    FLAG_MED_CHANGED,
    FLAG_OUT_OF_ORDER,
    FLAG_REORDER_MULTISET,
    LABELED_TYPES,
    AnnouncementType,
    StreamClassifier,
    collapse_path,
    community_verdict,
    path_verdict,
    write_peer_csv,
    write_tally_csv,
)

from bgpchurn.model import expand_stream

from helpers import (
    make_announcement,
    make_session,
    make_withdrawal,
    oracle_labels,
    random_stream,
    update_entry,
)

C1 = (65001 << 16) | 100
C2 = (65001 << 16) | 200


def labels_of(records):
    return [lr.label for lr in StreamClassifier().process(records)]


def tally(records):
    clf = StreamClassifier()
    for _ in clf.process(records):
        pass
    return clf.tally


# --- path verdicts ---


def test_path_change_is_p():
    prev = (20205, 3356, 174, 12654)
    cur = (20205, 6939, 50304, 12654)
    assert path_verdict(prev, cur) == "p"


def test_identical_path_is_n():
    path = (20205, 3356, 174, 12654)
    assert path_verdict(path, path) == "n"


def test_prepending_only_is_x():
    plain = (20205, 3356, 174, 12654)
    inflated = (20205, 3356, 3356, 3356, 174, 12654)
    assert path_verdict(plain, inflated) == "x"
    assert path_verdict(inflated, plain) == "x"  # deflation too


def test_reordering_is_p_not_x():
    assert path_verdict((1, 2, 3), (1, 3, 2)) == "p"


def test_collapse_path():
    assert collapse_path((1, 1, 1, 2, 3, 3)) == (1, 2, 3)
    assert collapse_path(()) == ()
    assert collapse_path((5,)) == (5,)
    # non-consecutive repeats survive
    assert collapse_path((1, 2, 1)) == (1, 2, 1)


def test_as_set_membership_order_irrelevant():
    # sets collapse to sorted tuples before comparison
    a = make_announcement(1, path=(65001, (65003, 65002)))
    b = make_announcement(2, path=(65001, (65002, 65003)))
    assert labels_of([a, b]) == [AnnouncementType.INITIAL, AnnouncementType.NN]


# --- community verdicts ---


def test_community_multiset_semantics():
    assert community_verdict((C1, C2), (C2, C1)) == "n"  # order-free
    assert community_verdict((C1,), (C1, C2)) == "c"
    assert community_verdict((C1, C1), (C1,)) == "c"  # multiplicity counts
    assert community_verdict((), ()) == "n"


# --- full labels ---


def test_all_six_types_reachable():
    base = dict(prefix="10.0.0.0/24")
    seq = [
        make_announcement(1, path=(1, 2), communities=(C1,), **base),  # initial
        make_announcement(2, path=(1, 3), communities=(C2,), **base),  # pc
        make_announcement(3, path=(1, 4), communities=(C2,), **base),  # pn
        make_announcement(4, path=(1, 4), communities=(C1,), **base),  # nc
        make_announcement(5, path=(1, 4), communities=(C1,), **base),  # nn
        make_announcement(6, path=(1, 1, 4), communities=(C2,), **base),  # xc
        make_announcement(7, path=(1, 1, 1, 4), communities=(C2,), **base),  # xn
    ]
    assert labels_of(seq) == [
        AnnouncementType.INITIAL,
        AnnouncementType.PC,
        AnnouncementType.PN,
        AnnouncementType.NC,
        AnnouncementType.NN,
        AnnouncementType.XC,
        AnnouncementType.XN,
    ]


def test_repeated_announcement_run():
    seq = [make_announcement(i, path=(1, 2), communities=(C1,)) for i in range(5)]
    t = tally(seq)
    assert t.counts[AnnouncementType.INITIAL] == 1
    assert t.counts[AnnouncementType.NN] == 4
    assert t.labeled == 4


def test_withdrawal_does_not_reset_comparison():
    seq = [
        make_announcement(1, path=(1, 2)),
        make_withdrawal(2),
        make_announcement(3, path=(1, 2)),
    ]
    out = list(StreamClassifier().process(seq))
    assert [lr.label for lr in out] == [AnnouncementType.INITIAL, AnnouncementType.NN]
    assert out[1].after_withdrawal is True
    assert out[0].after_withdrawal is False


def test_withdrawal_of_unseen_prefix_counted():
    t = tally([make_withdrawal(1)])
    assert t.withdrawals == 1
    assert t.announcements == 0


def test_streams_keyed_by_session_and_prefix():
    s1, s2 = make_session(65001), make_session(65002)
    seq = [
        make_announcement(1, session=s1, path=(1, 2)),
        make_announcement(2, session=s2, path=(1, 2)),  # separate stream
        make_announcement(3, session=s1, prefix="10.9.0.0/16", path=(1, 2)),
    ]
    assert labels_of(seq) == [AnnouncementType.INITIAL] * 3


def test_state_keeps_one_session_object_per_session():
    # every expanded message carries its own, equal SessionKey
    entries = [
        update_entry(1_600_000_000 + i, peer_asn=peer, announced=(f"10.{i}.0.0/16",))
        for i in range(5)
        for peer in (65001, 65002)
    ]
    clf = StreamClassifier()
    list(clf.process(expand_stream(entries, "c")))
    assert len(clf.state) == 10
    assert len({id(session) for session, _ in clf.state}) == 2


def test_med_change_flag_on_nn():
    seq = [
        make_announcement(1, path=(1, 2), med=10),
        make_announcement(2, path=(1, 2), med=20),
    ]
    out = list(StreamClassifier().process(seq))
    assert out[1].label == AnnouncementType.NN
    assert FLAG_MED_CHANGED in out[1].record.flags


def test_med_change_flag_on_shared_path_and_communities():
    """A record whose path and communities are the predecessor's own
    objects, as a repeated attribute block's are, is nn; its MED is
    still compared."""
    first = make_announcement(1, path=(1, 2), communities=(7,), med=10)
    same_med = first._replace(arrival_us=2)
    other_med = first._replace(arrival_us=3, attrs=first.attrs._replace(med=20))
    assert other_med.attrs.path is first.attrs.path
    assert other_med.attrs.communities is first.attrs.communities
    out = list(StreamClassifier().process([first, same_med, other_med]))
    assert [lr.label for lr in out] == [
        AnnouncementType.INITIAL, AnnouncementType.NN, AnnouncementType.NN,
    ]
    assert [lr.record.flags for lr in out] == [(), (), (FLAG_MED_CHANGED,)]


def test_out_of_order_flag():
    seq = [make_announcement(100, path=(1, 2)), make_announcement(50, path=(1, 2))]
    out = list(StreamClassifier().process(seq))
    assert FLAG_OUT_OF_ORDER in out[1].record.flags


def test_reorder_multiset_flag():
    seq = [make_announcement(1, path=(1, 2, 3)), make_announcement(2, path=(1, 3, 2))]
    out = list(StreamClassifier().process(seq))
    assert out[1].label == AnnouncementType.PC or out[1].label == AnnouncementType.PN
    assert FLAG_REORDER_MULTISET in out[1].record.flags
    clf = StreamClassifier()
    for r in seq:
        clf.observe(r)
    assert clf.tally.flags[FLAG_REORDER_MULTISET] == 1


# --- oracle equivalence ---


def test_matches_brute_force_oracle_on_random_streams():
    for seed in range(12):
        stream = random_stream(random.Random(seed), 400)
        assert labels_of(stream.records) == oracle_labels(stream.records)


def test_matches_construction_ground_truth():
    for seed in (7, 99, 1234):
        stream = random_stream(random.Random(seed), 600)
        assert labels_of(stream.records) == stream.true_labels


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(20, 120))
def test_oracle_equivalence_property(seed, n):
    stream = random_stream(random.Random(seed), n)
    assert labels_of(stream.records) == oracle_labels(stream.records)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_stream_isolation_under_interleaving(seed):
    """Per-stream labels are invariant to how other streams interleave."""
    rng = random.Random(seed)
    stream = random_stream(rng, 80, n_sessions=2, n_prefixes=2)
    by_key = {}
    for rec in stream.records:
        by_key.setdefault((rec.session, rec.prefix), []).append(rec)
    interleaved = {}
    for lr in StreamClassifier().process(stream.records):
        key = (lr.record.session, lr.record.prefix)
        interleaved.setdefault(key, []).append(lr.label)
    for key, records in by_key.items():
        assert labels_of(records) == interleaved.get(key, [])


@settings(max_examples=120)
@given(
    prev=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    cur=st.lists(st.integers(1, 6), min_size=1, max_size=6),
)
def test_x_implies_collapse_equality(prev, cur):
    prev, cur = tuple(prev), tuple(cur)
    verdict = path_verdict(prev, cur)
    if verdict == "x":
        assert prev != cur
        assert collapse_path(prev) == collapse_path(cur)
    elif verdict == "n":
        assert prev == cur
    else:
        assert collapse_path(prev) != collapse_path(cur)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=6), st.randoms())
def test_community_verdict_order_insensitive(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert community_verdict(values, shuffled) == "n"


# Small pools, so equal multisets come up often.
_COMMUNITY_TUPLES = st.lists(st.sampled_from([0, 1, C1, C2, 2**32 - 1]), max_size=5)
_PATH_ELEMENTS = st.one_of(
    st.integers(1, 4),
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
        lambda members: tuple(sorted(members))
    ),
)
_PATHS = st.lists(_PATH_ELEMENTS, max_size=5).map(tuple)


@settings(max_examples=300)
@given(_COMMUNITY_TUPLES, _COMMUNITY_TUPLES)
def test_community_verdict_is_counter_equality(prev, cur):
    expected = "n" if Counter(prev) == Counter(cur) else "c"
    assert community_verdict(tuple(prev), tuple(cur)) == expected


@settings(max_examples=300)
@given(_PATHS, _PATHS)
def test_reorder_flag_is_counter_equality_of_changed_paths(prev, cur):
    out = list(
        StreamClassifier().process(
            [make_announcement(1, path=prev), make_announcement(2, path=cur)]
        )
    )
    expected = path_verdict(prev, cur) == "p" and Counter(prev) == Counter(cur)
    assert (FLAG_REORDER_MULTISET in out[1].record.flags) == expected


# --- tally and reports ---


def test_tally_known_composition():
    base = dict(prefix="10.0.0.0/24")
    seq = [
        make_announcement(1, path=(1, 2), communities=(C1,), **base),
        make_announcement(2, path=(1, 2), communities=(C1,), **base),  # nn
        make_announcement(3, path=(1, 2), communities=(C1,), **base),  # nn
        make_announcement(4, path=(1, 2), communities=(C2,), **base),  # nc
        make_announcement(5, path=(1, 3), communities=(C2,), **base),  # pn
        make_withdrawal(6, **base),
        make_announcement(7, path=(1, 3), communities=(C2,), **base),  # nn
    ]
    t = tally(seq)
    assert t.counts[AnnouncementType.NN] == 3
    assert t.counts[AnnouncementType.NC] == 1
    assert t.counts[AnnouncementType.PN] == 1
    assert t.counts[AnnouncementType.INITIAL] == 1
    assert t.withdrawals == 1
    shares = t.shares()
    assert shares[AnnouncementType.NN] == 3 / 5
    assert shares[AnnouncementType.NC] == 1 / 5
    assert abs(sum(shares.values()) - 1.0) < 1e-12


def test_tally_per_peer_unnecessary_breakdown():
    s1, s2 = make_session(65001), make_session(65002)
    seq = [
        make_announcement(1, session=s1, path=(1, 2)),
        make_announcement(2, session=s1, path=(1, 2)),  # nn for 65001
        make_announcement(3, session=s2, path=(1, 2)),
        make_announcement(4, session=s2, path=(1, 2), communities=(C1,)),  # nc
        make_announcement(5, session=s2, path=(1, 3), communities=(C1,)),  # pn
    ]
    t = tally(seq)
    assert t.per_peer == {65001: [0, 1], 65002: [1, 0]}


def test_tally_csv_layout(tmp_path):
    t = tally([make_announcement(1), make_announcement(2)])
    write_tally_csv(t, tmp_path / "tally.csv")
    lines = (tmp_path / "tally.csv").read_text().strip().splitlines()
    assert lines[0] == "type,count,share"
    assert len(lines) == 8  # header + six labeled types + initial
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "pc", "pn", "nc", "nn", "xc", "xn", "initial",
    ]
    assert lines[4] == "nn,1,1.000000"
    assert lines[7] == "initial,1,"


def test_peer_csv_layout(tmp_path):
    seq = [
        make_announcement(1, session=make_session(65002)),
        make_announcement(2, session=make_session(65002)),
        make_announcement(3, session=make_session(65001)),
        make_announcement(4, session=make_session(65001)),
    ]
    write_peer_csv(tally(seq), tmp_path / "peer.csv")
    lines = (tmp_path / "peer.csv").read_text().strip().splitlines()
    assert lines == ["peer_asn,nc_count,nn_count", "65001,0,1", "65002,0,1"]


def test_shares_empty_tally():
    t = tally([])
    assert t.shares() == {k: 0.0 for k in LABELED_TYPES}


def test_classifier_high_volume_counter_consistency():
    stream = random_stream(random.Random(42), 3000)
    t = tally(stream.records)
    assert t.announcements + t.withdrawals == len(stream.records)
    assert t.announcements == sum(t.counts.values())
    assert Counter(stream.true_labels) == t.counts
