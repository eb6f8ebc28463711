"""Propagation engine, the four-AS lab, and capture export."""

from __future__ import annotations

import pytest

from bgpchurn.classify import AnnouncementType, StreamClassifier
from bgpchurn.errors import NonConvergence, ScenarioError
from bgpchurn.model import expand_stream
from bgpchurn.mrt.codec import read_mrt_stream
from bgpchurn.sim.engine import EBGP, IBGP, SimEvent, Simulation
from bgpchurn.sim.export import capture_to_mrt_entries, log_entry_to_dict
from bgpchurn.sim.lab import (
    ASN_C,
    ASN_X,
    ASN_Y,
    ASN_Z,
    COMMUNITY_Y300,
    COMMUNITY_Y400,
    EXPERIMENTS,
    FLAP_AT,
    LAB_PREFIX,
    PROFILES,
    build_lab_topology,
    evaluate_profile,
    run_experiment,
    run_experiment_matrix,
)
DEFAULT = PROFILES["default-forwarding"]


def converged_lab(profile=DEFAULT, experiment=None):
    exp = EXPERIMENTS[experiment] if experiment else None
    sim = build_lab_topology(
        profile,
        exp.policies if exp else (),
        exp.send_communities if exp else (),
    )
    sim.announce_origins()
    return sim


# --- construction and addressing ---


def test_lab_router_ids_follow_creation_order():
    sim = build_lab_topology(DEFAULT)
    ids = {name: r.router_id for name, r in sim.routers.items()}
    assert ids == {"X1": 1, "Y1": 2, "Y2": 3, "Y3": 4, "Z1": 5, "C1": 6}


def test_session_addresses_indexed():
    sim = build_lab_topology(DEFAULT)
    s = sim.session_between("X1", "C1")  # seventh session created
    assert (s.addr_a, s.addr_b) == ("10.0.7.1", "10.0.7.2")
    assert s.addr_of("X1") == "10.0.7.1"
    assert s.peer_of("X1") == "C1"


def test_session_kind_inferred_from_asns():
    sim = Simulation()
    sim.add_router("A1", 65001)
    sim.add_router("A2", 65001)
    sim.add_router("B1", 65002)
    assert sim.add_session("A1", "A2").kind == IBGP
    assert sim.add_session("A1", "B1").kind == EBGP


def test_construction_errors():
    sim = Simulation()
    sim.add_router("A", 65001)
    with pytest.raises(ScenarioError):
        sim.add_router("A", 65002)
    sim.add_router("B", 65002)
    sim.add_session("A", "B")
    with pytest.raises(ScenarioError):
        sim.add_session("B", "A")
    with pytest.raises(ScenarioError):
        sim.session_between("A", "missing")
    with pytest.raises(ScenarioError):
        sim.apply_event(SimEvent(at=0, kind="meteor_strike"))


# --- initial convergence ---


def test_convergence_reaches_collector():
    sim = converged_lab()
    c1 = sim.routers["C1"]
    route = c1.loc_rib[LAB_PREFIX]
    assert route.path == (ASN_X, ASN_Y, ASN_Z)
    assert route.learned_from == "X1"
    assert route.next_hop == sim.session_between("X1", "C1").addr_of("X1")


def test_convergence_then_silence():
    sim = converged_lab()
    settled = len(sim.log.entries)
    assert settled > 0
    sim.announce_origins()  # no state change: nothing new may be sent
    assert len(sim.log.entries) == settled


def test_deterministic_replay():
    def fingerprint():
        _, log = run_experiment("exp2", DEFAULT)
        return [
            (e.at, e.seq, e.sender, e.receiver, e.message) for e in log.entries
        ]

    assert fingerprint() == fingerprint()


def test_pre_flap_tiebreak_prefers_lower_router_id():
    sim = converged_lab()
    assert sim.routers["Y1"].loc_rib[LAB_PREFIX].learned_from == "Y2"


def test_ebgp_prepends_and_rewrites_next_hop():
    sim = converged_lab()
    [msg] = [e.message for e in sim.log.announcements("Y1", "X1")]
    assert msg.path == (ASN_Y, ASN_Z)
    assert msg.next_hop == sim.session_between("Y1", "X1").addr_of("Y1")


def test_ibgp_preserves_path_and_next_hop():
    sim = converged_lab()
    [msg] = [e.message for e in sim.log.announcements("Y2", "Y1")]
    assert msg.path == (ASN_Z,)
    assert msg.next_hop == sim.session_between("Z1", "Y2").addr_of("Z1")


def test_ibgp_learned_not_readvertised_to_ibgp():
    _, log = run_experiment("exp1", DEFAULT)
    assert log.announcements("Y1", "Y2") == []
    assert log.announcements("Y1", "Y3") == []


def test_no_advertisement_back_to_learner():
    sim = converged_lab()
    assert sim.log.announcements("X1", "Y1") == []
    assert sim.log.announcements("C1", "X1") == []


def test_collector_paths_loop_free():
    for name in EXPERIMENTS:
        _, log = run_experiment(name, DEFAULT)
        for entry in log.announcements("X1", "C1"):
            path = entry.message.path
            assert len(set(path)) == len(path)
            assert ASN_C not in path


# --- the flap and the experiment metrics ---


def test_flap_switches_to_y3_branch():
    sim, _ = run_experiment("exp1", DEFAULT)
    y1 = sim.routers["Y1"]
    assert y1.loc_rib[LAB_PREFIX].learned_from == "Y3"
    # forwarding still works end to end
    assert sim.routers["C1"].loc_rib[LAB_PREFIX].path == (ASN_X, ASN_Y, ASN_Z)


def test_flap_emits_duplicate_on_default_profile():
    _, log = run_experiment("exp1", DEFAULT)
    after = [e.message for e in log.announcements("Y1", "X1", since=FLAP_AT)]
    assert len(after) == 1
    before = [e.message for e in log.announcements("Y1", "X1") if e.at < FLAP_AT]
    assert after[0] == before[-1]  # byte-for-byte duplicate update


def test_adj_rib_out_suppresses_flap_duplicate():
    _, log = run_experiment("exp1", PROFILES["adj-rib-out"])
    assert log.announcements("Y1", "X1", since=FLAP_AT) == []
    assert log.announcements("X1", "C1", since=FLAP_AT) == []


def test_adj_rib_out_never_sends_consecutive_duplicates():
    for name in EXPERIMENTS:
        _, log = run_experiment(name, PROFILES["adj-rib-out"])
        last = {}
        for e in log.entries:
            key = (e.sender, e.receiver, e.message.prefix)
            if e.is_announcement:
                assert last.get(key) != e.message
            last[key] = e.message


def test_community_tags_reach_collector():
    _, log = run_experiment("exp2", DEFAULT)
    msgs = [e.message for e in log.announcements("X1", "C1")]
    assert COMMUNITY_Y300 in msgs[0].communities
    assert COMMUNITY_Y400 in msgs[-1].communities  # switched branch after flap


def test_no_forward_profile_keeps_communities_inside_y():
    _, log = run_experiment("exp2", PROFILES["no-forward"])
    for entry in log.announcements("Y1", "X1") + log.announcements("X1", "C1"):
        assert entry.message.communities == ()
    # but the tag is present on iBGP inside AS Y
    assert any(
        COMMUNITY_Y300 in e.message.communities
        for e in log.announcements("Y2", "Y1")
    )


def test_egress_strip_still_leaks_duplicate():
    _, log = run_experiment("exp3", DEFAULT)
    after = log.announcements("X1", "C1", since=FLAP_AT)
    assert len(after) == 1
    assert after[0].message.communities == ()  # stripped at the X1 egress
    before = [e.message for e in log.announcements("X1", "C1") if e.at < FLAP_AT]
    assert after[0].message == before[-1]


def test_ingress_strip_stops_propagation():
    _, log = run_experiment("exp4", DEFAULT)
    assert log.announcements("X1", "C1", since=FLAP_AT) == []
    # X1 still hears the change on its upstream side
    assert log.announcements("Y1", "X1", since=FLAP_AT)


def test_experiment_matrix_reproduces_observed_behaviors():
    expected = {
        "default-forwarding": (True, True, True, True),
        "adj-rib-out": (False, True, False, True),
        "no-forward": (True, False, True, True),
        "community-suppress": (True, True, False, True),
    }
    for outcome in run_experiment_matrix():
        assert outcome.as_tuple() == expected[outcome.profile], outcome.profile


def test_community_suppress_profile_detail():
    # duplicate with equal communities and unchanged next hop is dropped,
    # but a community change still goes out
    outcome = evaluate_profile(PROFILES["community-suppress"])
    assert outcome.exp1 is True  # suppression keys on the *external* next hop
    assert outcome.exp3 is False


# --- withdrawals and link recovery ---


def test_origin_withdrawal_reaches_collector():
    sim = converged_lab()
    sim.apply_event(SimEvent(at=200, kind="withdraw_origin", router="Z1",
                             prefix=LAB_PREFIX))
    assert sim.log.withdrawals("X1", "C1")
    assert LAB_PREFIX not in sim.routers["C1"].loc_rib
    assert all(LAB_PREFIX not in r.loc_rib for r in sim.routers.values())


def test_link_up_restores_preferred_branch():
    sim, _ = run_experiment("exp1", DEFAULT)
    sim.apply_event(SimEvent(at=300, kind="link_up", a="Y1", b="Y2"))
    assert sim.routers["Y1"].loc_rib[LAB_PREFIX].learned_from == "Y2"


def test_announce_origin_event():
    sim = build_lab_topology(DEFAULT)
    sim.routers["Z1"].origin_routes.clear()
    log = sim.run([SimEvent(at=50, kind="announce_origin", router="Z1",
                            prefix=LAB_PREFIX)])
    assert sim.routers["C1"].loc_rib[LAB_PREFIX].path == (ASN_X, ASN_Y, ASN_Z)
    assert all(e.at == 50 for e in log.entries)


def test_non_convergence_bound():
    sim = build_lab_topology(DEFAULT)
    sim.max_messages_per_event = 2
    with pytest.raises(NonConvergence):
        sim.run()


def test_med_missing_compares_as_zero():
    sim = converged_lab()
    router = sim.routers["C1"]
    route = router.loc_rib[LAB_PREFIX]
    assert route.med is None
    assert sim._decision_key(router, 1, route)[3] == 0


# --- capture export ---


def test_log_entry_dicts():
    _, log = run_experiment("exp2", DEFAULT)
    dicts = [log_entry_to_dict(e) for e in log.entries]
    kinds = {d["kind"] for d in dicts}
    assert kinds <= {"announcement", "withdrawal"}
    ann = next(d for d in dicts if d["kind"] == "announcement")
    assert set(ann) == {
        "at", "seq", "sender", "receiver", "prefix",
        "kind", "path", "communities", "next_hop", "med",
    }


def test_capture_export_round_trips_through_codec():
    sim, log = run_experiment("exp2", DEFAULT)
    entries = capture_to_mrt_entries(sim, log, "X1", "C1", base_timestamp=1_500_000_000)
    assert len(entries) == len(log.between("X1", "C1"))
    for mrt, logged in zip(entries, log.between("X1", "C1")):
        assert mrt.header.timestamp == 1_500_000_000 + logged.at
        assert mrt.microsecond == logged.seq % 1_000_000
        assert mrt.message.peer_asn == ASN_X
    # bytes reparse to the same messages
    blob = b"".join(e.encode() for e in entries)
    again = list(read_mrt_stream(blob))
    assert [e.arrival_us for e in again] == [e.arrival_us for e in entries]


def test_exported_capture_classifies_like_the_lab():
    sim, log = run_experiment("exp2", DEFAULT)
    entries = capture_to_mrt_entries(sim, log, "X1", "C1")
    labels = [
        lr.label for lr in StreamClassifier().process(expand_stream(entries, "lab"))
    ]
    assert labels == [AnnouncementType.INITIAL, AnnouncementType.NC]

    sim4, log4 = run_experiment("exp4", DEFAULT)
    entries4 = capture_to_mrt_entries(sim4, log4, "X1", "C1")
    labels4 = [
        lr.label for lr in StreamClassifier().process(expand_stream(entries4, "lab"))
    ]
    assert labels4 == [AnnouncementType.INITIAL]

    sim3, log3 = run_experiment("exp3", DEFAULT)
    entries3 = capture_to_mrt_entries(sim3, log3, "X1", "C1")
    labels3 = [
        lr.label for lr in StreamClassifier().process(expand_stream(entries3, "lab"))
    ]
    assert labels3 == [AnnouncementType.INITIAL, AnnouncementType.NN]
