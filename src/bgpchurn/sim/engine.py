"""Deterministic simulation engine.

Zero propagation delay, one global FIFO message queue, round-based
quiescence between scripted events.  Identical inputs always produce
identical capture logs: sessions iterate in creation order, the queue
is strictly first-in first-out, and tie-breaks are total orders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import NonConvergence, ScenarioError
from .routing import (
    Announcement,
    Message,
    Route,
    RouterProfile,
    SimRouter,
    Withdrawal,
)

EBGP = "ebgp"
IBGP = "ibgp"


@dataclass
class Session:
    a: str
    b: str
    kind: str  # ebgp | ibgp
    addr_a: str
    addr_b: str
    up: bool = True
    # None: defer to each sender's profile; True/False: explicit
    # per-session community transmission override (eBGP only)
    send_communities: Optional[bool] = None

    def peer_of(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise ValueError(f"{name} not on session {self.a}-{self.b}")

    def addr_of(self, name: str) -> str:
        return self.addr_a if name == self.a else self.addr_b


@dataclass(frozen=True)
class SimEvent:
    at: int
    kind: str  # announce_origin | withdraw_origin | link_down | link_up
    router: Optional[str] = None
    prefix: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None


@dataclass(frozen=True)
class LogEntry:
    at: int
    seq: int
    sender: str
    receiver: str
    message: Message

    @property
    def is_announcement(self) -> bool:
        return isinstance(self.message, Announcement)


@dataclass
class CaptureLog:
    entries: list[LogEntry] = field(default_factory=list)

    def append(self, entry: LogEntry) -> None:
        self.entries.append(entry)

    def between(self, sender: str, receiver: str) -> list[LogEntry]:
        return [
            e for e in self.entries if e.sender == sender and e.receiver == receiver
        ]

    def announcements(
        self, sender: str, receiver: str, since: Optional[int] = None
    ) -> list[LogEntry]:
        return [
            e
            for e in self.between(sender, receiver)
            if e.is_announcement and (since is None or e.at >= since)
        ]

    def withdrawals(self, sender: str, receiver: str) -> list[LogEntry]:
        return [e for e in self.between(sender, receiver) if not e.is_announcement]


class Simulation:
    """Routers, sessions and the FIFO propagation loop."""

    def __init__(self, max_messages_per_event: int = 10_000):
        self.routers: dict[str, SimRouter] = {}
        self.sessions: list[Session] = []
        self._session_index: dict[frozenset, Session] = {}
        self.log = CaptureLog()
        self.queue: deque[tuple[str, str, Message]] = deque()
        self.time = 0
        self.seq = 0
        self.max_messages_per_event = max_messages_per_event

    # -- construction -----------------------------------------------------

    def add_router(
        self,
        name: str,
        asn: int,
        profile: Optional[RouterProfile] = None,
    ) -> SimRouter:
        if name in self.routers:
            raise ScenarioError(f"duplicate router {name}")
        router = SimRouter(
            name=name,
            asn=asn,
            router_id=len(self.routers) + 1,
            profile=profile or RouterProfile(),
        )
        self.routers[name] = router
        return router

    def add_session(
        self,
        a: str,
        b: str,
        kind: Optional[str] = None,
        send_communities: Optional[bool] = None,
    ) -> Session:
        if a not in self.routers or b not in self.routers:
            raise ScenarioError(f"session {a}-{b} references unknown router")
        key = frozenset((a, b))
        if key in self._session_index:
            raise ScenarioError(f"duplicate session {a}-{b}")
        if kind is None:
            kind = IBGP if self.routers[a].asn == self.routers[b].asn else EBGP
        index = len(self.sessions) + 1
        session = Session(
            a,
            b,
            kind,
            addr_a=f"10.0.{index}.1",
            addr_b=f"10.0.{index}.2",
            send_communities=send_communities,
        )
        self.sessions.append(session)
        self._session_index[key] = session
        return session

    def session_between(self, a: str, b: str) -> Session:
        session = self._session_index.get(frozenset((a, b)))
        if session is None:
            raise ScenarioError(f"no session {a}-{b}")
        return session

    def sessions_of(self, name: str) -> list[Session]:
        return [s for s in self.sessions if name in (s.a, s.b)]

    def set_origin(
        self,
        name: str,
        prefix: str,
        communities: tuple[int, ...] = (),
        med: Optional[int] = None,
    ) -> None:
        router = self.routers[name]
        router.origin_routes[prefix] = Route(
            prefix=prefix,
            path=(),
            communities=communities,
            next_hop=f"192.0.2.{router.router_id}",
            med=med,
            learned_from=None,
        )

    # -- decision process --------------------------------------------------

    def _igp_hops(self, name: str, next_hop: str) -> int:
        """BFS hop count to the router owning the next-hop address."""
        owner = None
        for session in self.sessions:
            if session.addr_a == next_hop:
                owner = session.a
            elif session.addr_b == next_hop:
                owner = session.b
            if owner:
                break
        if owner is None:
            for router in self.routers.values():
                if next_hop == f"192.0.2.{router.router_id}":
                    owner = router.name
                    break
        if owner is None or owner == name:
            return 0
        seen = {name}
        frontier = [name]
        hops = 0
        while frontier:
            hops += 1
            nxt = []
            for node in frontier:
                for session in self.sessions_of(node):
                    if not session.up:
                        continue
                    peer = session.peer_of(node)
                    if peer == owner:
                        return hops
                    if peer not in seen:
                        seen.add(peer)
                        nxt.append(peer)
            frontier = nxt
        return len(self.routers) + 1  # unreachable

    def _decision_key(self, router: SimRouter, advertiser_id: int, route: Route):
        """Sort key: lower wins at every position.

        Preference order: originated here, local-pref (descending), AS
        path length, MED (absent compares as 0), eBGP over iBGP, IGP
        hop count to the next hop, advertising router id.
        """
        return (
            0 if route.originated else 1,
            -route.local_pref,
            len(route.path),
            route.med or 0,
            0 if (route.ebgp or route.originated) else 1,
            self._igp_hops(router.name, route.next_hop),
            advertiser_id,
        )

    def best_route(self, router: SimRouter, prefix: str) -> Optional[Route]:
        candidates: list[tuple[tuple, Route]] = []
        origin = router.origin_routes.get(prefix)
        if origin is not None:
            candidates.append(
                (self._decision_key(router, router.router_id, origin), origin)
            )
        for neighbor, route in router.rib_in_routes(prefix):
            advertiser = self.routers[neighbor].router_id
            candidates.append((self._decision_key(router, advertiser, route), route))
        if not candidates:
            return None
        return min(candidates, key=lambda c: c[0])[1]

    # -- export path -------------------------------------------------------

    def _sends_communities(self, router: SimRouter, session: Session) -> bool:
        if session.kind == IBGP:
            return True
        if session.send_communities is not None:
            return session.send_communities
        return router.profile.forwards_communities_ebgp_default

    def outgoing_message(
        self, router: SimRouter, session: Session, route: Route
    ) -> Announcement:
        """Egress transform: policy, community gate, path and next hop."""
        neighbor = session.peer_of(router.name)
        communities = router.apply_policies("egress", neighbor, route.communities)
        if session.kind == EBGP:
            path = (router.asn,) + route.path
            next_hop = session.addr_of(router.name)
            if not self._sends_communities(router, session):
                communities = ()
        else:
            path = route.path
            next_hop = route.next_hop
        return Announcement(
            prefix=route.prefix,
            path=path,
            communities=communities,
            next_hop=next_hop,
            med=route.med,
        )

    def _exportable(self, router: SimRouter, session: Session, route: Route) -> bool:
        neighbor = session.peer_of(router.name)
        if route.learned_from == neighbor:
            return False
        if session.kind == IBGP and not route.ebgp and not route.originated:
            return False  # iBGP-learned routes stay off iBGP sessions
        return True

    def _emit(self, sender: str, receiver: str, message: Message) -> None:
        self.log.append(LogEntry(self.time, self.seq, sender, receiver, message))
        self.seq += 1
        self.queue.append((sender, receiver, message))

    def export_prefix(
        self,
        router: SimRouter,
        prefix: str,
        prev_route: Optional[Route],
        only_session: Optional[Session] = None,
    ) -> None:
        """Advertise/withdraw one prefix after a Loc-RIB change.

        prev_route is the replaced Loc-RIB entry; the community-change
        suppression rule needs to know whether its next hop moved.
        """
        route = router.loc_rib.get(prefix)
        sessions = [only_session] if only_session else self.sessions_of(router.name)
        for session in sessions:
            if not session.up:
                continue
            neighbor = session.peer_of(router.name)
            key = (neighbor, prefix)
            last = router.last_sent.get(key)
            if route is None or not self._exportable(router, session, route):
                if isinstance(last, Announcement):
                    withdrawal = Withdrawal(prefix)
                    router.last_sent[key] = withdrawal
                    self._emit(router.name, neighbor, withdrawal)
                continue
            candidate = self.outgoing_message(router, session, route)
            profile = router.profile
            if profile.maintains_adj_rib_out and candidate == last:
                continue
            if (
                profile.suppress_dup_on_community_change_only
                and candidate == last
                and prev_route is not None
                and prev_route.next_hop == route.next_hop
            ):
                continue
            router.last_sent[key] = candidate
            self._emit(router.name, neighbor, candidate)

    def _reevaluate(
        self, router: SimRouter, prefix: str, only_session: Optional[Session] = None
    ) -> None:
        prev = router.loc_rib.get(prefix)
        best = self.best_route(router, prefix)
        if best is None:
            if prev is None:
                return
            del router.loc_rib[prefix]
            self.export_prefix(router, prefix, prev)
            return
        if best == prev and only_session is None:
            return
        router.loc_rib[prefix] = best
        if best == prev:
            # unchanged best, but a fresh session needs the table
            self.export_prefix(router, prefix, prev, only_session)
        else:
            self.export_prefix(router, prefix, prev)

    # -- message receipt ----------------------------------------------------

    def _receive(self, sender: str, receiver: str, message: Message) -> None:
        router = self.routers[receiver]
        session = self.session_between(sender, receiver)
        if not session.up:
            return
        key = (sender, message.prefix)
        if isinstance(message, Withdrawal):
            if key not in router.adj_rib_in:
                return
            del router.adj_rib_in[key]
            self._reevaluate(router, message.prefix)
            return
        if router.asn in message.path:
            # loop detected: the route is unusable, treat as withdrawal
            if key in router.adj_rib_in:
                del router.adj_rib_in[key]
                self._reevaluate(router, message.prefix)
            return
        communities = router.apply_policies("ingress", sender, message.communities)
        incoming = Route(
            prefix=message.prefix,
            path=message.path,
            communities=communities,
            next_hop=message.next_hop,
            med=message.med,
            learned_from=sender,
            ebgp=session.kind == EBGP,
        )
        if router.adj_rib_in.get(key) == incoming:
            return  # no change, ignore
        router.adj_rib_in[key] = incoming
        self._reevaluate(router, message.prefix)

    # -- events and the loop -------------------------------------------------

    def _drain(self) -> None:
        processed = 0
        while self.queue:
            sender, receiver, message = self.queue.popleft()
            self._receive(sender, receiver, message)
            processed += 1
            if processed > self.max_messages_per_event:
                raise NonConvergence(
                    f"{processed} messages after one event; policy loop likely"
                )

    def _affected_prefixes(self, router: SimRouter, neighbor: str) -> list[str]:
        return sorted(
            {p for (n, p) in router.adj_rib_in if n == neighbor}
        )

    def apply_event(self, event: SimEvent) -> None:
        self.time = event.at
        if event.kind == "announce_origin":
            self.set_origin(event.router, event.prefix)
            self._reevaluate(self.routers[event.router], event.prefix)
        elif event.kind == "withdraw_origin":
            router = self.routers[event.router]
            router.origin_routes.pop(event.prefix, None)
            self._reevaluate(router, event.prefix)
        elif event.kind == "link_down":
            session = self.session_between(event.a, event.b)
            session.up = False
            for name in (session.a, session.b):
                router = self.routers[name]
                neighbor = session.peer_of(name)
                prefixes = self._affected_prefixes(router, neighbor)
                for prefix in prefixes:
                    del router.adj_rib_in[(neighbor, prefix)]
                router.last_sent = {
                    k: v for k, v in router.last_sent.items() if k[0] != neighbor
                }
                for prefix in prefixes:
                    self._reevaluate(router, prefix)
        elif event.kind == "link_up":
            session = self.session_between(event.a, event.b)
            session.up = True
            for name in (session.a, session.b):
                router = self.routers[name]
                prefixes = sorted(
                    set(router.loc_rib) | set(router.origin_routes)
                )
                for prefix in prefixes:
                    self._reevaluate(router, prefix, only_session=session)
        else:
            raise ScenarioError(f"unknown event kind {event.kind!r}")
        self._drain()

    def announce_origins(self) -> None:
        """Propagate pre-configured origin routes (initial convergence)."""
        for router in self.routers.values():
            for prefix in sorted(router.origin_routes):
                self._reevaluate(router, prefix)
        self._drain()

    def run(self, events: Iterable[SimEvent] = ()) -> CaptureLog:
        self.announce_origins()
        for event in sorted(events, key=lambda e: e.at):
            self.apply_event(event)
        return self.log
