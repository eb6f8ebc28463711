"""Declarative scenario documents for the simulator.

A scenario is a JSON object:

  {
    "name": "my-lab",
    "default_profile": "default-forwarding",      # name or flag object
    "routers": [
      {"name": "R1", "asn": 64500, "profile": "adj-rib-out",
       "origins": ["203.0.113.0/24"]},
      ...
    ],
    "sessions": [
      {"a": "R1", "b": "R2", "kind": "ebgp", "send_communities": true},
      ...                                          # kind optional: inferred
    ],
    "policies": [
      {"router": "R2", "direction": "ingress", "neighbor": "R1",
       "action": "add_community", "community": "64500:300"},
      ...
    ],
    "events": [
      {"at": 0, "kind": "announce_origin", "router": "R1",
       "prefix": "203.0.113.0/24"},
      {"at": 100, "kind": "link_down", "a": "R1", "b": "R2"}
    ],
    "max_messages_per_event": 10000                # optional
  }

Profile flag objects carry any of maintains_adj_rib_out,
forwards_communities_ebgp_default, suppress_dup_on_community_change_only.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import ScenarioError
from ..mrt.bgp import community_value
from .engine import SimEvent, Simulation
from .lab import PROFILES
from .routing import (
    ACTION_ADD_COMMUNITY,
    ACTION_NONE,
    ACTION_STRIP_ALL,
    PolicyRule,
    RouterProfile,
)

_ACTIONS = (ACTION_ADD_COMMUNITY, ACTION_STRIP_ALL, ACTION_NONE)
_EVENT_KINDS = ("announce_origin", "withdraw_origin", "link_down", "link_up")

_PROFILE_FLAGS = (
    "maintains_adj_rib_out",
    "forwards_communities_ebgp_default",
    "suppress_dup_on_community_change_only",
)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError("missing required key", field=f"{where}.{key}")
    return obj[key]


def _resolve_profile(spec, where: str) -> RouterProfile:
    if spec is None:
        return RouterProfile()
    if isinstance(spec, str):
        profile = PROFILES.get(spec)
        if profile is None:
            raise ScenarioError(
                f"unknown profile {spec!r}; known: {sorted(PROFILES)}", field=where
            )
        return profile
    if isinstance(spec, dict):
        unknown = set(spec) - set(_PROFILE_FLAGS) - {"name"}
        if unknown:
            raise ScenarioError(f"unknown profile flags {sorted(unknown)}", field=where)
        return RouterProfile(name=spec.get("name", "custom"), **{
            flag: bool(spec[flag]) for flag in _PROFILE_FLAGS if flag in spec
        })
    raise ScenarioError("profile must be a name or a flag object", field=where)


def _parse_community(value, where: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return community_value(value)
        except ValueError as exc:
            raise ScenarioError(str(exc), field=where) from exc
    raise ScenarioError("community must be an int or 'high:low'", field=where)


def _parse_event(obj: dict, where: str) -> SimEvent:
    kind = _require(obj, "kind", where)
    if kind not in _EVENT_KINDS:
        raise ScenarioError(
            f"unknown event kind {kind!r}; known: {_EVENT_KINDS}", field=where
        )
    at = _require(obj, "at", where)
    if not isinstance(at, int) or at < 0:
        raise ScenarioError("event time must be a nonnegative integer", field=f"{where}.at")
    if kind in ("announce_origin", "withdraw_origin"):
        return SimEvent(
            at=at,
            kind=kind,
            router=_require(obj, "router", where),
            prefix=_require(obj, "prefix", where),
        )
    return SimEvent(
        at=at, kind=kind, a=_require(obj, "a", where), b=_require(obj, "b", where)
    )


def scenario_from_dict(doc: dict) -> tuple[Simulation, list[SimEvent], str]:
    """Build (simulation, events, name) from a scenario document."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object", field="$")
    name = doc.get("name", "scenario")
    default_profile = _resolve_profile(doc.get("default_profile"), "default_profile")
    sim = Simulation(
        max_messages_per_event=doc.get("max_messages_per_event", 10_000)
    )

    routers = _require(doc, "routers", "$")
    for i, spec in enumerate(routers):
        where = f"routers[{i}]"
        rname = _require(spec, "name", where)
        asn = _require(spec, "asn", where)
        if not isinstance(asn, int) or not 0 < asn < 2**32:
            raise ScenarioError("asn must be a positive 32-bit integer", field=f"{where}.asn")
        profile = (
            _resolve_profile(spec["profile"], f"{where}.profile")
            if "profile" in spec
            else default_profile
        )
        sim.add_router(rname, asn, profile)
        for prefix in spec.get("origins", ()):
            sim.set_origin(rname, prefix)

    for i, spec in enumerate(_require(doc, "sessions", "$")):
        where = f"sessions[{i}]"
        kind = spec.get("kind")
        if kind is not None and kind not in ("ebgp", "ibgp"):
            raise ScenarioError("kind must be ebgp or ibgp", field=f"{where}.kind")
        sim.add_session(
            _require(spec, "a", where),
            _require(spec, "b", where),
            kind,
            spec.get("send_communities"),
        )

    for i, spec in enumerate(doc.get("policies", ())):
        where = f"policies[{i}]"
        router = _require(spec, "router", where)
        if router not in sim.routers:
            raise ScenarioError(f"unknown router {router!r}", field=f"{where}.router")
        direction = _require(spec, "direction", where)
        if direction not in ("ingress", "egress"):
            raise ScenarioError(
                "direction must be ingress or egress", field=f"{where}.direction"
            )
        action = _require(spec, "action", where)
        if action not in _ACTIONS:
            raise ScenarioError(
                f"unknown action {action!r}; known: {_ACTIONS}", field=f"{where}.action"
            )
        community = None
        if action == ACTION_ADD_COMMUNITY:
            community = _parse_community(
                _require(spec, "community", where), f"{where}.community"
            )
        sim.routers[router].policies.append(
            PolicyRule(direction, _require(spec, "neighbor", where), action, community)
        )

    events = [
        _parse_event(spec, f"events[{i}]")
        for i, spec in enumerate(doc.get("events", ()))
    ]
    for i, event in enumerate(events):
        for ref in (event.router, event.a, event.b):
            if ref is not None and ref not in sim.routers:
                raise ScenarioError(f"unknown router {ref!r}", field=f"events[{i}]")
    return sim, events, name


def load_scenario(path: Union[str, Path]) -> tuple[Simulation, list[SimEvent], str]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}", field=str(path)) from exc
    return scenario_from_dict(doc)
