"""Scenarios: the YAML files under ``harness/data/`` define them.

Each shipped file ``data/<name>.yaml`` is the scenario ``<name>``;
scenario_names() lists them. Keys of a file:

    vehicle_length, vehicle_width   footprint of every vehicle [m]
    lanes         list of {id, waypoints: [[x, y], ...], signal (optional)};
                  the order is the order in which lane lookups break ties
    adjacency     lane id -> {left, right}: neighbour lane id or null
                  (optional; a lane without an entry has no neighbours)
    spawns        list of {id, lane, s, speed: [lo, hi], connected}; CAVs
                  (connected: true) are the agents, in this order
    behaviors     UCV id -> {kind, brake_window, brake_speed} (optional);
                  kind is "constant" (hold the spawn speed, the default) or
                  "sudden_brake" (at a step drawn from brake_window, switch
                  to a reference speed drawn from brake_speed)
    destinations  vehicle id -> [x, y], one for every vehicle
    test          optional {spawns, behaviors} applied in test mode only:
                  each test spawn names an existing vehicle id and replaces
                  the keys it gives, and each test behavior is merged key by
                  key over that vehicle's behavior

A key left out of a spawn or behavior entry takes its default from
SpawnSpec or UcvBehavior; a field without a default is required. The
episode length comes from ``cfg.harness.episode_len`` and the mode from the
caller. A file is rejected with ValueError, naming the key or id, if it has
an unknown key at any level, a spawn, adjacency or override lane that is
not in ``lanes``, a vehicle without a destination (or a destination for an
unknown vehicle), a duplicate lane or vehicle id, an unknown behavior
kind, a behavior for a vehicle that is not a UCV, an override for an
unknown vehicle, a band (speed, brake_window, brake_speed) that is not a
[lo, hi] pair of finite numbers with lo <= hi (brake_window: integers),
or a key given twice in one mapping. Both modes are checked whichever one
is built.
"""

import dataclasses
import functools
import importlib.resources
import math
from dataclasses import dataclass, field
from typing import Optional

import yaml

from ..world import Path, RoadMap, VehicleState, World
from .config import Config

BEHAVIOR_CONSTANT = "constant"
BEHAVIOR_SUDDEN_BRAKE = "sudden_brake"
MODES = ("train", "test")

_DATA = importlib.resources.files(__package__) / "data"


_MERGE = "tag:yaml.org,2002:merge"  # the "<<" key, which may repeat keys


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a mapping giving the same key twice (plain
    YAML keeps the last value silently)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == _MERGE:
                continue
            key = self.construct_object(key_node)
            if key in seen:
                line = key_node.start_mark.line + 1
                raise ValueError(f"duplicate key {key!r} (line {line})")
            seen.add(key)
        return super().construct_mapping(node, deep)


def _parse(text):
    return yaml.load(text, Loader=_UniqueKeyLoader)


@dataclass
class SpawnSpec:
    vehicle_id: str
    lane: str
    s: float
    speed: tuple  # (lo, hi) sampled per episode
    connected: bool


@dataclass
class UcvBehavior:
    kind: str = BEHAVIOR_CONSTANT
    brake_window: tuple = (40, 80)  # step at which braking starts
    brake_speed: tuple = (3.0, 4.0)  # post-brake reference speed


@dataclass
class ScenarioSpec:
    name: str
    road: RoadMap
    cav_spawns: list
    ucv_spawns: list
    behaviors: dict  # ucv id -> UcvBehavior; absent means constant speed
    destinations: dict  # vehicle id -> (x, y)
    episode_len: int
    mode: str
    vehicle_length: float
    vehicle_width: float

    @property
    def agent_ids(self):
        return [s.vehicle_id for s in self.cav_spawns]

    @property
    def ucv_ids(self):
        return [s.vehicle_id for s in self.ucv_spawns]


@dataclass
class UcvPlan:
    """Per-episode sampled script for one UCV."""

    v_ref: float
    brake_step: Optional[int] = None
    brake_speed: Optional[float] = None
    lane: str = ""

    def reference_speed(self, t):
        if self.brake_step is not None and t >= self.brake_step:
            return self.brake_speed
        return self.v_ref


@dataclass
class EpisodeSetup:
    world: World
    plans: dict = field(default_factory=dict)  # ucv id -> UcvPlan


def materialize(spec, rng, dt=0.05):
    """Sample one episode instance: spawn speeds and UCV scripts."""
    vehicles = []
    plans = {}
    for spawn in spec.cav_spawns + spec.ucv_spawns:
        path = spec.road.path(spawn.lane)
        x, y = path.point_at(spawn.s)
        psi = path.heading_at(spawn.s)
        lo, hi = spawn.speed
        v = float(rng.uniform(lo, hi))
        vehicles.append(
            VehicleState(
                id=spawn.vehicle_id, x=x, y=y, v=v, psi=psi,
                length=spec.vehicle_length, width=spec.vehicle_width,
                connected=spawn.connected,
            )
        )
        if not spawn.connected:
            beh = spec.behaviors.get(spawn.vehicle_id, UcvBehavior())
            plan = UcvPlan(v_ref=v, lane=spawn.lane)
            if beh.kind == BEHAVIOR_SUDDEN_BRAKE:
                w0, w1 = beh.brake_window
                plan.brake_step = int(rng.integers(w0, w1 + 1))
                plan.brake_speed = float(rng.uniform(*beh.brake_speed))
            plans[spawn.vehicle_id] = plan
    world = World(spec.road, vehicles, dt=dt)
    return EpisodeSetup(world=world, plans=plans)


@functools.cache
def scenario_names():
    """Names of the shipped scenarios, sorted."""
    return tuple(sorted(
        entry.name.removesuffix(".yaml")
        for entry in _DATA.iterdir() if entry.name.endswith(".yaml")
    ))


def build_scenario(name, mode="train", cfg=None):
    """The shipped scenario `name` (one of scenario_names()) in `mode`."""
    if name not in scenario_names():
        raise ValueError(f"unknown scenario {name!r}; one of {scenario_names()}")
    return _spec(name, _document(name), mode, cfg)


def load_scenario(text, name, mode="train", cfg=None):
    """A scenario from YAML text in the file format above."""
    return _spec(name, _parse(text), mode, cfg)


@functools.cache
def _document(name):
    # Parsing takes about 10 ms against well under 1 ms to build a spec from
    # the document, so each file is parsed once per process; _spec never
    # mutates the document.
    return _parse((_DATA / f"{name}.yaml").read_text())


def _spec(name, doc, mode, cfg):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    where = f"scenario {name!r}"
    _check_keys(
        doc, ("vehicle_length", "vehicle_width", "lanes", "adjacency",
              "spawns", "behaviors", "destinations", "test"),
        where, required=("vehicle_length", "vehicle_width", "lanes", "spawns",
                         "destinations"),
    )
    road = _road(doc["lanes"], doc.get("adjacency") or {}, where)
    spawns = _by_id(doc["spawns"], f"{where} spawns")
    behaviors = doc.get("behaviors") or {}
    test = doc.get("test") or {}
    _check_keys(test, ("spawns", "behaviors"), f"{where} test")
    variants = {
        "train": (spawns, behaviors),
        "test": (
            _merge(spawns, _by_id(test.get("spawns") or [], f"{where} test spawns"),
                   spawns, f"{where} test spawns"),
            _merge(behaviors, test.get("behaviors") or {}, spawns,
                   f"{where} test behaviors"),
        ),
    }
    # Both modes are built so that a bad entry fails whichever mode is asked.
    built = {
        m: _vehicles(m_spawns, m_behaviors, road, f"{where} ({m})")
        for m, (m_spawns, m_behaviors) in variants.items()
    }
    cav_spawns, ucv_spawns, behaviors = built[mode]
    destinations = doc["destinations"]
    _check_keys(destinations, spawns, f"{where} destinations",
                required=spawns, what="vehicle")
    cfg = cfg or Config()
    return ScenarioSpec(
        name=name, road=road, cav_spawns=cav_spawns, ucv_spawns=ucv_spawns,
        behaviors=behaviors,
        destinations={vid: tuple(xy) for vid, xy in destinations.items()},
        episode_len=cfg.harness.episode_len, mode=mode,
        vehicle_length=doc["vehicle_length"],
        vehicle_width=doc["vehicle_width"],
    )


def _check_keys(entry, allowed, where, required=(), what="key"):
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected a mapping, got {entry!r}")
    for key in entry:
        if key not in allowed:
            raise ValueError(f"{where}: unknown {what} {key!r}")
    for key in required:
        if key not in entry:
            raise ValueError(f"{where}: missing {what} {key!r}")


def _by_id(entries, where):
    """id -> entry of a list of mappings that each carry a unique `id`."""
    out = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValueError(f"{where}: entry without an id: {entry!r}")
        if entry["id"] in out:
            raise ValueError(f"{where}: duplicate id {entry['id']!r}")
        out[entry["id"]] = entry
    return out


def _merge(base, overrides, vehicle_ids, where):
    """base with each override merged key by key over its vehicle's entry."""
    _check_keys(overrides, vehicle_ids, where, what="vehicle")
    merged = dict(base)
    for vid, entry in overrides.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected a mapping for {vid!r}")
        merged[vid] = {**base.get(vid, {}), **entry}
    return merged


def _road(lane_entries, adjacency, where):
    lanes = {}
    for lane_id, entry in _by_id(lane_entries, f"{where} lanes").items():
        _check_keys(entry, ("id", "waypoints", "signal"),
                    f"{where} lane {lane_id!r}", required=("waypoints",))
        lanes[lane_id] = Path(entry["waypoints"], lane_id=lane_id,
                              signal=entry.get("signal"))
    _check_keys(adjacency, lanes, f"{where} adjacency", what="lane")
    for lane_id, sides in adjacency.items():
        _check_keys(sides, ("left", "right"), f"{where} adjacency {lane_id!r}")
        _check_lanes(sides.values(), lanes, f"{where} adjacency {lane_id!r}")
    return RoadMap(lanes, {lane: dict(sides) for lane, sides in adjacency.items()})


def _check_lanes(lane_ids, lanes, where):
    for lane_id in lane_ids:
        if lane_id is not None and lane_id not in lanes:
            raise ValueError(f"{where}: unknown lane {lane_id!r}")


def _record(cls, entry, where, **given):
    """cls(**given, **entry): the entry's keys are cls's other fields, a
    field without a dataclass default is required, and lists become tuples."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _check_keys(entry, [f.name for f in fields], where, required=[
        f.name for f in fields if f.default is dataclasses.MISSING
    ])
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in entry.items()}
    return cls(**given, **values)


def _check_band(value, where, key, types=(int, float)):
    """value must be a (lo, hi) pair of finite `types` numbers, lo <= hi."""
    ok = (
        isinstance(value, tuple) and len(value) == 2
        and all(isinstance(x, types) and not isinstance(x, bool)
                and math.isfinite(x) for x in value)
        and value[0] <= value[1]
    )
    if not ok:
        raise ValueError(
            f"{where}: {key!r} must be [lo, hi] with lo <= hi, got {value!r}"
        )


def _vehicles(spawns, behaviors, road, where):
    """(CAV spawns, UCV spawns, behaviors) of one mode's merged entries."""
    cav_spawns, ucv_spawns = [], []
    for vid, entry in spawns.items():
        fields = {k: v for k, v in entry.items() if k != "id"}
        spawn = _record(SpawnSpec, fields, f"{where} spawn {vid!r}", vehicle_id=vid)
        _check_lanes([spawn.lane], road.lanes, f"{where} spawn {vid!r}")
        _check_band(spawn.speed, f"{where} spawn {vid!r}", "speed")
        (cav_spawns if spawn.connected else ucv_spawns).append(spawn)
    _check_keys(behaviors, {s.vehicle_id for s in ucv_spawns},
                f"{where} behaviors", what="UCV")
    out = {}
    for vid, entry in behaviors.items():
        beh = _record(UcvBehavior, entry, f"{where} behavior {vid!r}")
        if beh.kind not in (BEHAVIOR_CONSTANT, BEHAVIOR_SUDDEN_BRAKE):
            raise ValueError(f"{where} behavior {vid!r}: unknown kind {beh.kind!r}")
        _check_band(beh.brake_window, f"{where} behavior {vid!r}",
                    "brake_window", types=(int,))
        _check_band(beh.brake_speed, f"{where} behavior {vid!r}", "brake_speed")
        out[vid] = beh
    return cav_spawns, ucv_spawns, out
