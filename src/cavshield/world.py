"""Ground-truth world model: vehicle states, lane paths, collision
detection, joint-state assembly and agent-local observations.

Observations are expressed in the observed vehicle's travel-aligned frame
(x along its heading), which is the axis measurement errors act on.
"""

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels

# Projection corridor: points farther than this from a path have no
# well-defined lane coordinate.
CORRIDOR_RADIUS = 50.0

DEFAULT_LENGTH = 4.5
DEFAULT_WIDTH = 2.0

# Entries RoadMap.lane_of remembers before it starts over (about 15
# lookups run per step).
LANE_MEMO_SIZE = 256
_MISS = object()


class OutOfCorridor(Exception):
    """Point is too far from the path for a unique arc-length projection."""


@dataclass
class VehicleState:
    """Pose and speed of one vehicle in the world frame."""

    id: str
    x: float
    y: float
    v: float
    psi: float
    length: float = DEFAULT_LENGTH
    width: float = DEFAULT_WIDTH
    connected: bool = False

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"vehicle {self.id}: v must be >= 0, got {self.v}")
        if self.length <= 0 or self.width <= 0:
            raise ValueError(f"vehicle {self.id}: extents must be positive")


class Path:
    """Polyline lane centerline with arc-length parameterization.

    The geometry runs on plain floats: each segment is cached as
    (ax, ay, sx, sy, seg_len, s_start), i.e. its start point, direction
    vector, length and the arc length where it begins, and its heading is
    computed once.  Polylines have one or two segments, where numpy's
    per-call overhead would dominate.
    """

    def __init__(self, waypoints, lane_id=None, signal=None):
        pts = np.asarray(waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("waypoints must be an (N>=2, 2) array")
        segments = []
        s_start = 0.0
        coords = pts.tolist()
        for (ax, ay), (bx, by) in zip(coords, coords[1:]):
            sx, sy = bx - ax, by - ay
            seg_len = math.sqrt(sx * sx + sy * sy)
            if seg_len <= 0:
                raise ValueError("consecutive waypoints must be distinct")
            segments.append((ax, ay, sx, sy, seg_len, s_start))
            s_start += seg_len
        if not math.isfinite(s_start):
            raise ValueError("waypoints must be finite")
        self.waypoints = pts
        self.lane_id = lane_id
        self.signal = signal
        self.segments = tuple(segments)
        self.length = s_start
        self._starts = tuple(seg[5] for seg in segments)
        self._headings = tuple(
            math.atan2(sy / seg_len, sx / seg_len)
            for _, _, sx, sy, seg_len, _ in segments
        )

    def project(self, x, y, corridor=CORRIDOR_RADIUS):
        """Nearest-point projection -> (s, d); d > 0 left of travel.

        The first segment wins a distance tie.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"cannot project non-finite point ({x}, {y})")
        best_d2 = math.inf
        for seg in self.segments:
            ax, ay, sx, sy, seg_len, _ = seg
            # The leading 0.0 makes a (-0.0) + (-0.0) dot product +0.0, as
            # numpy's sum gives, so signed zeros match the array version.
            t = (0.0 + (x - ax) * sx + (y - ay) * sy) / (seg_len * seg_len)
            # Clamp by comparison: the same result as min(max(t, 0.0), 1.0),
            # NaN and -0.0 included, without the two builtin calls, which
            # cost more than the rest of the arithmetic here.
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            rx = x - (ax + t * sx)
            ry = y - (ay + t * sy)
            d2 = rx * rx + ry * ry
            if d2 < best_d2:
                best_d2, best, best_t, best_rx, best_ry = d2, seg, t, rx, ry
        dist = math.sqrt(best_d2)
        if dist > corridor:
            raise OutOfCorridor(
                f"point ({x:.1f}, {y:.1f}) is {dist:.1f} m from path "
                f"{self.lane_id!r} (corridor {corridor} m)"
            )
        _, _, sx, sy, seg_len, s_start = best
        s = s_start + best_t * seg_len
        d = (sx / seg_len) * best_ry - (sy / seg_len) * best_rx
        return s, d

    def point_at(self, s):
        """World point at arc length s (clamped to the path ends)."""
        i, f = self._locate(s)
        ax, ay, sx, sy, _, _ = self.segments[i]
        return (ax + f * sx, ay + f * sy)

    def heading_at(self, s):
        """Heading of the segment at arc length s (clamped to the path ends)."""
        i, _ = self._locate(s)
        return self._headings[i]

    def _locate(self, s):
        if s < 0.0:  # as min(max(s, 0.0), length), like project's clamp
            s = 0.0
        elif s > self.length:
            s = self.length
        i = bisect.bisect_right(self._starts, s) - 1
        _, _, _, _, seg_len, s_start = self.segments[i]
        return i, (s - s_start) / seg_len


def detect_collisions(states):
    """Unordered id pairs whose oriented footprints overlap (SAT)."""
    pairs = set()
    items = list(states)
    for i in range(len(items)):
        a = items[i]
        for j in range(i + 1, len(items)):
            b = items[j]
            if kernels.rect_overlap(
                a.x, a.y, a.psi, a.length, a.width,
                b.x, b.y, b.psi, b.length, b.width,
            ):
                pairs.add(tuple(sorted((a.id, b.id))))
    return pairs


@dataclass
class Observation:
    """One agent's knowledge of one vehicle.

    l and v sit in the target's travel-aligned frame; heading/extents ride
    along as unperturbed metadata.  alpha and lane_detect exist only for
    CAV targets.
    """

    target_id: str
    lx: float
    ly: float
    vx: float
    vy: float
    psi: float
    length: float
    width: float
    connected: bool
    alpha: Optional[float] = None
    lane_detect: Optional[object] = None

    def with_error(self, e_l, e_v):
        """Copy with (e_l, e_v) applied along the travel axis only."""
        return Observation(
            target_id=self.target_id,
            lx=self.lx + e_l,
            ly=self.ly,
            vx=self.vx + e_v,
            vy=self.vy,
            psi=self.psi,
            length=self.length,
            width=self.width,
            connected=self.connected,
            alpha=self.alpha,
            lane_detect=self.lane_detect,
        )

    def world_position(self):
        """Rotate (lx, ly) back to the world frame."""
        c, s = math.cos(self.psi), math.sin(self.psi)
        return (c * self.lx - s * self.ly, s * self.lx + c * self.ly)


@dataclass
class AgentView:
    """State s_i of one agent: exact self-observation plus possibly
    perturbed observations of neighbor CAVs and UCVs."""

    agent_id: str
    self_obs: Observation
    cav_obs: dict
    ucv_obs: dict

    def all_targets(self):
        yield from self.cav_obs.values()
        yield from self.ucv_obs.values()


@dataclass
class JointState:
    t: int
    views: dict = field(default_factory=dict)


class RoadMap:
    """Lane centerlines plus left/right adjacency (fixed once built)."""

    def __init__(self, lanes, adjacency=None):
        self.lanes = dict(lanes)
        self.adjacency = adjacency or {}
        self._lane_memo = {}

    def path(self, lane_id):
        return self.lanes[lane_id]

    def adjacent(self, lane_id, side):
        """Neighbor lane id on 'left' or 'right', or None at a road edge."""
        return self.adjacency.get(lane_id, {}).get(side)

    def lane_of(self, x, y, psi=None):
        """Nearest lane whose direction roughly matches psi (if given).

        Answers are remembered by (x, y, psi), at most LANE_MEMO_SIZE of
        them (the memo starts over when full): within one step every
        observer classifies the same shared observation.  The lane id
        depends only on |d| and on the wrapped heading difference, so the
        key's aliasing of 0.0 and -0.0 cannot change it.  A non-finite
        point raises in Path.project before anything is stored, so it
        raises on every call.
        """
        key = (x, y, psi)
        memo = self._lane_memo
        best = memo.get(key, _MISS)
        if best is not _MISS:
            return best
        best = None
        best_d = math.inf
        for lane_id, path in self.lanes.items():
            try:
                s, d = path.project(x, y)
            except OutOfCorridor:
                continue
            if psi is not None:
                diff = abs(kernels.wrap_angle(psi - path.heading_at(s)))
                if diff > math.pi / 4:
                    continue
            if abs(d) < best_d:
                best_d = abs(d)
                best = lane_id
        if len(memo) >= LANE_MEMO_SIZE:
            memo.clear()
        memo[key] = best
        return best


class World:
    """Mutable simulation state: one scenario instance at one time step.

    Crashed vehicles freeze in place and stop accruing reward terms but
    remain physical obstacles; collision events are reported once per pair.
    lane_assignment holds the last lane found for each connected vehicle
    only: it is what a CAV reports as lane_detect, and UCVs report none.
    """

    def __init__(self, road, vehicles, dt=0.05):
        self.road = road
        self.vehicles = {v.id: v for v in vehicles}
        self.dt = dt
        self.t = 0
        self.crashed = set()
        self.last_accel = {v.id: 0.0 for v in vehicles}
        self.lane_assignment = {
            v.id: road.lane_of(v.x, v.y, v.psi) for v in vehicles if v.connected
        }
        self._collided_pairs = set()

    @property
    def cav_ids(self):
        return [vid for vid, v in self.vehicles.items() if v.connected]

    @property
    def ucv_ids(self):
        return [vid for vid, v in self.vehicles.items() if not v.connected]

    def observe(self, target_id):
        """Ground-truth observation of a vehicle in its travel frame."""
        veh = self.vehicles[target_id]
        c, s = math.cos(veh.psi), math.sin(veh.psi)
        lx = c * veh.x + s * veh.y
        ly = -s * veh.x + c * veh.y
        if veh.connected:
            alpha = self.last_accel[target_id]
            lane = self.lane_assignment[target_id]
        else:
            alpha = None
            lane = None
        return Observation(
            target_id=target_id,
            lx=lx,
            ly=ly,
            vx=veh.v,
            vy=0.0,
            psi=veh.psi,
            length=veh.length,
            width=veh.width,
            connected=veh.connected,
            alpha=alpha,
            lane_detect=lane,
        )

    def step(self, controls, dyn):
        """Integrate one step; returns newly collided id pairs."""
        for vid, veh in self.vehicles.items():
            if vid in self.crashed:
                self.last_accel[vid] = 0.0
                continue
            u = controls[vid]
            accel = min(max(u.accel, dyn.accel_min), dyn.accel_max)
            steer = min(max(u.steer, dyn.steer_min), dyn.steer_max)
            nx, ny, nv, npsi = kernels.step_bicycle(
                veh.x, veh.y, veh.v, veh.psi, accel, steer,
                self.dt, dyn.rear_axle(veh.length), dyn.wheelbase(veh.length),
            )
            veh.x, veh.y, veh.v, veh.psi = nx, ny, nv, npsi
            self.last_accel[vid] = accel
            if veh.connected:
                lane = self.road.lane_of(nx, ny, npsi)
                if lane is not None:
                    self.lane_assignment[vid] = lane
        self.t += 1
        pairs = detect_collisions(self.vehicles.values())
        new = pairs - self._collided_pairs
        self._collided_pairs |= pairs
        for a, b in new:
            self.crashed.add(a)
            self.crashed.add(b)
        return new


def build_joint_state(world, comm_range=200.0, schedule=None):
    """Assemble every agent's s_i.

    Self-observations are always exact; other vehicles' observations get
    the schedule's travel-axis error and are dropped beyond comm_range.
    """
    base = {vid: world.observe(vid) for vid in world.vehicles}
    perturbed = {}
    for vid, obs in base.items():
        err = schedule.error(world.t, vid) if schedule is not None else None
        perturbed[vid] = obs if err is None else obs.with_error(*err)

    views = {}
    for aid in world.cav_ids:
        me = world.vehicles[aid]
        cav_obs = {}
        ucv_obs = {}
        for vid, veh in world.vehicles.items():
            if vid == aid:
                continue
            if math.dist((me.x, me.y), (veh.x, veh.y)) > comm_range:
                continue
            if veh.connected:
                cav_obs[vid] = perturbed[vid]
            else:
                ucv_obs[vid] = perturbed[vid]
        views[aid] = AgentView(
            agent_id=aid,
            self_obs=base[aid],
            cav_obs=cav_obs,
            ucv_obs=ucv_obs,
        )
    return JointState(t=world.t, views=views)
