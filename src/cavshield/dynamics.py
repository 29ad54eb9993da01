"""Kinematic bicycle integration and the nominal controllers mapping each
discrete action to a continuous input u = [accel, steer]."""

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import kernels
from .world import Path


class NoAdjacentLane(Exception):
    """Lane-change requested at a road edge; the action is unavailable."""


@dataclass
class ControlInput:
    accel: float  # m/s^2
    steer: float  # rad


@dataclass
class DynamicsParams:
    """Integration and controller constants (see the harness config file)."""

    dt: float = 0.05
    accel_min: float = -6.0
    accel_max: float = 4.0
    steer_min: float = -0.5
    steer_max: float = 0.5
    # Lane keeping: proportional terms on lateral offset and heading error.
    k_lat: float = 0.08
    k_head: float = 0.6
    # Lane change: pursuit point this far ahead on the target lane.
    lookahead: float = 15.0
    # BRAKE commands this fraction of max deceleration.
    brake_value: float = 0.5
    # Speed-hold actions (keep lane / lane change) may regulate accel
    # within +/- this band; gives each action a distinct feasible range.
    hold_band: float = 1.0
    # Wheelbase as a fraction of body length, c.g. at its midpoint.
    wheelbase_frac: float = 0.6

    @property
    def max_brake(self):
        """Magnitude of the strongest admissible deceleration."""
        return abs(self.accel_min)

    def wheelbase(self, length):
        return self.wheelbase_frac * length

    def rear_axle(self, length):
        return 0.5 * self.wheelbase_frac * length

    def clamp(self, u):
        return ControlInput(
            accel=min(max(u.accel, self.accel_min), self.accel_max),
            steer=min(max(u.steer, self.steer_min), self.steer_max),
        )


class ActionSpace:
    """KEEP-LANE-SPEED, CHANGE-LANE-LEFT, CHANGE-LANE-RIGHT, BRAKE, then k
    throttle intervals [(j-1)/k, j/k] of [0, accel_max] (0-based indices)."""

    KEEP = 0
    LEFT = 1
    RIGHT = 2
    BRAKE = 3
    # Sentinel outside the action set; executed as full braking, zero steer.
    EMERGENCY = -1

    def __init__(self, k=3):
        if k < 1:
            raise ValueError("need at least one throttle interval")
        self.k = k

    @property
    def n(self):
        return 4 + self.k

    def actions(self):
        return list(range(self.n))

    def throttle_interval(self, action):
        """(lo, hi) fraction of full throttle for a throttle action."""
        j = action - 3  # 1-based throttle slot
        if not 1 <= j <= self.k:
            raise ValueError(f"action {action} is not a throttle action")
        return ((j - 1) / self.k, j / self.k)

    def name(self, action):
        if action == self.EMERGENCY:
            return "EMERGENCY_STOP"
        base = ["KEEP_LANE_SPEED", "CHANGE_LANE_LEFT", "CHANGE_LANE_RIGHT", "BRAKE"]
        if action < 4:
            return base[action]
        lo, hi = self.throttle_interval(action)
        return f"THROTTLE[{lo:.2f},{hi:.2f}]"


@dataclass
class LaneContext:
    """Current lane centerline plus adjacent-lane centerlines (if any)."""

    current: Path
    left: Optional[Path] = None
    right: Optional[Path] = None


def lane_context(road, lane_id):
    """LaneContext of a road lane; a side is None at a road edge."""
    left = road.adjacent(lane_id, "left")
    right = road.adjacent(lane_id, "right")
    return LaneContext(
        current=road.path(lane_id),
        left=road.path(left) if left is not None else None,
        right=road.path(right) if right is not None else None,
    )


def step_bicycle(state, u, dt, params):
    """One explicit-Euler kinematic-bicycle step; input clamped to the box."""
    u = params.clamp(u)
    nx, ny, nv, npsi = kernels.step_bicycle(
        state.x, state.y, state.v, state.psi, u.accel, u.steer,
        dt, params.rear_axle(state.length), params.wheelbase(state.length),
    )
    return replace(state, x=nx, y=ny, v=nv, psi=npsi)


def lane_keep_steer(state, path, params):
    """Proportional law on lateral offset and heading error."""
    s, d = path.project(state.x, state.y)
    head_err = kernels.wrap_angle(state.psi - path.heading_at(s))
    return -params.k_lat * d - params.k_head * head_err


def pursuit_steer(state, target_path, params):
    """Pure pursuit of a point `lookahead` meters ahead on target_path."""
    s, _ = target_path.project(state.x, state.y)
    tx, ty = target_path.point_at(s + params.lookahead)
    eta = kernels.wrap_angle(math.atan2(ty - state.y, tx - state.x) - state.psi)
    wheelbase = params.wheelbase(state.length)
    curvature = 2.0 * math.sin(eta) / params.lookahead
    return math.atan(wheelbase * curvature)


def nominal_accel(action, params, space=None):
    """Reference acceleration of a discrete action, before clamping."""
    space = space or ActionSpace()
    if action in (ActionSpace.KEEP, ActionSpace.LEFT, ActionSpace.RIGHT):
        return 0.0
    if action == ActionSpace.BRAKE:
        return params.brake_value * params.accel_min
    lo, hi = space.throttle_interval(action)
    return 0.5 * (lo + hi) * params.accel_max


def nominal_control(state, action, lane_ctx, params, space=None):
    """Reference input for a discrete action, clamped to the admissible box:
    nominal_accel, with pure-pursuit steer toward the target lane for a lane
    change and lane-keep steer otherwise.

    Raises NoAdjacentLane when a lane change points off the road edge.
    """
    if action == ActionSpace.EMERGENCY:
        return emergency_control(params)
    if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
        target = lane_ctx.left if action == ActionSpace.LEFT else lane_ctx.right
        if target is None:
            raise NoAdjacentLane(
                f"no {'left' if action == ActionSpace.LEFT else 'right'} lane"
            )
        steer = pursuit_steer(state, target, params)
    else:
        steer = lane_keep_steer(state, lane_ctx.current, params)
    return params.clamp(
        ControlInput(nominal_accel(action, params, space), steer)
    )


def action_accel_bounds(action, params, space=None):
    """Acceleration range an action's actuator may command.

    The shield's per-action check searches this band, so an action is
    unsafe exactly when no input consistent with its meaning satisfies
    the barriers: throttle actions own their interval of [0, accel_max],
    BRAKE owns [brake_value * accel_min, 0], and the speed-hold actions
    (keep lane, lane changes) a +/- hold_band regulation window.
    """
    space = space or ActionSpace()
    if action in (ActionSpace.KEEP, ActionSpace.LEFT, ActionSpace.RIGHT):
        return (-params.hold_band, params.hold_band)
    if action == ActionSpace.BRAKE:
        return (params.brake_value * params.accel_min, 0.0)
    lo, hi = space.throttle_interval(action)
    return (lo * params.accel_max, hi * params.accel_max)


def emergency_control(params):
    """Maximal deceleration, zero steer."""
    return ControlInput(params.accel_min, 0.0)


def speed_tracking_control(state, v_ref, path, params, gain=1.5):
    """Scripted keep-lane controller holding a reference speed (UCVs)."""
    accel = gain * (v_ref - state.v)
    return params.clamp(ControlInput(accel, lane_keep_steer(state, path, params)))
