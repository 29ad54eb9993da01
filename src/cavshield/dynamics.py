"""Kinematic bicycle parameters (World.step integrates them with
kernels.step_bicycle), the discrete action space, and the control laws
behind a continuous input u = [accel, steer]: each action's nominal
accel and accel band, the lane-keep and pure-pursuit steer laws (which
shield.nominal_control applies to each maneuver) and the UCVs'
speed-holding controller."""

import math
import numbers
from dataclasses import dataclass, fields

from . import kernels

# Proportional gain [1/s] of the UCVs' speed-holding controller.
SPEED_GAIN = 1.5


def is_finite_real(value):
    """True for a real number, not a bool, that converts to a finite float
    (YAML and JSON also read NaN, infinities and ints beyond a float)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(slots=True)
class ControlInput:
    accel: float  # m/s^2
    steer: float  # rad


@dataclass(frozen=True)
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

    def __post_init__(self):
        # Each action's input box is non-empty only under these bounds.
        for f in fields(self):
            if not is_finite_real(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number")
        for key, ok, rule in (
            ("dt", self.dt > 0, "> 0"),
            ("accel_min", self.accel_min <= 0, "<= 0"),
            ("accel_max", self.accel_max >= 0, ">= 0"),
            ("steer_max", self.steer_min <= self.steer_max, ">= steer_min"),
            ("hold_band", self.hold_band >= 0, ">= 0"),
            ("brake_value", 0 <= self.brake_value <= 1, "in [0, 1]"),
            ("wheelbase_frac", self.wheelbase_frac > 0, "> 0"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}")

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


def lane_keep_steer(state, path, s, d, params):
    """Proportional law on lateral offset and heading error; (s, d) is the
    state's projection onto path."""
    head_err = kernels.wrap_angle(state.psi - path.heading_at(s))
    return -params.k_lat * d - params.k_head * head_err


def pursuit_steer(state, target_path, s, params):
    """Pure pursuit of a point `lookahead` meters ahead on target_path; s is
    the state's arc length there."""
    tx, ty = target_path.point_at(s + params.lookahead)
    eta = kernels.wrap_angle(math.atan2(ty - state.y, tx - state.x) - state.psi)
    wheelbase = params.wheelbase(state.length)
    curvature = 2.0 * math.sin(eta) / params.lookahead
    return math.atan(wheelbase * curvature)


def nominal_accel(action, params, space):
    """Reference acceleration of a discrete action, before clamping."""
    if action in (ActionSpace.KEEP, ActionSpace.LEFT, ActionSpace.RIGHT):
        return 0.0
    if action == ActionSpace.BRAKE:
        return params.brake_value * params.accel_min
    lo, hi = space.throttle_interval(action)
    return 0.5 * (lo + hi) * params.accel_max


def action_accel_bounds(action, params, space):
    """Acceleration range an action's actuator may command.

    The shield's per-action check searches this band, so an action is
    unsafe exactly when no input consistent with its meaning satisfies
    the barriers: throttle actions own their interval of [0, accel_max],
    BRAKE owns [brake_value * accel_min, 0], and the speed-hold actions
    (keep lane, lane changes) a +/- hold_band regulation window.
    """
    if action in (ActionSpace.KEEP, ActionSpace.LEFT, ActionSpace.RIGHT):
        return (-params.hold_band, params.hold_band)
    if action == ActionSpace.BRAKE:
        return (params.brake_value * params.accel_min, 0.0)
    lo, hi = space.throttle_interval(action)
    return (lo * params.accel_max, hi * params.accel_max)


def emergency_control(params):
    """Maximal deceleration, zero steer."""
    return ControlInput(params.accel_min, 0.0)


def speed_tracking_control(state, v_ref, path, params):
    """Scripted keep-lane controller holding a reference speed (UCVs)."""
    accel = SPEED_GAIN * (v_ref - state.v)
    s, d = path.project(state.x, state.y)
    return params.clamp(
        ControlInput(accel, lane_keep_steer(state, path, s, d, params)))
