"""Measurement-robust CBF safety shield.

Per agent and per discrete action, the shield checks whether some input in
the action's accel band satisfies every barrier constraint

    dh/dt + L_f h + L_g h . u - A(h, eps) >= -gamma * h

where A = lipschitz_sum * epsilon is the buffer absorbing bounded
observation error.  Barriers are longitudinal (safety-following and
safety-leading distances), so each constraint bounds the acceleration
alone: the rows of the current lane and of each adjacent lane are built
once per agent and step, and each action's verdict is the projection QP
kernels.solve_qp_2d of its nominal input onto them and its input box.
Crossing traffic is folded in by transforming each crossing vehicle into
a pseudo car on the ego path.  An empty safe set falls back to
Emergency_stop (full braking, zero steer) and is fed back to the MARL as
a penalty.
"""

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .dynamics import ActionSpace, ControlInput, DynamicsParams, NoAdjacentLane, action_accel_bounds, emergency_control, lane_context, nominal_accel, nominal_control
from .world import OutOfCorridor

FRONT = "front"
REAR = "rear"

# Alignment cone: targets heading within this of the ego lane direction are
# same-direction traffic, anything else goes through the pseudo-car
# transform.
ALIGN_CONE = math.pi / 4

# Distinct audits calibrate_lipschitz_sum keeps (one per config in use).
LIPSCHITZ_MEMO_SIZE = 16


@dataclass
class ShieldConfig:
    c1: float = 1.0  # reaction-delay coefficient [s]
    c2: float = 1.0  # braking-differential weight
    c3: float = 2.0  # standstill margin [m]
    gamma_cbf: float = 1.0  # linear class-K gain [1/s]
    epsilon: float = 0.0  # assumed observation-error 2-norm bound [m]
    lipschitz_sum: Optional[float] = None  # None -> empirical calibration
    horizon: float = 60.0  # pseudo-car generation range [m]
    conflict_radius: float = 2.5  # "inside the conflict region" radius [m]
    v_max: float = 15.0  # speed bound used by the Lipschitz audit
    p_col: float = -200.0  # collision penalty (per event, per involved agent)
    p_sas: float = -10.0  # emergency-stop penalty per step

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "gamma_cbf", "epsilon"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.lipschitz_sum is not None and self.lipschitz_sum < 0:
            raise ValueError("lipschitz_sum must be >= 0")


@dataclass
class PseudoCar:
    """A crossing vehicle mapped onto the ego path as a virtual same-lane
    vehicle: s = conflict arc-length minus the target's remaining distance,
    v = its speed component toward the conflict point."""

    s: float
    v: float
    source_id: str


@dataclass
class BarrierTarget:
    role: str  # FRONT or REAR
    gap: float  # bumper-to-bumper along the relevant path [m]
    speed: float  # target speed along the path (possibly perturbed)
    source_id: str
    kind: str = "lane"  # "lane" or "pseudo"

    @property
    def label(self):
        return f"{self.role}:{self.kind}:{self.source_id}"


@dataclass
class ActionVerdict:
    safe: bool
    u: Optional[object] = None  # filtered ControlInput when safe
    binding: Optional[str] = None
    unavailable: bool = False


@dataclass
class SafetyOutcome:
    safe_sets: dict = field(default_factory=dict)  # agent -> [action ids]
    safety_reward: dict = field(default_factory=dict)  # agent -> P^SAS part
    emergency: dict = field(default_factory=dict)  # agent -> bool
    verdicts: dict = field(default_factory=dict)  # agent -> {action -> verdict}
    controls: dict = field(default_factory=dict)  # agent -> {action -> input}


def safety_distance_follow(v, v_f, cfg, dyn):
    """Required gap to a front vehicle: reaction delay plus the hard-braking
    differential plus the standstill margin (never clamped)."""
    brake = dyn.max_brake
    return cfg.c1 * v + cfg.c2 * (v * v / (2.0 * brake) - v_f * v_f / (2.0 * brake)) + cfg.c3


def safety_distance_lead(v, v_r, cfg, dyn):
    """Mirror of the following distance with ego and rear roles swapped."""
    brake = dyn.max_brake
    return cfg.c1 * v_r + cfg.c2 * (v_r * v_r / (2.0 * brake) - v * v / (2.0 * brake)) + cfg.c3


def barrier_values(ego, targets, cfg, dyn):
    """h per target; positive means inside the safe set."""
    out = []
    for t in targets:
        if t.role == FRONT:
            out.append(t.gap - safety_distance_follow(ego.v, t.speed, cfg, dyn))
        else:
            out.append(t.gap - safety_distance_lead(ego.v, t.speed, cfg, dyn))
    return out


def robust_buffer(cfg):
    """A(h, eps): Lipschitz sum times the assumed error bound."""
    if cfg.lipschitz_sum is None:
        raise ValueError("lipschitz_sum unresolved; call resolve_lipschitz first")
    return cfg.lipschitz_sum * cfg.epsilon


def follow_constraint_terms(v, v_f, gap, cfg, dyn):
    """(alpha coefficient, constant) of the h_f constraint left side.

    The barrier is longitudinal, so steering does not appear; the target's
    own acceleration is treated as exogenous and dropped.
    """
    h = gap - safety_distance_follow(v, v_f, cfg, dyn)
    coef = -(cfg.c1 + cfg.c2 * v / dyn.max_brake)
    const = v_f - v + cfg.gamma_cbf * h
    return coef, const


def lead_constraint_terms(v, v_r, gap, cfg, dyn):
    h = gap - safety_distance_lead(v, v_r, cfg, dyn)
    coef = cfg.c2 * v / dyn.max_brake
    const = v - v_r + cfg.gamma_cbf * h
    return coef, const


class BarrierRows(NamedTuple):
    """Barrier constraints coef * alpha >= b on the ego acceleration alpha."""

    labeled: tuple  # (coef, b, label) per barrier, in target order

    @classmethod
    def of(cls, labeled):
        """Rows from (coef, b, label) triples; coef and b must be finite."""
        labeled = tuple(labeled)
        for coef, b, _ in labeled:
            if not (math.isfinite(coef) and math.isfinite(b)):
                raise ValueError(f"barrier row ({coef!r}, {b!r}) is not finite")
        return cls(labeled)

    def join(self, other):
        """The rows of both sets, self's first."""
        return BarrierRows(self.labeled + other.labeled)


def constraint_rows(ego_v, targets, cfg, dyn):
    """BarrierRows encoding coef*alpha >= A - const per barrier target."""
    buf = robust_buffer(cfg)
    rows = []
    for t in targets:
        if t.role == FRONT:
            coef, const = follow_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        else:
            coef, const = lead_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        rows.append((coef, buf - const, t.label))
    return BarrierRows.of(rows)


def calibrate_lipschitz_sum(cfg, dyn, n_samples=10000, seed=0, safety_factor=1.5):
    """Empirical audit of the constraint left side's sensitivity to the
    perturbable observation pair (gap, target speed).

    Samples random states and finite perturbations, takes the worst
    |delta(left side)| / ||delta||, and pads it by safety_factor.  The
    audit is memoized on every ShieldConfig and DynamicsParams field and
    the arguments (values of different types kept apart), so each episode
    of a run reuses the same float instead of sampling again.
    """
    return _lipschitz_audit(
        n_samples, seed, safety_factor, *_field_values(cfg), *_field_values(dyn)
    )


def _field_values(obj):
    return tuple(getattr(obj, f.name) for f in fields(obj))


@functools.lru_cache(maxsize=LIPSCHITZ_MEMO_SIZE, typed=True)
def _lipschitz_audit(n_samples, seed, safety_factor, *values):
    n_cfg = len(fields(ShieldConfig))
    cfg = ShieldConfig(*values[:n_cfg])
    dyn = DynamicsParams(*values[n_cfg:])
    rng = np.random.default_rng(seed)
    n = n_samples
    v = rng.uniform(0.0, cfg.v_max, n)
    gap = rng.uniform(0.0, cfg.horizon, n)
    speed = rng.uniform(0.0, cfg.v_max, n)
    alpha = rng.uniform(dyn.accel_min, dyn.accel_max, n)
    radius = cfg.epsilon if cfg.epsilon > 0 else 1.0
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    r = rng.uniform(1e-6, radius, n)
    dg = r * np.cos(ang)
    dv = r * np.sin(ang)

    worst = 0.0
    for terms in (follow_constraint_terms, lead_constraint_terms):
        c0, k0 = terms(v, speed, gap, cfg, dyn)
        c1, k1 = terms(v, speed + dv, gap + dg, cfg, dyn)
        f0 = k0 + c0 * alpha
        f1 = k1 + c1 * alpha
        worst = max(worst, float(np.max(np.abs(f1 - f0) / r)))
    return safety_factor * worst


def resolve_lipschitz(cfg, dyn):
    """Fill in lipschitz_sum via the startup audit when unset."""
    if cfg.lipschitz_sum is not None:
        return cfg
    return replace(cfg, lipschitz_sum=calibrate_lipschitz_sum(cfg, dyn))


def pseudo_car_transform(ego_path, ego_s, target_pos, target_psi, target_speed,
                         cfg, back_margin=0.0):
    """Map a crossing vehicle onto the ego path.

    Finds where the target's travel line crosses the ego path within
    [ego_s - back_margin, ego_s + horizon]; the pseudo car sits at the
    conflict arc-length minus the target's remaining distance, moving at
    its speed component toward the conflict.  Returns None when there is
    no such conflict or the target has passed it and is receding.
    """
    px, py = target_pos
    dx, dy = math.cos(target_psi), math.sin(target_psi)
    best = None  # (s_c, d_t)
    for ax, ay, sx, sy, seg_len, s_start in ego_path.segments:
        denom = dx * sy - dy * sx
        if abs(denom) < 1e-12:
            continue
        rx, ry = ax - px, ay - py
        t = (rx * sy - ry * sx) / denom
        u = (rx * dy - ry * dx) / denom
        if not 0.0 <= u <= 1.0:
            continue
        s_c = s_start + u * seg_len
        if not (ego_s - back_margin <= s_c <= ego_s + cfg.horizon):
            continue
        if best is None or s_c < best[0]:
            best = (s_c, t)
    if best is None:
        return None
    s_c, d_t = best
    closing = target_speed if d_t >= 0.0 else -target_speed
    inside = abs(d_t) <= cfg.conflict_radius
    if not inside and closing <= 0.0:
        return None
    return PseudoCar(s=s_c - d_t, v=closing, source_id=None)


def check_action_safe(u0, rows, accel_bounds, dyn):
    """Verdict of one action: Safe with the filtered input, or Unsafe.

    The input box is the action's own accel band accel_bounds (see
    dynamics.action_accel_bounds) times the steer range; the action is
    safe when some input in the box satisfies every row of rows (a
    BarrierRows), and its filtered input is the projection of u0 onto
    that set (kernels.solve_qp_2d, each row as (coef, 0.0, b)).  Steer
    enters no row, so it passes through.  The binding row is the one with
    least slack at the filtered input (at u0 when unsafe); the first such
    row wins a tie.
    """
    if not (math.isfinite(u0.accel) and math.isfinite(u0.steer)):
        raise ValueError(f"nominal input {u0!r} is not finite")
    lo, hi = accel_bounds
    if not (lo <= hi and dyn.steer_min <= dyn.steer_max):  # also NaN
        raise ValueError(f"empty input box {accel_bounds!r} x "
                         f"{(dyn.steer_min, dyn.steer_max)!r}")
    status, ux, uy, _ = kernels.solve_qp_2d(
        u0.accel, u0.steer, [(coef, 0.0, b) for coef, b, _ in rows.labeled],
        lo, hi, dyn.steer_min, dyn.steer_max,
    )
    if status != kernels.QP_FEASIBLE:
        return ActionVerdict(safe=False, binding=_binding(rows, u0.accel))
    return ActionVerdict(safe=True, u=type(u0)(accel=ux, steer=uy),
                         binding=_binding(rows, ux))


def _binding(rows, alpha):
    """Label of the row with least slack coef * alpha - b, the first on a
    tie (as min() picks it)."""
    label = None
    for coef, b, row_label in rows.labeled:
        slack = coef * alpha - b
        if label is None or slack < least:
            least = slack
            label = row_label
    return label


class EgoView:
    """Ego ground truth reconstructed from the exact self-observation."""

    def __init__(self, obs, road):
        self.id = obs.target_id
        self.x, self.y = obs.world_position()
        self.v = obs.vx
        self.psi = obs.psi
        self.length = obs.length
        self.width = obs.width
        self.lane = obs.lane_detect
        if self.lane is None:
            self.lane = road.lane_of(self.x, self.y, self.psi)


def classify_targets(view, road, ego, cfg):
    """Split observed vehicles into per-lane traffic and pseudo cars.

    Lane assignment favors the target's own lane report (CAVs) and falls
    back to the perturbed position; misaligned targets go through the
    pseudo-car transform against the ego path.
    """
    ego_path = road.path(ego.lane)
    ego_s, _ = ego_path.project(ego.x, ego.y)
    by_lane = {}
    pseudo = []
    back_margin = 0.5 * ego.length + cfg.conflict_radius
    for obs in view.all_targets():
        pos = obs.world_position()
        try:
            s_proj, _ = ego_path.project(*pos)
        except OutOfCorridor:
            s_proj = ego_s
        aligned = abs(
            kernels.wrap_angle(obs.psi - ego_path.heading_at(s_proj))
        ) <= ALIGN_CONE
        if aligned:
            if obs.connected and obs.lane_detect is not None:
                lane = obs.lane_detect
            else:
                lane = road.lane_of(pos[0], pos[1], obs.psi)
            if lane is None:
                continue
            by_lane.setdefault(lane, []).append(obs)
        else:
            pc = pseudo_car_transform(
                ego_path, ego_s, pos, obs.psi, obs.vx, cfg,
                back_margin=back_margin,
            )
            if pc is not None:
                pc.source_id = obs.target_id
                pseudo.append((pc, obs))
    return ego_path, ego_s, by_lane, pseudo


def lane_barrier_targets(ego, lane_path, lane_obs, cfg):
    """Front/rear barrier targets for one lane, bumper-to-bumper gaps."""
    ego_s, _ = lane_path.project(ego.x, ego.y)
    out = []
    for obs in lane_obs:
        try:
            s_j, _ = lane_path.project(*obs.world_position())
        except OutOfCorridor:
            continue
        half = 0.5 * (obs.length + ego.length)
        if s_j >= ego_s:
            out.append(BarrierTarget(FRONT, (s_j - ego_s) - half, obs.vx,
                                     obs.target_id, "lane"))
        else:
            out.append(BarrierTarget(REAR, (ego_s - s_j) - half, obs.vx,
                                     obs.target_id, "lane"))
    return out


def pseudo_barrier_targets(ego, ego_s, pseudo):
    out = []
    for pc, obs in pseudo:
        half = 0.5 * (obs.length + ego.length)
        if pc.s >= ego_s:
            out.append(BarrierTarget(FRONT, (pc.s - ego_s) - half, pc.v,
                                     pc.source_id, "pseudo"))
        else:
            out.append(BarrierTarget(REAR, (ego_s - pc.s) - half, pc.v,
                                     pc.source_id, "pseudo"))
    return out


def agent_safe_set(view, road, cfg, dyn, space):
    """Verdicts of every action of one agent.

    The barrier rows of the current lane (lane and pseudo targets) and of
    each adjacent lane, and the lane-keep steer that KEEP, BRAKE and the
    throttle actions share, are built once; each action is then checked
    against them with its own accel band.
    """
    ego = EgoView(view.self_obs, road)
    ego_path, ego_s, by_lane, pseudo = classify_targets(view, road, ego, cfg)
    lane_ctx = lane_context(road, ego.lane)
    current = constraint_rows(
        ego.v,
        lane_barrier_targets(ego, ego_path, by_lane.get(ego.lane, []), cfg)
        + pseudo_barrier_targets(ego, ego_s, pseudo),
        cfg, dyn,
    )
    keep = nominal_control(ego, ActionSpace.KEEP, lane_ctx, dyn, space)

    verdicts = {}
    controls = {}
    safe = []
    for action in space.actions():
        rows = current
        if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
            try:
                u0 = nominal_control(ego, action, lane_ctx, dyn, space)
            except NoAdjacentLane:
                verdicts[action] = ActionVerdict(safe=False, unavailable=True)
                continue
            side = "left" if action == ActionSpace.LEFT else "right"
            lane = road.adjacent(ego.lane, side)
            rows = current.join(constraint_rows(
                ego.v,
                lane_barrier_targets(ego, road.path(lane),
                                     by_lane.get(lane, []), cfg),
                cfg, dyn,
            ))
        else:
            # nominal_control of this action: the same clamp of its accel,
            # with the lane-keep steer computed once for KEEP.
            u0 = dyn.clamp(ControlInput(nominal_accel(action, dyn, space),
                                        keep.steer))
        verdict = check_action_safe(
            u0, rows, action_accel_bounds(action, dyn, space), dyn
        )
        verdicts[action] = verdict
        if verdict.safe:
            safe.append(action)
            controls[action] = verdict.u

    emergency = not safe
    if emergency:
        safe = [ActionSpace.EMERGENCY]
        controls[ActionSpace.EMERGENCY] = emergency_control(dyn)
    return safe, verdicts, controls, emergency


def safety_shield(joint, road, cfg, dyn, space):
    """Safe action sets, emergency flags and the per-step safety-reward
    feedback for every agent (consumes the possibly-perturbed views)."""
    out = SafetyOutcome()
    for aid, view in joint.views.items():
        safe, verdicts, controls, emergency = agent_safe_set(
            view, road, cfg, dyn, space
        )
        out.safe_sets[aid] = safe
        out.verdicts[aid] = verdicts
        out.controls[aid] = controls
        out.emergency[aid] = emergency
        out.safety_reward[aid] = cfg.p_sas if emergency else 0.0
    return out


def open_shield(joint, dyn, space):
    """Shield-off outcome: every action allowed, nominal inputs pass through."""
    out = SafetyOutcome()
    for aid in joint.views:
        out.safe_sets[aid] = space.actions()
        out.verdicts[aid] = {}
        out.controls[aid] = {}
        out.emergency[aid] = False
        out.safety_reward[aid] = 0.0
    return out
