"""Measurement-robust CBF safety shield.

Per agent and per discrete action, a projection QP checks whether the
nominal input can satisfy every barrier constraint

    dh/dt + L_f h + L_g h . u - A(h, eps) >= -gamma * h

where A = lipschitz_sum * epsilon is the buffer absorbing bounded
observation error.  Barriers are longitudinal (safety-following and
safety-leading distances); crossing traffic is folded in by transforming
each crossing vehicle into a pseudo car on the ego path.  An empty safe
set falls back to Emergency_stop (full braking, zero steer) and is fed
back to the MARL as a penalty.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import kernels, qp
from .dynamics import ActionSpace, NoAdjacentLane, action_accel_bounds, emergency_control, lane_context, nominal_control
from .world import OutOfCorridor

FRONT = "front"
REAR = "rear"

# Alignment cone: targets heading within this of the ego lane direction are
# same-direction traffic, anything else goes through the pseudo-car
# transform.
ALIGN_CONE = math.pi / 4


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


def constraint_rows(ego_v, targets, cfg, dyn):
    """QP rows (a, b, label) encoding coef*alpha >= A - const per barrier."""
    buf = robust_buffer(cfg)
    rows = []
    for t in targets:
        if t.role == FRONT:
            coef, const = follow_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        else:
            coef, const = lead_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        rows.append(((coef, 0.0), buf - const, t.label))
    return rows


def calibrate_lipschitz_sum(cfg, dyn, n_samples=10000, seed=0, safety_factor=1.5):
    """Empirical audit of the constraint left side's sensitivity to the
    perturbable observation pair (gap, target speed).

    Samples random states and finite perturbations, takes the worst
    |delta(left side)| / ||delta||, and pads it by safety_factor.
    """
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


def check_action_safe(ego_v, u0, targets, cfg, dyn, accel_bounds=None):
    """Per-action CBF-QP: Safe with the filtered input, or Unsafe.

    accel_bounds narrows the input box to the action's own command range
    (see dynamics.action_accel_bounds); feasibility then answers "can this
    action be actuated without leaving the safe set".
    """
    lo, hi = accel_bounds if accel_bounds is not None else (
        dyn.accel_min, dyn.accel_max
    )
    rows = constraint_rows(ego_v, targets, cfg, dyn)
    problem = qp.QpProblem(
        u0=(u0.accel, u0.steer),
        constraints=[(a, b) for a, b, _ in rows],
        bounds=((lo, hi), (dyn.steer_min, dyn.steer_max)),
    )
    result = qp.solve(problem)
    if not result.feasible:
        binding = _min_slack_row(rows, (u0.accel, u0.steer))
        return ActionVerdict(safe=False, binding=binding)
    u = type(u0)(accel=float(result.u[0]), steer=float(result.u[1]))
    binding = _min_slack_row(rows, result.u)
    return ActionVerdict(safe=True, u=u, binding=binding)


def _min_slack_row(rows, u):
    """Constraint id with least slack at u (the binding / most violated)."""
    if not rows:
        return None
    return min(rows, key=lambda r: r[0][0] * u[0] + r[0][1] * u[1] - r[1])[2]


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
    """Loop all actions through the CBF-QP for one agent."""
    ego = EgoView(view.self_obs, road)
    ego_path, ego_s, by_lane, pseudo = classify_targets(view, road, ego, cfg)
    lane_ctx = lane_context(road, ego.lane)
    current_targets = lane_barrier_targets(
        ego, ego_path, by_lane.get(ego.lane, []), cfg
    ) + pseudo_barrier_targets(ego, ego_s, pseudo)

    verdicts = {}
    controls = {}
    safe = []
    for action in space.actions():
        try:
            u0 = nominal_control(ego, action, lane_ctx, dyn, space)
        except NoAdjacentLane:
            verdicts[action] = ActionVerdict(safe=False, unavailable=True)
            continue
        targets = list(current_targets)
        if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
            side = "left" if action == ActionSpace.LEFT else "right"
            lane = road.adjacent(ego.lane, side)
            targets += lane_barrier_targets(
                ego, road.path(lane), by_lane.get(lane, []), cfg
            )
        verdict = check_action_safe(
            ego.v, u0, targets, cfg, dyn,
            accel_bounds=action_accel_bounds(action, dyn, space),
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
