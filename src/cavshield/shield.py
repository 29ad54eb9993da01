"""Measurement-robust CBF safety shield.

Per agent and per discrete action, the shield checks whether some input in
the action's accel band satisfies every barrier constraint

    dh/dt + L_f h + L_g h . u - A(h, eps) >= -gamma * h

where A = lipschitz_sum * epsilon is the buffer absorbing bounded
observation error.  Barriers are longitudinal (safety-following and
safety-leading distances), so each constraint bounds the acceleration
alone.  Once per episode, the caller builds the action table
(action_table): each action's lane-change side, clamped nominal accel
and accel band, which depend only on the dynamics and the action space;
safety_shield takes it on every step.  Once per agent-step,
nominal_control works out each maneuver (keep the lane, change left or
right): its lane path, the ego's arc length there and its clamped steer.
It is the one definition of an action's nominal input; the harness's
shield-off mode reads it too.  agent_safe_set projects each target onto
the lanes it is checked in, builds the barrier rows of the current lane
and of each adjacent lane, and decides each action by the projection of
its nominal input onto those rows and its input box.  The shared
geometry comes from the observations: every observer of a step holds the
same Observation of a vehicle, which works out its world position once,
its projection once per lane path and its lane once (from those
projections), so no agent's pass repeats another's.  Each row set is one
interval of acceleration (BarrierRows keeps its ends, built in the same
pass as its rows, and the barrier target of each row), so the paper's
CBF-QP of an action is a projection onto a box, the interval times the
steer range, and check_action_safe computes it in closed form.  A
verdict keeps its rows and the accel it was decided at; its binding row
label is worked out from them on each read and never stored (episode
logs read it; training and unlogged evaluation do not).
Crossing traffic is folded in by transforming each crossing vehicle into
a pseudo car on the ego path; lane traffic and pseudo cars then go
through one front/rear split (lane_barrier_targets).  An empty safe set
falls back to Emergency_stop (full braking, zero steer) and is fed back
to the MARL as a penalty.  ShieldConfig, like DynamicsParams, is frozen:
dataclasses.replace derives another, and the Lipschitz audit is memoized
on the two.
"""

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .dynamics import ActionSpace, ControlInput, action_accel_bounds, emergency_control, is_finite_real, lane_keep_steer, nominal_accel, pursuit_steer
from .kernels import DEDUP_TOL, FEAS_TOL
from .world import ALIGN_CONE

FRONT = "front"
REAR = "rear"

# Distinct audits calibrate_lipschitz_sum keeps (one per config in use).
LIPSCHITZ_MEMO_SIZE = 16


@dataclass(frozen=True)
class ShieldConfig:
    c1: float = 1.0  # reaction-delay coefficient [s]
    c2: float = 1.0  # braking-differential weight
    c3: float = 2.0  # standstill margin [m]
    gamma_cbf: float = 1.0  # linear class-K gain [1/s]
    epsilon: float = 2.0  # assumed observation-error 2-norm bound [m]
    lipschitz_sum: Optional[float] = None  # None -> empirical calibration
    horizon: float = 60.0  # pseudo-car generation range [m]
    conflict_radius: float = 2.5  # "inside the conflict region" radius [m]
    v_max: float = 15.0  # speed bound used by the Lipschitz audit
    p_col: float = -200.0  # collision penalty (per event, per involved agent)
    p_sas: float = -10.0  # emergency-stop penalty per step

    def __post_init__(self):
        # Any other value would only fail in the first episode: as a
        # non-finite barrier row, an overflow in the Lipschitz audit or an
        # empty sampling range.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "lipschitz_sum" and value is None:
                continue
            if not is_finite_real(value):
                raise ValueError(f"{f.name} must be a finite number")
        for name in ("c1", "c2", "c3", "gamma_cbf", "epsilon", "lipschitz_sum",
                     "horizon", "v_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")


class PseudoCar(NamedTuple):
    """A crossing vehicle mapped onto the ego path as a virtual same-lane
    vehicle: s = conflict arc-length minus the target's remaining distance,
    v = its speed component toward the conflict point."""

    s: float
    v: float


@dataclass(slots=True)
class BarrierTarget:
    role: str  # FRONT or REAR
    gap: float  # bumper-to-bumper along the relevant path [m]
    speed: float  # target speed along the path (possibly perturbed)
    source_id: str
    kind: str = "lane"  # "lane" or "pseudo"

    @property
    def label(self):
        return f"{self.role}:{self.kind}:{self.source_id}"


@dataclass(slots=True)
class ActionVerdict:
    """Verdict of one action: safe, the filtered ControlInput u when safe,
    the BarrierRows it was decided on and the accel alpha it was decided
    at (None for an unavailable action), and whether the action is
    unavailable."""

    safe: bool
    u: Optional[ControlInput] = None
    rows: Optional["BarrierRows"] = None
    alpha: Optional[float] = None
    unavailable: bool = False

    @property
    def binding(self):
        """Label of the binding row, worked out on each read (only logged
        runs read it); None without rows."""
        return None if self.rows is None else _binding(self.rows, self.alpha)


@dataclass
class SafetyOutcome:
    safe_sets: dict = field(default_factory=dict)  # agent -> [action ids]
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


@dataclass(slots=True)
class BarrierRows:
    """Barrier constraints coef * alpha >= b on the ego acceleration alpha.

    rows holds them as (coef, b) pairs, and targets the barrier target of
    each row (its label names the row).  Steer enters no row, so together
    they admit one interval of alpha, from low to high: low is the largest
    end b / coef of a row with coef > 0 (alpha >= end; -inf for none), and
    high the least end of a row with coef < 0 (alpha <= end; inf for
    none).  blocked marks a row without direction (|coef| < DEDUP_TOL)
    whose b exceeds FEAS_TOL: no input meets it.  The rows are checked
    (coef and b finite) and their ends found in one pass.
    """

    rows: tuple
    targets: tuple
    low: float = field(init=False)
    high: float = field(init=False)
    blocked: bool = field(init=False)

    def __post_init__(self):
        self.rows = tuple(self.rows)
        self.targets = tuple(self.targets)
        low, high, blocked = -math.inf, math.inf, False
        for coef, b in self.rows:
            if not (math.isfinite(coef) and math.isfinite(b)):
                raise ValueError(f"barrier row ({coef!r}, {b!r}) is not finite")
            if abs(coef) < DEDUP_TOL:
                blocked = blocked or b > FEAS_TOL
            elif coef > 0.0:
                low = max(low, b / coef)
            else:
                high = min(high, b / coef)
        self.low = low
        self.high = high
        self.blocked = blocked

    def join(self, other):
        """The rows and targets of both sets, self's first."""
        return BarrierRows(self.rows + other.rows,
                           self.targets + other.targets)


def constraint_rows(ego_v, targets, cfg, dyn):
    """BarrierRows encoding coef*alpha >= A - const per barrier target."""
    buf = robust_buffer(cfg)
    rows = []
    for t in targets:
        if t.role == FRONT:
            coef, const = follow_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        else:
            coef, const = lead_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        rows.append((coef, buf - const))
    return BarrierRows(rows, targets)


@functools.lru_cache(maxsize=LIPSCHITZ_MEMO_SIZE)
def calibrate_lipschitz_sum(cfg, dyn, n_samples=10000, seed=0, safety_factor=1.5):
    """Empirical audit of the constraint left side's sensitivity to the
    perturbable observation pair (gap, target speed).

    Samples random states and finite perturbations, takes the worst
    |delta(left side)| / ||delta||, and pads it by safety_factor.  The
    configs are frozen, so the audit is memoized on its arguments (equal
    configs share an entry), and each episode of a run reuses the same
    float instead of sampling again.
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
    return PseudoCar(s_c - d_t, closing)


def check_action_safe(u0, rows, accel_bounds, dyn):
    """Verdict of one action: Safe with the filtered input, or Unsafe.

    The input box is the action's own accel band accel_bounds (see
    dynamics.action_accel_bounds) times the steer range, which must hold
    u0's steer.  Steer enters no row of rows (a BarrierRows), so the rows
    and the box leave one accel interval [low, high]: the tightest barrier
    end and box edge of each side.  The CBF condition holds for some input
    of the box unless the rows are blocked or low > high; then the action
    is unsafe.  Otherwise the filtered input is the projection of u0 onto
    [low, high] x steer range: u0 itself when its accel lies in
    [low, high], else u0 moved in accel to the end it violates.  The
    binding row is the one with least slack at the filtered accel (at u0's
    when unsafe); the first such row wins a tie.  The verdict works it out
    only when its binding is read.
    """
    x, y = u0.accel, u0.steer
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"nominal input {u0!r} is not finite")
    lo, hi = accel_bounds
    lo1, hi1 = dyn.steer_min, dyn.steer_max
    if not (lo <= hi and lo1 <= hi1):  # also NaN
        raise ValueError(f"empty input box {accel_bounds!r} x {(lo1, hi1)!r}")
    if not lo1 <= y <= hi1:
        raise ValueError(f"nominal steer {y!r} is outside {(lo1, hi1)!r}")
    low = max(lo, rows.low)
    high = min(hi, rows.high)
    if rows.blocked or low > high:
        return ActionVerdict(False, None, rows, x)
    if low <= x <= high:
        return ActionVerdict(True, u0, rows, x)
    # Land as kernels.solve_qp_2d projects onto one row, u0 + t * n with
    # t > 0: the same accel rounding, and +0.0 for a -0.0 steer, so the
    # filtered input equals the QP's bit for bit.
    ux = x + (low - x) if x < low else x - (x - high)
    return ActionVerdict(True, ControlInput(ux, y + 0.0), rows, ux)


def _binding(rows, alpha):
    """Label of the row with least slack coef * alpha - b, the first on a
    tie (as min() picks it); only that row's label is formatted."""
    slacks = [coef * alpha - b for coef, b in rows.rows]
    if not slacks:
        return None
    return rows.targets[slacks.index(min(slacks))].label


class EgoView:
    """Ego ground truth reconstructed from the exact self-observation; its
    lane is the observation's (Observation.lane)."""

    def __init__(self, obs, road):
        self.obs = obs
        self.id = obs.target_id
        self.x, self.y = obs.world_position()
        self.v = obs.vx
        self.psi = obs.psi
        self.length = obs.length
        self.width = obs.width
        self.lane = obs.lane(road)

    def project(self, path):
        """The ego's (s, d) on path, read from the self-observation (see
        Observation.projection); raises OutOfCorridor as Path.project does."""
        sd = self.obs.projection(path)
        if sd is None:
            return path.project(self.x, self.y)  # raises OutOfCorridor
        return sd


def classify_targets(view, road, ego, cfg):
    """Split observed vehicles into per-lane traffic and pseudo cars.

    Returns (ego path, the ego's (s, d) on it, {lane: [(obs, s, v)]},
    pseudo cars [(obs, s, v)]): s is a lane target's arc length on the ego
    path (None outside the corridor) and v its speed, or a pseudo car's s
    and v (PseudoCar).  An aligned target is filed under its
    Observation.lane (its own lane report, else the lane of its perturbed
    position); misaligned targets go through the pseudo-car transform
    against the ego path.  Positions, projections and lanes come from the
    observations, which keep them for every other observer of the step.
    """
    ego_path = road.path(ego.lane)
    ego_s, ego_d = ego.project(ego_path)
    by_lane = {}
    pseudo = []
    back_margin = 0.5 * ego.length + cfg.conflict_radius
    for obs in view.all_targets():
        sd = obs.projection(ego_path)
        s_proj = None if sd is None else sd[0]
        aligned = abs(kernels.wrap_angle(
            obs.psi - ego_path.heading_at(ego_s if s_proj is None else s_proj)
        )) <= ALIGN_CONE
        if aligned:
            lane = obs.lane(road)
            if lane is None:
                continue
            by_lane.setdefault(lane, []).append((obs, s_proj, obs.vx))
        else:
            pc = pseudo_car_transform(
                ego_path, ego_s, obs.world_position(), obs.psi, obs.vx, cfg,
                back_margin=back_margin,
            )
            if pc is not None:
                pseudo.append((obs, pc.s, pc.v))
    return ego_path, (ego_s, ego_d), by_lane, pseudo


def lane_barrier_targets(ego, ego_s, targets, kind="lane"):
    """Front/rear barrier targets along one path, bumper-to-bumper gaps.

    ego_s is the ego's arc length on the path and targets holds
    (obs, s, v) triples: s the target's arc length there (None: skipped)
    and v its speed along it.  A target at or ahead of ego_s is FRONT.
    kind is "lane" for traffic on the path and "pseudo" for pseudo cars;
    the barrier targets take their ids from the observations.
    """
    out = []
    for obs, s_j, v in targets:
        if s_j is None:
            continue
        half = 0.5 * (obs.length + ego.length)
        if s_j >= ego_s:
            out.append(BarrierTarget(FRONT, (s_j - ego_s) - half, v,
                                     obs.target_id, kind))
        else:
            out.append(BarrierTarget(REAR, (ego_s - s_j) - half, v,
                                     obs.target_id, kind))
    return out


_SIDES = {ActionSpace.LEFT: "left", ActionSpace.RIGHT: "right"}


def action_table(dyn, space):
    """What agent_safe_set needs of each action of space, the same for
    every agent: (action, lane-change side "left"/"right" or None, nominal
    accel clamped to the input box, action_accel_bounds), in action order.
    """
    return [
        (action, _SIDES.get(action),
         dyn.clamp(ControlInput(nominal_accel(action, dyn, space), 0.0)).accel,
         action_accel_bounds(action, dyn, space))
        for action in space.actions()
    ]


def nominal_control(ego, road, dyn):
    """Each maneuver of an EgoView, keyed by lane-change side: None keeps
    the ego lane; "left" and "right" change into that adjacent lane and
    are None at a road edge.

    A maneuver is (lane, its path, the ego's arc length there, steer):
    the lane-keep steer on the ego lane, the pursuit steer into an
    adjacent one, each clamped to the steer range as DynamicsParams.clamp
    does.  The ego's projections are read from its observation.
    """
    path = road.path(ego.lane)
    s, d = ego.project(path)
    steer = lane_keep_steer(ego, path, s, d, dyn)
    out = {None: (ego.lane, path, s,
                  min(max(steer, dyn.steer_min), dyn.steer_max))}
    for side in ("left", "right"):
        lane = road.adjacent(ego.lane, side)
        out[side] = None
        if lane is not None:
            path = road.path(lane)
            s, _ = ego.project(path)
            steer = pursuit_steer(ego, path, s, dyn)
            out[side] = (lane, path, s,
                         min(max(steer, dyn.steer_min), dyn.steer_max))
    return out


def agent_safe_set(view, road, cfg, dyn, table):
    """Verdicts of every action of one agent; table is action_table's.

    Once per agent-step: classify_targets projects each target onto the
    ego path, which yields the current-lane rows (lane and pseudo
    targets), and nominal_control yields each maneuver's path, arc length
    and steer.  KEEP, BRAKE and the throttle actions share the lane-keep
    maneuver and the current-lane rows; a lane change takes its side's
    maneuver and the current rows joined with those of the adjacent lane,
    whose targets are projected onto it.  The ego's and the targets'
    projections are read from their observations, so an observation seen
    by several agents is projected once per path.  Each row set is built
    once, and each action is then checked against its rows with the
    table's accel and accel band; a lane change off the road edge is
    unavailable.
    """
    ego = EgoView(view.self_obs, road)
    _, (ego_s, _), by_lane, pseudo = classify_targets(view, road, ego, cfg)
    maneuvers = nominal_control(ego, road, dyn)
    current = constraint_rows(
        ego.v,
        lane_barrier_targets(ego, ego_s, by_lane.get(ego.lane, []))
        + lane_barrier_targets(ego, ego_s, pseudo, "pseudo"),
        cfg, dyn,
    )

    verdicts = {}
    controls = {}
    safe = []
    for action, side, accel, bounds in table:
        maneuver = maneuvers[side]
        if maneuver is None:
            verdicts[action] = ActionVerdict(safe=False, unavailable=True)
            continue
        lane, path, lane_s, steer = maneuver
        rows = current
        if side is not None:
            lane_targets = []
            for obs, _, v in by_lane.get(lane, []):
                sd = obs.projection(path)
                lane_targets.append((obs, None if sd is None else sd[0], v))
            rows = current.join(constraint_rows(
                ego.v, lane_barrier_targets(ego, lane_s, lane_targets),
                cfg, dyn,
            ))
        verdict = check_action_safe(
            ControlInput(accel, steer), rows, bounds, dyn)
        verdicts[action] = verdict
        if verdict.safe:
            safe.append(action)
            controls[action] = verdict.u

    emergency = not safe
    if emergency:
        safe = [ActionSpace.EMERGENCY]
        controls[ActionSpace.EMERGENCY] = emergency_control(dyn)
    return safe, verdicts, controls, emergency


def safety_shield(joint, road, cfg, dyn, table):
    """Safe action sets and emergency flags (the reward's P^SAS feedback)
    for every agent (consumes the possibly-perturbed views).

    table is action_table(dyn, space): it depends on nothing else, so a
    caller builds it once and passes it to every step's shield.
    """
    out = SafetyOutcome()
    for aid, view in joint.views.items():
        safe, verdicts, controls, emergency = agent_safe_set(
            view, road, cfg, dyn, table
        )
        out.safe_sets[aid] = safe
        out.verdicts[aid] = verdicts
        out.controls[aid] = controls
        out.emergency[aid] = emergency
    return out
