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
and of each adjacent lane, in the solver's row form, and decides each
action by the projection of its nominal input onto those rows and its
input box.  The shared geometry comes from the
observations: every observer of a step holds the same Observation of a
vehicle, which works out its world position once, its projection once
per lane path and its lane once (from those projections), so no agent's
pass repeats another's.  Each row set is one
interval of acceleration (BarrierRows keeps its ends, built in the same
pass as its rows), so check_action_safe decides from the ends, with the
result of the projection QP kernels.solve_qp_2d bit for bit, and calls
that QP only within a tie band where rounding could separate the two.
A verdict's binding row label is found only when it is read (episode
logs read it; training and unlogged evaluation do not).
Crossing traffic is folded in by transforming each crossing vehicle into
a pseudo car on the ego path.  An empty safe set falls back to
Emergency_stop (full braking, zero steer) and is fed back to the MARL as
a penalty.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import kernels
from .dynamics import ActionSpace, ControlInput, DynamicsParams, action_accel_bounds, emergency_control, lane_keep_steer, nominal_accel, pursuit_steer
from .kernels import DEDUP_TOL, FEAS_TOL
from .world import ALIGN_CONE

FRONT = "front"
REAR = "rear"

# Distinct audits calibrate_lipschitz_sum keeps (one per config in use).
LIPSCHITZ_MEMO_SIZE = 16

# Half-width of check_action_safe's tie band, relative to the magnitudes
# it compares (1 + |u0 accel| + |each binding end|).
TIE_BAND = 1e-6


@dataclass
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
            if not (isinstance(value, numbers.Real)
                    and not isinstance(value, bool) and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number")
        for name in ("c1", "c2", "c3", "gamma_cbf", "epsilon", "lipschitz_sum",
                     "horizon", "v_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(slots=True)
class PseudoCar:
    """A crossing vehicle mapped onto the ego path as a virtual same-lane
    vehicle: s = conflict arc-length minus the target's remaining distance,
    v = its speed component toward the conflict point."""

    s: float
    v: float
    source_id: str


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


class ActionVerdict:
    """Verdict of one action: safe, the filtered ControlInput u when safe,
    the binding row's label and whether the action is unavailable.

    check_action_safe leaves the binding to be found on first read of
    binding (from its rows and the accel it is judged at), because only
    logged runs read it.  Equality and repr are those of a dataclass with
    the four fields (safe, u, binding, unavailable), and so read binding.
    """

    __slots__ = ("safe", "u", "unavailable", "_binding", "_rows", "_alpha")

    def __init__(self, safe, u=None, binding=None, unavailable=False):
        self.safe = safe
        self.u = u
        self.unavailable = unavailable
        self._binding = binding
        self._rows = None
        self._alpha = None

    @classmethod
    def judged(cls, safe, u, rows, alpha):
        """A verdict whose binding is _binding(rows, alpha), found on read."""
        verdict = cls(safe, u)
        verdict._rows = rows
        verdict._alpha = alpha
        return verdict

    @property
    def binding(self):
        rows = self._rows
        if rows is not None:
            self._binding = _binding(rows, self._alpha)
            self._rows = None
        return self._binding

    def _key(self):
        return (self.safe, self.u, self.binding, self.unavailable)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return (f"ActionVerdict(safe={self.safe!r}, u={self.u!r}, "
                f"binding={self.binding!r}, "
                f"unavailable={self.unavailable!r})")


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


class BarrierRows:
    """Barrier constraints coef * alpha >= b on the ego acceleration alpha.

    rows keeps them in the form kernels.solve_qp_2d takes, (coef, 0.0, b):
    steer enters no row, so together they admit one interval of alpha.
    Its ends are kept as solve_qp_2d normalizes each row, by
    n = sqrt(coef * coef): lower holds b / n of each row with coef > 0
    (alpha >= end), upper that of each row with coef < 0 (-alpha >= end),
    each tightest (largest) first.  blocked marks a row without direction
    (n < DEDUP_TOL) whose b exceeds FEAS_TOL: no input meets it.  labels
    holds the label of each row; rows built from barrier targets
    (constraint_rows) format them from the targets on first read.
    Equality compares rows and labels, which determine the rest.
    """

    __slots__ = ("rows", "lower", "upper", "blocked", "_labels", "_targets",
                 "_parts")

    def __init__(self, rows, labels, targets=None):
        """rows: (coef, 0.0, b) triples, coef and b finite; labels: one
        label per row, or None with the barrier targets that give them.
        The rows are checked and their ends found in one pass."""
        lower, upper, blocked = [], [], False
        for coef, _, b in rows:
            if not (math.isfinite(coef) and math.isfinite(b)):
                raise ValueError(f"barrier row ({coef!r}, {b!r}) is not finite")
            n = math.sqrt(coef * coef)
            if n < DEDUP_TOL:
                blocked = blocked or b > FEAS_TOL
            elif n < math.inf:
                (lower if coef > 0.0 else upper).append(b / n)
            # else coef * coef overflowed, and solve_qp_2d's row is
            # 0 . u >= 0, which every input meets.
        lower.sort(reverse=True)
        upper.sort(reverse=True)
        self.rows = tuple(rows)
        self.lower = tuple(lower)
        self.upper = tuple(upper)
        self.blocked = blocked
        self._labels = None if labels is None else tuple(labels)
        self._targets = targets
        self._parts = None

    @classmethod
    def of(cls, labeled):
        """Rows from (coef, b, label) triples; coef and b must be finite."""
        labeled = list(labeled)
        return cls([(coef, 0.0, b) for coef, b, _ in labeled],
                   [label for _, _, label in labeled])

    @property
    def labels(self):
        if self._labels is None:
            if self._parts is not None:  # a join: each part formats once
                first, second = self._parts
                self._labels = first.labels + second.labels
            else:
                self._labels = tuple(t.label for t in self._targets)
            self._targets = self._parts = None
        return self._labels

    def join(self, other):
        """The rows of both sets, self's first."""
        out = BarrierRows.__new__(BarrierRows)
        out.rows = self.rows + other.rows
        out.lower = tuple(sorted(self.lower + other.lower, reverse=True))
        out.upper = tuple(sorted(self.upper + other.upper, reverse=True))
        out.blocked = self.blocked or other.blocked
        out._labels = out._targets = None
        out._parts = (self, other)
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.labels == other.labels

    __hash__ = None

    def __repr__(self):
        return f"BarrierRows(rows={self.rows!r}, labels={self.labels!r})"


def constraint_rows(ego_v, targets, cfg, dyn):
    """BarrierRows encoding coef*alpha >= A - const per barrier target;
    the labels are formatted from the targets when first read."""
    buf = robust_buffer(cfg)
    targets = tuple(targets)
    rows = []
    for t in targets:
        if t.role == FRONT:
            coef, const = follow_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        else:
            coef, const = lead_constraint_terms(ego_v, t.speed, t.gap, cfg, dyn)
        rows.append((coef, 0.0, buf - const))
    return BarrierRows(rows, None, targets)


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
    that set, bit for bit as kernels.solve_qp_2d computes it on rows.rows
    (u0 itself when it is kept).  The binding row is the one with least
    slack at the filtered input (at u0 when unsafe); the first such row
    wins a tie.  The verdict finds it, and formats the rows' labels, only
    when its binding is read.

    Steer enters no row, so the check reads the rows' accel ends.  Each
    end, box edges included, is a unit row s * alpha >= end of the QP
    (s = 1 below, -1 above); the tightest end of each side binds.  The
    action is unsafe when the set is blocked or the binding ends leave no
    accel interval; u0 is kept when it passes the QP's own tests against
    the box and the steer range and lies off every barrier end; otherwise
    it lands on the one end it violates, in the QP's arithmetic for that
    row: t = end - s * u0.accel, accel u0.accel + t * s, steer
    u0.steer + t * 0.0.  A decision needs every value it separates (u0,
    the two sides, the next end of a side, the steer bounds) more than
    the tie band apart; the QP decides anything within it.

    Why the band covers rounding.  Outside it, every value the QP tests or
    compares differs from its rival by at least TIE_BAND * S, S = 1 +
    |u0.accel| + |both binding ends|, while rounding moves each by a few
    units of 2**-53 * S, and the QP's own slacks, FEAS_TOL and DEDUP_TOL,
    lie far inside 1e-6.  So no input meets two ends that are further
    apart; a row the QP drops as a duplicate meets u0 or the landing
    point as the row it duplicates does; the landing point passes every
    other row; and every other candidate of the QP (another end, its
    vertex with a steer bound, a steer row's projection, which keeps
    u0.accel) is infeasible or farther by at least the band in accel or
    steer, which outweighs the rounding of the squared distances (band**2
    = 1e-12 * S**2 against about 2**-50 * S**2).  The one absolute test,
    the landing point against its own row within FEAS_TOL, fails only for
    S above about 3e7; it is made as the QP makes it, and such an input is
    left to the QP.
    """
    x, y = u0.accel, u0.steer
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"nominal input {u0!r} is not finite")
    lo, hi = accel_bounds
    lo1, hi1 = dyn.steer_min, dyn.steer_max
    if not (lo <= hi and lo1 <= hi1):  # also NaN
        raise ValueError(f"empty input box {accel_bounds!r} x "
                         f"{(lo1, hi1)!r}")
    if rows.blocked:
        return ActionVerdict.judged(False, None, rows, x)
    # The tightest barrier end of each side (-inf for none), and the
    # tightest and next tightest end of each side with the box edge (-inf
    # for no next end).  On a tie the box edge counts as the tighter, as
    # max(edge, end) picks it.
    lower, upper = rows.lower, rows.upper
    if lower:
        barrier_low = lower[0]
        if barrier_low > lo:
            low = barrier_low
            low_next = lo
            if len(lower) > 1 and lower[1] > lo:
                low_next = lower[1]
        else:
            low, low_next = lo, barrier_low
    else:
        barrier_low = low_next = -math.inf
        low = lo
    if upper:
        barrier_high = upper[0]
        if barrier_high > -hi:
            high = barrier_high
            high_next = -hi
            if len(upper) > 1 and upper[1] > -hi:
                high_next = upper[1]
        else:
            high, high_next = -hi, barrier_high
    else:
        barrier_high = high_next = -math.inf
        high = -hi
    band = TIE_BAND * (1.0 + abs(x) + abs(low) + abs(high))
    gap = low + high  # the least admissible accel minus the greatest
    if gap > band:
        return ActionVerdict.judged(False, None, rows, x)
    if (x - barrier_low > band and -x - barrier_high > band
            and x - lo >= -FEAS_TOL and -x + hi >= -FEAS_TOL
            and y - lo1 >= -FEAS_TOL and -y + hi1 >= -FEAS_TOL):
        return ActionVerdict.judged(True, u0, rows, x)
    if -gap > band and y - lo1 > band and hi1 - y > band:
        for s, end, runner_up in ((1.0, low, low_next),
                                  (-1.0, high, high_next)):
            t = end - s * x
            if t > band and end - runner_up > band:
                ux = x + t * s
                if s * ux - end >= -FEAS_TOL:
                    return ActionVerdict.judged(
                        True, type(u0)(accel=ux, steer=y + t * 0.0), rows, ux)
    status, ux, uy, _ = kernels.solve_qp_2d(x, y, rows.rows, lo, hi, lo1, hi1)
    if status != kernels.QP_FEASIBLE:
        return ActionVerdict.judged(False, None, rows, x)
    return ActionVerdict.judged(True, type(u0)(accel=ux, steer=uy), rows, ux)


def _binding(rows, alpha):
    """Label of the row with least slack coef * alpha - b, the first on a
    tie (as min() picks it)."""
    label = None
    for (coef, _, b), row_label in zip(rows.rows, rows.labels):
        slack = coef * alpha - b
        if label is None or slack < least:
            least = slack
            label = row_label
    return label


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

    Returns (ego path, the ego's (s, d) on it, {lane: [(obs, s)]}, pseudo
    cars), where s is the target's arc length on the ego path (None
    outside the corridor).  An aligned target is filed under its
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
            by_lane.setdefault(lane, []).append((obs, s_proj))
        else:
            pc = pseudo_car_transform(
                ego_path, ego_s, obs.world_position(), obs.psi, obs.vx, cfg,
                back_margin=back_margin,
            )
            if pc is not None:
                pc.source_id = obs.target_id
                pseudo.append((pc, obs))
    return ego_path, (ego_s, ego_d), by_lane, pseudo


def lane_barrier_targets(ego, ego_s, lane_targets):
    """Front/rear barrier targets for one lane, bumper-to-bumper gaps.

    ego_s is the ego's arc length on the lane and lane_targets holds
    (obs, s) pairs, s the target's arc length there (None: skipped).
    """
    out = []
    for obs, s_j in lane_targets:
        if s_j is None:
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
        + pseudo_barrier_targets(ego, ego_s, pseudo),
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
            for obs, _ in by_lane.get(lane, []):
                sd = obs.projection(path)
                lane_targets.append((obs, None if sd is None else sd[0]))
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
