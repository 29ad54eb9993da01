"""Episode orchestration: rollout loop, structured episode logs, scripted
team policies, and log replay verification.

Per step: act from the current safe sets, integrate, run the shield on
the new state, then score the transition (the safety feedback is part of
that step's reward).  The shield is also evaluated once on the initial
state so the very first action is already restricted.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..dynamics import ActionSpace, ControlInput, DynamicsParams, emergency_control, is_finite_real, speed_tracking_control
from ..perturb import identity_schedule
from ..shield import EgoView, SafetyOutcome, action_table, nominal_control, resolve_lipschitz, safety_shield
from ..world import build_joint_state
from . import scenario as scen
from .reward import step_reward

SHIELD_ROBUST = "robust"
SHIELD_PLAIN = "plain"
SHIELD_OFF = "off"
SHIELD_MODES = (SHIELD_ROBUST, SHIELD_PLAIN, SHIELD_OFF)


def check_shield_mode(mode):
    """Raise ValueError unless mode is one of SHIELD_MODES."""
    if mode not in SHIELD_MODES:
        raise ValueError(
            f"shield mode must be one of {', '.join(SHIELD_MODES)}, "
            f"not {mode!r}"
        )


class RandomSafeTeamPolicy:
    """Uniform over each agent's safe set (baseline / test policy)."""

    def select_actions(self, joint, outcome, rng):
        actions = {}
        for aid in sorted(joint.views):
            safe = outcome.safe_sets[aid]
            actions[aid] = int(safe[rng.integers(0, len(safe))])
        return actions


class ScriptedTeamPolicy:
    """Fixed action per agent, demoted to the safe set when necessary."""

    def __init__(self, action, fallback=ActionSpace.BRAKE):
        self.action = action
        self.fallback = fallback

    def select_actions(self, joint, outcome, rng):
        actions = {}
        for aid in sorted(joint.views):
            safe = outcome.safe_sets[aid]
            if self.action in safe:
                actions[aid] = self.action
            elif self.fallback in safe:
                actions[aid] = self.fallback
            else:
                actions[aid] = int(safe[0])
        return actions


def _require_keys(where, obj, keys):
    if not isinstance(obj, dict):
        raise ValueError(f"episode log {where} is not an object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"episode log {where} has no {key!r}")


def _is_ids(x):
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def _numbers(n):
    return lambda x: (isinstance(x, list) and len(x) == n
                      and all(map(is_finite_real, x)))


def _object_of(ok):
    return lambda x: isinstance(x, dict) and all(map(ok, x.values()))


# What replay and verify_roundtrip read from a log's meta and step lines,
# and, for the values they use, a check and what the value must be (dt
# and wheelbase_frac are checked by DynamicsParams).
META_KEYS = ("scenario", "seed", "agents", "dt", "wheelbase_frac", "lengths")
STATES_SHAPE = (_object_of(_numbers(4)), "an object of finite [x, y, v, psi] lists")
META_SHAPES = {
    "agents": (_is_ids, "a list of vehicle ids"),
    "lengths": (_object_of(lambda x: is_finite_real(x) and x > 0),
                "an object of positive finite numbers"),
}
STEP_SHAPES = {
    "states": STATES_SHAPE,
    "controls": (_object_of(_numbers(2)), "an object of finite [accel, steer] lists"),
    "crashed": (_is_ids, "a list of vehicle ids"),
    "actions": (lambda x: isinstance(x, dict), "an object"),
    "rewards": (_object_of(is_finite_real), "an object of finite numbers"),
    "collisions": (lambda x: isinstance(x, list), "a list"),
}


def _check_shapes(where, obj, shapes):
    for key, (ok, what) in shapes.items():
        if not ok(obj[key]):
            raise ValueError(f"episode log {where}: {key!r} is not {what}")


def _require_members(where, key, container, members):
    for m in members:
        if m not in container:
            raise ValueError(f"episode log {where}: {key!r} has no {m!r}")


@dataclass
class EpisodeLog:
    meta: dict
    steps: list = field(default_factory=list)
    terminal_states: dict = field(default_factory=dict)

    def returns(self):
        agents = self.meta["agents"]
        out = {aid: 0.0 for aid in agents}
        for rec in self.steps:
            for aid in agents:
                out[aid] += rec["rewards"][aid]
        return out

    def collision_count(self):
        return sum(len(rec["collisions"]) for rec in self.steps)

    def emergency_step_count(self):
        return sum(
            1
            for rec in self.steps
            for a in rec["actions"].values()
            if a == ActionSpace.EMERGENCY
        )

    def to_jsonl(self):
        lines = [json.dumps({"meta": self.meta}, sort_keys=True)]
        lines += [json.dumps(rec, sort_keys=True) for rec in self.steps]
        lines.append(
            json.dumps({"terminal_states": self.terminal_states}, sort_keys=True)
        )
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text):
        """Parse to_jsonl's text; a missing or unreadable line, or a meta
        or step line without a key that replay reads or with a value of a
        shape it cannot read (a non-finite number, a length <= 0), raises
        ValueError naming it."""
        records = []  # (line number, record)
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                records.append((n, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"episode log line {n} is not JSON: {exc}") from None
        if not (records and isinstance(records[0][1], dict)
                and "meta" in records[0][1]):
            raise ValueError("episode log has no meta line (empty file?)")
        last = records[-1][1]
        if not (len(records) > 1 and isinstance(last, dict)
                and "terminal_states" in last):
            raise ValueError("episode log has no terminal_states line (cut off?)")
        n, meta = records[0][0], records[0][1]["meta"]
        meta_where = f"line {n} (meta)"
        _require_keys(meta_where, meta, META_KEYS)
        _check_shapes(meta_where, meta, META_SHAPES)
        try:
            DynamicsParams(dt=meta["dt"], wheelbase_frac=meta["wheelbase_frac"])
        except ValueError as exc:
            raise ValueError(f"episode log {meta_where}: {exc}") from None
        steps = records[1:-1]
        for n, rec in steps:
            where = f"line {n}"
            _require_keys(where, rec, STEP_SHAPES)
            _check_shapes(where, rec, STEP_SHAPES)
            _require_members(meta_where, "lengths", meta["lengths"],
                             rec["states"])
            _require_members(where, "controls", rec["controls"], [
                vid for vid in rec["states"] if vid not in rec["crashed"]])
            _require_members(where, "rewards", rec["rewards"], meta["agents"])
        last_where = f"line {records[-1][0]}"
        _check_shapes(last_where, last, {"terminal_states": STATES_SHAPE})
        # Each vehicle must be in the states the next line logs.
        nexts = [(f"line {n}", "states", rec["states"]) for n, rec in steps[1:]]
        nexts.append((last_where, "terminal_states", last["terminal_states"]))
        for (_, rec), (where, key, states) in zip(steps, nexts):
            _require_members(where, key, states, rec["states"])
        return cls(meta=meta, steps=[rec for _, rec in steps],
                   terminal_states=last["terminal_states"])

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_jsonl(fh.read())


def _shield_outcome(mode, joint, road, shield_cfg, plain_cfg, dyn, table):
    if mode != SHIELD_OFF:
        cfg = shield_cfg if mode == SHIELD_ROBUST else plain_cfg
        return safety_shield(joint, road, cfg, dyn, table)
    # Shield off: every action passes with its nominal input; a lane
    # change off the road edge takes KEEP's steer.
    out = SafetyOutcome()
    for aid, view in joint.views.items():
        maneuvers = nominal_control(EgoView(view.self_obs, road), road, dyn)
        keep = maneuvers[None]
        controls = {
            action: ControlInput(accel, (maneuvers[side] or keep)[3])
            for action, side, accel, _ in table
        }
        out.safe_sets[aid] = list(controls)
        out.verdicts[aid] = {}
        out.controls[aid] = controls
        out.emergency[aid] = False
    return out


def run_episode(spec, cfg, team_policy, schedule=None, seed=0,
                shield_mode=SHIELD_ROBUST, log_verdicts=True):
    """Roll one episode; returns the full structured log.

    Each step line records the states, controls, crashed set, actions,
    safe sets, emergency flags, rewards, collisions and perturbation
    errors of that step.  With log_verdicts it also records "verdicts":
    per agent, one entry per action id (see read_verdict).  The agents'
    views are not logged: each follows from the line's states and errors
    and meta["comm_range"] (README, "Episode logs").
    """
    check_shield_mode(shield_mode)
    schedule = schedule or identity_schedule()
    dyn = cfg.dynamics
    space = ActionSpace(cfg.harness.action_k)
    table = action_table(dyn, space)
    shield_cfg = resolve_lipschitz(cfg.shield, dyn)
    plain_cfg = dataclasses.replace(shield_cfg, epsilon=0.0)

    rng = np.random.default_rng([int(seed), 0xEB])
    act_rng = np.random.default_rng([int(seed), 0xAC])
    setup = scen.materialize(spec, rng)
    world = setup.world

    meta = {
        "scenario": spec.name,
        "mode": spec.mode,
        "seed": int(seed),
        "shield_mode": shield_mode,
        "schedule": {
            "kind": schedule.kind,
            "seed": int(schedule.seed),
            "epsilon_bound": _json_float(schedule.epsilon_bound),
        },
        "agents": spec.agent_ids,
        "dt": dyn.dt,
        "wheelbase_frac": dyn.wheelbase_frac,
        "lengths": {vid: v.length for vid, v in world.vehicles.items()},
        "comm_range": cfg.world.comm_range,
    }
    log = EpisodeLog(meta=meta)

    joint = build_joint_state(world, cfg.world.comm_range, schedule)
    outcome = _shield_outcome(
        shield_mode, joint, spec.road, shield_cfg, plain_cfg, dyn, table)

    for t in range(spec.episode_len):
        actions = team_policy.select_actions(joint, outcome, act_rng)

        controls = {}
        for aid, action in actions.items():
            if aid in world.crashed:
                controls[aid] = ControlInput(0.0, 0.0)
            elif action == ActionSpace.EMERGENCY:
                controls[aid] = emergency_control(dyn)
            elif action in outcome.controls[aid]:
                controls[aid] = outcome.controls[aid][action]
            else:
                raise ValueError(f"agent {aid!r} chose action {action!r}, "
                                 f"not in its safe set {outcome.safe_sets[aid]}")
        for vid, plan in setup.plans.items():
            veh = world.vehicles[vid]
            if vid in world.crashed:
                controls[vid] = ControlInput(0.0, 0.0)
            else:
                controls[vid] = speed_tracking_control(
                    veh, plan.reference_speed(t), spec.road.path(plan.lane), dyn
                )

        states_before = _state_snapshot(world)
        crashed_before = set(world.crashed)
        new_collisions = world.step(controls, dyn)

        next_joint = build_joint_state(world, cfg.world.comm_range, schedule)
        next_outcome = _shield_outcome(
            shield_mode, next_joint, spec.road, shield_cfg, plain_cfg, dyn,
            table)
        rewards = step_reward(
            world, spec.destinations, new_collisions, next_outcome,
            crashed_before, shield_cfg.p_col, shield_cfg.p_sas,
        )

        rec = {
            "t": t,
            "states": states_before,
            "controls": {
                vid: [u.accel, u.steer] for vid, u in sorted(controls.items())
            },
            "crashed": sorted(crashed_before),
            "actions": {aid: int(a) for aid, a in actions.items()},
            "safe_sets": {aid: list(map(int, s)) for aid, s in outcome.safe_sets.items()},
            "emergency": {aid: bool(e) for aid, e in outcome.emergency.items()},
            "rewards": {aid: float(r) for aid, r in rewards.items()},
            "collisions": [list(p) for p in sorted(new_collisions)],
            "errors": _error_snapshot(schedule, t, world),
        }
        if log_verdicts:
            rec["verdicts"] = _verdict_snapshot(outcome)
        log.steps.append(rec)

        joint = next_joint
        outcome = next_outcome

    if hasattr(team_policy, "observe_terminal"):
        team_policy.observe_terminal(joint)
    log.terminal_states = _state_snapshot(world)
    return log


def _json_float(x):
    return None if math.isinf(x) else float(x)


def _state_snapshot(world):
    return {
        vid: [veh.x, veh.y, veh.v, veh.psi]
        for vid, veh in sorted(world.vehicles.items())
    }


def _error_snapshot(schedule, t, world):
    out = {}
    for vid in sorted(world.vehicles):
        err = schedule.error(t, vid)
        if err is not None:
            out[vid] = [float(err[0]), float(err[1])]
    return out


def _verdict_snapshot(outcome):
    """Per agent, one string per action in action-id order: "S" (safe),
    "U" (unsafe) or "UN" (unavailable), then " " and the binding label
    when there is one."""
    return {
        aid: [
            ("S" if v.safe else "UN" if v.unavailable else "U")
            + ("" if v.binding is None else " " + v.binding)
            for v in verdicts.values()
        ]
        for aid, verdicts in outcome.verdicts.items()
    }


def read_verdict(entry):
    """(safe, unavailable, binding label or None) of one logged verdict."""
    head, _, binding = entry.partition(" ")
    return head == "S", head == "UN", binding or None


def verify_roundtrip(log):
    """Re-integrate the logged controls; max state deviation vs the log.

    The log carries everything the dynamics need, so a healthy log replays
    to within float-printing precision.
    """
    dt = log.meta["dt"]
    dyn = DynamicsParams(dt=dt, wheelbase_frac=log.meta["wheelbase_frac"])
    lengths = log.meta["lengths"]
    worst = 0.0
    for i, rec in enumerate(log.steps):
        nxt = (
            log.steps[i + 1]["states"]
            if i + 1 < len(log.steps)
            else log.terminal_states
        )
        for vid, state in rec["states"].items():
            if vid in set(rec["crashed"]):
                pred = state
            else:
                accel, steer = rec["controls"][vid]
                length = lengths[vid]
                pred = kernels.step_bicycle(
                    state[0], state[1], state[2], state[3], accel, steer,
                    dt, dyn.rear_axle(length), dyn.wheelbase(length),
                )
            for a, b in zip(pred, nxt[vid]):
                worst = max(worst, abs(a - b))
    return worst
