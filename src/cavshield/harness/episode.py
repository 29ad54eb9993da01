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
from ..dynamics import ActionSpace, ControlInput, LaneContext, NoAdjacentLane, nominal_control, emergency_control, speed_tracking_control
from ..perturb import identity_schedule
from ..shield import EgoView, open_shield, resolve_lipschitz, safety_shield
from ..world import build_joint_state
from . import scenario as scen
from .reward import step_reward

SHIELD_ROBUST = "robust"
SHIELD_PLAIN = "plain"
SHIELD_OFF = "off"


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
        lines = [ln for ln in text.splitlines() if ln.strip()]
        meta = json.loads(lines[0])["meta"]
        terminal = json.loads(lines[-1])["terminal_states"]
        steps = [json.loads(ln) for ln in lines[1:-1]]
        return cls(meta=meta, steps=steps, terminal_states=terminal)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_jsonl(fh.read())


def _shield_outcome(mode, joint, road, shield_cfg, plain_cfg, dyn, space):
    if mode == SHIELD_OFF:
        return open_shield(joint, dyn, space)
    cfg = shield_cfg if mode == SHIELD_ROBUST else plain_cfg
    return safety_shield(joint, road, cfg, dyn, space)


def _nominal_for(view, road, action, dyn, space):
    """Nominal input when the shield did not supply a filtered one."""
    ego = EgoView(view.self_obs, road)
    lane_ctx = LaneContext(
        current=road.path(ego.lane),
        left=_path_or_none(road, road.adjacent(ego.lane, "left")),
        right=_path_or_none(road, road.adjacent(ego.lane, "right")),
    )
    try:
        return nominal_control(ego, action, lane_ctx, dyn, space)
    except NoAdjacentLane:
        return nominal_control(ego, ActionSpace.KEEP, lane_ctx, dyn, space)


def _path_or_none(road, lane_id):
    return road.path(lane_id) if lane_id is not None else None


def run_episode(spec, cfg, team_policy, schedule=None, seed=0,
                shield_mode=SHIELD_ROBUST, collect_obs=True):
    """Roll one episode; returns the full structured log."""
    schedule = schedule or identity_schedule()
    dyn = cfg.dynamics
    space = ActionSpace(cfg.harness.action_k)
    shield_cfg = resolve_lipschitz(cfg.shield, dyn)
    plain_cfg = dataclasses.replace(shield_cfg, epsilon=0.0)

    rng = np.random.default_rng([int(seed), 0xEB])
    act_rng = np.random.default_rng([int(seed), 0xAC])
    setup = scen.materialize(spec, rng, dt=dyn.dt)
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
        shield_mode, joint, spec.road, shield_cfg, plain_cfg, dyn, space
    )

    for t in range(spec.episode_len):
        actions = team_policy.select_actions(joint, outcome, act_rng)

        controls = {}
        for aid, action in actions.items():
            if aid in world.crashed:
                controls[aid] = ControlInput(0.0, 0.0)
            elif action == ActionSpace.EMERGENCY:
                controls[aid] = emergency_control(dyn)
            elif action in outcome.controls.get(aid, {}):
                controls[aid] = outcome.controls[aid][action]
            else:
                controls[aid] = _nominal_for(
                    joint.views[aid], spec.road, action, dyn, space
                )
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
            shield_mode, next_joint, spec.road, shield_cfg, plain_cfg, dyn, space
        )
        rewards = step_reward(
            world, spec.destinations, new_collisions, next_outcome,
            crashed_before, shield_cfg.p_col,
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
        if collect_obs:
            rec["obs"] = _obs_snapshot(joint)
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


def _obs_snapshot(joint):
    out = {}
    for aid, view in sorted(joint.views.items()):
        targets = {}
        for obs in view.all_targets():
            targets[obs.target_id] = [obs.lx, obs.ly, obs.vx, obs.vy]
        targets[aid] = [
            view.self_obs.lx, view.self_obs.ly,
            view.self_obs.vx, view.self_obs.vy,
        ]
        out[aid] = targets
    return out


def _verdict_snapshot(outcome):
    out = {}
    for aid, verdicts in outcome.verdicts.items():
        out[aid] = {
            str(action): {
                "safe": v.safe,
                "binding": v.binding,
                "unavailable": v.unavailable,
            }
            for action, v in verdicts.items()
        }
    return out


def verify_roundtrip(log):
    """Re-integrate the logged controls; max state deviation vs the log.

    The log carries everything the dynamics need, so a healthy log replays
    to within float-printing precision.
    """
    dt = log.meta["dt"]
    frac = log.meta["wheelbase_frac"]
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
                    dt, 0.5 * frac * length, frac * length,
                )
            for a, b in zip(pred, nxt[vid]):
                worst = max(worst, abs(a - b))
    return worst
