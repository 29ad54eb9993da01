"""Evaluation protocol: n test episodes per (scenario, perturbation) cell,
collision-free rate and mean episode return, table/CSV emitters."""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..marl.trainer import (ConfigMismatch, NeuralTeamPolicy, check_config,
                            check_seed, load_checkpoint)
from ..marl.encode import Encoder
from ..perturb import (
    identity_schedule,
    make_ptb_over_time,
    make_ptb_target_vehicles,
    make_rand,
)
from . import episode as ep
from . import scenario as scen

PTB_KINDS = ("none", "rand", "time", "veh")
REPORT_KEYS = ("scenario", "ptb", "n_episodes", "collision_free_rate",
               "mean_episode_return", "episodes")


@dataclass
class EvalReport:
    scenario: str
    ptb: str
    n_episodes: int
    collision_free_rate: float
    mean_episode_return: float
    episodes: list = field(default_factory=list)  # (seed, return, collisions)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "ptb": self.ptb,
            "n_episodes": self.n_episodes,
            "collision_free_rate": self.collision_free_rate,
            "mean_episode_return": self.mean_episode_return,
            "episodes": [
                {"seed": s, "return": r, "collisions": c}
                for s, r, c in self.episodes
            ],
        }


def build_schedule(kind, seed, cfg, spec):
    """One episode's perturbation schedule; it records every error beyond
    the shield's assumed bound cfg.shield.epsilon."""
    bound = cfg.shield.epsilon
    if kind == "none":
        return identity_schedule()
    if kind == "rand":
        return make_rand(seed, epsilon_bound=bound)
    if kind == "time":
        return make_ptb_over_time(seed, cfg.harness.ptb_window,
                                  epsilon_bound=bound)
    if kind == "veh":
        return make_ptb_target_vehicles(seed, ptb_targets(cfg, spec),
                                        epsilon_bound=bound)
    raise ValueError(f"unknown perturbation kind {kind!r}")


def ptb_targets(cfg, spec):
    """harness.ptb_targets (None: every UCV of spec); an id that is no
    vehicle of spec raises ConfigMismatch naming the key."""
    targets = cfg.harness.ptb_targets
    if targets is None:
        return spec.ucv_ids
    known = set(spec.agent_ids) | set(spec.ucv_ids)
    for vid in targets:
        if vid not in known:
            raise ConfigMismatch(f"harness.ptb_targets: {vid!r} is not a "
                                 f"vehicle of scenario {spec.name!r}")
    return targets


def evaluate(checkpoint_path, ptb="none", n_episodes=50, seed=0, cfg=None,
             shield_mode=None, save_logs_dir=None, out_dir=None):
    """Run the test protocol for one checkpoint under one perturbation.

    With save_logs_dir, each episode's log is saved there.  seed, ptb and
    shield_mode (None: the checkpoint's) are checked first; out_dir and
    save_logs_dir are made once the checkpoint has loaded and matches
    cfg's action count, hidden sizes and (ptb "veh") ptb_targets and its
    scenario's agent ids, before any episode runs."""
    from .config import Config, is_count

    if not is_count(n_episodes):
        raise ValueError(f"n_episodes must be an int >= 1, not {n_episodes!r}")
    check_seed(seed)
    if ptb not in PTB_KINDS:
        raise ValueError(f"unknown perturbation kind {ptb!r}")
    ep.check_shield_mode(shield_mode or ep.SHIELD_ROBUST)
    cfg = cfg or Config()
    header, actors, enc_spec = load_checkpoint(checkpoint_path)
    check_config(checkpoint_path, header, cfg)
    spec = scen.build_scenario(header["scenario"], mode="test", cfg=cfg)
    if set(header["agent_ids"]) != set(spec.agent_ids):
        raise ConfigMismatch(f"checkpoint {checkpoint_path} has agent_ids "
                             f"{header['agent_ids']!r}; scenario "
                             f"{spec.name!r} has {list(spec.agent_ids)!r}")
    if ptb == "veh":
        ptb_targets(cfg, spec)
    for path in (out_dir, save_logs_dir):
        if path is not None:
            os.makedirs(path, exist_ok=True)
    encoder = Encoder(enc_spec, spec.road.lanes.keys())
    shield_mode = shield_mode or header["shield_mode"]

    episodes = []
    for i in range(n_episodes):
        sub = int(np.random.SeedSequence([seed, 0xEE, i]).generate_state(1)[0])
        schedule = build_schedule(ptb, sub, cfg, spec)
        policy = NeuralTeamPolicy(actors, encoder, spec.agent_ids)
        log = ep.run_episode(
            spec, cfg, policy, schedule=schedule, seed=sub,
            shield_mode=shield_mode, log_verdicts=save_logs_dir is not None,
        )
        ret = float(np.mean(list(log.returns().values())))
        cols = log.collision_count()
        episodes.append((sub, ret, cols))
        if save_logs_dir is not None:
            log.save(f"{save_logs_dir}/episode_{i:03d}.jsonl")
    free = sum(1 for _, _, c in episodes if c == 0) / len(episodes)
    mean_ret = float(np.mean([r for _, r, _ in episodes]))
    return EvalReport(
        scenario=spec.name, ptb=ptb, n_episodes=n_episodes,
        collision_free_rate=free, mean_episode_return=mean_ret,
        episodes=episodes,
    )


def format_table(reports):
    """Plain-text matrix: scenario rows x perturbation columns, each cell
    (collision-free rate; mean episode return)."""
    cells = {(r.scenario, r.ptb): r for r in reports}
    scenarios = sorted({r.scenario for r in reports})
    ptbs = [p for p in ("rand", "time", "veh", "none") if any(r.ptb == p for r in reports)]
    width = 22
    header = "scenario".ljust(14) + "".join(p.ljust(width) for p in ptbs)
    lines = [header, "-" * len(header)]
    for sc in scenarios:
        row = sc.ljust(14)
        for p in ptbs:
            rep = cells.get((sc, p))
            if rep is None:
                row += "-".ljust(width)
            else:
                row += f"{rep.collision_free_rate:.0%}; {rep.mean_episode_return:.1f}".ljust(width)
        lines.append(row)
    return "\n".join(lines)


def table_csv(reports):
    lines = ["scenario,ptb,collision_free_rate,mean_episode_return,n_episodes"]
    for r in sorted(reports, key=lambda r: (r.scenario, r.ptb)):
        lines.append(
            f"{r.scenario},{r.ptb},{r.collision_free_rate},"
            f"{r.mean_episode_return},{r.n_episodes}"
        )
    return "\n".join(lines) + "\n"


def save_report(path, report):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)


def load_report(path):
    """The EvalReport save_report wrote to path.  A file that is not JSON,
    lacks a key the report needs, or holds a scenario that is not a
    string, a ptb outside PTB_KINDS or a rate or return that is not a
    number raises ValueError saying which."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    for key in REPORT_KEYS:
        if key not in doc:
            raise ValueError(f"no {key!r}")
    if not isinstance(doc["scenario"], str):
        raise ValueError(f"'scenario' is {doc['scenario']!r}, not a string")
    if doc["ptb"] not in PTB_KINDS:
        raise ValueError(f"'ptb' is {doc['ptb']!r}, not one of "
                         f"{', '.join(PTB_KINDS)}")
    for key in ("collision_free_rate", "mean_episode_return"):
        value = doc[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{key!r} is {value!r}, not a number")
    try:
        episodes = [(e["seed"], e["return"], e["collisions"])
                    for e in doc["episodes"]]
    except (KeyError, TypeError):
        raise ValueError("'episodes' is not a list of objects with seed, "
                         "return and collisions") from None
    return EvalReport(
        scenario=doc["scenario"], ptb=doc["ptb"], n_episodes=doc["n_episodes"],
        collision_free_rate=doc["collision_free_rate"],
        mean_episode_return=doc["mean_episode_return"],
        episodes=episodes,
    )
