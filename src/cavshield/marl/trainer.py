"""SR-MAPPO training loop: shield-restricted rollouts, per-agent actor /
centralized value / centralized worst-Q updates, checkpoints, metrics.

Rewards are scaled by marl.reward_scale inside the optimizer only; every
logged number stays in raw units.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..dynamics import ActionSpace
from ..harness import episode as ep
from ..harness import scenario as scen
from ..harness.config import Config
from . import algo
from .encode import Encoder, EncoderSpec, perturbation_samples
from .nets import MLP, Adam, log_softmax

ALGO_SRMAPPO = "srmappo"
ALGO_MAPPO = "mappo"

CHECKPOINT_VERSION = 2


class TrainingDiverged(Exception):
    """Non-finite parameters after an update."""


class ChecksumMismatch(Exception):
    """Checkpoint payload does not match its recorded digest."""


class UnsupportedCheckpointVersion(Exception):
    """Checkpoint header carries a version this code cannot read."""


@dataclass
class ParameterSet:
    """Flat numeric parameters of one agent (plus its loss weights)."""

    theta: np.ndarray
    phi: np.ndarray
    omega: np.ndarray
    kappa_wst: float = 0.0
    kappa_reg: float = 0.0

    def check_finite(self, where):
        for name in ("theta", "phi", "omega"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise TrainingDiverged(f"non-finite {name} after {where}")


@dataclass
class AgentRuntime:
    actor: MLP
    value: MLP
    worst_q: MLP
    worst_q_target: np.ndarray
    opt_actor: Adam
    opt_value: Adam
    opt_worst_q: Adam


@dataclass
class TrainSettings:
    scenario: str = "highway"
    algo: str = ALGO_SRMAPPO
    shield_mode: str = ep.SHIELD_ROBUST
    seed: int = 0
    episodes: Optional[int] = None  # None -> config default
    quick: bool = False
    config: Config = field(default_factory=Config)


@dataclass
class TrainResult:
    agents: dict  # agent id -> AgentRuntime
    metrics: list
    encoder: Encoder
    spec: object


class NeuralTeamPolicy:
    """Per-agent softmax actors restricted to the shield's safe sets.

    When recording, keeps everything a PPO update needs (encodings,
    centralized states, actions, old log-probs, slot masks).
    """

    def __init__(self, agents, encoder, agent_order, eps_explore=0.0,
                 record=False):
        self.agents = agents
        self.encoder = encoder
        self.agent_order = list(agent_order)
        self.eps_explore = eps_explore
        self.record = record
        self.reset_buffers()

    def reset_buffers(self):
        self.buffers = {
            aid: {"obs": [], "mask": [], "action": [], "logp_old": []}
            for aid in self.agent_order
        }
        self.central = []
        self.terminal_central = None

    def select_actions(self, joint, outcome, rng):
        vecs, masks, central = self.encoder.encode_joint(joint, self.agent_order)
        if self.record:
            self.central.append(central)
        actions = {}
        for aid in self.agent_order:
            safe = outcome.safe_sets[aid]
            if safe == [ActionSpace.EMERGENCY]:
                action = ActionSpace.EMERGENCY
                logp = 0.0
            else:
                logits = self.agents[aid].actor.forward(vecs[aid])
                logp_all = log_softmax(logits)[0]
                dist = np.exp(logp_all)
                action = algo.select_action(dist, safe, self.eps_explore, rng)
                logp = float(logp_all[action])
            actions[aid] = action
            if self.record:
                buf = self.buffers[aid]
                buf["obs"].append(vecs[aid])
                buf["mask"].append(masks[aid])
                buf["action"].append(action)
                buf["logp_old"].append(logp)
        return actions

    def observe_terminal(self, joint):
        if self.record:
            _, _, central = self.encoder.encode_joint(joint, self.agent_order)
            self.terminal_central = central


def build_agents(spec, cfg, seed):
    """Fresh actor/value/worst-Q networks for every agent."""
    enc_spec = EncoderSpec(
        n_cav_slots=cfg.marl.n_cav_slots,
        n_ucv_slots=cfg.marl.n_ucv_slots,
        max_lanes=cfg.marl.max_lanes,
    )
    encoder = Encoder(enc_spec, spec.road.lanes.keys())
    space = ActionSpace(cfg.harness.action_k)
    agent_ids = spec.agent_ids
    central_dim = enc_spec.dim * len(agent_ids)
    agents = {}
    seeds = np.random.SeedSequence([seed, 0x11]).spawn(len(agent_ids))
    for aid, ss in zip(agent_ids, seeds):
        rng = np.random.default_rng(ss)
        hidden = list(cfg.marl.hidden)
        actor = MLP([enc_spec.dim] + hidden + [space.n], rng, zero_final=True)
        value = MLP([central_dim] + hidden + [1], rng, zero_final=True)
        worst_q = MLP([central_dim] + hidden + [space.n], rng, zero_final=True)
        agents[aid] = AgentRuntime(
            actor=actor,
            value=value,
            worst_q=worst_q,
            worst_q_target=worst_q.get_flat(),
            opt_actor=Adam(actor.n_params, lr=cfg.marl.lr),
            opt_value=Adam(value.n_params, lr=cfg.marl.lr_critic),
            opt_worst_q=Adam(worst_q.n_params, lr=cfg.marl.lr_critic),
        )
    return agents, encoder


def train(settings):
    """Run the full loop; returns runtimes, metrics and the encoder."""
    cfg = settings.config
    spec = scen.build_scenario(settings.scenario, mode="train", cfg=cfg)
    n_episodes = settings.episodes
    if n_episodes is None:
        n_episodes = (
            cfg.harness.quick_train_episodes
            if settings.quick
            else cfg.harness.train_episodes
        )
    agents, encoder = build_agents(spec, cfg, settings.seed)
    metrics = []
    kappa_wst = cfg.marl.kappa_wst if settings.algo == ALGO_SRMAPPO else 0.0
    kappa_reg = cfg.marl.kappa_reg if settings.algo == ALGO_SRMAPPO else 0.0

    for e in range(n_episodes):
        if n_episodes > 1:
            frac = e / (n_episodes - 1)
        else:
            frac = 1.0
        eps_explore = (
            cfg.marl.eps_explore_start
            + (cfg.marl.eps_explore_end - cfg.marl.eps_explore_start) * frac
        )
        policy = NeuralTeamPolicy(
            agents, encoder, spec.agent_ids, eps_explore=eps_explore, record=True
        )
        log = ep.run_episode(
            spec, cfg, policy, schedule=None, seed=_episode_seed(settings.seed, e),
            shield_mode=settings.shield_mode, collect_obs=False,
        )
        losses = _update_agents(
            agents, policy, log, cfg, kappa_wst, kappa_reg,
            rng=np.random.default_rng([settings.seed, 0xAD, e]),
            sync_target=(e % cfg.marl.worst_q_sync == 0),
            train_worst_q=settings.algo == ALGO_SRMAPPO,
        )
        for aid, agent in agents.items():
            _runtime_params(agent, kappa_wst, kappa_reg).check_finite(
                f"episode {e}"
            )
        returns = log.returns()
        record = {
            "episode": e,
            "return": {aid: float(r) for aid, r in returns.items()},
            "mean_return": float(np.mean(list(returns.values()))),
            "collisions": log.collision_count(),
            "emergency_steps": log.emergency_step_count(),
            "eps_explore": float(eps_explore),
        }
        record.update(losses)
        metrics.append(record)
    return TrainResult(agents=agents, metrics=metrics, encoder=encoder, spec=spec)


def _episode_seed(seed, e):
    return int(np.random.SeedSequence([seed, 0xE0, e]).generate_state(1)[0])


def _update_agents(agents, policy, log, cfg, kappa_wst, kappa_reg, rng,
                   sync_target, train_worst_q):
    marl = cfg.marl
    scale = marl.reward_scale
    central = np.stack(policy.central)
    central_next = np.vstack([central[1:], policy.terminal_central[None, :]])
    T = len(central)
    terminal = np.zeros(T, dtype=bool)
    terminal[-1] = True

    loss_value = []
    loss_worst_q = []
    loss_actor = []
    loss_reg = []

    for aid, agent in agents.items():
        buf = policy.buffers[aid]
        rewards = np.array(
            [rec["rewards"][aid] for rec in log.steps], dtype=float
        ) * scale
        obs = np.stack(buf["obs"])
        masks = np.stack(buf["mask"])
        actions = np.array(buf["action"], dtype=int)
        logp_old = np.array(buf["logp_old"], dtype=float)
        acted = actions >= 0  # emergency-stop steps carry no policy action

        # Returns / advantages with the pre-update critic (bootstrap at T).
        values = agent.value.forward(central)[:, 0]
        bootstrap = agent.value.forward(policy.terminal_central)[0, 0]
        returns, advantages = algo.compute_returns_advantages(
            rewards, values, bootstrap, marl.gamma
        )

        # Critic updates first, then the policy objective (training order).
        lv = None
        for _ in range(marl.critic_epochs):
            lv, gv = algo.value_loss_grad(agent.value, central, returns)
            agent.value.set_flat(agent.opt_value.step(agent.value.get_flat(), gv))
        if lv is not None:
            loss_value.append(lv)

        if train_worst_q and np.any(acted):
            target_net = _target_copy(agent)
            targets = algo.worst_q_targets(
                target_net, rewards[acted], central_next[acted],
                terminal[acted], marl.gamma,
            )
            lq = None
            for _ in range(marl.critic_epochs):
                lq, gq = algo.worst_q_loss_grad(
                    agent.worst_q, central[acted], actions[acted], targets
                )
                agent.worst_q.set_flat(
                    agent.opt_worst_q.step(agent.worst_q.get_flat(), gq)
                )
            if lq is not None:
                loss_worst_q.append(lq)
            if sync_target:
                agent.worst_q_target = agent.worst_q.get_flat()

        if not np.any(acted):
            continue

        adv = advantages[acted]
        if kappa_wst != 0.0:
            q_all = agent.worst_q.forward(central[acted])
            q_taken = q_all[np.arange(acted.sum()), actions[acted]]
            adv = algo.robust_advantage(adv, q_taken, kappa_wst)

        pert = None
        weights = None
        if kappa_reg != 0.0:
            pert = np.stack(
                [
                    perturbation_samples(
                        policy.encoder.spec, obs[i], masks[i],
                        marl.epsilon_ball, marl.n_adv, rng,
                    )
                    for i in range(T)
                ]
            )
            weights = algo.state_importance(agent.value, agent.worst_q, central)

        for _ in range(marl.ppo_epochs):
            la, ga = algo.rcs_loss_grad(
                agent.actor, obs[acted], actions[acted], logp_old[acted],
                adv, marl.clip_eps,
            )
            total_grad = ga
            if kappa_reg != 0.0:
                lr_, gr = algo.reg_loss_grad(agent.actor, obs, pert, weights)
                total_grad = ga - kappa_reg * gr
            # Ascend: Adam minimizes, so feed the negated ascent direction.
            agent.actor.set_flat(
                agent.opt_actor.step(agent.actor.get_flat(), -total_grad)
            )
        loss_actor.append(la)
        if kappa_reg != 0.0:
            loss_reg.append(lr_)

    return {
        "loss_value": _mean_or_none(loss_value),
        "loss_worst_q": _mean_or_none(loss_worst_q),
        "loss_actor": _mean_or_none(loss_actor),
        "loss_reg": _mean_or_none(loss_reg),
    }


def _mean_or_none(xs):
    return float(np.mean(xs)) if xs else None


def _target_copy(agent):
    net = MLP(agent.worst_q.sizes, zero_final=True)
    net.set_flat(agent.worst_q_target)
    return net


def _runtime_params(agent, kappa_wst, kappa_reg):
    return ParameterSet(
        theta=agent.actor.get_flat(),
        phi=agent.value.get_flat(),
        omega=agent.worst_q.get_flat(),
        kappa_wst=kappa_wst,
        kappa_reg=kappa_reg,
    )


def save_checkpoint(path, result, settings):
    """Versioned flat-array checkpoint with a layout header and digest."""
    cfg = settings.config
    header = {
        "version": CHECKPOINT_VERSION,
        "scenario": settings.scenario,
        "algo": settings.algo,
        "shield_mode": settings.shield_mode,
        "seed": settings.seed,
        "agent_ids": list(result.spec.agent_ids),
        "hidden": list(cfg.marl.hidden),
        "action_k": cfg.harness.action_k,
        "encoder": {
            "n_cav_slots": result.encoder.spec.n_cav_slots,
            "n_ucv_slots": result.encoder.spec.n_ucv_slots,
            "max_lanes": result.encoder.spec.max_lanes,
            "pos_scale": result.encoder.spec.pos_scale,
            "speed_scale": result.encoder.spec.speed_scale,
            "accel_scale": result.encoder.spec.accel_scale,
        },
        "kappa_wst": cfg.marl.kappa_wst if settings.algo == ALGO_SRMAPPO else 0.0,
        "kappa_reg": cfg.marl.kappa_reg if settings.algo == ALGO_SRMAPPO else 0.0,
        "layouts": {},
    }
    arrays = {}
    for aid, agent in result.agents.items():
        arrays[f"{aid}__theta"] = agent.actor.get_flat()
        arrays[f"{aid}__phi"] = agent.value.get_flat()
        arrays[f"{aid}__omega"] = agent.worst_q.get_flat()
        header["layouts"][aid] = {
            "actor": agent.actor.sizes,
            "value": agent.value.sizes,
            "worst_q": agent.worst_q.sizes,
        }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    digest = _digest(header_bytes, arrays)
    np.savez(
        path,
        header=np.frombuffer(header_bytes, dtype=np.uint8),
        checksum=np.frombuffer(digest.encode(), dtype=np.uint8),
        **arrays,
    )


def _digest(header_bytes, arrays):
    h = hashlib.sha256()
    h.update(header_bytes)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def load_checkpoint(path):
    """(header, {agent: ParameterSet}).

    Raises ChecksumMismatch if corrupt and UnsupportedCheckpointVersion if
    the header's version is not CHECKPOINT_VERSION.
    """
    with np.load(path) as data:
        header_bytes = bytes(data["header"].tobytes())
        recorded = data["checksum"].tobytes().decode()
        arrays = {
            name: data[name]
            for name in data.files
            if name not in ("header", "checksum")
        }
    if _digest(header_bytes, arrays) != recorded:
        raise ChecksumMismatch(f"corrupt checkpoint {path}")
    header = json.loads(header_bytes.decode())
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise UnsupportedCheckpointVersion(
            f"checkpoint {path} has version {version!r}; this cavshield "
            f"reads version {CHECKPOINT_VERSION} only"
        )
    params = {}
    for aid in header["agent_ids"]:
        params[aid] = ParameterSet(
            theta=arrays[f"{aid}__theta"],
            phi=arrays[f"{aid}__phi"],
            omega=arrays[f"{aid}__omega"],
            kappa_wst=header["kappa_wst"],
            kappa_reg=header["kappa_reg"],
        )
    return header, params


def restore_agents(header, params):
    """Rebuild runtimes + encoder from checkpoint contents."""
    enc_spec = EncoderSpec(**header["encoder"])
    agents = {}
    for aid in header["agent_ids"]:
        layout = header["layouts"][aid]
        actor = MLP(layout["actor"], zero_final=True)
        value = MLP(layout["value"], zero_final=True)
        worst_q = MLP(layout["worst_q"], zero_final=True)
        actor.set_flat(params[aid].theta)
        value.set_flat(params[aid].phi)
        worst_q.set_flat(params[aid].omega)
        agents[aid] = AgentRuntime(
            actor=actor, value=value, worst_q=worst_q,
            worst_q_target=worst_q.get_flat(),
            opt_actor=Adam(actor.n_params),
            opt_value=Adam(value.n_params),
            opt_worst_q=Adam(worst_q.n_params),
        )
    return agents, enc_spec


def write_metrics(path, metrics):
    """Line-delimited JSON; deterministic byte stream for a given run."""
    with open(path, "w") as fh:
        for record in metrics:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
