"""SR-MAPPO training loop: shield-restricted rollouts, per-agent actor and
centralized worst-Q updates, one team value critic, checkpoints, metrics.

Rollouts sample the softmax of each agent's safe actions' log-probs
(algo.select_action) and record the unrestricted log-prob; that
stochastic policy is the only exploration.  The worst-Q targets are
taken under the worst-Q critic as the update starts.

The update reads one Rollout batch per episode and nothing else: the
policy's per-step encodings, present-slot flags, actions and old
log-probs, the terminal encodings (the centralized states are their
rows, flattened) and the log's team reward.  train() rejects an unknown
algo, shield mode or seed before it builds anything.

Every agent gets the same team reward (C8 gates it) and every agent's
value critic would see the same centralized state, so the team has one
value net and one Adam, which every AgentRuntime shares (its value and
opt_value).  Each update fits them once on the team reward; every
agent's advantage and importance weights read that one critic.  The
worst-Q critic and the actor stay per agent.

Rewards are scaled by marl.reward_scale inside the optimizer only; every
logged number stays in raw units.

The state regularizer (SR-MAPPO with kappa_reg != 0) runs on an agent's
W rows with a non-zero importance weight only: a row of weight 0 adds
nothing to its loss or gradient.  Each agent draws the uniforms of all T
rows all the same, so later agents' candidates stay put; its (W, K, F)
candidates are searched once per update, one column at a time.  An
agent with W = 0 runs no search and no regularizer gradient, and counts
0.0 towards loss_reg.  Each metrics record's reg_weighted_rows counts W
over all agents (None when the regularizer is off).

A checkpoint's header is the run's settings and its whole config; every
net's shape follows from that config and the agent count (_net_sizes).
Evaluation restores the actors only.
"""

import hashlib
import json
import zipfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..dynamics import ActionSpace
from ..harness import episode as ep
from ..harness import scenario as scen
from ..harness.config import Config, is_count
from . import algo
from .encode import Encoder, EncoderSpec, perturbation_samples
from .nets import MLP, Adam, log_softmax

ALGO_SRMAPPO = "srmappo"
ALGO_MAPPO = "mappo"
ALGOS = (ALGO_SRMAPPO, ALGO_MAPPO)

CHECKPOINT_VERSION = 4


class TrainingDiverged(Exception):
    """Non-finite parameters after an update."""


class CheckpointError(Exception):
    """A checkpoint file that cannot be read; the message names the file."""


class ChecksumMismatch(CheckpointError):
    """Checkpoint payload does not match its recorded digest."""


class UnsupportedCheckpointVersion(CheckpointError):
    """Checkpoint header carries a version this code cannot read."""


class ConfigMismatch(CheckpointError):
    """The config does not match the one the checkpoint was trained under."""


@dataclass
class AgentRuntime:
    actor: MLP
    value: MLP  # the team's; every runtime holds the same net and Adam
    worst_q: MLP
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


@dataclass
class Rollout:
    """One recorded episode of A agents over T steps, as arrays whose
    columns follow agent_ids (the policy's agent order), and its team
    reward."""

    agent_ids: list
    obs: np.ndarray  # (T + 1, A, F) encodings; the last row is terminal
    masks: np.ndarray  # (T, A, S) present-slot flags
    actions: np.ndarray  # (T, A); ActionSpace.EMERGENCY where none acted
    logp_old: np.ndarray  # (T, A) unrestricted log-probs; 0.0 where none acted
    rewards: np.ndarray  # (T,) raw team reward from the episode log


class NeuralTeamPolicy:
    """Per-agent softmax actors restricted to the shield's safe sets.

    Each step is one pass for the whole team: the agents' encodings form
    one block, one forward of the stacked actors (MLP.from_arrays) gives
    every agent's logits with the bits of its own actor's forward, and one
    log-softmax covers all rows, whose safe entries each agent samples.
    The actors are stacked once, when the policy is built, so it acts with
    the weights they have then: no actor's weights may change while the
    policy is in use.  train() and evaluate() build one policy per episode
    and update only between episodes.  All actors must share one layout.

    Each step records the encoding and present-slot blocks, the actions
    and their old log-probs, and observe_terminal the terminal encodings;
    batch(log) hands the episode to the update as one Rollout.
    """

    def __init__(self, actors, encoder, agent_order):
        self.encoder = encoder
        self.agent_order = list(agent_order)
        if not self.agent_order:
            raise ValueError("a team policy needs at least one agent")
        actors = [actors[aid] for aid in self.agent_order]
        layout = actors[0].sizes
        for aid, net in zip(self.agent_order, actors):
            if net.sizes != layout:
                raise ValueError(
                    f"actor of agent {aid!r} has layout {net.sizes}; "
                    f"agent {self.agent_order[0]!r} has {layout}"
                )
        layers = range(len(layout) - 1)
        self.team_actor = MLP.from_arrays(
            [np.stack([net.weights[i] for net in actors]) for i in layers],
            [np.stack([net.biases[i] for net in actors])[:, None, :]
             for i in layers],
        )
        self.obs = []
        self.masks = []
        self.actions = []
        self.logp_old = []

    def select_actions(self, joint, outcome, rng):
        block, mask_block = self.encoder.encode_joint(joint, self.agent_order)
        n = len(self.agent_order)
        logits = self.team_actor.forward(block.reshape(n, 1, -1))
        logps = log_softmax(logits.reshape(n, -1)).tolist()
        actions = []
        logp_old = []
        for i, aid in enumerate(self.agent_order):
            safe = outcome.safe_sets[aid]
            if safe == [ActionSpace.EMERGENCY]:
                action = ActionSpace.EMERGENCY
                logp = 0.0
            else:
                action = algo.select_action(logps[i], safe, rng)
                logp = logps[i][action]
            actions.append(action)
            logp_old.append(logp)
        self.obs.append(block)
        self.masks.append(mask_block)
        self.actions.append(actions)
        self.logp_old.append(logp_old)
        return dict(zip(self.agent_order, actions))

    def observe_terminal(self, joint):
        self.obs.append(self.encoder.encode_joint(joint, self.agent_order)[0])

    def batch(self, log):
        """The recorded episode, with the team reward of its log."""
        first = self.agent_order[0]
        rewards = [rec["rewards"][first] for rec in log.steps]
        return Rollout(self.agent_order, np.array(self.obs),
                       np.array(self.masks), np.array(self.actions),
                       np.array(self.logp_old), np.array(rewards))


def _net_sizes(cfg, n_agents):
    """(encoder spec, actor sizes, worst-Q sizes, value sizes) of a team of
    n_agents under cfg: every net's shape is decided here."""
    enc_spec = EncoderSpec(
        n_cav_slots=cfg.marl.n_cav_slots,
        n_ucv_slots=cfg.marl.n_ucv_slots,
        max_lanes=cfg.marl.max_lanes,
    )
    hidden = list(cfg.marl.hidden)
    n_actions = ActionSpace(cfg.harness.action_k).n
    central = enc_spec.dim * n_agents
    return (enc_spec, [enc_spec.dim] + hidden + [n_actions],
            [central] + hidden + [n_actions], [central] + hidden + [1])


def build_agents(spec, cfg, seed):
    """Fresh actor and worst-Q networks for every agent, and one value
    network and Adam that every runtime shares."""
    agent_ids = spec.agent_ids
    enc_spec, actor_sizes, worst_q_sizes, value_sizes = _net_sizes(
        cfg, len(agent_ids))
    encoder = Encoder(enc_spec, spec.road.lanes.keys())
    agents = {}
    # The value net draws from a child of its own after the agents' ones,
    # so each agent's child, and its actor, are what they were.
    *seeds, value_seed = np.random.SeedSequence([seed, 0x11]).spawn(
        len(agent_ids) + 1)
    value = MLP(value_sizes, np.random.default_rng(value_seed), zero_final=True)
    opt_value = Adam(value.n_params, lr=cfg.marl.lr_critic)
    for aid, ss in zip(agent_ids, seeds):
        rng = np.random.default_rng(ss)
        actor = MLP(actor_sizes, rng, zero_final=True)
        worst_q = MLP(worst_q_sizes, rng, zero_final=True)
        agents[aid] = AgentRuntime(
            actor=actor,
            value=value,
            worst_q=worst_q,
            opt_actor=Adam(actor.n_params, lr=cfg.marl.lr),
            opt_value=opt_value,
            opt_worst_q=Adam(worst_q.n_params, lr=cfg.marl.lr_critic),
        )
    return agents, encoder


def train(settings, on_record=None):
    """Run the full loop; returns runtimes, metrics and the encoder.

    on_record, if given, is called with each episode's metrics record as
    soon as it is made, so a caller can keep every record of a run that
    raises later."""
    if settings.algo not in ALGOS:
        raise ValueError(f"algo must be one of {', '.join(ALGOS)}, "
                         f"not {settings.algo!r}")
    ep.check_shield_mode(settings.shield_mode)
    check_seed(settings.seed)
    cfg = settings.config
    spec = scen.build_scenario(settings.scenario, mode="train", cfg=cfg)
    n_episodes = settings.episodes
    if n_episodes is None:
        n_episodes = (
            cfg.harness.quick_train_episodes
            if settings.quick
            else cfg.harness.train_episodes
        )
    elif not is_count(n_episodes):
        raise ValueError(f"episodes must be an int >= 1, not {n_episodes!r}")
    agents, encoder = build_agents(spec, cfg, settings.seed)
    actors = {aid: agent.actor for aid, agent in agents.items()}
    metrics = []
    kappa_wst, kappa_reg = ((cfg.marl.kappa_wst, cfg.marl.kappa_reg)
                            if settings.algo == ALGO_SRMAPPO else (0.0, 0.0))

    for e in range(n_episodes):
        policy = NeuralTeamPolicy(actors, encoder, spec.agent_ids)
        log = ep.run_episode(
            spec, cfg, policy, schedule=None, seed=_episode_seed(settings.seed, e),
            shield_mode=settings.shield_mode, log_verdicts=False,
        )
        losses = _update_agents(
            agents, policy.batch(log), encoder.spec, cfg, kappa_wst, kappa_reg,
            rng=np.random.default_rng([settings.seed, 0xAD, e]),
            train_worst_q=settings.algo == ALGO_SRMAPPO,
        )
        _check_finite(agents, f"episode {e}")
        returns = log.returns()
        record = {
            "episode": e,
            "return": {aid: float(r) for aid, r in returns.items()},
            "mean_return": float(np.mean(list(returns.values()))),
            "collisions": log.collision_count(),
            "emergency_steps": log.emergency_step_count(),
        }
        record.update(losses)
        metrics.append(record)
        if on_record is not None:
            on_record(record)
    return TrainResult(agents=agents, metrics=metrics, encoder=encoder, spec=spec)


def check_seed(seed):
    """Raise ValueError unless seed is an int >= 0 (SeedSequence's domain)."""
    if not is_count(seed, low=0):
        raise ValueError(f"seed must be an int >= 0, not {seed!r}")


def _episode_seed(seed, e):
    return int(np.random.SeedSequence([seed, 0xE0, e]).generate_state(1)[0])


def _update_agents(agents, batch, encoder_spec, cfg, kappa_wst, kappa_reg,
                   rng, train_worst_q):
    marl = cfg.marl
    rewards = batch.rewards * marl.reward_scale
    value, opt_value = _team_value(agents)
    states = batch.obs.reshape(len(batch.obs), -1)  # centralized, terminal last
    central = states[:-1]
    n_rows = len(central)
    terminal = np.zeros(n_rows, dtype=bool)
    terminal[-1] = True

    # The team critic: returns and advantages under the pre-update critic
    # (bootstrap at T), then the fit.
    v_start = value.forward(states)[:, 0]
    returns, advantages = algo.compute_returns_advantages(
        rewards, v_start[:-1], v_start[-1], marl.gamma
    )
    lv = None
    for _ in range(marl.critic_epochs):
        lv, gv = algo.value_loss_grad(value, central, returns)
        value.set_flat(opt_value.step(value.get_flat(), gv))
    v_fitted = value.forward(central)[:, 0] if kappa_reg != 0.0 else None

    loss_worst_q = []
    loss_actor = []
    loss_reg = []
    reg_weighted_rows = 0 if kappa_reg != 0.0 else None

    for aid, agent in agents.items():
        col = batch.agent_ids.index(aid)
        obs = batch.obs[:-1, col]
        actions = batch.actions[:, col]
        logp_old = batch.logp_old[:, col]
        acted = actions >= 0  # emergency-stop steps carry no policy action

        if train_worst_q and np.any(acted):
            # Targets under the worst-Q critic as the update starts.
            targets = algo.worst_q_targets(
                agent.worst_q, rewards[acted], states[1:][acted],
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

        if not np.any(acted):
            continue

        adv = advantages[acted]
        if kappa_wst != 0.0:
            q_all = agent.worst_q.forward(central[acted])
            q_taken = q_all[np.arange(acted.sum()), actions[acted]]
            adv = algo.robust_advantage(adv, q_taken, kappa_wst)

        sel = None
        lr_ = 0.0
        if kappa_reg != 0.0:
            weights = algo.state_importance(v_fitted, agent.worst_q, central)
            rows = np.flatnonzero(weights)
            reg_weighted_rows += len(rows)
            # Candidates for the weighted rows only, from every row's
            # uniforms, so that later agents' candidates stay put.
            candidates = perturbation_samples(
                encoder_spec, obs, batch.masks[:, col], cfg.shield.epsilon,
                marl.n_adv, rng, rows=rows,
            )
            if len(rows):
                # The inner max, once per update under the pre-update actor.
                reg_obs = obs[rows]
                sel = algo.worst_candidates(agent.actor, reg_obs, candidates)
                # The mean over the W rows, scaled by W / T, is the mean
                # over all T rows, whose other weights are 0.
                reg_weights = weights[rows] * (len(rows) / n_rows)
            del candidates  # so that two agents' blocks are never live at once

        for _ in range(marl.ppo_epochs):
            la, ga = algo.rcs_loss_grad(
                agent.actor, obs[acted], actions[acted], logp_old[acted],
                adv, marl.clip_eps,
            )
            total_grad = ga
            if sel is not None:
                lr_, gr = algo.reg_loss_grad(agent.actor, reg_obs, sel,
                                             reg_weights)
                total_grad = ga - kappa_reg * gr
            # Ascend: Adam minimizes, so feed the negated ascent direction.
            agent.actor.set_flat(
                agent.opt_actor.step(agent.actor.get_flat(), -total_grad)
            )
        loss_actor.append(la)
        if kappa_reg != 0.0:
            loss_reg.append(lr_)

    return {
        "loss_value": lv,
        "loss_worst_q": _mean_or_none(loss_worst_q),
        "loss_actor": _mean_or_none(loss_actor),
        "loss_reg": _mean_or_none(loss_reg),
        "reg_weighted_rows": reg_weighted_rows,
    }


def _mean_or_none(xs):
    return float(np.mean(xs)) if xs else None


def _team_value(agents):
    """(value net, its Adam): the team critic every runtime holds."""
    first = next(iter(agents.values()))
    for aid, agent in agents.items():
        if agent.value is not first.value or agent.opt_value is not first.opt_value:
            raise ValueError(f"agent {aid!r} does not share the team's value "
                             f"critic")
    return first.value, first.opt_value


def _check_finite(agents, where):
    nets = [("phi", _team_value(agents)[0])]
    for agent in agents.values():
        nets += [("theta", agent.actor), ("omega", agent.worst_q)]
    for name, net in nets:
        if not np.all(np.isfinite(net.get_flat())):
            raise TrainingDiverged(f"non-finite {name} after {where}")


def save_checkpoint(path, result, settings):
    """Versioned flat-array checkpoint with a digest: a header of the run's
    settings and its whole config, each agent's actor (AID__theta) and
    worst-Q critic (AID__omega), and the team's value critic once (phi)."""
    header = {
        "version": CHECKPOINT_VERSION,
        "scenario": settings.scenario,
        "algo": settings.algo,
        "shield_mode": settings.shield_mode,
        "seed": settings.seed,
        "agent_ids": list(result.spec.agent_ids),
        "config": settings.config.to_dict(),
    }
    arrays = {"phi": _team_value(result.agents)[0].get_flat()}
    for aid, agent in result.agents.items():
        arrays[f"{aid}__theta"] = agent.actor.get_flat()
        arrays[f"{aid}__omega"] = agent.worst_q.get_flat()
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


def _npz_members(path):
    """Every array of the npz archive at path, by name."""
    try:
        data = np.load(path)
        if isinstance(data, np.lib.npyio.NpzFile):
            with data:
                return {name: data[name] for name in data.files}
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
    except (ValueError, EOFError, zipfile.BadZipFile):
        pass
    raise CheckpointError(f"checkpoint {path} is not a readable npz archive")


def _member(path, arrays, name):
    if name not in arrays:
        raise CheckpointError(f"checkpoint {path} has no member {name!r}")
    return arrays.pop(name)


def load_checkpoint(path):
    """(header, {agent: actor}, encoder spec): the actors and the encoder
    spec of the config the header records.  The worst-Q critics and the
    value critic are checked, not restored.

    Raises CheckpointError, naming the file, if it cannot be read, is not
    an npz archive, lacks a member, has a header that is not a JSON object,
    no config or one Config rejects, a scenario or shield mode this
    cavshield does not have, or agent_ids that are not a non-empty list
    of distinct strings; its subclasses ChecksumMismatch if the payload
    does not match its digest and UnsupportedCheckpointVersion if the
    header's version is not CHECKPOINT_VERSION.
    """
    arrays = _npz_members(path)
    header_bytes = bytes(_member(path, arrays, "header").tobytes())
    recorded = _member(path, arrays, "checksum").tobytes()
    if _digest(header_bytes, arrays).encode() != recorded:
        raise ChecksumMismatch(f"corrupt checkpoint {path}")
    try:
        header = json.loads(header_bytes.decode())
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint {path} has a header that is "
                              f"not a JSON object")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise UnsupportedCheckpointVersion(
            f"checkpoint {path} has version {version!r}; this cavshield "
            f"reads version {CHECKPOINT_VERSION} only"
        )
    for key, known in (("scenario", scen.scenario_names()),
                       ("shield_mode", ep.SHIELD_MODES)):
        if header.get(key) not in known:
            raise CheckpointError(f"checkpoint {path} has {key} "
                                  f"{header.get(key)!r}, not one of "
                                  f"{', '.join(known)}")
    if "config" not in header:
        raise CheckpointError(f"checkpoint {path} has no config")
    try:
        trained = Config.from_dict(header["config"])
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} has a config this "
                              f"cavshield rejects: {exc.args[0]}") from None
    agent_ids = header.get("agent_ids")
    if not (isinstance(agent_ids, list) and agent_ids
            and all(isinstance(aid, str) for aid in agent_ids)
            and len(set(agent_ids)) == len(agent_ids)):
        raise CheckpointError(f"checkpoint {path} has agent_ids "
                              f"{agent_ids!r}, not a non-empty list of "
                              f"distinct strings")
    enc_spec, actor_sizes, _, _ = _net_sizes(trained, len(agent_ids))
    actors = {}
    for aid in agent_ids:
        actors[aid] = MLP.from_flat(actor_sizes,
                                    _member(path, arrays, f"{aid}__theta"))
        _member(path, arrays, f"{aid}__omega")
    _member(path, arrays, "phi")
    return header, actors, enc_spec


def check_config(path, header, cfg):
    """Raise ConfigMismatch, naming the key, if cfg's action count or
    hidden sizes differ from those of the config the checkpoint was
    trained under."""
    trained = Config.from_dict(header["config"])
    for key, was, current in (
        ("harness.action_k", trained.harness.action_k, cfg.harness.action_k),
        ("marl.hidden", list(trained.marl.hidden), list(cfg.marl.hidden)),
    ):
        if was != current:
            raise ConfigMismatch(
                f"checkpoint {path} was trained with {key} = {was}; "
                f"the config has {current}"
            )


def metrics_line(record):
    """One metrics record as a line of JSON; for a given run the lines are
    a deterministic byte stream."""
    return json.dumps(record, sort_keys=True) + "\n"
