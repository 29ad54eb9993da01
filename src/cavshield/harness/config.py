"""Run configuration: every constant named in the design lives here and in
the YAML config file.

Top-level YAML keys mirror the dataclass fields:

    world:    comm_range (lane geometry and vehicle sizes are scenario
              data: see harness/scenario.py)
    dynamics: dt, accel_min, accel_max, steer_min, steer_max, k_lat,
              k_head, lookahead, brake_value, hold_band, wheelbase_frac
    shield:   c1, c2, c3, gamma_cbf, epsilon, lipschitz_sum (null = audit
              at startup), horizon, conflict_radius, v_max, p_col, p_sas
    marl:     hidden, lr, lr_critic, clip_eps, gamma, kappa_wst,
              kappa_reg, n_adv, eps_explore_start, eps_explore_end,
              ppo_epochs, critic_epochs, worst_q_sync, reward_scale,
              epsilon_ball, n_cav_slots, n_ucv_slots, max_lanes
    harness:  episode_len, train_episodes, quick_train_episodes,
              quick_test_episodes, action_k, ptb_window, ptb_epsilon_bound,
              ptb_targets
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import yaml

from ..dynamics import DynamicsParams
from ..shield import ShieldConfig


@dataclass
class WorldConfig:
    comm_range: float = 200.0


@dataclass
class MarlConfig:
    hidden: tuple = (64, 64)
    lr: float = 3e-4
    lr_critic: float = 1e-3
    clip_eps: float = 0.2
    gamma: float = 0.99
    kappa_wst: float = 0.1
    kappa_reg: float = 0.05
    n_adv: int = 8
    eps_explore_start: float = 0.3
    eps_explore_end: float = 0.05
    ppo_epochs: int = 6
    critic_epochs: int = 10
    worst_q_sync: int = 1
    # Internal optimization scale for raw rewards; metrics stay raw.
    reward_scale: float = 1e-3
    # Radius of the regularizer's perturbation ball (raw meters / m/s).
    epsilon_ball: float = 2.0
    n_cav_slots: int = 2
    n_ucv_slots: int = 3
    max_lanes: int = 4

    def __post_init__(self):
        # Lower bounds below which training crashes or silently skips work.
        for key, low in (("n_adv", 0), ("ppo_epochs", 1),
                         ("critic_epochs", 0), ("worst_q_sync", 1)):
            value = getattr(self, key)
            is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (is_int and value >= low):
                raise ValueError(f"{key} must be an int >= {low}")
        eps = self.epsilon_ball
        if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps >= 0):
            raise ValueError("epsilon_ball must be finite and >= 0")


@dataclass
class HarnessConfig:
    episode_len: int = 200
    train_episodes: int = 200
    quick_train_episodes: int = 20
    quick_test_episodes: int = 10
    action_k: int = 3
    ptb_window: tuple = (50, 150)
    ptb_epsilon_bound: float = math.inf
    # Target set for the target-vehicles strategy; None = every UCV.
    ptb_targets: tuple = None

    def __post_init__(self):
        # A 0-step episode leaves the PPO update nothing to stack.
        n = self.episode_len
        if not (isinstance(n, numbers.Integral) and not isinstance(n, bool)
                and n >= 1):
            raise ValueError("episode_len must be an int >= 1")
        # A bare string would iterate into a set of its characters.
        if isinstance(self.ptb_targets, str):
            raise ValueError(f"ptb_targets must be a list of vehicle ids, "
                             f"not the string {self.ptb_targets!r}")


@dataclass
class Config:
    world: WorldConfig = field(default_factory=WorldConfig)
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    shield: ShieldConfig = field(default_factory=lambda: ShieldConfig(epsilon=2.0))
    marl: MarlConfig = field(default_factory=MarlConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)

    def to_dict(self):
        doc = dataclasses.asdict(self)
        return _tuples_to_lists(doc)

    def to_yaml(self):
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc or {})
        return cls(
            world=_build(WorldConfig, doc.get("world")),
            dynamics=_build(DynamicsParams, doc.get("dynamics")),
            shield=_build(ShieldConfig, doc.get("shield")),
            marl=_build(MarlConfig, doc.get("marl")),
            harness=_build(HarnessConfig, doc.get("harness")),
        )

    @classmethod
    def from_yaml(cls, text):
        return cls.from_dict(yaml.safe_load(text) or {})

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_yaml(fh.read())


def _build(cls, doc):
    doc = dict(doc or {})
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key not in fields:
            raise KeyError(f"unknown {cls.__name__} key {key!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def _tuples_to_lists(obj):
    if isinstance(obj, dict):
        return {k: _tuples_to_lists(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return [_tuples_to_lists(v) for v in obj]
    if isinstance(obj, list):
        return [_tuples_to_lists(v) for v in obj]
    return obj
