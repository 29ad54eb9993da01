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
              kappa_reg, n_adv, ppo_epochs, critic_epochs, reward_scale,
              n_cav_slots, n_ucv_slots, max_lanes
    harness:  episode_len, train_episodes, quick_train_episodes, action_k,
              ptb_window, ptb_targets

shield.epsilon is the one observation-error bound: the robust shield's
buffer absorbs it, the SR-MAPPO regularizer searches a ball of that radius
and evaluation records every perturbation error beyond it.
"""

import dataclasses
import numbers
from dataclasses import dataclass, field

import yaml

from ..dynamics import DynamicsParams, is_finite_real
from ..shield import ShieldConfig


def is_count(value, low=1):
    """True for an int (not a bool) >= low."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low)


@dataclass
class WorldConfig:
    comm_range: float = 200.0

    def __post_init__(self):
        # A negative or NaN range hides every other vehicle from each agent.
        if not (is_finite_real(self.comm_range) and self.comm_range >= 0):
            raise ValueError("comm_range must be a finite number >= 0")


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
    ppo_epochs: int = 6
    critic_epochs: int = 10
    # Internal optimization scale for raw rewards; metrics stay raw.
    reward_scale: float = 1e-3
    n_cav_slots: int = 2
    n_ucv_slots: int = 3
    max_lanes: int = 4

    def __post_init__(self):
        # Lower bounds below which training crashes or silently skips work.
        for key, low in (("n_adv", 0), ("ppo_epochs", 1),
                         ("critic_epochs", 0), ("n_cav_slots", 0),
                         ("n_ucv_slots", 0), ("max_lanes", 1)):
            if not is_count(getattr(self, key), low):
                raise ValueError(f"{key} must be an int >= {low}")
        # An empty list gives linear nets.
        if not (isinstance(self.hidden, (tuple, list))
                and all(is_count(n) for n in self.hidden)):
            raise ValueError(f"hidden must be a list of ints >= 1, "
                             f"not {self.hidden!r}")
        # Any other value fails only inside an update, or as
        # TrainingDiverged after a whole episode.
        for key in ("lr", "lr_critic", "clip_eps", "gamma", "kappa_wst",
                    "kappa_reg", "reward_scale"):
            if not is_finite_real(getattr(self, key)):
                raise ValueError(f"{key} must be a finite number")
        for key, ok, rule in (
            ("lr", self.lr > 0, "> 0"),
            ("lr_critic", self.lr_critic > 0, "> 0"),
            ("reward_scale", self.reward_scale > 0, "> 0"),
            ("gamma", 0 <= self.gamma <= 1, "in [0, 1]"),
            ("clip_eps", self.clip_eps >= 0, ">= 0"),
            ("kappa_wst", self.kappa_wst >= 0, ">= 0"),
            ("kappa_reg", self.kappa_reg >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}")


@dataclass
class HarnessConfig:
    episode_len: int = 200
    train_episodes: int = 200
    quick_train_episodes: int = 20
    action_k: int = 3
    ptb_window: tuple = (50, 150)
    # Target set for the target-vehicles strategy; None = every UCV.
    ptb_targets: tuple = None

    def __post_init__(self):
        # A 0-step episode leaves the PPO update nothing to stack; a run of
        # no episodes would write an untrained checkpoint or no report.
        # action_k < 1 leaves no throttle action.
        for key in ("episode_len", "train_episodes", "quick_train_episodes",
                    "action_k"):
            if not is_count(getattr(self, key)):
                raise ValueError(f"{key} must be an int >= 1")
        window = self.ptb_window
        if not (isinstance(window, (tuple, list)) and len(window) == 2
                and all(is_count(t, low=0) for t in window)
                and window[0] < window[1]):
            raise ValueError(f"ptb_window must be a pair [t0, t1] of ints "
                             f"with 0 <= t0 < t1, not {window!r}")
        # A bare string would iterate into a set of its characters, an
        # empty list names no target (None means every UCV), and an id
        # that is not a string names no vehicle.
        targets = self.ptb_targets
        if targets is not None and not (
                isinstance(targets, (list, tuple)) and targets
                and all(isinstance(vid, str) for vid in targets)):
            raise ValueError(f"ptb_targets must be null (every UCV) or a "
                             f"non-empty list of vehicle ids, not {targets!r}")


@dataclass
class Config:
    world: WorldConfig = field(default_factory=WorldConfig)
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    shield: ShieldConfig = field(default_factory=ShieldConfig)
    marl: MarlConfig = field(default_factory=MarlConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)

    def to_dict(self):
        doc = dataclasses.asdict(self)
        return _tuples_to_lists(doc)

    def to_yaml(self):
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc):
        """A config from a mapping of sections (None: all defaults).

        An unknown section or key raises KeyError; a document or section
        that is not a mapping raises ValueError.
        """
        doc = _mapping(doc, "config document")
        sections = {f.name: f.default_factory for f in dataclasses.fields(cls)}
        for key in doc:
            if key not in sections:
                raise KeyError(f"unknown {cls.__name__} key {key!r}")
        return cls(**{
            key: _build(section, doc.get(key), key)
            for key, section in sections.items()
        })

    @classmethod
    def from_yaml(cls, text):
        """A config from YAML text; text that does not parse raises
        ValueError with the parser's problem and position."""
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = ("" if mark is None
                     else f" (line {mark.line + 1}, column {mark.column + 1})")
            problem = getattr(exc, "problem", None) or type(exc).__name__
            raise ValueError(f"not YAML: {problem}{where}") from None
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_yaml(fh.read())


def _mapping(doc, name):
    """doc as a dict; None is an empty one, anything else but a mapping
    is rejected."""
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a mapping, not {doc!r}")
    return doc


def _build(cls, doc, section):
    doc = _mapping(doc, f"config section {section!r}")
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
