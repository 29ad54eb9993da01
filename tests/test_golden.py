"""Behaviour lock: one short test-mode episode per scenario, compared with
a committed golden log, and one short SR-MAPPO training run.

Discrete fields (actions, safe sets, emergency flags, crashed sets,
collisions, meta) must match exactly; floats (states, controls, rewards,
perturbation errors) to 1e-12.  The shield's per-action verdicts (safe,
binding constraint, unavailable) of the same episode are kept in a compact
per-step form, ``<scenario>.verdicts.json``, and must match exactly too.
The training lock, ``train-intersection-srmappo.json``, holds the metrics
records of a two-episode SR-MAPPO run and the sum and L2 norm of each
agent's final actor and worst-Q parameters and of the team's value
critic, compared the same way.
A change that alters a trajectory or a verdict on purpose regenerates the
files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import functools
import json
import math
import pathlib

import numpy as np
import pytest

from cavshield.harness import episode as ep
from cavshield.harness import scenario as scen
from cavshield.harness.config import Config
from cavshield.marl import trainer
from cavshield.perturb import make_ptb_target_vehicles

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"
SCENARIOS = ("highway", "intersection")
SEED = 7
STEPS = 100
TOL = 1e-12
TRAIN_PATH = GOLDEN_DIR / "train-intersection-srmappo.json"
TRAIN_SEED = 11
TRAIN_EPISODES = 2


def golden_path(name):
    return GOLDEN_DIR / f"{name}.jsonl"


def verdicts_path(name):
    return GOLDEN_DIR / f"{name}.verdicts.json"


@functools.cache
def _golden_jsonl(name):
    cfg = Config()
    spec = scen.build_scenario(name, mode="test", cfg=cfg)
    spec.episode_len = STEPS
    schedule = make_ptb_target_vehicles(SEED, spec.ucv_ids)
    log = ep.run_episode(spec, cfg, ep.RandomSafeTeamPolicy(),
                         schedule=schedule, seed=SEED, log_verdicts=True)
    return log.to_jsonl()


def golden_episode(name):
    """The locked episode, normalized through its JSON form, without the
    verdicts (those are locked separately)."""
    log = ep.EpisodeLog.from_jsonl(_golden_jsonl(name))
    for rec in log.steps:
        del rec["verdicts"]
    return log


def golden_verdicts(name):
    """The locked episode's verdicts in compact form.

    "bindings" lists the binding labels in order of first use.  Each step
    maps an agent to one token per action, in action order: S (safe) or U
    (unsafe), then N when the action is unavailable, then the binding's
    index in "bindings" or "-" for none.
    """
    log = ep.EpisodeLog.from_jsonl(_golden_jsonl(name))
    bindings = []
    steps = []
    for rec in log.steps:
        step = {}
        for aid, verdicts in rec["verdicts"].items():
            tokens = []
            for entry in verdicts:
                safe, unavailable, label = ep.read_verdict(entry)
                if label is not None and label not in bindings:
                    bindings.append(label)
                tokens.append(
                    ("S" if safe else "U")
                    + ("N" if unavailable else "")
                    + ("-" if label is None else str(bindings.index(label)))
                )
            step[aid] = " ".join(tokens)
        steps.append(step)
    return {"bindings": bindings, "steps": steps}


def golden_training():
    """Metrics and parameter summaries of the locked training run."""
    settings = trainer.TrainSettings(
        scenario="intersection", algo=trainer.ALGO_SRMAPPO,
        shield_mode=ep.SHIELD_ROBUST, seed=TRAIN_SEED,
        episodes=TRAIN_EPISODES, config=Config(),
    )
    result = trainer.train(settings)

    def summary(net):
        flat = net.get_flat()
        return {"sum": float(flat.sum()), "norm": float(np.linalg.norm(flat))}

    params = {aid: {"theta": summary(agent.actor),
                    "omega": summary(agent.worst_q)}
              for aid, agent in result.agents.items()}
    # The team's one value critic, which every runtime holds.
    phi = summary(next(iter(result.agents.values())).value)
    # Through JSON, so tuples and ints compare as they are stored.
    return json.loads(json.dumps({"metrics": result.metrics, "params": params,
                                  "phi": phi}))


def assert_same(got, want, where="log"):
    """Exact equality except floats, which may differ by TOL."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=TOL, abs_tol=TOL), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (
            f"{where}: keys {sorted(got)} != {sorted(want)}"
        )
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (
            f"{where}: {got!r} != {want!r}"
        )
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (
            f"{where}: {got!r} != {want!r}"
        )


@pytest.mark.parametrize("name", SCENARIOS)
def test_episode_matches_golden_log(name):
    want = ep.EpisodeLog.load(golden_path(name))
    got = golden_episode(name)
    assert_same(got.meta, want.meta, "meta")
    assert len(got.steps) == len(want.steps) == STEPS
    for rec, ref in zip(got.steps, want.steps):
        assert_same(rec, ref, f"step {ref['t']}")
    assert_same(got.terminal_states, want.terminal_states, "terminal_states")


@pytest.mark.parametrize("name", SCENARIOS)
def test_verdicts_match_golden(name):
    want = json.loads(verdicts_path(name).read_text())
    got = golden_verdicts(name)
    assert got["bindings"] == want["bindings"]
    assert len(got["steps"]) == len(want["steps"]) == STEPS
    for t, (step, ref) in enumerate(zip(got["steps"], want["steps"])):
        assert step == ref, f"step {t}: {step!r} != {ref!r}"


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_verdicts_exercise_the_shield(name):
    want = json.loads(verdicts_path(name).read_text())
    tokens = [tok for step in want["steps"] for agent in step.values()
              for tok in agent.split()]
    kinds = {tok[0] for tok in tokens}
    assert kinds == {"S", "U"}
    assert any(tok[-1] != "-" for tok in tokens if tok[0] == "U")


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_log_exercises_the_scenario(name):
    want = ep.EpisodeLog.load(golden_path(name))
    assert any(rec["errors"] for rec in want.steps)
    assert ep.verify_roundtrip(want) <= 1e-9


def test_highway_golden_log_passes_the_brake():
    spec = scen.build_scenario("highway", mode="test", cfg=Config())
    setup = scen.materialize(spec, np.random.default_rng([SEED, 0xEB]))
    assert setup.plans["ucv1"].brake_step < STEPS
    want = ep.EpisodeLog.load(golden_path("highway"))
    speed = [rec["states"]["ucv1"][2] for rec in want.steps]
    assert speed[-1] < 5.0 < speed[0]


def test_training_matches_golden():
    want = json.loads(TRAIN_PATH.read_text())
    got = golden_training()
    assert len(want["metrics"]) == TRAIN_EPISODES
    assert all(m["loss_reg"] is not None for m in want["metrics"])
    assert_same(got, want, "training")


def test_assert_same_is_exact_on_discrete_fields():
    with pytest.raises(AssertionError):
        assert_same({"a": [1, 2]}, {"a": [1, 3]})
    with pytest.raises(AssertionError):
        assert_same(True, 1)
    with pytest.raises(AssertionError):
        assert_same(1.0 + 1e-9, 1.0)
    assert_same(1.0 + 1e-13, 1.0)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIOS:
        golden_episode(scenario).save(golden_path(scenario))
        print(f"wrote {golden_path(scenario)}")
        verdicts_path(scenario).write_text(
            json.dumps(golden_verdicts(scenario), indent=0) + "\n"
        )
        print(f"wrote {verdicts_path(scenario)}")
    TRAIN_PATH.write_text(json.dumps(golden_training(), indent=1,
                                     sort_keys=True) + "\n")
    print(f"wrote {TRAIN_PATH}")
