"""Behaviour lock: one short test-mode episode per scenario, compared with
a committed golden log.

Discrete fields (actions, safe sets, emergency flags, crashed sets,
collisions, meta) must match exactly; floats (states, controls, rewards,
perturbation errors) to 1e-12.  A change that alters a trajectory on
purpose regenerates the logs with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import math
import pathlib

import numpy as np
import pytest

from cavshield.harness import episode as ep
from cavshield.harness import scenario as scen
from cavshield.harness.config import Config
from cavshield.perturb import make_ptb_target_vehicles

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"
SCENARIOS = ("highway", "intersection")
SEED = 7
STEPS = 100
TOL = 1e-12


def golden_path(name):
    return GOLDEN_DIR / f"{name}.jsonl"


def golden_episode(name):
    """The locked episode, normalized through its JSON form."""
    cfg = Config()
    spec = scen.build_scenario(name, mode="test", cfg=cfg)
    spec.episode_len = STEPS
    schedule = make_ptb_target_vehicles(SEED, spec.ucv_ids)
    log = ep.run_episode(spec, cfg, ep.RandomSafeTeamPolicy(),
                         schedule=schedule, seed=SEED, collect_obs=False)
    return ep.EpisodeLog.from_jsonl(log.to_jsonl())


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
