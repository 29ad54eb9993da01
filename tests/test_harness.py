"""Harness tests: scenario files, reward assembly, episode determinism,
log replay, training smoke, checkpoints, evaluation."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path as FsPath

import numpy as np
import pytest
import yaml

from cavshield.harness import episode as ep
from cavshield.harness import evaluate as ev
from cavshield.harness import scenario as scen
from cavshield.harness.config import Config
from cavshield.harness.reward import step_reward
from cavshield.marl import trainer
from cavshield.perturb import (make_constant, make_ptb_over_time,
                               make_ptb_target_vehicles, make_rand)
from cavshield.shield import SafetyOutcome
from cavshield.world import Path, RoadMap, VehicleState, World

SRC = FsPath(__file__).resolve().parents[1] / "src"

CFG = Config()


class TestConfig:
    def test_yaml_roundtrip(self):
        text = CFG.to_yaml()
        back = Config.from_yaml(text)
        assert back == CFG

    # Old config files may still set the exploration and target-sync keys,
    # a regularizer ball or violation bound of their own (both are
    # shield.epsilon) or the test-episode count that nothing read.
    @pytest.mark.parametrize("section,key", [
        ("shield", "bogus"), ("marl", "eps_explore_start"),
        ("marl", "eps_explore_end"), ("marl", "worst_q_sync"),
        ("marl", "epsilon_ball"), ("harness", "ptb_epsilon_bound"),
        ("harness", "quick_test_episodes"),
    ])
    def test_unknown_key_rejected(self, section, key):
        with pytest.raises(KeyError, match=key):
            Config.from_dict({section: {key: 1}})

    def test_unknown_section_rejected(self):
        # A misspelt section was dropped, and the run used its defaults
        # (here epsilon = 2.0 instead of 0.0).
        with pytest.raises(KeyError, match="unknown Config key 'shiled'"):
            Config.from_dict({"shiled": {"epsilon": 0.0}})
        with pytest.raises(KeyError, match="shiled"):
            Config.from_yaml("shiled: {epsilon: 0.0}\n")

    @pytest.mark.parametrize("doc,message", [
        ({"shield": 3}, "config section 'shield' must be a mapping, not 3"),
        ({"marl": [1, 2]},
         "config section 'marl' must be a mapping, not [1, 2]"),
        ([1], "config document must be a mapping, not [1]"),
        ("shield", "config document must be a mapping, not 'shield'"),
    ])
    def test_section_that_is_not_a_mapping_rejected(self, doc, message):
        # {"shield": 3} raised TypeError: 'int' object is not iterable.
        with pytest.raises(ValueError, match=re.escape(message)):
            Config.from_dict(doc)

    def test_empty_document_and_sections_are_defaults(self):
        assert Config.from_dict(None) == CFG
        assert Config.from_yaml("") == CFG
        assert Config.from_yaml("shield:\nmarl:\n") == CFG

    def test_text_that_is_not_yaml_rejected(self):
        with pytest.raises(ValueError, match=r"not YAML: .*\(line 2, column 1\)"):
            Config.from_yaml("shield: {epsilon: 1.0\n")

    def test_override(self):
        cfg = Config.from_dict({"shield": {"epsilon": 3.0}, "marl": {"lr": 1e-3}})
        assert cfg.shield.epsilon == 3.0
        assert cfg.marl.lr == 1e-3

    def test_file_without_shield_epsilon_runs_the_robust_shield(self):
        # A file that leaves shield.epsilon out gets the documented bound,
        # not epsilon = 0, under which the robust shield is the plain one.
        cfg = Config.from_yaml("harness: {episode_len: 60}")
        assert cfg.shield == Config().shield
        spec = scen.build_scenario("intersection", mode="test", cfg=cfg)
        spec.episode_len = 80
        steps = {}
        for mode in (ep.SHIELD_ROBUST, ep.SHIELD_PLAIN):
            log = ep.run_episode(
                spec, cfg, ep.RandomSafeTeamPolicy(),
                schedule=make_ptb_target_vehicles(7, spec.ucv_ids), seed=7,
                shield_mode=mode, log_verdicts=False,
            )
            steps[mode] = log.to_jsonl().splitlines()[1:]
        assert steps[ep.SHIELD_ROBUST] != steps[ep.SHIELD_PLAIN]

    @pytest.mark.parametrize("marl", [
        {"n_adv": -3}, {"n_adv": 2.5}, {"n_adv": "8"}, {"n_adv": True},
    ])
    def test_marl_regularizer_rejected(self, marl):
        with pytest.raises(ValueError, match=next(iter(marl))):
            Config.from_dict({"marl": marl})

    @pytest.mark.parametrize("marl", [
        {"ppo_epochs": 0}, {"ppo_epochs": -1}, {"ppo_epochs": 2.0},
        {"ppo_epochs": True}, {"ppo_epochs": "6"}, {"ppo_epochs": None},
        {"critic_epochs": "10"}, {"critic_epochs": False},
        {"critic_epochs": -2}, {"critic_epochs": 1.5},
        {"critic_epochs": True},
    ])
    def test_marl_epochs_rejected(self, marl):
        with pytest.raises(ValueError, match=next(iter(marl))):
            Config.from_dict({"marl": marl})

    def test_marl_epochs_accepted(self):
        cfg = Config.from_dict({"marl": {"ppo_epochs": 1, "critic_epochs": 0}})
        assert (cfg.marl.ppo_epochs, cfg.marl.critic_epochs) == (1, 0)

    # Each of these would fail the first episode: a non-finite barrier row,
    # an overflow in the Lipschitz audit, or an empty sampling range.
    @pytest.mark.parametrize("shield,key", [
        ({"epsilon": math.nan}, "epsilon"), ({"epsilon": math.inf}, "epsilon"),
        ({"c1": math.nan}, "c1"), ({"c2": math.inf}, "c2"),
        ({"c3": "2.0"}, "c3"), ({"gamma_cbf": math.inf}, "gamma_cbf"),
        ({"lipschitz_sum": math.nan}, "lipschitz_sum"),
        ({"lipschitz_sum": math.inf}, "lipschitz_sum"),
        ({"horizon": math.nan}, "horizon"), ({"horizon": -5}, "horizon"),
        ({"v_max": math.nan}, "v_max"), ({"v_max": -3}, "v_max"),
        ({"conflict_radius": math.inf}, "conflict_radius"),
        ({"p_col": -math.inf}, "p_col"), ({"p_sas": math.nan}, "p_sas"),
        ({"epsilon": -1.0}, "epsilon"), ({"epsilon": "2.0"}, "epsilon"),
        ({"epsilon": True}, "epsilon"), ({"horizon": False}, "horizon"),
        ({"p_sas": True}, "p_sas"),
    ])
    def test_shield_rejected(self, shield, key):
        with pytest.raises(ValueError, match=key):
            Config.from_dict({"shield": shield})

    def test_shield_edges_accepted(self):
        cfg = Config.from_dict({"shield": {
            "lipschitz_sum": None, "horizon": 0, "v_max": 0.0, "epsilon": 0}})
        assert (cfg.shield.lipschitz_sum, cfg.shield.horizon) == (None, 0)

    @pytest.mark.parametrize("dynamics,key", [
        ({"hold_band": -1.0}, "hold_band"), ({"dt": 0.0}, "dt"),
        ({"dt": math.nan}, "dt"), ({"k_lat": math.inf}, "k_lat"),
        ({"lookahead": "15"}, "lookahead"), ({"accel_min": 0.5}, "accel_min"),
        ({"accel_max": -0.5}, "accel_max"),
        ({"steer_min": 0.6}, "steer_max"),
        ({"steer_min": 0.2, "steer_max": 0.1}, "steer_max"),
        ({"brake_value": -0.1}, "brake_value"),
        ({"brake_value": 1.5}, "brake_value"),
        ({"wheelbase_frac": 0.0}, "wheelbase_frac"),
        ({"dt": True}, "dt"), ({"hold_band": True}, "hold_band"),
    ])
    def test_dynamics_rejected(self, dynamics, key):
        with pytest.raises(ValueError, match=key):
            Config.from_dict({"dynamics": dynamics})

    def test_dynamics_edges_accepted(self):
        edges = {"accel_min": 0.0, "accel_max": 0.0, "steer_min": 0.3,
                 "steer_max": 0.3, "hold_band": 0.0, "brake_value": 1.0}
        assert Config.from_dict({"dynamics": edges}).dynamics.hold_band == 0.0
        assert Config.from_dict(
            {"dynamics": {"brake_value": 0, "dt": 1}}
        ).dynamics.brake_value == 0

    @pytest.mark.parametrize("episode_len", [0, -5, 2.5, True, "200"])
    def test_episode_len_rejected(self, episode_len):
        with pytest.raises(ValueError, match="episode_len"):
            Config.from_dict({"harness": {"episode_len": episode_len}})

    @pytest.mark.parametrize("harness,key", [
        ({"train_episodes": 0}, "train_episodes"),
        ({"train_episodes": -3}, "train_episodes"),
        ({"quick_train_episodes": 0}, "quick_train_episodes"),
        ({"quick_train_episodes": 2.5}, "quick_train_episodes"),
        ({"quick_train_episodes": True}, "quick_train_episodes"),
        ({"train_episodes": "200"}, "train_episodes"),
        ({"ptb_window": [150, 50]}, "ptb_window"),
        ({"ptb_window": [50, 50]}, "ptb_window"),
        ({"ptb_window": [-10, 50]}, "ptb_window"),
        ({"ptb_window": [0.5, 50]}, "ptb_window"),
        ({"ptb_window": [50]}, "ptb_window"),
        ({"ptb_window": "50,150"}, "ptb_window"),
    ])
    def test_harness_counts_rejected(self, harness, key):
        with pytest.raises(ValueError, match=key):
            Config.from_dict({"harness": harness})

    def test_harness_count_edges_accepted(self):
        cfg = Config.from_dict({"harness": {
            "train_episodes": 1, "quick_train_episodes": 1,
            "ptb_window": [0, 1]}})
        assert cfg.harness.ptb_window == (0, 1)
        assert cfg.harness.quick_train_episodes == 1

    # Each loads at an older parent and fails only later: in build_agents
    # or train, inside Adam, or as TrainingDiverged after a full episode.
    @pytest.mark.parametrize("marl,key", [
        ({"hidden": [0]}, "hidden"), ({"hidden": "64"}, "hidden"),
        ({"hidden": True}, "hidden"), ({"hidden": [64.5]}, "hidden"),
        ({"hidden": [-3]}, "hidden"), ({"hidden": [64, None]}, "hidden"),
        ({"hidden": [True]}, "hidden"),
        ({"lr": math.nan}, "lr"), ({"lr": "3e-4"}, "lr"), ({"lr": 0.0}, "lr"),
        ({"lr_critic": math.inf}, "lr_critic"),
        ({"lr_critic": -1e-3}, "lr_critic"),
        ({"gamma": math.nan}, "gamma"), ({"gamma": 1.5}, "gamma"),
        ({"gamma": -0.1}, "gamma"), ({"gamma": True}, "gamma"),
        ({"kappa_wst": math.inf}, "kappa_wst"), ({"kappa_wst": -0.1}, "kappa_wst"),
        ({"kappa_reg": math.nan}, "kappa_reg"), ({"kappa_reg": -0.05}, "kappa_reg"),
        ({"reward_scale": math.inf}, "reward_scale"),
        ({"reward_scale": 0}, "reward_scale"),
        ({"clip_eps": -1}, "clip_eps"), ({"clip_eps": math.nan}, "clip_eps"),
    ])
    def test_marl_values_rejected(self, marl, key):
        with pytest.raises(ValueError, match=key):
            Config.from_dict({"marl": marl})

    def test_marl_value_edges_accepted(self):
        cfg = Config.from_dict({"marl": {"hidden": [], "gamma": 0,
                                         "clip_eps": 0}})
        assert (cfg.marl.hidden, cfg.marl.gamma, cfg.marl.clip_eps) == ((), 0, 0)
        cfg = Config.from_dict({"marl": {"hidden": [16], "gamma": 1.0,
                                         "kappa_wst": 0, "kappa_reg": 0.0}})
        assert (cfg.marl.hidden, cfg.marl.gamma) == ((16,), 1.0)

    def test_marl_regularizer_accepted(self):
        assert Config.from_dict({"marl": {"n_adv": 0}}).marl.n_adv == 0


class TestScenario:
    @pytest.mark.parametrize("name", scen.scenario_names())
    @pytest.mark.parametrize("mode", scen.MODES)
    def test_every_shipped_scenario_builds(self, name, mode):
        cfg = Config.from_dict({"harness": {"episode_len": 37}})
        spec = scen.build_scenario(name, mode=mode, cfg=cfg)
        assert (spec.name, spec.mode, spec.episode_len) == (name, mode, 37)
        vehicles = spec.agent_ids + spec.ucv_ids
        assert len(set(vehicles)) == len(vehicles)
        assert set(spec.destinations) == set(vehicles)
        for spawn in spec.cav_spawns + spec.ucv_spawns:
            assert spawn.lane in spec.road.lanes
        setup = scen.materialize(spec, np.random.default_rng(0))
        assert set(setup.plans) == set(spec.ucv_ids)

    @pytest.mark.parametrize("name", ["highway", "intersection"])
    @pytest.mark.parametrize("mode", ["train", "test"])
    def test_yaml_roundtrip(self, name, mode):
        # A shipped document dumped to YAML text and loaded back builds the
        # same scenario as the cached parse of the file.
        def fields(spec):
            lanes = [(lid, p.waypoints.tolist())
                     for lid, p in spec.road.lanes.items()]
            return (spec.name, spec.mode, spec.episode_len, lanes,
                    spec.road.adjacency, spec.cav_spawns, spec.ucv_spawns,
                    spec.behaviors, spec.destinations, spec.vehicle_length,
                    spec.vehicle_width)

        text = yaml.safe_dump(scen._document(name))
        back = scen.load_scenario(text, name, mode=mode, cfg=CFG)
        assert fields(back) == fields(scen.build_scenario(name, mode=mode, cfg=CFG))

    def test_shipped_names(self):
        assert scen.scenario_names() == ("highway", "intersection")
        with pytest.raises(ValueError, match="bogus"):
            scen.build_scenario("bogus")
        with pytest.raises(ValueError, match="eval"):
            scen.build_scenario("highway", mode="eval")

    def test_fresh_spec_and_untouched_document(self):
        import importlib.resources as res

        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 3
        spec.behaviors.clear()
        spec.road.adjacency["hwy0"]["left"] = None
        again = scen.build_scenario("highway", mode="test", cfg=CFG)
        assert again.episode_len == CFG.harness.episode_len
        assert again.behaviors["ucv1"].kind == scen.BEHAVIOR_SUDDEN_BRAKE
        assert again.road.adjacent("hwy0", "left") == "hwy1"
        data = res.files("cavshield.harness") / "data"
        for name in scen.scenario_names():
            text = (data / f"{name}.yaml").read_text()
            assert scen._document(name) == yaml.safe_load(text)

    def test_one_line_text_is_text(self):
        text = (
            "{vehicle_length: 4.5, vehicle_width: 2.0, lanes: [{id: l, "
            "waypoints: [[0.0, 0.0], [100.0, 0.0]]}], spawns: [{id: c, lane: l, "
            "s: 5.0, speed: [1.0, 2.0], connected: true}], "
            "destinations: {c: [90.0, 0.0]}}"
        )
        spec = scen.load_scenario(text, "line")
        assert spec.agent_ids == ["c"] and spec.ucv_ids == []

    def test_behavior_defaults_come_from_the_dataclass(self):
        doc = valid_doc()
        doc["behaviors"] = {"ucv0": {"kind": scen.BEHAVIOR_SUDDEN_BRAKE}}
        spec = scen.load_scenario(yaml.safe_dump(doc), "case")
        assert spec.behaviors["ucv0"] == scen.UcvBehavior(scen.BEHAVIOR_SUDDEN_BRAKE)

    def test_test_block_merges_by_vehicle_id(self):
        doc = valid_doc()
        doc["behaviors"] = {"ucv0": {"kind": scen.BEHAVIOR_SUDDEN_BRAKE,
                                     "brake_speed": [1.0, 2.0]}}
        doc["test"] = {"spawns": [{"id": "ucv0", "speed": [3.0, 4.0]}],
                       "behaviors": {"ucv0": {"brake_window": [5, 6]}}}
        train = scen.load_scenario(yaml.safe_dump(doc), "case", mode="train")
        test = scen.load_scenario(yaml.safe_dump(doc), "case", mode="test")
        assert train.ucv_spawns[0].speed == (8.0, 10.0)
        assert test.ucv_spawns[0].speed == (3.0, 4.0)
        assert test.ucv_spawns[0].s == train.ucv_spawns[0].s
        assert train.behaviors["ucv0"].brake_window == (40, 80)
        assert test.behaviors["ucv0"] == scen.UcvBehavior(
            scen.BEHAVIOR_SUDDEN_BRAKE, (5, 6), (1.0, 2.0)
        )

    def test_highway_speed_bands(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        beh = spec.behaviors["ucv1"]
        assert beh.kind == scen.BEHAVIOR_SUDDEN_BRAKE
        assert beh.brake_window == (40, 80)
        assert beh.brake_speed == (3.0, 4.0)
        train = scen.build_scenario("highway", mode="train", cfg=CFG)
        assert train.behaviors == {}
        for spawn in spec.ucv_spawns:
            assert spawn.speed == (8.0, 10.0)

    def test_intersection_speed_bands(self):
        train = scen.build_scenario("intersection", mode="train", cfg=CFG)
        test = scen.build_scenario("intersection", mode="test", cfg=CFG)
        for spawn in train.ucv_spawns:
            assert spawn.speed == (9.0, 11.0)
        for spawn in test.ucv_spawns:
            assert spawn.speed == (7.5, 12.5)
        assert len(train.agent_ids) == 3
        assert len(train.ucv_ids) == 2

    def test_scenario_without_cavs_rejected(self):
        text = (scen._DATA / "highway.yaml").read_text()
        assert "connected: true" in text
        text = text.replace("connected: true", "connected: false")
        with pytest.raises(ValueError, match="spawns.*connected"):
            scen.load_scenario(text, "highway")

    def test_materialize_samples_within_bands(self):
        spec = scen.build_scenario("intersection", mode="test", cfg=CFG)
        rng = np.random.default_rng(0)
        setup = scen.materialize(spec, rng)
        for spawn in spec.ucv_spawns:
            v = setup.world.vehicles[spawn.vehicle_id].v
            assert 7.5 <= v <= 12.5
        for plan in setup.plans.values():
            assert plan.brake_step is None  # constant speed, no brake


def valid_doc():
    """A small well-formed scenario document: two lanes, one CAV, one UCV."""
    return {
        "vehicle_length": 4.5,
        "vehicle_width": 2.0,
        "lanes": [
            {"id": "a", "waypoints": [[0.0, 0.0], [300.0, 0.0]]},
            {"id": "b", "waypoints": [[0.0, 3.5], [300.0, 3.5]]},
        ],
        "adjacency": {"a": {"left": "b", "right": None}, "b": {"right": "a"}},
        "spawns": [
            {"id": "cav0", "lane": "a", "s": 10.0, "speed": [8.0, 10.0],
             "connected": True},
            {"id": "ucv0", "lane": "b", "s": 40.0, "speed": [8.0, 10.0],
             "connected": False},
        ],
        "destinations": {"cav0": [200.0, 0.0], "ucv0": [200.0, 3.5]},
    }


def _set(path, value):
    """An edit of valid_doc(): set the entry at `path` (keys and indices)."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


MALFORMED = {
    "top-level typo": (_set(["behaviours"], {"ucv0": {"kind": "sudden_brake"}}),
                       "behaviours"),
    "lane key": (_set(["lanes", 0, "colour"], "red"), "colour"),
    # Old scenario files may still give a lane a signal phase.
    "lane signal": (_set(["lanes", 0, "signal"], "green"), "signal"),
    "lane without waypoints": (lambda d: d["lanes"][1].pop("waypoints"), "waypoints"),
    "adjacency side": (_set(["adjacency", "a", "up"], "b"), "up"),
    "spawn key": (_set(["spawns", 0, "sped"], [1.0, 2.0]), "sped"),
    "spawn without speed": (lambda d: d["spawns"][0].pop("speed"), "speed"),
    "behavior key": (_set(["behaviors"], {"ucv0": {"kind": "sudden_brake",
                                                     "brake_at": 3}}), "brake_at"),
    "test key": (_set(["test"], {"behaviours": {}}), "behaviours"),
    "test spawn key": (_set(["test"], {"spawns": [{"id": "ucv0", "sped": [1, 2]}]}),
                       "sped"),
    "spawn lane": (_set(["spawns", 1, "lane"], "c"), "'c'"),
    "adjacency neighbour lane": (_set(["adjacency", "b", "left"], "c"), "'c'"),
    "adjacency lane": (_set(["adjacency", "c"], {"left": "a"}), "'c'"),
    "override lane": (_set(["test"], {"spawns": [{"id": "ucv0", "lane": "c"}]}),
                      "'c'"),
    "no destination": (lambda d: d["destinations"].pop("ucv0"), "ucv0"),
    "destination of unknown vehicle": (_set(["destinations", "ghost"], [0.0, 0.0]),
                                       "ghost"),
    "duplicate vehicle": (lambda d: d["spawns"].append(dict(d["spawns"][0])),
                          "cav0"),
    "duplicate lane": (lambda d: d["lanes"].append(dict(d["lanes"][0])), "'a'"),
    "unknown kind": (_set(["behaviors"], {"ucv0": {"kind": "crossing"}}), "crossing"),
    "behavior of a CAV": (_set(["behaviors"], {"cav0": {"kind": "constant"}}),
                          "cav0"),
    "spawn override of unknown vehicle": (
        _set(["test"], {"spawns": [{"id": "ghost", "speed": [1.0, 2.0]}]}), "ghost"),
    "behavior override of unknown vehicle": (
        _set(["test"], {"behaviors": {"ghost": {"kind": "sudden_brake"}}}), "ghost"),
    "override kind": (_set(["test"], {"behaviors": {"ucv0": {"kind": "crossing"}}}),
                      "crossing"),
    "scalar speed": (_set(["spawns", 0, "speed"], 9.0), "speed"),
    "reversed speed band": (_set(["spawns", 1, "speed"], [10.0, 8.0]), "speed"),
    "reversed brake window": (
        _set(["behaviors"], {"ucv0": {"kind": "sudden_brake",
                                      "brake_window": [80, 40]}}), "brake_window"),
    "scalar brake speed": (
        _set(["test"], {"behaviors": {"ucv0": {"brake_speed": 3.0}}}), "brake_speed"),
    "no CAV": (_set(["spawns", 0, "connected"], False), "connected"),
    "no CAV in test mode": (
        _set(["test"], {"spawns": [{"id": "cav0", "connected": False}]}),
        "connected"),
    # The edit returns the file text: a key given twice cannot be a dict.
    "duplicate key": (lambda d: yaml.safe_dump(d) + "vehicle_width: 3.0\n",
                      "vehicle_width"),
}


class TestScenarioValidation:
    @pytest.mark.parametrize("mode", scen.MODES)
    def test_valid_doc_loads(self, mode):
        spec = scen.load_scenario(yaml.safe_dump(valid_doc()), "case", mode=mode)
        assert (spec.agent_ids, spec.ucv_ids) == (["cav0"], ["ucv0"])

    @pytest.mark.parametrize("mode", scen.MODES)
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_rejected(self, case, mode):
        edit, named = MALFORMED[case]
        doc = valid_doc()
        text = edit(doc)
        if not isinstance(text, str):  # the edit changed doc in place
            text = yaml.safe_dump(doc)
        with pytest.raises(ValueError, match=named):
            scen.load_scenario(text, "case", mode=mode)


class TestCli:
    def test_scenario_choices_are_the_shipped_files(self, capsys):
        from cavshield.harness import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--scenario", "bogus", "--out", "unused"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        for name in scen.scenario_names():
            assert repr(name) in err

    def test_qp_debug_needs_a_problem_source(self, capsys):
        from cavshield.harness import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["qp-debug"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: cavshield qp-debug" in err
        assert "one of the arguments --problem --demo is required" in err
        with pytest.raises(SystemExit) as exc:
            cli.main(["qp-debug", "--demo", "--problem", "unused.json"])
        assert exc.value.code == 2
        assert cli.main(["qp-debug", "--demo"]) == 0

    @pytest.mark.parametrize("case,message", [
        ("missing", "No such file or directory"),
        ("not YAML", "not YAML: expected ',' or ']'"),
        ("unknown key", "unknown Config key 'shiled'"),
        ("unknown section key", "unknown ShieldConfig key 'epsilonn'"),
        ("rejected value", "epsilon must be >= 0"),
        ("section not a mapping",
         "config section 'shield' must be a mapping, not 3"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_config_file_fails_cleanly(self, capsys, tmp_path, command,
                                           case, message):
        # Each of these ended in a traceback with exit status 1.
        from cavshield.harness import cli

        path = tmp_path / "cfg.yaml"
        text = {"missing": None, "not YAML": "shield: [1\n",
                "unknown key": "shiled: {epsilon: 0.0}\n",
                "unknown section key": "shield: {epsilonn: 0.0}\n",
                "rejected value": "shield: {epsilon: -1.0}\n",
                "section not a mapping": "shield: 3\n"}[case]
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        argv = {"train": ["train", "--scenario", "highway", "--out", str(out)],
                "eval": ["eval", "--checkpoint", str(tmp_path / "none.npz"),
                         "--out", str(out)]}[command]
        assert cli.main(argv + ["--config", str(path)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith(f"{command}: {path}: ")
        assert message in got.err and got.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case,message", [
        ("missing", "No such file or directory"),
        ("not JSON", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        ("not an object", "problem is not a JSON object"),
        ("no constraints", "problem has no 'constraints'"),
        ("misshapen row", "problem does not have the dump_problem layout"),
        ("NaN bound", "bound lo nan exceeds hi 1.0"),
    ])
    def test_qp_debug_of_a_bad_problem_fails_cleanly(self, capsys, tmp_path,
                                                    case, message):
        from cavshield.harness import cli

        good = {"u0": [2.0, 0.0], "constraints": [{"a": [-1.0, 0.0], "b": -1.0}],
                "bounds": [[-6.0, 4.0], [-0.5, 0.5]]}
        path = tmp_path / "problem.json"
        text = {
            "missing": None,
            "not JSON": "",
            "not an object": "[]",
            "no constraints": json.dumps(
                {k: v for k, v in good.items() if k != "constraints"}),
            "misshapen row": json.dumps({**good, "constraints": [[1.0, 0.5]]}),
            "NaN bound": json.dumps({**good, "bounds": [[math.nan, 1.0],
                                                        [0.0, 1.0]]}),
        }[case]
        if text is not None:
            path.write_text(text)
        assert cli.main(["qp-debug", "--problem", str(path)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith(f"qp-debug: {path}: ")
        assert message in got.err and got.err.count("\n") == 1
        path.write_text(json.dumps(good))
        assert cli.main(["qp-debug", "--problem", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["solution"]["status"] == (
            "feasible")

    def test_closed_pipe_exits_quietly(self):
        # The reader is gone before the command writes, as when `| head`
        # has already exited: exit code 1 and no traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "cavshield.harness.cli", "qp-debug",
                 "--demo"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert out.stderr == ""
        assert out.returncode == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--scenario", "highway", "--episodes", "-3", "--out", "unused"],
        ["train", "--scenario", "highway", "--episodes", "0", "--out", "unused"],
        ["eval", "--checkpoint", "unused.npz", "--episodes", "0"],
        ["eval", "--checkpoint", "unused.npz", "--episodes", "2.5"],
    ])
    def test_episode_counts_below_one_rejected(self, capsys, argv):
        from cavshield.harness import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "argument --episodes: must be an int >= 1" in capsys.readouterr().err

    def test_eval_save_logs_needs_out(self, capsys, tmp_path):
        from cavshield.harness import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--checkpoint", str(tmp_path / "missing.npz"),
                      "--save-logs"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--save-logs needs --out" in err


    @pytest.fixture(scope="class")
    def log_text(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 5
        return ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                              seed=3).to_jsonl()

    @pytest.mark.parametrize("case,message", [
        ("empty", "no meta line"),
        ("meta only", "no terminal_states line"),
        ("last line removed", "no terminal_states line"),
        ("last line torn", "line 7 is not JSON"),
        ("missing", "No such file"),
    ])
    def test_replay_of_a_cut_off_log_fails_cleanly(self, capsys, tmp_path,
                                                  log_text, case, message):
        from cavshield.harness import cli

        lines = log_text.splitlines(keepends=True)
        assert len(lines) == 7  # meta, 5 steps, terminal_states
        text = {"empty": "", "meta only": lines[0],
                "last line removed": "".join(lines[:-1]),
                "last line torn": "".join(lines[:-1]) + lines[-1][:20],
                "missing": None}[case]
        path = tmp_path / "log.jsonl"
        if text is not None:
            path.write_text(text)
        if case != "missing":
            with pytest.raises(ValueError, match=message):
                ep.EpisodeLog.from_jsonl(text)
        assert cli.main(["replay", "--log", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err and str(path) in out.err
        path.write_text(log_text)
        assert cli.main(["replay", "--log", str(path)]) == 0

    @pytest.mark.parametrize("case,message", [
        ("empty meta", "line 1 (meta) has no 'scenario'"),
        ("step not an object", "line 2 is not an object"),
        ("step without collisions", "line 3 has no 'collisions'"),
    ])
    def test_replay_of_a_log_missing_keys_fails_cleanly(self, capsys, tmp_path,
                                                        log_text, case,
                                                        message):
        from cavshield.harness import cli

        lines = log_text.splitlines(keepends=True)
        step = json.loads(lines[2])
        del step["collisions"]
        text = {
            "empty meta": '{"meta": {}}\n{"terminal_states": {}}\n',
            "step not an object": lines[0] + "[1, 2]\n" + lines[-1],
            "step without collisions": "".join(
                lines[:2] + [json.dumps(step) + "\n"] + lines[3:]),
        }[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            ep.EpisodeLog.from_jsonl(text)
        path = tmp_path / "log.jsonl"
        path.write_text(text)
        assert cli.main(["replay", "--log", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"replay: {path}: episode log {message}\n"
        path.write_text(log_text)
        assert cli.main(["replay", "--log", str(path)]) == 0

    @pytest.fixture(scope="class")
    def short_log_lines(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 3
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(), seed=3)
        return log.to_jsonl().splitlines()

    @pytest.mark.parametrize("line,key,value,message", [
        (4, "terminal_states", [],
         "line 5: 'terminal_states' is not an object of [x, y, v, psi] lists"),
        (1, "states", [],
         "line 2: 'states' is not an object of [x, y, v, psi] lists"),
        (0, "dt", "x", "line 1 (meta): dt must be a finite number"),
        (2, "controls", {}, "line 3: 'controls' has no 'cav0'"),
        (2, "crashed", 5, "line 3: 'crashed' is not a list of vehicle ids"),
    ], ids=["terminal_states", "states", "dt", "controls", "crashed"])
    def test_replay_of_a_log_with_misshapen_values_fails_cleanly(
            self, capsys, tmp_path, short_log_lines, line, key, value,
            message):
        # Each of these ended in a traceback from verify_roundtrip or
        # DynamicsParams (exit 1) while from_jsonl checked keys only.
        from cavshield.harness import cli

        lines = list(short_log_lines)
        assert len(lines) == 5  # meta, 3 steps, terminal_states
        rec = json.loads(lines[line])
        (rec["meta"] if line == 0 else rec)[key] = value
        lines[line] = json.dumps(rec)
        text = "\n".join(lines) + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            ep.EpisodeLog.from_jsonl(text)
        path = tmp_path / "log.jsonl"
        path.write_text(text)
        assert cli.main(["replay", "--log", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"replay: {path}: episode log {message}\n"
        path.write_text("\n".join(short_log_lines) + "\n")
        assert cli.main(["replay", "--log", str(path)]) == 0

    @pytest.mark.parametrize("case", [
        "missing", "not an npz", "checksum", "version", "no checksum member",
        "no agent member",
    ])
    def test_eval_of_an_unreadable_checkpoint_fails_cleanly(
            self, capsys, tmp_path, checkpoint, case):
        # Each of these ended in a traceback (FileNotFoundError, numpy's
        # "pickled (object) data" ValueError, ChecksumMismatch, ...).
        from cavshield.harness import cli

        with np.load(checkpoint[0]) as data:
            arrays = {name: data[name] for name in data.files}
        header = json.loads(arrays.pop("header").tobytes())
        arrays.pop("checksum")
        aid = header["agent_ids"][0]

        def sealed(header, payload):
            header_bytes = json.dumps(header, sort_keys=True).encode()
            digest = trainer._digest(header_bytes, payload).encode()
            return {"header": np.frombuffer(header_bytes, dtype=np.uint8),
                    "checksum": np.frombuffer(digest, dtype=np.uint8),
                    **payload}

        path = tmp_path / "ckpt.npz"
        members = sealed(header, arrays)
        if case == "not an npz":
            path.write_text("not a checkpoint\n")
        elif case == "checksum":
            members[f"{aid}__theta"] = members[f"{aid}__theta"] + 1.0
        elif case == "version":
            members = sealed({**header, "version": 1}, arrays)
        elif case == "no checksum member":
            del members["checksum"]
        elif case == "no agent member":
            del arrays[f"{aid}__omega"]
            members = sealed(header, arrays)
        if case not in ("missing", "not an npz"):
            np.savez(str(path), **members)
        message = {
            "missing": f"cannot read checkpoint {path}: No such file or "
                       f"directory",
            "not an npz": f"checkpoint {path} is not a readable npz archive",
            "checksum": f"corrupt checkpoint {path}",
            "version": f"checkpoint {path} has version 1; this cavshield "
                       f"reads version {trainer.CHECKPOINT_VERSION} only",
            "no checksum member": f"checkpoint {path} has no member "
                                  f"'checksum'",
            "no agent member": f"checkpoint {path} has no member "
                               f"'{aid}__omega'",
        }[case]
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--episodes", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"eval: {message}\n"

    def test_eval_makes_its_directories_once_the_checkpoint_loads(
            self, capsys, tmp_path, checkpoint):
        # A failed eval left DIR and DIR/logs behind, empty.
        from cavshield.harness import cli

        out = tmp_path / "eval"
        argv = ["eval", "--episodes", "1", "--out", str(out), "--save-logs"]
        assert cli.main(argv + ["--checkpoint",
                                str(tmp_path / "none.npz")]) == 2
        assert capsys.readouterr().err.startswith("eval: cannot read")
        assert not out.exists()
        assert cli.main(argv + ["--checkpoint", checkpoint[0]]) == 0
        assert (out / "report.json").is_file()
        assert (out / "logs" / "episode_000.jsonl").is_file()

    @pytest.mark.parametrize("argv", [
        ["train", "--scenario", "highway", "--episodes", "1"],
        ["eval", "--episodes", "1"],
        ["eval", "--episodes", "1", "--save-logs"],
    ], ids=["train", "eval", "eval-save-logs"])
    def test_out_that_is_a_file_fails_before_any_run(
            self, capsys, tmp_path, monkeypatch, checkpoint, argv):
        # train ran the whole training, and eval every episode, before
        # making DIR failed with a traceback.
        from cavshield.harness import cli

        runs = []
        monkeypatch.setattr(trainer, "train", lambda *a: runs.append(a))
        monkeypatch.setattr(ep, "run_episode", lambda *a, **k: runs.append(a))
        out = tmp_path / "taken"
        out.write_text("keep\n")
        if argv[0] == "eval":
            argv = argv + ["--checkpoint", checkpoint[0]]
        assert cli.main(argv + ["--out", str(out)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == f"{argv[0]}: {out}: File exists\n"
        assert runs == []
        assert out.read_text() == "keep\n"

    def test_choices_are_the_programs_constants(self):
        from cavshield.harness import cli

        commands = next(action.choices for action in cli.build_parser()._actions
                        if action.dest == "command")

        def choices(command, dest):
            return next(tuple(action.choices)
                        for action in commands[command]._actions
                        if action.dest == dest)

        assert choices("train", "algo") == trainer.ALGOS
        assert choices("train", "shield") == ep.SHIELD_MODES
        assert choices("eval", "shield") == ep.SHIELD_MODES
        assert choices("eval", "ptb") == ev.PTB_KINDS

    @pytest.mark.parametrize("case,message", [
        ("missing", "No such file or directory"),
        ("not JSON", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        ("not an object", "not a JSON object"),
        ("no ptb", "no 'ptb'"),
        ("episode without seed", "'episodes' is not a list of objects with "
                                 "seed, return and collisions"),
        ("rate not a number", "'collision_free_rate' is 'x', not a number"),
        ("return not a number", "'mean_episode_return' is None, not a number"),
        ("rate a bool", "'collision_free_rate' is True, not a number"),
        ("unknown ptb", "'ptb' is 'bogus', not one of none, rand, time, veh"),
    ])
    def test_table_of_a_bad_report_fails_cleanly(self, capsys, tmp_path,
                                                case, message):
        # "missing" and "no ptb" ended in FileNotFoundError and KeyError
        # tracebacks, a rate or return that is not a number in one from
        # format_table, and an unknown ptb left the report out of the table.
        from cavshield.harness import cli

        report = ev.EvalReport(
            scenario="highway", ptb="veh", n_episodes=1,
            collision_free_rate=1.0, mean_episode_return=-3.0,
            episodes=[(5, -3.0, 0)],
        )
        good = tmp_path / "good.json"
        ev.save_report(str(good), report)
        doc = report.to_dict()
        path = tmp_path / "bad.json"
        if case == "not JSON":
            path.write_text("")
        elif case == "not an object":
            path.write_text("[]")
        elif case == "no ptb":
            del doc["ptb"]
            path.write_text(json.dumps(doc))
        elif case == "episode without seed":
            del doc["episodes"][0]["seed"]
            path.write_text(json.dumps(doc))
        elif case != "missing":
            key, value = {
                "rate not a number": ("collision_free_rate", "x"),
                "return not a number": ("mean_episode_return", None),
                "rate a bool": ("collision_free_rate", True),
                "unknown ptb": ("ptb", "bogus"),
            }[case]
            doc[key] = value
            path.write_text(json.dumps(doc))
        assert cli.main(["table", str(good), str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"table: {path}: ")
        assert message in out.err and out.err.count("\n") == 1
        assert cli.main(["table", str(good)]) == 0
        assert "highway" in capsys.readouterr().out


def reward_world(n_agents=3):
    road = RoadMap({"l": Path([[-10.0, 0.0], [500.0, 0.0]], lane_id="l")}, {})
    vehicles = [
        VehicleState(id=f"cav{i}", x=10.0 * i, y=0.0, v=0.0, psi=0.0,
                     connected=True)
        for i in range(n_agents)
    ]
    return World(road, vehicles)


def empty_outcome(agents, sas=()):
    out = SafetyOutcome()
    for aid in agents:
        out.emergency[aid] = aid in sas
    return out


class TestReward:
    def test_stationary_at_destination_is_zero(self):
        world = reward_world()
        dests = {vid: (v.x, v.y) for vid, v in world.vehicles.items()}
        r = step_reward(world, dests, set(), empty_outcome(world.cav_ids),
                        set(), p_col=-200.0, p_sas=-10.0)
        assert all(v == 0.0 for v in r.values())

    def test_single_collision_shared_penalty(self):
        world = reward_world()
        dests = {vid: (v.x, v.y) for vid, v in world.vehicles.items()}
        r = step_reward(world, dests, {("cav0", "ucvX")},
                        empty_outcome(world.cav_ids), set(), p_col=-200.0,
                        p_sas=-10.0)
        for v in r.values():
            assert v == pytest.approx(-200.0 / 3.0)

    def test_emergency_stops_cost_p_sas_each(self):
        world = reward_world()
        dests = {vid: (v.x, v.y) for vid, v in world.vehicles.items()}
        r = step_reward(world, dests, set(),
                        empty_outcome(world.cav_ids, sas={"cav1", "cav2"}),
                        set(), p_col=-200.0, p_sas=-10.0)
        for v in r.values():
            assert v == pytest.approx(2 * -10.0 / 3.0)

    def test_rewards_identical_across_agents(self):
        rng = np.random.default_rng(5)
        world = reward_world()
        for vid, veh in world.vehicles.items():
            veh.x = float(rng.uniform(0, 100))
            veh.v = float(rng.uniform(0, 15))
        dests = {vid: (200.0, 0.0) for vid in world.vehicles}
        r = step_reward(world, dests, set(),
                        empty_outcome(world.cav_ids, sas={"cav1"}), set(),
                        p_col=-200.0, p_sas=-10.0)
        vals = list(r.values())
        assert vals[0] == vals[1] == vals[2]

    def test_speed_and_distance_terms(self):
        world = reward_world(n_agents=1)
        world.vehicles["cav0"].v = 9.0
        dests = {"cav0": (world.vehicles["cav0"].x + 30.0, 0.0)}
        r = step_reward(world, dests, set(), empty_outcome(["cav0"]), set(),
                        p_col=-200.0, p_sas=-10.0)
        assert r["cav0"] == pytest.approx(9.0 - 30.0)

    def test_crashed_agent_stops_accruing(self):
        world = reward_world()
        dests = {vid: (200.0, 0.0) for vid in world.vehicles}
        for veh in world.vehicles.values():
            veh.v = 10.0
        r_all = step_reward(world, dests, set(), empty_outcome(world.cav_ids),
                            set(), p_col=-200.0, p_sas=-10.0)
        r_crashed = step_reward(world, dests, set(),
                                empty_outcome(world.cav_ids), {"cav0"},
                                p_col=-200.0, p_sas=-10.0)
        # cav0's terms (10 speed, -200+... distance) drop out of the sums.
        assert r_crashed["cav0"] != r_all["cav0"]
        expected_delta = (10.0 - math.dist((0.0, 0.0), (200.0, 0.0))) / 3.0
        assert r_all["cav0"] - r_crashed["cav0"] == pytest.approx(expected_delta)


def view_entries(view):
    """{vehicle: (lx, ly, vx, vy)} of one agent's view, its own included."""
    entries = {obs.target_id: (obs.lx, obs.ly, obs.vx, obs.vy)
               for obs in view.all_targets()}
    me = view.self_obs
    entries[view.agent_id] = (me.lx, me.ly, me.vx, me.vy)
    return entries


def record_views(monkeypatch):
    """{t: {agent: view_entries}} of every joint state run_episode builds,
    filled in as episodes run; clear it between episodes."""
    views = {}
    build = ep.build_joint_state

    def recording(*args, **kwargs):
        joint = build(*args, **kwargs)
        views[joint.t] = {aid: view_entries(view)
                          for aid, view in joint.views.items()}
        return joint

    monkeypatch.setattr(ep, "build_joint_state", recording)
    return views


def rebuild_views(meta, rec):
    """Each agent's view at one logged step, from that line alone, as the
    README's "Episode logs" section describes."""
    true = {}
    for vid, (x, y, v, psi) in rec["states"].items():
        c, s = math.cos(psi), math.sin(psi)
        true[vid] = (c * x + s * y, -s * x + c * y, v, 0.0)
    views = {}
    for aid in meta["agents"]:
        me = rec["states"][aid][:2]
        view = {aid: true[aid]}
        for vid, (x, y, _, _) in rec["states"].items():
            if vid == aid or math.dist(me, (x, y)) > meta["comm_range"]:
                continue
            lx, ly, vx, vy = true[vid]
            if vid in rec["errors"]:
                e_l, e_v = rec["errors"][vid]
                lx, vx = lx + e_l, vx + e_v
            view[vid] = (lx, ly, vx, vy)
        views[aid] = view
    return views


def exact(views):
    """Views with every float as its bit pattern, for exact comparison."""
    return {aid: {vid: tuple(map(float.hex, e)) for vid, e in view.items()}
            for aid, view in views.items()}


class TestEpisode:
    def test_zero_length_episode(self):
        spec = scen.build_scenario("highway", cfg=CFG)
        spec.episode_len = 0
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(), seed=0)
        assert log.steps == []
        assert log.collision_count() == 0

    @pytest.mark.parametrize("mode", ["robustt", "Robust", ""])
    def test_unknown_shield_mode_rejected(self, mode):
        spec = scen.build_scenario("highway", cfg=CFG)
        policy = ep.ScriptedTeamPolicy(0)
        steps = []
        policy.select_actions = lambda *args: steps.append(1)
        with pytest.raises(ValueError, match="shield mode must be one of "
                                             "robust, plain, off"):
            ep.run_episode(spec, CFG, policy, shield_mode=mode)
        assert steps == []

    @pytest.mark.parametrize("mode", [ep.SHIELD_ROBUST, ep.SHIELD_PLAIN])
    def test_action_table_built_once_per_episode(self, monkeypatch, mode):
        built = []
        action_table = ep.action_table

        def counted(*args):
            built.append(args)
            return action_table(*args)

        monkeypatch.setattr(ep, "action_table", counted)
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 5
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(), seed=0,
                             shield_mode=mode, log_verdicts=False)
        assert len(log.steps) == 5
        assert len(built) == 1

    def test_fixed_seed_bit_identical_logs(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 40
        logs = [
            ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                           schedule=make_rand(7), seed=11)
            for _ in range(2)
        ]
        assert logs[0].to_jsonl() == logs[1].to_jsonl()

    def test_log_jsonl_roundtrip_and_replay(self, tmp_path):
        spec = scen.build_scenario("intersection", mode="test", cfg=CFG)
        spec.episode_len = 60
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                             schedule=make_rand(3), seed=5)
        path = tmp_path / "log.jsonl"
        log.save(str(path))
        back = ep.EpisodeLog.load(str(path))
        assert back.to_jsonl() == log.to_jsonl()
        assert ep.verify_roundtrip(back) <= 1e-9

    def test_unshielded_highway_brake_causes_collision(self):
        # Scripted full-throttle CAVs with no shield rear-end the braking
        # UCV: closing distance exceeds stopping distance by construction.
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        space_max_throttle = 6
        policy = ep.ScriptedTeamPolicy(space_max_throttle)
        collided = 0
        for seed in range(5):
            log = ep.run_episode(spec, CFG, policy, seed=seed,
                                 shield_mode=ep.SHIELD_OFF, log_verdicts=False)
            collided += (log.collision_count() > 0)
        assert collided >= 4

    def test_shielded_highway_brake_no_collision(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        policy = ep.ScriptedTeamPolicy(6)
        for seed in range(5):
            log = ep.run_episode(spec, CFG, policy, seed=seed,
                                 shield_mode=ep.SHIELD_ROBUST, log_verdicts=False)
            assert log.collision_count() == 0

    def test_executed_actions_always_in_safe_set(self):
        spec = scen.build_scenario("intersection", mode="test", cfg=CFG)
        spec.episode_len = 80
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                             schedule=make_rand(1), seed=2)
        for rec in log.steps:
            for aid, action in rec["actions"].items():
                assert action in rec["safe_sets"][aid]

    def test_perturbation_hygiene_in_logs(self, monkeypatch):
        # Recompute ground-truth observations from logged states: only the
        # travel-axis pair of the views the agents saw may differ, by
        # exactly the logged error.
        views = record_views(monkeypatch)
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 50
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                             schedule=make_constant(2.0, 1.0), seed=4)
        for rec in log.steps:
            for aid, obs_map in views[rec["t"]].items():
                for vid, (lx, ly, vx, vy) in obs_map.items():
                    x, y, v, psi = rec["states"][vid]
                    c, s = math.cos(psi), math.sin(psi)
                    true_lx = c * x + s * y
                    true_ly = -s * x + c * y
                    if vid == aid:
                        assert lx == true_lx and vx == v
                    else:
                        e_l, e_v = rec["errors"][vid]
                        assert lx == pytest.approx(true_lx + e_l, abs=1e-12)
                        assert vx == pytest.approx(v + e_v, abs=1e-12)
                    assert ly == pytest.approx(true_ly, abs=1e-12)
                    assert vy == 0.0

    @pytest.mark.parametrize("name", ["highway", "intersection"])
    @pytest.mark.parametrize("kind", ["none", "rand", "time", "veh",
                                      "constant"])
    def test_logged_lines_rebuild_the_runtime_views(self, monkeypatch, name,
                                                    kind):
        # The log keeps no views; each line's states and errors and the
        # meta's comm_range give back every view bit for bit, after the
        # JSON round trip a saved log goes through.
        views = record_views(monkeypatch)
        spec = scen.build_scenario(name, mode="test", cfg=CFG)
        spec.episode_len = 60
        schedule = {
            "none": None,
            "rand": make_rand(31),
            "time": make_ptb_over_time(32, (10, 40)),
            "veh": make_ptb_target_vehicles(33, spec.ucv_ids),
            "constant": make_constant(2.0, -1.0),
        }[kind]
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                             schedule=schedule, seed=8)
        back = ep.EpisodeLog.from_jsonl(log.to_jsonl())
        assert len(back.steps) == 60 and len(views) == 61
        if kind != "none":
            assert any(rec["errors"] for rec in back.steps)
        for rec in back.steps:
            assert "obs" not in rec
            assert exact(rebuild_views(back.meta, rec)) == exact(
                views[rec["t"]])

    def test_eleven_action_verdicts_keep_action_order(self, monkeypatch,
                                                      tmp_path):
        # With 10 or more actions, verdicts keyed by action id came back
        # from a saved log sorted as strings: 0, 1, 10, 2, ...
        outcomes = []
        shield = ep.safety_shield

        def recording(*args):
            outcomes.append(shield(*args))
            return outcomes[-1]

        monkeypatch.setattr(ep, "safety_shield", recording)
        cfg = Config.from_dict({"harness": {"action_k": 7}})
        spec = scen.build_scenario("highway", mode="test", cfg=cfg)
        spec.episode_len = 30
        log = ep.run_episode(spec, cfg, ep.RandomSafeTeamPolicy(),
                             schedule=make_rand(2), seed=3)
        path = tmp_path / "log.jsonl"
        log.save(str(path))
        back = ep.EpisodeLog.load(str(path))
        for rec, outcome in zip(back.steps, outcomes):
            for aid, entries in rec["verdicts"].items():
                assert len(entries) == 11
                want = [(v.safe, v.unavailable, v.binding)
                        for _, v in sorted(outcome.verdicts[aid].items())]
                assert list(map(ep.read_verdict, entries)) == want
        throttles = {e for rec in back.steps for entries in
                     rec["verdicts"].values() for e in entries[4:]}
        assert len(throttles) > 1

    @pytest.mark.parametrize("entry,verdict", [
        ("S", (True, False, None)),
        ("S front:lane:ucv0", (True, False, "front:lane:ucv0")),
        ("U rear:pseudo:cav1", (False, False, "rear:pseudo:cav1")),
        ("UN", (False, True, None)),
    ])
    def test_read_verdict(self, entry, verdict):
        assert ep.read_verdict(entry) == verdict

    def test_verdicts_logged_only_when_asked(self):
        spec = scen.build_scenario("intersection", mode="test", cfg=CFG)
        spec.episode_len = 5
        for flag in (True, False):
            log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                                 seed=1, log_verdicts=flag)
            assert all(("verdicts" in rec) == flag for rec in log.steps)

    def test_each_bound_violation_recorded_once(self):
        # The joint-state build and the log snapshot both query every
        # (t, vid); the schedule must still hold one record per pair.
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 10
        schedule = make_constant(2.0, 1.0, epsilon_bound=1.0)
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                             schedule=schedule, seed=4)
        logged = {(rec["t"], vid) for rec in log.steps for vid in rec["errors"]}
        recorded = [(t, vid) for t, vid, _ in schedule.violations]
        assert logged
        assert len(recorded) == len(set(recorded))
        assert logged <= set(recorded)


class TestTrainer:
    def quick_settings(self, **kw):
        cfg = Config.from_dict({"harness": {"episode_len": 50}})
        defaults = dict(
            scenario="highway", algo="srmappo", shield_mode="robust",
            seed=1, episodes=2, config=cfg,
        )
        defaults.update(kw)
        return trainer.TrainSettings(**defaults)

    def test_episode_counts_below_one_rejected(self):
        for episodes in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="episodes must be an int >= 1"):
                trainer.train(self.quick_settings(episodes=episodes))

    @pytest.mark.parametrize("key,value,allowed", [
        ("algo", "sr-mappo", "srmappo, mappo"),
        ("algo", "MAPPO", "srmappo, mappo"),
        ("shield_mode", "robustt", "robust, plain, off"),
    ])
    def test_unknown_algo_or_shield_mode_rejected(self, monkeypatch, key,
                                                  value, allowed):
        def built(*args, **kwargs):
            raise AssertionError("train() built a scenario")

        monkeypatch.setattr(scen, "build_scenario", built)
        with pytest.raises(ValueError,
                           match=f"must be one of {allowed}, not {value!r}"):
            trainer.train(self.quick_settings(**{key: value}))

    def test_two_runs_identical_metrics(self):
        m1 = trainer.train(self.quick_settings()).metrics
        m2 = trainer.train(self.quick_settings()).metrics
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)

    def test_parameters_move_and_stay_finite(self):
        result = trainer.train(self.quick_settings(episodes=3))
        settings = self.quick_settings()
        fresh, _ = trainer.build_agents(result.spec, settings.config, 1)
        for aid, agent in result.agents.items():
            assert not np.array_equal(
                agent.actor.get_flat(), fresh[aid].actor.get_flat()
            )
            for net in (agent.actor, agent.value, agent.worst_q):
                assert np.all(np.isfinite(net.get_flat()))

    def test_mappo_skips_robust_terms(self):
        result = trainer.train(self.quick_settings(algo="mappo"))
        assert all(m["loss_worst_q"] is None for m in result.metrics)
        assert all(m["loss_reg"] is None for m in result.metrics)

    def test_candidate_forward_once_per_agent_per_update(self, monkeypatch):
        # Each agent-update with a non-zero importance weight draws its
        # (T, K, F) candidates once and forwards their T * K rows once, in
        # K actor forwards of T rows (after the forward of its T states);
        # the others draw and forward none.  The first update's weights
        # get one non-zero row, so the run has both kinds.
        from cavshield.marl import algo, nets

        forwards = []
        searches = []
        drawn = []
        weighted = []
        forward = nets.MLP.forward
        worst_candidates = algo.worst_candidates
        perturbation_samples = trainer.perturbation_samples
        state_importance = algo.state_importance

        def counting_forward(net, x):
            forwards.append((net, np.shape(x)))
            return forward(net, x)

        def recording_candidates(actor, obs, pert):
            start = len(forwards)
            sel = worst_candidates(actor, obs, pert)
            searches.append((actor, pert.shape, forwards[start:]))
            return sel

        def counting_samples(*args):
            drawn.append(1)
            return perturbation_samples(*args)

        def counting_importance(*args):
            w = state_importance(*args)
            if not weighted:
                w = w.copy()
                w[0] = 1.0
            weighted.append(bool(np.any(w)))
            return w

        monkeypatch.setattr(nets.MLP, "forward", counting_forward)
        monkeypatch.setattr(algo, "worst_candidates", recording_candidates)
        monkeypatch.setattr(trainer, "perturbation_samples", counting_samples)
        monkeypatch.setattr(algo, "state_importance", counting_importance)
        settings = self.quick_settings()
        result = trainer.train(settings)
        marl = settings.config.marl
        assert marl.ppo_epochs > 1 and marl.kappa_reg != 0.0
        T = settings.config.harness.episode_len
        K = marl.n_adv + 4 * result.encoder.spec.n_slots
        F = result.encoder.spec.dim
        assert len(weighted) <= len(result.agents) * settings.episodes
        assert sum(weighted) >= 1
        assert len(searches) == len(drawn) == sum(weighted)
        for actor, shape, calls in searches:
            assert shape == (T, K, F)
            assert calls == [(actor, (T, F))] * (K + 1)
        assert max(shape[0] for _, shape in forwards) < T * K
        assert sum(m["reg_weighted_rows"] > 0 for m in result.metrics) >= 1

    def test_checkpoint_roundtrip(self, tmp_path):
        settings = self.quick_settings()
        result = trainer.train(settings)
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(str(path), result, settings)
        header, params = trainer.load_checkpoint(str(path))
        assert header["scenario"] == "highway"
        agents, enc_spec = trainer.restore_agents(header, params)
        for aid in result.agents:
            assert np.array_equal(
                agents[aid].actor.get_flat(),
                result.agents[aid].actor.get_flat(),
            )

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        settings = self.quick_settings()
        result = trainer.train(settings)
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(str(path), result, settings)
        header, params = trainer.load_checkpoint(str(path))
        aid = list(result.agents)[0]
        arrays = {
            f"{a}__{k}": getattr(params[a], k)
            for a in params
            for k in ("theta", "phi", "omega")
        }
        arrays[f"{aid}__theta"] = arrays[f"{aid}__theta"] + 1.0
        import json as _json
        with np.load(str(path)) as data:
            header_b = data["header"]
            checksum = data["checksum"]
        np.savez(str(path), header=header_b, checksum=checksum, **arrays)
        with pytest.raises(trainer.ChecksumMismatch):
            trainer.load_checkpoint(str(path))

    def test_old_checkpoint_version_rejected(self, tmp_path):
        settings = self.quick_settings()
        spec = scen.build_scenario(settings.scenario, cfg=settings.config)
        agents, encoder = trainer.build_agents(spec, settings.config, 1)
        result = trainer.TrainResult(agents, [], encoder, spec)
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(str(path), result, settings)
        with np.load(str(path)) as data:
            header = json.loads(data["header"].tobytes().decode())
            arrays = {
                name: data[name]
                for name in data.files
                if name not in ("header", "checksum")
            }
        header["version"] = 1
        header_bytes = json.dumps(header, sort_keys=True).encode()
        digest = trainer._digest(header_bytes, arrays)
        np.savez(
            str(path),
            header=np.frombuffer(header_bytes, dtype=np.uint8),
            checksum=np.frombuffer(digest.encode(), dtype=np.uint8),
            **arrays,
        )
        with pytest.raises(trainer.UnsupportedCheckpointVersion, match="version 1"):
            trainer.load_checkpoint(str(path))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    cfg = Config.from_dict({"harness": {"episode_len": 50}})
    settings = trainer.TrainSettings(
        scenario="intersection", algo="srmappo", shield_mode="robust",
        seed=0, episodes=2, config=cfg,
    )
    result = trainer.train(settings)
    path = tmp_path_factory.mktemp("ckpt") / "c.npz"
    trainer.save_checkpoint(str(path), result, settings)
    return str(path), cfg


class TestEvaluate:

    def test_zero_episodes_rejected(self, checkpoint):
        path, cfg = checkpoint
        for n in (0, -1, 2.5):
            with pytest.raises(ValueError, match="n_episodes"):
                ev.evaluate(path, n_episodes=n, cfg=cfg)

    def test_unknown_shield_mode_rejected(self, checkpoint):
        path, cfg = checkpoint
        with pytest.raises(ValueError, match="not 'Robust'"):
            ev.evaluate(path, n_episodes=1, cfg=cfg, shield_mode="Robust")

    @pytest.mark.parametrize("bad,message", [
        ({"ptb": "vehicle"}, "unknown perturbation kind 'vehicle'"),
        ({"shield_mode": "Robust"}, "not 'Robust'"),
    ], ids=["ptb", "shield_mode"])
    def test_bad_ptb_or_shield_mode_fails_before_any_directory(
            self, checkpoint, tmp_path, monkeypatch, bad, message):
        # Both raised only inside the first episode, after out_dir and
        # save_logs_dir had been made.
        path, cfg = checkpoint
        loads = []
        monkeypatch.setattr(ev, "load_checkpoint", loads.append)
        out, logs = tmp_path / "out", tmp_path / "logs"
        with pytest.raises(ValueError, match=message):
            ev.evaluate(path, n_episodes=1, cfg=cfg, out_dir=str(out),
                        save_logs_dir=str(logs), **bad)
        assert loads == []
        assert not out.exists() and not logs.exists()

    def test_report_shape_and_determinism(self, checkpoint):
        path, cfg = checkpoint
        r1 = ev.evaluate(path, ptb="veh", n_episodes=3, seed=9, cfg=cfg)
        r2 = ev.evaluate(path, ptb="veh", n_episodes=3, seed=9, cfg=cfg)
        assert r1.to_dict() == r2.to_dict()
        assert 0.0 <= r1.collision_free_rate <= 1.0
        assert len(r1.episodes) == 3

    def test_mean_return_definition(self, checkpoint):
        path, cfg = checkpoint
        r = ev.evaluate(path, ptb="none", n_episodes=3, seed=1, cfg=cfg)
        assert r.mean_episode_return == pytest.approx(
            float(np.mean([e[1] for e in r.episodes]))
        )

    def test_table_and_csv(self, checkpoint, tmp_path):
        path, cfg = checkpoint
        reports = [
            ev.evaluate(path, ptb=k, n_episodes=2, seed=0, cfg=cfg)
            for k in ("rand", "veh")
        ]
        table = ev.format_table(reports)
        assert "intersection" in table
        assert "rand" in table and "veh" in table
        csv = ev.table_csv(reports)
        assert csv.count("\n") == 3  # header + 2 rows
        rpath = tmp_path / "r.json"
        ev.save_report(str(rpath), reports[0])
        back = ev.load_report(str(rpath))
        assert back.to_dict() == reports[0].to_dict()

    def test_scatter_export(self, checkpoint):
        path, cfg = checkpoint
        r = ev.evaluate(path, ptb="rand", n_episodes=2, seed=0, cfg=cfg)
        csv = ev.scatter_csv(r)
        assert csv.startswith("episode,seed,return,collisions")
        assert csv.count("\n") == 3

    def test_collision_penalty_magnitude_never_changes_rate(self, checkpoint):
        # P^Col only moves returns; the collision-free rate is an event
        # count and must not react to the penalty magnitude.
        path, cfg = checkpoint
        harder = Config.from_dict(
            {"harness": {"episode_len": 50}, "shield": {"p_col": -2000.0}}
        )
        r1 = ev.evaluate(path, ptb="veh", n_episodes=4, seed=3, cfg=cfg,
                         shield_mode="off")
        r2 = ev.evaluate(path, ptb="veh", n_episodes=4, seed=3, cfg=harder,
                         shield_mode="off")
        assert r1.collision_free_rate == r2.collision_free_rate
        assert [c for _, _, c in r1.episodes] == [c for _, _, c in r2.episodes]

    def test_ptb_targets_config_key(self, checkpoint):
        path, cfg = checkpoint
        spec = scen.build_scenario("intersection", mode="test", cfg=cfg)
        narrowed = Config.from_dict(
            {"harness": {"episode_len": 50, "ptb_targets": ["ucv1"]}}
        )
        sched = ev.build_schedule("veh", 0, narrowed, spec)
        assert sched.targets == frozenset({"ucv1"})
        default = ev.build_schedule("veh", 0, cfg, spec)
        assert default.targets == frozenset(spec.ucv_ids)

    @pytest.mark.parametrize("kind", ["rand", "time", "veh"])
    def test_violations_are_recorded_against_the_shield_epsilon(self, kind):
        cfg = Config.from_dict({"shield": {"epsilon": 0.5}})
        spec = scen.build_scenario("intersection", mode="test", cfg=cfg)
        assert ev.build_schedule(kind, 0, cfg, spec).epsilon_bound == 0.5

    def test_ptb_targets_must_name_vehicles(self):
        # An unknown id, or a bare string (which would become a set of its
        # characters), would leave PTB^V nothing to perturb.
        spec = scen.build_scenario("intersection", mode="test", cfg=CFG)
        unknown = Config.from_dict({"harness": {"ptb_targets": ["ucv1", "nope"]}})
        with pytest.raises(ValueError, match="'nope'"):
            ev.build_schedule("veh", 0, unknown, spec)
        with pytest.raises(ValueError, match="'ucv0'"):
            Config.from_dict({"harness": {"ptb_targets": "ucv0"}})
        # Only None means every UCV; an empty list names no target.
        empty = Config.from_dict({"harness": {"ptb_targets": []}})
        with pytest.raises(ValueError, match="non-empty"):
            ev.build_schedule("veh", 0, empty, spec)
        # Any vehicle of the scenario is a target, CAVs included.
        cav = spec.agent_ids[0]
        own = Config.from_dict({"harness": {"ptb_targets": [cav]}})
        assert ev.build_schedule("veh", 0, own, spec).targets == frozenset({cav})


class AlwaysEmergencyPolicy:
    """Degenerate policy: stop immediately and hold, whatever is safe."""

    def select_actions(self, joint, outcome, rng):
        from cavshield.dynamics import ActionSpace

        return {aid: ActionSpace.EMERGENCY for aid in joint.views}


class UnsafePolicy:
    """Picks, for each agent, its first action outside the safe set (the
    first safe one when every action is safe); records the first such
    choice as (agent, action, safe set)."""

    def __init__(self):
        self.first = None

    def select_actions(self, joint, outcome, rng):
        actions = {}
        for aid in sorted(joint.views):
            safe = outcome.safe_sets[aid]
            unsafe = [a for a in outcome.verdicts[aid] if a not in safe]
            actions[aid] = unsafe[0] if unsafe else safe[0]
            if unsafe and self.first is None:
                self.first = (aid, unsafe[0], safe)
        return actions


class TestUnsafeAction:
    def test_action_outside_the_safe_set_is_rejected(self):
        # It was driven with its unshielded nominal input (3 collisions
        # per highway test episode for a policy always choosing action 6).
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        policy = UnsafePolicy()
        with pytest.raises(ValueError) as err:
            ep.run_episode(spec, CFG, policy, seed=0, log_verdicts=False)
        aid, action, safe = policy.first
        assert str(err.value) == (f"agent {aid!r} chose action {action}, "
                                  f"not in its safe set {safe}")


class TestDegeneratePolicy:
    def test_constant_emergency_stop_is_safe_and_costly(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        stop_rets = []
        drive_rets = []
        for seed in range(3):
            stop = ep.run_episode(spec, CFG, AlwaysEmergencyPolicy(),
                                  seed=seed, log_verdicts=False)
            assert stop.collision_count() == 0
            stop_rets.append(np.mean(list(stop.returns().values())))
            drive = ep.run_episode(spec, CFG, ep.ScriptedTeamPolicy(6),
                                   seed=seed, log_verdicts=False)
            drive_rets.append(np.mean(list(drive.returns().values())))
        # Parked agents never collide but bleed the distance penalty.
        assert np.mean(stop_rets) < np.mean(drive_rets) - 1000.0
