"""Harness tests: scenario files, reward assembly, episode determinism,
log replay, training smoke, checkpoints, evaluation."""

import json
import math

import numpy as np
import pytest
import yaml

from cavshield.harness import episode as ep
from cavshield.harness import evaluate as ev
from cavshield.harness import scenario as scen
from cavshield.harness.config import Config
from cavshield.harness.reward import RewardWeights, step_reward
from cavshield.marl import trainer
from cavshield.perturb import make_constant, make_rand
from cavshield.shield import SafetyOutcome
from cavshield.world import Path, RoadMap, VehicleState, World

CFG = Config()


class TestConfig:
    def test_yaml_roundtrip(self):
        text = CFG.to_yaml()
        back = Config.from_yaml(text)
        assert back == CFG

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            Config.from_dict({"shield": {"bogus": 1}})

    def test_override(self):
        cfg = Config.from_dict({"shield": {"epsilon": 3.0}, "marl": {"lr": 1e-3}})
        assert cfg.shield.epsilon == 3.0
        assert cfg.marl.lr == 1e-3

    @pytest.mark.parametrize("marl", [
        {"n_adv": -3}, {"n_adv": 2.5}, {"n_adv": "8"}, {"n_adv": True},
        {"epsilon_ball": -1.0}, {"epsilon_ball": math.nan},
        {"epsilon_ball": math.inf}, {"epsilon_ball": "2.0"},
    ])
    def test_marl_regularizer_rejected(self, marl):
        with pytest.raises(ValueError, match=next(iter(marl))):
            Config.from_dict({"marl": marl})

    @pytest.mark.parametrize("marl", [
        {"ppo_epochs": 0}, {"ppo_epochs": -1}, {"ppo_epochs": 2.0},
        {"ppo_epochs": True}, {"worst_q_sync": 0}, {"worst_q_sync": -3},
        {"worst_q_sync": "1"}, {"worst_q_sync": False},
        {"critic_epochs": -2}, {"critic_epochs": 1.5},
        {"critic_epochs": True},
    ])
    def test_marl_epochs_rejected(self, marl):
        with pytest.raises(ValueError, match=next(iter(marl))):
            Config.from_dict({"marl": marl})

    def test_marl_epochs_accepted(self):
        cfg = Config.from_dict({"marl": {"ppo_epochs": 1, "critic_epochs": 0,
                                         "worst_q_sync": 1}})
        assert (cfg.marl.ppo_epochs, cfg.marl.critic_epochs,
                cfg.marl.worst_q_sync) == (1, 0, 1)

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

    def test_marl_regularizer_accepted(self):
        cfg = Config.from_dict({"marl": {"n_adv": 0, "epsilon_ball": 0.0}})
        assert (cfg.marl.n_adv, cfg.marl.epsilon_ball) == (0, 0.0)
        assert Config.from_dict({"marl": {"epsilon_ball": 3}}).marl.epsilon_ball == 3


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
            lanes = [(lid, p.waypoints.tolist(), p.signal)
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
            {"id": "a", "signal": "green", "waypoints": [[0.0, 0.0], [300.0, 0.0]]},
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

    def test_eval_save_logs_needs_out(self, capsys, tmp_path):
        from cavshield.harness import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--checkpoint", str(tmp_path / "missing.npz"),
                      "--save-logs"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--save-logs needs --out" in err


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
        out.safety_reward[aid] = -10.0 if aid in sas else 0.0
        out.emergency[aid] = aid in sas
    return out


class TestReward:
    def test_stationary_at_destination_is_zero(self):
        world = reward_world()
        dests = {vid: (v.x, v.y) for vid, v in world.vehicles.items()}
        r = step_reward(world, dests, set(), empty_outcome(world.cav_ids),
                        set(), p_col=-200.0)
        assert all(v == 0.0 for v in r.values())

    def test_single_collision_shared_penalty(self):
        world = reward_world()
        dests = {vid: (v.x, v.y) for vid, v in world.vehicles.items()}
        r = step_reward(world, dests, {("cav0", "ucvX")},
                        empty_outcome(world.cav_ids), set(), p_col=-200.0)
        for v in r.values():
            assert v == pytest.approx(-200.0 / 3.0)

    def test_rewards_identical_across_agents(self):
        rng = np.random.default_rng(5)
        world = reward_world()
        for vid, veh in world.vehicles.items():
            veh.x = float(rng.uniform(0, 100))
            veh.v = float(rng.uniform(0, 15))
        dests = {vid: (200.0, 0.0) for vid in world.vehicles}
        r = step_reward(world, dests, set(),
                        empty_outcome(world.cav_ids, sas={"cav1"}), set(),
                        p_col=-200.0)
        vals = list(r.values())
        assert vals[0] == vals[1] == vals[2]

    def test_speed_and_distance_terms(self):
        world = reward_world(n_agents=1)
        world.vehicles["cav0"].v = 9.0
        dests = {"cav0": (world.vehicles["cav0"].x + 30.0, 0.0)}
        r = step_reward(world, dests, set(), empty_outcome(["cav0"]), set(),
                        p_col=-200.0)
        assert r["cav0"] == pytest.approx(9.0 - 30.0)

    def test_crashed_agent_stops_accruing(self):
        world = reward_world()
        dests = {vid: (200.0, 0.0) for vid in world.vehicles}
        for veh in world.vehicles.values():
            veh.v = 10.0
        r_all = step_reward(world, dests, set(), empty_outcome(world.cav_ids),
                            set(), p_col=-200.0)
        r_crashed = step_reward(world, dests, set(),
                                empty_outcome(world.cav_ids), {"cav0"},
                                p_col=-200.0)
        # cav0's terms (10 speed, -200+... distance) drop out of the sums.
        assert r_crashed["cav0"] != r_all["cav0"]
        expected_delta = (10.0 - math.dist((0.0, 0.0), (200.0, 0.0))) / 3.0
        assert r_all["cav0"] - r_crashed["cav0"] == pytest.approx(expected_delta)

    def test_shared_weights(self):
        w = RewardWeights.shared(4)
        assert w.mu_v == w.mu_l == w.mu_s == 0.25


class TestEpisode:
    def test_zero_length_episode(self):
        spec = scen.build_scenario("highway", cfg=CFG)
        spec.episode_len = 0
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(), seed=0)
        assert log.steps == []
        assert log.collision_count() == 0

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
                                 shield_mode=ep.SHIELD_OFF, collect_obs=False)
            collided += (log.collision_count() > 0)
        assert collided >= 4

    def test_shielded_highway_brake_no_collision(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        policy = ep.ScriptedTeamPolicy(6)
        for seed in range(5):
            log = ep.run_episode(spec, CFG, policy, seed=seed,
                                 shield_mode=ep.SHIELD_ROBUST, collect_obs=False)
            assert log.collision_count() == 0

    def test_executed_actions_always_in_safe_set(self):
        spec = scen.build_scenario("intersection", mode="test", cfg=CFG)
        spec.episode_len = 80
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                             schedule=make_rand(1), seed=2)
        for rec in log.steps:
            for aid, action in rec["actions"].items():
                assert action in rec["safe_sets"][aid]

    def test_perturbation_hygiene_in_logs(self):
        # Recompute ground-truth observations from logged states: only the
        # travel-axis pair may differ, by exactly the logged error.
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        spec.episode_len = 50
        log = ep.run_episode(spec, CFG, ep.RandomSafeTeamPolicy(),
                             schedule=make_constant(2.0, 1.0), seed=4)
        for rec in log.steps:
            for aid, obs_map in rec["obs"].items():
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

    def test_zero_episodes_leave_parameters_at_init(self):
        settings = self.quick_settings(episodes=0)
        result = trainer.train(settings)
        fresh, _ = trainer.build_agents(result.spec, settings.config, settings.seed)
        for aid in result.agents:
            assert np.array_equal(
                result.agents[aid].actor.get_flat(), fresh[aid].actor.get_flat()
            )
        assert result.metrics == []

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
        settings = self.quick_settings(episodes=0)
        result = trainer.train(settings)
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
        with pytest.raises(ValueError):
            ev.evaluate(path, n_episodes=0, cfg=cfg)

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


class TestDegeneratePolicy:
    def test_constant_emergency_stop_is_safe_and_costly(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        stop_rets = []
        drive_rets = []
        for seed in range(3):
            stop = ep.run_episode(spec, CFG, AlwaysEmergencyPolicy(),
                                  seed=seed, collect_obs=False)
            assert stop.collision_count() == 0
            stop_rets.append(np.mean(list(stop.returns().values())))
            drive = ep.run_episode(spec, CFG, ep.ScriptedTeamPolicy(6),
                                   seed=seed, collect_obs=False)
            drive_rets.append(np.mean(list(drive.returns().values())))
        # Parked agents never collide but bleed the distance penalty.
        assert np.mean(stop_rets) < np.mean(drive_rets) - 1000.0
