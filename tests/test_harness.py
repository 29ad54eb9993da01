"""Harness tests: scenario files, reward assembly, episode determinism,
log replay, training smoke, checkpoints, evaluation."""

import json
import math

import numpy as np
import pytest

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


class TestScenario:
    @pytest.mark.parametrize("name", ["highway", "intersection"])
    @pytest.mark.parametrize("mode", ["train", "test"])
    def test_yaml_roundtrip(self, name, mode):
        spec = scen.build_scenario(name, mode=mode, cfg=CFG)
        text = scen.dump_scenario(spec)
        back = scen.load_scenario(text)
        assert back.name == spec.name
        assert back.mode == spec.mode
        assert back.agent_ids == spec.agent_ids
        assert back.destinations == spec.destinations
        assert set(back.road.lanes) == set(spec.road.lanes)
        for lane_id in spec.road.lanes:
            assert np.array_equal(
                back.road.path(lane_id).waypoints,
                spec.road.path(lane_id).waypoints,
            )
        assert back.road.adjacency == spec.road.adjacency
        for vid, b in spec.behaviors.items():
            assert back.behaviors[vid] == b

    def test_file_roundtrip(self, tmp_path):
        spec = scen.build_scenario("highway", cfg=CFG)
        path = tmp_path / "highway.yaml"
        path.write_text(scen.dump_scenario(spec))
        back = scen.load_scenario(str(path))
        assert back.name == "highway"

    def test_highway_speed_bands(self):
        spec = scen.build_scenario("highway", mode="test", cfg=CFG)
        beh = spec.behaviors["ucv1"]
        assert beh.kind == scen.BEHAVIOR_SUDDEN_BRAKE
        assert beh.brake_speed == (3.0, 4.0)
        train = scen.build_scenario("highway", mode="train", cfg=CFG)
        assert train.behaviors["ucv1"].kind == scen.BEHAVIOR_CONSTANT
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
            assert plan.brake_step is None  # crossing, not sudden brake


def reward_world(n_agents=3):
    road = RoadMap(
        {"l": Path([[-10.0, 0.0], [500.0, 0.0]], lane_id="l")}, {}, 3.5
    )
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


class TestShippedScenarioFiles:
    @pytest.mark.parametrize("name", ["highway", "intersection"])
    def test_data_file_matches_builder(self, name):
        import importlib.resources as res

        built = scen.build_scenario(name, cfg=CFG)
        text = (res.files("cavshield.harness") / "data" / f"{name}.yaml").read_text()
        loaded = scen.load_scenario(text)
        assert loaded.name == built.name
        for lid in built.road.lanes:
            assert np.array_equal(
                loaded.road.path(lid).waypoints, built.road.path(lid).waypoints
            )
        assert loaded.destinations == built.destinations
