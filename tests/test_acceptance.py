"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line via the conftest summary hook.  The slow
protocol tests (learning progress, robustness ablation) run the quick
episode counts across 5 seeds, as specified.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from cavshield.dynamics import ActionSpace, ControlInput, DynamicsParams
from cavshield.harness import episode as ep
from cavshield.harness import evaluate as ev
from cavshield.harness import scenario as scen
from cavshield.harness.cli import main as cli_main
from cavshield.harness.config import Config
from cavshield.marl import algo, trainer
from cavshield.marl.encode import EncoderSpec, perturbation_samples
from cavshield.marl.nets import MLP, log_softmax
from cavshield.perturb import make_constant, make_rand, make_ptb_over_time, make_ptb_target_vehicles
from cavshield.qp import QpProblem, solve
from cavshield.shield import (
    ShieldConfig,
    action_table,
    agent_safe_set,
    resolve_lipschitz,
    safety_distance_follow,
)
from cavshield.world import Path, RoadMap, VehicleState, World, build_joint_state

from test_harness import record_views
from test_marl import actor_batch, make_net
from test_qp import conditioned_problem, grid_oracle, phase1_oracle, random_problem
from test_shield import follower_leader_world, run_follower_episode

DYN = DynamicsParams()
# Test episodes per checkpoint of the quick protocol (C7).
QUICK_TEST_EPISODES = 10


def test_c1_qp_oracle_equivalence():
    """1,000 random 2-D problems: feasibility verdicts 100% matching the
    phase-1 LP oracle, and the projection distance within 2e-3 of a dense
    grid brute force on instances the lattice can resolve (no sub-pitch
    corner slivers; see test_qp.well_conditioned)."""
    start = time.time()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        p = random_problem(rng)
        assert solve(p).feasible == phase1_oracle(p)

    n_grid_checked = 0
    while n_grid_checked < 400:
        p = conditioned_problem(rng)
        res = solve(p)
        if not res.feasible:
            continue
        ref = grid_oracle(p)
        if ref is None:
            continue
        d_solver = float(np.linalg.norm(res.u - np.asarray(p.u0)))
        d_grid = float(np.linalg.norm(ref - np.asarray(p.u0)))
        assert abs(d_grid - d_solver) <= 2e-3
        n_grid_checked += 1
    assert time.time() - start < 10.0


def test_c2_gradient_correctness():
    """Actor, value, worst-Q and regularizer gradients vs central finite
    differences: 1e-4 relative error at 10 random parameter points each."""
    start = time.time()

    def fd_rel_error(net, value_fn, grad, rng, n_dirs=12, h=1e-6):
        theta0 = net.get_flat()
        fd = np.empty(n_dirs)
        an = np.empty(n_dirs)
        for i in range(n_dirs):
            d = rng.normal(size=net.n_params)
            d /= np.linalg.norm(d)
            net.set_flat(theta0 + h * d)
            lp = value_fn()
            net.set_flat(theta0 - h * d)
            lm = value_fn()
            fd[i] = (lp - lm) / (2.0 * h)
            an[i] = float(grad @ d)
        net.set_flat(theta0)
        return np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-10)

    # Actor (robust-clipped surrogate).
    for seed in range(10):
        actor, obs, actions, old_logp, adv = actor_batch(seed=7000 + seed)
        _, grad = algo.rcs_loss_grad(actor, obs, actions, old_logp, adv, 0.2)
        err = fd_rel_error(
            actor,
            lambda: algo.rcs_loss(actor, obs, actions, old_logp, adv, 0.2),
            grad, np.random.default_rng(seed),
        )
        assert err <= 1e-4

    # Value critic.
    for seed in range(10):
        net = make_net([20, 32, 32, 1], seed=7100 + seed)
        rng = np.random.default_rng(seed + 50)
        states = rng.normal(size=(40, 20))
        targets = rng.normal(size=40)
        _, grad = algo.value_loss_grad(net, states, targets)
        err = fd_rel_error(
            net, lambda: algo.value_loss(net, states, targets), grad,
            np.random.default_rng(seed + 100),
        )
        assert err <= 1e-4

    # Worst-Q critic.
    for seed in range(10):
        net = make_net([20, 32, 32, 7], seed=7200 + seed)
        rng = np.random.default_rng(seed + 150)
        states = rng.normal(size=(40, 20))
        actions = rng.integers(0, 7, size=40)
        targets = rng.normal(size=40)
        _, grad = algo.worst_q_loss_grad(net, states, actions, targets)
        err = fd_rel_error(
            net, lambda: algo.worst_q_loss(net, states, actions, targets),
            grad, np.random.default_rng(seed + 200),
        )
        assert err <= 1e-4

    # Regularizer, at each row's max-KL candidate held fixed.
    spec = EncoderSpec()
    for seed in range(10):
        rng = np.random.default_rng(seed + 250)
        actor = make_net([spec.dim, 32, 32, 7], seed=7300 + seed)
        obs = rng.normal(size=(6, spec.dim)) * 0.3
        masks = rng.uniform(size=(6, spec.n_slots)) < 0.7
        pert = perturbation_samples(spec, obs, masks, 2.0, 4, rng)
        weights = rng.uniform(0.1, 1.0, size=6)
        sel = algo.worst_candidates(actor, obs, pert)
        _, grad = algo.reg_loss_grad(actor, obs, sel, weights)
        err = fd_rel_error(
            actor, lambda: algo.reg_loss(actor, obs, sel, weights), grad,
            np.random.default_rng(seed + 300),
        )
        assert err <= 1e-4

    assert time.time() - start < 60.0


def _invariance_initial_conditions(rng):
    v_ego = float(rng.uniform(4.0, 14.0))
    v_lead = float(rng.uniform(2.0, 12.0))
    cfg0 = ShieldConfig(epsilon=0.0, lipschitz_sum=0.0)
    gap = safety_distance_follow(v_ego, v_lead, cfg0, DYN) + float(
        rng.uniform(0.5, 25.0)
    )
    return v_ego, v_lead, gap


def test_c3_forward_invariance_exact():
    """100 randomized follower-leader episodes, exact observations,
    shield on: h_f >= 0 at every step and zero collisions."""
    start = time.time()
    rng = np.random.default_rng(3003)
    cfg = ShieldConfig(epsilon=0.0, lipschitz_sum=0.0)
    for _ in range(100):
        v_ego, v_lead, gap = _invariance_initial_conditions(rng)
        world = follower_leader_world(gap, v_ego, v_lead)
        min_h, collided = run_follower_episode(
            world, cfg, DYN, None, 200, rng, v_lead
        )
        assert not collided
        assert min_h >= 0.0
    assert time.time() - start < 60.0


def test_c4_robust_forward_invariance():
    """Bounded errors (||e|| <= 2): the eps=2 shield never collides; the
    plain shield under the same adversarial error suffers h_f < 0 in at
    least 10 of 100 marginal (gap ~ D_SF) episodes."""
    rng = np.random.default_rng(4004)
    robust_cfg = resolve_lipschitz(ShieldConfig(epsilon=2.0), DYN)
    plain_cfg = replace(robust_cfg, epsilon=0.0)

    # Robust shield on the randomized episodes of criterion 3.
    for _ in range(100):
        v_ego, v_lead, gap = _invariance_initial_conditions(rng)
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        schedule = make_constant(2.0 * math.cos(ang), 2.0 * math.sin(ang),
                                 epsilon_bound=2.0)
        world = follower_leader_world(gap, v_ego, v_lead)
        _, collided = run_follower_episode(
            world, robust_cfg, DYN, schedule, 200, rng, v_lead
        )
        assert not collided
        assert schedule.violations == []

    # Marginal episodes: gap ~ D_SF, error makes the leader look farther
    # and faster (maximally deceiving at ||e|| = 2).
    deceive = make_constant(2.0 / math.sqrt(1.25), 1.0 / math.sqrt(1.25),
                            epsilon_bound=2.0)
    cfg0 = ShieldConfig(epsilon=0.0, lipschitz_sum=0.0)
    plain_violations = 0
    robust_collisions = 0
    for _ in range(100):
        v_ego = float(rng.uniform(6.0, 14.0))
        v_lead = float(rng.uniform(2.0, 10.0))
        gap = safety_distance_follow(v_ego, v_lead, cfg0, DYN) + float(
            rng.uniform(0.0, 1.0)
        )
        world = follower_leader_world(gap, v_ego, v_lead)
        min_h, _ = run_follower_episode(
            world, plain_cfg, DYN, deceive, 200, rng, v_lead
        )
        plain_violations += min_h < 0.0
        world = follower_leader_world(gap, v_ego, v_lead)
        _, collided = run_follower_episode(
            world, robust_cfg, DYN, deceive, 200, rng, v_lead
        )
        robust_collisions += collided
    assert plain_violations >= 10
    assert robust_collisions == 0


def _crossing_world(rng):
    """Ego on a straight lane plus one crossing UCV with a conflict ahead."""
    path = Path([[-50.0, 0.0], [400.0, 0.0]], lane_id="ego-lane")
    road = RoadMap({"ego-lane": path}, {"ego-lane": {}})
    ego_x = 0.0
    s_conflict = float(rng.uniform(12.0, 55.0))
    d_t = float(rng.uniform(0.5, s_conflict - 6.0))
    angle = float(rng.uniform(math.radians(50), math.radians(130)))
    if rng.integers(0, 2):
        angle = -angle
    conflict = np.array([ego_x + s_conflict, 0.0])
    direction = np.array([math.cos(angle), math.sin(angle)])
    pos = conflict - d_t * direction
    speed = float(rng.uniform(1.0, 14.0))
    ego = VehicleState(id="ego", x=ego_x, y=0.0, v=float(rng.uniform(2, 14)),
                       psi=0.0, connected=True)
    ucv = VehicleState(id="cross", x=float(pos[0]), y=float(pos[1]), v=speed,
                       psi=angle, connected=False)
    world = World(road, [ego, ucv])
    pseudo_s = ego_x + 50.0 + s_conflict - d_t  # arc length on the path
    return world, road, path, pseudo_s, speed


def test_c5_pseudo_car_reduction_equivalence():
    """200 randomized crossing configurations: per-action verdicts match
    the equivalent real same-lane leader placed at PseudoCar.s with speed
    PseudoCar.v."""
    start = time.time()
    rng = np.random.default_rng(5005)
    cfg = resolve_lipschitz(ShieldConfig(epsilon=1.0), DYN)
    space = ActionSpace()
    table = action_table(DYN, space)
    checked = 0
    while checked < 200:
        world, road, path, pseudo_s, pseudo_v = _crossing_world(rng)
        joint = build_joint_state(world, 500.0, None)
        safe_a, verdicts_a, _, _ = agent_safe_set(
            joint.views["ego"], road, cfg, DYN, table
        )
        # Skip configs where the transform filtered the target out (no
        # conflict within horizon); nothing to compare then.
        if not any(
            v.binding and "pseudo" in v.binding for v in verdicts_a.values()
        ):
            continue
        lead_xy = path.point_at(pseudo_s)
        ego = world.vehicles["ego"]
        leader = VehicleState(id="cross", x=lead_xy[0], y=lead_xy[1],
                              v=pseudo_v, psi=0.0, connected=False)
        world_b = World(road, [
            VehicleState(id="ego", x=ego.x, y=ego.y, v=ego.v, psi=0.0,
                         connected=True),
            leader,
        ])
        joint_b = build_joint_state(world_b, 500.0, None)
        safe_b, verdicts_b, _, _ = agent_safe_set(
            joint_b.views["ego"], road, cfg, DYN, table
        )
        assert safe_a == safe_b
        for action in space.actions():
            assert verdicts_a[action].safe == verdicts_b[action].safe
        checked += 1
    assert time.time() - start < 30.0


def test_c6_learning_progress(record_property):
    """Plain MAPPO+shield on Highway, quick protocol, 5 seeds: the last
    20% of episodes out-earn the first 20% in at least 4 of 5 seeds.
    Each seed's last-minus-first window return goes to the summary."""
    start = time.time()
    wins = 0
    for seed in range(5):
        settings = trainer.TrainSettings(
            scenario="highway", algo="mappo", shield_mode="plain",
            seed=seed, quick=True,
        )
        rets = [m["mean_return"] for m in trainer.train(settings).metrics]
        n = max(1, len(rets) // 5)
        gain = float(np.mean(rets[-n:])) - float(np.mean(rets[:n]))
        record_property(f"seed {seed}",
                        f"last-minus-first window return {gain:+.1f}")
        wins += float(np.mean(rets[-n:])) > float(np.mean(rets[:n]))
    assert wins >= 4
    assert time.time() - start < 1800.0


def test_c7_robustness_ablation(tmp_path, record_property):
    """Intersection under PTB^V, quick protocol, 5 seeds: SR-MAPPO's
    collision-free rate >= plain MAPPO+plain-shield's in >= 4/5 seeds.
    Each seed's two rates go to the summary."""
    start = time.time()
    cfg = Config()
    wins = 0
    for seed in range(5):
        rates = {}
        for algo_name, shield_mode in (("srmappo", "robust"), ("mappo", "plain")):
            settings = trainer.TrainSettings(
                scenario="intersection", algo=algo_name,
                shield_mode=shield_mode, seed=seed, quick=True, config=cfg,
            )
            result = trainer.train(settings)
            path = str(tmp_path / f"{algo_name}_{seed}.npz")
            trainer.save_checkpoint(path, result, settings)
            report = ev.evaluate(
                path, ptb="veh", n_episodes=QUICK_TEST_EPISODES,
                seed=seed, cfg=cfg,
            )
            rates[algo_name] = report.collision_free_rate
        record_property(f"seed {seed}",
                        f"collision-free rate srmappo/robust "
                        f"{rates['srmappo']:.2f}, mappo/plain "
                        f"{rates['mappo']:.2f}")
        wins += rates["srmappo"] >= rates["mappo"]
    assert wins >= 4
    assert time.time() - start < 7200.0


def test_c8_reward_identity_and_perturbation_hygiene(monkeypatch):
    """Full-log assertions: per-step rewards exactly equal across agents;
    no perturbation ever touches l_y, v_y, or any self-observation of the
    views the agents saw (recorded as run_episode builds them)."""
    views = record_views(monkeypatch)
    cfg = Config()
    spec = scen.build_scenario("intersection", mode="test", cfg=cfg)
    spec.episode_len = 80
    schedules = [
        None,
        make_rand(11),
        make_ptb_over_time(12, (10, 60)),
        make_ptb_target_vehicles(13, spec.ucv_ids),
    ]
    for schedule in schedules:
        views.clear()
        log = ep.run_episode(spec, cfg, ep.RandomSafeTeamPolicy(),
                             schedule=schedule, seed=21)
        for rec in log.steps:
            rewards = list(rec["rewards"].values())
            assert all(r == rewards[0] for r in rewards)
            for aid, obs_map in views[rec["t"]].items():
                for vid, (lx, ly, vx, vy) in obs_map.items():
                    x, y, v, psi = rec["states"][vid]
                    c, s = math.cos(psi), math.sin(psi)
                    true_lx = c * x + s * y
                    true_ly = -s * x + c * y
                    assert ly == pytest.approx(true_ly, abs=1e-9)
                    assert vy == 0.0
                    if vid == aid:
                        assert lx == true_lx
                        assert vx == v
                    else:
                        err = rec["errors"].get(vid, [0.0, 0.0])
                        assert lx == pytest.approx(true_lx + err[0], abs=1e-9)
                        assert vx == pytest.approx(v + err[1], abs=1e-9)


def test_c9_cli_determinism(tmp_path):
    """Same-seed CLI runs produce byte-identical metric streams."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        Config.from_dict({"harness": {"episode_len": 60}}).to_yaml()
    )
    streams = []
    for run in ("a", "b"):
        out = tmp_path / f"train_{run}"
        rc = cli_main([
            "train", "--scenario", "highway", "--algo", "srmappo",
            "--shield", "robust", "--seed", "5", "--episodes", "3",
            "--config", str(cfg_path), "--out", str(out),
        ])
        assert rc == 0
        streams.append((out / "metrics.jsonl").read_bytes())
    assert streams[0] == streams[1]

    eval_streams = []
    for run in ("a", "b"):
        out = tmp_path / f"eval_{run}"
        rc = cli_main([
            "eval", "--checkpoint", str(tmp_path / "train_a" / "checkpoint.npz"),
            "--ptb", "veh", "--episodes", "3", "--seed", "17",
            "--config", str(cfg_path), "--out", str(out),
        ])
        assert rc == 0
        eval_streams.append((out / "metrics.jsonl").read_bytes())
    assert eval_streams[0] == eval_streams[1]
