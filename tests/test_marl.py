"""MARL tests: hand-checked loss arithmetic, finite-difference gradient
oracles, restricted action sampling, and the feature encoder."""

import math

import numpy as np
import pytest

from cavshield.marl import algo
from cavshield.marl.encode import Encoder, EncoderSpec, perturb_features, perturbation_samples
from cavshield.marl.nets import MLP, Adam, log_softmax, softmax
from cavshield.world import AgentView, Observation


def make_net(sizes, seed=0, zero_final=False, jitter=0.1):
    net = MLP(sizes, np.random.default_rng(seed), zero_final=zero_final)
    if jitter:
        rng = np.random.default_rng(seed + 1)
        net.set_flat(net.get_flat() + jitter * rng.normal(size=net.n_params))
    return net


def fd_check(net, value_fn, grad, rng, n_dirs=20, h=1e-6, tol=1e-4):
    """Directional central differences against the analytic gradient."""
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
    denom = max(np.linalg.norm(fd), 1e-10)
    assert np.linalg.norm(fd - an) / denom <= tol


class TestMLP:
    def test_zero_final_layer_gives_uniform_policy(self):
        net = MLP([10, 64, 64, 7], np.random.default_rng(0), zero_final=True)
        dist = softmax(net.forward(np.random.default_rng(1).normal(size=(5, 10))))
        assert np.allclose(dist, 1.0 / 7.0)

    def test_probabilities_sum_to_one(self):
        net = make_net([10, 32, 32, 7], seed=3)
        x = np.random.default_rng(4).normal(size=(1000, 10))
        dist = softmax(net.forward(x))
        assert np.all(dist >= 0)
        assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-9)

    def test_flat_roundtrip(self):
        net = make_net([5, 8, 3], seed=5)
        flat = net.get_flat()
        net2 = MLP([5, 8, 3], np.random.default_rng(99))
        net2.set_flat(flat)
        x = np.random.default_rng(6).normal(size=(4, 5))
        assert np.array_equal(net.forward(x), net2.forward(x))

    def test_backward_matches_fd_on_sum_output(self):
        net = make_net([6, 16, 4], seed=7)
        x = np.random.default_rng(8).normal(size=(12, 6))
        out, cache = net.forward_cache(x)
        dout = np.ones_like(out)
        grad = net.backward(cache, dout)
        fd_check(
            net, lambda: float(net.forward(x).sum()), grad,
            np.random.default_rng(9),
        )

    def test_adam_descends_quadratic(self):
        opt = Adam(3, lr=0.1)
        x = np.array([5.0, -3.0, 2.0])
        for _ in range(500):
            x = opt.step(x, 2.0 * x)
        assert np.linalg.norm(x) < 1e-2


class TestReturnsAdvantages:
    def test_single_step_hand_backup(self):
        returns, adv = algo.compute_returns_advantages(
            [1.0], [0.0], bootstrap_value=2.0, gamma=0.99
        )
        assert returns[0] == pytest.approx(2.98)
        assert adv[0] == pytest.approx(2.98)

    def test_zero_rewards_zero_bootstrap(self):
        returns, adv = algo.compute_returns_advantages(
            np.zeros(10), np.zeros(10), 0.0, 0.99
        )
        assert np.all(returns == 0.0)
        assert np.all(adv == 0.0)

    def test_perfect_critic_zeroes_advantage(self):
        rng = np.random.default_rng(10)
        rewards = rng.normal(size=20)
        returns, _ = algo.compute_returns_advantages(rewards, np.zeros(20), 1.3, 0.99)
        _, adv = algo.compute_returns_advantages(rewards, returns, 1.3, 0.99)
        assert np.allclose(adv, 0.0)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        rewards = rng.normal(size=15)
        boot = 0.7
        returns, _ = algo.compute_returns_advantages(rewards, np.zeros(15), boot, 0.9)
        for t0 in range(15):
            direct = sum(
                0.9 ** (t - t0) * rewards[t] for t in range(t0, 15)
            ) + 0.9 ** (15 - t0) * boot
            assert returns[t0] == pytest.approx(direct)


class TestRobustAdvantage:
    def test_kappa_zero_recovers_plain(self):
        adv = np.array([0.1, -0.3])
        out = algo.robust_advantage(adv, np.array([5.0, -2.0]), 0.0)
        assert np.array_equal(out, adv)

    def test_arithmetic(self):
        out = algo.robust_advantage(np.array([0.5]), np.array([-1.0]), 0.2)
        assert out[0] == pytest.approx(0.3)

    def test_zero_worst_q_identity(self):
        adv = np.array([1.0, 2.0, 3.0])
        out = algo.robust_advantage(adv, np.zeros(3), 0.7)
        assert np.array_equal(out, adv)


def actor_batch(seed=0, batch=40, dim=10, n_actions=7):
    rng = np.random.default_rng(seed)
    actor = make_net([dim, 32, 32, n_actions], seed=seed + 1)
    old = make_net([dim, 32, 32, n_actions], seed=seed + 1, jitter=0.12)
    obs = rng.normal(size=(batch, dim))
    actions = rng.integers(0, n_actions, size=batch)
    old_logp = log_softmax(old.forward(obs))[np.arange(batch), actions]
    adv = rng.normal(size=batch)
    return actor, obs, actions, old_logp, adv


class TestRcsLoss:
    def test_unit_ratio_gives_mean_advantage(self):
        actor, obs, actions, _, adv = actor_batch(seed=20)
        old_logp = log_softmax(actor.forward(obs))[
            np.arange(len(actions)), actions
        ]
        loss = algo.rcs_loss(actor, obs, actions, old_logp, adv, 0.2)
        assert loss == pytest.approx(float(np.mean(adv)))

    def test_clip_arithmetic(self):
        # rho = 1.3, eps = 0.2, adv = 2 -> min(2.6, 2.4) = 2.4.
        ratio = 1.3
        clipped = np.clip(ratio, 0.8, 1.2)
        assert min(ratio * 2.0, clipped * 2.0) == pytest.approx(2.4)

    def test_zero_advantage_zero_loss_and_grad(self):
        actor, obs, actions, old_logp, _ = actor_batch(seed=21)
        loss, grad = algo.rcs_loss_grad(
            actor, obs, actions, old_logp, np.zeros(len(actions)), 0.2
        )
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_degenerate_batch_raises(self):
        actor, obs, actions, old_logp, adv = actor_batch(seed=22)
        bad = old_logp.copy()
        bad[0] = math.log(1e-13)
        with pytest.raises(algo.DegenerateBatch):
            algo.rcs_loss(actor, obs, actions, bad, adv, 0.2)

    def test_matches_reference_clipped_ppo_bitwise(self):
        # In-repo reference of the same arithmetic, computed independently.
        actor, obs, actions, old_logp, adv = actor_batch(seed=23)
        loss = algo.rcs_loss(actor, obs, actions, old_logp, adv, 0.2)
        logits = actor.forward(obs)
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        new_logp = logp[np.arange(len(actions)), actions]
        ratio = np.exp(new_logp - old_logp)
        reference = float(
            np.mean(
                np.minimum(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv)
            )
        )
        assert loss == reference

    def test_gradient_matches_fd(self):
        for seed in range(24, 34):
            actor, obs, actions, old_logp, adv = actor_batch(seed=seed)
            _, grad = algo.rcs_loss_grad(actor, obs, actions, old_logp, adv, 0.2)
            fd_check(
                actor,
                lambda: algo.rcs_loss(actor, obs, actions, old_logp, adv, 0.2),
                grad,
                np.random.default_rng(seed + 1000),
                n_dirs=10,
            )


class TestValueLoss:
    def test_perfect_fit_zero(self):
        net = make_net([6, 16, 1], seed=40)
        states = np.random.default_rng(41).normal(size=(8, 6))
        targets = net.forward(states)[:, 0]
        assert algo.value_loss(net, states, targets) == pytest.approx(0.0)

    def test_single_sample_squared_error(self):
        net = make_net([4, 8, 1], seed=42)
        state = np.random.default_rng(43).normal(size=(1, 4))
        v = net.forward(state)[0, 0]
        assert algo.value_loss(net, state, np.array([v + 2.0])) == pytest.approx(4.0)

    def test_quadratic_scaling(self):
        net = make_net([4, 8, 1], seed=44)
        states = np.random.default_rng(45).normal(size=(6, 4))
        v = net.forward(states)[:, 0]
        l1 = algo.value_loss(net, states, v + 1.0)
        l2 = algo.value_loss(net, states, v + 2.0)
        assert l2 == pytest.approx(4.0 * l1)

    def test_gradient_matches_fd(self):
        for seed in range(46, 56):
            net = make_net([6, 24, 1], seed=seed)
            rng = np.random.default_rng(seed + 2000)
            states = rng.normal(size=(30, 6))
            targets = rng.normal(size=30)
            _, grad = algo.value_loss_grad(net, states, targets)
            fd_check(
                net, lambda: algo.value_loss(net, states, targets), grad,
                np.random.default_rng(seed + 3000), n_dirs=10,
            )


class TestWorstQ:
    def test_terminal_backup(self):
        net = make_net([6, 8, 3], seed=60)
        targets = algo.worst_q_targets(
            net, [-5.0], np.zeros((1, 6)), [True], 0.99
        )
        assert targets[0] == pytest.approx(-5.0)

    def test_hand_backup(self):
        net = make_net([6, 8, 3], seed=61)
        next_states = np.random.default_rng(62).normal(size=(1, 6))
        q_min = float(net.forward(next_states).min())
        targets = algo.worst_q_targets(net, [1.0], next_states, [False], 0.99)
        assert targets[0] == pytest.approx(1.0 + 0.99 * q_min)
        # Spec arithmetic: r=1, gamma=.99, min Q=2 -> 2.98.
        assert 1.0 + 0.99 * 2.0 == pytest.approx(2.98)

    def test_zero_loss_at_targets(self):
        net = make_net([6, 8, 3], seed=63)
        states = np.random.default_rng(64).normal(size=(5, 6))
        actions = np.array([0, 1, 2, 0, 1])
        targets = net.forward(states)[np.arange(5), actions]
        assert algo.worst_q_loss(net, states, actions, targets) == pytest.approx(0.0)

    def test_gradient_matches_fd(self):
        for seed in range(65, 75):
            net = make_net([6, 24, 4], seed=seed)
            rng = np.random.default_rng(seed + 4000)
            states = rng.normal(size=(25, 6))
            actions = rng.integers(0, 4, size=25)
            targets = rng.normal(size=25)
            _, grad = algo.worst_q_loss_grad(net, states, actions, targets)
            fd_check(
                net, lambda: algo.worst_q_loss(net, states, actions, targets),
                grad, np.random.default_rng(seed + 5000), n_dirs=10,
            )


class TestRegLoss:
    def make_batch(self, seed, epsilon=2.0):
        rng = np.random.default_rng(seed)
        spec = EncoderSpec()
        actor = make_net([spec.dim, 32, 32, 7], seed=seed)
        obs = rng.normal(size=(6, spec.dim)) * 0.3
        masks = rng.uniform(size=(6, spec.n_slots)) < 0.7
        pert = np.stack(
            [
                perturbation_samples(spec, obs[i], masks[i], epsilon, 4, rng)
                for i in range(6)
            ]
        )
        weights = rng.uniform(0.1, 1.0, size=6)
        return actor, obs, pert, weights

    def test_zero_ball_zero_loss(self):
        actor, obs, pert, weights = self.make_batch(80, epsilon=0.0)
        assert algo.reg_loss(actor, obs, pert, weights) == pytest.approx(0.0)

    def test_weight_times_kl(self):
        # Single sample, single candidate: loss = w * KL exactly.
        spec = EncoderSpec()
        actor = make_net([spec.dim, 16, 7], seed=81)
        rng = np.random.default_rng(82)
        obs = rng.normal(size=(1, spec.dim))
        pert = obs[None, :, :] + 0.05 * rng.normal(size=(1, 1, spec.dim))
        p = softmax(actor.forward(obs))[0]
        q = softmax(actor.forward(pert[0]))[0]
        kl = float(np.sum(p * (np.log(p) - np.log(q))))
        loss = algo.reg_loss(actor, obs, pert, np.array([0.8]))
        assert loss == pytest.approx(0.8 * kl)

    def test_invariant_policy_zero_loss(self):
        # Zero weights on the perturbable features -> KL is exactly 0.
        spec = EncoderSpec()
        actor = make_net([spec.dim, 16, 7], seed=83)
        flat = actor.get_flat()
        w0 = actor.weights[0]
        for slot in range(spec.n_slots):
            i_l, i_v = spec.slot_feature_indices(slot)
            w0[i_l, :] = 0.0
            w0[i_v, :] = 0.0
        rng = np.random.default_rng(84)
        obs = rng.normal(size=(4, spec.dim))
        masks = np.ones((4, spec.n_slots), dtype=bool)
        pert = np.stack(
            [perturbation_samples(spec, obs[i], masks[i], 5.0, 6, rng)
             for i in range(4)]
        )
        loss = algo.reg_loss(actor, obs, pert, np.ones(4))
        assert loss == pytest.approx(0.0, abs=1e-15)
        del flat

    def test_gradient_matches_fd(self):
        for seed in range(85, 95):
            actor, obs, pert, weights = self.make_batch(seed)
            _, grad = algo.reg_loss_grad(actor, obs, pert, weights)
            fd_check(
                actor, lambda: algo.reg_loss(actor, obs, pert, weights),
                grad, np.random.default_rng(seed + 6000), n_dirs=10,
            )


class TestSelectAction:
    def test_singleton(self):
        rng = np.random.default_rng(0)
        dist = np.full(7, 1.0 / 7.0)
        for _ in range(20):
            assert algo.select_action(dist, [3], 0.5, rng) == 3

    def test_empty_raises(self):
        with pytest.raises(algo.EmptySafeSet):
            algo.select_action(np.full(7, 1.0 / 7.0), [], 0.0,
                               np.random.default_rng(0))

    def test_eps_one_uniform_chi_square(self):
        rng = np.random.default_rng(1)
        safe = [0, 2, 5]
        counts = np.zeros(7)
        n = 10000
        for _ in range(n):
            counts[algo.select_action(np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01]),
                                      safe, 1.0, rng)] += 1
        assert counts[[1, 3, 4, 6]].sum() == 0
        expected = n / len(safe)
        chi2 = float(((counts[safe] - expected) ** 2 / expected).sum())
        assert chi2 < 13.8  # chi2(df=2) 0.999 quantile

    def test_eps_zero_matches_restricted_dist(self):
        rng = np.random.default_rng(2)
        dist = np.array([0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        safe = list(range(7))
        n = 10000
        counts = np.zeros(7)
        for _ in range(n):
            counts[algo.select_action(dist, safe, 0.0, rng)] += 1
        assert np.all(np.abs(counts / n - dist) < 0.02)

    def test_restricted_dist_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dist = rng.dirichlet(np.ones(7))
            k = int(rng.integers(1, 7))
            safe = sorted(rng.choice(7, size=k, replace=False).tolist())
            r = algo.restrict_dist(dist, safe)
            assert r.sum() == pytest.approx(1.0)
            assert np.all(r[[i for i in range(7) if i not in safe]] == 0.0)


def obs_for(vid, lx, connected=False, vx=10.0, lane=None):
    return Observation(
        target_id=vid, lx=lx, ly=0.0, vx=vx, vy=0.0, psi=0.0,
        length=4.5, width=2.0, connected=connected,
        alpha=0.0 if connected else None, lane_detect=lane,
    )


class TestEncoder:
    def make_view(self):
        return AgentView(
            agent_id="ego",
            self_obs=obs_for("ego", 10.0, connected=True, lane="l0"),
            cav_obs={
                "c1": obs_for("c1", 30.0, connected=True, lane="l1"),
                "c2": obs_for("c2", 20.0, connected=True, lane="l0"),
            },
            ucv_obs={"u1": obs_for("u1", 50.0)},
        )

    def test_dimension_and_presence(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = enc.encode_view(self.make_view())
        assert vec.shape == (spec.dim,)
        assert list(present) == [True, True, True, False, False]

    def test_nearest_first_ordering(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, _ = enc.encode_view(self.make_view())
        # First CAV slot must hold c2 (closer: 20 vs 30).
        base = spec.ego_dim
        assert vec[base] == pytest.approx(20.0 / spec.pos_scale)

    def test_perturb_features_moves_exactly_two_entries(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = enc.encode_view(self.make_view())
        pairs = [(0.0, 0.0)] * spec.n_slots
        pairs[0] = (2.0, 1.0)
        out = perturb_features(spec, vec, present, pairs)
        diff = np.nonzero(out != vec)[0]
        i_l, i_v = spec.slot_feature_indices(0)
        assert sorted(diff.tolist()) == sorted([i_l, i_v])
        assert out[i_l] - vec[i_l] == pytest.approx(2.0 / spec.pos_scale)
        assert out[i_v] - vec[i_v] == pytest.approx(1.0 / spec.speed_scale)

    def test_absent_slot_not_perturbed(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = enc.encode_view(self.make_view())
        pairs = [(0.0, 0.0)] * spec.n_slots
        pairs[4] = (3.0, 3.0)  # absent UCV slot
        out = perturb_features(spec, vec, present, pairs)
        assert np.array_equal(out, vec)

    def test_sensitivity_to_perturbed_feature(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = enc.encode_view(self.make_view())
        actor = make_net([spec.dim, 32, 32, 7], seed=90)
        pairs = [(0.0, 0.0)] * spec.n_slots
        pairs[2] = (2.0, 1.0)  # the present UCV slot
        out = perturb_features(spec, vec, present, pairs)
        d1 = softmax(actor.forward(vec))
        d2 = softmax(actor.forward(out))
        assert not np.allclose(d1, d2)
