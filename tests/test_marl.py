"""MARL tests: hand-checked loss arithmetic, finite-difference gradient
oracles, restricted action sampling, the feature encoder and the team
policy's one-pass step."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from cavshield.harness import episode as ep
from cavshield.harness import scenario as scen
from cavshield.harness.config import Config
from cavshield.marl import algo, trainer
from cavshield.marl.encode import Encoder, EncoderSpec, perturbation_samples
from cavshield.marl.nets import MLP, Adam, log_softmax, softmax
from cavshield.world import AgentView, JointState, Observation


def make_net(sizes, seed=0, zero_final=False, jitter=0.1):
    net = MLP(sizes, np.random.default_rng(seed), zero_final=zero_final)
    if jitter:
        rng = np.random.default_rng(seed + 1)
        net.set_flat(net.get_flat() + jitter * rng.normal(size=net.n_params))
    return net


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


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

    @pytest.mark.parametrize("sizes", [[44, 64, 64, 7], [132, 64, 64, 1], [5, 3]])
    def test_from_flat_equals_built_then_set(self, sizes):
        vec = make_net(sizes, seed=12).get_flat()
        built = MLP(sizes, zero_final=True)
        built.set_flat(vec)
        net = MLP.from_flat(sizes, vec)
        assert net.sizes == built.sizes
        for a, b in zip(net.weights + net.biases, built.weights + built.biases):
            assert same_bits(a, b)
        with pytest.raises(ValueError):
            MLP.from_flat(sizes, vec[:-1])
        with pytest.raises(ValueError):
            MLP.from_flat(sizes[:1], vec)

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

    def test_update_backs_up_the_critic_as_the_update_starts(self, monkeypatch):
        """Every worst-Q epoch of an update fits r + gamma * min_a Q(s', a)
        under the worst-Q critic as the update starts, and the reward alone
        at the rollout's last step (no bootstrap there)."""
        cfg = Config.from_dict({"harness": {"episode_len": 15}})
        spec = scen.build_scenario("intersection", mode="train", cfg=cfg)
        agents, encoder = trainer.build_agents(spec, cfg, 8)
        # Off the zero final layer, so that min Q is not 0 everywhere.
        rng = np.random.default_rng(9)
        for agent in agents.values():
            flat = agent.worst_q.get_flat()
            agent.worst_q.set_flat(flat + 0.1 * rng.normal(size=flat.size))
        policy = trainer.NeuralTeamPolicy(actors_of(agents), encoder,
                                          spec.agent_ids)
        log = ep.run_episode(spec, cfg, policy, seed=10, log_verdicts=False)
        batch = policy.batch(log)
        start = {aid: copy.deepcopy(a.worst_q) for aid, a in agents.items()}
        fitted = []
        loss_grad = algo.worst_q_loss_grad

        def recorded(q_net, states, actions, targets):
            fitted.append(np.array(targets))
            return loss_grad(q_net, states, actions, targets)

        monkeypatch.setattr(algo, "worst_q_loss_grad", recorded)
        trainer._update_agents(
            agents, batch, encoder.spec, cfg, cfg.marl.kappa_wst,
            cfg.marl.kappa_reg, rng=np.random.default_rng(0), train_worst_q=True,
        )
        # One fit per epoch for each agent with an acted step: an agent
        # that only ever stopped for emergencies has nothing to fit.
        fitting = [aid for aid in agents if np.any(
            batch.actions[:, spec.agent_ids.index(aid)] >= 0)]
        epochs = cfg.marl.critic_epochs
        assert len(fitted) == epochs * len(fitting)
        last = len(log.steps) - 1
        nxt = [block.reshape(-1) for block in policy.obs[1:]]
        last_acted = 0
        for i, aid in enumerate(fitting):
            want = []
            col = spec.agent_ids.index(aid)
            for t, action in enumerate(batch.actions[:, col].tolist()):
                if action < 0:
                    continue
                r = log.steps[t]["rewards"][aid] * cfg.marl.reward_scale
                if t == last:
                    want.append(r)
                    last_acted += 1
                else:
                    q_min = min(start[aid].forward(nxt[t])[0].tolist())
                    assert q_min != 0.0
                    want.append(r + cfg.marl.gamma * q_min)
            for targets in fitted[i * epochs:(i + 1) * epochs]:
                assert targets.tolist() == pytest.approx(want, rel=1e-12)
        assert last_acted > 0

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


def reference_reg_loss_grad(actor, obs, pert_samples, weights):
    """The regularizer gradient as it was computed in every PPO epoch before
    the candidates were fixed per update: the max-KL search over all
    candidates, then the gradient at each row's argmax candidate."""
    weights = np.asarray(weights, dtype=float)
    b, k, f = pert_samples.shape
    logits_p, cache_p = actor.forward_cache(obs)
    p = softmax(logits_p)
    logp = log_softmax(logits_p)
    logq = log_softmax(actor.forward(pert_samples.reshape(b * k, f)))
    kls = np.sum(p[:, None, :] * (logp[:, None, :] - logq.reshape(b, k, -1)),
                 axis=-1)
    best = np.argmax(kls, axis=1)
    loss = float(np.mean(weights * kls[np.arange(b), best]))
    logits_q, cache_q = actor.forward_cache(pert_samples[np.arange(b), best])
    q = softmax(logits_q)
    diff = logp - log_softmax(logits_q)
    kl = np.sum(p * diff, axis=1)
    coeff = (weights / b)[:, None]
    dlogits_p = coeff * p * (diff - kl[:, None])
    dlogits_q = coeff * (q - p)
    grad = actor.backward(cache_p, dlogits_p) + actor.backward(cache_q, dlogits_q)
    return loss, grad


def reference_worst_candidates(actor, obs, pert_samples):
    """The candidate search as one B * K-row forward and an np.argmax over
    the (B, K) KLs: the search before it was streamed, kept as the
    bit-exact reference for the chosen rows."""
    b, k, f = pert_samples.shape
    logits_p = actor.forward(obs)
    logp = log_softmax(logits_p)
    logq = log_softmax(actor.forward(pert_samples.reshape(b * k, f)))
    kls = np.sum(softmax(logits_p)[:, None, :]
                 * (logp[:, None, :] - logq.reshape(b, k, -1)), axis=-1)
    return pert_samples[np.arange(b), np.argmax(kls, axis=1)]


class TestWorstCandidates:
    """worst_candidates scores one candidate column at a time and chooses
    the rows the one-block search chooses, ties and NaNs included."""

    # (n_cav_slots, n_ucv_slots, n_random): K = 28 at the defaults, and
    # K = 1 when no slot can move.
    SHAPES = {28: (2, 3, 8), 1: (0, 0, 1)}

    def case(self, T, K, zero_final, epsilon, seed=0):
        n_cav, n_ucv, n_random = self.SHAPES[K]
        spec = EncoderSpec(n_cav_slots=n_cav, n_ucv_slots=n_ucv)
        actor = make_net([spec.dim, 64, 64, 7], seed=seed,
                         zero_final=zero_final,
                         jitter=0.0 if zero_final else 0.1)
        rng = np.random.default_rng(seed + 100)
        obs = rng.normal(size=(T, spec.dim))
        masks = rng.uniform(size=(T, spec.n_slots)) < 0.6
        masks[0] = False  # every corner of row 0 is a copy of its state
        pert = perturbation_samples(spec, obs, masks, epsilon, n_random, rng)
        assert pert.shape == (T, K, spec.dim)
        return actor, obs, pert

    @pytest.mark.parametrize("epsilon", [0.0, 2.0])
    @pytest.mark.parametrize("zero_final", [False, True])
    @pytest.mark.parametrize("K", [1, 28])
    @pytest.mark.parametrize("T", [1, 7, 200])
    def test_same_rows_as_one_block_search(self, T, K, zero_final, epsilon):
        actor, obs, pert = self.case(T, K, zero_final, epsilon, seed=T + K)
        sel = algo.worst_candidates(actor, obs, pert)
        want = reference_worst_candidates(actor, obs, pert)
        assert sel.shape == want.shape == (T, pert.shape[2])
        assert sel.tobytes() == want.tobytes()
        if zero_final or epsilon == 0.0:
            # Every KL ties (at 0, or between copies of the state).
            assert sel.tobytes() == pert[:, 0].tobytes()

    def test_nan_kl_takes_the_first_nan_candidate(self):
        actor, obs, pert = self.case(7, 28, False, 2.0, seed=3)
        pert = pert.copy()
        pert[2, [5, 9], 0] = np.nan  # row 2: NaN KLs at candidates 5 and 9
        pert[4, 0, 0] = np.nan       # row 4: a NaN KL at candidate 0
        sel = algo.worst_candidates(actor, obs, pert)
        assert sel.tobytes() == reference_worst_candidates(
            actor, obs, pert).tobytes()
        assert sel[2].tobytes() == pert[2, 5].tobytes()
        assert sel[4].tobytes() == pert[4, 0].tobytes()

    def test_peak_memory_below_one_candidate_layer(self):
        # The one-block search holds (T * K, 64) float64 layer outputs
        # (2.87 MB each at T = 200, K = 28); one column holds (T, 64).
        actor, obs, pert = self.case(200, 28, False, 2.0, seed=4)
        layer_bytes = pert.shape[0] * pert.shape[1] * 64 * 8
        tracemalloc.start()
        try:
            algo.worst_candidates(actor, obs, pert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < layer_bytes


class TestRegLoss:
    def make_batch(self, seed, epsilon=2.0, rows=6, zero_final=False):
        rng = np.random.default_rng(seed)
        spec = EncoderSpec()
        actor = make_net([spec.dim, 32, 32, 7], seed=seed,
                         jitter=0.0 if zero_final else 0.1,
                         zero_final=zero_final)
        obs = rng.normal(size=(rows, spec.dim)) * 0.3
        masks = rng.uniform(size=(rows, spec.n_slots)) < 0.7
        pert = perturbation_samples(spec, obs, masks, epsilon, 4, rng)
        weights = rng.uniform(0.1, 1.0, size=rows)
        return actor, obs, pert, weights

    @staticmethod
    def brute_force_candidates(actor, obs, pert):
        """Row by row, candidate by candidate: the first candidate of
        largest KL(pi(s) || pi(s'))."""
        rows = []
        for s, cands in zip(obs, pert):
            logp = log_softmax(actor.forward(s))[0]
            best, best_kl = 0, -np.inf
            for k, cand in enumerate(cands):
                logq = log_softmax(actor.forward(cand))[0]
                kl = float(np.sum(np.exp(logp) * (logp - logq)))
                if kl > best_kl:
                    best, best_kl = k, kl
            rows.append(cands[best])
        return np.array(rows)

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_worst_candidates_match_brute_force(self, seed):
        actor, obs, pert, _ = self.make_batch(seed, rows=12)
        sel = algo.worst_candidates(actor, obs, pert)
        assert same_bits(sel, self.brute_force_candidates(actor, obs, pert))
        # The choice is a real one: not every row takes its first candidate.
        assert not same_bits(sel, pert[:, 0])

    def test_worst_candidates_first_index_on_ties(self):
        # A zero_final actor is uniform everywhere: every KL is 0.
        actor, obs, pert, _ = self.make_batch(73, rows=12, zero_final=True)
        assert np.all(actor.forward(pert.reshape(-1, pert.shape[-1])) == 0.0)
        sel = algo.worst_candidates(actor, obs, pert)
        assert same_bits(sel, pert[:, 0])
        assert same_bits(sel, self.brute_force_candidates(actor, obs, pert))

    def test_first_epoch_gradient_is_the_per_epoch_search_gradient(self):
        spec = EncoderSpec()
        actor = make_net([spec.dim, 64, 64, 7], seed=74)
        rng = np.random.default_rng(75)
        obs = rng.normal(size=(200, spec.dim))
        masks = rng.uniform(size=(200, spec.n_slots)) < 0.7
        pert = perturbation_samples(spec, obs, masks, 2.0, 8, rng)
        weights = np.maximum(rng.normal(size=200), 0.0)
        want_loss, want = reference_reg_loss_grad(actor, obs, pert, weights)
        sel = algo.worst_candidates(actor, obs, pert)
        loss, grad = algo.reg_loss_grad(actor, obs, sel, weights)
        assert [x.hex() for x in grad] == [x.hex() for x in want]
        assert loss == pytest.approx(want_loss, rel=1e-12)

    def test_zero_ball_zero_loss(self):
        actor, obs, pert, weights = self.make_batch(80, epsilon=0.0)
        sel = algo.worst_candidates(actor, obs, pert)
        assert algo.reg_loss(actor, obs, sel, weights) == pytest.approx(0.0)

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
        sel = algo.worst_candidates(actor, obs, pert)
        assert same_bits(sel, pert[:, 0])
        loss = algo.reg_loss(actor, obs, sel, np.array([0.8]))
        assert loss == pytest.approx(0.8 * kl)
        loss_g, _ = algo.reg_loss_grad(actor, obs, sel, np.array([0.8]))
        assert same_bits(loss_g, loss)

    def test_invariant_policy_zero_loss(self):
        # Zero weights on the perturbable features -> KL is exactly 0.
        spec = EncoderSpec()
        actor = make_net([spec.dim, 16, 7], seed=83)
        w0 = actor.weights[0]
        for slot in range(spec.n_slots):
            i_l, i_v = spec.slot_feature_indices(slot)
            w0[i_l, :] = 0.0
            w0[i_v, :] = 0.0
        rng = np.random.default_rng(84)
        obs = rng.normal(size=(4, spec.dim))
        masks = np.ones((4, spec.n_slots), dtype=bool)
        pert = perturbation_samples(spec, obs, masks, 5.0, 6, rng)
        sel = algo.worst_candidates(actor, obs, pert)
        loss = algo.reg_loss(actor, obs, sel, np.ones(4))
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_fd(self):
        for seed in range(85, 95):
            actor, obs, pert, weights = self.make_batch(seed)
            sel = algo.worst_candidates(actor, obs, pert)
            _, grad = algo.reg_loss_grad(actor, obs, sel, weights)
            fd_check(
                actor, lambda: algo.reg_loss(actor, obs, sel, weights),
                grad, np.random.default_rng(seed + 6000), n_dirs=10,
            )


class TestStateImportance:
    def test_clamped_at_zero(self):
        rng = np.random.default_rng(96)
        value = make_net([20, 16, 1], seed=97)
        worst_q = make_net([20, 16, 7], seed=98)
        central = rng.normal(size=(400, 20))
        raw = value.forward(central)[:, 0] - worst_q.forward(central).min(axis=1)
        # Shift V so that about half the rows have V - min Q < 0.
        value.biases[-1] = value.biases[-1] - np.median(raw)
        raw = value.forward(central)[:, 0] - worst_q.forward(central).min(axis=1)
        assert np.any(raw > 0) and np.any(raw < 0)
        w = algo.state_importance(value.forward(central)[:, 0], worst_q,
                                  central)
        assert np.all(w >= 0.0)
        assert same_bits(w[raw > 0], raw[raw > 0])
        assert np.all(w[raw <= 0] == 0.0)


class TestSelectAction:
    def test_singleton(self):
        rng = np.random.default_rng(0)
        twin = np.random.default_rng(0)
        logps = np.log(np.full(7, 1.0 / 7.0))
        for _ in range(20):
            assert algo.select_action(logps, [3], rng) == 3
            twin.random()  # a one-action safe set still draws once
        assert rng.random() == twin.random()

    def test_empty_raises(self):
        with pytest.raises(algo.EmptySafeSet):
            algo.select_action(np.log(np.full(7, 1.0 / 7.0)), [],
                               np.random.default_rng(0))

    def test_matches_restricted_dist(self):
        rng = np.random.default_rng(2)
        dist = np.array([0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        safe = [0, 2, 3, 5]
        want = np.zeros(7)
        want[safe] = dist[safe] / dist[safe].sum()
        n = 10000
        counts = np.zeros(7)
        for _ in range(n):
            counts[algo.select_action(np.log(dist), safe, rng)] += 1
        assert np.all(np.abs(counts / n - want) < 0.02)

    def test_matches_masked_softmax_reference(self):
        """5k seeded cases over action_k 1..8, every safe-set size, and
        peaked, flat and random policies, some with safe log-probs near
        -1000 (a safe mass that underflows as a probability): the CDF is
        the masked softmax's to 1e-12, and every draw farther than that
        from an edge picks the reference's action with one draw."""
        n_cases = 5_000
        gen = np.random.default_rng(20261018)
        k = gen.integers(1, 9, n_cases)
        size = gen.integers(0, 1 << 30, n_cases)  # safe-set size, mod n
        kind = np.arange(n_cases) % 4
        scale = np.choose(kind, [30.0, 0.0, 1.0, 3.0])  # 30: peaked, 0: flat
        logits = gen.normal(size=(n_cases, 12)) * scale[:, None]
        order = np.argsort(gen.random((n_cases, 12)), axis=1)
        r_ref = np.random.default_rng(7)
        r_new = np.random.default_rng(7)
        sizes = set()
        near_edge = 0
        underflow = 0
        for i in range(n_cases):
            n = 4 + int(k[i])
            m = 1 + int(size[i]) % n
            safe = sorted(int(a) for a in order[i][order[i] < n][:m])
            row = logits[i, :n].copy()
            if kind[i] == 3 and i % 8 == 3 and m < n:
                row[safe] -= 1000.0
            logps = log_softmax(row)
            underflow += float(np.exp(logps[safe]).sum()) == 0.0
            sizes.add(m)
            masked = np.full(n, -np.inf)
            masked[safe] = logps[safe]
            ref_cdf = np.cumsum(softmax(masked))[safe]
            actions, cdf = algo.safe_softmax_cdf(logps.tolist(), safe)
            assert actions == safe
            assert np.max(np.abs(np.array(cdf) - ref_cdf)) <= 1e-12, i
            u = r_ref.random()
            if np.min(np.abs(ref_cdf - u)) <= 1e-12:
                near_edge += 1
                r_new.random()
                continue
            want = safe[int(np.searchsorted(ref_cdf, u, side="right"))]
            assert algo.select_action(logps.tolist(), safe, r_new) == want, i
        assert r_new.random() == r_ref.random()
        assert sizes == set(range(1, 13))
        assert near_edge < 10
        assert underflow >= 100

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_prob_raises(self, bad):
        logps = np.log([0.2, 0.1, 0.4, 0.1, 0.1, 0.05, 0.05]).tolist()
        logps[1] = bad
        with pytest.raises(ValueError, match="not all finite"):
            algo.select_action(logps, [0, 1, 2], np.random.default_rng(0))
        # Only the safe actions' log-probs are read.
        assert algo.select_action(logps, [0, 2], np.random.default_rng(0)) \
            in (0, 2)

    def test_draws_at_cdf_edges_match_numpy_inverse_cdf(self):
        """Draws on and just below every entry of the sampler's own CDF
        land where numpy's searchsorted(side="right") puts them, which is
        where bisect_right does; every CDF ends at exactly 1.0."""
        gen = np.random.default_rng(9)
        for _ in range(300):
            n = 4 + int(gen.integers(1, 9))
            logps = log_softmax(gen.normal(size=n) * 3.0)
            safe = sorted(gen.choice(n, int(gen.integers(1, n + 1)),
                                     replace=False).tolist())
            actions, cdf = algo.safe_softmax_cdf(logps, safe)
            assert cdf[-1] == 1.0
            cdf = np.array(cdf)
            draws = cdf.tolist() + np.nextafter(cdf, -1.0).tolist()
            for u in draws + [0.0, np.nextafter(1.0, 0.0)]:
                if 0.0 <= u < 1.0:
                    want = actions[int(cdf.searchsorted(u, side="right"))]
                    assert algo.select_action(logps, safe, FixedDraw(u)) == want

    def test_safe_set_must_be_distinct_actions(self):
        logps = np.log(np.full(7, 1.0 / 7.0))
        for safe in ([2, 2], [0, 7], [-1, 3]):
            with pytest.raises(ValueError, match="distinct actions"):
                algo.select_action(logps, safe, np.random.default_rng(0))


class FixedDraw:
    """Stands in for a Generator whose next random() is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


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

    def encode(self, enc):
        """The ego's (encoding, present slots): row 0 of a one-agent team."""
        block, mask_block = enc.encode_joint(
            JointState(t=0, views={"ego": self.make_view()}), ["ego"])
        return block[0], mask_block[0]

    def test_dimension_and_presence(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = self.encode(enc)
        assert vec.shape == (spec.dim,)
        assert list(present) == [True, True, True, False, False]

    def test_nearest_first_ordering(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, _ = self.encode(enc)
        # First CAV slot must hold c2 (closer: 20 vs 30).
        base = spec.ego_dim
        assert vec[base] == pytest.approx(20.0 / spec.pos_scale)

    def corner_rows(self, spec, vec, present, epsilon=2.0):
        """The 4 * n_slots corner candidates (no random draws)."""
        return perturbation_samples(
            spec, vec[None, :], present[None, :], epsilon, 0,
            np.random.default_rng(0),
        )[0]

    def test_present_slot_moves_exactly_two_entries(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = self.encode(enc)
        rows = self.corner_rows(spec, vec, present)
        i_l, i_v = spec.slot_feature_indices(0)
        moved = set()
        for row, (e_l, e_v) in zip(rows[:4], [(2.0, 0.0), (-2.0, 0.0),
                                              (0.0, 2.0), (0.0, -2.0)]):
            moved.update(np.nonzero(row != vec)[0].tolist())
            assert row[i_l] - vec[i_l] == pytest.approx(e_l / spec.pos_scale)
            assert row[i_v] - vec[i_v] == pytest.approx(e_v / spec.speed_scale)
        assert moved == {i_l, i_v}
        # Random draws move both features of every present slot, inside
        # the epsilon ball in raw units, and nothing else.
        pert = perturbation_samples(
            spec, vec[None, :], present[None, :], 2.0, 8,
            np.random.default_rng(1),
        )[0]
        cols = [spec.slot_feature_indices(s) for s in range(spec.n_slots)]
        perturbable = {i for s in range(spec.n_slots) if present[s] for i in cols[s]}
        for row in pert[:8]:
            assert set(np.nonzero(row != vec)[0].tolist()) == perturbable
            for s in np.nonzero(present)[0]:
                e_l = (row[cols[s][0]] - vec[cols[s][0]]) * spec.pos_scale
                e_v = (row[cols[s][1]] - vec[cols[s][1]]) * spec.speed_scale
                assert math.hypot(e_l, e_v) <= 2.0 + 1e-9

    def test_absent_slot_not_perturbed(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = self.encode(enc)
        pert = perturbation_samples(
            spec, vec[None, :], present[None, :], 3.0, 8,
            np.random.default_rng(2),
        )[0]
        for slot in (3, 4):  # absent UCV slots
            assert not present[slot]
            cols = list(spec.slot_feature_indices(slot))
            assert np.array_equal(pert[:, cols], np.broadcast_to(vec[cols], (len(pert), 2)))
            corners = pert[8 + 4 * slot : 8 + 4 * slot + 4]
            assert np.array_equal(corners, np.broadcast_to(vec, corners.shape))

    def test_sensitivity_to_perturbed_feature(self):
        spec = EncoderSpec()
        enc = Encoder(spec, ["l0", "l1"])
        vec, present = self.encode(enc)
        actor = make_net([spec.dim, 32, 32, 7], seed=90)
        out = self.corner_rows(spec, vec, present)[4 * 2]  # the present UCV slot
        d1 = softmax(actor.forward(vec))
        d2 = softmax(actor.forward(out))
        assert not np.allclose(d1, d2)


def reference_perturbation_samples(spec, vec, present, epsilon, n_random, rng):
    """One observation at a time, one scalar draw per value: the sampler
    before batching, kept as the bit-exact reference."""

    def perturb(pairs):
        out = vec.copy()
        for slot, (e_l, e_v) in zip(range(spec.n_slots), pairs):
            if not present[slot]:
                continue
            i_l, i_v = spec.slot_feature_indices(slot)
            out[i_l] += e_l / spec.pos_scale
            out[i_v] += e_v / spec.speed_scale
        return out

    samples = []
    for _ in range(n_random):
        pairs = []
        for _ in range(spec.n_slots):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            r = epsilon * math.sqrt(rng.uniform(0.0, 1.0))
            pairs.append((r * math.cos(ang), r * math.sin(ang)))
        samples.append(perturb(pairs))
    for slot in range(spec.n_slots):
        for e_l, e_v in ((epsilon, 0.0), (-epsilon, 0.0), (0.0, epsilon), (0.0, -epsilon)):
            pairs = [(0.0, 0.0)] * spec.n_slots
            pairs[slot] = (e_l, e_v)
            samples.append(perturb(pairs))
    if not samples:
        samples.append(vec.copy())
    return np.stack(samples)


class TestPerturbationSamples:
    @pytest.mark.parametrize("n_random", [0, 1, 8])
    @pytest.mark.parametrize("epsilon", [0.0, 2.0])
    @pytest.mark.parametrize("slots", [(2, 3), (1, 0), (0, 0)])
    def test_bit_identical_to_per_row_reference(self, n_random, epsilon, slots):
        spec = EncoderSpec(n_cav_slots=slots[0], n_ucv_slots=slots[1])
        data = np.random.default_rng(11)
        obs = data.normal(size=(12, spec.dim))
        masks = data.uniform(size=(12, spec.n_slots)) < 0.7
        masks[:2] = True  # every slot present
        masks[2:4] = False  # every slot absent
        obs[[0, 2]] = -0.0  # the sign of zero must survive both cases
        rng_ref = np.random.default_rng(12)
        rng = np.random.default_rng(12)
        ref = np.stack([
            reference_perturbation_samples(spec, obs[i], masks[i], epsilon, n_random, rng_ref)
            for i in range(len(obs))
        ])
        got = perturbation_samples(spec, obs, masks, epsilon, n_random, rng)
        assert got.shape == ref.shape == (12, max(1, n_random + 4 * spec.n_slots), spec.dim)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        # The sampler consumes one uniform block of all rows' values.
        rng_u = np.random.default_rng(12)
        rng_u.random((len(obs), n_random, spec.n_slots, 2))
        assert rng_u.bit_generator.state == rng.bit_generator.state
        # With rows, those rows of the full block, bit for bit, from the
        # same draws.
        for rows in ([], [0, 3, 11], list(range(12))):
            rng_rows = np.random.default_rng(12)
            part = perturbation_samples(spec, obs, masks, epsilon, n_random,
                                        rng_rows, rows=rows)
            assert part.shape == (len(rows),) + got.shape[1:]
            assert np.array_equal(part.view(np.int64), got[rows].view(np.int64))
            assert rng_rows.bit_generator.state == rng.bit_generator.state


def actors_of(agents):
    """{agent id: actor} of the runtimes (all the policy reads)."""
    return {aid: agent.actor for aid, agent in agents.items()}


class TestTeamPolicy:
    def test_team_forward_has_each_actors_bits(self):
        rng = np.random.default_rng(31)
        for case in range(300):
            n_agents = 1 + case % 5
            sizes = [int(rng.integers(3, 50))] + [
                int(h) for h in rng.integers(2, 70, int(rng.integers(0, 3)))
            ] + [int(rng.integers(2, 12))]
            actors = {f"cav{i}": make_net(sizes, seed=1000 * case + i, jitter=0.5)
                      for i in range(n_agents)}
            policy = trainer.NeuralTeamPolicy(actors, None, list(actors))
            x = rng.normal(size=(n_agents, sizes[0])) * 3.0
            team = policy.team_actor.forward(x.reshape(n_agents, 1, -1))
            team_logp = log_softmax(team.reshape(n_agents, -1))
            for i, actor in enumerate(actors.values()):
                own = actor.forward(x[i])
                assert same_bits(team[i], own)
                assert same_bits(team_logp[i], log_softmax(own)[0])

    def episode(self, agents, encoder, spec, cfg, seed):
        """A 12-step episode's batch; also returns copies of what each
        step recorded, taken right after that step."""
        policy = trainer.NeuralTeamPolicy(actors_of(agents), encoder,
                                          spec.agent_ids)
        snapshots = []
        select = policy.select_actions

        def select_and_copy(*args):
            actions = select(*args)
            snapshots.append((policy.obs[-1].copy(), policy.masks[-1].copy(),
                              actions))
            return actions

        policy.select_actions = select_and_copy
        log = ep.run_episode(spec, cfg, policy, seed=seed, log_verdicts=False)
        return policy.batch(log), log, snapshots

    def test_recorded_steps_act_with_current_weights_and_stay_put(self):
        cfg = Config.from_dict({"harness": {"episode_len": 12}})
        spec = scen.build_scenario("highway", mode="train", cfg=cfg)
        agents, encoder = trainer.build_agents(spec, cfg, 3)
        rng = np.random.default_rng(4)
        for update in range(2):
            # Move every actor with set_flat, as an update does.
            for agent in agents.values():
                flat = agent.actor.get_flat()
                agent.actor.set_flat(flat + 0.3 * rng.normal(size=flat.size))
            batch, log, snapshots = self.episode(agents, encoder, spec, cfg,
                                                 update)
            assert batch.agent_ids == spec.agent_ids
            n, F, S = len(spec.agent_ids), encoder.spec.dim, encoder.spec.n_slots
            assert batch.obs.shape == (13, n, F)
            assert batch.masks.shape == (12, n, S)
            assert batch.actions.shape == batch.logp_old.shape == (12, n)
            assert batch.rewards.shape == (12,)
            assert len(snapshots) == 12
            for t, (obs, mask, actions) in enumerate(snapshots):
                assert same_bits(batch.obs[t], obs)
                assert np.array_equal(batch.masks[t], mask)
                assert batch.actions[t].tolist() == [
                    actions[aid] for aid in spec.agent_ids]
                # One team reward per step: every agent's is the same.
                assert {log.steps[t]["rewards"][aid]
                        for aid in spec.agent_ids} == {batch.rewards[t]}
            acted = 0
            for i, aid in enumerate(spec.agent_ids):
                for obs, action, logp in zip(batch.obs[:-1, i],
                                             batch.actions[:, i],
                                             batch.logp_old[:, i]):
                    if action >= 0:
                        own = log_softmax(agents[aid].actor.forward(obs))[0]
                        assert logp.hex() == float(own[action]).hex()
                        acted += 1
            assert acted >= 30

    def test_mismatched_actor_layouts_raise(self):
        actors = {"cav0": make_net([6, 8, 7]), "cav1": make_net([6, 16, 7])}
        with pytest.raises(ValueError, match="'cav1'"):
            trainer.NeuralTeamPolicy(actors, None, ["cav0", "cav1"])

    def test_empty_team_rejected(self):
        with pytest.raises(ValueError, match="at least one agent"):
            trainer.NeuralTeamPolicy({}, None, [])




@pytest.fixture(scope="module")
def rollout():
    """A 40-step intersection rollout in which every agent acts."""
    cfg = Config.from_dict({"harness": {"episode_len": 40}})
    spec = scen.build_scenario("intersection", mode="train", cfg=cfg)
    agents, encoder = trainer.build_agents(spec, cfg, 5)
    policy = trainer.NeuralTeamPolicy(actors_of(agents), encoder,
                                      spec.agent_ids)
    log = ep.run_episode(spec, cfg, policy, seed=6, log_verdicts=False)
    batch = policy.batch(log)
    assert np.all(np.any(batch.actions >= 0, axis=0))
    return cfg, agents, batch, encoder.spec


def update(rollout, kappa_wst=None, kappa_reg=None, agents=None):
    """One update of a copy of the rollout's agents; (agents, losses, rng)."""
    cfg, start, batch, encoder_spec = rollout
    agents = copy.deepcopy(start if agents is None else agents)
    rng = np.random.default_rng([5, 0xAD, 0])
    losses = trainer._update_agents(
        agents, batch, encoder_spec, cfg,
        cfg.marl.kappa_wst if kappa_wst is None else kappa_wst,
        cfg.marl.kappa_reg if kappa_reg is None else kappa_reg,
        rng=rng, train_worst_q=True,
    )
    return agents, losses, rng


class TestRegularizerSkip:
    """The update skips each agent's rows of importance weight 0: it runs
    the state regularizer on the other rows only, from candidates drawn
    for every row, and its loss and gradient are those over all T rows."""

    def run_update(self, monkeypatch, rollout, weights_of):
        """One update with state_importance's i-th result replaced by
        weights_of(i, w).  Records each candidate draw (rows, the W-row
        block, the full T-row block from the same draws), each search
        (its choice, and the full search's at the weighted rows) and each
        reg_loss_grad call (its result, and reg_loss_grad over all T rows
        with weight 0 off the weighted rows)."""
        cfg, _, batch, _ = rollout
        T = len(batch.actions)
        state_importance = algo.state_importance
        worst_candidates = algo.worst_candidates
        reg_loss_grad = algo.reg_loss_grad
        rec = {"weights": [], "draws": [], "searches": [], "reg": []}

        def forced_importance(*args):
            w = weights_of(len(rec["weights"]), state_importance(*args))
            rec["weights"].append(w)
            return w

        def recorded_samples(spec, obs, masks, epsilon, n_random, rng, rows):
            full = perturbation_samples(spec, obs, masks, epsilon, n_random,
                                        copy.deepcopy(rng))
            got = perturbation_samples(spec, obs, masks, epsilon, n_random,
                                       rng, rows=rows)
            rec["draws"].append((obs, list(rows), got, full))
            return got

        def recorded_candidates(actor, obs, pert):
            full_obs, rows, _, full = rec["draws"][-1]
            full_sel = worst_candidates(actor, full_obs, full)
            sel = worst_candidates(actor, obs, pert)
            rec["searches"].append((sel.copy(), full_sel))
            return sel

        def recorded_reg_loss_grad(actor, obs, sel, weights):
            full_obs, rows, _, _ = rec["draws"][-1]
            full_w = np.zeros(T)
            full_w[rows] = rec["weights"][-1][rows]
            full_sel = rec["searches"][-1][1].copy()
            full_sel[rows] = sel
            got = reg_loss_grad(actor, obs, sel, weights)
            rec["reg"].append((got, reg_loss_grad(actor, full_obs, full_sel,
                                                  full_w)))
            return got

        monkeypatch.setattr(algo, "state_importance", forced_importance)
        monkeypatch.setattr(trainer, "perturbation_samples", recorded_samples)
        monkeypatch.setattr(algo, "worst_candidates", recorded_candidates)
        monkeypatch.setattr(algo, "reg_loss_grad", recorded_reg_loss_grad)
        _, losses, rng = update(rollout)
        monkeypatch.undo()
        return losses, rng, rec

    def test_all_zero_weights_skip_the_search_and_draw_every_row(
            self, monkeypatch, rollout):
        cfg, agents, batch, encoder_spec = rollout
        losses, rng, rec = self.run_update(
            monkeypatch, rollout, lambda i, w: np.zeros_like(w))
        assert [rows for _, rows, _, _ in rec["draws"]] == [[]] * len(agents)
        assert rec["searches"] == [] and rec["reg"] == []
        assert losses["loss_reg"] == 0.0
        assert losses["reg_weighted_rows"] == 0
        # Every agent drew the uniforms of all T rows, and nothing else.
        want = np.random.default_rng([5, 0xAD, 0])
        for _ in agents:
            want.random((len(batch.actions), cfg.marl.n_adv,
                         encoder_spec.n_slots, 2))
        assert rng.random().hex() == want.random().hex()

    def test_nonzero_weights_run_the_regularizer(self, monkeypatch, rollout):
        # On the weighted rows only, with the loss and gradient of all T.
        cfg, agents, _, _ = rollout
        rows = [3, 17, 30]

        def some_rows(i, w):
            w = np.zeros_like(w)
            w[rows] = (0.5, 1.0, 2.0)
            return w

        losses, _, rec = self.run_update(monkeypatch, rollout, some_rows)
        assert len(rec["draws"]) == len(rec["searches"]) == len(agents)
        for _, drawn_rows, got, full in rec["draws"]:
            assert drawn_rows == rows
            assert same_bits(got, full[rows])
        for sel, full_sel in rec["searches"]:
            assert sel.shape[0] == len(rows)
            assert same_bits(sel, full_sel[rows])
        assert len(rec["reg"]) == len(agents) * cfg.marl.ppo_epochs
        for (loss, grad), (full_loss, full_grad) in rec["reg"]:
            assert loss == pytest.approx(full_loss, rel=1e-12)
            assert (np.linalg.norm(grad - full_grad)
                    <= 1e-12 * np.linalg.norm(full_grad))
        assert losses["loss_reg"] > 0.0
        assert losses["reg_weighted_rows"] == len(agents) * len(rows)

    def test_later_agents_keep_their_candidates(self, monkeypatch, rollout):
        def weighted(i, w):
            w = np.zeros_like(w)
            w[[5, 25]] = 1.0
            return w

        def first_agent_zero(i, w):
            return np.zeros_like(w) if i == 0 else weighted(i, w)

        _, _, every = self.run_update(monkeypatch, rollout, weighted)
        losses, _, later = self.run_update(monkeypatch, rollout,
                                           first_agent_zero)
        assert len(every["searches"]) == 3 and len(later["searches"]) == 2
        for want, got in zip(every["draws"][1:], later["draws"][1:]):
            assert same_bits(got[2], want[2])
        for want, got in zip(every["searches"][1:], later["searches"]):
            assert same_bits(got[0], want[0])
        assert losses["loss_reg"] > 0.0

    def test_ball_radius_is_the_shield_epsilon(self, monkeypatch, rollout):
        _, agents, batch, encoder_spec = rollout
        cfg = Config.from_dict({"harness": {"episode_len": 40},
                                "shield": {"epsilon": 0.5}})
        radii = []

        def recorded_samples(spec, obs, masks, epsilon, *args, **kwargs):
            radii.append(epsilon)
            return perturbation_samples(spec, obs, masks, epsilon, *args,
                                        **kwargs)

        monkeypatch.setattr(algo, "state_importance",
                            lambda *args: np.ones(len(batch.obs) - 1))
        monkeypatch.setattr(trainer, "perturbation_samples", recorded_samples)
        trainer._update_agents(copy.deepcopy(agents), batch, encoder_spec, cfg,
                               cfg.marl.kappa_wst, cfg.marl.kappa_reg,
                               rng=np.random.default_rng(0), train_worst_q=True)
        assert radii == [0.5] * len(agents)

    def test_columns_follow_agent_ids(self, rollout):
        # Without the regularizer the update draws nothing, so each agent's
        # update must not depend on where it stands in the agents dict.
        _, agents, batch, _ = rollout
        teams = [update(rollout, kappa_reg=0.0,
                        agents={aid: agents[aid] for aid in order})[0]
                 for order in (batch.agent_ids, batch.agent_ids[::-1])]
        for aid in batch.agent_ids:
            for name in ("actor", "value", "worst_q"):
                assert same_bits(getattr(teams[0][aid], name).get_flat(),
                                 getattr(teams[1][aid], name).get_flat())


class TestTeamCritic:
    """One value critic and one Adam for the team, fitted once per update
    on the team reward; every agent's advantage reads it."""

    def test_runtimes_share_one_value_critic(self):
        cfg = Config()
        spec = scen.build_scenario("intersection", mode="train", cfg=cfg)
        agents, _ = trainer.build_agents(spec, cfg, 7)
        runtimes = list(agents.values())
        assert len(runtimes) == 3
        for agent in runtimes:
            assert agent.value is runtimes[0].value
            assert agent.opt_value is runtimes[0].opt_value
        # The value net has a seed of its own, so each actor is drawn from
        # its agent's child as it was when every agent had a value net.
        children = np.random.SeedSequence([7, 0x11]).spawn(len(runtimes))
        hidden = list(cfg.marl.hidden)
        for agent, child in zip(runtimes, children):
            actor = MLP(agent.actor.sizes[:1] + hidden + agent.actor.sizes[-1:],
                        np.random.default_rng(child), zero_final=True)
            assert same_bits(agent.actor.get_flat(), actor.get_flat())

    def test_unshared_value_critic_rejected(self, rollout):
        cfg, agents, batch, encoder_spec = rollout
        agents = copy.deepcopy(agents)
        aid = batch.agent_ids[1]
        agents[aid].value = copy.deepcopy(agents[aid].value)
        with pytest.raises(ValueError, match=f"{aid!r} does not share"):
            trainer._update_agents(agents, batch, encoder_spec, cfg, 0.0, 0.0,
                                   rng=np.random.default_rng(0),
                                   train_worst_q=True)

    def test_one_fit_per_update_and_every_advantage_reads_it(
            self, monkeypatch, rollout):
        cfg, agents, batch, _ = rollout
        value = next(iter(agents.values())).value
        fits = []
        advantages = {}
        value_loss_grad = algo.value_loss_grad
        rcs_loss_grad = algo.rcs_loss_grad

        def counted_value_loss_grad(net, states, targets):
            loss, grad = value_loss_grad(net, states, targets)
            fits.append((net, np.array(targets), loss))
            return loss, grad

        def recorded_rcs_loss_grad(actor, obs, actions, logp_old, adv, clip):
            advantages.setdefault(id(actor), np.array(adv))
            return rcs_loss_grad(actor, obs, actions, logp_old, adv, clip)

        monkeypatch.setattr(algo, "value_loss_grad", counted_value_loss_grad)
        monkeypatch.setattr(algo, "rcs_loss_grad", recorded_rcs_loss_grad)
        team, losses, _ = update(rollout, kappa_wst=0.0, kappa_reg=0.0)
        assert len(fits) == cfg.marl.critic_epochs
        shared = next(iter(team.values())).value
        assert all(net is shared for net, _, _ in fits)
        # The returns of the team reward, and each agent's advantage against
        # the critic as the update starts.
        states = batch.obs.reshape(len(batch.obs), -1)
        v = value.forward(states)[:, 0]
        returns, adv = algo.compute_returns_advantages(
            batch.rewards * cfg.marl.reward_scale, v[:-1], v[-1],
            cfg.marl.gamma)
        assert all(same_bits(targets, returns) for _, targets, _ in fits)
        assert len(advantages) == len(team)
        for aid, agent in team.items():
            acted = batch.actions[:, batch.agent_ids.index(aid)] >= 0
            assert same_bits(advantages[id(agent.actor)], adv[acted])
        assert losses["loss_value"] == fits[-1][2]
