"""SR-MAPPO building blocks: returns, robust advantage, the
robust-clipped-surrogate objective, worst-case-aware state regularization,
critic losses, and safe-set-restricted action selection.

Every loss has a plain value form and a (value, flat-gradient) form; the
gradients are analytic and checked against central finite differences.

The state regularizer's inner max is solved once per update, as in SA-PPO:
worst_candidates picks each row's max-KL perturbation candidate under the
actor as the update starts, one candidate column at a time, and reg_loss /
reg_loss_grad then take the KL at those fixed candidates in every PPO
epoch.  A row whose state_importance weight is 0 adds nothing to the
loss or its gradient, so the trainer runs both on the weighted rows
only, with the weights scaled by W / T so that the mean over those W
rows is the mean over all T.
"""

import bisect
import itertools
import math

import numpy as np

from .nets import log_softmax, softmax

LOG_PROB_FLOOR = np.log(1e-12)


class DegenerateBatch(Exception):
    """A stored action has vanishing old-policy probability."""


class EmptySafeSet(Exception):
    """select_action called with nothing to choose from."""


def compute_returns_advantages(rewards, values, bootstrap_value, gamma=0.99):
    """Discounted rewards-to-go with a terminal value bootstrap, and the
    instant advantage against the critic."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    returns = np.empty_like(rewards)
    acc = float(bootstrap_value)
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return returns, returns - values


def robust_advantage(advantages, worst_q, kappa_wst):
    """Advantage with the worst-case action value appended."""
    return np.asarray(advantages, dtype=float) + kappa_wst * np.asarray(
        worst_q, dtype=float
    )


def rcs_loss(actor, obs, actions, old_logp, adv_robust, clip_eps):
    """Mean clipped surrogate on the robust advantage (to maximize)."""
    old_logp = np.asarray(old_logp, dtype=float)
    if np.any(old_logp < LOG_PROB_FLOOR):
        raise DegenerateBatch("old policy probability below 1e-12")
    new_logp = log_softmax(actor.forward(obs))[np.arange(len(actions)), actions]
    ratio = np.exp(new_logp - old_logp)
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    return float(np.mean(np.minimum(ratio * adv_robust, clipped * adv_robust)))


def rcs_loss_grad(actor, obs, actions, old_logp, adv_robust, clip_eps):
    """(objective value, gradient of the objective w.r.t. actor params)."""
    old_logp = np.asarray(old_logp, dtype=float)
    if np.any(old_logp < LOG_PROB_FLOOR):
        raise DegenerateBatch("old policy probability below 1e-12")
    adv = np.asarray(adv_robust, dtype=float)
    logits, cache = actor.forward_cache(obs)
    p = softmax(logits)
    logp_all = log_softmax(logits)
    idx = np.arange(len(actions))
    new_logp = logp_all[idx, actions]
    ratio = np.exp(new_logp - old_logp)
    a1 = ratio * adv
    a2 = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    value = float(np.mean(np.minimum(a1, a2)))
    # min picks its first argument on ties; when the clipped branch wins
    # strictly, the ratio sits outside the clip window, so d(clip)/d(ratio)=0.
    dratio = np.where(a1 <= a2, adv, 0.0) / len(actions)
    onehot = np.zeros_like(p)
    onehot[idx, actions] = 1.0
    dlogits = (dratio * ratio)[:, None] * (onehot - p)
    return value, actor.backward(cache, dlogits)


def value_loss(value_net, states, targets):
    v = value_net.forward(states)[:, 0]
    return float(np.mean((v - targets) ** 2))


def value_loss_grad(value_net, states, targets):
    out, cache = value_net.forward_cache(states)
    resid = out[:, 0] - np.asarray(targets, dtype=float)
    loss = float(np.mean(resid**2))
    dout = (2.0 * resid / len(resid))[:, None]
    return loss, value_net.backward(cache, dout)


def worst_q_targets(q_net, rewards, next_states, terminal, gamma):
    """Pessimistic Bellman target: r + gamma * min_a' Q(s', a') under q_net
    as passed; terminal transitions back up the reward alone."""
    rewards = np.asarray(rewards, dtype=float)
    q_next = q_net.forward(next_states).min(axis=1)
    terminal = np.asarray(terminal, dtype=bool)
    return rewards + gamma * q_next * (~terminal)


def worst_q_loss(q_net, states, actions, targets):
    q = q_net.forward(states)[np.arange(len(actions)), actions]
    return float(np.mean((q - np.asarray(targets, dtype=float)) ** 2))


def worst_q_loss_grad(q_net, states, actions, targets):
    out, cache = q_net.forward_cache(states)
    idx = np.arange(len(actions))
    resid = out[idx, actions] - np.asarray(targets, dtype=float)
    loss = float(np.mean(resid**2))
    dout = np.zeros_like(out)
    dout[idx, actions] = 2.0 * resid / len(resid)
    return loss, q_net.backward(cache, dout)


def worst_candidates(actor, obs, pert_samples):
    """Each row's candidate s' of largest KL(pi(s) || pi(s')) under actor:
    the (B, F) rows chosen from pert_samples (B, K, F), one column of B
    rows scored at a time, with np.argmax's choice: the first candidate on
    ties, and the first NaN KL if a row has one."""
    b, k, _ = pert_samples.shape
    logits_p = actor.forward(obs)
    p = softmax(logits_p)
    logp = log_softmax(logits_p)
    best = np.zeros(b, dtype=np.intp)
    best_kl = np.full(b, -np.inf)
    for j in range(k):
        logq = log_softmax(actor.forward(pert_samples[:, j]))
        kl = np.sum(p * (logp - logq), axis=-1)
        better = (kl > best_kl) | (np.isnan(kl) & ~np.isnan(best_kl))
        best[better] = j
        best_kl[better] = kl[better]
    return pert_samples[np.arange(b), best]


def reg_loss(actor, obs, sel, weights):
    """Importance-weighted KL(pi(s) || pi(s')) at fixed candidates, the
    rows of sel (B, F) against the rows of obs (to minimize)."""
    logits_p = actor.forward(obs)
    logp = log_softmax(logits_p)
    kl = np.sum(softmax(logits_p) * (logp - log_softmax(actor.forward(sel))),
                axis=1)
    return float(np.mean(np.asarray(weights, dtype=float) * kl))


def reg_loss_grad(actor, obs, sel, weights):
    """(reg_loss value, gradient w.r.t. actor params); the gradient flows
    through both KL arguments, with the candidates held fixed."""
    weights = np.asarray(weights, dtype=float)
    logits_p, cache_p = actor.forward_cache(obs)
    logits_q, cache_q = actor.forward_cache(sel)
    p = softmax(logits_p)
    q = softmax(logits_q)
    diff = log_softmax(logits_p) - log_softmax(logits_q)
    kl = np.sum(p * diff, axis=1)
    loss = float(np.mean(weights * kl))
    coeff = (weights / len(weights))[:, None]
    dlogits_p = coeff * p * (diff - kl[:, None])
    dlogits_q = coeff * (q - p)
    grad = actor.backward(cache_p, dlogits_p) + actor.backward(cache_q, dlogits_q)
    return loss, grad


def state_importance(values, q_net, central):
    """w(s) = max(V(s) - min_a worst-Q(s, a), 0), with V(s) the rows of
    values, the value critic at central.

    The clamp keeps reg_loss a penalty.  The bootstrapped worst-Q critic
    lags the Monte-Carlo value target, so V - min Q is mostly negative in
    training, and minimizing a negative w * KL would raise the divergence
    it is meant to bound."""
    q_min = q_net.forward(central).min(axis=1)
    return np.maximum(np.asarray(values, dtype=float) - q_min, 0.0)


def safe_softmax_cdf(logps, safe_set):
    """(actions, cdf): the safe actions in ascending order and the CDF of
    the softmax of their log-probs logps[a].  safe_set must be a list of
    distinct action indices of logps with finite log-probs.  The weights
    are exp(logps[a] - max), the largest 1.0; the CDF is their running
    sum divided by its last entry, so it ends at exactly 1.0."""
    if not safe_set:
        raise EmptySafeSet("shield must substitute Emergency_stop")
    actions = sorted(set(safe_set))
    if (len(actions) != len(safe_set) or actions[0] < 0
            or actions[-1] >= len(logps)):
        raise ValueError(f"safe set {safe_set} is not distinct actions "
                         f"in 0..{len(logps) - 1}")
    safe_logps = [logps[a] for a in actions]
    if not all(map(math.isfinite, safe_logps)):
        raise ValueError(f"safe log-probs {safe_logps} are not all finite")
    top = max(safe_logps)
    cdf = list(itertools.accumulate(math.exp(x - top) for x in safe_logps))
    return actions, [c / cdf[-1] for c in cdf]


def select_action(logps, safe_set, rng):
    """Sample the policy restricted to the safe set: the action where one
    rng.random() falls in safe_softmax_cdf, by bisect_right.  Every call
    draws once, a one-action safe set included."""
    actions, cdf = safe_softmax_cdf(logps, safe_set)
    return actions[bisect.bisect_right(cdf, rng.random())]
