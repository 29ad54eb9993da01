"""SR-MAPPO building blocks: returns, robust advantage, the
robust-clipped-surrogate objective, worst-case-aware state regularization,
critic losses, and safe-set-restricted action selection.

Every loss has a plain value form and a (value, flat-gradient) form; the
gradients are analytic and checked against central finite differences.
"""

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


def _new_logp(actor, obs, actions, with_cache=False):
    if with_cache:
        logits, cache = actor.forward_cache(obs)
    else:
        logits, cache = actor.forward(obs), None
    logp_all = log_softmax(logits)
    idx = np.arange(len(actions))
    return logits, logp_all[idx, actions], cache


def rcs_loss(actor, obs, actions, old_logp, adv_robust, clip_eps):
    """Mean clipped surrogate on the robust advantage (to maximize)."""
    old_logp = np.asarray(old_logp, dtype=float)
    if np.any(old_logp < LOG_PROB_FLOOR):
        raise DegenerateBatch("old policy probability below 1e-12")
    _, new_logp, _ = _new_logp(actor, obs, actions)
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


def worst_q_targets(target_net, rewards, next_states, terminal, gamma):
    """Pessimistic Bellman target: r + gamma * min_a' Q(s', a'); terminal
    transitions back up the reward alone."""
    rewards = np.asarray(rewards, dtype=float)
    q_next = target_net.forward(next_states).min(axis=1)
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


def reg_loss(actor, obs, pert_samples, weights):
    """Importance-weighted max policy divergence over the perturbation
    candidates (to minimize); pert_samples has shape (B, K, F)."""
    val, _, _, _ = _reg_max_kl(actor, actor.forward(obs), pert_samples)
    return float(np.mean(np.asarray(weights, dtype=float) * val))


def _reg_max_kl(actor, logits_p, pert_samples, workspace=None):
    """Per-row max KL(pi(s) || pi(s')) over the candidates s', given the
    actor's logits at s; the candidates' forward runs in workspace."""
    b, k, f = pert_samples.shape
    p = softmax(logits_p)
    logp = log_softmax(logits_p)
    logits_q = actor.forward(pert_samples.reshape(b * k, f), workspace=workspace)
    logq = log_softmax(logits_q).reshape(b, k, -1)
    kls = np.sum(p[:, None, :] * (logp[:, None, :] - logq), axis=-1)
    best = np.argmax(kls, axis=1)
    return kls[np.arange(b), best], best, p, logp


def reg_loss_grad(actor, obs, pert_samples, weights, workspace=None):
    """(loss value, gradient w.r.t. actor params); the gradient flows
    through both KL arguments at the argmax candidate.  An optional
    nets.Workspace holds the candidate forward's buffers."""
    weights = np.asarray(weights, dtype=float)
    b = len(weights)
    logits_p, cache_p = actor.forward_cache(obs)
    max_kl, best, p, logp = _reg_max_kl(actor, logits_p, pert_samples,
                                        workspace)
    loss = float(np.mean(weights * max_kl))

    sel = pert_samples[np.arange(b), best]
    logits_q, cache_q = actor.forward_cache(sel)
    q = softmax(logits_q)
    logq = log_softmax(logits_q)
    diff = logp - logq
    kl = np.sum(p * diff, axis=1)
    coeff = (weights / b)[:, None]
    dlogits_p = coeff * p * (diff - kl[:, None])
    dlogits_q = coeff * (q - p)
    grad = actor.backward(cache_p, dlogits_p) + actor.backward(cache_q, dlogits_q)
    return loss, grad


def state_importance(value_net, q_net, central):
    """w(s) = V(s) - min_a worst-Q(s, a)."""
    v = value_net.forward(central)[:, 0]
    q_min = q_net.forward(central).min(axis=1)
    return v - q_min


def restrict_dist(dist, safe_set):
    """dist renormalized over safe_set (a proper distribution)."""
    dist = np.asarray(dist, dtype=float)
    restricted = np.zeros_like(dist)
    total = dist[safe_set].sum()
    if total <= 0:
        restricted[safe_set] = 1.0 / len(safe_set)
    else:
        restricted[safe_set] = dist[safe_set] / total
    return restricted


def select_action(dist, safe_set, eps_explore, rng):
    """Epsilon-greedy over the safe set, otherwise sample the restricted
    policy distribution."""
    safe_set = list(safe_set)
    if not safe_set:
        raise EmptySafeSet("shield must substitute Emergency_stop")
    if eps_explore > 0 and rng.uniform() < eps_explore:
        return int(safe_set[rng.integers(0, len(safe_set))])
    restricted = restrict_dist(dist, safe_set)
    return int(rng.choice(len(restricted), p=restricted))
