"""Fixed-length feature encoding of an agent's local state.

Layout: ego block, then nearest-first neighbor-CAV slots, then
nearest-first UCV slots; absent slots are zero with a presence flag.
Positions/speeds are the raw travel-frame observation values, scaled, so
a measurement error (e_l, e_v) moves exactly two known features per
observed vehicle.  That mapping is what the regularizer's epsilon-ball
perturbs.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncoderSpec:
    n_cav_slots: int = 2
    n_ucv_slots: int = 3
    max_lanes: int = 4
    pos_scale: float = 100.0
    speed_scale: float = 10.0
    accel_scale: float = 4.0

    @property
    def ego_dim(self):
        return 5 + self.max_lanes

    @property
    def cav_dim(self):
        return 6 + self.max_lanes

    @property
    def ucv_dim(self):
        return 5

    @property
    def dim(self):
        return (
            self.ego_dim
            + self.n_cav_slots * self.cav_dim
            + self.n_ucv_slots * self.ucv_dim
        )

    @property
    def n_slots(self):
        return self.n_cav_slots + self.n_ucv_slots

    def slot_feature_indices(self, slot):
        """(lx index, vx index) of a perturbable slot (CAV slots first)."""
        if slot < self.n_cav_slots:
            base = self.ego_dim + slot * self.cav_dim
        else:
            base = (
                self.ego_dim
                + self.n_cav_slots * self.cav_dim
                + (slot - self.n_cav_slots) * self.ucv_dim
            )
        return base, base + 2


class Encoder:
    def __init__(self, spec, lane_ids):
        lane_ids = sorted(lane_ids, key=str)
        if len(lane_ids) > spec.max_lanes:
            raise ValueError(
                f"{len(lane_ids)} lanes exceed max_lanes={spec.max_lanes}"
            )
        self.spec = spec
        self.lane_index = {lid: i for i, lid in enumerate(lane_ids)}

    def _lane_onehot(self, lane_id):
        oh = [0.0] * self.spec.max_lanes
        idx = self.lane_index.get(lane_id)
        if idx is not None:
            oh[idx] = 1.0
        return oh

    def _vehicle_block(self, obs, with_cav_fields):
        sp = self.spec
        base = [
            obs.lx / sp.pos_scale,
            obs.ly / sp.pos_scale,
            obs.vx / sp.speed_scale,
            obs.vy / sp.speed_scale,
        ]
        if with_cav_fields:
            alpha = 0.0 if obs.alpha is None else obs.alpha
            base.append(alpha / sp.accel_scale)
            base.extend(self._lane_onehot(obs.lane_detect))
        return base

    def _features(self, view):
        """(features, present-slot flags) of one agent, as Python lists."""
        sp = self.spec
        ego = view.self_obs
        parts = self._vehicle_block(ego, with_cav_fields=True)
        present = [False] * sp.n_slots

        ego_pos = ego.world_position()

        def by_distance(obs_map):
            return sorted(
                obs_map.values(),
                key=lambda o: (math.dist(ego_pos, o.world_position()), str(o.target_id)),
            )

        cavs = by_distance(view.cav_obs)[: sp.n_cav_slots]
        for i in range(sp.n_cav_slots):
            if i < len(cavs):
                parts.extend(self._vehicle_block(cavs[i], with_cav_fields=True))
                parts.append(1.0)
                present[i] = True
            else:
                parts.extend([0.0] * (sp.cav_dim - 1))
                parts.append(0.0)

        ucvs = by_distance(view.ucv_obs)[: sp.n_ucv_slots]
        for i in range(sp.n_ucv_slots):
            if i < len(ucvs):
                parts.extend(self._vehicle_block(ucvs[i], with_cav_fields=False))
                parts.append(1.0)
                present[sp.n_cav_slots + i] = True
            else:
                parts.extend([0.0] * (sp.ucv_dim - 1))
                parts.append(0.0)

        if len(parts) != sp.dim:
            raise AssertionError("encoder layout mismatch")
        return parts, present

    def encode_joint(self, joint, agent_order):
        """(A, F) encodings and (A, S) present-slot flags, one row per
        agent in agent_order; the centralized state is the encodings'
        reshape(-1).  Every call builds new blocks, so callers may keep them.
        """
        rows = []
        flags = []
        for aid in agent_order:
            parts, present = self._features(joint.views[aid])
            rows.append(parts)
            flags.append(present)
        return np.array(rows, dtype=float), np.array(flags, dtype=bool)


def perturbation_samples(spec, obs, masks, epsilon, n_random, rng,
                         rows=None):
    """Candidate perturbed states for the inner KL maximization.

    obs (T, F) and present-slot masks (T, S) give candidates (T, K, F).
    Random draws perturb every present slot within the epsilon 2-norm
    ball; the axis-extreme corners move one perturbable feature by
    +/- epsilon at a time.  K is fixed at max(1, n_random + 4 * n_slots)
    (absent-slot corners degenerate to copies) so batches stack
    rectangularly.  The uniforms are consumed step, then sample, then
    slot, then (angle, radius): the order of one scalar draw per value.

    With rows (indices into obs), only those rows get candidates, a
    (len(rows), K, F) block with the bits of the full block's rows.  The
    uniforms of all T rows are drawn all the same, so every later draw
    from rng stays where it was.
    """
    obs = np.asarray(obs, dtype=float)
    masks = np.asarray(masks, dtype=bool)
    n_slots = spec.n_slots
    u = rng.random((len(obs), n_random, n_slots, 2))
    if rows is not None:
        obs, masks, u = obs[rows], masks[rows], u[rows]
    n_steps = len(obs)
    if n_slots == 0:
        return np.repeat(obs[:, None, :], max(1, n_random), axis=1)
    ang = 2.0 * math.pi * u[..., 0]
    r = epsilon * np.sqrt(u[..., 1])
    err = np.zeros((n_steps, n_random + 4 * n_slots, n_slots, 2))  # (e_l, e_v)
    err[:, :n_random, :, 0] = r * np.cos(ang)
    err[:, :n_random, :, 1] = r * np.sin(ang)
    corners = np.zeros((n_slots, 4, n_slots, 2))
    for slot in range(n_slots):
        corners[slot, :, slot] = (
            (epsilon, 0.0), (-epsilon, 0.0), (0.0, epsilon), (0.0, -epsilon)
        )
    err[:, n_random:] = corners.reshape(4 * n_slots, n_slots, 2)

    # Only present slots move, so absent slots and -0.0 features keep their bits.
    cols = np.array([spec.slot_feature_indices(s) for s in range(n_slots)]).ravel()
    scale = np.tile((spec.pos_scale, spec.speed_scale), n_slots)
    # In place, so no other array of err's size is alive beside the block
    # (err / scale + base has the bits of base + err / scale).
    base = obs[:, None, cols]
    moved = err.reshape(n_steps, err.shape[1], 2 * n_slots)
    moved /= scale
    moved += base
    np.copyto(moved, base, where=~np.repeat(masks, 2, axis=1)[:, None, :])
    out = np.repeat(obs[:, None, :], moved.shape[1], axis=1)
    out[:, :, cols] = moved
    return out

