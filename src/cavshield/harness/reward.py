"""Shared team reward.

r_i = sum_j mu_v ||v_j|| - sum_j mu_l ||l_j - d_j|| + sum_j mu_s r^s_j
with j over the agents, all three weights 1/|N|, evaluated on ground
truth.  With equal weights every agent receives the identical value.
The distance term is a penalty: rewarding raw distance-to-destination
would pay agents for driving away.
"""

import math


def step_reward(world, destinations, new_collisions, outcome, crashed_before,
                p_col, p_sas):
    """Per-agent reward for the transition that just happened.

    A vehicle stops accruing speed/distance terms once it has collided;
    the collision penalty lands exactly once, on the step the pair first
    overlaps.  Safety feedback (p_sas per emergency stop) comes from the
    shield outcome for the post-step state, per the rollout loop's ordering.
    """
    agents = world.cav_ids
    if not agents:
        return {}
    mu = 1.0 / len(agents)
    newly_collided = {vid for pair in new_collisions for vid in pair}

    total = 0.0
    for vid in agents:
        veh = world.vehicles[vid]
        if vid in crashed_before:
            continue
        if vid in newly_collided:
            total += mu * p_col
            continue
        total += mu * veh.v
        dx = veh.x - destinations[vid][0]
        dy = veh.y - destinations[vid][1]
        total -= mu * math.sqrt(dx * dx + dy * dy)
        total += mu * (p_sas if outcome.emergency.get(vid) else 0.0)
    return {aid: total for aid in agents}
