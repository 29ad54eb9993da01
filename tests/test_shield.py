"""Safety shield tests: distances, barriers, robust buffer, pseudo-car
transform, per-action verdicts, forward invariance, and the emergency
fallback."""

import copy
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from cavshield.dynamics import (
    ActionSpace,
    ControlInput,
    DynamicsParams,
    action_accel_bounds,
    emergency_control,
    step_bicycle,
)
from cavshield import kernels
from cavshield.kernels import DEDUP_TOL, FEAS_TOL
from cavshield.perturb import make_constant
from cavshield.shield import (
    FRONT,
    REAR,
    ActionVerdict,
    BarrierRows,
    BarrierTarget,
    ShieldConfig,
    barrier_values,
    calibrate_lipschitz_sum,
    check_action_safe,
    constraint_rows,
    follow_constraint_terms,
    pseudo_car_transform,
    resolve_lipschitz,
    robust_buffer,
    safety_distance_follow,
    safety_distance_lead,
    safety_shield,
)
from cavshield.world import Path, RoadMap, VehicleState, World, build_joint_state

DYN = DynamicsParams()  # accel in [-6, 4] -> max_brake = 6
CFG0 = ShieldConfig(c1=1.0, c2=1.0, c3=2.0, gamma_cbf=1.0, epsilon=0.0,
                    lipschitz_sum=0.0)


def ego(v=10.0, x=0.0, y=0.0, psi=0.0):
    return VehicleState(id="ego", x=x, y=y, v=v, psi=psi, connected=True)


class TestSafetyDistances:
    def test_standstill_reduces_to_margin(self):
        assert safety_distance_follow(0.0, 0.0, CFG0, DYN) == pytest.approx(2.0)
        assert safety_distance_lead(0.0, 0.0, CFG0, DYN) == pytest.approx(2.0)

    def test_equal_speeds_cancel_braking_terms(self):
        assert safety_distance_follow(10.0, 10.0, CFG0, DYN) == pytest.approx(12.0)
        assert safety_distance_lead(10.0, 10.0, CFG0, DYN) == pytest.approx(12.0)

    def test_hand_evaluation_follow(self):
        # 1*10 + (100 - 0) / (2*6) + 2
        assert safety_distance_follow(10.0, 0.0, CFG0, DYN) == pytest.approx(
            10.0 + 100.0 / 12.0 + 2.0
        )

    def test_hand_evaluation_lead(self):
        # 1*8 + (64 - 144) / 12 + 2
        assert safety_distance_lead(12.0, 8.0, CFG0, DYN) == pytest.approx(
            8.0 + (64.0 - 144.0) / 12.0 + 2.0
        )

    def test_no_clamping_when_leader_faster(self):
        d = safety_distance_follow(2.0, 14.0, CFG0, DYN)
        assert d < CFG0.c3


class TestBarriers:
    def test_front_barrier(self):
        h = barrier_values(
            ego(10.0), [BarrierTarget(FRONT, 30.0, 10.0, "f")], CFG0, DYN
        )
        assert h == [pytest.approx(18.0)]

    def test_boundary_of_safe_set(self):
        gap = safety_distance_follow(10.0, 10.0, CFG0, DYN)
        h = barrier_values(
            ego(10.0), [BarrierTarget(FRONT, gap, 10.0, "f")], CFG0, DYN
        )
        assert h == [pytest.approx(0.0)]

    def test_rear_barrier(self):
        h = barrier_values(
            ego(12.0), [BarrierTarget(REAR, 10.0, 8.0, "r")], CFG0, DYN
        )
        assert h == [pytest.approx(10.0 - (8.0 + (64.0 - 144.0) / 12.0 + 2.0))]


class TestRobustBuffer:
    def test_zero_perturbation_recovers_plain_shield(self):
        assert robust_buffer(CFG0) == 0.0

    def test_product(self):
        cfg = replace(CFG0, epsilon=2.0, lipschitz_sum=1.5)
        assert robust_buffer(cfg) == pytest.approx(3.0)

    def test_linear_in_epsilon(self):
        cfg1 = replace(CFG0, epsilon=1.0, lipschitz_sum=2.0)
        cfg2 = replace(CFG0, epsilon=2.0, lipschitz_sum=2.0)
        assert robust_buffer(cfg2) == pytest.approx(2.0 * robust_buffer(cfg1))

    def test_unresolved_raises(self):
        with pytest.raises(ValueError):
            robust_buffer(ShieldConfig())

    def test_calibration_covers_analytic_gradient(self):
        cfg = replace(CFG0, epsilon=2.0, lipschitz_sum=None)
        lip = calibrate_lipschitz_sum(cfg, DYN, n_samples=20000, seed=1)
        # Largest analytic gradient of either constraint's left side:
        # sqrt(gamma^2 + (1 + gamma*(c1 + c2 v/b))^2), with perturbed
        # speeds reaching v_max + epsilon.
        v = cfg.v_max + cfg.epsilon
        g_follow = math.hypot(1.0, 1.0 + v / DYN.max_brake)
        g_lead = math.hypot(1.0, 1.0 + 1.0 + v / DYN.max_brake)
        worst = max(g_follow, g_lead)
        assert lip <= 1.5 * worst + 1e-6
        v0 = cfg.v_max
        floor = max(
            math.hypot(1.0, 1.0 + v0 / DYN.max_brake),
            math.hypot(1.0, 2.0 + v0 / DYN.max_brake),
        )
        assert lip >= 1.2 * floor  # sampling should get close to the max

    def test_resolve_fills_default(self):
        cfg = resolve_lipschitz(ShieldConfig(epsilon=2.0), DYN)
        assert cfg.lipschitz_sum > 0

    def test_audit_runs_once_per_config(self):
        from cavshield import shield

        audit = shield._lipschitz_audit
        audit.cache_clear()
        first = resolve_lipschitz(ShieldConfig(epsilon=2.0), DYN)
        again = resolve_lipschitz(ShieldConfig(epsilon=2.0), DynamicsParams())
        assert audit.cache_info().misses == 1
        assert audit.cache_info().hits == 1
        assert first.lipschitz_sum.hex() == again.lipschitz_sum.hex()
        # The memo returns what a fresh audit computes.
        fresh = audit.__wrapped__(
            10000, 0, 1.5, *shield._field_values(ShieldConfig(epsilon=2.0)),
            *shield._field_values(DYN),
        )
        assert fresh.hex() == first.lipschitz_sum.hex()

        other = resolve_lipschitz(ShieldConfig(epsilon=1.0), DYN)
        assert audit.cache_info().misses == 2
        assert other.lipschitz_sum != first.lipschitz_sum


def straight_path():
    return Path([[0.0, 0.0], [200.0, 0.0]], lane_id="ego-lane")


class TestPseudoCar:
    def test_target_at_conflict_point(self):
        pc = pseudo_car_transform(
            straight_path(), 0.0, (35.0, 0.0), -math.pi / 2, 10.0, CFG0
        )
        assert pc is not None
        assert pc.s == pytest.approx(35.0)

    def test_arclength_bookkeeping(self):
        # Conflict at s=35, target 20 m before it, driving at 10 toward it.
        pc = pseudo_car_transform(
            straight_path(), 0.0, (35.0, 20.0), -math.pi / 2, 10.0, CFG0
        )
        assert pc is not None
        assert pc.s == pytest.approx(15.0)
        assert pc.v == pytest.approx(10.0)

    def test_passed_and_receding_filtered(self):
        pc = pseudo_car_transform(
            straight_path(), 0.0, (35.0, -5.0), -math.pi / 2, 10.0, CFG0
        )
        assert pc is None

    def test_no_conflict_within_horizon(self):
        pc = pseudo_car_transform(
            straight_path(), 0.0, (100.0, 20.0), -math.pi / 2, 10.0, CFG0
        )
        assert pc is None  # conflict at s=100 > horizon 60

    def test_conflict_behind_ego_ignored(self):
        pc = pseudo_car_transform(
            straight_path(), 50.0, (35.0, 20.0), -math.pi / 2, 10.0, CFG0
        )
        assert pc is None

    def test_parallel_target_has_no_conflict(self):
        pc = pseudo_car_transform(
            straight_path(), 0.0, (35.0, 5.0), 0.0, 10.0, CFG0
        )
        assert pc is None


def front_targets(gap, v_f):
    return [BarrierTarget(FRONT, gap, v_f, "lead")]


class TestCheckActionSafe:
    def test_far_leader_leaves_nominal_untouched(self):
        u0 = ControlInput(0.0, 0.0)
        verdict = check_action_safe(
            u0, constraint_rows(10.0, front_targets(62.0, 10.0), CFG0, DYN),
            action_accel_bounds(ActionSpace.KEEP, DYN), DYN,
        )
        assert verdict.safe
        assert verdict.u.accel == pytest.approx(0.0)
        assert verdict.u.steer == pytest.approx(0.0)

    def test_buffer_monotonicity_never_flips_to_safe(self):
        # Adding A only tightens: safe at eps=2 implies safe at eps=0.
        rng = np.random.default_rng(12)
        cfg0 = replace(CFG0, epsilon=0.0, lipschitz_sum=3.0)
        cfg2 = replace(CFG0, epsilon=2.0, lipschitz_sum=3.0)
        space = ActionSpace()
        for _ in range(500):
            v = rng.uniform(0.0, 15.0)
            gap = rng.uniform(-5.0, 40.0)
            v_f = rng.uniform(0.0, 15.0)
            action = int(rng.integers(0, space.n))
            if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
                action = ActionSpace.KEEP
            bounds = action_accel_bounds(action, DYN, space)
            u0 = ControlInput(0.5 * (bounds[0] + bounds[1]), 0.0)
            safe0 = check_action_safe(
                u0, constraint_rows(v, front_targets(gap, v_f), cfg0, DYN),
                bounds, DYN,
            ).safe
            safe2 = check_action_safe(
                u0, constraint_rows(v, front_targets(gap, v_f), cfg2, DYN),
                bounds, DYN,
            ).safe
            if safe2:
                assert safe0

    def test_throttle_unsafe_when_required_decel_below_band(self):
        # Gap far below D_SF: required accel is negative, outside every
        # throttle band, so throttle-max is unsafe while BRAKE may pass.
        v, v_f = 10.0, 10.0
        gap = 4.0  # D_SF = 12 -> h = -8
        coef, const = follow_constraint_terms(v, v_f, gap, CFG0, DYN)
        space = ActionSpace()
        throttle_max = space.n - 1
        required = const / -coef  # accel must be <= this
        assert required < action_accel_bounds(throttle_max, DYN, space)[0]
        rows = constraint_rows(v, front_targets(gap, v_f), CFG0, DYN)
        verdict = check_action_safe(
            ControlInput(10.0 / 3.0, 0.0), rows,
            action_accel_bounds(throttle_max, DYN, space), DYN,
        )
        assert not verdict.safe
        brake = check_action_safe(
            ControlInput(-3.0, 0.0), rows,
            action_accel_bounds(ActionSpace.BRAKE, DYN, space), DYN,
        )
        assert brake.safe

    def test_verdict_matches_per_action_grid_oracle(self):
        # Dense alpha sweep over each action band as an independent check.
        rng = np.random.default_rng(77)
        space = ActionSpace()
        cfg = replace(CFG0, epsilon=1.0, lipschitz_sum=2.0)
        for _ in range(300):
            v = rng.uniform(0.0, 15.0)
            targets = [
                BarrierTarget(FRONT, rng.uniform(-5.0, 50.0), rng.uniform(0, 15), "f"),
                BarrierTarget(REAR, rng.uniform(-5.0, 50.0), rng.uniform(0, 15), "r"),
            ]
            action = int(rng.integers(0, space.n))
            if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
                action = ActionSpace.KEEP
            lo, hi = action_accel_bounds(action, DYN, space)
            rows = constraint_rows(v, targets, cfg, DYN)
            verdict = check_action_safe(
                ControlInput(0.5 * (lo + hi), 0.0), rows, (lo, hi), DYN
            )
            alphas = np.linspace(lo, hi, 2001)
            ok = np.ones_like(alphas, dtype=bool)
            for a, b, _ in rows.labeled:
                ok &= a * alphas >= b - 1e-9
            assert verdict.safe == bool(ok.any())


def min_slack_row(rows, u):
    """The binding rule of the 2-D QP path: label of the row (a, b, label)
    with least a.u - b, the first row on a tie."""
    if not rows:
        return None
    return min(rows, key=lambda r: r[0][0] * u[0] + r[0][1] * u[1] - r[1])[2]


# Offsets of a row's edge: none, inside and outside DEDUP_TOL and FEAS_TOL.
SHIFTS = [0.0, 0.5 * DEDUP_TOL, -0.5 * DEDUP_TOL, 2 * DEDUP_TOL,
          0.5 * FEAS_TOL, -0.5 * FEAS_TOL, 2 * FEAS_TOL]


def projection_case(rnd):
    """Shield-shaped rows (coef, b) in front of edge cases of the QP's
    tolerances: zero and sub-DEDUP_TOL coefficients, rows within DEDUP_TOL
    or FEAS_TOL of each other or of the accel box, steer on or one ulp
    inside its bounds or -0.0, u0 on a band edge."""
    lo0, hi0 = rnd.choice([(-1.0, 1.0), (-3.0, 0.0), (0.0, 4.0 / 3.0),
                           (4.0 / 3.0, 8.0 / 3.0), (8.0 / 3.0, 4.0),
                           (-6.0, 4.0), (0.5, 0.5)])
    lo1, hi1 = rnd.choice([(-0.5, 0.5), (-0.5, 0.5), (-0.25, 0.75)])
    u0x = rnd.choice([
        rnd.uniform(lo0, hi0), rnd.uniform(lo0 - 3.0, hi0 + 3.0), lo0, hi0,
        math.nextafter(lo0, hi0), 0.5 * (lo0 + hi0), 0.0, -0.0,
    ])
    u0y = rnd.choice([
        rnd.uniform(lo1, hi1), lo1, hi1, math.nextafter(lo1, 0.0),
        math.nextafter(hi1, 0.0), -0.0, 0.0, -0.0,
        rnd.uniform(lo1 - 0.3, hi1 + 0.3),
    ])
    rows = []
    for _ in range(rnd.randint(0, 6)):
        kind = rnd.random()
        if rows and kind < 0.25:
            # Near an earlier row: an exact copy, a rescaled copy, or one
            # whose edge moved by less than DEDUP_TOL or FEAS_TOL.
            coef, b = rnd.choice(rows)
            scale = rnd.choice([1.0, 1.0, 2.0, 0.5])
            shift = rnd.choice(SHIFTS)
            rows.append((coef * scale, (b + shift * abs(coef)) * scale))
            continue
        if kind < 0.35:
            # Along an accel box edge, inside or just outside the tolerances.
            sign = rnd.choice([1.0, -1.0])
            coef = sign * rnd.choice([1.0, 0.7, 3.0])
            edge = lo0 if sign > 0 else hi0
            shift = rnd.choice(SHIFTS)
            rows.append((coef, coef * (edge + shift)))
            continue
        if kind < 0.45:
            # No accel direction: the lead barrier at v = 0, or a coefficient
            # below DEDUP_TOL; b on either side of FEAS_TOL.
            coef = rnd.choice([0.0, -0.0, 0.3 * DEDUP_TOL, -0.7 * DEDUP_TOL,
                               2 * DEDUP_TOL])
            b = rnd.choice([0.0, FEAS_TOL, FEAS_TOL * (1 + 1e-6),
                            FEAS_TOL * (1 - 1e-6), -1.0, 1.0])
            rows.append((coef, b))
            continue
        # Follow (negative coef) or lead (non-negative coef) barrier whose
        # edge lands in or near the box.
        if rnd.random() < 0.5:
            coef = -(1.0 + rnd.uniform(0.0, 15.0) / 6.0)
        else:
            coef = rnd.uniform(0.0, 15.0) / 6.0
        rows.append((coef, coef * rnd.uniform(lo0 - 2.0, hi0 + 2.0)))
    return (u0x, u0y), rows, (lo0, hi0), (lo1, hi1)


class TestAccelProjectionMatchesQp:
    """check_action_safe against kernels.solve_qp_2d called on the same
    rows, bit for bit: the safe flag, the filtered input, and the binding
    label of the least-slack row."""

    N_CASES = 30000

    def test_bit_identical_to_solve_qp_2d(self):
        rnd = random.Random(20261018)
        seen = {"safe": 0, "unsafe": 0, "moved": 0, "blocked": 0,
                "signed_zero_steer": 0, "corner": 0}
        for case in range(self.N_CASES):
            (u0x, u0y), rows, (lo0, hi0), (lo1, hi1) = projection_case(rnd)
            labeled = [(c, b, f"r{i}") for i, (c, b) in enumerate(rows)]
            rows2d = [((c, 0.0), b, label) for c, b, label in labeled]
            status, ux, uy, _ = kernels.solve_qp_2d(
                u0x, u0y, [(c, 0.0, b) for c, b in rows], lo0, hi0, lo1, hi1
            )
            dyn = replace(DYN, steer_min=lo1, steer_max=hi1)
            rows1d = BarrierRows.of(labeled)
            verdict = check_action_safe(
                ControlInput(u0x, u0y), rows1d, (lo0, hi0), dyn
            )
            where = (f"case {case}: u0={u0x!r},{u0y!r} rows={rows!r} "
                     f"box={(lo0, hi0, lo1, hi1)!r}")
            assert verdict.safe == (status == kernels.QP_FEASIBLE), where
            if verdict.safe:
                assert verdict.u.accel.hex() == ux.hex(), where
                assert verdict.u.steer.hex() == uy.hex(), where
                u = (ux, uy)
            else:
                u = (u0x, u0y)
            assert verdict.binding == min_slack_row(rows2d, u), where
            seen["safe" if verdict.safe else "unsafe"] += 1
            seen["blocked"] += any(abs(c) < DEDUP_TOL and b > FEAS_TOL
                                   for c, b in rows)
            if verdict.safe and (ux, uy) != (u0x, u0y):
                seen["moved"] += 1
                seen["signed_zero_steer"] += uy.hex() != u0y.hex()
                seen["corner"] += uy != u0y
        # The sample reaches every branch it is meant to cover.
        assert min(seen.values()) > 50, seen

    def test_steer_passes_through_as_the_qp_returns_it(self):
        # The projection lands at u0y + t * 0.0: a -0.0 steer comes back
        # as +0.0 when the accel moves up, and stays -0.0 when u0 is kept.
        rows = BarrierRows.of([(1.0, 0.5, "lead")])
        moved = check_action_safe(ControlInput(0.0, -0.0), rows, (-1.0, 1.0),
                                  DYN)
        assert moved.safe and moved.u.accel == 0.5
        assert math.copysign(1.0, moved.u.steer) == 1.0
        kept = check_action_safe(ControlInput(0.7, -0.0), rows, (-1.0, 1.0),
                                 DYN)
        assert kept.u.accel == 0.7 and math.copysign(1.0, kept.u.steer) == -1.0

    def test_row_without_direction(self):
        # |coef| < DEDUP_TOL: a constant row, failing every action when
        # b > FEAS_TOL, and binding at the nominal input then.
        for coef in (0.0, 5e-13):
            u0 = ControlInput(0.0, 0.0)
            assert check_action_safe(
                u0, BarrierRows.of([(coef, 2 * FEAS_TOL, "z")]), (-1.0, 1.0), DYN
            ) == ActionVerdict(safe=False, binding="z")
            ok = check_action_safe(
                u0, BarrierRows.of([(coef, FEAS_TOL, "z")]), (-1.0, 1.0), DYN
            )
            assert ok.safe and ok.binding == "z"

    def test_invalid_input_rejected(self):
        # The checks QpProblem.validate made on every per-action QP.
        with pytest.raises(ValueError, match="not finite"):
            BarrierRows.of([(math.nan, 0.0, "x")])
        with pytest.raises(ValueError, match="not finite"):
            check_action_safe(ControlInput(math.inf, 0.0), BarrierRows.of([]),
                              (-1.0, 1.0), DYN)
        # DynamicsParams rejects steer_min > steer_max, so build that box
        # past its checks; check_action_safe must still refuse it.
        bad_steer = copy.copy(DYN)
        bad_steer.steer_min = 0.6
        for bounds, dyn in (((1.0, -1.0), DYN), ((math.nan, 1.0), DYN),
                            ((-1.0, 1.0), bad_steer)):
            with pytest.raises(ValueError, match="empty input box"):
                check_action_safe(ControlInput(0.0, 0.0), BarrierRows.of([]),
                                  bounds, dyn)


def follower_leader_world(gap, v_ego, v_lead):
    path = Path([[-100.0, 0.0], [2000.0, 0.0]], lane_id="lane0")
    road = RoadMap({"lane0": path}, {"lane0": {}})
    vehicles = [
        VehicleState(id="ego", x=0.0, y=0.0, v=v_ego, psi=0.0, connected=True),
        VehicleState(id="lead", x=gap + 4.5, y=0.0, v=v_lead, psi=0.0),
    ]
    return World(road, vehicles)


def run_follower_episode(world, cfg, dyn, schedule, steps, policy_rng,
                         leader_speed):
    """Shield-filtered random policy for the ego; constant-speed leader.

    Returns the smallest true h_f seen and whether a collision happened.
    """
    from cavshield.dynamics import speed_tracking_control

    space = ActionSpace()
    road = world.road
    min_h = math.inf
    collided = False
    for _ in range(steps):
        joint = build_joint_state(world, 200.0, schedule)
        outcome = safety_shield(joint, road, cfg, dyn, space)
        safe = outcome.safe_sets["ego"]
        action = int(safe[policy_rng.integers(0, len(safe))])
        if action == ActionSpace.EMERGENCY:
            u = emergency_control(dyn)
        else:
            u = outcome.controls["ego"][action]
        lead = world.vehicles["lead"]
        controls = {
            "ego": u,
            "lead": speed_tracking_control(lead, leader_speed, road.path("lane0"), dyn),
        }
        new = world.step(controls, dyn)
        collided |= bool(new)
        egov = world.vehicles["ego"]
        leadv = world.vehicles["lead"]
        gap = (leadv.x - egov.x) - 0.5 * (egov.length + leadv.length)
        h_f = gap - safety_distance_follow(egov.v, leadv.v, CFG0, DYN)
        min_h = min(min_h, h_f)
        if collided:
            break
    return min_h, collided


class TestForwardInvariance:
    def test_exact_observations_keep_barrier_nonnegative(self):
        rng = np.random.default_rng(2024)
        cfg = replace(CFG0, epsilon=0.0, lipschitz_sum=0.0)
        for _ in range(30):
            v_ego = rng.uniform(4.0, 14.0)
            v_lead = rng.uniform(2.0, 12.0)
            gap = safety_distance_follow(v_ego, v_lead, CFG0, DYN) + rng.uniform(0.5, 25.0)
            world = follower_leader_world(gap, v_ego, v_lead)
            min_h, collided = run_follower_episode(
                world, cfg, DYN, None, 200, rng, v_lead
            )
            assert not collided
            assert min_h >= 0.0

    def test_robust_shield_tolerates_bounded_error(self):
        rng = np.random.default_rng(4048)
        base = resolve_lipschitz(replace(CFG0, epsilon=2.0, lipschitz_sum=None), DYN)
        for _ in range(20):
            v_ego = rng.uniform(4.0, 14.0)
            v_lead = rng.uniform(2.0, 12.0)
            gap = safety_distance_follow(v_ego, v_lead, CFG0, DYN) + rng.uniform(3.0, 25.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            schedule = make_constant(2.0 * math.cos(ang), 2.0 * math.sin(ang))
            world = follower_leader_world(gap, v_ego, v_lead)
            min_h, collided = run_follower_episode(
                world, base, DYN, schedule, 200, rng, v_lead
            )
            assert not collided
            assert min_h >= 0.0


class TestSafetyShield:
    def make_world(self, with_leader=False, gap=10.0, lanes=1):
        names = [f"lane{i}" for i in range(lanes)]
        paths = {
            name: Path([[-100.0, 3.5 * i], [2000.0, 3.5 * i]], lane_id=name)
            for i, name in enumerate(names)
        }
        adjacency = {}
        for i, name in enumerate(names):
            adjacency[name] = {
                "left": names[i + 1] if i + 1 < lanes else None,
                "right": names[i - 1] if i > 0 else None,
            }
        road = RoadMap(paths, adjacency)
        vehicles = [VehicleState(id="ego", x=0.0, y=3.5 * (lanes // 2),
                                 v=10.0, psi=0.0, connected=True)]
        if with_leader:
            vehicles.append(
                VehicleState(id="lead", x=gap + 4.5, y=0.0, v=0.0, psi=0.0)
            )
        return World(road, vehicles), road

    def test_open_road_full_safe_set(self):
        world, road = self.make_world(lanes=3)  # middle lane: all 7 actions
        joint = build_joint_state(world, 200.0, None)
        outcome = safety_shield(joint, road, CFG0, DYN, ActionSpace())
        assert outcome.safe_sets["ego"] == ActionSpace().actions()
        assert not outcome.emergency["ego"]
        assert outcome.safety_reward["ego"] == 0.0

    def test_empty_safe_set_substitutes_emergency_stop(self):
        # Stopped leader well inside D_SF: even BRAKE's band cannot meet
        # the barrier, so the safe set collapses.
        world, road = self.make_world(with_leader=True, gap=2.0)
        joint = build_joint_state(world, 200.0, None)
        outcome = safety_shield(joint, road, CFG0, DYN, ActionSpace())
        assert outcome.safe_sets["ego"] == [ActionSpace.EMERGENCY]
        assert outcome.emergency["ego"]
        assert outcome.safety_reward["ego"] == CFG0.p_sas
        u = outcome.controls["ego"][ActionSpace.EMERGENCY]
        assert u.accel == DYN.accel_min
        assert u.steer == 0.0

    def test_marginal_gap_leaves_singleton_brake(self):
        # Required accel in (-3, -1): outside the hold band and every
        # throttle interval, inside BRAKE's band only.  Checked against a
        # per-action alpha sweep.
        space = ActionSpace()
        v, v_f = 10.0, 10.0
        target = None
        for gap in np.arange(4.0, 12.0, 0.05):
            coef, const = follow_constraint_terms(v, v_f, gap, CFG0, DYN)
            required = const / -coef
            if -2.5 < required < -1.2:
                target = gap
                break
        assert target is not None
        world, road = self.make_world(with_leader=True, gap=target)
        world.vehicles["ego"].v = v
        world.vehicles["lead"].v = v_f
        joint = build_joint_state(world, 200.0, None)
        outcome = safety_shield(joint, road, CFG0, DYN, space)
        assert outcome.safe_sets["ego"] == [ActionSpace.BRAKE]
        rows = constraint_rows(
            v, [BarrierTarget(FRONT, target, v_f, "lead")], CFG0, DYN
        )
        for action in space.actions():
            lo, hi = action_accel_bounds(action, DYN, space)
            alphas = np.linspace(lo, hi, 1001)
            ok = np.ones_like(alphas, dtype=bool)
            for a, b, _ in rows.labeled:
                ok &= a * alphas >= b - 1e-9
            expected = bool(ok.any()) and action != ActionSpace.LEFT
            got = action in outcome.safe_sets["ego"]
            if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
                continue  # unavailable on the single-lane road
            assert got == expected

    def test_unavailable_lane_change_excluded(self):
        world, road = self.make_world()
        joint = build_joint_state(world, 200.0, None)
        outcome = safety_shield(joint, road, CFG0, DYN, ActionSpace())
        verdicts = outcome.verdicts["ego"]
        assert verdicts[ActionSpace.LEFT].unavailable
        assert verdicts[ActionSpace.RIGHT].unavailable
        assert ActionSpace.LEFT not in outcome.safe_sets["ego"]
