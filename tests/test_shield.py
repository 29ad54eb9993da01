"""Safety shield tests: distances, barriers, robust buffer, pseudo-car
transform, per-action verdicts, forward invariance, and the emergency
fallback."""

import copy
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest

from cavshield.dynamics import (
    ActionSpace,
    ControlInput,
    DynamicsParams,
    action_accel_bounds,
    emergency_control,
    lane_keep_steer,
    nominal_accel,
    pursuit_steer,
)
from cavshield import kernels
from cavshield import shield as shield_mod
from cavshield.harness import episode as ep
from cavshield.harness import scenario as scen
from cavshield.harness.config import Config
from cavshield.harness.evaluate import build_schedule
from cavshield.kernels import DEDUP_TOL, FEAS_TOL
from cavshield.perturb import make_constant
from cavshield.shield import (
    FRONT,
    REAR,
    ActionVerdict,
    BarrierRows,
    BarrierTarget,
    EgoView,
    ShieldConfig,
    action_table,
    agent_safe_set,
    barrier_values,
    calibrate_lipschitz_sum,
    check_action_safe,
    classify_targets,
    constraint_rows,
    follow_constraint_terms,
    lane_barrier_targets,
    pseudo_barrier_targets,
    pseudo_car_transform,
    resolve_lipschitz,
    robust_buffer,
    safety_distance_follow,
    safety_distance_lead,
    safety_shield,
)
from cavshield.world import OutOfCorridor, Observation, Path, RoadMap, VehicleState, World, build_joint_state

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
            for a, _, b in rows.rows:
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

    def test_rows_and_labels_stay_aligned(self):
        a = BarrierRows.of([(1.0, 0.5, "a0"), (2.0, 1.0, "a1"),
                            (-1.0, 1.0, "a2")])
        b = BarrierRows.of([(2.0, 1.0, "b0")])
        assert a.rows == ((1.0, 0.0, 0.5), (2.0, 0.0, 1.0), (-1.0, 0.0, 1.0))
        assert a.labels == ("a0", "a1", "a2")
        assert a.join(b) == BarrierRows(a.rows + b.rows, a.labels + b.labels)
        # Slacks at alpha = 0 are -0.5, -1, -1 (and -1 for b0): the first
        # least-slack row binds, within a set and across a join.
        assert shield_mod._binding(a, 0.0) == "a1"
        assert shield_mod._binding(a.join(b), 0.0) == "a1"
        assert shield_mod._binding(b.join(a), 0.0) == "b0"
        assert shield_mod._binding(a, 1.0) == "a2"
        assert shield_mod._binding(BarrierRows.of([]), 0.0) is None

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


# The unpatched QP, the reference of the tie-band tests.
SOLVE_QP_2D = kernels.solve_qp_2d


@pytest.fixture
def qp_calls(monkeypatch):
    """The arguments of every solve_qp_2d call the shield makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return SOLVE_QP_2D(*args)

    monkeypatch.setattr(kernels, "solve_qp_2d", counted)
    return calls


def assert_as_qp(u0x, u0y, rows, box, steer):
    """check_action_safe on (coef, b) rows equals solve_qp_2d on the same
    rows bit for bit (the safe flag, the filtered input, and the
    least-slack binding row); returns the verdict."""
    labeled = [(c, b, f"r{i}") for i, (c, b) in enumerate(rows)]
    status, ux, uy, _ = SOLVE_QP_2D(
        u0x, u0y, [(c, 0.0, b) for c, b in rows], *box, *steer)
    verdict = check_action_safe(
        ControlInput(u0x, u0y), BarrierRows.of(labeled), box,
        replace(DYN, steer_min=steer[0], steer_max=steer[1]))
    where = f"u0={u0x!r},{u0y!r} rows={rows!r} box={box!r} steer={steer!r}"
    assert verdict.safe == (status == kernels.QP_FEASIBLE), where
    if verdict.safe:
        assert verdict.u.accel.hex() == ux.hex(), where
        assert verdict.u.steer.hex() == uy.hex(), where
        u = (ux, uy)
    else:
        u = (u0x, u0y)
    assert verdict.binding == min_slack_row(
        [((c, 0.0), b, label) for c, b, label in labeled], u), where
    return verdict


def band_edge(delegated, outside, inside):
    """Adjacent floats (a, b) between outside and inside, a decided by
    check_action_safe itself and b left to the QP, where delegated(v)
    says whether the check at v called the QP."""
    assert not delegated(outside) and delegated(inside)
    a, b = outside, inside
    while math.nextafter(a, b) != b:
        mid = a + 0.5 * (b - a)
        if mid in (a, b):
            mid = math.nextafter(a, b)
        if delegated(mid):
            b = mid
        else:
            a = mid
    return a, b


class TestTieBand:
    """check_action_safe decides outside its tie band without the QP and
    still equals it bit for bit: at magnitudes of 1e3 to 1e9, where the
    band is far wider than FEAS_TOL and, at 1e9, the landing point's
    rounding comes near FEAS_TOL; and on both sides of the band's edge,
    for u0 and for a steer bound."""

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
    def test_scaled_cases_match_the_qp(self, qp_calls, scale):
        rnd = random.Random(20261020)
        seen = {"delegated": 0, "kept": 0, "moved": 0, "unsafe": 0}
        for _ in range(2000):
            (u0x, u0y), rows, (lo0, hi0), (lo1, hi1) = projection_case(rnd)
            n_calls = len(qp_calls)
            verdict = assert_as_qp(
                u0x * scale, u0y * scale, [(c, b * scale) for c, b in rows],
                (lo0 * scale, hi0 * scale), (lo1 * scale, hi1 * scale))
            if len(qp_calls) > n_calls:
                seen["delegated"] += 1
            elif not verdict.safe:
                seen["unsafe"] += 1
            elif verdict.u.accel == u0x * scale:
                seen["kept"] += 1
            else:
                seen["moved"] += 1
        assert min(seen.values()) > 50, seen

    def test_row_whose_norm_overflows(self, qp_calls):
        # coef * coef overflows to inf, so the QP normalizes the row to
        # 0 . u >= 0, which every input meets: it is no accel end.
        for u0x in (-0.5, 0.0, 0.5):
            verdict = assert_as_qp(u0x, 0.1, [(1e200, 1e200), (-1e200, 5e199)],
                                   (-1.0, 1.0), (-0.5, 0.5))
            assert verdict.safe and verdict.u.accel == u0x
        assert not qp_calls

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_band_edges_match_the_qp(self, qp_calls, scale):
        # Accel admissible in [0.25, 0.75] * scale by two barriers, box
        # [-1, 1] * scale; steer range [-0.5, 0.5] * scale.
        rows = [(2.0, 0.5 * scale), (-1.0, -0.75 * scale)]
        box = (-scale, scale)
        steer = (-0.5 * scale, 0.5 * scale)
        low = 0.25 * scale

        def delegated_at(u0x, u0y):
            n_calls = len(qp_calls)
            assert_as_qp(u0x, u0y, rows, box, steer)
            return len(qp_calls) > n_calls

        edges = [
            # u0 below the lower end: landing on it, or within the band.
            (lambda x: delegated_at(x, 0.1 * scale), -0.5 * scale, low),
            # u0 above it: kept, or within the band.
            (lambda x: delegated_at(x, 0.1 * scale), 0.5 * scale, low),
            # Landing with the steer near its lower bound.
            (lambda y: delegated_at(-0.5 * scale, y), 0.0, steer[0]),
        ]
        for delegated, outside, inside in edges:
            a, b = band_edge(delegated, outside, inside)
            for _ in range(4):
                a = math.nextafter(a, outside)
                b = math.nextafter(b, inside)
                assert not delegated(a) and delegated(b)


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
        outcome = safety_shield(joint, road, cfg, dyn, action_table(dyn, space))
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
        outcome = safety_shield(
            joint, road, CFG0, DYN, action_table(DYN, ActionSpace()))
        assert outcome.safe_sets["ego"] == ActionSpace().actions()
        assert not outcome.emergency["ego"]

    def test_empty_safe_set_substitutes_emergency_stop(self):
        # Stopped leader well inside D_SF: even BRAKE's band cannot meet
        # the barrier, so the safe set collapses.
        world, road = self.make_world(with_leader=True, gap=2.0)
        joint = build_joint_state(world, 200.0, None)
        outcome = safety_shield(
            joint, road, CFG0, DYN, action_table(DYN, ActionSpace()))
        assert outcome.safe_sets["ego"] == [ActionSpace.EMERGENCY]
        assert outcome.emergency["ego"]
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
        outcome = safety_shield(joint, road, CFG0, DYN, action_table(DYN, space))
        assert outcome.safe_sets["ego"] == [ActionSpace.BRAKE]
        rows = constraint_rows(
            v, [BarrierTarget(FRONT, target, v_f, "lead")], CFG0, DYN
        )
        for action in space.actions():
            lo, hi = action_accel_bounds(action, DYN, space)
            alphas = np.linspace(lo, hi, 1001)
            ok = np.ones_like(alphas, dtype=bool)
            for a, _, b in rows.rows:
                ok &= a * alphas >= b - 1e-9
            expected = bool(ok.any()) and action != ActionSpace.LEFT
            got = action in outcome.safe_sets["ego"]
            if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
                continue  # unavailable on the single-lane road
            assert got == expected

    def test_unavailable_lane_change_excluded(self):
        world, road = self.make_world()
        joint = build_joint_state(world, 200.0, None)
        outcome = safety_shield(
            joint, road, CFG0, DYN, action_table(DYN, ActionSpace()))
        verdicts = outcome.verdicts["ego"]
        assert verdicts[ActionSpace.LEFT].unavailable
        assert verdicts[ActionSpace.RIGHT].unavailable
        assert ActionSpace.LEFT not in outcome.safe_sets["ego"]


# The oracle of shield.nominal_control: the per-action nominal controller
# as it stood before the shield's maneuvers replaced it, with its lane
# context and its exception for a lane change at the road edge.


class NoAdjacentLane(Exception):
    """Lane-change requested at a road edge; the action is unavailable."""


@dataclass
class LaneContext:
    """Current lane centerline plus adjacent-lane centerlines (if any)."""

    current: Path
    left: Optional[Path] = None
    right: Optional[Path] = None


def lane_context(road, lane_id):
    """LaneContext of a road lane; a side is None at a road edge."""
    left = road.adjacent(lane_id, "left")
    right = road.adjacent(lane_id, "right")
    return LaneContext(
        current=road.path(lane_id),
        left=road.path(left) if left is not None else None,
        right=road.path(right) if right is not None else None,
    )


def nominal_control(state, action, lane_ctx, params, space=None):
    """Reference input for a discrete action, clamped to the admissible box:
    nominal_accel, with pure-pursuit steer toward the target lane for a lane
    change and lane-keep steer otherwise.

    Raises NoAdjacentLane when a lane change points off the road edge.
    """
    if action == ActionSpace.EMERGENCY:
        return emergency_control(params)
    if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
        target = lane_ctx.left if action == ActionSpace.LEFT else lane_ctx.right
        if target is None:
            raise NoAdjacentLane(
                f"no {'left' if action == ActionSpace.LEFT else 'right'} lane"
            )
        s, _ = target.project(state.x, state.y)
        steer = pursuit_steer(state, target, s, params)
    else:
        s, d = lane_ctx.current.project(state.x, state.y)
        steer = lane_keep_steer(state, lane_ctx.current, s, d, params)
    return params.clamp(
        ControlInput(nominal_accel(action, params, space), steer)
    )


def reference_off_input(view, road, action, dyn, space):
    """(input, whether it fell back) of action with the shield off, from
    the oracle: a lane change off the road edge takes KEEP's input."""
    ego = EgoView(view.self_obs, road)
    lane_ctx = lane_context(road, ego.lane)
    try:
        return nominal_control(ego, action, lane_ctx, dyn, space), False
    except NoAdjacentLane:
        return nominal_control(ego, ActionSpace.KEEP, lane_ctx, dyn,
                               space), True


def reference_agent_safe_set(view, road, cfg, dyn, space):
    """agent_safe_set as it was built before the action table and the
    shared projections: nominal_control per action (NoAdjacentLane marks
    an unavailable lane change) and every lane's projections made afresh
    for its barrier targets."""
    ego = EgoView(view.self_obs, road)
    ego_path, _, by_lane, pseudo = classify_targets(view, road, ego, cfg)
    lane_ctx = lane_context(road, ego.lane)

    def lane_targets(lane):
        path = road.path(lane)
        ego_s, _ = path.project(ego.x, ego.y)
        fresh = []
        for obs, _ in by_lane.get(lane, []):
            try:
                s_j, _ = path.project(*obs.world_position())
            except OutOfCorridor:
                s_j = None
            fresh.append((obs, s_j))
        return lane_barrier_targets(ego, ego_s, fresh)

    ego_s, _ = ego_path.project(ego.x, ego.y)
    current = constraint_rows(
        ego.v,
        lane_targets(ego.lane) + pseudo_barrier_targets(ego, ego_s, pseudo),
        cfg, dyn,
    )
    verdicts, controls, safe = {}, {}, []
    for action in space.actions():
        try:
            u0 = nominal_control(ego, action, lane_ctx, dyn, space)
        except NoAdjacentLane:
            verdicts[action] = ActionVerdict(safe=False, unavailable=True)
            continue
        rows = current
        if action in (ActionSpace.LEFT, ActionSpace.RIGHT):
            side = "left" if action == ActionSpace.LEFT else "right"
            rows = current.join(constraint_rows(
                ego.v, lane_targets(road.adjacent(ego.lane, side)), cfg, dyn))
        verdict = check_action_safe(
            u0, rows, action_accel_bounds(action, dyn, space), dyn)
        verdicts[action] = verdict
        if verdict.safe:
            safe.append(action)
            controls[action] = verdict.u
    emergency = not safe
    if emergency:
        safe = [ActionSpace.EMERGENCY]
        controls[ActionSpace.EMERGENCY] = emergency_control(dyn)
    return safe, verdicts, controls, emergency


def input_bits(u):
    return None if u is None else (u.accel.hex(), u.steer.hex())


def safe_set_bits(result):
    safe, verdicts, controls, emergency = result
    return (
        safe,
        {a: (v.safe, v.binding, v.unavailable, input_bits(v.u))
         for a, v in verdicts.items()},
        {a: input_bits(u) for a, u in controls.items()},
        emergency,
    )


class TestAgentSafeSetMatchesReference:
    @pytest.mark.parametrize("scenario", ["highway", "intersection"])
    def test_every_agent_step_bit_equal(self, monkeypatch, scenario):
        cfg = Config()
        space = ActionSpace(cfg.harness.action_k)
        checked = []

        def compared(view, road, shield_cfg, dyn, table):
            got = agent_safe_set(view, road, shield_cfg, dyn, table)
            want = reference_agent_safe_set(view, road, shield_cfg, dyn, space)
            assert safe_set_bits(got) == safe_set_bits(want)
            checked.append(any(v.unavailable for v in got[1].values()))
            return got

        monkeypatch.setattr(shield_mod, "agent_safe_set", compared)
        for shield_mode in ("robust", "plain"):
            for ptb in ("none", "rand", "time", "veh"):
                for seed in (0, 1):
                    spec = scen.build_scenario(scenario, mode="test", cfg=cfg)
                    spec.episode_len = 60
                    ep.run_episode(
                        spec, cfg, ep.RandomSafeTeamPolicy(),
                        schedule=build_schedule(ptb, seed, cfg, spec),
                        seed=seed, shield_mode=shield_mode, log_verdicts=False,
                    )
        assert len(checked) == 2 * 4 * 2 * 61 * len(spec.agent_ids)
        if scenario == "highway":
            assert any(checked)  # an edge lane's unavailable side


class TestOffModeMatchesReference:
    @pytest.mark.parametrize("scenario", ["highway", "intersection"])
    def test_every_control_bit_equal(self, scenario):
        # The shield-off outcome offers every action with the oracle's
        # input, and each logged control of an agent that has not crashed
        # is the oracle's input of its action, edge lane changes included.
        cfg = Config()
        space = ActionSpace(cfg.harness.action_k)
        dyn = cfg.dynamics
        spec = scen.build_scenario(scenario, mode="test", cfg=cfg)
        taken = []  # per step: {agent: (oracle input, fell back)}

        class Checked(ep.RandomSafeTeamPolicy):
            def select_actions(self, joint, outcome, rng):
                want = {
                    aid: [reference_off_input(view, spec.road, a, dyn, space)
                          for a in space.actions()]
                    for aid, view in joint.views.items()
                }
                for aid, inputs in want.items():
                    assert outcome.safe_sets[aid] == space.actions()
                    assert [input_bits(outcome.controls[aid][a])
                            for a in space.actions()] == [
                        input_bits(u) for u, _ in inputs]
                actions = super().select_actions(joint, outcome, rng)
                taken.append({aid: want[aid][a] for aid, a in actions.items()})
                return actions

        log = ep.run_episode(spec, cfg, Checked(), seed=0, shield_mode="off")
        fell_back = 0
        for rec, want in zip(log.steps, taken, strict=True):
            for aid, (u, fell) in want.items():
                if aid not in rec["crashed"]:
                    assert [x.hex() for x in rec["controls"][aid]] == list(
                        input_bits(u))
                    fell_back += fell
        assert fell_back > 0


def lane_world(ego_lane, others):
    """Three straight lanes 3.5 m apart, every vehicle a CAV, so each
    target reports its lane and RoadMap.lane_of is not needed."""
    names = ["lane0", "lane1", "lane2"]
    paths = {name: Path([[-100.0, 3.5 * i], [2000.0, 3.5 * i]], lane_id=name)
             for i, name in enumerate(names)}
    adjacency = {
        name: {"left": names[i + 1] if i < 2 else None,
               "right": names[i - 1] if i > 0 else None}
        for i, name in enumerate(names)
    }
    road = RoadMap(paths, adjacency)
    vehicles = [VehicleState(id="ego", x=50.0, y=3.5 * ego_lane, v=10.0,
                             psi=0.0, connected=True)]
    for k, (lane, x) in enumerate(others):
        vehicles.append(VehicleState(id=f"cav{k}", x=x, y=3.5 * lane, v=9.0,
                                     psi=0.0, connected=True))
    return World(road, vehicles), road


class TestProjectionCount:
    # Lane index and x of each target CAV.
    TARGETS = [(0, 20.0), (1, 80.0), (1, 10.0), (2, 65.0), (2, 30.0), (2, 95.0)]

    def count(self, monkeypatch, ego_lane):
        world, road = lane_world(ego_lane, self.TARGETS)
        view = build_joint_state(world, 500.0, None).views["ego"]
        assert len(list(view.all_targets())) == len(self.TARGETS)
        assert all(obs.lane_detect is not None for obs in view.all_targets())
        calls = []
        project = Path.project

        def counted(path, x, y, *args):
            calls.append(path.lane_id)
            return project(path, x, y, *args)

        def no_lane_of(*args):
            raise AssertionError("lane_of called")

        raised = []

        def tracer(frame, event, arg):
            if event == "exception":
                raised.append(arg[0])
            return tracer

        monkeypatch.setattr(Path, "project", counted)
        monkeypatch.setattr(RoadMap, "lane_of", no_lane_of)
        sys.settrace(tracer)
        try:
            result = agent_safe_set(view, road, CFG0, DYN,
                                    action_table(DYN, ActionSpace()))
        finally:
            sys.settrace(None)
        return calls, raised, result

    def test_middle_lane(self, monkeypatch):
        calls, raised, _ = self.count(monkeypatch, 1)
        # The ego and each target on the ego path, then the ego and that
        # lane's targets on each adjacent lane.
        assert len(calls) == 1 + 6 + (1 + 1) + (1 + 3)
        assert calls.count("lane1") == 1 + 6
        assert raised == []

    @pytest.mark.parametrize("ego_lane", [0, 2])
    def test_edge_lane(self, monkeypatch, ego_lane):
        calls, raised, (_, verdicts, _, _) = self.count(monkeypatch, ego_lane)
        # The only adjacent lane is lane1, with two targets.
        assert len(calls) == 1 + 6 + (1 + 2)
        assert calls.count("lane1") == 1 + 2
        # The side off the road edge is unavailable, found without raising.
        off = ActionSpace.RIGHT if ego_lane == 0 else ActionSpace.LEFT
        assert verdicts[off].unavailable
        assert raised == []


class TestSharedGeometry:
    """One shield step works out each shared observation's geometry once,
    lane lookups included: every observer of a step holds the same
    Observation of a vehicle."""

    @pytest.mark.parametrize("schedule", [None, make_constant(2.0, 1.0)],
                             ids=["exact", "perturbed"])
    def test_highway_step_projects_each_observation_once_per_path(
            self, monkeypatch, schedule):
        cfg = Config()
        spec = scen.build_scenario("highway", mode="test", cfg=cfg)
        world = scen.materialize(spec, np.random.default_rng(7)).world
        assert len(spec.road.lanes) == 3 and len(world.cav_ids) == 3
        joint = build_joint_state(world, cfg.world.comm_range, schedule)
        shield_cfg = resolve_lipschitz(cfg.shield, cfg.dynamics)
        table = action_table(cfg.dynamics, ActionSpace(cfg.harness.action_k))

        positions = {}  # id(obs) -> (obs, every tuple it returned)
        world_position = Observation.world_position

        def traced_position(obs):
            pos = world_position(obs)
            positions.setdefault(id(obs), (obs, []))[1].append(pos)
            return pos

        projected = Counter()  # (path, x, y) -> Path.project calls
        project = Path.project

        def traced_project(path, x, y):
            projected[(id(path), x, y)] += 1
            return project(path, x, y)

        looked_up = []
        lane_of = RoadMap.lane_of

        def traced_lane_of(road, *args):
            looked_up.append(args)
            return lane_of(road, *args)

        requests = []
        projection = Observation.projection

        def traced_projection(obs, path):
            requests.append((id(obs), id(path)))
            return projection(obs, path)

        monkeypatch.setattr(Observation, "world_position", traced_position)
        monkeypatch.setattr(Observation, "projection", traced_projection)
        monkeypatch.setattr(Path, "project", traced_project)
        monkeypatch.setattr(RoadMap, "lane_of", traced_lane_of)
        outcome = safety_shield(joint, spec.road, shield_cfg, cfg.dynamics,
                                table)
        assert len(outcome.safe_sets) == 3

        # Each observation worked its position out once: every call
        # returned the tuple of its first call.
        assert positions
        for obs, returned in positions.values():
            assert all(pos is returned[0] for pos in returned)
        # Each observation filed by lane_of (the UCVs) was looked up once,
        # through its own projections.
        lookups = Counter(id(args[3].__self__) for args in looked_up)
        assert lookups and max(lookups.values()) == 1
        # At most one Path.project per (observation, path) across all
        # agents and lane lookups, although they asked for more.
        assert projected and max(projected.values()) == 1
        assert len(requests) > len(set(requests)) >= sum(projected.values())


class TestDeferredBinding:
    """The binding label is found only when read."""

    @pytest.mark.parametrize("scenario", ["highway", "intersection"])
    def test_unlogged_episode_finds_no_binding(self, monkeypatch, scenario):
        cfg = Config()
        calls = []
        binding = shield_mod._binding
        monkeypatch.setattr(shield_mod, "_binding",
                            lambda *a: calls.append(a) or binding(*a))
        spec = scen.build_scenario(scenario, mode="test", cfg=cfg)
        spec.episode_len = 40
        for log_verdicts in (False, True):
            calls.clear()
            log = ep.run_episode(
                spec, cfg, ep.RandomSafeTeamPolicy(),
                schedule=build_schedule("veh", 1, cfg, spec), seed=1,
                log_verdicts=log_verdicts)
            assert len(log.steps) == 40
            if log_verdicts:
                assert calls  # the log reads them
            else:
                assert calls == []

    def test_verdict_equality_and_repr_read_the_binding(self):
        rows = BarrierRows.of([(1.0, 0.5, "lead"), (-1.0, -2.0, "rear")])
        u0 = ControlInput(0.0, 0.0)
        verdict = check_action_safe(u0, rows, (-1.0, 1.0), DYN)
        eager = ActionVerdict(safe=True, u=ControlInput(0.5, 0.0),
                              binding="lead")
        assert verdict == eager
        assert repr(verdict) == repr(eager) == (
            "ActionVerdict(safe=True, u=ControlInput(accel=0.5, steer=0.0), "
            "binding='lead', unavailable=False)")
        assert verdict != ActionVerdict(safe=True, u=ControlInput(0.5, 0.0),
                                        binding="rear")
        assert ActionVerdict(safe=False, unavailable=True).binding is None

    def test_kept_input_is_returned_as_is(self):
        u0 = ControlInput(0.25, 0.1)
        verdict = check_action_safe(u0, BarrierRows.of([(1.0, -1.0, "a")]),
                                    (-1.0, 1.0), DYN)
        assert verdict.safe and verdict.u is u0

    def test_target_rows_format_their_labels_on_read(self):
        targets = [BarrierTarget(FRONT, 20.0, 9.0, "a"),
                   BarrierTarget(REAR, 15.0, 11.0, "b", "pseudo")]
        rows = constraint_rows(10.0, targets, CFG0, DYN)
        assert rows._labels is None
        assert rows.labels == ("front:lane:a", "rear:pseudo:b")
        assert rows == BarrierRows(rows.rows, rows.labels)
        lane = constraint_rows(10.0, targets[:1], CFG0, DYN)
        joined = lane.join(constraint_rows(10.0, targets[1:], CFG0, DYN))
        assert joined._labels is None and lane._labels is None
        assert joined == rows
        assert lane._labels == ("front:lane:a",)  # formatted once, kept
        assert joined.lower == rows.lower and joined.upper == rows.upper
        mixed = lane.join(BarrierRows.of([(1.0, 0.0, "x")]))
        assert mixed.labels == ("front:lane:a", "x")
