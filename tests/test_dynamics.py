"""Bicycle integration (through World.step) and the nominal inputs the
shield works out for each action (shield.nominal_control with the action
table's accel)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cavshield.dynamics import (
    ActionSpace,
    ControlInput,
    DynamicsParams,
    emergency_control,
)
from cavshield.shield import EgoView, action_table, nominal_control
from cavshield.world import Path, RoadMap, VehicleState, World


def vehicle(x=0.0, y=0.0, v=10.0, psi=0.0):
    return VehicleState(id="ego", x=x, y=y, v=v, psi=psi, connected=True)


# A straight lane c with lane l on its left and no lane on its right.
ROAD = RoadMap(
    {"c": Path([[-50.0, 0.0], [500.0, 0.0]], lane_id="c"),
     "l": Path([[-50.0, 3.5], [500.0, 3.5]], lane_id="l")},
    {"c": {"left": "l"}, "l": {"right": "c"}},
)


def maneuvers(state, params=None):
    """shield.nominal_control of state alone on ROAD, reporting lane c."""
    world = World(ROAD, [replace(state)])
    world.lane_assignment[state.id] = "c"
    return nominal_control(EgoView(world.observe(state.id), ROAD), ROAD,
                           params or PARAMS)


def nominal_input(state, action, space):
    """The shield's nominal input of action: the action table's accel and
    the steer of its maneuver."""
    _, side, accel, _ = action_table(PARAMS, space)[action]
    return ControlInput(accel, maneuvers(state)[side][3])


PARAMS = DynamicsParams()
SPACE = ActionSpace()


def world_step(state, u, dt):
    """A copy of state after one World.step of dt under input u."""
    world = World(ROAD, [replace(state)])
    world.step({state.id: u}, replace(PARAMS, dt=dt))
    return world.vehicles[state.id]


class TestBicycle:
    def test_rest_point(self):
        state = vehicle(v=0.0)
        out = world_step(state, ControlInput(0.0, 0.0), 0.1)
        assert (out.x, out.y, out.v, out.psi) == (0.0, 0.0, 0.0, 0.0)

    def test_straight_line_hand_integration(self):
        out = world_step(vehicle(v=10.0), ControlInput(0.0, 0.0), 0.1)
        assert out.x == pytest.approx(1.0)
        assert out.y == 0.0
        assert out.v == 10.0
        assert out.psi == 0.0

    def test_euler_speed_update(self):
        out = world_step(vehicle(v=10.0), ControlInput(2.0, 0.0), 0.1)
        assert out.v == pytest.approx(10.2)

    def test_speed_saturates_at_standstill(self):
        out = world_step(vehicle(v=0.1), ControlInput(-6.0, 0.0), 0.1)
        assert out.v == 0.0

    def test_position_conserved_at_rest_under_braking(self):
        state = vehicle(v=0.0, x=3.0, y=-1.0)
        out = world_step(state, ControlInput(-3.0, 0.2), 0.05)
        assert (out.x, out.y) == (3.0, -1.0)

    def test_zero_steer_keeps_heading_frame_lateral(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            psi = rng.uniform(-math.pi, math.pi)
            state = vehicle(x=rng.uniform(-5, 5), y=rng.uniform(-5, 5),
                            v=rng.uniform(0, 15), psi=psi)
            out = world_step(state, ControlInput(rng.uniform(-6, 4), 0.0),
                               0.05)
            # Lateral coordinate in the heading frame is invariant.
            lat0 = -math.sin(psi) * state.x + math.cos(psi) * state.y
            lat1 = -math.sin(psi) * out.x + math.cos(psi) * out.y
            assert lat1 == pytest.approx(lat0, abs=1e-12)
            assert out.psi == pytest.approx(psi)

    def test_heading_wraps(self):
        state = vehicle(v=10.0, psi=math.pi - 1e-3)
        out = world_step(state, ControlInput(0.0, 0.5), 0.5)
        assert -math.pi < out.psi <= math.pi


class TestNominalControl:
    def test_regulation_fixed_point(self):
        u = nominal_input(vehicle(), ActionSpace.KEEP, SPACE)
        assert u.accel == pytest.approx(0.0)
        assert u.steer == pytest.approx(0.0)

    def test_brake_is_half_max_deceleration(self):
        u = nominal_input(vehicle(), ActionSpace.BRAKE, SPACE)
        assert u.accel == pytest.approx(-3.0)  # 0.5 of accel_min=-6

    def test_no_adjacent_lane(self):
        assert maneuvers(vehicle())["right"] is None

    def test_throttle_intervals_map_linearly(self):
        space = ActionSpace(k=3)
        expected = [(0.5 / 3) * 4.0, (1.5 / 3) * 4.0, (2.5 / 3) * 4.0]
        for j, exp in enumerate(expected):
            u = nominal_input(vehicle(), 4 + j, space)
            assert u.accel == pytest.approx(exp)

    def test_outputs_always_inside_admissible_box(self):
        rng = np.random.default_rng(4)
        space = ActionSpace(k=3)
        for _ in range(10000):
            state = vehicle(
                x=rng.uniform(-40, 400), y=rng.uniform(-10, 10),
                v=rng.uniform(0, 15), psi=rng.uniform(-1.0, 1.0),
            )
            action = int(rng.integers(0, space.n))
            if action == ActionSpace.RIGHT:
                action = ActionSpace.KEEP
            u = nominal_input(state, action, space)
            assert PARAMS.accel_min <= u.accel <= PARAMS.accel_max
            assert PARAMS.steer_min <= u.steer <= PARAMS.steer_max

    def test_steer_clamped_to_a_narrow_steer_range(self):
        # Under the default range no steer saturates: the pursuit steer
        # stays within atan(2 * wheelbase / lookahead), about 0.35 rad.
        narrow = replace(PARAMS, steer_min=-0.05, steer_max=0.05)
        left = vehicle(y=-1.0, psi=-0.3)
        right = vehicle(y=5.0, psi=0.3)
        assert maneuvers(left, narrow)[None][3] == 0.05
        assert maneuvers(left, narrow)["left"][3] == 0.05
        assert maneuvers(right, narrow)[None][3] == -0.05

    def test_lane_keeping_holds_center_for_200_steps(self):
        state = vehicle(v=10.0)
        for _ in range(200):
            u = nominal_input(state, ActionSpace.KEEP, SPACE)
            state = world_step(state, u, PARAMS.dt)
        assert abs(state.y) < 0.1

    def test_lane_keeping_recovers_from_offset(self):
        state = vehicle(v=10.0, y=1.0, psi=0.05)
        for _ in range(400):
            u = nominal_input(state, ActionSpace.KEEP, SPACE)
            state = world_step(state, u, PARAMS.dt)
        assert abs(state.y) < 0.15

    def test_lane_change_left_converges_to_target_lane(self):
        state = vehicle(v=10.0)
        for _ in range(200):
            u = nominal_input(state, ActionSpace.LEFT, SPACE)
            state = world_step(state, u, PARAMS.dt)
        assert state.y == pytest.approx(3.5, abs=0.3)

    def test_emergency_control(self):
        u = emergency_control(PARAMS)
        assert u.accel == PARAMS.accel_min
        assert u.steer == 0.0


class TestActionSpace:
    def test_count_and_order(self):
        space = ActionSpace(k=3)
        assert space.n == 7
        assert space.actions() == [0, 1, 2, 3, 4, 5, 6]
        assert space.name(0) == "KEEP_LANE_SPEED"
        assert space.name(3) == "BRAKE"
        assert space.throttle_interval(4) == (0.0, 1.0 / 3.0)
        assert space.throttle_interval(6) == (2.0 / 3.0, 1.0)

    def test_throttle_interval_bounds(self):
        space = ActionSpace(k=3)
        with pytest.raises(ValueError):
            space.throttle_interval(3)
        with pytest.raises(ValueError):
            space.throttle_interval(7)
