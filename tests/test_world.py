"""World-core tests: path projection, SAT collision detection against a
point-sampling oracle, and joint-state assembly under perturbation."""

import math

import numpy as np
import pytest

from cavshield.perturb import identity_schedule, make_constant, make_rand
from cavshield.world import (
    Observation,
    OutOfCorridor,
    Path,
    RoadMap,
    VehicleState,
    World,
    build_joint_state,
    detect_collisions,
)


def straight_x(y=0.0, x0=-50.0, x1=500.0, lane_id="lane"):
    return Path([[x0, y], [x1, y]], lane_id=lane_id)


def vehicle(vid, x, y, v=10.0, psi=0.0, connected=False, length=4.5, width=2.0):
    return VehicleState(id=vid, x=x, y=y, v=v, psi=psi, length=length,
                        width=width, connected=connected)


class TestPath:
    def test_on_path_origin(self):
        path = Path([[0.0, 0.0], [100.0, 0.0]])
        s, d = path.project(0.0, 0.0)
        assert s == 0.0
        assert d == 0.0

    def test_straight_projection_hand_geometry(self):
        path = Path([[0.0, 0.0], [100.0, 0.0]])
        veh = vehicle("a", 10.0, 2.0)
        s, d = path.project(veh.x, veh.y)
        assert s == pytest.approx(10.0)
        assert d == pytest.approx(+2.0)  # left of +X travel is +Y

    def test_out_of_corridor(self):
        path = Path([[0.0, 0.0], [100.0, 0.0]])
        with pytest.raises(OutOfCorridor):
            path.project(50.0, 60.0)

    def test_right_side_is_negative(self):
        path = Path([[0.0, 0.0], [100.0, 0.0]])
        _, d = path.project(10.0, -1.5)
        assert d == pytest.approx(-1.5)

    def test_polyline_arclength(self):
        path = Path([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
        assert path.length == pytest.approx(20.0)
        s, d = path.project(10.0, 5.0)
        assert s == pytest.approx(15.0)
        assert d == pytest.approx(0.0)
        x, y = path.point_at(15.0)
        assert (x, y) == pytest.approx((10.0, 5.0))
        assert path.heading_at(15.0) == pytest.approx(math.pi / 2)

    def test_duplicate_waypoints_rejected(self):
        with pytest.raises(ValueError):
            Path([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])


def sampling_oracle(a, b, pitch=0.02):
    """Dense point grid inside each rectangle tested against the other."""

    def corners_to_frame(veh):
        c, s = math.cos(veh.psi), math.sin(veh.psi)
        return c, s

    def points_inside(veh):
        c, s = corners_to_frame(veh)
        xs = np.arange(-veh.length / 2, veh.length / 2 + pitch / 2, pitch)
        ys = np.arange(-veh.width / 2, veh.width / 2 + pitch / 2, pitch)
        gx, gy = np.meshgrid(xs, ys)
        px = veh.x + c * gx - s * gy
        py = veh.y + s * gx + c * gy
        return np.column_stack([px.ravel(), py.ravel()])

    def contains(veh, pts):
        c, s = corners_to_frame(veh)
        rx = c * (pts[:, 0] - veh.x) + s * (pts[:, 1] - veh.y)
        ry = -s * (pts[:, 0] - veh.x) + c * (pts[:, 1] - veh.y)
        return np.any(
            (np.abs(rx) <= veh.length / 2) & (np.abs(ry) <= veh.width / 2)
        )

    return contains(b, points_inside(a)) or contains(a, points_inside(b))


class TestCollisions:
    def test_full_overlap(self):
        a = vehicle("a", 0.0, 0.0)
        b = vehicle("b", 0.0, 0.0)
        assert detect_collisions([a, b]) == {("a", "b")}

    def test_disjoint(self):
        a = vehicle("a", 0.0, 0.0)
        b = vehicle("b", 100.0, 0.0)
        assert detect_collisions([a, b]) == set()

    def test_longitudinal_near_touch(self):
        # 4 m long vehicles, centers 3.9 m apart: half-lengths overlap.
        a = vehicle("a", 0.0, 0.0, length=4.0)
        b = vehicle("b", 3.9, 0.0, length=4.0)
        assert detect_collisions([a, b]) == {("a", "b")}
        c = vehicle("c", 4.1, 0.0, length=4.0)
        assert detect_collisions([a, c]) == set()

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = vehicle("a", *rng.uniform(-5, 5, 2), psi=rng.uniform(-3, 3))
            b = vehicle("b", *rng.uniform(-5, 5, 2), psi=rng.uniform(-3, 3))
            assert detect_collisions([a, b]) == detect_collisions([b, a])

    def test_against_point_sampling_oracle(self):
        rng = np.random.default_rng(2)
        disagreements = 0
        for _ in range(1000):
            a = vehicle("a", *rng.uniform(-4, 4, 2), psi=rng.uniform(-math.pi, math.pi))
            b = vehicle("b", *rng.uniform(-4, 4, 2), psi=rng.uniform(-math.pi, math.pi))
            sat = bool(detect_collisions([a, b]))
            oracle = sampling_oracle(a, b)
            if sat != oracle:
                # A sampling oracle cannot see overlaps thinner than its
                # pitch; SAT claiming overlap there is not a disagreement.
                assert sat and not oracle
                disagreements += 1
        # Knife-edge overlaps are rare in a random ensemble.
        assert disagreements <= 3


def two_lane_road(lane_width=3.5):
    lanes = {
        "l0": straight_x(0.0, lane_id="l0"),
        "l1": straight_x(lane_width, lane_id="l1"),
    }
    adjacency = {"l0": {"left": "l1"}, "l1": {"right": "l0"}}
    return RoadMap(lanes, adjacency, lane_width=lane_width)


def small_world():
    road = two_lane_road()
    vehicles = [
        vehicle("cav0", 0.0, 0.0, v=10.0, connected=True),
        vehicle("cav1", 20.0, 3.5, v=9.0, connected=True),
        vehicle("ucv0", 40.0, 0.0, v=8.0),
    ]
    return World(road, vehicles)


class TestObservations:
    def test_travel_frame_roundtrip(self):
        world = small_world()
        obs = world.observe("cav1")
        assert obs.world_position() == pytest.approx((20.0, 3.5))
        assert obs.vx == pytest.approx(9.0)
        assert obs.vy == 0.0

    def test_ucv_observation_has_no_cav_fields(self):
        world = small_world()
        obs = world.observe("ucv0")
        assert obs.alpha is None
        assert obs.lane_detect is None
        cav = world.observe("cav0")
        assert cav.alpha == 0.0
        assert cav.lane_detect == "l0"

    def test_heading_rotation(self):
        road = two_lane_road()
        world = World(road, [vehicle("v", 3.0, 4.0, v=5.0, psi=math.pi / 2)])
        obs = world.observe("v")
        # Travel frame x-axis points along +Y here.
        assert obs.lx == pytest.approx(4.0)
        assert obs.ly == pytest.approx(-3.0)
        assert obs.world_position() == pytest.approx((3.0, 4.0))


class TestJointState:
    def test_identity_schedule_is_ground_truth(self):
        world = small_world()
        j_none = build_joint_state(world, 200.0, None)
        j_id = build_joint_state(world, 200.0, identity_schedule())
        for aid in ("cav0", "cav1"):
            for vid, obs in j_none.views[aid].cav_obs.items():
                other = j_id.views[aid].cav_obs[vid]
                assert obs == other
            for vid, obs in j_none.views[aid].ucv_obs.items():
                assert obs == j_id.views[aid].ucv_obs[vid]

    def test_constant_error_applies_to_others_not_self(self):
        world = small_world()
        schedule = make_constant(2.0, 1.0)
        joint = build_joint_state(world, 200.0, schedule)
        truth = {vid: world.observe(vid) for vid in world.vehicles}
        for aid, view in joint.views.items():
            assert view.self_obs == truth[aid]  # self-observation exact
            for vid, obs in list(view.cav_obs.items()) + list(view.ucv_obs.items()):
                assert obs.lx == pytest.approx(truth[vid].lx + 2.0)
                assert obs.vx == pytest.approx(truth[vid].vx + 1.0)
                assert obs.ly == truth[vid].ly
                assert obs.vy == truth[vid].vy

    def test_comm_range_filter(self):
        world = small_world()
        world.vehicles["ucv0"].x = 210.0  # 210 m from cav0, 190 m from cav1
        joint = build_joint_state(world, 200.0, None)
        assert "ucv0" not in joint.views["cav0"].ucv_obs
        assert "ucv0" in joint.views["cav1"].ucv_obs

    def test_perturbation_preserves_lateral_components(self):
        world = small_world()
        schedule = make_rand(seed=5)
        joint = build_joint_state(world, 200.0, schedule)
        truth = {vid: world.observe(vid) for vid in world.vehicles}
        for view in joint.views.values():
            for vid, obs in list(view.cav_obs.items()) + list(view.ucv_obs.items()):
                assert obs.ly == truth[vid].ly
                assert obs.vy == truth[vid].vy
                assert obs.alpha == truth[vid].alpha
                assert obs.lane_detect == truth[vid].lane_detect

    def test_same_error_for_all_observers(self):
        world = small_world()
        schedule = make_rand(seed=9)
        joint = build_joint_state(world, 200.0, schedule)
        seen0 = joint.views["cav0"].ucv_obs["ucv0"]
        seen1 = joint.views["cav1"].ucv_obs["ucv0"]
        assert seen0.lx == seen1.lx
        assert seen0.vx == seen1.vx


class TestWorldStep:
    def test_collision_freezes_vehicles(self):
        from cavshield.dynamics import ControlInput, DynamicsParams

        road = two_lane_road()
        world = World(road, [
            vehicle("a", 0.0, 0.0, v=10.0, connected=True),
            vehicle("b", 6.0, 0.0, v=0.0),
        ])
        dyn = DynamicsParams()
        controls = {
            "a": ControlInput(0.0, 0.0),
            "b": ControlInput(0.0, 0.0),
        }
        new = set()
        for _ in range(10):
            new |= world.step(controls, dyn)
        assert ("a", "b") in new
        assert world.crashed == {"a", "b"}
        x_after = world.vehicles["a"].x
        world.step(controls, dyn)
        assert world.vehicles["a"].x == x_after  # frozen

    def test_collision_reported_once(self):
        from cavshield.dynamics import ControlInput, DynamicsParams

        road = two_lane_road()
        world = World(road, [
            vehicle("a", 0.0, 0.0, v=10.0, connected=True),
            vehicle("b", 5.0, 0.0, v=0.0),
        ])
        dyn = DynamicsParams()
        controls = {k: ControlInput(0.0, 0.0) for k in ("a", "b")}
        events = []
        for _ in range(20):
            events += list(world.step(controls, dyn))
        assert events.count(("a", "b")) == 1


class TestValidation:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            VehicleState(id="x", x=0, y=0, v=-1.0, psi=0)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError):
            VehicleState(id="x", x=0, y=0, v=0.0, psi=0, length=0.0)
