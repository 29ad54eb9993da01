"""World-core tests: path projection, SAT collision detection against a
point-sampling oracle, and joint-state assembly under perturbation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavshield.dynamics import ControlInput, DynamicsParams
from cavshield.perturb import identity_schedule, make_constant, make_rand
from cavshield.world import (
    LANE_MEMO_SIZE,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_waypoints_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Path([[0.0, 0.0], [10.0, bad], [20.0, 0.0]])

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf)])
    def test_nonfinite_point_rejected(self, x, y):
        path = Path([[0.0, 0.0], [100.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite point"):
            path.project(x, y)

    def test_geometry_returns_python_floats(self):
        path = Path([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
        values = [*path.project(9.0, 3.0), *path.point_at(12.0),
                  path.heading_at(12.0), path.length]
        assert all(type(v) is float for v in values)


class NumpyPath:
    """Array implementation of the Path geometry, kept as the reference the
    scalar Path must match bit for bit."""

    def __init__(self, waypoints):
        self.waypoints = np.asarray(waypoints, dtype=float)
        self._seg = np.diff(self.waypoints, axis=0)
        self._seg_len = np.sqrt((self._seg**2).sum(axis=1))
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_len)])

    @property
    def length(self):
        return float(self._cum[-1])

    def project(self, x, y, corridor=50.0):
        p = np.array([x, y])
        rel = p - self.waypoints[:-1]
        t = (rel * self._seg).sum(axis=1) / (self._seg_len**2)
        t = np.clip(t, 0.0, 1.0)
        closest = self.waypoints[:-1] + t[:, None] * self._seg
        d2 = ((p - closest) ** 2).sum(axis=1)
        i = int(np.argmin(d2))
        dist = math.sqrt(d2[i])
        if dist > corridor:
            raise OutOfCorridor
        s = float(self._cum[i] + t[i] * self._seg_len[i])
        ux, uy = self._seg[i] / self._seg_len[i]
        rx, ry = p - closest[i]
        d = ux * ry - uy * rx
        return s, float(d)

    def point_at(self, s):
        i, f = self._locate(s)
        return tuple(self.waypoints[i] + f * self._seg[i])

    def heading_at(self, s):
        i, _ = self._locate(s)
        ux, uy = self._seg[i] / self._seg_len[i]
        return math.atan2(uy, ux)

    def _locate(self, s):
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self._cum, s, side="right") - 1)
        i = min(i, len(self._seg) - 1)
        f = (s - self._cum[i]) / self._seg_len[i]
        return i, f


def bits(*values):
    """Exact bit patterns (signed zeros included) of float results."""
    return tuple(float(v).hex() for v in values)


def projection(path, x, y):
    try:
        return bits(*path.project(x, y))
    except OutOfCorridor:
        return "out of corridor"


# Grid coordinates make vertex ties exact; free floats cover the rest.
COORD = st.one_of(st.integers(-60, 60).map(float),
                  st.floats(-60.0, 60.0, allow_nan=False))
# Offsets of length exactly CORRIDOR_RADIUS (50 m) and just beyond it.
EDGE = [(50.0, 0.0), (0.0, 50.0), (30.0, 40.0), (40.0, 30.0), (14.0, 48.0),
        (48.0, 14.0), (50.0, 1e-9), (30.0, 40.000001)]


@st.composite
def polylines(draw):
    pts = draw(st.lists(st.tuples(COORD, COORD), min_size=2, max_size=5))
    # Segments shorter than half a metre are dropped: lanes have none, and
    # below ~1e-154 m the squared length underflows and Path rejects them.
    kept = [pts[0]]
    for p in pts[1:]:
        if math.dist(p, kept[-1]) >= 0.5:
            kept.append(p)
    if len(kept) < 2:
        kept.append((kept[0][0] + 1.0, kept[0][1]))
    return kept


@st.composite
def query_points(draw, pts):
    kind = draw(st.sampled_from(["free", "vertex", "past_end", "edge"]))
    if kind == "free":
        return draw(COORD) * 2.0, draw(COORD) * 2.0
    vx, vy = draw(st.sampled_from(pts))
    if kind == "vertex":
        # Small integer offsets around a vertex: outside a bend both
        # neighbouring segments clamp to the vertex, an exact tie.
        ox = draw(st.integers(-6, 6))
        oy = draw(st.integers(-6, 6))
        return vx + ox, vy + oy
    if kind == "past_end":
        (ax, ay), (bx, by) = draw(st.sampled_from(
            [(pts[1], pts[0]), (pts[-2], pts[-1])]
        ))
        k = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 20.0, 60.0]))
        return bx + k * (bx - ax), by + k * (by - ay)
    ex, ey = draw(st.sampled_from(EDGE))
    sx, sy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    return vx + sx * ex, vy + sy * ey


def test_signed_zeros_match_numpy_reference():
    # Exhaustive over signed zeros and unit steps: numpy sums a (-0.0) +
    # (-0.0) dot product to +0.0, which decides the sign of a zero offset.
    vals = (0.0, -0.0, 1.0, -1.0)
    grid = list(itertools.product(vals, repeat=2))
    for n in (2, 3):
        for pts in itertools.product(grid, repeat=n):
            if any(a == b for a, b in zip(pts, pts[1:])):
                continue
            path, ref = Path(pts), NumpyPath(pts)
            for x, y in grid:
                assert projection(path, x, y) == projection(ref, x, y)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_scalar_path_matches_numpy_reference(data):
    pts = data.draw(polylines(), label="waypoints")
    path, ref = Path(pts), NumpyPath(pts)
    assert bits(path.length) == bits(ref.length)
    for _ in range(4):
        x, y = data.draw(query_points(pts), label="point")
        got = projection(path, x, y)
        assert got == projection(ref, x, y)
        s_values = [-5.0, 0.0, ref.length, ref.length + 5.0,
                    *ref._cum[1:-1].tolist()]
        if got != "out of corridor":
            s_values.append(float.fromhex(got[0]))
        for s in s_values:
            (i, f), (ref_i, ref_f) = path._locate(s), ref._locate(s)
            assert (i, bits(f)) == (ref_i, bits(ref_f))
            assert bits(*path.point_at(s)) == bits(*ref.point_at(s))
            assert bits(path.heading_at(s)) == bits(ref.heading_at(s))


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


def two_lane_road():
    lanes = {
        "l0": straight_x(0.0, lane_id="l0"),
        "l1": straight_x(3.5, lane_id="l1"),
    }
    adjacency = {"l0": {"left": "l1"}, "l1": {"right": "l0"}}
    return RoadMap(lanes, adjacency)


def small_world():
    road = two_lane_road()
    vehicles = [
        vehicle("cav0", 0.0, 0.0, v=10.0, connected=True),
        vehicle("cav1", 20.0, 3.5, v=9.0, connected=True),
        vehicle("ucv0", 40.0, 0.0, v=8.0),
    ]
    return World(road, vehicles)


def bent_road():
    """Three lanes: two straight and one that turns north, so lane_of's
    heading test and its corridor both matter."""
    lanes = {
        "l0": straight_x(0.0, lane_id="l0"),
        "l1": straight_x(3.5, lane_id="l1"),
        "turn": Path([[-50.0, 7.0], [20.0, 7.0], [20.0, 90.0]], lane_id="turn"),
    }
    return RoadMap(lanes, {"l0": {"left": "l1"}, "l1": {"right": "l0"}})


class TestLaneMemo:
    def test_repeat_matches_fresh_road(self):
        rnd = np.random.default_rng(3)
        road = bent_road()
        points = [(float(x), float(y), float(psi)) for x, y, psi in zip(
            rnd.uniform(-60.0, 80.0, 300), rnd.uniform(-10.0, 70.0, 300),
            rnd.uniform(-math.pi, math.pi, 300),
        )]
        points += [(x, y, None) for x, y, _ in points[:50]]
        for _ in range(2):
            for x, y, psi in points:
                assert road.lane_of(x, y, psi) == bent_road().lane_of(x, y, psi)

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_share_a_lane(self, first, second):
        # The memo's key aliases 0.0 and -0.0; either order of the calls
        # gives what a fresh road gives.  y = 1.75 ties both lanes.
        road = two_lane_road()
        for rest in [(0.0, 0.0), (1.75, -0.0), (-0.0, 0.0), (3.5, None)]:
            want = two_lane_road().lane_of(second, *rest)
            assert two_lane_road().lane_of(first, *rest) == want
            assert road.lane_of(first, *rest) == want
            assert road.lane_of(second, *rest) == want
        for y, psi in [(first, second), (second, first)]:
            assert road.lane_of(5.0, y, psi) == two_lane_road().lane_of(5.0, y, psi)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf)])
    def test_nonfinite_point_raises_every_call(self, x, y):
        road = two_lane_road()
        for _ in range(3):
            with pytest.raises(ValueError, match="non-finite"):
                road.lane_of(x, y, 0.0)
        assert road._lane_memo == {}

    def test_memo_is_bounded(self):
        road = two_lane_road()
        for i in range(2 * LANE_MEMO_SIZE + 7):
            road.lane_of(0.1 * i, 0.5, 0.0)
            assert 1 <= len(road._lane_memo) <= LANE_MEMO_SIZE


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

    def test_lanes_tracked_for_cavs_only(self):
        road = two_lane_road()
        world = World(road, [
            vehicle("cav0", 0.0, 0.0, v=10.0, connected=True),
            vehicle("cav1", 30.0, 3.5, v=9.0, connected=True),
            vehicle("ucv0", 60.0, 0.0, v=8.0),
            vehicle("ucv1", 90.0, 3.5, v=8.0),
        ])
        dyn = DynamicsParams()
        # cav0 steers left across into l1; the others hold their lanes.
        controls = {vid: ControlInput(0.0, 0.0) for vid in world.vehicles}
        controls["cav0"] = ControlInput(0.5, 0.05)
        seen = set()
        for _ in range(40):
            world.step(controls, dyn)
            assert set(world.lane_assignment) == {"cav0", "cav1"}
            for vid in world.cav_ids:
                veh = world.vehicles[vid]
                lane = two_lane_road().lane_of(veh.x, veh.y, veh.psi)
                assert lane is not None
                assert world.observe(vid).lane_detect == lane
                seen.add((vid, lane))
            for vid in world.ucv_ids:
                assert world.observe(vid).lane_detect is None
        assert ("cav0", "l1") in seen and ("cav0", "l0") in seen


class TestValidation:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            VehicleState(id="x", x=0, y=0, v=-1.0, psi=0)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError):
            VehicleState(id="x", x=0, y=0, v=0.0, psi=0, length=0.0)
