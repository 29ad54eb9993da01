"""Perturbation schedule tests: distribution shape, band consistency,
reproducibility, bound recording."""

import math

import numpy as np
import pytest

from cavshield.perturb import (
    BAND_HALF_WIDTH,
    identity_schedule,
    make_constant,
    make_ptb_over_time,
    make_ptb_target_vehicles,
    make_rand,
    sample_base_error,
    sample_rand,
)


class TestSampleRand:
    def test_monte_carlo_uniform(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_rand(rng) for _ in range(10000)])
        e_l = draws[:, 0]
        assert -0.1 < e_l.mean() < 0.1
        assert e_l.min() >= -2.0
        assert e_l.max() <= 2.0
        # Spread consistent with U(-2, 2).
        assert e_l.std() == pytest.approx(2.0 / math.sqrt(3.0), rel=0.05)

    def test_velocity_is_half_location(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            e_l, e_v = sample_rand(rng)
            assert e_v == e_l / 2.0

    def test_identity_schedule_emits_nothing(self):
        sched = identity_schedule()
        for t in range(5):
            assert sched.error(t, "v1") is None


class TestRandSchedule:
    def test_reproducible_across_instances(self):
        s1 = make_rand(seed=42)
        s2 = make_rand(seed=42)
        stream1 = [s1.error(t, v) for t in range(50) for v in ("a", "b")]
        stream2 = [s2.error(t, v) for t in range(50) for v in ("a", "b")]
        assert stream1 == stream2

    def test_query_order_independent(self):
        s1 = make_rand(seed=7)
        s2 = make_rand(seed=7)
        fwd = {(t, v): s1.error(t, v) for t in range(10) for v in ("a", "b")}
        bwd = {
            (t, v): s2.error(t, v)
            for t in reversed(range(10))
            for v in ("b", "a")
        }
        assert fwd == bwd

    def test_different_vehicles_get_different_errors(self):
        s = make_rand(seed=3)
        assert s.error(0, "a") != s.error(0, "b")


class TestOverTime:
    def test_window_gate(self):
        s = make_ptb_over_time(seed=5, window=(10, 20))
        assert s.error(5, "a") is None
        assert s.error(25, "a") is None
        assert s.error(10, "a") is not None
        assert s.error(19, "a") is not None

    def test_band_around_base(self):
        s = make_ptb_over_time(seed=6, window=(0, 200))
        e0 = s.base_error
        assert 9.0 <= abs(e0) <= 11.0
        for t in range(0, 200, 7):
            for vid in ("a", "b"):
                e_l, e_v = s.error(t, vid)
                assert abs(e_l - e0) <= BAND_HALF_WIDTH
                assert e_v == e_l / 2.0

    def test_two_vehicles_share_base_band(self):
        s = make_ptb_over_time(seed=8, window=(0, 50))
        ea = s.error(3, "a")[0]
        eb = s.error(3, "b")[0]
        assert ea != eb
        assert abs(ea - s.base_error) <= BAND_HALF_WIDTH
        assert abs(eb - s.base_error) <= BAND_HALF_WIDTH

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            make_ptb_over_time(seed=0, window=(20, 10))


class TestTargetVehicles:
    def test_non_target_unperturbed(self):
        s = make_ptb_target_vehicles(seed=4, targets={"ucv0"})
        assert s.error(0, "cav0") is None
        assert s.error(100, "other") is None

    def test_target_has_persistent_error_in_band(self):
        s = make_ptb_target_vehicles(seed=4, targets={"ucv0", "ucv1"})
        first = s.error(0, "ucv0")
        for t in range(1, 200, 13):
            assert s.error(t, "ucv0") == first
        assert abs(first[0] - s.base_error) <= BAND_HALF_WIDTH
        assert first[1] == first[0] / 2.0

    def test_empty_target_set_rejected(self):
        with pytest.raises(ValueError):
            make_ptb_target_vehicles(seed=0, targets=set())


class TestBaseError:
    def test_magnitude_and_sign(self):
        rng = np.random.default_rng(11)
        draws = np.array([sample_base_error(rng) for _ in range(4000)])
        assert np.all((np.abs(draws) >= 9.0) & (np.abs(draws) <= 11.0))
        frac_pos = float(np.mean(draws > 0))
        assert 0.45 < frac_pos < 0.55


class TestBoundRecording:
    def test_violations_recorded_not_clipped(self):
        s = make_constant(3.0, 0.0, epsilon_bound=2.0)
        e = s.error(0, "a")
        assert e == (3.0, 0.0)  # never clipped
        assert s.violations == [(0, "a", (3.0, 0.0))]

    def test_repeated_query_recorded_once(self):
        s = make_constant(3.0, 0.0, epsilon_bound=2.0)
        assert s.error(0, "a") == s.error(0, "a")
        s.error(1, "a")
        assert s.violations == [(0, "a", (3.0, 0.0)), (1, "a", (3.0, 0.0))]

    def test_within_bound_not_recorded(self):
        s = make_constant(1.0, 1.0, epsilon_bound=2.0)
        s.error(0, "a")
        assert s.violations == []

    def test_rand_respects_its_own_bound(self):
        # ||(e, e/2)|| <= amp * sqrt(1.25); scale so the bound holds.
        amp = 2.0 / math.sqrt(1.25)
        s = make_rand(seed=2, amplitude=amp, epsilon_bound=2.0)
        for t in range(200):
            e_l, e_v = s.error(t, "a")
            assert math.hypot(e_l, e_v) <= 2.0 + 1e-12
        assert s.violations == []


@pytest.fixture
def rng_builds(monkeypatch):
    """Counts np.random.default_rng calls made through cavshield.perturb."""
    from cavshield import perturb

    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(perturb.np.random, "default_rng", counting)
    return calls


SCHEDULES = {
    "rand": lambda: make_rand(seed=9, epsilon_bound=1.0),
    "time": lambda: make_ptb_over_time(seed=9, window=(2, 8), epsilon_bound=1.0),
    "veh": lambda: make_ptb_target_vehicles(seed=9, targets={"a", "b"},
                                            epsilon_bound=1.0),
}


class TestErrorMemo:
    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_repeated_query_builds_no_generator(self, kind, rng_builds):
        s = SCHEDULES[kind]()
        first = [s.error(t, v) for t in range(10) for v in ("a", "b", "c")]
        built = len(rng_builds)
        again = [s.error(t, v) for t in range(10) for v in ("a", "b", "c")]
        assert again == first
        assert len(rng_builds) == built

    def test_target_vehicles_draw_once_per_target(self, rng_builds):
        s = SCHEDULES["veh"]()
        del rng_builds[:]  # the factory's draw of the base error
        for t in range(200):
            for v in ("a", "b", "c"):
                s.error(t, v)
        assert len(rng_builds) == 2

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_values_match_a_fresh_schedule(self, kind):
        used = SCHEDULES[kind]()
        queries = [(t, v) for t in range(12) for v in ("a", "b", "c")]
        for t, v in queries:
            used.error(t, v)
        for t, v in reversed(queries):
            got = used.error(t, v)
            want = SCHEDULES[kind]().error(t, v)
            if want is None:
                assert got is None
            else:
                assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_violations_recorded_once_per_step_and_vehicle(self, kind):
        s = SCHEDULES[kind]()
        for _ in range(3):
            for t in range(10):
                for v in ("a", "b", "c"):
                    s.error(t, v)
        keys = [(t, v) for t, v, _ in s.violations]
        assert keys and len(keys) == len(set(keys))
        assert keys == sorted(keys)
        assert all(s.error(t, v) == e for t, v, e in s.violations)
