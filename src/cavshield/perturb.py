"""Test-time observation error schedules.

Errors (e_l, e_v) act only on the observed vehicle's travel axis and are
shared by every observer of that vehicle at that step.  Draws are keyed by
(seed, step, vehicle) so a schedule is reproducible regardless of query
order.  A finite epsilon_bound does not clip anything: exceedances are
recorded so tests can deliberately feed the shield worse errors than it
assumes.
"""

import math
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

KIND_NONE = "none"
KIND_RAND = "rand"
KIND_TIME = "time"
KIND_VEH = "veh"

RAND_AMPLITUDE = 2.0  # e_l ~ U(-2, 2)
BAND_HALF_WIDTH = 0.5  # e ~ U(e0 - 1/2, e0 + 1/2)
BASE_MAG_LO = 9.0  # |e0| ~ U(9, 11), sign a fair coin
BASE_MAG_HI = 11.0


def _vid_key(vehicle_id):
    return zlib.crc32(str(vehicle_id).encode("utf-8"))


def sample_rand(rng, amplitude=RAND_AMPLITUDE):
    """One random-error draw: e_l ~ U(-amp, amp), e_v = e_l / 2."""
    e_l = rng.uniform(-amplitude, amplitude)
    return (e_l, e_l / 2.0)


def sample_base_error(rng):
    """Consistent-strategy base offset: |e0| ~ U(9, 11) with a coin-flip sign."""
    mag = rng.uniform(BASE_MAG_LO, BASE_MAG_HI)
    sign = 1.0 if rng.integers(0, 2) == 1 else -1.0
    return sign * mag


@dataclass
class PerturbationSchedule:
    """One episode's error stream; immutable apart from violation records
    and the memo of errors drawn so far."""

    kind: str = KIND_NONE
    seed: int = 0
    epsilon_bound: float = math.inf
    amplitude: float = RAND_AMPLITUDE
    window: Optional[tuple] = None  # [t0, t1) step window for KIND_TIME
    targets: frozenset = frozenset()  # vehicle ids for KIND_VEH
    base_error: Optional[float] = None  # e0 of the consistent strategies
    constant: Optional[tuple] = None  # fixed (e_l, e_v) for every target
    violations: list = field(default_factory=list)  # (t, vid, e), once each
    _violated: set = field(
        default_factory=set, init=False, repr=False, compare=False
    )
    # (t, vid), or vid alone for KIND_VEH -> (error, exceeds the bound)
    _drawn: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def error(self, t, vehicle_id):
        """(e_l, e_v) for observations of vehicle_id at step t, or None.

        Each error is drawn once: per (t, vehicle) and, for KIND_VEH, whose
        error does not depend on the step, per vehicle.
        """
        if self.kind == KIND_NONE:
            return None
        key = vehicle_id if self.kind == KIND_VEH else (t, vehicle_id)
        drawn = self._drawn.get(key)
        if drawn is None:
            e = self._raw_error(t, vehicle_id)
            over = e is not None and (
                math.sqrt(e[0] * e[0] + e[1] * e[1])
                > self.epsilon_bound + 1e-12
            )
            drawn = self._drawn[key] = (e, over)
        e, over = drawn
        if over and (t, vehicle_id) not in self._violated:
            self._violated.add((t, vehicle_id))
            self.violations.append((t, vehicle_id, e))
        return e

    def _raw_error(self, t, vehicle_id):
        if self.constant is not None:
            return self.constant
        key = _vid_key(vehicle_id)
        if self.kind == KIND_RAND:
            rng = np.random.default_rng([self.seed, t, key])
            return sample_rand(rng, self.amplitude)
        if self.kind == KIND_TIME:
            t0, t1 = self.window
            if not t0 <= t < t1:
                return None
            rng = np.random.default_rng([self.seed, t, key])
            e = rng.uniform(
                self.base_error - BAND_HALF_WIDTH,
                self.base_error + BAND_HALF_WIDTH,
            )
            return (e, e / 2.0)
        if self.kind == KIND_VEH:
            if vehicle_id not in self.targets:
                return None
            rng = np.random.default_rng([self.seed, key])
            e = rng.uniform(
                self.base_error - BAND_HALF_WIDTH,
                self.base_error + BAND_HALF_WIDTH,
            )
            return (e, e / 2.0)
        raise ValueError(f"unknown perturbation kind {self.kind!r}")


def identity_schedule():
    return PerturbationSchedule(kind=KIND_NONE)


def make_rand(seed, amplitude=RAND_AMPLITUDE, epsilon_bound=math.inf):
    """Independent per-vehicle, per-step random error."""
    return PerturbationSchedule(
        kind=KIND_RAND, seed=seed, amplitude=amplitude,
        epsilon_bound=epsilon_bound,
    )


def make_ptb_over_time(seed, window, epsilon_bound=math.inf):
    """All vehicles wrongly observed within a step window, errors in a
    width-1 band around one base offset e0."""
    t0, t1 = window
    if t1 <= t0 or t0 < 0:
        raise ValueError(f"bad window {window!r}")
    rng = np.random.default_rng([seed, 0xA5])
    return PerturbationSchedule(
        kind=KIND_TIME, seed=seed, window=(int(t0), int(t1)),
        base_error=sample_base_error(rng), epsilon_bound=epsilon_bound,
    )


def make_ptb_target_vehicles(seed, targets, epsilon_bound=math.inf):
    """A target subset wrongly observed for the whole episode; each target
    gets one persistent error drawn from the e0-centered band."""
    targets = frozenset(targets)
    if not targets:
        raise ValueError("target set must be non-empty")
    rng = np.random.default_rng([seed, 0x5A])
    return PerturbationSchedule(
        kind=KIND_VEH, seed=seed, targets=targets,
        base_error=sample_base_error(rng), epsilon_bound=epsilon_bound,
    )


def make_constant(e_l, e_v, epsilon_bound=math.inf):
    """Fixed error on every observed vehicle (test helper)."""
    return PerturbationSchedule(
        kind=KIND_RAND, constant=(float(e_l), float(e_v)),
        epsilon_bound=epsilon_bound,
    )
