"""Kernel properties that callers rely on."""

import math

import numpy as np

from cavshield import kernels


class TestWrapAngleRange:
    def test_half_open_interval(self):
        rng = np.random.default_rng(4)
        for a in rng.uniform(-50, 50, 1000):
            w = kernels.wrap_angle(a)
            assert -math.pi < w <= math.pi
        assert kernels.wrap_angle(math.pi) == math.pi
        assert kernels.wrap_angle(-math.pi) == math.pi
        assert kernels.wrap_angle(0.0) == 0.0
