"""Array front end of the 2-D projection QP kernels.solve_qp_2d, for
acceptance check C1; perfbench/spans.py wraps solve and
QpProblem.validate.  The safety shield builds no QP: it projects onto
its accel interval in closed form.

minimize 1/2 ||u - u0||^2  subject to  a.u >= b (per row) and box bounds.
Infeasible is a normal outcome.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import kernels


@dataclass
class QpProblem:
    u0: tuple  # reference input, dimension 2
    constraints: list = field(default_factory=list)  # [(a: len-2, b: float)]
    bounds: tuple = ((-math.inf, math.inf), (-math.inf, math.inf))

    def validate(self):
        if not _finite_pair(self.u0):
            raise ValueError("u0 must be a finite length-2 vector")
        for a, b in self.constraints:
            if not _finite_pair(a):
                raise ValueError("constraint rows must be finite length-2")
            if not math.isfinite(b):
                raise ValueError("constraint rhs must be finite")
        for lo, hi in self.bounds:
            if not lo <= hi:  # also rejects NaN
                raise ValueError(f"bound lo {lo} exceeds hi {hi}")


def _finite_pair(v):
    """True when v unpacks into exactly two finite reals."""
    try:
        a, b = v
        return math.isfinite(a) and math.isfinite(b)
    except (TypeError, ValueError):
        return False


class QpResult(NamedTuple):
    feasible: bool
    u: Optional[np.ndarray]
    objective: Optional[float]


def solve(problem):
    """Euclidean projection of u0 onto the feasible set, or Infeasible.

    Deterministic: identical inputs give identical outputs; feasible
    solutions satisfy every constraint to within 1e-8 (on unit-normalized
    rows).
    """
    problem.validate()
    rows = [(float(a[0]), float(a[1]), float(b)) for a, b in problem.constraints]
    (lo0, hi0), (lo1, hi1) = problem.bounds
    status, ux, uy, obj = kernels.solve_qp_2d(
        float(problem.u0[0]), float(problem.u0[1]), rows,
        float(lo0), float(hi0), float(lo1), float(hi1),
    )
    if status == kernels.QP_FEASIBLE:
        return QpResult(True, np.array([ux, uy]), obj)
    return QpResult(False, None, None)
