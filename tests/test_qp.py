"""QP solver tests: analytic cases plus three independent oracles
(dense-grid brute force, LP phase-1 feasibility, random feasible points)."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from cavshield.qp import QpProblem, solve

WIDE = ((-100.0, 100.0), (-100.0, 100.0))


def random_problem(rng, box_width=None):
    """Random 2-D instance; small boxes keep the grid oracle affordable."""
    if box_width is None:
        box_width = rng.uniform(0.3, 0.8)
    lo = rng.uniform(-2.0, 2.0, size=2)
    bounds = ((lo[0], lo[0] + box_width), (lo[1], lo[1] + box_width))
    u0 = rng.uniform(lo - 0.5, lo + box_width + 0.5)
    n = rng.integers(1, 7)
    constraints = []
    for _ in range(n):
        a = rng.normal(size=2)
        b = float(a @ rng.uniform(lo - 0.2, lo + box_width + 0.2))
        constraints.append(((a[0], a[1]), b))
    return QpProblem(u0=tuple(u0), constraints=constraints, bounds=bounds)


def well_conditioned(p, min_wedge_deg=80.0):
    """Problem-side filter for grid-oracle comparisons: reject instances
    whose feasible region has a corner sharper than min_wedge_deg inside
    the box.  A 1e-3 lattice cannot resolve sharp slivers (no grid point
    within tolerance of the vertex), so agreement there is meaningless;
    sharp geometry stays covered by the exact LP and projection oracles.
    """
    (lo0, hi0), (lo1, hi1) = p.bounds
    faces = []
    for (ax, ay), b in p.constraints:
        n = math.hypot(ax, ay)
        faces.append((ax / n, ay / n, b / n))
    faces += [(1.0, 0.0, lo0), (-1.0, 0.0, -hi0),
              (0.0, 1.0, lo1), (0.0, -1.0, -hi1)]
    margin = 1e-3
    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            ai, bi, ci = faces[i]
            aj, bj, cj = faces[j]
            det = ai * bj - bi * aj
            if abs(det) < 1e-9:
                continue
            x = (ci * bj - cj * bi) / det
            y = (ai * cj - aj * ci) / det
            if not (lo0 - margin <= x <= hi0 + margin
                    and lo1 - margin <= y <= hi1 + margin):
                continue
            cosang = max(-1.0, min(1.0, ai * aj + bi * bj))
            if 180.0 - math.degrees(math.acos(cosang)) < min_wedge_deg:
                return False
    return True


def conditioned_problem(rng):
    while True:
        p = random_problem(rng)
        if well_conditioned(p):
            return p


def feasible_problem(rng):
    """Random instance built around a known interior point."""
    center = rng.uniform(-2.0, 2.0, size=2)
    w = rng.uniform(0.5, 2.0, size=2)
    bounds = ((center[0] - w[0], center[0] + w[0]),
              (center[1] - w[1], center[1] + w[1]))
    constraints = []
    for _ in range(rng.integers(0, 6)):
        a = rng.normal(size=2)
        slack = rng.uniform(0.05, 1.0)
        b = float(a @ center) - slack
        constraints.append(((a[0], a[1]), b))
    u0 = rng.uniform(center - 3.0, center + 3.0)
    return QpProblem(u0=tuple(u0), constraints=constraints, bounds=bounds), center


def _axis_grid(lo, hi, pitch):
    n = int(math.floor((hi - lo) / pitch)) + 1
    pts = lo + pitch * np.arange(n)
    return np.append(pts, hi) if pts[-1] < hi else pts


def grid_oracle(problem, pitch=1e-3):
    """Brute-force minimizer over a dense grid inside the box."""
    (lo0, hi0), (lo1, hi1) = problem.bounds
    xs = _axis_grid(lo0, hi0, pitch)
    ys = _axis_grid(lo1, hi1, pitch)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = np.ones(gx.shape, dtype=bool)
    for (ax, ay), b in problem.constraints:
        mask &= ax * gx + ay * gy >= b - 1e-12
    if not mask.any():
        return None
    d2 = (gx - problem.u0[0]) ** 2 + (gy - problem.u0[1]) ** 2
    d2[~mask] = np.inf
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return np.array([gx[i, j], gy[i, j]])


def phase1_oracle(problem):
    """Exact LP feasibility: minimize the worst constraint violation."""
    # Variables (u0, u1, t): minimize t s.t. a.u + t >= b, t >= 0.
    c = [0.0, 0.0, 1.0]
    a_ub = []
    b_ub = []
    for (ax, ay), b in problem.constraints:
        a_ub.append([-ax, -ay, -1.0])
        b_ub.append(-b)
    res = linprog(
        c, A_ub=a_ub or None, b_ub=b_ub or None,
        bounds=[problem.bounds[0], problem.bounds[1], (0, None)],
        method="highs",
    )
    assert res.success
    return res.x[2] <= 1e-9


class TestAnalyticCases:
    def test_unconstrained_projection_is_identity(self):
        res = solve(QpProblem(u0=(0.3, -0.2), bounds=WIDE))
        assert res.feasible
        assert np.allclose(res.u, [0.3, -0.2])
        assert res.objective == 0.0

    def test_halfline_projection(self):
        # u0 = 2, constraint u <= 1 written as -u >= -1.
        res = solve(
            QpProblem(u0=(2.0, 0.0), constraints=[((-1.0, 0.0), -1.0)], bounds=WIDE)
        )
        assert res.feasible
        assert np.allclose(res.u, [1.0, 0.0], atol=1e-12)
        assert res.objective == pytest.approx(0.5, abs=1e-12)

    def test_contradictory_halfspaces(self):
        res = solve(
            QpProblem(
                u0=(0.0, 0.0),
                constraints=[((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0)],
                bounds=WIDE,
            )
        )
        assert not res.feasible

    def test_box_only_projection(self):
        res = solve(QpProblem(u0=(10.0, -10.0), bounds=((-1.0, 1.0), (-2.0, 2.0))))
        assert res.feasible
        assert np.allclose(res.u, [1.0, -2.0])

    def test_vertex_solution(self):
        res = solve(
            QpProblem(
                u0=(0.0, 0.0),
                constraints=[((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)],
                bounds=WIDE,
            )
        )
        assert res.feasible
        assert np.allclose(res.u, [1.0, 1.0], atol=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_problem(rng)
            r1 = solve(p)
            r2 = solve(p)
            assert r1.feasible == r2.feasible
            if r1.feasible:
                assert np.array_equal(r1.u, r2.u)
                assert r1.objective == r2.objective

    def test_validation(self):
        cases = [
            ((0.0, 0.0, 0.0), [], WIDE, "u0 must be"),
            ((np.nan, 0.0), [], WIDE, "u0 must be"),
            (np.array([0.0, math.inf]), [], WIDE, "u0 must be"),
            ((0.0, 0.0), [((1.0,), 0.0)], WIDE, "constraint rows"),
            ((0.0, 0.0), [((math.inf, 0.0), 0.0)], WIDE, "constraint rows"),
            ((0.0, 0.0), [((1.0, 0.0), np.nan)], WIDE, "constraint rhs"),
            ((0.0, 0.0), [], ((1.0, -1.0), (0.0, 1.0)),
             "bound lo 1.0 exceeds hi -1.0"),
            # NaN compares False both ways; it must not pass as a bound.
            ((0.0, 0.0), [((1.0, 0.0), 0.5)], ((math.nan, 1.0), (0.0, 1.0)),
             "bound lo nan exceeds hi 1.0"),
            ((0.0, 0.0), [], ((-1.0, 1.0), (0.0, math.nan)),
             "bound lo 0.0 exceeds hi nan"),
        ]
        for u0, constraints, bounds, message in cases:
            with pytest.raises(ValueError, match=message):
                solve(QpProblem(u0=u0, constraints=constraints, bounds=bounds))
        # Infinite bounds are still a valid box.
        inf_box = ((-math.inf, math.inf), (-math.inf, 0.0))
        res = solve(QpProblem(u0=(1.0, 2.0), constraints=[], bounds=inf_box))
        assert res.feasible and res.u.tolist() == [1.0, 0.0]


class TestOracles:
    def test_grid_oracle_agreement(self):
        # The grid argmin position is degenerate at the projection tangency
        # (many grid points tie within resolution), so the comparison the
        # grid genuinely certifies is the projection distance: the solver
        # must beat every feasible grid point and be within 2e-3 of the
        # best one.
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(200):
            p = conditioned_problem(rng)
            res = solve(p)
            ref = grid_oracle(p)
            if ref is None:
                # Grid can miss slivers thinner than its pitch; the LP
                # oracle (exact) is the feasibility authority elsewhere.
                continue
            assert res.feasible
            d_solver = np.linalg.norm(res.u - np.asarray(p.u0))
            d_grid = np.linalg.norm(ref - np.asarray(p.u0))
            assert d_solver <= d_grid + 1e-9
            assert d_grid - d_solver <= 2e-3
            checked += 1
        assert checked > 60

    def test_phase1_feasibility_agreement(self):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            p = random_problem(rng, box_width=float(rng.uniform(0.3, 2.0)))
            assert solve(p).feasible == phase1_oracle(p)

    def test_projection_optimality_against_random_feasible_points(self):
        rng = np.random.default_rng(303)
        for _ in range(10000):
            p, center = feasible_problem(rng)
            res = solve(p)
            assert res.feasible
            base = np.linalg.norm(res.u - np.asarray(p.u0))
            # Random feasible points must never beat the projection.
            pts = rng.uniform(
                [p.bounds[0][0], p.bounds[1][0]],
                [p.bounds[0][1], p.bounds[1][1]],
                size=(100, 2),
            )
            ok = np.ones(len(pts), dtype=bool)
            for (ax, ay), b in p.constraints:
                ok &= pts @ np.array([ax, ay]) >= b
            pts = np.vstack([pts[ok], center])
            dists = np.linalg.norm(pts - np.asarray(p.u0), axis=1)
            assert base <= dists.min() + 1e-6

    def test_feasible_solutions_satisfy_constraints(self):
        rng = np.random.default_rng(404)
        for _ in range(500):
            p = random_problem(rng)
            res = solve(p)
            if not res.feasible:
                continue
            for (ax, ay), b in p.constraints:
                norm = math.hypot(ax, ay)
                assert ax * res.u[0] + ay * res.u[1] - b >= -1e-8 * max(norm, 1.0)
            (lo0, hi0), (lo1, hi1) = p.bounds
            assert lo0 - 1e-8 <= res.u[0] <= hi0 + 1e-8
            assert lo1 - 1e-8 <= res.u[1] <= hi1 + 1e-8

    def test_scaling_invariance(self):
        rng = np.random.default_rng(505)
        for _ in range(200):
            p = random_problem(rng)
            scale = float(rng.uniform(0.01, 100.0))
            scaled = QpProblem(
                u0=p.u0,
                constraints=[((a[0] * scale, a[1] * scale), b * scale)
                             for a, b in p.constraints],
                bounds=p.bounds,
            )
            r1 = solve(p)
            r2 = solve(scaled)
            assert r1.feasible == r2.feasible
            if r1.feasible:
                assert np.allclose(r1.u, r2.u, atol=1e-9)
