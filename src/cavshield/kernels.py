"""Kernels: 2-D projection QP, bicycle step and rectangle overlap.

The bicycle step and the overlap test are per-step inner loops (called
agents x steps during rollouts).  ``solve_qp_2d`` backs ``qp.solve``
for acceptance check C1 alone.  The shield does not call it: every
barrier row bounds the acceleration alone, so
``shield.check_action_safe`` projects onto the accel interval the rows
leave, in closed form.

Callers call the kernels through the module (``kernels.solve_qp_2d``), not by
imported name, so a tracer that replaces the module attributes
(perfbench/spans.py) sees every call.
"""

import math

# The only implementation; perfbench records it with each run.
BACKEND = "python"

# Feasibility slack on unit-normalized constraint rows.
FEAS_TOL = 1e-8
# Duplicate-constraint and singular-pair detection threshold.
DEDUP_TOL = 1e-12

QP_FEASIBLE = 1
QP_INFEASIBLE = 0


def solve_qp_2d(u0x, u0y, rows, lo0, hi0, lo1, hi1):
    """Project (u0x, u0y) onto {u : a.u >= b for all rows, lo <= u <= hi}.

    rows is a flat sequence of (ax, ay, b) triples.  Returns
    (QP_FEASIBLE, ux, uy, objective) or (QP_INFEASIBLE, 0.0, 0.0, 0.0).

    In 2-D the minimizer of a strictly convex projection QP is either u0
    itself, the projection of u0 onto one constraint hyperplane, or the
    intersection of two hyperplanes, so enumerating those candidates is
    exhaustive and exact.  A row with a non-finite b (an infinite box
    bound, as in qp.solve's default) bounds the set but offers no
    candidate.
    """
    # Box bounds first, then caller rows; normalization makes the
    # feasibility slack invariant to constraint row scaling.
    norm_rows = [
        (1.0, 0.0, lo0),
        (-1.0, 0.0, -hi0),
        (0.0, 1.0, lo1),
        (0.0, -1.0, -hi1),
    ]
    for ax, ay, b in rows:
        n = math.sqrt(ax * ax + ay * ay)
        if n < DEDUP_TOL:
            if b > FEAS_TOL:
                return (QP_INFEASIBLE, 0.0, 0.0, 0.0)
            continue
        ax, ay, b = ax / n, ay / n, b / n
        dup = False
        for px, py, pb in norm_rows:
            if (
                abs(ax - px) <= DEDUP_TOL
                and abs(ay - py) <= DEDUP_TOL
                and abs(b - pb) <= DEDUP_TOL
            ):
                dup = True
                break
        if not dup:
            norm_rows.append((ax, ay, b))

    if _feasible(norm_rows, u0x, u0y):
        return (QP_FEASIBLE, u0x, u0y, 0.0)

    # A row with a non-finite b (an infinite box bound, as in qp.solve's
    # default) has no finite point on its line: its projection and its
    # vertices are infinite or NaN, so their distance never wins, and they
    # are not enumerated.  One sum decides it; the shield's rows are all
    # finite.
    cand_rows = norm_rows
    if not math.isfinite(sum([b for _, _, b in norm_rows])):
        cand_rows = [row for row in norm_rows if math.isfinite(row[2])]
    n_rows = len(cand_rows)

    best_d2 = math.inf
    best_x = 0.0
    best_y = 0.0
    found = False

    # Single active constraint: projection onto its hyperplane.
    for ax, ay, b in cand_rows:
        t = b - (ax * u0x + ay * u0y)
        cx = u0x + t * ax
        cy = u0y + t * ay
        if _feasible(norm_rows, cx, cy):
            d2 = (cx - u0x) * (cx - u0x) + (cy - u0y) * (cy - u0y)
            if d2 < best_d2:
                best_d2 = d2
                best_x = cx
                best_y = cy
                found = True

    # Two active constraints: hyperplane intersection (vertex).
    for i in range(n_rows):
        axi, ayi, bi = cand_rows[i]
        for j in range(i + 1, n_rows):
            axj, ayj, bj = cand_rows[j]
            det = axi * ayj - ayi * axj
            if abs(det) <= DEDUP_TOL:
                continue
            cx = (bi * ayj - bj * ayi) / det
            cy = (axi * bj - axj * bi) / det
            if _feasible(norm_rows, cx, cy):
                d2 = (cx - u0x) * (cx - u0x) + (cy - u0y) * (cy - u0y)
                if d2 < best_d2:
                    best_d2 = d2
                    best_x = cx
                    best_y = cy
                    found = True

    if not found:
        return (QP_INFEASIBLE, 0.0, 0.0, 0.0)
    return (QP_FEASIBLE, best_x, best_y, 0.5 * best_d2)


def _feasible(norm_rows, x, y):
    """(x, y) satisfies every unit row of solve_qp_2d within FEAS_TOL."""
    for ax, ay, b in norm_rows:
        if ax * x + ay * y - b < -FEAS_TOL:
            return False
    return True


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def step_bicycle(x, y, v, psi, accel, steer, dt, lr, wheelbase):
    """One explicit-Euler step of the kinematic bicycle about the c.g.

    Speed saturates at standstill; heading is wrapped to (-pi, pi].
    """
    beta = math.atan((lr / wheelbase) * math.tan(steer))
    nx = x + v * math.cos(psi + beta) * dt
    ny = y + v * math.sin(psi + beta) * dt
    npsi = wrap_angle(psi + (v / lr) * math.sin(beta) * dt)
    nv = v + accel * dt
    if nv < 0.0:
        nv = 0.0
    return (nx, ny, nv, npsi)


def rect_overlap(x1, y1, psi1, len1, wid1, x2, y2, psi2, len2, wid2):
    """Separating-axis test for two oriented (closed) rectangles."""
    dx = x2 - x1
    dy = y2 - y1
    r1 = 0.5 * math.sqrt(len1 * len1 + wid1 * wid1)
    r2 = 0.5 * math.sqrt(len2 * len2 + wid2 * wid2)
    if math.sqrt(dx * dx + dy * dy) > r1 + r2:
        return False

    c1 = math.cos(psi1)
    s1 = math.sin(psi1)
    c2 = math.cos(psi2)
    s2 = math.sin(psi2)
    corners1 = _rect_corners(x1, y1, c1, s1, len1, wid1)
    corners2 = _rect_corners(x2, y2, c2, s2, len2, wid2)
    # Each rectangle contributes two unique edge normals.
    for ax, ay in ((c1, s1), (-s1, c1), (c2, s2), (-s2, c2)):
        lo1p, hi1p = _project(corners1, ax, ay)
        lo2p, hi2p = _project(corners2, ax, ay)
        if hi1p < lo2p or hi2p < lo1p:
            return False
    return True


def _rect_corners(x, y, c, s, length, width):
    hl = 0.5 * length
    hw = 0.5 * width
    return (
        (x + c * hl - s * hw, y + s * hl + c * hw),
        (x + c * hl + s * hw, y + s * hl - c * hw),
        (x - c * hl + s * hw, y - s * hl - c * hw),
        (x - c * hl - s * hw, y - s * hl + c * hw),
    )


def _project(corners, ax, ay):
    lo = math.inf
    hi = -math.inf
    for cx, cy in corners:
        d = cx * ax + cy * ay
        if d < lo:
            lo = d
        if d > hi:
            hi = d
    return lo, hi
