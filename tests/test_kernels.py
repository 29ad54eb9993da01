"""Kernel properties that callers rely on."""

import math
import random

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


def reference_solve_qp_2d(u0x, u0y, rows, lo0, hi0, lo1, hi1):
    """kernels.solve_qp_2d as it was before its infeasibility exit: the
    plain candidate enumeration, kept as the reference for that exit."""
    FEAS_TOL, DEDUP_TOL = kernels.FEAS_TOL, kernels.DEDUP_TOL
    QP_FEASIBLE, QP_INFEASIBLE = kernels.QP_FEASIBLE, kernels.QP_INFEASIBLE
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

    n_rows = len(norm_rows)

    def _feasible(x, y):
        for ax, ay, b in norm_rows:
            if ax * x + ay * y - b < -FEAS_TOL:
                return False
        return True

    if _feasible(u0x, u0y):
        return (QP_FEASIBLE, u0x, u0y, 0.0)

    best_d2 = math.inf
    best_x = 0.0
    best_y = 0.0
    found = False

    for ax, ay, b in norm_rows:
        t = b - (ax * u0x + ay * u0y)
        cx = u0x + t * ax
        cy = u0y + t * ay
        if _feasible(cx, cy):
            d2 = (cx - u0x) * (cx - u0x) + (cy - u0y) * (cy - u0y)
            if d2 < best_d2:
                best_d2 = d2
                best_x = cx
                best_y = cy
                found = True

    for i in range(n_rows):
        axi, ayi, bi = norm_rows[i]
        for j in range(i + 1, n_rows):
            axj, ayj, bj = norm_rows[j]
            det = axi * ayj - ayi * axj
            if abs(det) <= DEDUP_TOL:
                continue
            cx = (bi * ayj - bj * ayi) / det
            cy = (axi * bj - axj * bi) / det
            if _feasible(cx, cy):
                d2 = (cx - u0x) * (cx - u0x) + (cy - u0y) * (cy - u0y)
                if d2 < best_d2:
                    best_d2 = d2
                    best_x = cx
                    best_y = cy
                    found = True

    if not found:
        return (QP_INFEASIBLE, 0.0, 0.0, 0.0)
    return (QP_FEASIBLE, best_x, best_y, 0.5 * best_d2)


def _direction(rnd):
    """A raw row direction: axis-aligned (as the shield's rows are) or
    free, at a random power-of-two scale (exact under normalization)."""
    if rnd.random() < 0.5:
        ax, ay = rnd.choice([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    else:
        ang = rnd.uniform(-math.pi, math.pi)
        ax, ay = math.cos(ang), math.sin(ang)
    k = 2.0 ** rnd.randint(-20, 20)
    return k * ax, k * ay


def _opposite(rnd, ax, ay):
    k = 2.0 ** rnd.randint(-20, 20)
    return -k * ax, -k * ay


def _raw_b(b_norm, ax, ay):
    """Raw b whose normalized value is b_norm up to one rounding."""
    return b_norm * math.sqrt(ax * ax + ay * ay)


def _qp_case(rnd, kind):
    """(u0x, u0y, rows, lo0, hi0, lo1, hi1) for one class of inputs at the
    edge of solve_qp_2d's infeasibility exit."""
    tol = kernels.FEAS_TOL
    box = (-6.0, 4.0, -0.5, 0.5)
    u0 = (rnd.uniform(-10.0, 10.0), rnd.uniform(-1.0, 1.0))
    rows = []
    if kind == "edge":
        # An opposite pair with normalized b_i + b_j around 2 * FEAS_TOL:
        # below it, within 3e-12 above it (the exit's margin) or anywhere
        # up to 1e-6 above it.
        total = rnd.choice([
            2 * tol - rnd.uniform(0.0, 1e-9),
            2 * tol + rnd.uniform(0.0, 3e-12),
            rnd.uniform(2 * tol - 1e-9, 2 * tol + 1e-6),
        ])
        if rnd.random() < 0.5:
            # x >= b_i, -x >= b_j, and a third row whose vertex with the
            # box edge y = lo1 lies mid-strip, where both slacks are
            # -(b_i + b_j) / 2: feasible up to b_i + b_j = 2 * FEAS_TOL.
            ki, kj = 2.0 ** rnd.randint(-20, 20), 2.0 ** rnd.randint(-20, 20)
            bi = rnd.uniform(-3.0, 3.0)
            c = rnd.choice([-1.0, 1.0]) * rnd.uniform(0.5, 2.0)
            rows += [(ki, 0.0, bi * ki), (-kj, 0.0, (total - bi) * kj),
                     (1.0, c, bi - total / 2 + c * box[2])]
        else:
            ax, ay = _direction(rnd)
            bx, by = _opposite(rnd, ax, ay)
            bi = rnd.choice([0.0, rnd.uniform(-5.0, 5.0),
                             rnd.uniform(-1e-7, 1e-7)])
            rows += [(ax, ay, _raw_b(bi, ax, ay)),
                     (bx, by, _raw_b(total - bi, bx, by))]
            if rnd.random() < 0.3:
                box = (-math.inf, math.inf, -math.inf, math.inf)
    elif kind == "inf_box":
        # qp.solve's default bounds are infinite; the exit must not fire.
        box = rnd.choice([(-math.inf, math.inf, -math.inf, math.inf),
                          (-6.0, math.inf, -0.5, 0.5),
                          (-6.0, 4.0, -math.inf, 0.5)])
        ax, ay = _direction(rnd)
        bx, by = _opposite(rnd, ax, ay)
        rows += [(ax, ay, rnd.uniform(0.0, 3.0)), (bx, by, rnd.uniform(0.0, 3.0))]
    elif kind == "huge":
        # |b| or |u0| from 1e90 to 1e300, on both sides of the exit's
        # 1e100 limit.
        mag = 10.0 ** rnd.uniform(90.0, 300.0)
        ax, ay = _direction(rnd)
        bx, by = _opposite(rnd, ax, ay)
        if rnd.random() < 0.3:
            u0 = (rnd.choice([mag, -mag]), u0[1])
            bi, gap = rnd.uniform(-5.0, 5.0), 1.0
        else:
            bi = rnd.choice([mag, -mag, 0.0])
            gap = rnd.choice([mag * 1e-3, mag, 1.0, -1.0, 2 * tol])
        rows += [(ax, ay, _raw_b(bi, ax, ay)),
                 (bx, by, _raw_b(gap - bi, bx, by))]
    elif kind == "tiny":
        # Rows with |coef| below DEDUP_TOL are constants: b > FEAS_TOL
        # proves infeasibility before any pairing, otherwise they drop out.
        tiny = kernels.DEDUP_TOL
        rows.append((rnd.choice([0.0, -0.0, 0.3 * tiny, -0.7 * tiny]),
                     rnd.choice([0.0, 0.2 * tiny, -0.6 * tiny]),
                     rnd.choice([0.0, tol, tol * (1 + 1e-6),
                                 tol * (1 - 1e-6), -1.0, 1.0])))
        ax, ay = _direction(rnd)
        bx, by = _opposite(rnd, ax, ay)
        rows += [(ax, ay, rnd.uniform(-1.0, 3.0)), (bx, by, rnd.uniform(-1.0, 3.0))]
    else:  # "mixed": shield-like rows, some opposed, plus a free row
        for _ in range(rnd.randint(1, 5)):
            coef = rnd.choice([-1.0, 1.0]) * rnd.uniform(0.1, 5.0)
            rows.append((coef, 0.0, rnd.uniform(-20.0, 20.0)))
        if rnd.random() < 0.5:
            # Two rows of one direction: a pair the exit must not take
            # for opposites.
            ax, ay = _direction(rnd)
            bx, by = 2.0 * ax, 2.0 * ay
            rows += [(ax, ay, _raw_b(rnd.uniform(-0.4, 0.4), ax, ay)),
                     (bx, by, _raw_b(rnd.uniform(-0.4, 0.4), bx, by))]
    if rnd.random() < 0.2:
        rows.append((rnd.uniform(-1, 1), rnd.uniform(-1, 1), rnd.uniform(-3, 3)))
    rnd.shuffle(rows)
    return (*u0, rows, *box)


def _opposed_sum(rows):
    """Largest normalized b_i + b_j over exactly opposite rows, or None."""
    norm = []
    for ax, ay, b in rows:
        n = math.sqrt(ax * ax + ay * ay)
        if n >= kernels.DEDUP_TOL:
            norm.append((ax / n, ay / n, b / n))
    sums = [bi + bj for i, (axi, ayi, bi) in enumerate(norm)
            for axj, ayj, bj in norm[i + 1:] if axj == -axi and ayj == -ayi]
    return max(sums) if sums else None


def test_infeasibility_exit_matches_reference(monkeypatch):
    """The exit returns exactly what the full enumeration returns, on
    30k+ seeded cases concentrated at its edges."""
    rnd = random.Random(20261018)
    exits = []
    inner = kernels._opposed_rows

    def counted(*args):
        fired = inner(*args)
        exits.append(fired)
        return fired

    monkeypatch.setattr(kernels, "_opposed_rows", counted)
    kinds = ["edge", "inf_box", "huge", "tiny", "mixed"]
    seen = {kind: {"cases": 0, "exit": 0, "infeasible": 0} for kind in kinds}
    window = 0
    u0_huge = {False: 0, True: 0}  # cases with |u0| above 1e100, by exit
    near = {False: 0, True: 0}  # within 3e-12 above 2 * FEAS_TOL, by exit
    for n in range(32000):
        kind = kinds[n % len(kinds)]
        case = _qp_case(rnd, kind)
        del exits[:]
        got = kernels.solve_qp_2d(*case)
        want = reference_solve_qp_2d(*case)
        assert got[0] == want[0], (kind, case)
        assert [float(v).hex() for v in got[1:]] == \
            [float(v).hex() for v in want[1:]], (kind, case)
        stats = seen[kind]
        stats["cases"] += 1
        stats["exit"] += any(exits)
        stats["infeasible"] += want[0] == kernels.QP_INFEASIBLE
        if max(abs(case[0]), abs(case[1])) > 1e100:
            u0_huge[any(exits)] += 1
        if kind == "edge":
            total = _opposed_sum(case[2])
            tol = kernels.FEAS_TOL
            if total is not None and 2 * tol - 1e-9 <= total <= 2 * tol + 1e-6:
                window += 1
                if 0.0 <= total - 2 * tol <= 3e-12:
                    near[any(exits)] += 1
    # Coverage floors: every class is exercised, the exit fires where it
    # may and stays off with infinite boxes.
    for kind in kinds:
        assert seen[kind]["cases"] >= 6000
    assert window >= 6000
    assert near[True] >= 300 and near[False] >= 300
    assert seen["edge"]["exit"] >= 1000
    assert seen["edge"]["infeasible"] - seen["edge"]["exit"] >= 500
    assert seen["edge"]["cases"] - seen["edge"]["infeasible"] >= 500
    assert seen["inf_box"]["exit"] == 0
    assert seen["huge"]["exit"] >= 100
    assert u0_huge[False] >= 500 and u0_huge[True] == 0
    assert seen["huge"]["infeasible"] - seen["huge"]["exit"] >= 100
    assert seen["tiny"]["exit"] >= 100
    assert seen["mixed"]["exit"] >= 500
