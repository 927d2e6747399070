"""Randomized small programs with grid-search oracles for solver testing.

Each generator returns (program, oracle_value). Instances are built around a
known strictly feasible start and kept at 1-2 coupled variables per block so
a staged grid refinement pins the optimum to ~1e-6. Every instance has the
trajectory program's shape: a concave quadratic with reciprocal terms of
linear-row slacks, over linear rows, speed rows and fixed coordinates. A
linear objective c.x - beta |x - q|^2 is folded into its quad centre,
q + c/(2 beta), with the constant that keeps its values.
"""

import numpy as np

from uavsec.surrogate import PowerProgram, StructuredConvexProgram


def program(n, **fields):
    """Program on n variables: every family not given in ``fields`` is empty,
    the constant is zero and the start is the origin. Unless given, the
    linear rows carry no reciprocal terms."""
    kw = dict(constant=0.0, quad_i=np.zeros(0, dtype=int), quad_c=np.zeros(0),
              quad_beta=np.zeros(0), lin_i=np.zeros((0, 1), dtype=int), lin_a=np.zeros((0, 1)),
              lin_b=np.zeros(0), speed_i=np.zeros((0, 2), dtype=int),
              speed_j=np.zeros((0, 2), dtype=int), speed_h=np.zeros(0),
              fixed_idx=np.zeros(0, dtype=int), fixed_val=np.zeros(0), start=np.zeros(n),
              layout={})
    kw.update(fields)
    kw.setdefault("lin_k", np.zeros(kw["lin_b"].size))
    kw.setdefault("lin_o", np.ones(kw["lin_b"].size))
    return StructuredConvexProgram(n=n, **kw)


def dense_rows(A, b):
    """Linear-row fields for the rows A x <= b, each row naming every
    coordinate."""
    A = np.asarray(A, dtype=float)
    return dict(lin_i=np.tile(np.arange(A.shape[1]), (A.shape[0], 1)), lin_a=A,
                lin_b=np.asarray(b, dtype=float))


def box_rows(lb, ub, A=np.zeros((0, 1)), b=()):
    """Linear-row fields for the box lb <= x <= ub, as the rows -x <= -lb and
    x <= ub, followed by the rows A x <= b."""
    eye = np.eye(len(lb))
    return dense_rows(np.vstack([-eye, eye, np.reshape(A, (-1, len(lb)))]),
                      np.concatenate([-np.asarray(lb), ub, b]))


def folded_quad(idx, beta, center, c, constant=0.0):
    """Quad-term fields and constant of constant + c.x - beta |x - center|^2
    over the coordinates idx (beta > 0, one per coordinate): the centre
    moves to center + c/(2 beta), and the constant grows by the value there."""
    beta, center, c = (np.asarray(a, dtype=float) for a in (beta, center, c))
    shift = c / (2.0 * beta)
    return dict(quad_i=np.asarray(idx), quad_c=center + shift, quad_beta=beta,
                constant=constant + float(c @ center) + float(beta @ (shift * shift)))


def power_program(constant, c, a, alpha, ub, budget):
    """A ``PowerProgram`` with the given coefficients; layout {"p": all}."""
    n = len(c)
    return PowerProgram(n=n, constant=constant, c=np.asarray(c, dtype=float),
                        a=np.asarray(a, dtype=float), alpha=np.asarray(alpha, dtype=float),
                        ub=np.asarray(ub, dtype=float), budget=budget,
                        layout={"p": np.arange(n)})


def bisection_water_fill(prog):
    """The water-filling point of a power program (see ``solver.water_fill``)
    with the budget's multiplier found by plain bisection between 0 and
    max(alpha*a + c) until the bracket stops shrinking: the reference that
    ``water_fill`` must match float for float."""
    alpha, a, c = prog.alpha, prog.a, prog.c

    def point(lam):
        return np.clip(alpha / (lam - c) - 1.0 / a, 0.0, prog.ub)

    lo, hi = 0.0, float(np.max(alpha * a + c))
    if np.sum(point(lo)) <= prog.budget:
        hi = lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.sum(point(mid)) <= prog.budget:
            hi = mid
        else:
            lo = mid
    return point(hi)


def _grid_max_1d(fn, lo, hi, stages=3, pts=4001):
    best_x, best = None, -np.inf
    for _ in range(stages):
        xs = np.linspace(lo, hi, pts)
        vals = fn(xs)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_x = float(vals[k]), float(xs[k])
        if best_x is None:      # no point of the grid is feasible
            return best
        span = (hi - lo) / (pts - 1) * 4.0
        lo, hi = max(lo, best_x - span), min(hi, best_x + span)
    return best


def box_linear_instance(rng):
    """1-2 vars, a box and a couple of linear rows kept feasible at the
    midpoint, and a linear plus quadratic objective.

    The box is four linear rows. The oracle enumerates every KKT candidate
    exactly: polytope vertices, edge-restricted stationary points, and the
    unconstrained stationary point. That set always contains the optimum of
    a concave quadratic over a bounded polytope.
    """
    n = int(rng.integers(1, 3))
    lb = np.zeros(n)
    ub = rng.uniform(0.5, 2.0, size=n)
    c = rng.uniform(-3.0, 3.0, size=n)
    mid = ub / 2.0
    rows = []
    for _ in range(int(rng.integers(1, 3))):
        a = rng.uniform(-1.0, 1.0, size=n)
        rows.append((a, float(a @ mid + rng.uniform(0.1, 1.0))))
    beta = float(rng.uniform(0.0, 2.0))
    center = rng.uniform(-1.0, 3.0, size=n)
    prog = program(n, start=mid, **folded_quad(np.arange(n), np.full(n, beta), center, c),
                   **box_rows(lb, ub, [r[0] for r in rows], [r[1] for r in rows]))

    def value(x):
        return float(c @ x) - beta * float((x - center) @ (x - center))

    def feasible(x):
        tol = 1e-12
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            return False
        return all(float(a @ x) <= rhs + tol for a, rhs in rows)

    # hyperplanes: box faces and linear rows, as (normal, offset)
    planes = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e.copy(), float(lb[i])))
        planes.append((e.copy(), float(ub[i])))
    planes.extend((a.copy(), rhs) for a, rhs in rows)

    x_star = center + c / (2.0 * beta)
    candidates = [x_star]
    if n == 1:
        candidates.extend(np.array([off / nv[0]]) for nv, off in planes if nv[0] != 0.0)
    else:
        for i in range(len(planes)):
            for j in range(i + 1, len(planes)):
                M = np.array([planes[i][0], planes[j][0]])
                rhs = np.array([planes[i][1], planes[j][1]])
                if abs(np.linalg.det(M)) < 1e-12:
                    continue
                candidates.append(np.linalg.solve(M, rhs))
        # stationary point restricted to each hyperplane
        for nv, off in planes:
            candidates.append(x_star - nv * ((float(nv @ x_star) - off) / float(nv @ nv)))

    oracle = max(value(x) for x in candidates if feasible(x))
    return prog, oracle


def reciprocal_row_instance(rng):
    """1-2 vars, one linear row a.x <= b kept feasible at the start, whose
    slack s carries the reciprocal term -k/(s + o), and quad terms.

    In the coordinates y_i = sqrt(beta_i) (x_i - quad_c_i) the objective is
    -|y|^2 - k/(s + o), and the row names y only through its normal, so the
    optimum lies on the line along that normal through the quad centre: a
    1-D concave maximization over the line's feasible half.
    """
    n = int(rng.integers(1, 3))
    start = rng.uniform(-1.0, 1.0, size=n)
    a = rng.uniform(-1.0, 1.0, size=n)
    b = float(a @ start + rng.uniform(0.1, 1.0))
    k, o = float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 1.0))
    beta = rng.uniform(0.1, 2.0, size=n)
    center = rng.uniform(-3.0, 3.0, size=n)
    prog = program(n, quad_i=np.arange(n), quad_c=center, quad_beta=beta,
                   **dense_rows([a], [b]), lin_k=np.array([k]), lin_o=np.array([o]),
                   start=start)

    # y = t a~/|a~|, a~ = a / sqrt(beta): the slack is s0 - t |a~|, so the row
    # holds for t <= s0/|a~|; below min(0, that) - sqrt(k/o) - 1, -t^2 alone
    # is below the value there
    norm = float(np.linalg.norm(a / np.sqrt(beta)))
    s0 = b - float(a @ center)
    hi = s0 / norm
    lo = min(0.0, hi) - np.sqrt(k / o) - 1.0

    def value(t):
        return -t * t - k / (np.maximum(s0 - t * norm, 0.0) + o)

    oracle = _grid_max_1d(value, lo, hi, stages=4, pts=40001)
    return prog, oracle


def speed_lens_instance(rng):
    """One free point (variables 2, 3) between two fixed ones (0, 1 and
    4, 5), each a speed row away: the free point ranges over the lens where
    two discs meet, as a trajectory's inner slot does. Every coordinate has
    a quad term, so the fixed points add a constant.

    The lens is at least a fifth of the radii thick. The oracle is the quad
    centre if it lies in the lens, and otherwise the best point on the lens
    boundary: the arc of each circle that lies inside the other disc.
    """
    h = rng.uniform(0.5, 2.0, size=2)
    ends = rng.uniform(-1.0, 1.0, size=(2, 2))
    gap = rng.uniform(0.0, 0.8 * h.sum())
    angle = rng.uniform(0.0, 2.0 * np.pi)
    ends[1] = ends[0] + gap * np.array([np.cos(angle), np.sin(angle)])
    beta = rng.uniform(0.2, 2.0, size=3).repeat(2)   # one weight per point, as in the trajectory program
    center = rng.uniform(-3.0, 3.0, size=6)
    inner = ends[0] + h[0] / h.sum() * (ends[1] - ends[0])   # strictly inside both discs
    prog = program(
        6, quad_i=np.arange(6), quad_c=center, quad_beta=beta,
        speed_i=np.array([[0, 1], [2, 3]]), speed_j=np.array([[2, 3], [4, 5]]), speed_h=h,
        fixed_idx=np.array([0, 1, 4, 5]), fixed_val=ends.ravel(),
        start=np.concatenate([ends[0], inner, ends[1]]),
    )
    fixed = np.array([0, 1, 4, 5])
    base = -float(beta[fixed] @ (ends.ravel() - center[fixed]) ** 2)

    def value(x, y):
        return base - beta[2] * (x - center[2]) ** 2 - beta[3] * (y - center[3]) ** 2

    m = center[2:4]
    if all(np.linalg.norm(m - end) <= r for end, r in zip(ends, h)):
        return prog, float(value(*m))
    best = -np.inf
    for own in (0, 1):
        end, r = ends[own], h[own]
        other, r_other = ends[1 - own], h[1 - own]
        # theta = pi points toward the other disc, so the arc inside it does
        # not wrap around the parametrization's ends
        away = np.arctan2(*(end - other)[::-1]) if gap > 0.0 else 0.0

        def on_arc(theta, end=end, r=r, other=other, r_other=r_other, away=away):
            x = end[0] + r * np.cos(theta + away)
            y = end[1] + r * np.sin(theta + away)
            inside = np.hypot(x - other[0], y - other[1]) <= r_other
            return np.where(inside, value(x, y), -np.inf)

        best = max(best, _grid_max_1d(on_arc, 0.0, 2.0 * np.pi, stages=4, pts=40001))
    return prog, best


def norm_row_instance(rng):
    """2 vars in a shifted disc |x - center| <= r, linear + quad objective.

    The disc is a speed row from two fixed coordinates that hold ``center``
    (variables 2 and 3) to the free pair (variables 0 and 1).
    """
    center = rng.uniform(-1.0, 1.0, size=2)
    r = float(rng.uniform(0.5, 2.0))
    c = rng.uniform(-2.0, 2.0, size=2)
    beta = float(rng.uniform(0.0, 1.5))
    qcen = rng.uniform(-2.0, 2.0, size=2)
    prog = program(
        4, speed_i=np.array([[2, 3]]), speed_j=np.array([[0, 1]]), speed_h=np.array([r]),
        fixed_idx=np.array([2, 3]), fixed_val=center.copy(), start=np.tile(center, 2),
        **folded_quad(np.arange(2), np.full(2, beta), qcen, c),
    )

    def value(x, y):
        return c[0] * x + c[1] * y - beta * ((x - qcen[0]) ** 2 + (y - qcen[1]) ** 2)

    # interior stationary point of the concave objective, else the circle
    x_star = qcen + c / (2.0 * beta)
    if np.linalg.norm(x_star - center) <= r:
        oracle = float(value(*x_star))
    else:
        def on_circle(theta):
            return value(center[0] + r * np.cos(theta), center[1] + r * np.sin(theta))
        oracle = _grid_max_1d(on_circle, 0.0, 2.0 * np.pi, stages=4, pts=40001)
    return prog, oracle


FAMILIES = (
    ("box-linear", box_linear_instance),
    ("reciprocal-row", reciprocal_row_instance),
    ("speed-lens", speed_lens_instance),
    ("norm-row", norm_row_instance),
)
