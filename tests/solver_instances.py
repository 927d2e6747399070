"""Randomized small programs with grid-search oracles for solver testing.

Each generator returns (program, oracle_value). Every instance has the
trajectory program's shape: N slots, the first and last fixed, a concave
quadratic with reciprocal terms of row slacks, over rows a.q[n] <= b that
every slot has, and speed rows between neighbouring slots. Instances are
built around a known strictly feasible start, with one free slot between
the two fixed ones, so a staged grid refinement pins the optimum to ~1e-6.
A linear objective c.x - beta |x - q|^2 is folded into its quad centre,
q + c/(2 beta), with the constant that keeps its values.
"""

import numpy as np

from uavsec.surrogate import PowerProgram, StructuredConvexProgram


def program(start, speed_h, **fields):
    """Program over the slots of ``start`` (N, 2): every family not given in
    ``fields`` is empty or 0 (no rows, no quad terms, constant 0). Unless
    given, the rows carry no reciprocal terms."""
    start = np.asarray(start, dtype=float)
    N = len(start)
    kw = dict(constant=0.0, quad_c=np.zeros((N, 2)), quad_beta=np.zeros((N, 2)),
              lin_a=np.zeros((0, N, 2)), lin_b=np.zeros((0, N)), layout={})
    kw.update(fields)
    kw.setdefault("lin_k", np.zeros(kw["lin_b"].shape))
    kw.setdefault("lin_o", np.ones(kw["lin_b"].shape))
    return StructuredConvexProgram(start=start, speed_h=np.asarray(speed_h, dtype=float),
                                   n=2 * N, **kw)


def slot_rows(A, b, N):
    """Row fields for the rows A q[n] <= b on every one of N slots."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return dict(lin_a=np.repeat(A[:, None], N, axis=1), lin_b=np.repeat(b[:, None], N, axis=1))


def box_rows(lb, ub, N, A=np.zeros((0, 2)), b=()):
    """Row fields for the box lb <= q[n] <= ub, as the rows -q <= -lb and
    q <= ub, followed by the rows A q <= b, on every one of N slots."""
    eye = np.eye(2)
    return slot_rows(np.vstack([-eye, eye, np.reshape(A, (-1, 2))]),
                     np.concatenate([-np.asarray(lb), ub, b]), N)


def folded_quad(beta, center, c, constant=0.0):
    """Quad centre and constant of constant + c.x - beta |x - center|^2 over
    one slot's coordinates (beta > 0, one per coordinate): the centre moves
    to center + c/(2 beta), and the constant grows by the value there."""
    beta, center, c = (np.asarray(a, dtype=float) for a in (beta, center, c))
    shift = c / (2.0 * beta)
    return center + shift, constant + float(c @ center) + float(beta @ (shift * shift))


def one_free_slot(ends, free, beta, center, constant=0.0):
    """Quad fields of a three-slot program whose middle slot alone has quad
    terms, and its start: the fixed ends around the free point."""
    quad_c, quad_beta = np.zeros((3, 2)), np.zeros((3, 2))
    quad_c[1], quad_beta[1] = center, beta
    return dict(quad_c=quad_c, quad_beta=quad_beta, constant=constant,
                start=np.array([ends[0], free, ends[1]]))


def loose_speed_rows(ends, points):
    """Speed bounds from each end to the free slot that hold strictly
    around every one of ``points``, with a margin of 1."""
    points = np.atleast_2d(points)
    return np.array([np.max(np.linalg.norm(points - end, axis=1)) + 1.0 for end in ends])


def inside_speed_rows(prog, x):
    """Whether the free slot at x lies strictly inside both speed rows."""
    return (np.linalg.norm(x - prog.start[0]) < prog.speed_h[0]
            and np.linalg.norm(x - prog.start[2]) < prog.speed_h[1])


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
    """The grid maximum of fn over [lo, hi], refined stage by stage, and its
    argument (None if no grid point is feasible)."""
    best_x, best = None, -np.inf
    for _ in range(stages):
        xs = np.linspace(lo, hi, pts)
        vals = fn(xs)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_x = float(vals[k]), float(xs[k])
        if best_x is None:      # no point of the grid is feasible
            return best, None
        span = (hi - lo) / (pts - 1) * 4.0
        lo, hi = max(lo, best_x - span), min(hi, best_x + span)
    return best, best_x


def box_linear_instance(rng):
    """A box and a couple of rows kept feasible at its midpoint, and a
    linear plus quadratic objective, on the free slot.

    The box is four rows. The oracle enumerates every KKT candidate
    exactly: polytope vertices, edge-restricted stationary points, and the
    unconstrained stationary point. That set always contains the optimum of
    a concave quadratic over a bounded polytope. Every slot starts at the
    midpoint, and the speed rows hold around the whole box.
    """
    lb = np.zeros(2)
    ub = rng.uniform(0.5, 2.0, size=2)
    c = rng.uniform(-3.0, 3.0, size=2)
    mid = ub / 2.0
    rows = []
    for _ in range(int(rng.integers(1, 3))):
        a = rng.uniform(-1.0, 1.0, size=2)
        rows.append((a, float(a @ mid + rng.uniform(0.1, 1.0))))
    beta = float(rng.uniform(0.0, 2.0))
    center = rng.uniform(-1.0, 3.0, size=2)
    ends = [mid, mid]
    quad_c, constant = folded_quad(np.full(2, beta), center, c)
    corners = np.array([[x, y] for x in (0.0, ub[0]) for y in (0.0, ub[1])])
    prog = program(speed_h=loose_speed_rows(ends, corners),
                   **one_free_slot(ends, mid, beta, quad_c, constant),
                   **box_rows(lb, ub, 3, [r[0] for r in rows], [r[1] for r in rows]))

    def value(x):
        return float(c @ x) - beta * float((x - center) @ (x - center))

    def feasible(x):
        tol = 1e-12
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            return False
        return all(float(a @ x) <= rhs + tol for a, rhs in rows)

    # hyperplanes: box faces and rows, as (normal, offset)
    planes = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        planes.append((e.copy(), float(lb[i])))
        planes.append((e.copy(), float(ub[i])))
    planes.extend((a.copy(), rhs) for a, rhs in rows)

    x_star = center + c / (2.0 * beta)
    candidates = [x_star]
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

    oracle, best = max((value(x), i) for i, x in enumerate(candidates) if feasible(x))
    assert inside_speed_rows(prog, candidates[best])
    return prog, oracle


def reciprocal_row_instance(rng):
    """One row a.x <= b kept feasible at the start, whose slack s carries
    the reciprocal term -k/(s + o), and quad terms, on the free slot; the
    ends' rows hold with slack 1 and carry no reciprocal term.

    In the coordinates y_i = sqrt(beta_i) (x_i - quad_c_i) the objective is
    -|y|^2 - k/(s + o), and the row names y only through its normal, so the
    optimum lies on the line along that normal through the quad centre: a
    1-D concave maximization over the line's feasible half. The speed rows
    hold around the part of the line the search covers.
    """
    start = rng.uniform(-1.0, 1.0, size=2)
    a = rng.uniform(-1.0, 1.0, size=2)
    b = float(a @ start + rng.uniform(0.1, 1.0))
    k, o = float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 1.0))
    beta = rng.uniform(0.1, 2.0, size=2)
    center = rng.uniform(-3.0, 3.0, size=2)
    ends = start + rng.uniform(-1.0, 1.0, size=(2, 2))

    # y = t a~/|a~|, a~ = a / sqrt(beta): the slack is s0 - t |a~|, so the row
    # holds for t <= s0/|a~|; below min(0, that) - sqrt(k/o) - 1, -t^2 alone
    # is below the value there
    norm = float(np.linalg.norm(a / np.sqrt(beta)))
    s0 = b - float(a @ center)
    hi = s0 / norm
    lo = min(0.0, hi) - np.sqrt(k / o) - 1.0

    def point(t):
        return center + t * (a / beta) / norm

    lin_a, lin_b = np.zeros((1, 3, 2)), np.ones((1, 3))
    lin_a[0, 1], lin_b[0, 1] = a, b
    lin_k = np.zeros((1, 3))
    lin_k[0, 1] = k
    prog = program(speed_h=loose_speed_rows(ends, [point(lo), point(hi), start]),
                   **one_free_slot(ends, start, beta, center),
                   lin_a=lin_a, lin_b=lin_b, lin_k=lin_k, lin_o=np.full((1, 3), o))

    def value(t):
        return -t * t - k / (np.maximum(s0 - t * norm, 0.0) + o)

    oracle, t_best = _grid_max_1d(value, lo, hi, stages=4, pts=40001)
    assert inside_speed_rows(prog, point(t_best))
    return prog, oracle


def speed_lens_instance(rng):
    """One free slot between two fixed ones, each a speed row away: the
    free point ranges over the lens where two discs meet, as a trajectory's
    inner slot does. Every slot has a quad term, one weight per slot, so the
    fixed ends add a constant.

    The lens is at least a fifth of the radii thick. The oracle is the quad
    centre if it lies in the lens, and otherwise the best point on the lens
    boundary: the arc of each circle that lies inside the other disc.
    """
    h = rng.uniform(0.5, 2.0, size=2)
    ends = rng.uniform(-1.0, 1.0, size=(2, 2))
    gap = rng.uniform(0.0, 0.8 * h.sum())
    angle = rng.uniform(0.0, 2.0 * np.pi)
    ends[1] = ends[0] + gap * np.array([np.cos(angle), np.sin(angle)])
    beta = rng.uniform(0.2, 2.0, size=3)[:, None].repeat(2, axis=1)
    center = rng.uniform(-3.0, 3.0, size=(3, 2))
    inner = ends[0] + h[0] / h.sum() * (ends[1] - ends[0])   # strictly inside both discs
    prog = program(np.array([ends[0], inner, ends[1]]), h, quad_c=center, quad_beta=beta)
    base = -float((beta[[0, 2]] * (ends - center[[0, 2]]) ** 2).sum())

    def value(x, y):
        return base - beta[1, 0] * (x - center[1, 0]) ** 2 - beta[1, 1] * (y - center[1, 1]) ** 2

    m = center[1]
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

        best = max(best, _grid_max_1d(on_arc, 0.0, 2.0 * np.pi, stages=4, pts=40001)[0])
    return prog, best


def norm_row_instance(rng):
    """The free slot in a shifted disc |x - center| <= r, linear + quad
    objective.

    The disc is the speed row from the first end, which holds ``center``;
    the speed row to the other end holds around the whole disc.
    """
    center = rng.uniform(-1.0, 1.0, size=2)
    r = float(rng.uniform(0.5, 2.0))
    c = rng.uniform(-2.0, 2.0, size=2)
    beta = float(rng.uniform(0.0, 1.5))
    qcen = rng.uniform(-2.0, 2.0, size=2)
    far = center + rng.uniform(-2.0, 2.0, size=2)
    quad_c, constant = folded_quad(np.full(2, beta), qcen, c)
    prog = program(speed_h=[r, float(np.linalg.norm(far - center)) + r + 1.0],
                   **one_free_slot([center, far], center, beta, quad_c, constant))

    def value(x, y):
        return c[0] * x + c[1] * y - beta * ((x - qcen[0]) ** 2 + (y - qcen[1]) ** 2)

    # interior stationary point of the concave objective, else the circle
    x_star = qcen + c / (2.0 * beta)
    if np.linalg.norm(x_star - center) <= r:
        best = x_star
    else:
        def on_circle(theta):
            return value(center[0] + r * np.cos(theta), center[1] + r * np.sin(theta))
        theta = _grid_max_1d(on_circle, 0.0, 2.0 * np.pi, stages=4, pts=40001)[1]
        best = center + r * np.array([np.cos(theta), np.sin(theta)])
    assert np.linalg.norm(best - far) < prog.speed_h[1]
    return prog, float(value(*best))


FAMILIES = (
    ("box-linear", box_linear_instance),
    ("reciprocal-row", reciprocal_row_instance),
    ("speed-lens", speed_lens_instance),
    ("norm-row", norm_row_instance),
)
