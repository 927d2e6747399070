"""Randomized small programs with grid-search oracles for solver testing.

Each generator returns (program, oracle_value). Instances are built around a
known strictly feasible start and kept at 1-2 coupled variables per block so
a staged grid refinement pins the optimum to ~1e-6.
"""

import numpy as np

from uavsec.surrogate import StructuredConvexProgram


def program(n, **fields):
    """Program on n variables: every family not given in ``fields`` is empty,
    boxes are infinite, the objective is zero and the start is the origin.
    Unless given, the linear rows carry no reciprocal terms."""
    kw = dict(lb=np.full(n, -np.inf), ub=np.full(n, np.inf), c=np.zeros(n),
              start=np.zeros(n), layout={})
    kw.update(fields)
    if "lin_b" in kw:
        kw.setdefault("lin_k", np.zeros(kw["lin_b"].size))
        kw.setdefault("lin_o", np.ones(kw["lin_b"].size))
    return StructuredConvexProgram(n=n, **kw)


def dense_rows(A, b):
    """Linear-row fields for the rows A x <= b, each row naming every
    coordinate."""
    A = np.asarray(A, dtype=float)
    return dict(lin_i=np.tile(np.arange(A.shape[1]), (A.shape[0], 1)), lin_a=A,
                lin_b=np.asarray(b, dtype=float))


def bisection_water_fill(prog):
    """The water-filling point of a power program (see ``solver.water_fill``)
    with the budget's multiplier found by plain bisection between 0 and
    max(alpha*a + c) until the bracket stops shrinking: the reference that
    ``water_fill`` must match float for float."""
    alpha, a, c = prog.log_alpha, prog.log_a, prog.c
    budget = prog.lin_b[0]

    def point(lam):
        return np.clip(alpha / (lam - c) - 1.0 / a, 0.0, prog.ub)

    lo, hi = 0.0, float(np.max(alpha * a + c))
    if np.sum(point(lo)) <= budget:
        hi = lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.sum(point(mid)) <= budget:
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
        span = (hi - lo) / (pts - 1) * 4.0
        lo, hi = max(lo, best_x - span), min(hi, best_x + span)
    return best


def box_linear_instance(rng):
    """1-2 vars, boxes, a couple of linear rows kept feasible at the midpoint.

    The oracle enumerates every KKT candidate exactly: polytope vertices,
    edge-restricted stationary points, and (for the quadratic case) the
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
    quad = dict(quad_i=np.arange(n), quad_c=center, quad_beta=np.full(n, beta)) if beta > 0 else {}
    prog = program(n, lb=lb, ub=ub, c=c, start=mid, **quad,
                   **dense_rows([r[0] for r in rows], [r[1] for r in rows]))

    def value(x):
        val = float(c @ x)
        if beta > 0:
            val -= beta * float((x - center) @ (x - center))
        return val

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

    candidates = []
    if n == 1:
        candidates.extend(np.array([off / nv[0]]) for nv, off in planes if nv[0] != 0.0)
        if beta > 0:
            candidates.append(center + c / (2.0 * beta))
    else:
        for i in range(len(planes)):
            for j in range(i + 1, len(planes)):
                M = np.array([planes[i][0], planes[j][0]])
                rhs = np.array([planes[i][1], planes[j][1]])
                if abs(np.linalg.det(M)) < 1e-12:
                    continue
                candidates.append(np.linalg.solve(M, rhs))
        if beta > 0:
            candidates.append(center + c / (2.0 * beta))
            # stationary point restricted to each hyperplane
            for nv, off in planes:
                x_star = center + c / (2.0 * beta)
                nn = float(nv @ nv)
                candidates.append(x_star - nv * ((float(nv @ x_star) - off) / nn))

    oracle = max(value(x) for x in candidates if feasible(x))
    return prog, oracle


def log_objective_instance(rng):
    """1 var: alpha*log(1+a*x) + c*x on a box; classic rate/price tradeoff."""
    alpha = float(rng.uniform(0.2, 3.0))
    a = float(rng.uniform(1.0, 200.0))
    cgrow = float(-rng.uniform(0.5, 30.0))
    hi = float(rng.uniform(0.05, 1.0))
    prog = program(
        1, lb=np.array([0.0]), ub=np.array([hi]), c=np.array([cgrow]),
        log_i=np.array([0]), log_a=np.array([a]), log_alpha=np.array([alpha]),
        start=np.array([hi / 2.0]),
    )
    oracle = _grid_max_1d(lambda x: alpha * np.log(1.0 + a * x) + cgrow * x, 0.0, hi)
    return prog, oracle


def hyperbolic_instance(rng):
    """2 vars u, l with u*l >= k; linear objective pushing into the corner."""
    k = float(rng.uniform(0.5, 4.0))
    l_hi = float(rng.uniform(1.5, 4.0))
    u_hi = float(rng.uniform(k / l_hi + 1.0, 8.0))
    cu = float(-rng.uniform(0.2, 2.0))
    cl = float(rng.uniform(-1.0, 1.0))
    lb = np.zeros(2)
    ub = np.array([u_hi, l_hi])
    l0 = 0.75 * l_hi
    u0 = 0.5 * (k / l0 + u_hi)   # strictly between k/l0 and the box top
    start = np.array([u0, l0])
    assert k / l0 < u0 < u_hi and u0 * l0 > k
    prog = program(
        2, lb=lb, ub=ub, c=np.array([cu, cl]),
        hyper_i=np.array([0]), hyper_j=np.array([1]), hyper_k=np.array([k]), start=start,
    )

    # cu < 0 pins u on the boundary u = k/l, leaving a 1-D problem over l
    def value_of_l(l):
        return cu * (k / l) + cl * l

    oracle = _grid_max_1d(value_of_l, k / u_hi, l_hi, stages=4, pts=40001)
    return prog, oracle


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
    quad = dict(quad_i=np.arange(2), quad_c=qcen, quad_beta=np.full(2, beta)) if beta > 0 else {}
    prog = program(
        4, c=np.concatenate([c, np.zeros(2)]),
        speed_i=np.array([[2, 3]]), speed_j=np.array([[0, 1]]), speed_h=np.array([r]),
        fixed_idx=np.array([2, 3]), fixed_val=center.copy(), start=np.tile(center, 2),
        **quad,
    )

    def value(x, y):
        val = c[0] * x + c[1] * y
        if beta > 0:
            val = val - beta * ((x - qcen[0]) ** 2 + (y - qcen[1]) ** 2)
        return val

    if beta > 0:
        # interior stationary point of the concave objective, else the circle
        x_star = qcen + c / (2.0 * beta)
        if np.linalg.norm(x_star - center) <= r:
            oracle = float(value(*x_star))
        else:
            def on_circle(theta):
                return value(center[0] + r * np.cos(theta), center[1] + r * np.sin(theta))
            oracle = _grid_max_1d(on_circle, 0.0, 2.0 * np.pi, stages=4, pts=40001)
    else:
        # pure linear objective over a disc has the closed-form optimum
        oracle = float(c @ center) + r * float(np.linalg.norm(c))
    return prog, oracle


FAMILIES = (
    ("box-linear", box_linear_instance),
    ("log-objective", log_objective_instance),
    ("hyperbolic", hyperbolic_instance),
    ("norm-row", norm_row_instance),
)
