"""Independent exact oracles used only by the test suite.

The membership oracle decides x in hull(points) by solving the convex-
combination feasibility problem with a phase-1 simplex over exact
rationals (Bland's rule, so it terminates).  It shares no code with the
double-description path it cross-checks.
"""

from liemoment.exactq import Q


def lp_feasible(rows, rhs):
    """Whether {x >= 0 : A x = b} is nonempty, exactly."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    for i in range(m):
        row = [Q(v) for v in rows[i]]
        b = Q(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [Q(1) if j == i else Q(0) for j in range(m)]
        tableau.append(row + art + [b])
    basis = [n + i for i in range(m)]

    width = n + m + 1
    zrow = [Q(0)] * width
    for i in range(m):
        for j in range(width):
            zrow[j] += tableau[i][j]
    for k in range(m):
        zrow[n + k] -= 1

    while True:
        enter = None
        for j in range(n + m):
            if zrow[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return False
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        prow = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                c = tableau[i][enter]
                tableau[i] = [v - c * p for v, p in zip(tableau[i], prow)]
        c = zrow[enter]
        zrow = [v - c * p for v, p in zip(zrow, prow)]
        basis[leave] = enter

    return zrow[-1] == 0


def in_hull(points, x):
    """Exact LP membership: is x a convex combination of the points?"""
    d = len(x)
    n = len(points)
    rows = [[points[j][i] for j in range(n)] for i in range(d)]
    rows.append([Q(1)] * n)
    rhs = list(x) + [Q(1)]
    return lp_feasible(rows, rhs)


def reflection_closure(simple_roots, lam):
    """Weyl orbit of lam: the closure of {lam} under the simple reflections
    s_i(v) = v - v_i alpha_i, on Fraction vectors, in no particular order.
    It walks in every direction and shares no code with rootsys.weyl_orbit."""
    start = tuple(Q(x) for x in lam)
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for i, alpha in enumerate(simple_roots):
            w = tuple(x - v[i] * a for x, a in zip(v, alpha))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen
