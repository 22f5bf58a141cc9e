"""Cross-validation of the dual-description kernel against independent oracles."""

import random

from liemoment.exactq import Q, qv, rank, vsub
from liemoment.polyhedra import (
    cone_from_rays,
    from_halfspaces,
    hull,
    intersect,
    shift,
    slice_subspace,
)

from oracles import in_hull, lp_feasible


def in_cone(rays, x):
    """LP oracle: is x a nonnegative combination of the rays?"""
    if not rays:
        return all(v == 0 for v in x)
    d = len(x)
    rows = [[rays[j][i] for j in range(len(rays))] for i in range(d)]
    return lp_feasible(rows, list(x))


def both_forms_consistent(p):
    """Every generator satisfies every halfspace; every facet is tight."""
    if p.empty:
        return
    for pt in p.points:
        assert p.contains(pt)
    for n, b in p.ineqs:
        assert all(sum(n[i] * r[i] for i in range(p.dim)) >= 0 for r in p.rays)
        assert all(sum(n[i] * l[i] for i in range(p.dim)) == 0 for l in p.lines)
        tight_pts = [pt for pt in p.points
                     if sum(n[i] * pt[i] for i in range(p.dim)) == b]
        assert tight_pts, "facet not tight on any canonical point"
        # the tight face spans one dimension less than the polyhedron
        base = tight_pts[0]
        spanning = [vsub(pt, base) for pt in tight_pts[1:]]
        spanning += [r for r in p.rays
                     if sum(n[i] * r[i] for i in range(p.dim)) == 0]
        spanning += list(p.lines)
        own = [vsub(pt, p.points[0]) for pt in p.points[1:]]
        own += list(p.rays) + list(p.lines)
        dim_p = rank(tuple(qv(r) for r in own)) if own else 0
        dim_face = rank(tuple(qv(r) for r in spanning)) if spanning else 0
        assert dim_face == dim_p - 1, "halfspace is not a facet"
    for n, b in p.eqs:
        for pt in p.points:
            assert sum(n[i] * pt[i] for i in range(p.dim)) == b
        for r in list(p.rays) + list(p.lines):
            assert sum(n[i] * r[i] for i in range(p.dim)) == 0


def test_consistency_fixed_examples():
    examples = [
        hull([qv([0, 0]), qv([1, 0]), qv([0, 1]), qv([1, 1])]),
        hull([qv([1, 2])]),
        hull([qv([0, 0, 0]), qv([1, 1, 0]), qv([2, 0, 1])]),
        cone_from_rays([qv([1, 0]), qv([1, 2])]),
        cone_from_rays([qv([1, 0, 0]), qv([0, 1, 0]), qv([0, 0, 1]), qv([1, 1, 1])]),
        from_halfspaces(2, [(qv([1, 0]), Q(-1)), (qv([-1, 0]), Q(-1))]),
        from_halfspaces(3, [(qv([1, 0, 0]), Q(0))], [(qv([0, 0, 1]), Q(2))]),
    ]
    for p in examples:
        both_forms_consistent(p)


def test_random_hulls_match_lp_oracle_3d():
    rng = random.Random(42)
    for _ in range(12):
        pts = [qv([Q(rng.randint(-6, 6), rng.choice((1, 2)))
                   for _ in range(3)]) for _ in range(rng.randint(4, 9))]
        p = hull(pts)
        both_forms_consistent(p)
        for _ in range(60):
            x = qv([Q(rng.randint(-14, 14), 2) for _ in range(3)])
            assert p.contains(x) == in_hull(pts, x)
    # larger planar sets: many interior and collinear points, one DD path
    for _ in range(6):
        pts = [qv([Q(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2)])
               for _ in range(rng.randint(9, 40))]
        p = hull(pts)
        both_forms_consistent(p)
        for _ in range(40):
            x = qv([Q(rng.randint(-14, 14), 2) for _ in range(2)])
            assert p.contains(x) == in_hull(pts, x)


def test_random_cones_match_lp_oracle():
    rng = random.Random(17)
    for trial in range(12):
        d = 3 if trial < 8 else 4
        rays = [qv([rng.randint(-3, 3) for _ in range(d)])
                for _ in range(rng.randint(2, 6))]
        c = cone_from_rays(rays, d)
        both_forms_consistent(c)
        for _ in range(40):
            x = qv([Q(rng.randint(-9, 9), 3) for _ in range(d)])
            assert c.contains(x) == in_cone(rays, x)


def test_random_halfspace_systems_round_trip():
    rng = random.Random(23)
    for _ in range(15):
        d = rng.choice((2, 3))
        ineqs = []
        for _ in range(rng.randint(2, 6)):
            n = qv([rng.randint(-3, 3) for _ in range(d)])
            ineqs.append((n, Q(rng.randint(-4, 1))))
        p = from_halfspaces(d, ineqs)
        if p.empty:
            # infeasibility must agree with the LP oracle on slack form:
            # A x >= b infeasible <=> no x, s >= 0 with A(x+ - x-) - s = b
            rows = []
            rhs = []
            m = len(ineqs)
            for idx, (n, b) in enumerate(ineqs):
                row = list(n) + [-v for v in n]
                row += [Q(-1) if j == idx else Q(0) for j in range(m)]
                rows.append(row)
                rhs.append(b)
            assert not lp_feasible(rows, rhs)
            continue
        both_forms_consistent(p)
        # membership in the original system equals canonical membership
        for _ in range(40):
            x = qv([Q(rng.randint(-10, 10), 2) for _ in range(d)])
            direct = all(sum(n[i] * x[i] for i in range(d)) >= b for n, b in ineqs)
            assert p.contains(x) == direct


def test_intersections_preserve_membership():
    rng = random.Random(31)
    for _ in range(10):
        a = hull([qv([rng.randint(-5, 5), rng.randint(-5, 5)]) for _ in range(5)])
        b = hull([qv([rng.randint(-5, 5), rng.randint(-5, 5)]) for _ in range(5)])
        c = intersect(a, b)
        for _ in range(40):
            x = qv([Q(rng.randint(-10, 10), 2), Q(rng.randint(-10, 10), 2)])
            assert c.contains(x) == (a.contains(x) and b.contains(x))


def test_shift_slice_membership():
    rng = random.Random(37)
    box = hull([qv([0, 0, 0]), qv([4, 0, 0]), qv([0, 4, 0]), qv([4, 4, 0]),
                qv([0, 0, 4]), qv([4, 0, 4]), qv([0, 4, 4]), qv([4, 4, 4])])
    moved = shift(box, qv([-1, -2, 0]))
    basis = [qv([1, 0, 0]), qv([0, 1, 1])]
    sl = slice_subspace(moved, basis)
    for _ in range(120):
        c = qv([Q(rng.randint(-8, 8), 2), Q(rng.randint(-8, 8), 2)])
        ambient = tuple(c[0] * basis[0][i] + c[1] * basis[1][i] for i in range(3))
        assert sl.contains(c) == moved.contains(ambient)


def test_higher_dimensional_cones_and_hulls():
    rng = random.Random(53)
    for d in (5, 6):
        rays = [qv([rng.randint(-2, 2) for _ in range(d)]) for _ in range(d + 2)]
        c = cone_from_rays(rays, d)
        both_forms_consistent(c)
        for _ in range(25):
            x = qv([Q(rng.randint(-6, 6), 2) for _ in range(d)])
            assert c.contains(x) == in_cone(rays, x)
    pts = [qv([rng.randint(-3, 3) for _ in range(4)]) for _ in range(9)]
    p = hull(pts)
    both_forms_consistent(p)
    for _ in range(60):
        x = qv([Q(rng.randint(-8, 8), 2) for _ in range(4)])
        assert p.contains(x) == in_hull(pts, x)
