import random

import pytest

from liemoment.errors import DomainError, ShapeError
from liemoment.exactq import Q, qv, vzero
from liemoment import polyhedra
from liemoment.polyhedra import (
    cone_from_rays,
    empty_polyhedron,
    from_generators,
    from_halfspaces,
    from_json,
    hull,
    hull_vertices_cut,
    intersect,
    shift,
    slice_subspace,
    to_json,
)
from liemoment.momentum import (
    momentum_polytope_projective,
    projective_closure_polytope,
    recover_cone,
)
from liemoment.rootsys import build, weyl_orbit

from oracles import in_hull, lp_feasible


T2 = build("T2")


def square(a=0, b=1):
    return hull([qv([a, a]), qv([a, b]), qv([b, a]), qv([b, b])])


def test_hull_drops_interior_point():
    p = hull([qv([0, 0]), qv([1, 0]), qv([0, 1]), qv([1, 1]), qv(["1/2", "1/2"])])
    assert p.points == (qv([0, 0]), qv([0, 1]), qv([1, 0]), qv([1, 1]))
    assert len(p.ineqs) == 4


def test_hull_single_point():
    p = hull([qv([1, 2])])
    assert p.points == (qv([1, 2]),)
    assert len(p.eqs) == 2  # halfspace pairs pin the point
    assert p.contains(qv([1, 2]))
    assert not p.contains(qv([1, 3]))


def test_hull_orbit_hexagon():
    rs = build("A2")
    orbit = weyl_orbit(rs, qv([1, 2]))
    p = hull(list(orbit))
    assert set(p.points) == set(orbit)
    assert len(p.ineqs) == 6


def test_hull_errors():
    with pytest.raises(DomainError):
        hull([])
    with pytest.raises(ShapeError):
        hull([qv([1]), qv([1, 2])])


def test_cone_from_rays():
    c = cone_from_rays([qv([1, 0]), qv([1, 1]), qv([1, 2])])
    assert c.rays == (qv([1, 0]), qv([1, 2]))
    assert c.points == (qv([0, 0]),)
    origin = cone_from_rays([], dim=2)
    assert origin.points == (vzero(2),) and not origin.rays
    line = cone_from_rays([qv([1, 0]), qv([-1, 0])])
    assert line.lines == (qv([1, 0]),) and not line.rays


def test_rays_primitive_integer():
    c = cone_from_rays([qv(["2/3", "4/3"]), qv(["5", "0"])])
    assert c.rays == (qv([1, 0]), qv([1, 2]))


def test_kernel_ints_inside_fractions_outside():
    from fractions import Fraction
    rays, lines = polyhedra._dd_cone(
        [qv(["1/2", "1/3", 0]), qv([0, "-2/5", "3/7"]), qv([0, 0, 1])], 3)
    assert rays or lines
    for v in rays + lines:
        assert isinstance(v, tuple) and all(type(x) is int for x in v)
    polys = [
        from_generators(2, [qv(["1/2", "1/3"]), qv(["-5/7", 2]), qv([0, "9/4"])]),
        from_generators(3, [qv(["1/3", 0, 1])], [qv([1, 1, 0])], [qv(["2/3", 0, "1/3"])]),
        from_halfspaces(3, [(qv([1, 0, 0]), Q(-1, 2)), (qv([0, 1, 0]), Q(0))],
                        [(qv(["1/3", 0, 1]), Q(1, 5))]),
        from_halfspaces(2, [(qv([1, 0]), Q(1)), (qv([-1, 0]), Q(0))]),
    ]
    assert not polys[2].empty and polys[2].eqs and polys[1].lines
    assert polys[3].empty
    for p in polys:
        scalars = [x for v in p.points + p.rays + p.lines for x in v]
        for n, b in p.ineqs + p.eqs:
            scalars.extend(n + (b,))
        assert all(type(x) is Fraction for x in scalars)


def test_dd_round_trip():
    polys = [
        square(),
        cone_from_rays([qv([1, 0]), qv([1, 2])]),
        hull([qv([1, 2])]),
        from_halfspaces(2, [(qv([1, 0]), Q(0))]),
        from_halfspaces(3, []),
        empty_polyhedron(2),
        hull([qv([0, 0, 0]), qv([1, 0, 0]), qv([0, 1, 0]), qv([0, 0, 1])]),
    ]
    for p in polys:
        assert from_generators(p.dim, p.points, p.rays, p.lines) == p
        if not p.empty:
            assert from_halfspaces(p.dim, p.ineqs, p.eqs) == p


def test_dd_convert_examples():
    c = cone_from_rays([qv([1, 0]), qv([1, 1])])
    assert set(c.ineqs) == {(qv([0, 1]), Q(0)), (qv([1, -1]), Q(0))}
    sq = from_halfspaces(2, [
        (qv([1, 0]), Q(0)), (qv([-1, 0]), Q(-1)),
        (qv([0, 1]), Q(0)), (qv([0, -1]), Q(-1)),
    ])
    assert sq == square()
    fs = from_halfspaces(2, [])
    assert len(fs.lines) == 2 and not fs.ineqs


def test_intersect():
    rect = intersect(square(), from_halfspaces(2, [(qv([1, 0]), Q(1, 2))]))
    assert rect.points == (qv(["1/2", 0]), qv(["1/2", 1]), qv([1, 0]), qv([1, 1]))
    sector = intersect(cone_from_rays([qv([1, 0]), qv([0, 1])]),
                       cone_from_rays([qv([1, 1]), qv([-1, 1])]))
    assert sector.rays == (qv([0, 1]), qv([1, 1]))
    assert intersect(hull([qv([0, 0])]), hull([qv([2, 2])])).empty
    with pytest.raises(ShapeError):
        intersect(square(), from_halfspaces(3, []))


def test_intersect_commutative_associative():
    a = square(0, 2)
    b = shift(square(0, 2), qv([1, 0]))
    c = from_halfspaces(2, [(qv([0, 1]), Q(1, 2))])
    assert intersect(a, b) == intersect(b, a)
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


def test_join_with_origin():
    # the closure's polytope is the hull of the divisor's with the origin
    tri = projective_closure_polytope(T2, hull([qv([1, 2]), qv([2, 1])]))
    assert tri.points == (qv([0, 0]), qv([1, 2]), qv([2, 1]))
    p = hull([qv([-1, 0]), qv([1, 0]), qv([0, 1]), qv([0, -1])])
    assert projective_closure_polytope(T2, p) == p  # idempotent when 0 is inside
    with pytest.raises(DomainError):
        projective_closure_polytope(T2, cone_from_rays([qv([1, 0])]))


def test_cone_over():
    assert recover_cone(hull([qv([1, 1])])).rays == (qv([1, 1]),)
    c = recover_cone(hull([qv([0, 0]), qv([1, 0]), qv([1, 2])]))
    assert c.rays == (qv([1, 0]), qv([1, 2]))  # origin vertex absorbed
    quad = recover_cone(hull([qv([1, 0]), qv([0, 1])]))
    assert quad.rays == (qv([0, 1]), qv([1, 0]))
    assert recover_cone(empty_polyhedron(2)) == cone_from_rays([], 2)
    with pytest.raises(DomainError):
        recover_cone(cone_from_rays([qv([1, 0])]))


def test_cone_over_join_identity():
    for p in (hull([qv([1, 2]), qv([2, 1])]), square(1, 2),
              hull([qv([1, 0]), qv([0, 1])])):
        assert recover_cone(projective_closure_polytope(T2, p)) == recover_cone(p)


def test_shift_and_slice():
    sh = shift(square(0, 2), qv([0, -1]))
    assert sh.points == (qv([0, -1]), qv([0, 1]), qv([2, -1]), qv([2, 1]))
    interval = slice_subspace(sh, [qv([1, 0])])
    assert interval.points == (qv([0]), qv([2]))
    assert slice_subspace(empty_polyhedron(2), [qv([1, 0])]).empty
    with pytest.raises(DomainError):
        slice_subspace(sh, [qv([1, 0]), qv([2, 0])])


def test_is_proper_and_contains():
    # a cone is proper when it holds no line
    assert not cone_from_rays([qv([1, 0]), qv([0, 1])]).lines
    assert cone_from_rays([qv([1, 0]), qv([-1, 0])]).lines
    quad = cone_from_rays([qv([1, 0]), qv([0, 1])])
    assert quad.contains(qv(["3/2", 0]))  # boundary counts


def test_equal_invariant_under_permutation():
    a = hull([qv([0, 0]), qv([2, 0]), qv([0, 2])])
    b = hull([qv([0, 2]), qv([0, 0]), qv([2, 0])])
    assert a == b
    assert a != shift(a, qv([1, 0]))


def test_empty_polyhedron_first_class():
    e = empty_polyhedron(2)
    assert e.empty and not e.contains(qv([0, 0]))
    assert intersect(e, square()).empty
    infeasible = from_halfspaces(1, [(qv([1]), Q(1)), (qv([-1]), Q(0))])
    assert infeasible.empty


def test_degenerate_polyhedra_carry_equalities():
    seg = hull([qv([0, 0, 0]), qv([1, 1, 0])])
    assert len(seg.eqs) == 2
    assert seg.contains(qv(["1/2", "1/2", 0]))
    assert not seg.contains(qv(["1/2", "1/2", "1/7"]))


def test_json_round_trip():
    for p in (square(), cone_from_rays([qv([1, 0]), qv([-1, 0])]),
              empty_polyhedron(3), hull([qv([1, 2])]),
              from_halfspaces(2, [(qv([1, 0]), Q(0))])):
        assert from_json(to_json(p)) == p


def test_hull_membership_against_lp_oracle_small():
    rng = random.Random(21)
    for _ in range(4):
        pts = [qv([rng.randint(-4, 4), rng.randint(-4, 4)]) for _ in range(6)]
        p = hull(pts)
        for _ in range(50):
            x = qv([Q(rng.randint(-12, 12), 3), Q(rng.randint(-12, 12), 3)])
            assert p.contains(x) == in_hull(pts, x)


def test_line_basis_out_of_rref_order():
    # RREF rows (1,0,-1), (0,1,1) are stored in the reverse, lex order
    p = from_generators(3, [vzero(3)], [qv([1, 0, 0])], [qv([1, 1, 0]), qv([0, 1, 1])])
    assert p.lines == (qv([0, 1, 1]), qv([1, 0, -1]))
    assert p.rays == (qv([0, 0, 1]),)
    assert p.ineqs == ((qv([1, -1, 1]), Q(0)),)


def test_at_most_two_dd_passes_per_conversion(monkeypatch):
    calls = []
    real = polyhedra._dd_cone

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_dd_cone", counting)
    conversions = [
        lambda: square(),
        lambda: from_generators(3, [vzero(3)], [qv([1, 0, 0])], [qv([1, 1, 0])]),
        lambda: from_generators(3, [qv([1, 2, 0]), qv([1, 2, 0])]),
        lambda: from_halfspaces(2, [(qv([1, 0]), Q(0))]),
        lambda: from_halfspaces(1, [(qv([1]), Q(1)), (qv([-1]), Q(0))]),
        lambda: from_halfspaces(2, [], [(qv([1, 1]), Q(2))]),
    ]
    for convert in conversions:
        del calls[:]
        convert()
        assert 1 <= len(calls) <= 2


def test_hull_vertices_cut_matches_intersect(monkeypatch):
    """Two DD passes give the vertices of intersect(cuts, hull(points))."""
    calls = []
    real = polyhedra._dd_cone

    def counting(*args):
        calls.append(args)
        return real(*args)

    rng = random.Random(17)
    nonempty = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        pts = [tuple(Q(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(dim))
               for _ in range(rng.randint(1, 9))]
        cuts = [(tuple(Q(rng.randint(-2, 2)) for _ in range(dim)), Q(rng.randint(-3, 2)))
                for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.2:  # the chamber rows of a rank-dim group
            cuts = [(tuple(Q(int(i == j)) for j in range(dim)), Q(0)) for i in range(dim)]
        monkeypatch.setattr(polyhedra, "_dd_cone", counting)
        del calls[:]
        verts = hull_vertices_cut(pts, cuts)
        assert len(calls) == 2
        monkeypatch.setattr(polyhedra, "_dd_cone", real)
        assert verts == intersect(from_halfspaces(dim, cuts), hull(pts)).points
        assert all(isinstance(x, Q) for v in verts for x in v)
        nonempty += bool(verts)
        for v in verts:
            assert in_hull(pts, v)
            assert all(sum(a * x for a, x in zip(n, v)) >= b for n, b in cuts)
    assert nonempty > 75


def test_combine_calls_bounded_on_greedy_cover(monkeypatch):
    """Lexicographic insertion keeps the DD kernel's new-ray count down.

    Inserting the constraints in input order made 14,285 combinations for
    projective C3 (2,1,2); the lexmin order makes 7,182.
    """
    calls = [0]
    real = polyhedra._combine

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(polyhedra, "_combine", counting)
    momentum_polytope_projective(build("C3"), [qv([2, 1, 2])])
    assert calls[0] <= 7500


def _cone_key(rays, lines):
    """Rays reduced modulo the canonical line basis, with that basis."""
    basis = polyhedra._canonical_lines([qv(l) for l in lines])
    reduced = set()
    for r in rays:
        v = polyhedra._reduce_mod(qv(r), basis)
        if any(v):
            reduced.add(polyhedra._primitive(v))
    return reduced, basis


def test_dd_cone_independent_of_constraint_order():
    """A shuffled constraint list gives the same rays and line span,
    and the cone they generate is {x : a.x >= 0} by the LP oracle."""
    rng = random.Random(8)
    with_lines = pointed = 0
    for _ in range(200):
        dim = rng.randint(2, 5)
        cons = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, dim + 4))]
        for a in list(cons):
            roll = rng.random()
            if roll < 0.15:
                cons.append(a)  # a duplicate
            elif roll < 0.3:
                cons.append(tuple(Q(2 * x, 3) for x in a))  # a rational multiple
            elif roll < 0.45:
                cons.append(tuple(-x for x in a))  # an equality
        rays, lines = polyhedra._dd_cone(cons, dim)
        key = _cone_key(rays, lines)
        for _ in range(3):
            shuffled = cons[:]
            rng.shuffle(shuffled)
            assert _cone_key(*polyhedra._dd_cone(shuffled, dim)) == key
        with_lines += bool(lines)
        pointed += not lines and bool(rays)
        gens = list(rays) + list(lines) + [tuple(-x for x in l) for l in lines]
        for _ in range(4):
            x = [rng.randint(-3, 3) for _ in range(dim)]
            inside = all(sum(a_i * x_i for a_i, x_i in zip(a, x)) >= 0 for a in cons)
            if gens:
                rows = [[g[i] for g in gens] for i in range(dim)]
                assert lp_feasible(rows, x) == inside
            else:
                assert inside == (not any(x))
    assert with_lines > 40 and pointed > 40
