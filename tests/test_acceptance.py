"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All assertions are exact (tolerance 0); the only tolerances are the
stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from liemoment.exactq import Q, qv, vneg
from liemoment.momentum import (
    CASE_FULL_TORUS,
    CASE_SUBTORUS,
    LocalConeSpec,
    affine_cone_from_hw,
    assemble_polytope,
    chamber,
    cotangent_homogeneous,
    local_cone,
    lower_bound_projective,
    momentum_polytope_projective,
    projective_closure_polytope,
    recover_cone,
    reduce_polytope,
    upper_bound_projective,
    vertex_condition,
)
from liemoment.polyhedra import (
    cone_from_rays,
    empty_polyhedron,
    from_generators,
    from_halfspaces,
    hull,
    intersect,
    is_proper,
    shift,
)
from liemoment.repweights import dim, irrep_weights
from liemoment.rootsys import build, star, weyl_orbit

from oracles import in_hull

_DURATIONS = {}


@contextmanager
def criterion(num, budget, desc):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE criterion %s FAIL (%.2fs): %s"
              % (num, time.monotonic() - t0, desc))
        raise
    elapsed = time.monotonic() - t0
    _DURATIONS[num] = elapsed
    print("ACCEPTANCE criterion %s PASS (%.2fs): %s" % (num, elapsed, desc))
    assert elapsed < budget, "criterion %s exceeded its %.0fs budget" % (num, budget)


def orbit_hull_in_chamber(rs, lam):
    return intersect(chamber(rs), hull(list(weyl_orbit(rs, star(rs, lam)))))


def test_criterion_1_su4_vertices():
    with criterion(1, 5.0, "SU(4) rho-twisted polytope has the nine stated vertices"):
        a3 = build("A3")
        ans = momentum_polytope_projective(a3, [qv([1, 1, 1])])
        assert ans.exact is not None
        expected = {
            qv([1, 1, 1]), qv([0, 0, 0]), qv([2, 0, 0]), qv([0, 2, 0]), qv([0, 0, 2]),
            qv(["4/3", 1, 0]), qv([0, 1, "4/3"]),
            qv([1, 0, "5/3"]), qv(["5/3", 0, 1]),
        }
        assert set(ans.exact.points) == expected


def test_criterion_2_su3_trimmed_corner():
    with criterion(2, 1.0, "SU(3) lambda=(2,1): exact region vs naive orbit hull "
                           "differ exactly at the trimmed corner"):
        a2 = build("A2")
        lam = qv([2, 1])
        ans = momentum_polytope_projective(a2, [lam])
        dark = {qv([0, 0]), qv([2, 0]), qv([1, 2]), qv([0, 2])}
        assert ans.exact is not None and set(ans.exact.points) == dark
        light = orbit_hull_in_chamber(a2, lam)
        assert set(light.points) == {qv([0, 0]), qv([2, 0]), qv([1, 2]), qv([0, "5/2"])}
        assert set(light.points) - set(ans.exact.points) == {qv([0, "5/2"])}
        assert set(ans.exact.points) - set(light.points) == {qv([0, 2])}
        assert light.contains_polyhedron(ans.exact)


def test_criterion_3_g2_adjoint_triangle():
    with criterion(3, 1.0, "G2 adjoint: exact region is the triangle {0, pi1, pi2}"):
        g2 = build("G2")
        ans = momentum_polytope_projective(g2, [qv([0, 1])])
        assert ans.exact is not None
        assert set(ans.exact.points) == {qv([0, 0]), qv([1, 0]), qv([0, 1])}


def test_criterion_4_unit_pairing_sweep():
    with criterion(4, 60.0, "rank-2 sweep: untrimmed weights close the sandwich, "
                            "unit simple pairings shrink the polytope strictly"):
        for name in ("A2", "B2", "G2"):
            rs = build(name)
            for coords in product(range(4), repeat=2):
                lam = qv(coords)
                trims = [a for a in rs.positive_roots
                         if rs.coroot_pairing(a, lam) == 1]
                unit_simple = any(lam[i] == 1 for i in range(2))
                # trimming over all positive roots reduces to the simple test
                assert bool(trims) == unit_simple, (name, coords)
                light = orbit_hull_in_chamber(rs, lam)
                if not trims:
                    lo = lower_bound_projective(rs, irrep_weights(rs, lam))
                    up = upper_bound_projective(rs, lam)
                    assert lo == up == light, (name, coords)
                if unit_simple:
                    ans = momentum_polytope_projective(rs, [lam])
                    assert ans.exact is not None, (name, coords)
                    assert light.contains_polyhedron(ans.exact), (name, coords)
                    assert ans.exact != light, (name, coords)


def test_criterion_5_group_variety_examples():
    with criterion(5, 30.0, "group-variety momentum cones: antidiagonal, its "
                            "diagonal reduction, and the basepoint-free chamber"):
        kk = build("A2xA2")
        gens = [qv([1, 0, 0, 1]), qv([0, 1, 1, 0])]
        anti = affine_cone_from_hw(kk, gens)
        expected = from_halfspaces(
            4,
            [(qv([1, 0, 0, 0]), Q(0)), (qv([0, 1, 0, 0]), Q(0))],
            [(qv([1, 0, 0, -1]), Q(0)), (qv([0, 1, -1, 0]), Q(0))],
        )
        assert anti == expected
        a2 = build("A2")
        assert reduce_polytope(kk, anti, qv([0, 0, 0, 0]), gens) == chamber(a2)
        assert affine_cone_from_hw(a2, [qv([1, 0]), qv([0, 1])]) == chamber(a2)
        simplex = projective_closure_polytope(a2, hull([qv([1, 0]), qv([0, 1])]))
        assert simplex == hull([qv([0, 0]), qv([1, 0]), qv([0, 1])])


def test_criterion_6_torus_parallelepipeds():
    with criterion(6, 10.0, "torus embeddings: sign-vector parallelepipeds with "
                            "full-space recovered cones"):
        for k in (1, 2, 3):
            tk = build("T%d" % k)
            corners = [qv(s) for s in product((1, -1), repeat=k)]
            infinity = hull(corners)
            closure = projective_closure_polytope(tk, infinity)
            assert closure == infinity
            assert recover_cone(closure) == from_halfspaces(k, [])


def test_criterion_7_cotangent_formulas():
    with criterion(7, 10.0, "cotangent momentum cones: chamber for the torus "
                            "quotient and for rank-2 walls, maximal-root ray for SU(n)"):
        for name in ("A2", "B2", "G2"):
            rs = build(name)
            ans = cotangent_homogeneous(rs, [])
            assert ans.exact == chamber(rs)
        for name in ("B2", "G2"):
            rs = build(name)
            for wall in ([qv([1, 0])], [qv([0, 1])]):
                ans = cotangent_homogeneous(rs, wall)
                assert ans.exact == chamber(rs)
        a2, a3 = build("A2"), build("A3")
        assert cotangent_homogeneous(a2, [qv([1, 0])]).exact == \
            cone_from_rays([qv([1, 1])])
        assert cotangent_homogeneous(a3, [qv([1, 0, 0])]).exact == \
            cone_from_rays([qv([1, 0, 1])])


def _suite_dd_round_trip():
    a2 = build("A2")
    polys = [
        chamber(a2),
        orbit_hull_in_chamber(a2, qv([2, 1])),
        hull([qv([1, 2])]),
        cone_from_rays([qv([1, 0]), qv([-1, 0])]),
        from_halfspaces(2, [(qv([1, 0]), Q(-1)), (qv([-1, 0]), Q(-1))]),
        from_halfspaces(3, []),
        empty_polyhedron(2),
        chamber(build("A3")),
        hull([qv([0, 0, 0]), qv([2, 0, 0]), qv([0, 2, 0]), qv([0, 0, 2]),
              qv([1, 1, 1])]),
    ]
    for p in polys:
        assert from_generators(p.dim, p.points, p.rays, p.lines) == p
        if not p.empty:
            assert from_halfspaces(p.dim, p.ineqs, p.eqs) == p


def _suite_lp_membership():
    rng = random.Random(2024)
    checked = 0
    for pi in range(20):
        d = 2 if pi < 12 else 3
        npts = rng.randint(d + 1, d + 5)
        pts = [qv([Q(rng.randint(-15, 15), rng.choice((1, 2, 3)))
                   for _ in range(d)]) for _ in range(npts)]
        p = hull(pts)
        for _ in range(500):
            x = qv([Q(rng.randint(-36, 36), rng.choice((1, 2, 3, 6)))
                    for _ in range(d)])
            assert p.contains(x) == in_hull(pts, x)
            checked += 1
    assert checked == 10000


def _suite_freudenthal_dimension():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "A1xA1xA1"):
        rs = build(name)
        for coords in product(range(4), repeat=rs.rank):
            lam = qv(coords)
            assert irrep_weights(rs, lam).dim() == dim(rs, lam), (name, coords)


def _suite_star_involutive():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A2xA1xT1"):
        rs = build(name)
        for coords in product(range(3), repeat=rs.ss_rank):
            lam = qv(list(coords) + [-2] * rs.torus_rank)
            assert star(rs, star(rs, lam)) == lam


def _suite_sandwich():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3"):
        rs = build(name)
        for coords in product(range(3), repeat=rs.rank):
            lam = qv(coords)
            lo = lower_bound_projective(rs, irrep_weights(rs, lam))
            up = upper_bound_projective(rs, lam)
            assert up.contains_polyhedron(lo), (name, coords)
            if all(c != 1 for c in coords):
                assert lo == up, (name, coords)


def _local_cone_samples():
    t2 = build("T2")
    t3 = build("T3")
    a2 = build("A2")
    rng = random.Random(99)
    specs = []
    for _ in range(8):
        mu = qv([rng.randint(-3, 3), rng.randint(-3, 3)])
        ws = [qv([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(3)]
        specs.append(LocalConeSpec(t2, mu, ws, CASE_FULL_TORUS))
    specs.append(LocalConeSpec(t2, qv([1, 0]), [qv([1, 1])], CASE_SUBTORUS,
                               isotropy_subtorus=[qv([1, 0])]))
    specs.append(LocalConeSpec(t3, qv([0, 0, 2]), [qv([1, 0, 1]), qv([0, 1, 0])],
                               CASE_SUBTORUS,
                               isotropy_subtorus=[qv([1, 0, 0]), qv([0, 1, 0])]))
    specs.append(LocalConeSpec(a2, qv([1, 2]), [qv([2, -1]), qv([-1, 2])],
                               CASE_FULL_TORUS))
    return specs


def _suite_assemble_contained():
    t2 = build("T2")
    groups = [
        [LocalConeSpec(t2, qv([0, 0]), [qv([1, 0]), qv([0, 1])], CASE_FULL_TORUS),
         LocalConeSpec(t2, qv([-3, -3]), [qv([-1, 0]), qv([0, -1])], CASE_FULL_TORUS)],
        [LocalConeSpec(t2, qv([1, 0]), [qv([1, 1]), qv([1, -1])], CASE_FULL_TORUS),
         LocalConeSpec(t2, qv([-1, 0]), [qv([-1, 1]), qv([-1, -1])], CASE_FULL_TORUS),
         LocalConeSpec(t2, qv([0, 1]), [qv([0, 1])], CASE_FULL_TORUS)],
        _local_cone_samples()[:5],
    ]
    for specs in groups:
        poly = assemble_polytope(specs)
        for s in specs:
            assert local_cone(s).contains_polyhedron(poly)


def _suite_vertex_condition_properness():
    for s in _local_cone_samples():
        cone = shift(local_cone(s), vneg(qv(s.mu)))
        assert vertex_condition(s) == is_proper(cone)
        if s.case_tag == CASE_SUBTORUS and len(s.isotropy_subtorus) < s.rs.rank:
            assert not vertex_condition(s)


def test_criterion_8_property_suites():
    with criterion(8, 300.0, "property suites: dual-description round trips, "
                             "LP-oracle membership, dimension cross-checks, "
                             "involution, sandwich, assembly, vertex test"):
        for suite in (
            _suite_dd_round_trip,
            _suite_lp_membership,
            _suite_freudenthal_dimension,
            _suite_star_involutive,
            _suite_sandwich,
            _suite_assemble_contained,
            _suite_vertex_condition_properness,
        ):
            t0 = time.monotonic()
            suite()
            print("  suite %s: %.1fs" % (suite.__name__, time.monotonic() - t0))
