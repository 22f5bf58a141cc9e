from itertools import product

import pytest

from liemoment.errors import DomainError, UnsupportedCaseError
from liemoment.exactq import Q, qv
from liemoment.momentum import (
    CASE_CENTRAL_ORBIT,
    CASE_FULL_TORUS,
    CASE_SUBTORUS,
    LocalConeSpec,
    affine_cone_from_hw,
    assemble_polytope,
    chamber,
    cotangent_homogeneous,
    linear_cone_torus,
    local_cone,
    lower_bound_projective,
    momentum_polytope_projective,
    projective_closure_polytope,
    projective_polytope_torus,
    recover_cone,
    reduce_polytope,
    star_invariance_check,
    upper_bound_projective,
    vertex_condition,
)
from liemoment.polyhedra import (
    cone_from_rays,
    from_halfspaces,
    hull,
    intersect,
    is_proper,
    shift,
)
from liemoment.repweights import irrep_weights, union_weights
from liemoment.rootsys import build, star, weyl_orbit

A2 = build("A2")
A3 = build("A3")
B2 = build("B2")
G2 = build("G2")
T1 = build("T1")
T2 = build("T2")


def orbit_hull_in_chamber(rs, lam):
    return intersect(chamber(rs), hull(list(weyl_orbit(rs, star(rs, lam)))))


# -- torus formulas ---------------------------------------------------------


def test_linear_cone_torus():
    c = linear_cone_torus(T2, [qv([1, 0]), qv([0, 1])])
    assert c == cone_from_rays([qv([-1, 0]), qv([0, -1])])
    assert linear_cone_torus(T2, []).points == (qv([0, 0]),)
    line = linear_cone_torus(T2, [qv([1, 0]), qv([-1, 0])])
    assert not is_proper(line)


def test_projective_polytope_torus():
    seg = projective_polytope_torus(T2, [qv([1, 0]), qv([0, 1])])
    assert seg == hull([qv([-1, 0]), qv([0, -1])])
    assert projective_polytope_torus(T2, [qv([2, 3])]).points == (qv([-2, -3]),)
    # weights {0, lam}: interval from -lam to 0
    iv = projective_polytope_torus(T1, [qv([0]), qv([3])])
    assert iv == hull([qv([-3]), qv([0])])
    with pytest.raises(DomainError):
        projective_polytope_torus(T2, [])


# -- affine cones and closures ---------------------------------------------


def test_affine_cone_from_hw():
    assert affine_cone_from_hw(A2, [qv([1, 0]), qv([0, 1])]) == chamber(A2)
    assert affine_cone_from_hw(A2, []).points == (qv([0, 0]),)
    with pytest.raises(DomainError):
        affine_cone_from_hw(A2, [qv([1, -1])])


def test_peterweyl_antidiagonal():
    kk = build("A2xA2")
    cone = affine_cone_from_hw(kk, [qv([1, 0, 0, 1]), qv([0, 1, 1, 0])])
    expected = from_halfspaces(
        4,
        [(qv([1, 0, 0, 0]), Q(0)), (qv([0, 1, 0, 0]), Q(0))],
        [(qv([1, 0, 0, -1]), Q(0)), (qv([0, 1, -1, 0]), Q(0))],
    )
    assert cone == expected
    assert star_invariance_check(kk, cone)


def test_projective_closure_and_cone():
    simplex = projective_closure_polytope(A2, hull([qv([1, 0]), qv([0, 1])]))
    assert simplex == hull([qv([0, 0]), qv([1, 0]), qv([0, 1])])
    assert recover_cone(simplex) == chamber(A2)
    pt = projective_closure_polytope(T1, hull([qv([2])]))
    assert pt == hull([qv([0]), qv([2])])


# -- projective bounds and certified polytopes ------------------------------


def test_upper_bound_fig1():
    up = upper_bound_projective(A2, qv([2, 1]))
    assert set(up.points) == {qv([0, 0]), qv([2, 0]), qv([1, 2]), qv([0, 2])}


def test_upper_bound_no_trim():
    assert upper_bound_projective(A2, qv([2, 2])) == orbit_hull_in_chamber(A2, qv([2, 2]))


def test_lower_bound_closes_sandwich_22():
    lo = lower_bound_projective(A2, irrep_weights(A2, qv([2, 2])))
    assert lo == upper_bound_projective(A2, qv([2, 2]))


def test_lower_bound_point_for_minuscule():
    lo = lower_bound_projective(A3, irrep_weights(A3, qv([1, 0, 0])))
    assert lo.points == (qv([0, 0, 1]),)


def test_lower_bound_replicated_copies():
    ws = union_weights([irrep_weights(A2, qv([1, 0]))] * 3)
    assert lower_bound_projective(A2, ws) == orbit_hull_in_chamber(A2, qv([1, 0]))


def test_clique_edges_match_pairwise_definition(monkeypatch):
    """Two weights are adjacent unless they differ by a root and both have
    multiplicity one; the graph handed to either clique strategy is that."""
    from liemoment import momentum

    seen = []
    for name in ("_maximal_cliques", "_greedy_cover_cliques"):
        real = getattr(momentum, name)

        def recording(adj, arg, real=real):
            seen.append(list(adj))
            return real(adj, arg)

        monkeypatch.setattr(momentum, name, recording)
    cases = [(A2, [(2, 1)]), (A2, [(2, 1), (2, 1)]), (A3, [(1, 0, 1)]),
             (build("C3"), [(0, 1, 0)]), (build("A2xA1"), [(1, 0, 1), (0, 1, 0)]),
             (B2, [(1, 1)]), (build("B3"), [(1, 0, 1)]), (A2, [(3, 1), (0, 1)])]
    strategies = set()
    for rs, hws in cases:
        system = union_weights([irrep_weights(rs, qv(h)) for h in hws])
        del seen[:]
        lower_bound_projective(rs, system)
        weights = sorted(system.entries)
        mults = system.entries
        roots = set(rs.positive_roots) | {tuple(-x for x in b) for b in rs.positive_roots}
        expected = [0] * len(weights)
        for i, u in enumerate(weights):
            for j, v in enumerate(weights):
                diff = tuple(x - y for x, y in zip(u, v))
                if i != j and (diff not in roots or mults[u] >= 2 or mults[v] >= 2):
                    expected[i] |= 1 << j
        assert seen == [expected], (rs.spec, hws)
        strategies.add(len(weights) > momentum._CLIQUE_EXHAUSTIVE_LIMIT)
    assert strategies == {False, True}


def test_momentum_polytope_fig1():
    ans = momentum_polytope_projective(A2, [qv([2, 1])])
    assert ans.certificate == "rank-two-classification"
    assert ans.exact is not None and ans.exact == ans.lower == ans.upper
    assert set(ans.exact.points) == {qv([0, 0]), qv([2, 0]), qv([1, 2]), qv([0, 2])}


def test_momentum_polytope_bigweight():
    ans = momentum_polytope_projective(A2, [qv([2, 2])])
    assert ans.certificate == "no-unit-simple-pairings"
    assert ans.exact == orbit_hull_in_chamber(A2, qv([2, 2]))


def test_momentum_polytope_fig3():
    ans = momentum_polytope_projective(A3, [qv([1, 1, 1])])
    assert ans.certificate == "su4-special-weights"
    expected = {
        qv([1, 1, 1]), qv([0, 0, 0]), qv([2, 0, 0]), qv([0, 2, 0]), qv([0, 0, 2]),
        qv(["4/3", 1, 0]), qv([0, 1, "4/3"]), qv([1, 0, "5/3"]), qv(["5/3", 0, 1]),
    }
    assert set(ans.exact.points) == expected


def test_momentum_polytope_replicated():
    ans = momentum_polytope_projective(A2, [qv([1, 0])] * 3)
    assert ans.certificate == "replicated-irrep"
    assert ans.exact == orbit_hull_in_chamber(A2, qv([1, 0]))


def test_momentum_polytope_star_vertex():
    for rs, lam in ((A2, [2, 1]), (A2, [1, 0]), (G2, [0, 1]), (A3, [1, 1, 1])):
        ans = momentum_polytope_projective(rs, [qv(lam)])
        assert star(rs, qv(lam)) in ans.upper.points


def test_momentum_polytope_star_vertex_sweep():
    for rs in (A2, B2, G2):
        for coords in product(range(3), repeat=2):
            lam = qv(coords)
            ans = momentum_polytope_projective(rs, [lam])
            assert star(rs, lam) in ans.upper.points, (str(rs.spec), coords)
            if ans.exact is not None:
                assert star(rs, lam) in ans.exact.points


def test_momentum_polytope_monotone_upper():
    small = momentum_polytope_projective(A3, [qv([0, 1, 0])])
    big = momentum_polytope_projective(A3, [qv([0, 1, 0]), qv([1, 0, 1])])
    assert big.upper.contains_polyhedron(small.upper)


def test_momentum_polytope_bounds_path():
    # A3 pi1+pi2 has a unit pairing and is outside every certified case
    ans = momentum_polytope_projective(A3, [qv([1, 1, 0])])
    assert ans.upper.contains_polyhedron(ans.lower)
    if ans.exact is None:
        assert ans.certificate.startswith("bounds(")
    else:
        assert ans.certificate.startswith("sandwich-coincide")


def test_momentum_polytope_torus_group():
    ans = momentum_polytope_projective(T2, [qv([1, 0]), qv([0, 1])])
    assert ans.certificate == "torus-weights"
    assert ans.exact == hull([qv([-1, 0]), qv([0, -1])])


def test_momentum_polytope_errors():
    with pytest.raises(DomainError):
        momentum_polytope_projective(A2, [])
    with pytest.raises(DomainError):
        momentum_polytope_projective(A2, [qv(["1/2", 0])])


# -- local cones -------------------------------------------------------------


def test_local_cone_full_torus():
    spec = LocalConeSpec(T2, qv([1, 1]), [qv([1, 0]), qv([0, 1])], CASE_FULL_TORUS)
    c = local_cone(spec)
    assert c.points == (qv([1, 1]),)
    assert set(c.rays) == {qv([-1, 0]), qv([0, -1])}


def test_local_cone_zero_slice():
    spec = LocalConeSpec(T2, qv([3, 4]), [], CASE_FULL_TORUS)
    assert local_cone(spec).points == (qv([3, 4]),)
    assert not local_cone(spec).rays


def test_local_cone_subtorus_halfplane():
    spec = LocalConeSpec(T2, qv([2, 0]), [qv([1, 5])], CASE_SUBTORUS,
                         isotropy_subtorus=[qv([1, 0])])
    hp = local_cone(spec)
    assert hp == from_halfspaces(2, [(qv([-1, 0]), Q(-2))])


def test_local_cone_central_orbit_regular():
    spec = LocalConeSpec(A2, qv([1, 1]), [qv([2, -1])], CASE_CENTRAL_ORBIT)
    c = local_cone(spec)
    assert c.points == (qv([1, 1]),)
    assert c.rays == (qv([-2, 1]),)


def test_local_cone_wall_unsupported():
    spec = LocalConeSpec(A2, qv([0, 1]), [qv([1, 0])], CASE_FULL_TORUS)
    with pytest.raises(UnsupportedCaseError):
        local_cone(spec)


def test_local_cone_validation():
    with pytest.raises(DomainError):
        LocalConeSpec(A2, qv([-1, 0]), [], CASE_FULL_TORUS)
    with pytest.raises(DomainError):
        LocalConeSpec(T2, qv([0, 0]), [], CASE_SUBTORUS)
    with pytest.raises(DomainError):
        LocalConeSpec(T2, qv([0, 0]), [], "bogus")


def test_assemble_height_function_toy():
    lo = LocalConeSpec(T1, qv([-1]), [qv([-1])], CASE_FULL_TORUS)
    hi = LocalConeSpec(T1, qv([1]), [qv([1])], CASE_FULL_TORUS)
    assert assemble_polytope([lo, hi]) == hull([qv([-1]), qv([1])])
    assert assemble_polytope([lo]) == local_cone(lo)


def test_assemble_strip():
    a = LocalConeSpec(T2, qv([1, 0]), [qv([1, 7])], CASE_SUBTORUS,
                      isotropy_subtorus=[qv([1, 0])])
    b = LocalConeSpec(T2, qv([-1, 0]), [qv([-1, 3])], CASE_SUBTORUS,
                      isotropy_subtorus=[qv([1, 0])])
    strip = assemble_polytope([a, b])
    assert strip.lines == (qv([0, 1]),)


def test_assemble_contained_in_each_local_cone():
    specs = [
        LocalConeSpec(T2, qv([0, 0]), [qv([1, 0]), qv([0, 1])], CASE_FULL_TORUS),
        LocalConeSpec(T2, qv([-2, -2]), [qv([-1, 0]), qv([0, -1])], CASE_FULL_TORUS),
        LocalConeSpec(T2, qv([0, -2]), [qv([1, -1]), qv([0, 1])], CASE_FULL_TORUS),
    ]
    poly = assemble_polytope(specs)
    assert not poly.empty
    for s in specs:
        assert local_cone(s).contains_polyhedron(poly)
    with pytest.raises(DomainError):
        assemble_polytope([])


def test_vertex_condition():
    assert vertex_condition(
        LocalConeSpec(T2, qv([0, 0]), [qv([1, 0]), qv([0, 1])], CASE_FULL_TORUS))
    assert not vertex_condition(
        LocalConeSpec(T2, qv([0, 0]), [qv([1, 0]), qv([-1, 0])], CASE_FULL_TORUS))
    # subtorus isotropy with a nontrivial quotient torus always fails
    assert not vertex_condition(
        LocalConeSpec(T2, qv([0, 0]), [qv([1, 0])], CASE_SUBTORUS,
                      isotropy_subtorus=[qv([1, 0])]))


# -- reduction ---------------------------------------------------------------


def test_reduce_axis_slice():
    sq = hull([qv([0, 0]), qv([2, 0]), qv([0, 2]), qv([2, 2])])
    out = reduce_polytope(T2, sq, qv([0, 1]), [qv([1, 0])])
    assert out == hull([qv([0]), qv([2])])


def test_reduce_identity():
    sq = hull([qv([0, 0]), qv([2, 0]), qv([0, 2]), qv([2, 2])])
    out = reduce_polytope(T2, sq, qv([0, 0]), [qv([1, 0]), qv([0, 1])])
    assert out == sq


def test_reduce_requires_central_level():
    with pytest.raises(DomainError):
        reduce_polytope(A2, chamber(A2), qv([1, 0]), [qv([1, 0])])


def test_reduce_commutes_with_intersect():
    a = hull([qv([0, 0]), qv([2, 0]), qv([0, 2]), qv([2, 2])])
    b = shift(a, qv([1, 1]))
    basis = [qv([1, 0])]
    mu = qv([0, 1])
    lhs = reduce_polytope(T2, intersect(a, b), mu, basis)
    rhs = intersect(reduce_polytope(T2, a, mu, basis), reduce_polytope(T2, b, mu, basis))
    assert lhs == rhs


def test_leftright_reduction():
    kk = build("A2xA2")
    gens = [qv([1, 0, 0, 1]), qv([0, 1, 1, 0])]
    anti = affine_cone_from_hw(kk, gens)
    assert reduce_polytope(kk, anti, qv([0, 0, 0, 0]), gens) == chamber(A2)


# -- cotangent bundles -------------------------------------------------------


def test_cotangent_weyl_chamber_cases():
    for rs in (A2, B2, G2):
        ans = cotangent_homogeneous(rs, [])
        assert ans.certificate == "kostant-convexity"
        assert ans.exact == chamber(rs)
    for rs in (B2, G2):
        for wall in ([qv([1, 0])], [qv([0, 1])]):
            ans = cotangent_homogeneous(rs, wall)
            assert ans.exact == chamber(rs)


def test_cotangent_su_n_ray():
    ans = cotangent_homogeneous(A2, [qv([1, 0])])
    assert ans.certificate == "maximal-root-ray-su-n"
    assert ans.exact == cone_from_rays([qv([1, 1])])
    ans = cotangent_homogeneous(A3, [qv([1, 0, 0])])
    assert ans.exact == cone_from_rays([qv([1, 0, 1])])
    ans = cotangent_homogeneous(A3, [qv([0, 0, 1])])
    assert ans.exact == cone_from_rays([qv([1, 0, 1])])


def test_cotangent_bounds_only():
    ans = cotangent_homogeneous(A3, [qv([0, 1, 0])])
    assert ans.exact is None
    assert ans.lower == cone_from_rays([qv([1, 0, 1])])
    assert ans.upper == chamber(A3)


def test_cotangent_star_invariant_when_exact():
    for rs, wall in ((A2, []), (B2, [qv([1, 0])]), (A3, [qv([1, 0, 0])])):
        ans = cotangent_homogeneous(rs, wall)
        assert ans.exact is not None
        assert star_invariance_check(rs, ans.exact)


def test_cotangent_rejects():
    with pytest.raises(DomainError):
        cotangent_homogeneous(A2, [qv([-1, 0])])
    with pytest.raises(UnsupportedCaseError):
        cotangent_homogeneous(build("A2xT1"), [])


# -- star invariance ---------------------------------------------------------


def test_star_invariance_examples():
    assert not star_invariance_check(A2, hull([qv([0, 0]), qv([1, 0])]))
    assert star_invariance_check(A2, hull([qv([0, 0]), qv([1, 1])]))
    assert star_invariance_check(B2, hull([qv([0, 0]), qv([3, 1]), qv([1, 0])]))


def test_affine_cone_star_closed_generators():
    cone = affine_cone_from_hw(A2, [qv([1, 0]), qv([0, 1]), qv([2, 2])])
    assert star_invariance_check(A2, cone)


# -- sandwich property sweep (small) ----------------------------------------


def test_sandwich_small_sweep():
    for rs in (A2, B2):
        for coords in product(range(3), repeat=2):
            lam = qv(coords)
            lo = lower_bound_projective(rs, irrep_weights(rs, lam))
            up = upper_bound_projective(rs, lam)
            assert up.contains_polyhedron(lo), (str(rs.spec), coords)
            if all(c != 1 for c in coords):
                assert lo == up == orbit_hull_in_chamber(rs, lam)


def test_momentum_polytope_monotone_across_certificates():
    # bounds path upgraded to replicated-irrep by adding copies
    lam = qv([1, 1, 0])
    single = momentum_polytope_projective(A3, [lam])
    multi = momentum_polytope_projective(A3, [lam] * 4)
    assert multi.certificate == "replicated-irrep"
    assert multi.upper.contains_polyhedron(single.upper)
    # certified single extended by another irrep
    base = momentum_polytope_projective(A2, [qv([2, 2])])
    bigger = momentum_polytope_projective(A2, [qv([2, 2]), qv([3, 0])])
    assert bigger.upper.contains_polyhedron(base.upper)


def test_momentum_polytope_mixed_torus_group():
    rs = build("A2xT1")
    ans = momentum_polytope_projective(rs, [qv([2, 2, 1])])
    assert ans.certificate == "no-unit-simple-pairings"
    assert all(p[2] == -1 for p in ans.exact.points)
    bounds = momentum_polytope_projective(rs, [qv([1, 0, 2])])
    assert bounds.upper.contains_polyhedron(bounds.lower)


def test_assemble_rejects_mixed_groups():
    a = LocalConeSpec(T1, qv([0]), [qv([1])], CASE_FULL_TORUS)
    b = LocalConeSpec(T2, qv([0, 0]), [qv([1, 0])], CASE_FULL_TORUS)
    with pytest.raises(Exception):
        assemble_polytope([a, b])


def test_projective_builds_no_chamber_and_two_dd_passes_per_piece(monkeypatch):
    """Every bound is the hull of chamber pieces cut straight by the chamber
    rows: no chamber polyhedron, no intersect, two DD passes per piece plus
    two for the final hull."""
    from liemoment import momentum, polyhedra

    def refuse(*args):
        raise AssertionError("the projective path built a chamber or intersected")

    monkeypatch.setattr(momentum, "chamber", refuse)
    monkeypatch.setattr(momentum, "intersect", refuse)
    monkeypatch.setattr(polyhedra, "intersect", refuse)
    calls = []
    real = polyhedra._dd_cone

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_dd_cone", counting)
    # (group, highest weights, certificate, _dd_cone calls: exact or at most)
    cases = [
        ("A2", [(2, 2)], "no-unit-simple-pairings", 4),
        ("A2", [(2, 1)], "rank-two-classification", 4),
        ("A3", [(1, 0, 0)], "su4-special-weights", 4),
        ("A3", [(1, 0, 0)] * 4, "replicated-irrep", 4),
        ("T2", [(1, 0), (0, 1), (-1, -1)], "torus-weights", 4),
        ("B3", [(1, 1, 1)], "sandwich-coincide(cliques-greedy-cover)", 10),
        ("C3", [(1, 0, 2)], "bounds(lower=cliques-greedy-cover,upper=orbit-trim)", 24),
        ("C3", [(2, 1, 2)], "sandwich-coincide(cliques-greedy-cover)", 86),
    ]
    for group, hws, certificate, dd_calls in cases:
        del calls[:]
        ans = momentum_polytope_projective(build(group), [qv(h) for h in hws])
        assert ans.certificate == certificate, (group, hws)
        if ans.certificate.startswith(("sandwich", "bounds")):
            assert len(calls) <= dd_calls, (group, hws, len(calls))
        else:
            assert len(calls) == dd_calls, (group, hws, len(calls))
