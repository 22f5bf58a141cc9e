"""Momentum polytopes, cones, and local cones from Lie-theoretic data.

Sign convention (fixed throughout, and worth stating loudly because the
literature is split): a torus module with weights nu_1..nu_l has momentum
cone  -cone{nu_1,...,nu_l}  and its projective space has momentum polytope
-hull{nu_1,...,nu_l}.  All comparisons against weight diagrams therefore
apply the involution * before intersecting with the dominant chamber.

Operations that are exact only under a known sufficient condition return a
BoundedAnswer carrying an exactness certificate (or inner/outer bounds when
no known result applies).
"""

from __future__ import annotations

from operator import add, sub
from typing import List, Optional, Sequence

from .errors import DomainError, ShapeError, UnsupportedCaseError
from .exactq import Q, Vec, dot, matvec, rank as mat_rank, transpose, vneg, vzero
from .polyhedra import (
    Polyhedron,
    cone_from_rays,
    empty_polyhedron,
    from_generators,
    from_halfspaces,
    hull,
    hull_vertices_cut,
    intersect,
    shift,
    slice_subspace,
    to_json,
)
from .repweights import WeightSystem, irrep_weights, pi_lambda, union_weights
from .rootsys import (
    RootSystem,
    dominant_roots,
    dominantize,
    orbit_size,
    star_linear,
    weyl_orbit,
)

CASE_FULL_TORUS = "full-torus-isotropy"
CASE_CENTRAL_ORBIT = "central-orbit"
CASE_SUBTORUS = "subtorus-isotropy"
_CASES = (CASE_FULL_TORUS, CASE_CENTRAL_ORBIT, CASE_SUBTORUS)


class LocalConeSpec:
    """A chamber point plus isotropy data describing one local momentum cone."""

    def __init__(self, rs: RootSystem, mu: Vec, slice_weights, case_tag: str,
                 isotropy_subtorus=()):
        rs.check_dim(mu)
        if case_tag not in _CASES:
            raise DomainError("unknown case tag %r" % case_tag)
        if not rs.is_dominant(mu):
            raise DomainError("local cone apex must lie in the chamber")
        slice_weights = tuple(tuple(w) for w in slice_weights)
        for w in slice_weights:
            rs.check_dim(w)
        isotropy_subtorus = tuple(tuple(s) for s in isotropy_subtorus)
        for s in isotropy_subtorus:
            if len(s) != rs.rank:
                raise ShapeError("isotropy basis vector of wrong length")
        if case_tag == CASE_SUBTORUS:
            if not isotropy_subtorus:
                raise DomainError("subtorus-isotropy needs a nonempty isotropy basis")
            if mat_rank(isotropy_subtorus) != len(isotropy_subtorus):
                raise DomainError("isotropy basis must be independent")
        self.rs = rs
        self.mu = tuple(mu)
        self.slice_weights = slice_weights
        self.case_tag = case_tag
        self.isotropy_subtorus = isotropy_subtorus


class BoundedAnswer:
    """Exact polyhedron when a certificate applies, else inner/outer bounds."""

    def __init__(self, exact: Optional[Polyhedron], lower: Polyhedron,
                 upper: Polyhedron, certificate: str):
        if not upper.contains_polyhedron(lower):
            raise AssertionError("lower bound not contained in upper bound")
        if exact is not None and not (exact == lower == upper):
            raise AssertionError("exact answer must coincide with both bounds")
        self.exact = exact
        self.lower = lower
        self.upper = upper
        self.certificate = certificate

    @classmethod
    def certified(cls, poly: Polyhedron, certificate: str) -> "BoundedAnswer":
        return cls(poly, poly, poly, certificate)

    def to_json(self):
        return {
            "exact": None if self.exact is None else to_json(self.exact),
            "lower": to_json(self.lower),
            "upper": to_json(self.upper),
            "certificate": self.certificate,
        }


# --------------------------------------------------------------------------
# chamber and the torus-weight formulas


def _walls(rs: RootSystem):
    """The chamber rows e_i.x >= 0, one per simple coroot (int data)."""
    return [(tuple(int(i == j) for j in range(rs.rank)), 0) for i in range(rs.ss_rank)]


def chamber(rs: RootSystem) -> Polyhedron:
    """The dominant chamber as a polyhedron (torus directions are free)."""
    return from_halfspaces(rs.rank, _walls(rs))


def linear_cone_torus(rs: RootSystem, weights: Sequence[Vec]) -> Polyhedron:
    """Momentum cone of a torus module: minus the cone of its weights."""
    ws = [tuple(w) for w in weights]
    for w in ws:
        rs.check_dim(w)
    return cone_from_rays([vneg(w) for w in ws], rs.rank)


# --------------------------------------------------------------------------
# affine momentum cones and projective closures


def affine_cone_from_hw(rs: RootSystem, generators: Sequence[Vec]) -> Polyhedron:
    """Momentum cone spanned by user-supplied highest-weight monoid generators."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if not rs.is_dominant(g):
            raise DomainError("highest-weight generators must be dominant")
    cone = cone_from_rays(gens, rs.rank)
    assert chamber(rs).contains_polyhedron(cone)
    return cone


def projective_closure_polytope(rs: RootSystem, infinity_polytope: Polyhedron) -> Polyhedron:
    """Momentum polytope of the projective closure: join of the divisor's with 0."""
    if infinity_polytope.dim != rs.rank:
        raise ShapeError("polytope dimension does not match the group rank")
    if infinity_polytope.rays or infinity_polytope.lines:
        raise DomainError("join_with_origin requires a polytope (p has rays)")
    return from_generators(rs.rank, infinity_polytope.points + (vzero(rs.rank),))


def recover_cone(p: Polyhedron) -> Polyhedron:
    """Momentum cone of the affine variety from its closure's polytope: the
    cone over its vertices (an origin vertex is absorbed)."""
    if p.rays or p.lines:
        raise DomainError("cone_over requires a polytope (p has rays)")
    return cone_from_rays(p.points, p.dim)


# --------------------------------------------------------------------------
# projective spaces of K-modules: bounds and certified answers


def _extreme_candidates(rs: RootSystem, pts) -> List[Vec]:
    """Drop points that are midpoints of root-strings inside the set.

    Such a point is a convex combination of two others, so it is never a
    hull vertex; the convex hull of the survivors equals the hull of the
    whole set.  Cheap and exact, and it shrinks weight-diagram hull inputs
    from hundreds of points to the near-extreme shell.
    """
    s = set(pts)
    out = []
    for w in s:
        for alpha in rs.positive_roots:
            if tuple(map(add, w, alpha)) in s and tuple(map(sub, w, alpha)) in s:
                break
        else:
            out.append(w)
    return sorted(out)


def _chamber_hull(rs: RootSystem, weight_sets) -> Polyhedron:
    """Hull of the chamber pieces chamber & hull(*S), one per weight set S.

    Every vertex is a starred weight or the cut of a starred hull by a
    chamber wall.  Each piece takes two DD passes: the chamber rows
    e_i.x >= 0 go straight into the cut, so no chamber is built.
    """
    walls = _walls(rs)
    verts = set()
    for weights in weight_sets:
        pts = [star_linear(rs, w) for w in _extreme_candidates(rs, weights)]
        verts.update(hull_vertices_cut(pts, walls))
    if not verts:
        return empty_polyhedron(rs.rank)
    return hull(sorted(verts))


def _upper_bound_for_list(rs: RootSystem, hw_list, system: WeightSystem) -> Polyhedron:
    """Outer bound: chamber cap hull of the starred weights trimmed at each lam."""
    pts = set()
    for lam in set(hw_list):
        pts.update(pi_lambda(system, lam))
    return _chamber_hull(rs, [pts])


def _maximal_cliques(adj: List[int], n: int) -> List[int]:
    """Bron-Kerbosch with pivoting; vertex sets as bitmasks."""
    cliques: List[int] = []

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            cliques.append(r)
            return
        pivot_candidates = p | x
        pivot = (pivot_candidates & -pivot_candidates).bit_length() - 1
        best, best_deg = pivot, -1
        m = pivot_candidates
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = bin(p & adj[v]).count("1")
            if deg > best_deg:
                best, best_deg = v, deg
        cand = p & ~adj[best]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            vb = 1 << v
            expand(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb
        return

    expand(0, (1 << n) - 1, 0)
    return cliques


def _greedy_cover_cliques(adj: List[int], order: List[int]) -> List[int]:
    """Maximal cliques grown greedily from uncovered seeds, in the given order."""
    covered = 0
    cliques: List[int] = []
    for seed in order:
        if covered & (1 << seed):
            continue
        mask = 1 << seed
        for v in order:
            vb = 1 << v
            if mask & vb:
                continue
            if mask & ~adj[v] == 0:
                mask |= vb
        cliques.append(mask)
        covered |= mask
    return cliques


_CLIQUE_EXHAUSTIVE_LIMIT = 20


def _lower_bound_with_strategy(rs: RootSystem, system: WeightSystem):
    """Inner bound from subsets of weights with certified torus-like momenta,
    and the clique strategy that found them.

    A subset qualifies when every pairwise difference is not a root, or one
    endpoint has multiplicity at least 2.  The bound is the hull of the
    chamber pieces cut from the starred hull of each maximal such subset.
    """
    weights = sorted(system.entries)
    n = len(weights)
    if n == 0:
        return empty_polyhedron(rs.rank), "empty"
    mults = system.entries
    # complete graph minus the edges w -- w + beta (beta a positive root)
    # whose endpoints both have multiplicity one
    index = {w: i for i, w in enumerate(weights)}
    full = (1 << n) - 1
    adj = [full & ~(1 << i) for i in range(n)]
    for i, w in enumerate(weights):
        if mults[w] != 1:
            continue
        for beta in rs.positive_roots:
            j = index.get(tuple(map(add, w, beta)))
            if j is not None and mults[weights[j]] == 1:
                adj[i] &= ~(1 << j)
                adj[j] &= ~(1 << i)

    if n <= _CLIQUE_EXHAUSTIVE_LIMIT:
        cliques = _maximal_cliques(adj, n)
        strategy = "cliques-exhaustive"
    else:
        def size(i):
            return orbit_size(rs, dominantize(rs, weights[i])[0])

        order = sorted(range(n), key=lambda i: (-size(i), weights[i]))
        cliques = _greedy_cover_cliques(adj, order)
        strategy = "cliques-greedy-cover"

    pieces = ([w for i, w in enumerate(weights) if mask >> i & 1] for mask in cliques)
    return _chamber_hull(rs, pieces), strategy


def _single_a_type(rs: RootSystem):
    if rs.torus_rank == 0 and len(rs.spec.factors) == 1 and rs.spec.factors[0][0] == "A":
        return rs.spec.factors[0][1]
    return None


_SU4_EXACT = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)}


def momentum_polytope_projective(rs: RootSystem, hw_list: Sequence[Vec]) -> BoundedAnswer:
    """Momentum polytope of P(V) for V the sum of the listed irreducibles."""
    hws = [tuple(h) for h in hw_list]
    if not hws:
        raise DomainError("empty highest-weight list")
    for lam in hws:
        rs.check_dim(lam)
        if not rs.is_dominant(lam):
            raise DomainError("highest weights must be dominant")
        if not rs.is_integral(lam):
            raise DomainError("highest weights must be integral")

    # the starred orbit hull is exact with no unit pairing on any simple
    # coroot, and with at least rank+1 copies of one irreducible (trimming
    # disappears)
    if all(all(lam[i] != 1 for i in range(rs.ss_rank)) for lam in hws):
        cert = "torus-weights" if rs.ss_rank == 0 else "no-unit-simple-pairings"
    elif len(set(hws)) == 1 and len(hws) >= rs.rank + 1:
        cert = "replicated-irrep"
    else:
        cert = None
    if cert is not None:
        orbits = set()
        for lam in set(hws):
            orbits.update(weyl_orbit(rs, lam))
        return BoundedAnswer.certified(_chamber_hull(rs, [orbits]), cert)

    system = union_weights([irrep_weights(rs, lam) for lam in hws])
    upper = _upper_bound_for_list(rs, hws, system)
    if len(hws) == 1:
        # rank two, irreducible: the trimmed bound is the polytope
        if rs.torus_rank == 0 and rs.rank <= 2:
            return BoundedAnswer.certified(upper, "rank-two-classification")
        # SU(4) with the four classified highest weights
        if _single_a_type(rs) == 3 and tuple(int(x) for x in hws[0]) in _SU4_EXACT:
            return BoundedAnswer.certified(upper, "su4-special-weights")

    lower, strategy = _lower_bound_with_strategy(rs, system)
    if lower == upper:
        return BoundedAnswer(lower, lower, upper, "sandwich-coincide(%s)" % strategy)
    return BoundedAnswer(None, lower, upper,
                         "bounds(lower=%s,upper=orbit-trim)" % strategy)


# --------------------------------------------------------------------------
# local momentum cones


def _require_regular(spec: LocalConeSpec):
    mu = spec.mu
    rs = spec.rs
    for i in range(rs.ss_rank):
        if mu[i] == 0:
            raise UnsupportedCaseError(
                "local cone at a chamber wall with nonabelian stabilizer: "
                "needs the full symplectic-slice model for the stabilizer "
                "subgroup; only abelian isotropy data is supported")


def local_cone(spec: LocalConeSpec) -> Polyhedron:
    """Local momentum cone: apex mu plus the slice's momentum cone."""
    rs = spec.rs
    _require_regular(spec)
    if spec.case_tag in (CASE_FULL_TORUS, CASE_CENTRAL_ORBIT):
        cone = cone_from_rays([vneg(w) for w in spec.slice_weights], rs.rank)
        return shift(cone, spec.mu)
    # subtorus isotropy: preimage under restriction to the subtorus of the
    # momentum cone of the restricted slice module
    basis = spec.isotropy_subtorus
    restricted = [tuple(dot(s, w) for s in basis) for w in spec.slice_weights]
    small = cone_from_rays([vneg(w) for w in restricted], len(basis))
    basis_t = transpose(basis)

    def pull_back(rows):
        return [(matvec(basis_t, n), off) for n, off in rows]

    return shift(from_halfspaces(rs.rank, pull_back(small.ineqs), pull_back(small.eqs)),
                 spec.mu)


def assemble_polytope(specs: Sequence[LocalConeSpec]) -> Polyhedron:
    """Intersection of the local momentum cones of all supplied points."""
    specs = list(specs)
    if not specs:
        raise DomainError("assemble_polytope needs at least one local cone")
    first = specs[0].rs
    for s in specs[1:]:
        if s.rs.spec != first.spec:
            raise ShapeError("local cones over different root systems")
    out = local_cone(specs[0])
    for s in specs[1:]:
        out = intersect(out, local_cone(s))
    return out


# --------------------------------------------------------------------------
# symplectic reduction by a central level


def reduce_polytope(rs: RootSystem, polytope: Polyhedron, mu: Vec,
                    subspace_basis: Sequence[Vec]) -> Polyhedron:
    """Shift by -mu and slice along a subspace, in subspace coordinates.

    mu must be central: its semisimple coordinates must vanish.
    """
    rs.check_dim(mu)
    if polytope.dim != rs.rank:
        raise ShapeError("polytope dimension does not match the group rank")
    if any(mu[i] != 0 for i in range(rs.ss_rank)):
        raise DomainError("reduction level must be central (torus coordinates only)")
    return slice_subspace(shift(polytope, vneg(tuple(mu))), subspace_basis)


# --------------------------------------------------------------------------
# cotangent bundles of homogeneous spaces


def cotangent_homogeneous(rs: RootSystem, wall_generators: Sequence[Vec]) -> BoundedAnswer:
    """Momentum cone of T*(K/L) for L the centralizer of a chamber wall.

    An empty generator list encodes the zero wall, i.e. L = T.
    """
    gens = [tuple(g) for g in wall_generators]
    for g in gens:
        if not rs.is_dominant(g):
            raise DomainError("wall generators must be dominant")
    if rs.torus_rank or not rs.spec.factors:
        raise UnsupportedCaseError(
            "cotangent momentum cones are implemented for semisimple groups; "
            "central torus factors would need the reduction-by-centre step")
    cham = chamber(rs)
    if not gens:
        return BoundedAnswer.certified(cham, "kostant-convexity")

    rays = [
        beta
        for beta in dominant_roots(rs)
        if any(rs.coroot_pairing(beta, g) != 0 for g in gens)
    ]
    lower = cone_from_rays(rays, rs.rank)
    if lower == cham:
        return BoundedAnswer.certified(cham, "dominant-root-rays-span-chamber")

    if _single_a_type(rs) is not None:
        # the generators span the ray of the first or of the last
        # fundamental weight: they are dominant, so it suffices that their
        # nonzero coordinates all sit at index 0 or all at index rank-1
        support = {i for g in gens for i, x in enumerate(g) if x != 0}
        if support in ({0}, {rs.rank - 1}):
            ray = [Q(0)] * rs.rank
            ray[0] = Q(1)
            ray[-1] += Q(1)
            return BoundedAnswer.certified(
                cone_from_rays([tuple(ray)]), "maximal-root-ray-su-n")

    return BoundedAnswer(None, lower, cham, "bounds(lower=dominant-root-rays,upper=chamber)")


# --------------------------------------------------------------------------
# involution invariance


def star_invariance_check(rs: RootSystem, p: Polyhedron) -> bool:
    """Whether applying * to the generators maps the polyhedron onto itself."""
    if p.dim != rs.rank:
        raise ShapeError("polyhedron dimension does not match the group rank")
    if p.empty:
        return True
    mapped = from_generators(
        p.dim,
        [star_linear(rs, pt) for pt in p.points],
        [star_linear(rs, r) for r in p.rays],
        [star_linear(rs, l) for l in p.lines],
    )
    return mapped == p
