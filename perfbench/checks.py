"""Checks on CLI responses, made apart from the program under test.

Every response is read as JSON (or SVG) and checked with `fractions`, plain
integers and the Lie data in `lie.py`; nothing here imports the program.
A failed check raises CheckError naming what is wrong.
"""

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations
from math import gcd

from lie import Group, det


class CheckError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckError(message)


# --------------------------------------------------------------------------
# exact linear algebra


def vec(raw):
    expect(isinstance(raw, list), "a vector is not a JSON list")
    for x in raw:
        expect(isinstance(x, str), "a coordinate is not a 'p/q' string")
    return tuple(Fraction(x) for x in raw)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    """Positive multiple of v with coprime integer entries."""
    den = 1
    for x in v:
        d = Fraction(x).denominator
        den = den * d // gcd(den, d)
    ints = [int(x * den) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, n)
    return tuple(n // g for n in ints) if g else tuple(ints)


def rref(rows):
    """Reduced row-echelon basis of the row span, and its pivot columns."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    basis, pivots = [], []
    for col in range(ncols):
        piv = next((r for r in rows if r[col] != 0), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [x / piv[col] for x in piv]
        rows = [[x - r[col] * y for x, y in zip(r, piv)] for r in rows]
        basis = [[x - b[col] * y for x, y in zip(b, piv)] for b in basis]
        basis.append(piv)
        pivots.append(col)
    return basis, pivots


def _cross(rows):
    """A vector orthogonal to k-1 integer vectors in R^k (cofactor expansion)."""
    k = len(rows) + 1
    return tuple((-1) ** m * det([r[:m] + r[m + 1:] for r in rows]) for m in range(k))


class Cone:
    """The cone spanned by homogenized generators, with its facets found by
    brute force: a facet is a hyperplane through k-1 independent generators
    (k the dimension of the span) with every generator on one side."""

    def __init__(self, gens):
        gens = [primitive(g) for g in gens]
        self.basis, self.pivots = rref(gens)
        self.k = len(self.pivots)
        cs = sorted({self.coords(g) for g in gens})
        self.gens = cs
        self.facets = set()
        if self.k == 1:
            signs = {c[0] > 0 for c in cs}
            if len(signs) == 1:
                self.facets.add((1,) if signs.pop() else (-1,))
            return
        for sub in combinations(cs, self.k - 1):
            phi = _cross([list(c) for c in sub])
            if not any(phi):
                continue
            vals = [dot(phi, c) for c in cs]
            if all(v >= 0 for v in vals):
                self.facets.add(primitive(phi))
            elif all(v <= 0 for v in vals):
                self.facets.add(primitive(tuple(-x for x in phi)))

    def coords(self, v):
        return tuple(v[p] for p in self.pivots)

    def restrict(self, functional):
        """A functional on the ambient space, restricted to the span."""
        return tuple(dot(functional, b) for b in self.basis)

    def in_span(self, v):
        rest = list(v)
        for b, p in zip(self.basis, self.pivots):
            c = rest[p]
            if c:
                rest = [x - c * y for x, y in zip(rest, b)]
        return not any(rest)

    def contains(self, v):
        if not self.in_span(v):
            return False
        c = self.coords(v)
        return all(dot(phi, c) >= 0 for phi in self.facets)


# --------------------------------------------------------------------------
# polyhedra


class Poly:
    def __init__(self, obj):
        expect(isinstance(obj, dict), "a polyhedron is not a JSON object")
        for key in ("dim", "empty", "points", "rays", "halfspaces"):
            expect(key in obj, "polyhedron lacks %r" % key)
        self.dim = obj["dim"]
        self.empty = obj["empty"]
        self.points = [vec(p) for p in obj["points"]]
        self.rays = [vec(r) for r in obj["rays"]]
        self.halfspaces = []
        for h in obj["halfspaces"]:
            expect(isinstance(h, dict) and isinstance(h.get("offset"), str),
                   "a halfspace is malformed")
            self.halfspaces.append((vec(h["normal"]), Fraction(h["offset"])))
        for v in self.points + self.rays + [n for n, _ in self.halfspaces]:
            expect(len(v) == self.dim, "a vector has the wrong length")

    def contains(self, x):
        return all(dot(n, x) >= b for n, b in self.halfspaces)

    def contains_ray(self, r):
        return all(dot(n, r) >= 0 for n, _ in self.halfspaces)

    def key(self):
        return (self.dim, self.empty, frozenset(self.points), frozenset(self.rays))

    def homogenized(self):
        return [(1,) + p for p in self.points] + [(0,) + r for r in self.rays]


def check_polyhedron(obj, dim=None):
    """Its generator and halfspace forms agree; each halfspace is tight."""
    p = Poly(obj)
    if dim is not None:
        expect(p.dim == dim, "polyhedron dimension %s, expected %d" % (p.dim, dim))
    if p.empty:
        expect(not (p.points or p.rays or p.halfspaces), "empty polyhedron with generators")
        return p
    expect(p.points, "non-empty polyhedron without points")
    expect(len(set(p.points)) == len(p.points) and len(set(p.rays)) == len(p.rays),
           "repeated generator")
    for n, b in p.halfspaces:
        expect(all(dot(n, x) >= b for x in p.points), "a point violates a halfspace")
        expect(all(dot(n, r) >= 0 for r in p.rays), "a ray violates a halfspace")
        expect(any(dot(n, x) == b for x in p.points), "a halfspace is tight at no point")
    cone = Cone(p.homogenized())
    facets = set(cone.facets)
    facets.discard(primitive(cone.restrict((1,) + (0,) * p.dim)))  # x0 >= 0
    restricted, equalities = [], []
    for n, b in p.halfspaces:
        h = (-b,) + n
        psi = cone.restrict(h)
        if any(psi):
            restricted.append(primitive(psi))
        else:
            equalities.append(h)
    expect(len(set(restricted)) == len(restricted), "repeated halfspace")
    expect(set(restricted) == facets,
           "halfspace form and generator form describe different polyhedra")
    expect(len(rref(equalities)[1]) == p.dim + 1 - cone.k,
           "equalities do not cut out the affine hull")
    pointed = not any(tuple(-x for x in r) in p.rays for r in p.rays)
    if pointed and cone.k > 1:
        for c in cone.gens:
            tight = [list(phi) for phi in cone.facets if dot(phi, c) == 0]
            expect(len(rref(tight)[1]) == cone.k - 1, "a generator is not extreme")
    return p


def same_polyhedron(p, points, rays=()):
    """Whether the checked polyhedron p equals conv(points) + cone(rays)."""
    if p.empty:
        return not points
    gens = [(1,) + tuple(x) for x in points] + [(0,) + tuple(r) for r in rays if any(r)]
    for g in gens:
        x = g[1:]
        if g[0] == 1 and not p.contains(x):
            return False
        if g[0] == 0 and not p.contains_ray(x):
            return False
    cone = Cone(gens)
    return all(cone.contains(g) for g in p.homogenized())


# --------------------------------------------------------------------------
# responses by command


def _json(out):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckError("response is not JSON: %s" % exc)


def _weights(raw):
    """Integral weights given as 'p' strings, as tuples of ints."""
    out = []
    for w in raw:
        v = vec(w)
        expect(all(x.denominator == 1 for x in v), "a weight is not integral")
        out.append(tuple(int(x) for x in v))
    return out


def _unwrap(item, doc):
    """The polyhedron of a response, checking the star-invariance flag if asked."""
    g = Group(item["request"]["group"])
    if not item["request"]["payload"].get("check_star_invariance"):
        return check_polyhedron(doc, g.rank)
    p = check_polyhedron(doc["polyhedron"], g.rank)
    starred = same_polyhedron(p, [g.star(x) for x in p.points], [g.star(r) for r in p.rays])
    expect(doc["star_invariant"] is starred, "star_invariant flag is wrong")
    return p


def check_projective(item, doc, _):
    g = Group(item["request"]["group"])
    hws = [tuple(hw) for hw in item["request"]["payload"]["hw"]]
    upper = check_polyhedron(doc["upper"], g.rank)
    lower = check_polyhedron(doc["lower"], g.rank)
    for bound in (upper, lower):
        expect(not bound.empty and not bound.rays, "a bound is not a non-empty polytope")
        expect(all(g.is_dominant(x) for x in bound.points), "a bound leaves the chamber")
    expect(all(upper.contains(x) for x in lower.points), "lower is not inside upper")
    if doc["exact"] is not None:
        exact = check_polyhedron(doc["exact"], g.rank)
        expect(exact.key() == lower.key() == upper.key(), "exact differs from a bound")
    if len(hws) == 1:
        lam_star = g.star(hws[0])
        expect(lam_star in upper.points, "lambda* is not a vertex of upper")
        expect(lower.contains(lam_star), "lambda* is not in lower")
    if "vertices" in item:
        expect(doc["exact"] is not None, "no exact answer")
        expect(set(upper.points) == {tuple(Fraction(x) for x in v) for v in item["vertices"]},
               "the vertex set differs from the stated one")
    if "certificates" in item:
        expect(doc["certificate"].startswith(tuple(item["certificates"])),
               "certificate %r is not a clique-bound one" % doc["certificate"])


def check_irrep(item, doc, _):
    g = Group(item["request"]["group"])
    lam = tuple(item["request"]["payload"]["hw"])
    mult = {}
    for entry in doc["weights"]:
        (w,) = _weights([entry["weight"]])
        expect(w not in mult, "a weight is listed twice")
        expect(isinstance(entry["mult"], int) and entry["mult"] > 0, "bad multiplicity")
        mult[w] = entry["mult"]
    expect(mult.get(lam) == 1, "the highest weight does not have multiplicity 1")
    for w, m in mult.items():
        for i in range(g.ss_rank):
            expect(mult.get(g.reflect(i, w)) == m, "multiplicities are not W-invariant")
    dim = g.weyl_dimension(lam)
    expect(sum(mult.values()) == doc["dim"] == dim,
           "total multiplicity %d, dim %s, Weyl formula %d"
           % (sum(mult.values()), doc["dim"], dim))
    trimmed = {tuple(x - y for x, y in zip(lam, g.root_weight(b)))
               for b in g.positive_roots() if g.coroot_pairing(b, lam) == 1}
    expect(set(_weights(doc["trimmed_weight_set"])) == set(mult) - trimmed,
           "trimmed_weight_set is not the weights minus lam - alpha with pairing 1")


def check_orbit(item, doc, _):
    g = Group(item["request"]["group"])
    weight = tuple(item["request"]["payload"]["weight"])
    orbit = _weights(doc["orbit"])
    points = set(orbit)
    expect(len(points) == len(orbit) == doc["size"], "orbit size or duplicates wrong")
    expect(weight in points, "the orbit misses the weight")
    for mu in orbit:
        for i in range(g.ss_rank):
            expect(g.reflect(i, mu) in points, "the orbit is not closed under reflections")
    (dominant,) = _weights([doc["dominant"]])
    expect([m for m in orbit if g.is_dominant(m)] == [dominant], "dominant member wrong")
    mu = weight
    for i in doc["word"]:
        mu = g.reflect(i, mu)
    expect(mu == dominant, "the word does not take the weight to dominant")
    expect(doc["size"] * g.stabilizer_order(dominant) == g.weyl_order(),
           "size is not |W|/|W_lambda|")


def check_roots(item, doc, _):
    g = Group(item["request"]["group"])
    expect(doc["cartan"] == g.cartan, "Cartan matrix differs")
    expect(doc["weyl_order"] == g.weyl_order(), "Weyl group order differs")
    expect(_weights(doc["simple_roots"]) == g.simple, "simple roots differ")
    positive = {g.root_weight(b) for b in g.positive_roots()}
    expect(set(_weights(doc["positive_roots"])) == positive
           and len(doc["positive_roots"]) == len(positive), "positive roots differ")
    if g.factors:
        expect(set(_weights(doc["dominant_roots"])) == {b for b in positive if g.is_dominant(b)},
               "dominant roots differ")


def check_cotangent(item, doc, _):
    g = Group(item["request"]["group"])
    upper = check_polyhedron(doc["upper"], g.rank)
    lower = check_polyhedron(doc["lower"], g.rank)
    expect(all(upper.contains(x) for x in lower.points)
           and all(upper.contains_ray(r) for r in lower.rays), "lower is not inside upper")
    expect(doc["exact"] is not None, "no exact answer")
    exact = check_polyhedron(doc["exact"], g.rank)
    expect(exact.key() == lower.key() == upper.key(), "exact differs from a bound")
    rays = item["rays"]
    if rays == "chamber":
        rays = [tuple(1 if j == i else 0 for j in range(g.rank)) for i in range(g.rank)]
    expect(same_polyhedron(exact, [(0,) * g.rank], rays), "not the criterion-7 cone")


def check_cone(item, doc, _):
    """linear-cone (minus the weights), affine-cone (the generators), local-cone."""
    g = Group(item["request"]["group"])
    p = _unwrap(item, doc)
    payload = item["request"]["payload"]
    command = item["request"]["command"]
    if command == "linear-cone":
        expect(same_polyhedron(p, [(0,) * g.rank], [tuple(-x for x in w) for w in payload["weights"]]),
               "not minus the cone of the weights")
    elif command == "affine-cone":
        expect(same_polyhedron(p, [(0,) * g.rank], [tuple(w) for w in payload["generators"]]),
               "not the cone of the generators")
        expect(all(g.is_dominant(r) for r in p.rays), "the cone leaves the chamber")
    elif payload["case"] == "subtorus-isotropy":
        expect(p.contains(tuple(payload["mu"])), "the apex is not in the local cone")
    else:
        expect(same_polyhedron(p, [tuple(payload["mu"])],
                               [tuple(-x for x in w) for w in payload["slice_weights"]]),
               "not mu minus the cone of the slice weights")


def check_assemble(item, doc, responses):
    p = _unwrap(item, doc)
    for part in item["parts"]:
        rc, out, _ = responses[part]
        expect(rc == 0, "a local cone of the assembly was not answered")
        cone = Poly(_json(out))
        expect(all(cone.contains(x) for x in p.points)
               and all(cone.contains_ray(r) for r in p.rays),
               "the assembly leaves one of its local cones")


def check_reduce(item, doc, _):
    payload = item["request"]["payload"]
    p = check_polyhedron(doc["polyhedron"], len(payload["subspace"]))
    source = Cone([(1,) + tuple(x) for x in payload["polyhedron"]["points"]])
    for y in p.points:
        x = [Fraction(m) for m in payload["mu"]]
        for c, b in zip(y, payload["subspace"]):
            x = [xi + c * bi for xi, bi in zip(x, b)]
        expect(source.contains((1,) + tuple(x)), "a reduced point is outside the slice")


def check_closure(item, doc, _):
    g = Group(item["request"]["group"])
    closure = check_polyhedron(doc["closure"], g.rank)
    cone = check_polyhedron(doc["cone"], g.rank)
    points = [tuple(x) for x in item["request"]["payload"]["infinity_polytope"]["points"]]
    expect(same_polyhedron(closure, points + [(0,) * g.rank]), "closure is not the join with 0")
    expect(same_polyhedron(cone, [(0,) * g.rank], closure.points), "cone is not over the closure")


def check_render(item, out, _):
    g = Group(item["request"]["group"])
    try:
        root = ET.fromstring(out)
    except ET.ParseError as exc:
        raise CheckError("render output is not XML: %s" % exc)
    expect(root.tag == "{http://www.w3.org/2000/svg}svg", "render output is not SVG")
    walls = [e for e in root if e.get("stroke-dasharray")]
    expect(len(walls) == len(g.positive_roots()), "not one wall per positive root")


CHECKS = {
    "projective": check_projective,
    "irrep": check_irrep,
    "orbit": check_orbit,
    "roots": check_roots,
    "cotangent": check_cotangent,
    "linear-cone": check_cone,
    "affine-cone": check_cone,
    "local-cone": check_cone,
    "assemble": check_assemble,
    "reduce": check_reduce,
    "closure": check_closure,
}


def check_response(item, rc, out, err, responses):
    """Check one answer: the documented exit code, then the content."""
    expect(rc == item["expect_rc"], "exit code %s, documented %d" % (rc, item["expect_rc"]))
    if rc != 0:
        expect(out == b"", "an error wrote a response")
        expect("error" in _json(err), "an error did not describe itself on stderr")
        return
    command = item["request"]["command"]
    if command == "render":
        check_render(item, out, responses)
    else:
        CHECKS[command](item, _json(out), responses)
