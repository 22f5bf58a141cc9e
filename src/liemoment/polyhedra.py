"""Exact rational convex polyhedra with dual descriptions.

A Polyhedron is stored canonically with BOTH a generator form (points,
rays, lines) and a halfspace form (inequalities normal.x >= offset, plus
affine-hull equalities).  The double description method is the single
conversion engine between the two forms; every public constructor
canonicalizes, so structural equality of canonical fields is semantic
equality.

Conventions:
  * extreme rays, lines, and facet normals are scaled to primitive
    integer vectors; all lists are lexicographically sorted;
  * the kernel (_dd_cone) runs on coprime Python int tuples only;
    Fraction values enter through _primitive and leave through
    _assemble, so every public field holds Fraction scalars;
  * a Cone is a polyhedron whose canonical point list is {0};
  * the empty polyhedron is a first-class value, never an error;
  * lower-dimensional polyhedra carry their affine hull as equalities,
    serialized as paired halfspaces;  lines serialize as +/- ray pairs.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, ShapeError
from .exactq import (
    Q,
    Vec,
    dot,
    format_vec,
    is_zero,
    q,
    qstr,
    qv,
    rank as mat_rank,
    rref,
    vadd,
    vneg,
    vscale,
    vsub,
    vzero,
)

# --------------------------------------------------------------------------
# primitive-vector normalization


def _primitive(v) -> Tuple[int, ...]:
    """Scale by a positive rational so entries are coprime ints."""
    m = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (m // x.denominator) for x in v]
    g = gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple(n // g for n in ints)


def _idot(a, b) -> int:
    return sum(map(mul, a, b))


def _sign_normalized(v: Vec) -> Vec:
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return vneg(v)
    return v


# --------------------------------------------------------------------------
# double description core


def _dd_cone(constraints: Sequence[Vec], dim: int):
    """Extreme rays and lineality basis of {x : a.x >= 0 for all a}.

    Incremental double description with the combinatorial adjacency test;
    lines are kept explicit so non-pointed cones are exact.  Constraints
    may be rational; every vector inside and out is a primitive int tuple.

    The constraints are inserted in lexicographic order (cddlib's lexmin
    rule), which keeps the intermediate ray sets small; the output is the
    same cone whatever the input order.  Each ray carries the bitmask of
    the inserted constraints it makes tight.  A new ray is a positive
    combination of a ray on each side of the new constraint, so it is
    tight exactly where both are: its mask is theirs ANDed, plus the new
    bit, and no dot product is needed.  Two rays can only be adjacent if
    they share at least dim - len(lines) - 2 tight constraints (with the
    lineality space they span a face of dimension len(lines) + 2), so
    pairs below that count skip the adjacency scan.

    The lines always span {x : a.x = 0 for every inserted a}, so no ray
    lies in their span and no two rays differ by a line: a plus and a
    minus ray are never opposite, and no combination repeats a ray.
    """
    lines: List[Vec] = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    rays: List[List] = []  # [vector, active-constraint bitmask]

    seen = set()
    for a in constraints:
        if len(a) != dim:
            raise ShapeError("constraint has %d coordinates, expected %d" % (len(a), dim))
        if not is_zero(a):
            seen.add(_primitive(a))

    for ci, a in enumerate(sorted(seen)):
        bit = 1 << ci

        pidx = None
        for idx, l in enumerate(lines):
            if _idot(a, l) != 0:
                pidx = idx
                break
        if pidx is not None:
            piv = lines.pop(pidx)
            da = _idot(a, piv)
            if da < 0:
                piv = vneg(piv)
                da = -da
            lines = [_combine(da, l, _idot(a, l), piv) for l in lines]
            newrays = []
            for vec, mask in rays:
                dv = _idot(a, vec)
                if dv != 0:
                    vec = _combine(da, vec, dv, piv)
                newrays.append([vec, mask | bit])
            full_mask = bit - 1  # the pivot was a line: orthogonal to all previous
            newrays.append([piv, full_mask])
            rays = newrays
            continue

        plus, zero, minus = [], [], []
        for entry in rays:
            s = _idot(a, entry[0])
            if s > 0:
                plus.append((entry[0], entry[1], s))
            elif s == 0:
                zero.append(entry)
            else:
                minus.append((entry[0], entry[1], s))
        if not minus:
            for entry in zero:
                entry[1] |= bit
            continue
        newrays = [[v, m] for v, m, _ in plus] + [[v, m | bit] for v, m in zero]
        need = dim - len(lines) - 2
        for pv, pm, dp in plus:
            for mv, mm, dm in minus:
                common = pm & mm
                if common.bit_count() < need:
                    continue
                for ov, om in rays:
                    if common & ~om == 0 and ov is not pv and ov is not mv:
                        break  # a third ray on their common face: not adjacent
                else:
                    newrays.append([_combine(dp, mv, dm, pv), common | bit])
        rays = newrays

    return [v for v, _ in rays], lines


def _combine(c, u, d, v) -> Tuple[int, ...]:
    """Primitive form of the int combination c*u - d*v."""
    return _primitive(tuple(c * x - d * y for x, y in zip(u, v)))


# --------------------------------------------------------------------------
# canonicalization helpers


def _canonical_lines(lines: Sequence[Vec]) -> Tuple[Vec, ...]:
    """Canonical basis of a line space: RREF rows, primitive, sign- and lex-normalized."""
    rows = [l for l in lines if not is_zero(l)]
    if not rows:
        return ()
    reduced, _ = rref(tuple(rows))
    return tuple(sorted(_sign_normalized(_primitive(r)) for r in reduced))


def _reduce_mod(v: Vec, basis_rref: Sequence[Vec]) -> Vec:
    """Subtract basis combinations to zero out each row's pivot coordinate.

    The rows are scaled RREF rows in any order: each row's pivot is its
    leading nonzero entry, where every other row is 0.
    """
    for row in basis_rref:
        p = next(i for i, x in enumerate(row) if x != 0)
        if v[p] != 0:
            v = vsub(v, vscale(row, Q(v[p], row[p])))
    return v


class Polyhedron:
    """Canonical dual description of a rational convex polyhedron."""

    __slots__ = ("dim", "empty", "points", "rays", "lines", "ineqs", "eqs")

    def __init__(self, dim, empty, points, rays, lines, ineqs, eqs):
        self.dim = dim
        self.empty = empty
        self.points = points
        self.rays = rays
        self.lines = lines
        self.ineqs = ineqs  # tuple of (normal, offset): normal.x >= offset
        self.eqs = eqs      # tuple of (normal, offset): normal.x == offset

    # -- equality / hashing are structural on canonical data ---------------

    def _key(self):
        return (self.dim, self.empty, self.points, self.rays, self.lines,
                self.ineqs, self.eqs)

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.empty:
            return "Polyhedron(empty, dim=%d)" % self.dim
        return "Polyhedron(dim=%d, points=%d, rays=%d, lines=%d, ineqs=%d, eqs=%d)" % (
            self.dim, len(self.points), len(self.rays), len(self.lines),
            len(self.ineqs), len(self.eqs))

    # -- predicates ---------------------------------------------------------

    def is_cone(self) -> bool:
        return not self.empty and self.points == (vzero(self.dim),)

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise ShapeError("point has %d coordinates, expected %d" % (len(x), self.dim))
        if self.empty:
            return False
        for n, b in self.eqs:
            if dot(n, x) != b:
                return False
        for n, b in self.ineqs:
            if dot(n, x) < b:
                return False
        return True

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        """Exact inclusion otherset <= self, checked generator-vs-facet."""
        if other.dim != self.dim:
            raise ShapeError("ambient dimension mismatch")
        if other.empty:
            return True
        if self.empty:
            return False
        for p in other.points:
            if not self.contains(p):
                return False
        normals = [n for n, _ in self.ineqs]
        eq_normals = [n for n, _ in self.eqs]
        for r in other.rays:
            if any(dot(n, r) < 0 for n in normals):
                return False
            if any(dot(n, r) != 0 for n in eq_normals):
                return False
        for l in other.lines:
            if any(dot(n, l) != 0 for n in normals):
                return False
            if any(dot(n, l) != 0 for n in eq_normals):
                return False
        return True


def _empty(dim: int) -> Polyhedron:
    return Polyhedron(dim, True, (), (), (), (), ())


def _assemble(dim, gen_rays, gen_lines, fac_rays, fac_lines) -> Polyhedron:
    """Canonical Polyhedron from the kernel's int rays and lines, in Fraction form."""
    points = []
    rays = []
    for r in gen_rays:
        if r[0] > 0:
            points.append(tuple(Q(x, r[0]) for x in r[1:]))
        else:
            rays.append(r[1:])
    if not points:
        return _empty(dim)
    lines = [l[1:] for l in gen_lines]

    lcanon = _canonical_lines(lines)
    red_rays = set()
    for r in rays:
        rr = _primitive(_reduce_mod(r, lcanon))
        if not is_zero(rr):
            red_rays.add(rr)
    red_points = sorted({_reduce_mod(p, lcanon) for p in points})

    eq_rows = []
    for e in fac_lines:
        n, c0 = e[1:], e[0]
        if is_zero(n):
            # x0 == 0 would mean the polyhedron is empty; points exist, so skip
            continue
        eq_rows.append(tuple(n) + (-c0,))
    eq_canon = ()
    if eq_rows:
        reduced, _ = rref(tuple(eq_rows))
        eq_canon = tuple(_sign_normalized(_primitive(r)) for r in reduced)
    eqs = tuple(sorted((qv(r[:-1]), Q(r[-1])) for r in eq_canon))

    ineqs = set()
    for f in fac_rays:
        n, c0 = f[1:], f[0]
        if is_zero(n):
            continue  # the homogenization facet x0 >= 0
        # the equalities have points, so each row's pivot is a normal coordinate
        row = _reduce_mod(tuple(n) + (-c0,), eq_canon)
        nn, bb = row[:-1], row[-1]
        if is_zero(nn):
            continue
        prow = _primitive(tuple(nn) + (bb,))
        # keep orientation: normal.x >= offset scales by positive factors only
        ineqs.add((qv(prow[:-1]), Q(prow[-1])))

    return Polyhedron(
        dim,
        False,
        tuple(red_points),
        tuple(qv(r) for r in sorted(red_rays)),
        tuple(qv(l) for l in lcanon),
        tuple(sorted(ineqs)),
        eqs,
    )


def _dual(dim, rays, lines, *extra):
    """One DD pass: the dual (rays, lines) of a homogenized cone's (rays, lines).

    Generators give the facets of the cone they span; facets give the
    generators of the cone they cut out.
    """
    return _dd_cone(list(rays) + list(lines) + [vneg(l) for l in lines] + list(extra),
                    dim + 1)


def _canonicalize_from_gens(dim, points, rays=(), lines=()) -> Polyhedron:
    if not points:
        return _empty(dim)
    gens = [(Q(1),) + tuple(p) for p in points]
    gens += [(Q(0),) + tuple(r) for r in rays if not is_zero(r)]
    line_rows = [(Q(0),) + tuple(l) for l in lines if not is_zero(l)]
    # the first pass already returns the irredundant facets
    fac_rays, fac_lines = _dual(dim, gens, line_rows)
    gen_rays, gen_lines = _dual(dim, fac_rays, fac_lines, (Q(1),) + vzero(dim))
    return _assemble(dim, gen_rays, gen_lines, fac_rays, fac_lines)


def _canonicalize_from_halfspaces(dim, ineqs, eqs=()) -> Polyhedron:
    rows = [(Q(-b),) + tuple(n) for n, b in ineqs]
    rows += [(Q(-b),) + tuple(n) for n, b in eqs]
    rows += [(Q(b),) + tuple(vneg(n)) for n, b in eqs]
    gen_rays, gen_lines = _dual(dim, rows, (), (Q(1),) + vzero(dim))
    if not any(r[0] > 0 for r in gen_rays):
        return _empty(dim)
    fac_rays, fac_lines = _dual(dim, gen_rays, gen_lines)
    return _assemble(dim, gen_rays, gen_lines, fac_rays, fac_lines)


# --------------------------------------------------------------------------
# public constructors


def from_generators(dim: int, points: Iterable[Vec], rays: Iterable[Vec] = (),
                    lines: Iterable[Vec] = ()) -> Polyhedron:
    pts = [tuple(p) for p in points]
    rys = [tuple(r) for r in rays]
    lns = [tuple(l) for l in lines]
    for v in pts + rys + lns:
        if len(v) != dim:
            raise ShapeError("generator has %d coordinates, expected %d" % (len(v), dim))
    return _canonicalize_from_gens(dim, pts, rys, lns)


def from_halfspaces(dim: int, ineqs: Iterable[Tuple[Vec, Q]],
                    eqs: Iterable[Tuple[Vec, Q]] = ()) -> Polyhedron:
    iq = [(tuple(n), b) for n, b in ineqs]
    ee = [(tuple(n), b) for n, b in eqs]
    for n, _ in iq + ee:
        if len(n) != dim:
            raise ShapeError("normal has %d coordinates, expected %d" % (len(n), dim))
    return _canonicalize_from_halfspaces(dim, iq, ee)


def empty_polyhedron(dim: int) -> Polyhedron:
    return _empty(dim)


def hull(points: Sequence[Vec]) -> Polyhedron:
    """Convex hull of finitely many points with irredundant vertex list."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise DomainError("hull of an empty point set")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise ShapeError("points of mixed dimension in hull")
    return from_generators(dim, pts)


def hull_vertices_cut(points: Sequence[Vec],
                      halfspaces: Iterable[Tuple[Vec, Q]]) -> Tuple[Vec, ...]:
    """Sorted vertices of hull(points) cut by the halfspaces normal.x >= offset.

    Two DD passes instead of the four of intersect(from_halfspaces, hull):
    one from the points to their facets, one from those facets plus the
    cuts to the generators, read back as Fraction vertices.
    """
    dim = len(points[0])
    gens = [(1,) + tuple(p) for p in points]
    fac_rays, fac_lines = _dual(dim, gens, ())
    cuts = [(-b,) + tuple(n) for n, b in halfspaces]
    gen_rays, _ = _dual(dim, fac_rays, fac_lines, (1,) + (0,) * dim, *cuts)
    return tuple(sorted({tuple(Q(x, r[0]) for x in r[1:]) for r in gen_rays if r[0] > 0}))


def cone_from_rays(rays: Sequence[Vec], dim: Optional[int] = None) -> Polyhedron:
    """Convex cone spanned by rays; {} spans the origin cone."""
    rys = [tuple(r) for r in rays]
    if dim is None:
        if not rys:
            raise ShapeError("cone_from_rays needs dim when the ray list is empty")
        dim = len(rys[0])
    return from_generators(dim, [vzero(dim)], rys)


def intersect(a: Polyhedron, b: Polyhedron) -> Polyhedron:
    if a.dim != b.dim:
        raise ShapeError("ambient dimension mismatch: %d vs %d" % (a.dim, b.dim))
    if a.empty or b.empty:
        return _empty(a.dim)
    return from_halfspaces(a.dim, a.ineqs + b.ineqs, a.eqs + b.eqs)


def join_with_origin(p: Polyhedron) -> Polyhedron:
    """Convex hull of a polytope with the origin."""
    if p.rays or p.lines:
        raise DomainError("join_with_origin requires a polytope (p has rays)")
    if p.empty:
        return from_generators(p.dim, [vzero(p.dim)])
    return from_generators(p.dim, list(p.points) + [vzero(p.dim)])


def cone_over(p: Polyhedron) -> Polyhedron:
    """Cone spanned by a polytope's vertices (an origin vertex is absorbed)."""
    if p.rays or p.lines:
        raise DomainError("cone_over requires a polytope (p has rays)")
    if p.empty:
        return cone_from_rays([], p.dim)
    return cone_from_rays(list(p.points), p.dim)


def shift(p: Polyhedron, v: Vec) -> Polyhedron:
    """Translate by v (canonical form is preserved by translation)."""
    if len(v) != p.dim:
        raise ShapeError("shift vector has %d coordinates, expected %d" % (len(v), p.dim))
    if p.empty:
        return p
    return Polyhedron(
        p.dim,
        False,
        tuple(vadd(pt, v) for pt in p.points),
        p.rays,
        p.lines,
        tuple((n, b + dot(n, v)) for n, b in p.ineqs),
        tuple((n, b + dot(n, v)) for n, b in p.eqs),
    )


def slice_subspace(p: Polyhedron, basis: Sequence[Vec]) -> Polyhedron:
    """Intersect with the span of basis, re-expressed in basis coordinates."""
    basis = [tuple(b) for b in basis]
    if not basis:
        raise DomainError("slice needs a nonempty subspace basis")
    for b in basis:
        if len(b) != p.dim:
            raise ShapeError("basis vector has %d coordinates, expected %d" % (len(b), p.dim))
    if mat_rank(tuple(basis)) != len(basis):
        raise DomainError("dependent subspace basis")
    k = len(basis)
    if p.empty:
        return _empty(k)
    ineqs = [(tuple(dot(n, b) for b in basis), off) for n, off in p.ineqs]
    eqs = [(tuple(dot(n, b) for b in basis), off) for n, off in p.eqs]
    return from_halfspaces(k, ineqs, eqs)


def is_proper(p: Polyhedron) -> bool:
    """Whether a cone contains no line."""
    if not p.is_cone():
        raise DomainError("is_proper is defined for cones")
    return not p.lines


# --------------------------------------------------------------------------
# serialization


def to_json(p: Polyhedron) -> dict:
    rays_out = sorted(set(p.rays) | set(p.lines) | {vneg(l) for l in p.lines})
    hs = [(n, b) for n, b in p.ineqs]
    for n, b in p.eqs:
        hs.append((n, b))
        hs.append((vneg(n), -b))
    hs.sort()
    return {
        "dim": p.dim,
        "empty": p.empty,
        "points": [format_vec(pt) for pt in p.points],
        "rays": [format_vec(r) for r in rays_out],
        "halfspaces": [
            {"normal": format_vec(n), "offset": qstr(b)} for n, b in hs
        ],
    }


def from_json(obj: dict) -> Polyhedron:
    """Parse the JSON form; generator fields win when both forms are present.

    A rays-only generator form is read as a cone with apex 0.
    """
    if not isinstance(obj, dict):
        raise ShapeError("polyhedron JSON must be an object")
    given_dim = obj.get("dim")
    if "dim" in obj and (not isinstance(given_dim, int) or isinstance(given_dim, bool)):
        raise ShapeError("polyhedron JSON dim must be an integer")
    if obj.get("empty"):
        if "dim" not in obj:
            raise ShapeError("empty polyhedron JSON needs a dim field")
        return _empty(given_dim)
    try:
        points = [qv(v) for v in obj.get("points", [])]
        rays = [qv(v) for v in obj.get("rays", [])]
        halfspaces = [
            (qv(h["normal"]), q(h["offset"])) for h in obj.get("halfspaces", [])
        ]
    except (KeyError, TypeError):
        raise ShapeError("malformed polyhedron JSON")
    dims = {len(v) for v in points} | {len(v) for v in rays} | {len(n) for n, _ in halfspaces}
    if "dim" in obj:
        dims.add(given_dim)
    if len(dims) != 1:
        raise ShapeError("inconsistent or missing dimensions in polyhedron JSON")
    dim = dims.pop()
    if rays and not points:
        points = [vzero(dim)]
    if points:
        return from_generators(dim, points, rays)
    return from_halfspaces(dim, halfspaces)
