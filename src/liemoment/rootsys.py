"""Root systems for products of simple types with a central torus.

All weights live in fundamental-weight coordinates: coordinate i of a
weight is its pairing with the i-th simple coroot, so chamber membership
is a sign check and reflections are row operations with the Cartan
matrix.  Central-torus coordinates are appended after the semisimple
ones and are fixed by every reflection.

The root data is integral in these coordinates, and is held as ``int``
tuples: the positive roots, their coroot functionals, the simple roots
and the matrix of the involution ``*`` (the public ``cartan`` and
``simple_roots`` hold ``Fraction`` values).  There is no Gram matrix:
inner products are taken against roots, (lam, beta) = d_beta <lam, beta
coroot> with the half square length d_beta = (beta, beta) / 2.
Reflections, ``dominantize`` and Weyl orbits walk on ``int`` tuples
scaled by the common denominator; an orbit or module larger than
``MAX_ENUMERATION`` points is refused with a ``DomainError`` before it is
enumerated, and so is a group of total rank above ``MAX_RANK`` before
its root system is built.

Simple-reflection indices are 0-based throughout.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import lcm
from operator import mul
from typing import Dict, List, Tuple

from .errors import DomainError, ShapeError
from .exactq import Q, Vec, dot, qv, transpose, vneg

# Largest Weyl orbit (rootsys.weyl_orbit) or module dimension
# (repweights.irrep_weights) a request may enumerate.  The E6 orbit of
# (1,1,1,1,1,1) has 51,840 points and B4 (1,1,1,1) dimension 65,536; a
# generic E8 orbit has 696,729,600 points and would exhaust memory.
MAX_ENUMERATION = 10 ** 6

# Largest total rank (semisimple plus torus) of a group.  At rank 12 the
# slowest types, B12 and C12, build with their star matrix in 0.09 s
# (E8: 0.04 s); B16 takes 0.25 s, D20 0.53 s and A30 over 1 s, growing
# with the number of roots.  E8, rank 8, is the largest group in use.
MAX_RANK = 12

# A rank has at most nine digits: a longer one is over MAX_RANK anyway,
# and int() refuses a string of thousands of digits with a ValueError.
_FACTOR_RE = re.compile(r"^([ABCDEFGT])(\d{1,9})$")

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _chain(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for i in range(n - 1):
        rows[i][i + 1] = -1
        rows[i + 1][i] = -1
    return rows


def _cartan_and_lengths(letter: str, n: int):
    """Cartan matrix (integer rows) and half-square-lengths d_i per type.

    Normalization: long roots have squared length 2 (d = 1).
    """
    half = Q(1, 2)
    if letter == "A":
        return _chain(n), [Q(1)] * n
    if letter == "B":
        rows = _chain(n)
        rows[n - 2][n - 1] = -2
        return rows, [Q(1)] * (n - 1) + [half]
    if letter == "C":
        rows = _chain(n)
        rows[n - 1][n - 2] = -2
        return rows, [half] * (n - 1) + [Q(1)]
    if letter == "D":
        rows = _chain(n)
        rows[n - 1][n - 2] = 0
        rows[n - 2][n - 1] = 0
        rows[n - 3][n - 1] = -1
        rows[n - 1][n - 3] = -1
        return rows, [Q(1)] * n
    if letter == "E":
        # Bourbaki numbering: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4.
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2
        chain = [0] + list(range(2, n))
        for a, b in zip(chain, chain[1:]):
            rows[a][b] = rows[b][a] = -1
        rows[1][3] = rows[3][1] = -1
        return rows, [Q(1)] * n
    if letter == "F":
        rows = _chain(4)
        rows[1][2] = -2
        rows[2][1] = -1
        return rows, [Q(1), Q(1), half, half]
    if letter == "G":
        return [[2, -1], [-3, 2]], [Q(1, 3), Q(1)]
    raise DomainError("unknown Cartan type %r" % letter)


class GroupSpec:
    """Product of simple factors plus a central torus, e.g. "A2xB3xT1"."""

    def __init__(self, factors, torus_rank=0):
        factors = tuple((str(l), int(n)) for l, n in factors)
        for letter, n in factors:
            if letter not in _RANK_BOUNDS:
                raise DomainError("unknown Cartan type %r" % letter)
            lo, hi = _RANK_BOUNDS[letter]
            if n < lo or (hi is not None and n > hi):
                raise DomainError("rank %d out of range for type %s" % (n, letter))
        if torus_rank < 0:
            raise DomainError("negative torus rank")
        rank = sum(n for _, n in factors) + torus_rank
        if rank > MAX_RANK:
            raise DomainError("group rank %d exceeds the limit of %d" % (rank, MAX_RANK))
        self.factors = factors
        self.torus_rank = int(torus_rank)

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        factors = []
        torus = 0
        if not text:
            raise DomainError("empty group spec")
        for token in text.split("x"):
            m = _FACTOR_RE.match(token.strip())
            if not m:
                raise DomainError("bad group factor %r" % token)
            letter, n = m.group(1), int(m.group(2))
            if letter == "T":
                torus += n
            else:
                factors.append((letter, n))
        return cls(factors, torus)

    @property
    def ss_rank(self) -> int:
        return sum(n for _, n in self.factors)

    @property
    def rank(self) -> int:
        return self.ss_rank + self.torus_rank

    def __str__(self):
        parts = ["%s%d" % f for f in self.factors]
        if self.torus_rank:
            parts.append("T%d" % self.torus_rank)
        return "x".join(parts) if parts else "T0"

    def __eq__(self, other):
        return (
            isinstance(other, GroupSpec)
            and self.factors == other.factors
            and self.torus_rank == other.torus_rank
        )

    def __hash__(self):
        return hash((self.factors, self.torus_rank))


def _integral(v) -> Tuple[int, ...]:
    """An integral rational vector as an int tuple."""
    if any(x.denominator != 1 for x in v):
        raise ArithmeticError("non-integral root datum %r" % (v,))
    return tuple(int(x) for x in v)


def _factor_roots(cartan_rows):
    """Positive roots of one simple factor with their simple-root coefficients.

    Returns sorted (root, coefficients) pairs of int tuples.  A positive
    root gamma that is not simple has gamma[i] > 0 for some i, and
    beta = s_i(gamma) is a lower positive root with beta[i] < 0; so the
    walk up from the simple roots, applying s_i where coordinate i is
    negative, reaches every positive root.  s_i subtracts beta[i] from
    coefficient i.
    """
    n = len(cartan_rows)
    simple = [tuple(row) for row in cartan_rows]
    found = {alpha: tuple(int(i == j) for j in range(n)) for i, alpha in enumerate(simple)}
    queue = list(found)
    while queue:
        beta = queue.pop()
        for i in range(n):
            c = beta[i]
            if c < 0:
                ref = tuple(b - c * a for b, a in zip(beta, simple[i]))
                if ref not in found:
                    coeffs = found[beta]
                    found[ref] = coeffs[:i] + (coeffs[i] - c,) + coeffs[i + 1:]
                    queue.append(ref)
    return sorted(found.items())


class RootSystem:
    """Cartan data, positive roots, chamber, and Weyl operations."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.ss_rank = spec.ss_rank
        self.rank = spec.ss_rank + spec.torus_rank
        self.torus_rank = spec.torus_rank

        cartan_rows: List[List[int]] = []
        positive = []
        pairing: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        half_length: Dict[Tuple[int, ...], Q] = {}
        supports = []
        o = 0
        for letter, n in spec.factors:
            rows, ds = _cartan_and_lengths(letter, n)
            for r in rows:
                cartan_rows.append([0] * o + list(r) + [0] * (self.ss_rank - o - n))
            tail = (0,) * (self.rank - o - n)
            for beta, coeffs in _factor_roots(rows):
                full = (0,) * o + beta + tail
                # (lambda, coroot of beta) as a linear functional on weights:
                # coroot = sum_i c_i (d_i / d_beta) alpha_i-check, where
                # d_beta = (beta, beta) / 2 = sum_i c_i beta_i d_i / 2.
                d_beta = sum(c * b * d for c, b, d in zip(coeffs, beta, ds)) / 2
                check = _integral([coeffs[i] * ds[i] / d_beta for i in range(n)])
                positive.append(full)
                pairing[full] = (0,) * o + check + tail
                half_length[full] = d_beta
                supports.append((frozenset(o + i for i in range(n) if coeffs[i]),
                                 sum(coeffs)))
            o += n

        self.cartan = tuple(qv(r) for r in cartan_rows)
        pad = (Q(0),) * spec.torus_rank
        self.simple_roots = tuple(row + pad for row in self.cartan)
        self._simple = tuple(tuple(r) + (0,) * spec.torus_rank for r in cartan_rows)
        positive.sort()
        self.positive_roots = tuple(positive)
        self._coroot_of = pairing
        # d_beta = (beta, beta) / 2 of each positive root, beside its coroot
        self._half_length = half_length
        # (support, height) of each positive root in the simple-root basis
        self._root_supports = tuple(supports)

    # -- basic predicates -------------------------------------------------

    def check_dim(self, v: Vec):
        if len(v) != self.rank:
            raise ShapeError(
                "weight has %d coordinates, expected %d" % (len(v), self.rank)
            )

    def is_dominant(self, v: Vec) -> bool:
        self.check_dim(v)
        return all(v[i] >= 0 for i in range(self.ss_rank))

    def is_integral(self, v: Vec) -> bool:
        self.check_dim(v)
        return all(x.denominator == 1 for x in v)

    def coroot_pairing(self, alpha: Vec, lam: Vec):
        """Pairing (lam, coroot of alpha) for a positive root alpha."""
        try:
            check = self._coroot_of[alpha]
        except KeyError:
            raise DomainError("%r is not a positive root" % (alpha,))
        return dot(check, lam)

    def weyl_order(self) -> int:
        return _parabolic_order(self, range(self.ss_rank))

    @cached_property
    def star_matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """Matrix of the linear involution -w0 in weight coordinates (int rows)."""
        cols = [star(self, tuple(int(i == j) for j in range(self.rank)))
                for i in range(self.rank)]
        return transpose(tuple(cols))

    @cached_property
    def factor_systems(self) -> Tuple["RootSystem", ...]:
        """One root system per simple factor, in order; (self,) when there
        is a single simple factor and no torus."""
        if len(self.spec.factors) == 1 and not self.torus_rank:
            return (self,)
        return tuple(RootSystem(GroupSpec([f])) for f in self.spec.factors)


def build(spec) -> RootSystem:
    """Construct the root system for a GroupSpec or a spec string."""
    if isinstance(spec, str):
        spec = GroupSpec.parse(spec)
    return RootSystem(spec)


def _parabolic_order(rs: RootSystem, indices) -> int:
    """Order of the parabolic subgroup W_I on the simple indices I.

    It is the product of the degrees m + 1 over its exponents m, which
    Kostant's theorem reads off the positive roots supported on I: the
    number of exponents >= j is the number of those roots of height j.
    """
    indices = set(indices)
    per_height: Dict[int, int] = {}
    for support, height in rs._root_supports:
        if support <= indices:
            per_height[height] = per_height.get(height, 0) + 1
    order = 1
    for j in range(1, per_height.get(1, 0) + 1):
        order *= 1 + sum(1 for count in per_height.values() if count >= j)
    return order


def orbit_size(rs: RootSystem, lam: Vec) -> int:
    """Number of points in the Weyl orbit of a dominant weight, in closed form:
    |W| / |W_lam|, where the stabilizer W_lam is the parabolic subgroup on
    the zero coordinates of lam."""
    return rs.weyl_order() // _parabolic_order(rs, (i for i in range(rs.ss_rank) if lam[i] == 0))


def weyl_orbit(rs: RootSystem, lam: Vec) -> Tuple[Vec, ...]:
    """Full Weyl orbit, lexicographically sorted.

    The walk starts at the dominant representative scaled by the common
    denominator d of its coordinates, and applies s_i only where
    coordinate i is positive.  That reaches every orbit point: a
    non-dominant point has a negative coordinate i, and s_i moves it up to
    a point whose coordinate i is positive, from which the walk steps back
    down.  Points are int tuples when d = 1 and Fraction tuples otherwise.
    Orbits of more than MAX_ENUMERATION points are refused.
    """
    dom, _ = dominantize(rs, lam)
    size = orbit_size(rs, dom)
    if size > MAX_ENUMERATION:
        raise DomainError("Weyl orbit of %d points exceeds the limit of %d"
                          % (size, MAX_ENUMERATION))
    d, top = _scaled(dom)
    seen = {top}
    queue = [top]
    while queue:
        mu = queue.pop()
        for i, alpha in enumerate(rs._simple):
            c = mu[i]
            if c > 0:
                nu = tuple(x - c * a for x, a in zip(mu, alpha))
                if nu not in seen:
                    seen.add(nu)
                    queue.append(nu)
    if d == 1:
        return tuple(sorted(seen))
    return tuple(tuple(Q(x, d) for x in v) for v in sorted(seen))


def dominantize(rs: RootSystem, lam: Vec):
    """Dominant orbit representative and the word of reflections applied,
    reflecting at the first negative coordinate; integral lam gives ints."""
    rs.check_dim(lam)
    d, cur = _scaled(lam)
    word = []
    while True:
        for i in range(rs.ss_rank):
            c = cur[i]
            if c < 0:
                cur = tuple(x - c * a for x, a in zip(cur, rs._simple[i]))
                word.append(i)
                break
        else:
            return (cur if d == 1 else tuple(Q(x, d) for x in cur)), tuple(word)


def _scaled(v: Vec):
    """(d, d * v) for the common denominator d of v, as an int and an int tuple."""
    d = lcm(*(x.denominator for x in v))
    return d, tuple(x.numerator * (d // x.denominator) for x in v)



def star(rs: RootSystem, lam: Vec) -> Vec:
    """The involution lam -> dominantize(-lam) on dominant weights."""
    if not rs.is_dominant(lam):
        raise DomainError("star is defined on dominant weights")
    return dominantize(rs, vneg(lam))[0]


def star_linear(rs: RootSystem, v: Vec) -> Vec:
    """-w0 applied to an arbitrary (not necessarily dominant) vector.

    Int in, int out: the matrix is integral."""
    rs.check_dim(v)
    return tuple(sum(map(mul, row, v)) for row in rs.star_matrix)


def dominant_roots(rs: RootSystem) -> Tuple[Vec, ...]:
    """Positive roots lying in the chamber (per-factor highest roots)."""
    if not rs.spec.factors:
        raise DomainError("no semisimple part: there are no roots")
    return tuple(b for b in rs.positive_roots if rs.is_dominant(b))
