"""Exact rational scalars, vectors, and matrices.

Every quantity that touches weight data is a rational number: scalars are
``fractions.Fraction`` or, for integral data, ``int`` values (the root
data and reflection walks of ``rootsys``, the double-description kernel
of ``polyhedra``); vectors are plain tuples of scalars, and matrices are
tuples of row tuples.  Nothing in this package ever converts weight
data to floating point.

Scalars serialize as the strings ``"p/q"`` or ``"p"``.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, Tuple

from .errors import ShapeError

Vec = Tuple  # tuple of Q
Mat = Tuple  # tuple of Vec rows

ZERO = Q(0)
ONE = Q(1)


def q(x) -> Q:
    """Coerce an int, string ("p/q" or "p"), or scalar to an exact rational."""
    if isinstance(x, float):
        raise ShapeError("floating-point input rejected; pass int or 'p/q' string")
    if isinstance(x, bool):
        raise ShapeError("boolean is not a rational scalar")
    try:
        return Q(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ShapeError("not a rational literal: %r" % (x,))


def qstr(x) -> str:
    """Serialize a rational as "p" or "p/q"."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else "%d/%d" % (n, d)


def qfloor(x) -> int:
    return x.numerator // x.denominator


def qv(xs: Iterable) -> Vec:
    """Build an exact vector from ints, strings, or scalars."""
    return tuple(q(x) for x in xs)


def vzero(n: int) -> Vec:
    return (ZERO,) * n


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ShapeError("vector length mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ShapeError("vector length mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(a: Vec, c) -> Vec:
    return tuple(x * c for x in a)


def dot(a: Vec, b: Vec):
    if len(a) != len(b):
        raise ShapeError("vector length mismatch: %d vs %d" % (len(a), len(b)))
    return sum((x * y for x, y in zip(a, b)), ZERO)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def matvec(a: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in a)


def _eliminate(rows):
    """Forward elimination; returns (echelon rows, pivot column list)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank_ = 0
    for col in range(ncols):
        piv = None
        for i in range(rank_, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank_], rows[piv] = rows[piv], rows[rank_]
        pr = rows[rank_]
        inv = ONE / pr[col]
        rows[rank_] = pr = [x * inv for x in pr]
        for i in range(len(rows)):
            if i != rank_ and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], pr)]
        pivots.append(col)
        rank_ += 1
    return rows, pivots


def rref(a: Mat):
    """Reduced row-echelon form and pivot columns."""
    if not a:
        return (), ()
    rows, pivots = _eliminate(a)
    return tuple(tuple(r) for r in rows[: len(pivots)]), tuple(pivots)


def rank(a: Mat) -> int:
    """Rank over the rationals."""
    if not a:
        return 0
    _, pivots = _eliminate(a)
    return len(pivots)


def inverse(a: Mat) -> Mat:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ShapeError("inverse of a non-square matrix")
    aug = [list(row) + [ONE if j == i else ZERO for j in range(n)]
           for i, row in enumerate(a)]
    rows, pivots = _eliminate(aug)
    if list(pivots) != list(range(n)):
        raise ShapeError("singular matrix")
    return tuple(tuple(r[n:]) for r in rows)


def format_vec(v: Vec):
    return [qstr(x) for x in v]
