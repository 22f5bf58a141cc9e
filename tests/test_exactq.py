import random

import pytest

from liemoment.errors import ShapeError
from liemoment.exactq import (
    Q,
    identity,
    inverse,
    q,
    qstr,
    qv,
    rank,
    transpose,
)


def test_rank_examples():
    assert rank(identity(3)) == 3
    assert rank(tuple(qv(r) for r in [[1, 2], [2, 4]])) == 1
    assert rank(tuple(qv(r) for r in [[2, -1], [-1, 2]])) == 2


def test_rank_transpose_and_solve_roundtrip():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = tuple(qv([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
                  for _ in range(n))
        assert rank(a) == rank(transpose(a))


def test_inverse():
    a = tuple(qv(r) for r in [[2, -1], [-1, 2]])
    assert inverse(a) == tuple(qv(r) for r in [["2/3", "1/3"], ["1/3", "2/3"]])
    with pytest.raises(ShapeError):
        inverse(tuple(qv(r) for r in [[1, 2], [2, 4]]))


def test_scalar_parse_format():
    assert qstr(q("4/6")) == "2/3"
    assert qstr(q(-3)) == "-3"
    assert q("2/4") == Q(1, 2)
    with pytest.raises(ShapeError):
        q(0.5)
