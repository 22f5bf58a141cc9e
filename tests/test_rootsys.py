import random
from itertools import product
from math import factorial

import pytest

from liemoment.errors import DomainError
from liemoment.exactq import Q, qv, vneg
from liemoment.rootsys import (
    MAX_ENUMERATION,
    MAX_RANK,
    GroupSpec,
    build,
    dominant_roots,
    dominantize,
    orbit_size,
    reflect,
    star,
    star_linear,
    weyl_orbit,
)

from oracles import reflection_closure

A2 = build("A2")
B2 = build("B2")
G2 = build("G2")
A3 = build("A3")


def test_group_spec_parsing():
    spec = GroupSpec.parse("A2xB3xT2")
    assert spec.factors == (("A", 2), ("B", 3))
    assert spec.torus_rank == 2
    assert spec.rank == 7
    assert str(spec) == "A2xB3xT2"
    for bad in ("", "H3", "B1", "D2", "E9", "F3", "G3", "A2y"):
        with pytest.raises(DomainError):
            GroupSpec.parse(bad)


def test_positive_root_counts():
    assert len(A2.positive_roots) == 3
    assert len(B2.positive_roots) == 4
    assert len(G2.positive_roots) == 6
    assert len(A3.positive_roots) == 6
    assert len(build("D4").positive_roots) == 12
    assert len(build("F4").positive_roots) == 24
    assert build("T2").positive_roots == ()


def test_a2_positive_roots_closure():
    assert set(A2.positive_roots) == {qv([2, -1]), qv([-1, 2]), qv([1, 1])}


def test_positive_roots_are_nonneg_simple_combinations():
    for rs in (A2, B2, G2, A3):
        from liemoment.exactq import inverse, matvec, transpose

        cinv_t = transpose(inverse(rs.cartan))
        for beta in rs.positive_roots:
            coeffs = matvec(cinv_t, beta[: rs.ss_rank])
            assert all(c >= 0 and c.denominator == 1 for c in coeffs)


def test_reflect_examples():
    assert reflect(A2, 0, qv([1, 2])) == qv([-1, 3])
    assert reflect(A2, 1, qv([1, 2])) == qv([3, -2])
    assert reflect(A2, 0, qv([0, 5])) == qv([0, 5])
    with pytest.raises(DomainError):
        reflect(A2, 2, qv([1, 0]))


def test_reflect_involutive():
    rng = random.Random(3)
    for _ in range(50):
        lam = qv([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)])
        for i in range(2):
            assert reflect(A2, i, reflect(A2, i, lam)) == lam


def test_weyl_orbit_examples():
    orbit = weyl_orbit(A2, qv([1, 2]))
    assert set(orbit) == {qv([1, 2]), qv([-1, 3]), qv([3, -2]), qv([-3, 1]),
                          qv([2, -3]), qv([-2, -1])}
    assert list(orbit) == sorted(orbit)
    assert weyl_orbit(A2, qv([0, 0])) == (qv([0, 0]),)
    assert set(weyl_orbit(A2, qv([1, 0]))) == {qv([1, 0]), qv([-1, 1]), qv([0, -1])}


def test_orbit_size_times_stabilizer():
    # strictly dominant orbits have size |W|
    for rs, size in ((A2, 6), (B2, 8), (G2, 12)):
        assert len(weyl_orbit(rs, qv([1, 2]))) == size == rs.weyl_order()
    # orbit size always divides |W|
    for rs in (A2, B2, G2, A3):
        for lam in ([1, 0], [0, 1], [1, 1], [2, 0]):
            v = qv((lam + [0, 0])[: rs.rank])
            assert rs.weyl_order() % len(weyl_orbit(rs, v)) == 0


def test_dominantize():
    assert dominantize(A2, qv([-1, 3])) == (qv([1, 2]), (0,))
    assert dominantize(A2, qv([1, 2]))[1] == ()
    dom, word = dominantize(A2, qv([-2, -1]))
    assert dom == qv([1, 2])
    back = dom
    for i in reversed(word):
        back = reflect(A2, i, back)
    assert back == qv([-2, -1])


def test_dominantize_random_in_chamber():
    rng = random.Random(11)
    for rs in (A2, B2, G2, A3, build("A2xT1")):
        for _ in range(250):
            lam = qv([Q(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(rs.rank)])
            dom, word = dominantize(rs, lam)
            assert rs.is_dominant(dom)
            assert dom in weyl_orbit(rs, lam)


def test_star_examples():
    assert star(A2, qv([2, 1])) == qv([1, 2])
    for lam in ([0, 0], [1, 0], [2, 3]):
        assert star(B2, qv(lam)) == qv(lam)  # -w0 is the identity on B2
    assert star(A3, qv([1, 0, 0])) == qv([0, 0, 1])
    with pytest.raises(DomainError):
        star(A2, qv([-1, 2]))


def test_star_involutive():
    rng = random.Random(5)
    for rs in (A2, B2, G2, A3, build("A2xA1xT1")):
        for _ in range(60):
            lam = qv([Q(rng.randint(0, 8), rng.randint(1, 3))
                      for _ in range(rs.ss_rank)]
                     + [Q(rng.randint(-5, 5)) for _ in range(rs.torus_rank)])
            assert star(rs, star(rs, lam)) == lam


def test_star_linear_extends_star():
    rng = random.Random(9)
    for rs in (A2, A3, G2):
        for _ in range(40):
            lam = qv([Q(rng.randint(-6, 6)) for _ in range(rs.rank)])
            dom, _ = dominantize(rs, lam)
            assert star_linear(rs, dom) == star(rs, dom)
            # the linear map permutes each Weyl orbit
            assert star_linear(rs, lam) in weyl_orbit(rs, vneg(lam))


def test_dominant_roots():
    assert dominant_roots(A2) == (qv([1, 1]),)
    assert dominant_roots(A3) == (qv([1, 0, 1]),)
    assert len(dominant_roots(G2)) == 2
    assert set(dominant_roots(G2)) == {qv([1, 0]), qv([0, 1])}
    assert len(dominant_roots(B2)) == 2


def test_torus_coordinates_fixed_by_reflections():
    rs = build("A2xT2")
    lam = qv([3, -1, 5, -7])
    for i in range(rs.ss_rank):
        assert reflect(rs, i, lam)[2:] == lam[2:]


def test_exceptional_positive_root_counts():
    for name, count in (("E6", 36), ("E7", 63), ("E8", 120), ("F4", 24),
                        ("D4", 12), ("D5", 20), ("B4", 16), ("C4", 16)):
        assert len(build(name).positive_roots) == count, name


def test_positive_root_count_matches_adjoint_dimension():
    # |roots| = dim(adjoint) - rank, so the count is (dim - rank) / 2
    from liemoment.repweights import dim as weyl_dim

    for name, adjoint in (("A2", [1, 1]), ("G2", [0, 1]), ("B2", [0, 2]),
                          ("A3", [1, 0, 1])):
        rs = build(name)
        d = weyl_dim(rs, qv(adjoint))
        assert len(rs.positive_roots) == (d - rs.rank) // 2


def test_star_diagram_automorphisms():
    d4 = build("D4")
    for lam in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):
        assert star(d4, qv(lam)) == qv(lam)  # -w0 = 1 for even D
    d5 = build("D5")
    assert star(d5, qv([0, 0, 0, 1, 0])) == qv([0, 0, 0, 0, 1])  # odd D swaps the fork
    assert star(d5, qv([1, 0, 0, 0, 0])) == qv([1, 0, 0, 0, 0])
    e6 = build("E6")
    assert star(e6, qv([1, 0, 0, 0, 0, 0])) == qv([0, 0, 0, 0, 0, 1])
    assert star(e6, qv([0, 0, 1, 0, 0, 0])) == qv([0, 0, 0, 0, 1, 0])
    e7 = build("E7")
    assert star(e7, qv([0, 1, 0, 0, 0, 1, 0])) == qv([0, 1, 0, 0, 0, 1, 0])


ORBIT_GROUPS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "A2xA1xT1")


def test_weyl_orbit_matches_reflection_closure():
    rng = random.Random(23)
    for name in ORBIT_GROUPS:
        rs = build(name)
        for kind in ("integral", "rational", "integral", "rational"):
            den = (lambda: 1) if kind == "integral" else (lambda: rng.randint(1, 4))
            lam = qv([Q(rng.randint(-3, 3), den()) for _ in range(rs.ss_rank)]
                     + [Q(rng.randint(-5, 5), den()) or Q(1) for _ in range(rs.torus_rank)])
            orbit = weyl_orbit(rs, lam)
            assert list(orbit) == sorted(orbit)
            assert len(set(orbit)) == len(orbit)
            assert set(orbit) == reflection_closure(rs.simple_roots, lam), (name, lam)


def test_weyl_orbit_number_types():
    for name, lam in (("B3", [1, -2, 3]), ("A2xA1xT1", [0, 1, -1, 4]), ("G2", [0, 0])):
        orbit = weyl_orbit(build(name), qv(lam))
        assert all(type(x) is int for w in orbit for x in w), name
    for name, lam in (("A2", ["1/2", "-1/3"]), ("A2xA1xT1", [1, 0, 1, "1/2"])):
        orbit = weyl_orbit(build(name), qv(lam))
        assert all(type(x) is Q for w in orbit for x in w), name
        assert any(x.denominator > 1 for w in orbit for x in w), name


def test_root_data_holds_ints():
    for name in ORBIT_GROUPS + ("E6", "C2xT1"):
        rs = build(name)
        assert all(type(x) is int for b in rs.positive_roots for x in b), name
        assert set(rs._coroot_of) == set(rs.positive_roots)
        assert all(type(x) is int for c in rs._coroot_of.values() for x in c), name
        assert all(type(x) is int for row in rs.star_matrix for x in row), name
        assert all(rs.coroot_pairing(b, b) == 2 for b in rs.positive_roots), name
        assert all(type(x) is Q for row in rs.gram for x in row), name


def test_closed_form_orbit_size():
    for name in ORBIT_GROUPS:
        rs = build(name)
        for bits in product((0, 1), repeat=rs.ss_rank):
            lam = qv(list(bits) + [1] * rs.torus_rank)
            assert orbit_size(rs, lam) == len(weyl_orbit(rs, lam)), (name, bits)
    # known orbit sizes, without enumeration: minuscule and regular weights
    for name, lam, size in (("E6", [1, 0, 0, 0, 0, 0], 27),
                            ("E7", [0, 0, 0, 0, 0, 0, 1], 56),
                            ("E8", [0, 0, 0, 0, 0, 0, 0, 1], 240),
                            ("E8", [1] * 8, 696729600),
                            ("E6", [1, 1, 0, 1, 1, 1], 25920)):
        assert orbit_size(build(name), qv(lam)) == size, name


def test_oversized_orbit_refused_before_enumeration():
    e8 = build("E8")
    assert orbit_size(e8, qv([1] * 8)) > MAX_ENUMERATION
    with pytest.raises(DomainError, match="696729600 points"):
        weyl_orbit(e8, qv([-1] * 8))


def test_weyl_order_matches_standard_orders():
    """|W| from Kostant's degree product, for every type up to MAX_RANK."""
    for n in range(1, MAX_RANK + 1):
        assert build("A%d" % n).weyl_order() == factorial(n + 1), n
        if n >= 2:
            assert build("B%d" % n).weyl_order() == 2 ** n * factorial(n), n
            assert build("C%d" % n).weyl_order() == 2 ** n * factorial(n), n
        if n >= 3:
            assert build("D%d" % n).weyl_order() == 2 ** (n - 1) * factorial(n), n
    for name, order in (("E6", 51840), ("E7", 2903040), ("E8", 696729600),
                        ("F4", 1152), ("G2", 12), ("T3", 1), ("A2xB2xT1", 48)):
        assert build(name).weyl_order() == order, name


def test_group_rank_limit():
    assert build("E8").rank == 8 <= MAX_RANK
    build("B%d" % MAX_RANK)
    build("A%dxT1" % (MAX_RANK - 1))
    for text in ("A%d" % (MAX_RANK + 1), "A%dxT1" % MAX_RANK, "T100000000",
                 "A1000", "A" + "9" * 5000):
        with pytest.raises(DomainError):
            GroupSpec.parse(text)
    with pytest.raises(DomainError):
        GroupSpec([("B", MAX_RANK)], torus_rank=1)
