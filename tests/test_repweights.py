from itertools import product

import pytest

from liemoment.errors import DomainError
from liemoment.exactq import qv
from liemoment.repweights import dim, irrep_weights, pi_lambda, union_weights
from liemoment.rootsys import build

from oracles import reflect

A2 = build("A2")
A3 = build("A3")
G2 = build("G2")


def test_adjoint_a2():
    ws = irrep_weights(A2, qv([1, 1]))
    assert ws.dim() == 8
    assert ws.mult(qv([0, 0])) == 2
    roots = set(A2.positive_roots) | {tuple(-x for x in r) for r in A2.positive_roots}
    assert set(ws.entries) == roots | {qv([0, 0])}
    for r in roots:
        assert ws.mult(r) == 1


def test_standard_rep_a2():
    ws = irrep_weights(A2, qv([1, 0]))
    assert set(ws.entries) == {qv([1, 0]), qv([-1, 1]), qv([0, -1])}
    assert ws.dim() == 3
    assert set(ws.entries.values()) == {1}


def test_trivial_rep():
    ws = irrep_weights(A2, qv([0, 0]))
    assert tuple(sorted(ws.entries)) == (qv([0, 0]),)
    assert ws.dim() == 1


def test_dim_examples():
    assert dim(A2, qv([2, 1])) == 15
    assert dim(A2, qv([1, 1])) == 8
    assert dim(A2, qv([0, 0])) == 1
    assert dim(G2, qv([0, 1])) == 14
    assert dim(A3, qv([1, 1, 1])) == 64


def test_rejects_bad_highest_weights():
    with pytest.raises(DomainError):
        irrep_weights(A2, qv([-1, 0]))
    with pytest.raises(DomainError):
        irrep_weights(A2, qv(["1/2", 0]))
    with pytest.raises(DomainError):
        dim(A2, qv([0, -2]))


def test_oversized_irrep_refused_before_enumeration():
    assert dim(build("B4"), qv([1, 1, 1, 1])) == 65536
    with pytest.raises(DomainError, match="dimension 100000001"):
        irrep_weights(build("A1"), qv([100000000]))


def test_pi_lambda_a2_21():
    ws = irrep_weights(A2, qv([2, 1]))
    pi = pi_lambda(ws, qv([2, 1]))
    assert len(ws.entries) == 12
    assert len(pi) == 11
    assert qv([3, -1]) not in pi
    assert qv([2, 1]) in pi
    assert set(pi) < set(ws.entries)


def test_pi_lambda_no_trim():
    ws = irrep_weights(A2, qv([2, 2]))
    assert pi_lambda(ws, qv([2, 2])) == tuple(sorted(ws.entries))


def test_pi_lambda_minuscule():
    assert pi_lambda(irrep_weights(A3, qv([1, 0, 0])), qv([1, 0, 0])) == (qv([1, 0, 0]),)


def test_pi_lambda_keeps_repeated_weight():
    # (3,-1) = lam - alpha_2 with (lam, alpha_2 coroot) = 1
    lam = qv([2, 1])
    ws = irrep_weights(A2, lam)
    assert qv([3, -1]) not in pi_lambda(ws, lam)
    assert qv([3, -1]) in pi_lambda(union_weights([ws, ws]), lam)


def test_union_weights():
    std = irrep_weights(A2, qv([1, 0]))
    dbl = union_weights([std, std])
    assert dbl.dim() == 6
    assert set(dbl.entries.values()) == {2}
    mix = union_weights([std, irrep_weights(A2, qv([0, 1]))])
    assert mix.dim() == 6
    assert len(mix.entries) == 6
    assert set(mix.entries.values()) == {1}
    with pytest.raises(Exception):
        union_weights([std, irrep_weights(A3, qv([1, 0, 0]))])


def test_highest_weight_multiplicity_one():
    for lam in ([2, 1], [3, 0], [1, 1]):
        assert irrep_weights(A2, qv(lam)).mult(qv(lam)) == 1


def test_weyl_invariance_of_multiplicities():
    for rs, lam in ((A2, [2, 1]), (G2, [1, 1]), (A3, [1, 1, 1])):
        ws = irrep_weights(rs, qv(lam))
        for nu, m in ws.entries.items():
            for i in range(rs.ss_rank):
                assert ws.entries[reflect(rs, i, nu)] == m


def test_dimension_sweep_small():
    # Freudenthal total dimension vs the product-formula oracle
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3"):
        rs = build(name)
        for coords in product(range(3 if rs.rank < 3 else 2), repeat=rs.rank):
            lam = qv(coords)
            assert irrep_weights(rs, lam).dim() == dim(rs, lam), (name, coords)
    # fundamental weights of F4, E6 and E7; the other E7 ones have
    # Freudenthal boxes of 37,800 to 1,146,600 coefficient tuples
    for name, indices in (("F4", range(4)), ("E6", range(6)), ("E7", (0, 1, 6))):
        rs = build(name)
        for i in indices:
            lam = qv([int(i == j) for j in range(rs.rank)])
            assert irrep_weights(rs, lam).dim() == dim(rs, lam), (name, i)


def test_product_group_weights():
    rs = build("A1xA1")
    ws = irrep_weights(rs, qv([1, 2]))
    assert ws.dim() == 6
    assert ws.mult(qv([1, 2])) == 1
    rs2 = build("A2xT1")
    ws2 = irrep_weights(rs2, qv([1, 0, 5]))
    assert all(w[2] == 5 for w in ws2.entries)


def test_json_serialization_sorted():
    ws = irrep_weights(A2, qv([1, 0]))
    js = ws.to_json()
    assert js == sorted(js, key=lambda e: e["weight"])
    assert js[0]["mult"] == 1


def test_classical_dimensions_all_types():
    cases = [
        ("D4", [1, 0, 0, 0], 8), ("D4", [0, 0, 0, 1], 8), ("B3", [0, 0, 1], 8),
        ("C3", [1, 0, 0], 6), ("F4", [0, 0, 0, 1], 26), ("F4", [1, 0, 0, 0], 52),
        ("E6", [1, 0, 0, 0, 0, 0], 27), ("E6", [0, 1, 0, 0, 0, 0], 78),
        ("E7", [1, 0, 0, 0, 0, 0, 0], 133), ("G2", [1, 0], 7),
        ("E8", [0, 0, 0, 0, 0, 0, 0, 1], 248),
    ]
    for name, lam, expected in cases:
        assert dim(build(name), qv(lam)) == expected, (name, lam)


def test_adjoint_zero_weight_multiplicity_is_rank():
    for name, adjoint in (("A2", [1, 1]), ("G2", [0, 1]), ("B2", [0, 2]),
                          ("E7", [1, 0, 0, 0, 0, 0, 0])):
        rs = build(name)
        ws = irrep_weights(rs, qv(adjoint))
        assert ws.mult(qv([0] * rs.rank)) == rs.rank
        assert ws.dim() == dim(rs, qv(adjoint))


def test_irrep_request_walks_each_orbit_once(monkeypatch):
    """dim, mult, the trimmed set and the weight list all read the one
    expanded weight map."""
    from liemoment import repweights, rootsys
    from test_golden import answer

    calls = []
    real = rootsys.weyl_orbit

    def counting(rs, lam):
        calls.append(lam)
        return real(rs, lam)

    monkeypatch.setattr(rootsys, "weyl_orbit", counting)
    monkeypatch.setattr(repweights, "weyl_orbit", counting)
    for group, hw in (("E6", [0, 1, 0, 0, 0, 1]), ("B4", [1, 1, 1, 1]), ("A2xT1", [2, 1, 3])):
        del calls[:]
        out = answer('{"command": "irrep", "group": "%s", "payload": {"hw": %s}}'
                     % (group, hw))
        assert out["rc"] == 0
        dominant = irrep_weights(build(group), qv(hw)).dominant_entries
        assert sorted(calls) == sorted(dominant), group
