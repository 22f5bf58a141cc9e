"""The benchmark's workloads: seeded lists of CLI requests.

A workload is one round of requests.  Each item is a dict with an `id`,
the `request` document sent on stdin, the documented exit code
`expect_rc`, and the extra facts its check needs.  The same seed gives the
same round; a different seed draws other inputs of the same cost, so that
the round's wall time does not depend on the seed.
"""

import random

from lie import Group

# Projective cases on A3, B3 and C3 whose answer goes through the clique
# lower bound (certificate sandwich-coincide(...) or bounds(...)).  Every
# round holds the cliques-greedy-cover case C3 (2,1,2), 10-16 s on the
# reference machine (Python 3.11, 2 CPUs), and draws one case from each
# stratum below; a stratum holds cases of about the same cost (the fastest
# of five runs each), so that the seed moves the inputs and not the round's
# wall time.  The first draw is sent twice.
SANDWICH_ANCHOR = ("C3", (2, 1, 2))
SANDWICH_STRATA = [
    [("B3", (1, 1, 1)), ("A3", (1, 2, 1))],                             # 0.5 s
    [("C3", (1, 0, 2)), ("C3", (1, 2, 0)), ("B3", (0, 2, 1))],          # 1.1 s, bounds
]
CLIQUE_CERTIFICATES = ["sandwich-coincide(", "bounds("]

# Irreducibles of rank 4 to 7 and large Weyl orbits.  The E6 orbit has a
# stabilizer of order 2: 25,920 points, a 0.75 MB response; the regular E6
# orbit (51,840 points, 12 s here) would not leave room for three rounds in
# the benchmark's time budget.
WEIGHTS_IRREPS = [("B4", (1, 1, 1, 1)), ("E6", (0, 1, 0, 0, 0, 1)), ("E7", (1, 0, 0, 0, 0, 0, 0))]
WEIGHTS_TWICE = ("D5", (1, 1, 0, 0, 1))
WEIGHTS_ORBITS = [("A6", (1,) * 6), ("B5", (1,) * 5), ("E6", (1, 1, 0, 1, 1, 1))]

# Criteria 1-3 of the acceptance suite: the stated exact vertex sets.
CRITERIA = [
    ("A3", (1, 1, 1), [[1, 1, 1], [0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2],
                       ["4/3", 1, 0], [0, 1, "4/3"], [1, 0, "5/3"], ["5/3", 0, 1]]),
    ("A2", (2, 1), [[0, 0], [2, 0], [1, 2], [0, 2]]),
    ("G2", (0, 1), [[0, 0], [1, 0], [0, 1]]),
]

# Criterion 7: cotangent cones of T*(K/L), as the chamber or one ray.
COTANGENT = [
    ("A2", [], "chamber"), ("B2", [], "chamber"), ("G2", [], "chamber"),
    ("B2", [[1, 0]], "chamber"), ("B2", [[0, 1]], "chamber"),
    ("G2", [[1, 0]], "chamber"), ("G2", [[0, 1]], "chamber"),
    ("A2", [[1, 0]], [[1, 1]]), ("A3", [[1, 0, 0]], [[1, 0, 1]]),
]

# The criterion-2 picture: exact region against the naive orbit hull.
FIG_RESULT = {
    "exact": None,
    "lower": {"dim": 2, "points": [[0, 0], [2, 0], [1, 2], [0, 2]]},
    "upper": {"dim": 2, "points": [[0, 0], [2, 0], [1, 2], ["0", "5/2"]]},
}


class Round:
    def __init__(self):
        self.items = []

    def add(self, request, expect_rc=0, **facts):
        item = dict(facts, request=request, expect_rc=expect_rc,
                    id="%02d-%s-%s" % (len(self.items), request["command"], request["group"]))
        self.items.append(item)
        return item["id"]

    def projective(self, group, hw, **facts):
        return self.add({"command": "projective", "group": group,
                         "payload": {"hw": [list(hw)]}}, **facts)

    def irrep(self, group, hw, **facts):
        return self.add({"command": "irrep", "group": group, "payload": {"hw": list(hw)}},
                        **facts)

    def render(self, group, payload):
        return self.add({"command": "render", "group": group, "payload": payload})


def _conjugate(rng, group, weight):
    """weight moved by a seeded word of simple reflections."""
    g = Group(group)
    for _ in range(rng.randint(8, 24)):
        weight = g.reflect(rng.randrange(g.ss_rank), weight)
    return weight


def _vector(rng, n, lo=-2, hi=2):
    return [rng.randint(lo, hi) for _ in range(n)]


def _local_spec(mu, weights, case="full-torus-isotropy", **extra):
    return dict(extra, mu=mu, slice_weights=weights, case=case)


def _tail(r, rng, projective=True):
    """A cheap request through each traced layer the workload would miss
    (the renderer, pi_lambda, the clique bound), so that no per-layer time
    is a structural zero."""
    r.render("A2", {"result": FIG_RESULT, "weights": [{"hw": [2, 1]}]})
    r.irrep(*rng.choice([("B3", (0, 1, 0)), ("C3", (0, 1, 0))]))
    if projective:
        r.projective("B3", (0, 0, 1), certificates=CLIQUE_CERTIFICATES)


def sandwich(seed):
    rng = random.Random("sandwich:%d" % seed)
    r = Round()
    draws = [SANDWICH_ANCHOR] + [rng.choice(stratum) for stratum in SANDWICH_STRATA]
    again = draws[1]
    rng.shuffle(draws)
    ids = {}
    for group, hw in draws:
        ids[group, hw] = r.projective(group, hw, certificates=CLIQUE_CERTIFICATES)
    r.projective(*again, certificates=CLIQUE_CERTIFICATES, repeat_of=ids[again])
    _tail(r, rng, projective=False)
    return r.items


def weights(seed):
    rng = random.Random("weights:%d" % seed)
    r = Round()
    jobs = [("irrep", g, hw) for g, hw in WEIGHTS_IRREPS]
    jobs += [("orbit", g, _conjugate(rng, g, w)) for g, w in WEIGHTS_ORBITS]
    rng.shuffle(jobs)
    for command, group, w in jobs:
        if command == "irrep":
            r.irrep(group, w)
        else:
            r.add({"command": "orbit", "group": group, "payload": {"weight": list(w)}})
    r.irrep(*WEIGHTS_TWICE, repeat_of=r.irrep(*WEIGHTS_TWICE))
    _tail(r, rng)
    return r.items


def many_small(seed):
    rng = random.Random("many-small:%d" % seed)
    r = Round()
    for group, hw, vertices in CRITERIA:
        r.projective(group, hw, vertices=vertices)
    for group in ("A2", "B2", "G2", "A2", "B2", "G2"):
        r.projective(group, (rng.randint(0, 3), rng.randint(0, 3)))
    r.projective("A3", (1, 0, 1), certificates=CLIQUE_CERTIFICATES)
    for group, wall, rays in COTANGENT:
        r.add({"command": "cotangent", "group": group, "payload": {"wall": wall}}, rays=rays)

    torus = rng.choice(["T2", "T3"])
    n = int(torus[1])
    r.add({"command": "linear-cone", "group": torus,
           "payload": {"weights": [_vector(rng, n) for _ in range(3)]}})
    r.add({"command": "linear-cone", "group": "A2",
           "payload": {"weights": [_vector(rng, 2) for _ in range(2)],
                       "check_star_invariance": True}})
    r.add({"command": "affine-cone", "group": "A2",
           "payload": {"generators": [[1, 0], [0, 1]], "check_star_invariance": True}})
    r.add({"command": "affine-cone", "group": "A3",
           "payload": {"generators": [_vector(rng, 3, 0, 2) for _ in range(3)]}})

    r.add({"command": "local-cone", "group": "T2",
           "payload": _local_spec(_vector(rng, 2, -3, 3), [_vector(rng, 2) for _ in range(3)])})
    r.add({"command": "local-cone", "group": "A2",
           "payload": _local_spec([rng.randint(1, 3), rng.randint(1, 3)],
                                  [[2, -1], [-1, 2]], check_star_invariance=True)})
    r.add({"command": "local-cone", "group": "T3",
           "payload": _local_spec([0, 0, 2], [[1, 0, 1], [0, 1, 0]], "subtorus-isotropy",
                                  isotropy_subtorus=[[1, 0, 0], [0, 1, 0]])})
    a = rng.randint(1, 3)
    specs = [_local_spec([a, 0], [[1, 1], [1, -1]]), _local_spec([-a, 0], [[-1, 1], [-1, -1]]),
             _local_spec([0, a], [[0, 1]])]
    parts = [r.add({"command": "local-cone", "group": "T2", "payload": s}) for s in specs]
    r.add({"command": "assemble", "group": "T2", "payload": {"specs": specs}}, parts=parts)

    s = rng.randint(1, 4)
    r.add({"command": "reduce", "group": "T2",
           "payload": {"polyhedron": {"dim": 2, "points": [[0, 0], [s, 0], [0, s], [s, s]]},
                       "mu": [0, rng.randint(0, s)], "subspace": [[1, 0]]}})
    r.add({"command": "closure", "group": "A2",
           "payload": {"infinity_polytope": {"points": [[1, 0], [0, 1], _vector(rng, 2, 0, 3)]}}})
    r.render("A2", {"result": FIG_RESULT, "weights": [{"hw": [2, 1]}]})
    r.render("G2", {"result": {"polyhedron": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}},
                    "weights": [{"hw": [0, 1]}]})
    for group in ("A1", rng.choice(["G2", "B3", "D4", "F4", "E6"])):
        r.add({"command": "roots", "group": group})
    r.irrep(rng.choice(["A2", "B2", "G2"]), (1, 1))
    r.add({"command": "orbit", "group": "B2",
           "payload": {"weight": list(_conjugate(rng, "B2", (1, 2)))}})

    # documented refusals: a float literal and an unknown group (2), a
    # non-dominant highest weight (3), a local cone at a chamber wall (4)
    r.add({"command": "projective", "group": "A2", "payload": {"hw": [[0.5, 1]]}}, 2)
    r.add({"command": "roots", "group": "Q7"}, 2)
    r.add({"command": "projective", "group": "A2", "payload": {"hw": [[-1, 1]]}}, 3)
    r.add({"command": "local-cone", "group": "A2",
           "payload": _local_spec([0, 1], [[1, 0]])}, 4)

    first = r.items[1]
    r.add(first["request"], vertices=first["vertices"], repeat_of=first["id"])
    return r.items


WORKLOADS = {"sandwich": sandwich, "weights": weights, "many-small": many_small}
