"""Golden corpus: fixed CLI requests answered byte for byte as stored.

Each request is answered in-process through ``liemoment.cli.main`` and its
exit code, stdout and stderr are compared with ``golden/responses.json``.
The corpus covers every command and the exit-2/3/4 refusals, so a change
that alters any response byte fails here.

To write the stored responses from the current source tree (only when a
response is meant to change, and after reviewing the difference):

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
RESPONSES = os.path.join(HERE, "golden", "responses.json")

_FIG = {
    "exact": None,
    "lower": {"dim": 2, "points": [[0, 0], [2, 0], [1, 2], [0, 2]]},
    "upper": {"dim": 2, "points": [[0, 0], [2, 0], [1, 2], ["0", "5/2"]]},
}


def _req(command, group, payload=None):
    doc = {"command": command, "group": group}
    if payload is not None:
        doc["payload"] = payload
    return json.dumps(doc, sort_keys=True)


def _proj(group, *hws):
    return _req("projective", group, {"hw": [list(h) for h in hws]})


REQUESTS = [
    ("roots-A1", _req("roots", "A1")),
    ("roots-G2", _req("roots", "G2")),
    ("roots-F4", _req("roots", "F4")),
    ("roots-A2xA1xT1", _req("roots", "A2xA1xT1")),
    ("roots-T2", _req("roots", "T2")),
    ("irrep-A2-11", _req("irrep", "A2", {"hw": [1, 1]})),
    ("irrep-G2-10", _req("irrep", "G2", {"hw": [1, 0]})),
    ("irrep-C3-010", _req("irrep", "C3", {"hw": [0, 1, 0]})),
    ("irrep-B3-001", _req("irrep", "B3", {"hw": [0, 0, 1]})),
    ("irrep-A2xA1xT1", _req("irrep", "A2xA1xT1", {"hw": [1, 0, 2, -3]})),
    ("orbit-A2-rational", _req("orbit", "A2", {"weight": ["1/2", "-1/3"]})),
    ("orbit-A2xA1xT1-torus", _req("orbit", "A2xA1xT1", {"weight": [1, -2, 1, "5/3"]})),
    ("orbit-F4-nondominant", _req("orbit", "F4", {"weight": [1, -1, 0, 2]})),
    ("orbit-B2", _req("orbit", "B2", {"weight": [-1, 3]})),
    ("orbit-G2-zero", _req("orbit", "G2", {"weight": [0, 0]})),
    ("orbit-D4", _req("orbit", "D4", {"weight": [0, 1, 0, -1]})),
    ("projective-A3-111", _proj("A3", (1, 1, 1))),
    ("projective-A2-21", _proj("A2", (2, 1))),
    ("projective-G2-01", _proj("G2", (0, 1))),
    ("projective-A2-00", _proj("A2", (0, 0))),
    ("projective-A2-20", _proj("A2", (2, 0))),
    ("projective-A2-replicated", _proj("A2", (1, 0), (1, 0), (1, 0))),
    ("projective-A2-two-hw", _proj("A2", (1, 0), (0, 1))),
    ("projective-A3-two-hw", _proj("A3", (1, 0, 0), (0, 1, 0))),
    ("projective-B3-111", _proj("B3", (1, 1, 1))),
    ("projective-C3-120", _proj("C3", (1, 2, 0))),
    ("projective-A2xA1-101", _proj("A2xA1", (1, 0, 1))),
    ("projective-B3-001", _proj("B3", (0, 0, 1))),
    ("projective-A3-101", _proj("A3", (1, 0, 1))),
    ("projective-T2", _proj("T2", (1, 2))),
    # the greedy clique cover and its many chamber pieces
    ("projective-C3-212", _proj("C3", (2, 1, 2))),
    ("projective-C3-102", _proj("C3", (1, 0, 2))),
    ("projective-B3-021", _proj("B3", (0, 2, 1))),
    ("projective-A4-1111", _proj("A4", (1, 1, 1, 1))),
    ("projective-B4-1111", _proj("B4", (1, 1, 1, 1))),
    ("linear-cone-T3", _req("linear-cone", "T3", {
        "weights": [[1, 1, 0], [-1, -1, 0], [0, 1, 1], [0, -1, -1], [1, 0, 0]]})),
    ("linear-cone-A2-star", _req("linear-cone", "A2", {
        "weights": [[1, -1], [0, 2]], "check_star_invariance": True})),
    ("affine-cone-A2", _req("affine-cone", "A2", {
        "generators": [[1, 0], [0, 1]], "check_star_invariance": True})),
    ("affine-cone-A3", _req("affine-cone", "A3", {"generators": [[1, 0, 2], [0, 1, 1]]})),
    ("local-cone-T2", _req("local-cone", "T2", {
        "mu": [1, -2], "slice_weights": [[1, 0], [0, 1], [-1, 1]],
        "case": "full-torus-isotropy"})),
    ("local-cone-A2", _req("local-cone", "A2", {
        "mu": [2, 1], "slice_weights": [[2, -1], [-1, 2]],
        "case": "central-orbit", "check_star_invariance": True})),
    ("local-cone-T3-subtorus", _req("local-cone", "T3", {
        "mu": [0, 0, 2], "slice_weights": [[1, 0, 1], [0, 1, 0]],
        "case": "subtorus-isotropy", "isotropy_subtorus": [[1, 0, 0], [0, 1, 0]]})),
    ("assemble-T2", _req("assemble", "T2", {"specs": [
        {"mu": [2, 0], "slice_weights": [[1, 1], [1, -1]], "case": "full-torus-isotropy"},
        {"mu": [-2, 0], "slice_weights": [[-1, 1], [-1, -1]], "case": "full-torus-isotropy"},
        {"mu": [0, 2], "slice_weights": [[0, 1]], "case": "full-torus-isotropy"}]})),
    ("reduce-T2", _req("reduce", "T2", {
        "polyhedron": {"dim": 2, "points": [[0, 0], [3, 0], [0, 3], [3, 3]]},
        "mu": [0, 1], "subspace": [[1, 0]]})),
    ("cotangent-A2-empty", _req("cotangent", "A2", {"wall": []})),
    ("cotangent-B2", _req("cotangent", "B2", {"wall": [[0, 1]]})),
    ("cotangent-A3", _req("cotangent", "A3", {"wall": [[1, 0, 0]]})),
    ("cotangent-A3-bounds", _req("cotangent", "A3", {"wall": [[0, 1, 0]]})),
    ("closure-A2", _req("closure", "A2", {
        "infinity_polytope": {"points": [[1, 0], [0, 1], [2, 3]]}})),
    ("render-A2", _req("render", "A2", {"result": _FIG, "weights": [{"hw": [2, 1]}]})),
    ("render-G2", _req("render", "G2", {
        "result": {"polyhedron": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}},
        "weights": [{"hw": [0, 1]}]})),
    # exit 2: malformed requests
    ("refuse-not-json", "not json"),
    ("refuse-float", _proj("A2", (0.5, 1))),
    ("refuse-unknown-group", _req("roots", "Q7")),
    ("refuse-unknown-command", _req("bogus", "A2")),
    ("refuse-payload-not-object", json.dumps({"command": "roots", "group": "A2",
                                              "payload": 5})),
    ("refuse-missing-hw", _req("projective", "A2", {})),
    ("refuse-zero-denominator", _req("projective", "A2", {"hw": [["1/0", 1]]})),
    ("refuse-wrong-length", _req("orbit", "A2", {"weight": [1, 2, 3]})),
    # exit 3: domain errors
    ("refuse-nondominant-hw", _proj("A2", (-1, 1))),
    ("refuse-rational-hw", _req("irrep", "A2", {"hw": ["1/2", 0]})),
    ("refuse-affine-nondominant", _req("affine-cone", "A2", {"generators": [[-1, 0]]})),
    ("refuse-empty-hw-list", _req("projective", "A2", {"hw": []})),
    # exit 4: outside the implemented theory
    ("refuse-wall-local-cone", _req("local-cone", "A2", {
        "mu": [0, 1], "slice_weights": [[1, 0]], "case": "full-torus-isotropy"})),
    ("refuse-cotangent-torus", _req("cotangent", "A2xT1", {"wall": [[1, 0, 0]]})),
    ("refuse-render-rank3", _req("render", "A3", {
        "result": {"polyhedron": {"dim": 3, "points": [[0, 0, 0]]}}})),
]


def answer(text):
    """Exit code, stdout and stderr of one request answered by cli.main."""
    from liemoment import cli

    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main([])
    finally:
        sys.stdin = stdin
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_corpus():
    from liemoment import cli

    with open(RESPONSES, encoding="utf-8") as fh:
        stored = json.load(fh)
    assert sorted(stored) == sorted(name for name, _ in REQUESTS)
    # every command and every exit code is in the corpus
    commands = set()
    for _, text in REQUESTS:
        try:
            commands.add(json.loads(text).get("command"))
        except ValueError:
            pass
    assert set(cli._COMMANDS) | {"render"} <= commands
    assert {doc["rc"] for doc in stored.values()} == {0, 2, 3, 4}
    for name, text in REQUESTS:
        assert answer(text) == stored[name], name


if __name__ == "__main__":
    docs = {name: answer(text) for name, text in REQUESTS}
    os.makedirs(os.path.dirname(RESPONSES), exist_ok=True)
    with open(RESPONSES, "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=1, sort_keys=True)
        fh.write("\n")
