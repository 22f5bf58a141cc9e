"""Self-test of the benchmark's checks: each one accepts a real answer and
rejects a corrupted copy of it.

    python3 perfbench/selftest.py      # from the root of a source checkout
"""

import copy
import json
import unittest

from checks import CheckError, check_response
from run import CLI, SETUP_PROBE, Answer, Tally, encode, spawn
from workloads import CRITERIA, COTANGENT, many_small


def answer(item):
    a = spawn(CLI, encode(item))
    return a.rc, a.out, a.err


class ChecksRejectCorruption(unittest.TestCase):
    def assert_rejects(self, item, rc, out, err=b"", responses=None):
        with self.assertRaises(CheckError):
            check_response(item, rc, out, err, responses or {})

    def roundtrip(self, item, corrupt):
        rc, out, err = answer(item)
        check_response(item, rc, out, err, {})
        doc = json.loads(out)
        corrupt(doc)
        self.assert_rejects(item, rc, json.dumps(doc).encode(), err)

    def test_projective_vertex_moved_outside_upper(self):
        group, hw, vertices = CRITERIA[1]
        item = {"request": {"command": "projective", "group": group,
                            "payload": {"hw": [list(hw)]}},
                "expect_rc": 0, "vertices": vertices}

        def move(doc):
            doc["lower"]["points"][-1] = ["0", "3"]
        self.roundtrip(item, move)

        def move_upper_vertex(doc):
            doc["exact"] = None
            doc["upper"]["points"][0] = ["-1", "0"]
        self.roundtrip(item, move_upper_vertex)

    def test_irrep_dropped_weight(self):
        item = {"request": {"command": "irrep", "group": "B2", "payload": {"hw": [1, 1]}},
                "expect_rc": 0}
        self.roundtrip(item, lambda doc: doc["weights"].pop(3))

    def test_orbit_missing_point(self):
        item = {"request": {"command": "orbit", "group": "B2", "payload": {"weight": [-1, 2]}},
                "expect_rc": 0}

        def drop(doc):
            doc["orbit"].pop(0)
            doc["size"] -= 1
        self.roundtrip(item, drop)

    def test_cotangent_wrong_cone(self):
        group, wall, rays = COTANGENT[-1]
        item = {"request": {"command": "cotangent", "group": group, "payload": {"wall": wall}},
                "expect_rc": 0, "rays": rays}

        _, chamber, _ = answer({"request": {"command": "cotangent", "group": group,
                                            "payload": {"wall": []}}})
        chamber = json.loads(chamber)["exact"]

        def widen(doc):
            doc["exact"] = doc["lower"] = doc["upper"] = chamber
        self.roundtrip(item, widen)

    def test_polyhedron_forms_disagree(self):
        item = {"request": {"command": "affine-cone", "group": "A2",
                            "payload": {"generators": [[1, 0], [1, 1]]}}, "expect_rc": 0}
        self.roundtrip(item, lambda doc: doc["halfspaces"].pop())

    def test_wrong_exit_code(self):
        item = next(i for i in many_small(1) if i["expect_rc"] == 4)
        rc, out, err = answer(item)
        check_response(item, rc, out, err, {})
        self.assert_rejects(dict(item, expect_rc=3), rc, out, err)
        self.assert_rejects(SETUP_PROBE, 2, b"", err)

    def test_render_not_svg(self):
        item = next(i for i in many_small(1) if i["request"]["command"] == "render")
        rc, out, err = answer(item)
        check_response(item, rc, out, err, {})
        self.assert_rejects(item, rc, out[: len(out) // 2], err)

    def test_assembly_outside_a_local_cone(self):
        items = many_small(1)
        assemble = next(i for i in items if i["request"]["command"] == "assemble")
        parts = {i["id"]: answer(i) for i in items if i["id"] in assemble["parts"]}
        rc, out, err = answer(assemble)
        check_response(assemble, rc, out, err, parts)
        wrong = copy.deepcopy(parts)
        first = assemble["parts"][0]
        wrong[first] = answer({"request": {"command": "local-cone", "group": "T2", "payload": {
            "mu": [-9, -9], "slice_weights": [[1, 0], [0, 1]], "case": "full-torus-isotropy"}}})
        self.assert_rejects(assemble, rc, out, err, wrong)

    def test_nondeterministic_bytes(self):
        item = next(i for i in many_small(1) if "repeat_of" in i)
        rc, out, err = answer(item)
        tally = Tally()
        first = {item["repeat_of"]: Answer(rc, out, err, 0, 0, 0)}
        tally.record(dict(item, id="again"), Answer(rc, out + b" ", err, 0, 0, 0), first, {})
        self.assertFalse(tally.correct)


if __name__ == "__main__":
    unittest.main()
