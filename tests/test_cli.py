import json
import subprocess
import sys
import time

PY = [sys.executable, "-m", "liemoment.cli"]


def run_cli(request, *args):
    data = request if isinstance(request, str) else json.dumps(request)
    return subprocess.run(PY + list(args), input=data.encode(),
                          capture_output=True)


def test_roots_command():
    res = run_cli({"command": "roots", "group": "A2"})
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["positive_roots"]) == 3
    assert doc["weyl_order"] == 6
    assert doc["dominant_roots"] == [["1", "1"]]


def test_projective_fig3_through_cli():
    res = run_cli({"command": "projective", "group": "A3",
                   "payload": {"hw": [[1, 1, 1]]}})
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["certificate"] == "su4-special-weights"
    verts = {tuple(p) for p in doc["exact"]["points"]}
    assert ("4/3", "1", "0") in verts
    assert len(verts) == 9


def test_projective_trivial_weight():
    res = run_cli({"command": "projective", "group": "A2",
                   "payload": {"hw": [[0, 0]]}})
    doc = json.loads(res.stdout)
    assert doc["exact"]["points"] == [["0", "0"]]


def test_irrep_and_orbit():
    res = run_cli({"command": "irrep", "group": "A2", "payload": {"hw": [1, 1]}})
    doc = json.loads(res.stdout)
    assert doc["dim"] == 8
    res = run_cli({"command": "orbit", "group": "A2", "payload": {"weight": [1, 2]}})
    doc = json.loads(res.stdout)
    assert doc["size"] == 6


def test_linear_affine_local_assemble_reduce_cotangent_closure():
    cases = [
        {"command": "linear-cone", "group": "T2",
         "payload": {"weights": [[1, 0], [0, 1]]}},
        {"command": "affine-cone", "group": "A2",
         "payload": {"generators": [[1, 0], [0, 1]]}},
        {"command": "local-cone", "group": "T2",
         "payload": {"mu": [1, 1], "slice_weights": [[1, 0], [0, 1]],
                     "case": "full-torus-isotropy"}},
        {"command": "assemble", "group": "T1",
         "payload": {"specs": [
             {"mu": [-1], "slice_weights": [[-1]], "case": "full-torus-isotropy"},
             {"mu": [1], "slice_weights": [[1]], "case": "full-torus-isotropy"}]}},
        {"command": "reduce", "group": "T2",
         "payload": {"polyhedron": {"dim": 2, "points": [[0, 0], [2, 0], [0, 2], [2, 2]]},
                     "mu": [0, 1], "subspace": [[1, 0]]}},
        {"command": "cotangent", "group": "A3", "payload": {"wall": [[1, 0, 0]]}},
        {"command": "closure", "group": "A2",
         "payload": {"infinity_polytope": {"points": [[1, 0], [0, 1]]}}},
    ]
    for case in cases:
        res = run_cli(case)
        assert res.returncode == 0, (case, res.stderr)
        json.loads(res.stdout)
    res = run_cli(cases[3])
    doc = json.loads(res.stdout)
    assert doc["points"] == [["-1"], ["1"]]


def test_linear_cone_with_two_lines():
    res = run_cli({"command": "linear-cone", "group": "T3",
                   "payload": {"weights": [[1, 1, 0], [-1, -1, 0], [0, 1, 1],
                                           [0, -1, -1], [1, 0, 0]]}})
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    # the lines (0,1,1), (1,0,-1) as +/- pairs, and -(1,0,0) reduced mod the lines
    assert doc["rays"] == [["-1", "0", "1"], ["0", "-1", "-1"], ["0", "0", "-1"],
                           ["0", "1", "1"], ["1", "0", "-1"]]
    assert doc["halfspaces"] == [{"normal": ["-1", "1", "-1"], "offset": "0"}]


def test_byte_determinism():
    req = {"command": "projective", "group": "A2", "payload": {"hw": [[2, 1]]}}
    a = run_cli(req)
    b = run_cli(req)
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    sa = run_cli({"command": "render", "group": "A2",
                  "payload": {"result": {"polyhedron": {
                      "dim": 2, "points": [[0, 0], [2, 0], [1, 2], [0, 2]]}},
                      "weights": [{"hw": [2, 1]}]}})
    sb = run_cli({"command": "render", "group": "A2",
                  "payload": {"result": {"polyhedron": {
                      "dim": 2, "points": [[0, 0], [2, 0], [1, 2], [0, 2]]}},
                      "weights": [{"hw": [2, 1]}]}})
    assert sa.stdout == sb.stdout


def test_exit_codes():
    assert run_cli("not json").returncode == 2
    assert run_cli({"command": "roots", "group": "Q7"}).returncode == 2
    assert run_cli({"command": "bogus", "group": "A2"}).returncode == 2
    assert run_cli({"command": "projective", "group": "A2",
                    "payload": {}}).returncode == 2
    assert run_cli({"command": "affine-cone", "group": "A2",
                    "payload": {"generators": [[-1, 0]]}}).returncode == 3
    assert run_cli({"command": "projective", "group": "A2",
                    "payload": {"hw": [[0.5, 1]]}}).returncode == 2
    # zero denominators, a non-list isotropy basis and a boolean scale
    assert run_cli({"command": "projective", "group": "A2",
                    "payload": {"hw": [["1/0", 1]]}}).returncode == 2
    assert run_cli({"command": "reduce", "group": "T1",
                    "payload": {"polyhedron": {"dim": 1, "halfspaces": [
                        {"normal": [1], "offset": "1/0"}]},
                        "mu": [0], "subspace": [[1]]}}).returncode == 2
    assert run_cli({"command": "local-cone", "group": "T2",
                    "payload": {"mu": [0, 0], "slice_weights": [[1, 0]],
                                "case": "subtorus-isotropy",
                                "isotropy_subtorus": 5}}).returncode == 2
    assert run_cli({"command": "render", "group": "A2",
                    "payload": {"result": {"polyhedron": {"dim": 2, "points": [[0, 0]]}},
                                "scale": True}}).returncode == 2
    # a non-integer polyhedron dim, and non-list weights and points
    for poly in ({"dim": [1], "points": [[0]]}, {"empty": True, "dim": None},
                 {"empty": True, "dim": True}):
        assert run_cli({"command": "reduce", "group": "T1",
                        "payload": {"polyhedron": poly, "mu": [0],
                                    "subspace": [[1]]}}).returncode == 2
    assert run_cli({"command": "render", "group": "A2",
                    "payload": {"result": {"polyhedron": {"dim": 2, "points": [[0, 0]]}},
                                "weights": 5}}).returncode == 2
    assert run_cli({"command": "closure", "group": "A2",
                    "payload": {"infinity_polytope": {"points": 5}}}).returncode == 2
    # a rank of thousands of digits
    assert run_cli({"command": "roots", "group": "A" + "9" * 5000}).returncode == 2
    # nesting deeper than the JSON decoder's recursion
    for deep in ("[" * 100000 + "]" * 100000, '{"a":' * 50000 + "1" + "}" * 50000):
        res = run_cli(deep)
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["kind"] == "parse"
    # nonzero exit emits no response document
    res = run_cli({"command": "roots", "group": "Q7"})
    assert res.stdout == b""
    assert b"error" in res.stderr


def test_oversized_inputs_refused_fast():
    # a generic E8 orbit has 696,729,600 points, the A1 module 10^8 + 1 weights
    for req in ({"command": "orbit", "group": "E8", "payload": {"weight": [1] * 8}},
                {"command": "irrep", "group": "A1", "payload": {"hw": [100000000]}},
                {"command": "projective", "group": "A1",
                 "payload": {"hw": [[1], [100000000]]}},
                {"command": "render", "group": "A1",
                 "payload": {"result": {"polyhedron": {"dim": 1, "points": [[0]]}},
                             "weights": [[100000000]]}}):
        start = time.perf_counter()
        res = run_cli(req)
        assert time.perf_counter() - start < 1.0, req
        assert res.returncode == 3, (req, res.stderr)
        assert b"exceeds the limit" in res.stderr


def test_oversized_groups_refused_fast():
    for group in ("A1000", "A80", "T100000000"):
        start = time.perf_counter()
        res = run_cli({"command": "roots", "group": group})
        assert time.perf_counter() - start < 1.0, group
        assert res.returncode == 2, (group, res.stderr)
        assert res.stdout == b"" and b"exceeds the limit" in res.stderr


def test_render_unsupported_rank():
    res = run_cli({"command": "render", "group": "A3",
                   "payload": {"result": {"polyhedron": {
                       "dim": 3, "points": [[0, 0, 0]]}}}})
    assert res.returncode == 4
    msg = json.loads(res.stderr)["error"]["message"]
    assert "rank-2" in msg or "rank" in msg


def test_render_fig1_coordinates(tmp_path):
    req = {
        "command": "render", "group": "A2",
        "payload": {
            "result": {
                "exact": None,
                "lower": {"dim": 2, "points": [[0, 0], [2, 0], [1, 2], [0, 2]]},
                "upper": {"dim": 2, "points": [[0, 0], [2, 0], [1, 2], ["0", "5/2"]]},
            },
            "weights": [{"hw": [2, 1]}],
        },
    }
    out = tmp_path / "fig.svg"
    res = run_cli(req, "--svg", str(out))
    assert res.returncode == 0
    svg = out.read_text()
    assert svg.startswith("<?xml")
    # lambda* = pi1 + 2 pi2 lands at (50, 259.807621) under scale 100
    assert "50.000000,-259.807621" in svg
    # 2 pi1 at (-100, 173.205081)
    assert "-100.000000,-173.205081" in svg
    # layers in order: walls, weight hull, light, dark, markers
    assert svg.index("stroke-dasharray") < svg.index("weight-hull")
    assert svg.index("weight-hull") < svg.index("momentum-light")
    assert svg.index("momentum-light") < svg.index("momentum-dark")
    assert svg.index("momentum-dark") < svg.index("<circle cx=")


def test_render_g2_triangle():
    res = run_cli({"command": "render", "group": "G2",
                   "payload": {"result": {"polyhedron": {
                       "dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}},
                       "weights": [{"hw": [0, 1]}]}})
    assert res.returncode == 0
    svg = res.stdout.decode()
    # pi1 at (50, 86.602540), pi2 at (0, 173.205081) under scale 100
    assert "50.000000,-86.602540" in svg
    assert "0.000000,-173.205081" in svg


def test_render_empty_polytope_walls_only():
    res = run_cli({"command": "render", "group": "A2",
                   "payload": {"result": {"polyhedron": {"dim": 2, "empty": True}}}})
    assert res.returncode == 0
    svg = res.stdout.decode()
    assert "stroke-dasharray" in svg
    assert "momentum-dark" not in svg


def test_in_out_files(tmp_path):
    inp = tmp_path / "req.json"
    outp = tmp_path / "resp.json"
    inp.write_text(json.dumps({"command": "roots", "group": "G2"}))
    res = subprocess.run(PY + ["--in", str(inp), "--out", str(outp)],
                         capture_output=True)
    assert res.returncode == 0
    doc = json.loads(outp.read_text())
    assert len(doc["positive_roots"]) == 6
    # an unwritable --out or --svg path is an io error, not a traceback
    missing = tmp_path / "missing" / "resp"
    render = {"command": "render", "group": "A2",
              "payload": {"result": {"polyhedron": {"dim": 2, "points": [[0, 0]]}}}}
    for req, flag in (({"command": "roots", "group": "G2"}, "--out"), (render, "--svg")):
        res = run_cli(req, flag, str(missing))
        assert res.returncode == 2
        assert res.stdout == b""
        assert json.loads(res.stderr)["error"]["kind"] == "io"


def test_render_other_rank2_types():
    for group in ("B2", "C2", "A1xA1"):
        res = run_cli({"command": "render", "group": group,
                       "payload": {"result": {"polyhedron": {
                           "dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}}}})
        assert res.returncode == 0, (group, res.stderr)
        assert res.stdout.startswith(b"<?xml")


def test_star_invariance_flag():
    res = run_cli({"command": "affine-cone", "group": "A2",
                   "payload": {"generators": [[1, 0], [0, 1]],
                               "check_star_invariance": True}})
    doc = json.loads(res.stdout)
    assert doc["star_invariant"] is True
    res = run_cli({"command": "affine-cone", "group": "A2",
                   "payload": {"generators": [[1, 0]],
                               "check_star_invariance": True}})
    doc = json.loads(res.stdout)
    assert doc["star_invariant"] is False
    res = run_cli({"command": "affine-cone", "group": "A2",
                   "payload": {"generators": [[1, 0]]}})
    doc = json.loads(res.stdout)
    assert "points" in doc  # bare polyhedron without the flag
