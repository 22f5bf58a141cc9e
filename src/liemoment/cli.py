"""JSON-request command-line front end.

A single request document arrives on stdin (or --in FILE) carrying the
command name, the group, and a command-specific payload; the canonical
JSON response goes to stdout (or --out FILE).  The render command emits
an SVG document instead (to --svg FILE or stdout).

Identical request bytes produce identical response bytes.  Exit codes:
0 response emitted, 2 malformed request, 3 domain error from the exact
layer, 4 case outside the implemented theory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, ShapeError, UnsupportedCaseError
from .exactq import format_vec, qv
from . import momentum as M
from . import polyhedra as P
from . import repweights as W
from . import rootsys as R
from . import svgdraw
from .momentum import LocalConeSpec


class RequestError(ValueError):
    """Malformed request document (exit code 2)."""


def _field(payload, name, kind=None):
    if name not in payload:
        raise RequestError("payload is missing the %r field" % name)
    val = payload[name]
    if kind is not None and not isinstance(val, kind):
        raise RequestError("payload field %r has the wrong type" % name)
    return val


def _vec(rs, raw):
    if not isinstance(raw, list):
        raise RequestError("weights must be JSON lists of ints or 'p/q' strings")
    try:
        v = qv(raw)
    except (ShapeError, ValueError) as exc:
        raise RequestError("bad rational literal: %s" % exc)
    rs.check_dim(v)
    return v


def _vec_list(rs, raw):
    if not isinstance(raw, list):
        raise RequestError("expected a list of weights")
    return [_vec(rs, item) for item in raw]


def _polyhedron(rs, raw):
    try:
        poly = P.from_json(raw)
    except (ShapeError, ValueError) as exc:
        raise RequestError("bad polyhedron: %s" % exc)
    if poly.dim != rs.rank:
        raise RequestError("polyhedron dimension %d does not match group rank %d"
                           % (poly.dim, rs.rank))
    return poly


def _local_cone_spec(rs, raw):
    if not isinstance(raw, dict):
        raise RequestError("local-cone spec must be an object")
    case = _field(raw, "case", str)
    mu = _vec(rs, _field(raw, "mu"))
    slice_weights = _vec_list(rs, _field(raw, "slice_weights"))
    isotropy = _vec_list(rs, raw.get("isotropy_subtorus", []))
    return LocalConeSpec(rs, mu, slice_weights, case, isotropy)


def _roots(rs, payload):
    out = {
        "group": str(rs.spec),
        "rank": rs.rank,
        "semisimple_rank": rs.ss_rank,
        "weyl_order": rs.weyl_order(),
        "cartan": [[int(x) for x in row] for row in rs.cartan],
        "simple_roots": [format_vec(r) for r in rs.simple_roots],
        "positive_roots": [format_vec(r) for r in rs.positive_roots],
    }
    if rs.spec.factors:
        out["dominant_roots"] = [format_vec(r) for r in R.dominant_roots(rs)]
    return out


def _irrep(rs, payload):
    lam = _vec(rs, _field(payload, "hw"))
    ws = W.irrep_weights(rs, lam)
    return {
        "hw": format_vec(lam),
        "dim": ws.dim(),
        "weights": ws.to_json(),
        "trimmed_weight_set": [format_vec(w) for w in W.pi_lambda(ws, lam)],
    }


def _orbit(rs, payload):
    lam = _vec(rs, _field(payload, "weight"))
    orbit = R.weyl_orbit(rs, lam)
    dom, word = R.dominantize(rs, lam)
    return {
        "orbit": [format_vec(w) for w in orbit],
        "size": len(orbit),
        "dominant": format_vec(dom),
        "word": list(word),
    }


def _projective(rs, payload):
    hw = [_vec(rs, item) for item in _field(payload, "hw", list)]
    return M.momentum_polytope_projective(rs, hw).to_json()


def _poly_response(rs, payload, poly):
    """Bare polyhedron JSON, or wrapped with the involution check on request."""
    if payload.get("check_star_invariance"):
        return {
            "polyhedron": P.to_json(poly),
            "star_invariant": M.star_invariance_check(rs, poly),
        }
    return P.to_json(poly)


def _linear_cone(rs, payload):
    weights = _vec_list(rs, _field(payload, "weights"))
    return _poly_response(rs, payload, M.linear_cone_torus(rs, weights))


def _affine_cone(rs, payload):
    gens = _vec_list(rs, _field(payload, "generators"))
    return _poly_response(rs, payload, M.affine_cone_from_hw(rs, gens))


def _local_cone(rs, payload):
    spec = _local_cone_spec(rs, payload)
    return _poly_response(rs, payload, M.local_cone(spec))


def _assemble(rs, payload):
    specs = [_local_cone_spec(rs, item) for item in _field(payload, "specs", list)]
    return _poly_response(rs, payload, M.assemble_polytope(specs))


def _reduce(rs, payload):
    poly = _polyhedron(rs, _field(payload, "polyhedron"))
    mu = _vec(rs, _field(payload, "mu"))
    basis = _vec_list(rs, _field(payload, "subspace"))
    reduced = M.reduce_polytope(rs, poly, mu, basis)
    return {
        "polyhedron": P.to_json(reduced),
        "basis": [format_vec(b) for b in basis],
    }


def _cotangent(rs, payload):
    wall = _vec_list(rs, _field(payload, "wall"))
    return M.cotangent_homogeneous(rs, wall).to_json()


def _closure(rs, payload):
    raw = _field(payload, "infinity_polytope")
    if isinstance(raw, dict) and "points" in raw and "halfspaces" not in raw:
        poly = P.hull(_vec_list(rs, raw["points"]))
    else:
        poly = _polyhedron(rs, raw)
    closure = M.projective_closure_polytope(rs, poly)
    return {
        "closure": P.to_json(closure),
        "cone": P.to_json(M.recover_cone(closure)),
    }


_COMMANDS = {
    "roots": _roots,
    "irrep": _irrep,
    "orbit": _orbit,
    "projective": _projective,
    "linear-cone": _linear_cone,
    "affine-cone": _affine_cone,
    "local-cone": _local_cone,
    "assemble": _assemble,
    "reduce": _reduce,
    "cotangent": _cotangent,
    "closure": _closure,
}


def _render(rs, payload):
    result = _field(payload, "result")
    scale = payload.get("scale", 100)
    if not isinstance(scale, int) or isinstance(scale, bool) or scale <= 0:
        raise RequestError("scale must be a positive integer")
    dark = light = None
    if isinstance(result, dict) and ("lower" in result or "exact" in result):
        exact = result.get("exact")
        dark = _polyhedron(rs, exact if exact is not None else _field(result, "lower"))
        if "upper" in result:
            upper = _polyhedron(rs, result["upper"])
            if upper != dark:
                light = upper
    elif isinstance(result, dict) and "polyhedron" in result:
        dark = _polyhedron(rs, result["polyhedron"])
    else:
        dark = _polyhedron(rs, result)
    if "light" in payload and payload["light"] is not None:
        light = _polyhedron(rs, payload["light"])
    weights = None
    if payload.get("weights"):
        systems = []
        for entry in _field(payload, "weights", list):
            if isinstance(entry, dict):
                lam = _vec(rs, _field(entry, "hw"))
            else:
                lam = _vec(rs, entry)
            systems.append(W.irrep_weights(rs, lam))
        weights = W.union_weights(systems)
    scene = svgdraw.scene_for(rs, dark, light, weights, scale)
    return svgdraw.emit_svg(scene)


def run(request: dict):
    """Dispatch one request; returns (kind, document) with kind json|svg."""
    if not isinstance(request, dict):
        raise RequestError("request must be a JSON object")
    command = _field(request, "command", str)
    group = _field(request, "group", str)
    try:
        rs = R.build(group)
    except DomainError as exc:
        raise RequestError("bad group %r: %s" % (group, exc))
    payload = request.get("payload", {})
    if not isinstance(payload, dict):
        raise RequestError("payload must be a JSON object")
    if command == "render":
        return "svg", _render(rs, payload)
    if command not in _COMMANDS:
        raise RequestError("unknown command %r" % command)
    return "json", _COMMANDS[command](rs, payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liemoment",
        description="Momentum polytopes and cones from Lie-theoretic data; "
        "JSON request on stdin or --in.")
    parser.add_argument("--in", dest="infile", metavar="FILE", help="request file")
    parser.add_argument("--out", dest="outfile", metavar="FILE", help="response file")
    parser.add_argument("--svg", dest="svgfile", metavar="FILE", help="SVG output file")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON response")
    args = parser.parse_args(argv)

    def fail(code, kind, message):
        doc = {"error": {"kind": kind, "message": str(message)}}
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
        return code

    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        request = json.loads(text, parse_float=_reject_float,
                              parse_constant=_reject_float)
    except OSError as exc:
        return fail(2, "io", exc)
    except (ValueError, RecursionError) as exc:
        # json.loads recurses once per nesting level
        return fail(2, "parse", exc)

    try:
        kind, doc = run(request)
    except RequestError as exc:
        return fail(2, "parse", exc)
    except UnsupportedCaseError as exc:
        return fail(4, "unsupported", exc)
    except (DomainError, ShapeError) as exc:
        return fail(3, "domain", exc)

    if kind == "svg":
        text, path = doc, args.svgfile
    else:
        if args.pretty:
            text = json.dumps(doc, sort_keys=True, indent=2)
        else:
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        text, path = text + "\n", args.outfile
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return fail(2, "io", exc)
    return 0


def _reject_float(_text):
    raise ValueError("floating-point literals are not accepted; use 'p/q' strings")


if __name__ == "__main__":
    sys.exit(main())
