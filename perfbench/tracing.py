"""Traced answer of one CLI request, for the per-layer metrics.

Run as `PYTHONPATH=src python3 perfbench/tracing.py < request.json`.  It
imports the program, wraps the entry points of each layer from outside the
program, answers the request through `liemoment.cli.main` under cProfile,
and prints one JSON envelope: the exit code, the captured stdout and
stderr, and the layer totals.  Nothing inside the program is changed on
disk; the wrappers live only in this process.
"""

import cProfile
import io
import json
import pstats
import sys
import time
import types

from lie import Group

# (module, function, span name).  Hot leaf helpers such as rootsys.reflect,
# rootsys.star_linear (called once per candidate weight by the bound
# builders) and the exactq vector operations are left unwrapped: a wrapper
# would cost more than their work; their time shows in the callers' self
# time and, for Fraction arithmetic, in the profiler's count below.
SPANS = [
    ("cli", "run", "cli.run"),
    ("rootsys", "build", "rootsys.build"),
    ("rootsys", "weyl_orbit", "rootsys.weyl_orbit"),
    ("rootsys", "dominantize", "rootsys.dominantize"),
    ("rootsys", "star", "rootsys.star"),
    ("rootsys", "dominant_roots", "rootsys.dominant_roots"),
    ("repweights", "irrep_weights", "repweights.irrep_weights"),
    ("repweights", "pi_lambda", "repweights.pi_lambda"),
    ("repweights", "union_weights", "repweights.union_weights"),
    ("repweights", "dim", "repweights.dim"),
    ("polyhedra", "_dd_cone", "polyhedra.dd"),
    ("polyhedra", "from_generators", "polyhedra.from_generators"),
    ("polyhedra", "from_halfspaces", "polyhedra.from_halfspaces"),
    ("polyhedra", "hull", "polyhedra.hull"),
    ("polyhedra", "intersect", "polyhedra.intersect"),
    ("polyhedra", "cone_from_rays", "polyhedra.cone_from_rays"),
    ("polyhedra", "dd_convert", "polyhedra.dd_convert"),
    ("polyhedra", "join_with_origin", "polyhedra.join_with_origin"),
    ("polyhedra", "cone_over", "polyhedra.cone_over"),
    ("polyhedra", "shift", "polyhedra.shift"),
    ("polyhedra", "slice_subspace", "polyhedra.slice_subspace"),
    ("polyhedra", "to_json", "polyhedra.to_json"),
    ("polyhedra", "from_json", "polyhedra.from_json"),
    ("momentum", "momentum_polytope_projective", "momentum.projective"),
    ("momentum", "upper_bound_projective", "momentum.upper_bound"),
    ("momentum", "_upper_bound_for_list", "momentum.upper_bound"),
    ("momentum", "lower_bound_projective", "momentum.lower_bound_projective"),
    ("momentum", "_lower_bound_with_strategy", "momentum.lower_bound"),
    ("momentum", "_extreme_candidates", "momentum.extreme_candidates"),
    ("momentum", "_greedy_cover_cliques", "momentum.cliques"),
    ("momentum", "_maximal_cliques", "momentum.cliques"),
    ("momentum", "chamber", "momentum.chamber"),
    ("momentum", "linear_cone_torus", "momentum.linear_cone_torus"),
    ("momentum", "affine_cone_from_hw", "momentum.affine_cone_from_hw"),
    ("momentum", "projective_closure_polytope", "momentum.projective_closure_polytope"),
    ("momentum", "recover_cone", "momentum.recover_cone"),
    ("momentum", "local_cone", "momentum.local_cone"),
    ("momentum", "assemble_polytope", "momentum.assemble_polytope"),
    ("momentum", "reduce_polytope", "momentum.reduce_polytope"),
    ("momentum", "cotangent_homogeneous", "momentum.cotangent_homogeneous"),
    ("momentum", "star_invariance_check", "momentum.star_invariance_check"),
    ("exactq", "rref", "exactq.rref"),
    ("exactq", "rank", "exactq.rref"),
    ("exactq", "inverse", "exactq.rref"),
    ("svgdraw", "scene_for", "svgdraw.render"),
    ("svgdraw", "emit_svg", "svgdraw.render"),
]


def _count(counters, name, amount):
    counters[name] = counters.get(name, 0) + amount


# Sizes read off a span's arguments and result: (span name) -> function.
COUNTERS = {
    "rootsys.weyl_orbit": lambda c, args, out: _count(c, "rootsys.weyl_orbit_points", len(out)),
    "repweights.irrep_weights": lambda c, args, out: c.setdefault("weight_systems", []).append(
        (str(out.rs.spec), list(out.dominant_entries))),
    "polyhedra.dd": lambda c, args, out: (
        _count(c, "polyhedra.dd_constraints", len(args[0])),
        _count(c, "polyhedra.dd_rays_out", len(out[0]) + len(out[1]))),
    "polyhedra.hull": lambda c, args, out: _count(c, "polyhedra.hull_points_in", len(args[0])),
    "momentum.projective": lambda c, args, out: _count(
        c, "momentum.exact_answers", int(out.exact is not None)),
    "momentum.extreme_candidates": lambda c, args, out: (
        _count(c, "momentum.extreme_candidates_in", len(args[1])),
        _count(c, "momentum.extreme_candidates_out", len(out))),
    "momentum.cliques": lambda c, args, out: _count(c, "momentum.cliques", len(set(out))),
    "svgdraw.render": lambda c, args, out: _count(
        c, "svgdraw.svg_bytes", len(out) if isinstance(out, str) else 0),
}


class Tracer:
    """Spans around wrapped calls: calls, inclusive time and self time per
    name, where self time is the span minus the time its child spans cover."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self._children = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            children = [0.0]
            self._children.append(children)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._children.pop()
                if self._children:
                    self._children[-1][0] += elapsed
                s = self.spans.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += elapsed
                s[2] += elapsed - children[0]
            if count is not None:
                count(self.counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap each target in every liemoment namespace that bound it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "liemoment" or n.startswith("liemoment.")) and m is not None]
        for mod_name, fn_name, span in SPANS:
            mod = sys.modules.get("liemoment." + mod_name)
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapped = self.wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def install_encoder(self, cli):
        """Time the response encoding: json.dumps as the cli module sees it."""
        cli.json = types.SimpleNamespace(loads=json.loads,
                                         dumps=self.wrap("cli.encode", json.dumps))


def weights_total(systems):
    """Distinct weights of the returned weight systems: the sum over their
    dominant weights mu of |W| / |W_mu|, computed with the benchmark's own
    Lie data."""
    total = 0
    for spec, dominant in systems:
        g = Group(spec)
        for mu in dominant:
            total += g.weyl_order() // g.stabilizer_order(tuple(int(x) for x in mu))
    return total


def fraction_profile(profile):
    """Calls and self time inside the fractions module, from cProfile."""
    calls, self_s = 0, 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(profile).stats.items():
        if filename.endswith("fractions.py"):
            calls += ncalls
            self_s += tottime
    return calls, self_s


def main():
    data = sys.stdin.buffer.read()
    start = time.perf_counter()
    import liemoment.cli as cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    tracer.install_encoder(cli)
    real = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    profile = cProfile.Profile(builtins=False)
    try:
        profile.enable()
        try:
            rc = cli.main([])
        finally:
            profile.disable()
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = real
    calls, self_s = fraction_profile(profile)
    counters = tracer.counters
    counters["repweights.weights_total"] = weights_total(counters.pop("weight_systems", []))
    json.dump({
        "rc": rc,
        "stdout": out,
        "stderr": err,
        "import_s": import_s,
        "spans": tracer.spans,
        "counters": counters,
        "fraction_calls": calls,
        "fraction_self_s": self_s,
    }, sys.stdout)


if __name__ == "__main__":
    main()
