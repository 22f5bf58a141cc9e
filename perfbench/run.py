"""Benchmark of the liemoment CLI: one workload, closed loop, one client.

    python3 perfbench/run.py --workload sandwich --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Each request is a fresh
`python -m liemoment.cli` process with PYTHONPATH=src, sent one at a time;
the benchmark reads its whole response before it sends the next, and
checks every response (checks.py).  A round answers every request of the
workload once; a run makes at least three whole rounds, and more until
--seconds of request time is spent.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of one untraced round and one traced round (tracing.py).  --dump DIR
writes every response of one round to DIR, for a byte-for-byte comparison
of two commits.  The last line of stdout is the JSON result.
"""

import argparse
import importlib.util
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time

from checks import CheckError, check_response
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CLI = [sys.executable, "-m", "liemoment.cli"]
TRACED = [sys.executable, os.path.join(HERE, "tracing.py")]
REQUEST_TIMEOUT_S = 150.0
MIN_ROUNDS = 3
PROBE_GAP_S = 0.5
SETUP_PROBE = {"id": "setup-roots-A1", "request": {"command": "roots", "group": "A1"},
               "expect_rc": 0}


class Answer:
    def __init__(self, rc, out, err, wall_s, cpu_s, maxrss_kb):
        self.rc, self.out, self.err = rc, out, err
        self.wall_s, self.cpu_s, self.maxrss_kb = wall_s, cpu_s, maxrss_kb


def spawn(argv, data):
    """One process: wall time from spawn to its last output byte, and its
    own CPU time and peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        proc.stdin.write(data)
        proc.stdin.close()
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = start + REQUEST_TIMEOUT_S - time.perf_counter()
                events = sel.select(timeout=max(left, 0))
                if not events:
                    raise TimeoutError("request took over %.0f s" % REQUEST_TIMEOUT_S)
                for key, _ in events:
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        chunks[key.fileobj].append(chunk)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Answer(proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                  wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def encode(item):
    return json.dumps(item["request"], sort_keys=True).encode()


class Tally:
    """Operations attempted and failed, and whether every answer checked out."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, item, answer, answers, first_bytes):
        self.attempted += 1
        if answer is None or answer.rc != item["expect_rc"]:
            self.failed += 1
            got = "no answer" if answer is None else "exit %d: %r" % (answer.rc, answer.err[:300])
            log("FAILED %s: %s" % (item["id"], got))
            return
        try:
            check_response(item, answer.rc, answer.out, answer.err,
                           {k: (a.rc, a.out, a.err) for k, a in answers.items()})
            seen = first_bytes.setdefault(item["id"], answer.out)
            if "repeat_of" in item:
                seen = answers[item["repeat_of"]].out
            if answer.out != seen:
                raise CheckError("the same request gave different bytes")
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            self.correct = False
            log("INCORRECT %s: %s: %s" % (item["id"], type(exc).__name__, exc))


def log(text):
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


def run_round(items, argv, tally, first_bytes, unwrap=None, before=None):
    answers = {}
    for item in items:
        if before is not None:
            before()
        try:
            answer = spawn(argv, encode(item))
        except TimeoutError as exc:
            log("TIMEOUT %s: %s" % (item["id"], exc))
            answer = None
        if answer is not None and unwrap is not None:
            answer = unwrap(answer)
        if answer is not None:
            answers[item["id"]] = answer
    for item in items:
        tally.record(item, answers.get(item["id"]), answers, first_bytes)
        if item["id"] in answers:
            log("%-28s %9.4f s" % (item["id"], answers[item["id"]].wall_s))
    return answers


def machine_facts():
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


class SetUpProbes:
    """`setup_s`: the median wall time of a CLI process answering the
    smallest request, `roots` on A1, from its spawn to its last output
    byte: interpreter start, import and dispatch, which every request pays.
    A probe is sent before a request when PROBE_GAP_S has passed since the
    last one, so the probes sample the whole run: on a shared machine, load
    from outside comes in bursts of a second or more, which would cover a
    run of back-to-back probes."""

    def __init__(self, tally):
        self.tally, self.walls, self.last = tally, [], float("-inf")

    def before(self):
        if time.perf_counter() - self.last < PROBE_GAP_S:
            return
        try:
            answer = spawn(CLI, encode(SETUP_PROBE))
        except TimeoutError as exc:
            log("TIMEOUT %s: %s" % (SETUP_PROBE["id"], exc))
            answer = None
        self.tally.record(SETUP_PROBE, answer, {}, {})
        if answer is not None:
            self.walls.append(answer.wall_s)
        self.last = time.perf_counter()


def end_to_end(items, seconds, tally):
    """At least MIN_ROUNDS whole rounds, and more until `seconds` of request
    time is spent.  Each request counts with its fastest answer in the run
    (a request sent twice in a round pools its samples): on a shared
    machine, load from outside the benchmark only ever slows a request
    down, so the minimum is the steadiest estimate of its own cost."""
    first_bytes = {}
    probes = SetUpProbes(tally)
    samples = {encode(item): [] for item in items}
    spent, rounds, peak_kb = 0.0, 0, 0
    while rounds < MIN_ROUNDS or spent < seconds:
        answers = run_round(items, CLI, tally, first_bytes, before=probes.before)
        for item in items:
            a = answers.get(item["id"])
            if a is not None:
                samples[encode(item)].append(a)
                spent += a.wall_s
                peak_kb = max(peak_kb, a.maxrss_kb)
        rounds += 1
    log("rounds: %d, requests per round: %d" % (rounds, len(items)))
    fastest = [samples[encode(item)] for item in items if samples[encode(item)]]
    wall = [min(a.wall_s for a in s) for s in fastest]
    cpu = [min(a.cpu_s for a in s) for s in fastest]
    return {
        "setup_s": (statistics.median(probes.walls), "s"),
        "wall_s": (sum(wall), "s"),
        "request_p50_s": (statistics.median(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def traced_answer(answer):
    """Unpack the envelope printed by tracing.py into the answer it traced."""
    try:
        env = json.loads(answer.out)
    except ValueError:
        log("tracing failed: %r" % answer.err[-500:])
        return None
    traced = Answer(env["rc"], env["stdout"].encode(), env["stderr"].encode(),
                    answer.wall_s, answer.cpu_s, answer.maxrss_kb)
    traced.envelope = env
    return traced


def per_layer(items, tally):
    """One untraced round, then the same round traced, request by request."""
    first_bytes = {}
    plain = run_round(items, CLI, tally, first_bytes)
    traced = run_round(items, TRACED, tally, first_bytes, unwrap=traced_answer)
    spans, counters = {}, {}
    totals = {"import_s": 0.0, "fraction_calls": 0, "fraction_self_s": 0.0, "bytes": 0}
    for answer in traced.values():
        env = answer.envelope
        for name, (calls, total, own) in env["spans"].items():
            s = spans.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += own
        for name, value in env["counters"].items():
            counters[name] = counters.get(name, 0) + value
        totals["import_s"] += env["import_s"]
        totals["fraction_calls"] += env["fraction_calls"]
        totals["fraction_self_s"] += env["fraction_self_s"]
        totals["bytes"] += len(answer.out)

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    conversions = calls("polyhedra.from_generators") + calls("polyhedra.from_halfspaces")
    m = {
        "cli.import_s": (totals["import_s"], "s"),
        "cli.run_s": (total("cli.run"), "s"),
        "cli.encode_s": (total("cli.encode"), "s"),
        "cli.response_bytes": (totals["bytes"], "bytes"),
        "rootsys.build_calls": (calls("rootsys.build"), "count"),
        "rootsys.build_s": (total("rootsys.build"), "s"),
        "rootsys.weyl_orbit_calls": (calls("rootsys.weyl_orbit"), "count"),
        "rootsys.weyl_orbit_points": (counters.get("rootsys.weyl_orbit_points", 0), "count"),
        "rootsys.weyl_orbit_s": (total("rootsys.weyl_orbit"), "s"),
        "rootsys.dominantize_calls": (calls("rootsys.dominantize"), "count"),
        "rootsys.dominantize_s": (total("rootsys.dominantize"), "s"),
        "repweights.irrep_weights_calls": (calls("repweights.irrep_weights"), "count"),
        "repweights.irrep_weights_s": (total("repweights.irrep_weights"), "s"),
        "repweights.weights_total": (counters.get("repweights.weights_total", 0), "count"),
        "repweights.pi_lambda_s": (total("repweights.pi_lambda"), "s"),
        "polyhedra.conversions": (conversions, "count"),
        "polyhedra.dd_calls": (calls("polyhedra.dd"), "count"),
        "polyhedra.dd_per_conversion": (calls("polyhedra.dd") / max(conversions, 1), "ratio"),
        "polyhedra.dd_s": (total("polyhedra.dd"), "s"),
        "polyhedra.dd_constraints": (counters.get("polyhedra.dd_constraints", 0), "count"),
        "polyhedra.dd_rays_out": (counters.get("polyhedra.dd_rays_out", 0), "count"),
        "polyhedra.hull_calls": (calls("polyhedra.hull"), "count"),
        "polyhedra.hull_points_in": (counters.get("polyhedra.hull_points_in", 0), "count"),
        "polyhedra.hull_s": (total("polyhedra.hull"), "s"),
        "polyhedra.intersect_calls": (calls("polyhedra.intersect"), "count"),
        "polyhedra.intersect_s": (total("polyhedra.intersect"), "s"),
        "polyhedra.from_generators_s": (total("polyhedra.from_generators"), "s"),
        "polyhedra.from_halfspaces_s": (total("polyhedra.from_halfspaces"), "s"),
        "momentum.projective_s": (total("momentum.projective"), "s"),
        "momentum.upper_bound_s": (total("momentum.upper_bound"), "s"),
        "momentum.lower_bound_s": (total("momentum.lower_bound"), "s"),
        "momentum.lower_bound_self_s": (spans.get("momentum.lower_bound", [0, 0, 0.0])[2], "s"),
        "momentum.cliques": (counters.get("momentum.cliques", 0), "count"),
        "momentum.extreme_candidates_in": (
            counters.get("momentum.extreme_candidates_in", 0), "count"),
        "momentum.extreme_candidates_out": (
            counters.get("momentum.extreme_candidates_out", 0), "count"),
        "momentum.exact_answers": (counters.get("momentum.exact_answers", 0), "count"),
        "exactq.fraction_calls": (totals["fraction_calls"], "count"),
        "exactq.fraction_self_s": (totals["fraction_self_s"], "s"),
        "exactq.rref_calls": (calls("exactq.rref"), "count"),
        "exactq.rref_s": (total("exactq.rref"), "s"),
        "svgdraw.render_s": (total("svgdraw.render"), "s"),
        "svgdraw.svg_bytes": (counters.get("svgdraw.svg_bytes", 0), "bytes"),
        "trace.overhead_s": (sum(a.wall_s for a in traced.values())
                             - sum(a.wall_s for a in plain.values()), "s"),
    }
    return m, spans


def dump(items, directory, tally):
    """Every response of one round, one file per request, plus an index."""
    os.makedirs(directory, exist_ok=True)
    answers = run_round(items, CLI, tally, {})
    with open(os.path.join(directory, "index.jsonl"), "w") as index:
        for item in items:
            a = answers.get(item["id"])
            index.write(json.dumps({"id": item["id"], "request": item["request"],
                                    "rc": None if a is None else a.rc}, sort_keys=True) + "\n")
            if a is not None:
                with open(os.path.join(directory, item["id"] + ".out"), "wb") as fh:
                    fh.write(a.out)
                with open(os.path.join(directory, item["id"] + ".err"), "wb") as fh:
                    fh.write(a.err)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", metavar="DIR", help="write every response of one round to DIR")
    args = parser.parse_args()
    # a terminated run still kills the CLI process it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "liemoment", "cli.py")):
        log("no liemoment sources under %s: run from the root of a source checkout" % SRC)
        return 2

    items = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    # an untimed warm-up, which may compile the sources to bytecode
    tally.record(SETUP_PROBE, spawn(CLI, encode(SETUP_PROBE)), {}, {})

    facts = machine_facts()
    print("workload %s, seed %d, %d requests per round, closed loop, one client"
          % (args.workload, args.seed, len(items)))
    print("machine: python %s, gmpy2 %s, nproc %d"
          % (facts["python"], "importable" if facts["gmpy2"] else "not importable",
             facts["nproc"]))
    if args.dump:
        dump(items, args.dump, tally)
        metrics = {}
    elif args.trace:
        metrics, spans = per_layer(items, tally)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": facts,
                       "spans": spans}, fh, indent=1, sort_keys=True)
    else:
        metrics = end_to_end(items, args.seconds, tally)

    for name, (value, unit) in metrics.items():
        print("%-34s %14.6f %s" % (name, value, unit))
    print("requests attempted %d, failed %d, correct %s"
          % (tally.attempted, tally.failed, tally.correct))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.correct and not tally.failed else 1


if __name__ == "__main__":
    sys.exit(main())
