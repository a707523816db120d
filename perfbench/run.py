"""trifree benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload members --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` wraps every
layer boundary of trifree (see ``tracer.py``), alternates untraced and
traced passes, and reports per-layer counts and self times per pass.  Either way the run repeats whole passes of the workload until
``--seconds`` have passed, checks every output (``workloads.py``), prints a
report, writes it under ``perfbench/out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The metrics on that
line are the ones ``BENCHMARK.json`` lists for the mode.  The exit code is 1
when any op failed or any check found a problem, 2 on a usage error or when
the checkout holds no trifree source.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter, namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_PROBES = 4          # speed probes just before and after each timed set-up step
COVERAGE_MIN = 0.9
# what a fresh process must import before it can build inputs
IMPORT_CODE = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_SAMPLES = 20


OpRecord = namedtuple("OpRecord", "kind label n seconds start")
Setup = namedtuple("Setup", "items wall_s ref_s deterministic")


class Recorder:
    """Times ops, runs their checks, and keeps per-pass totals and a digest."""

    def __init__(self):
        self.tracer = None                  # tracer.Tracer, traced runs only
        self.probe = None                   # speed.SpeedProbe, untraced runs only
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.passes = []

    def begin_pass(self):
        self.passes.append({"ops": [], "op_s": 0.0, "size": 0, "guarantee": 0,
                            "steps": Counter(), "digest": hashlib.sha256()})

    def checked(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append("%s: %s" % (label, "; ".join(problems)))

    def op(self, kind, item, call, check, n_of=None):
        """Time ``call()``; ``check(result)`` gives (problems, digest summary)."""
        label = "%s %s" % (kind, item.name if item is not None else "")
        self.attempted += 1
        tracer = self.tracer
        if self.probe is not None:
            self.probe.maybe_probe()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = call()
        except Exception:  # a failing op is counted and named; the run goes on
            error = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
            result = None
        else:
            error = None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        if self.probe is not None:
            self.probe.maybe_probe()
        current = self.passes[-1]
        current["op_s"] += elapsed
        if error is not None:
            self.failed += 1
            self.failures.append("%s: %s" % (label, error))
            return None
        n = n_of(result) if n_of is not None else item.n
        current["ops"].append(OpRecord(kind, label, n, elapsed, start))
        problems, summary = check(result)
        current["digest"].update(repr(summary).encode())
        if problems:
            self.failed += 1
            self.failures.append("%s: %s" % (label, "; ".join(problems)))
            return None
        return result

    def solved(self, res):
        current = self.passes[-1]
        current["size"] += len(res.independent_set)
        current["guarantee"] += res.guarantee
        current["steps"].update(step.kind for step in res.trace)

    def digests(self):
        return [p["digest"].hexdigest()[:16] for p in self.passes]


def run_pass(workload, items, seed, rec, snapshots=None):
    """One pass.  With a tracer, ``snapshots`` gets the pass's totals; the
    first snapshot also keeps its spans."""
    tracer = rec.tracer
    rec.begin_pass()
    if tracer is not None:
        tracer.reset()
    workload.run_pass(rec, items, seed)
    if tracer is not None:
        snapshots.append(tracer.snapshot())
        if len(snapshots) == 1:
            snapshots[0]["spans"] = tracer.spans
            tracer.keep_spans = False


def set_up(workload, seed, probe):
    """Build the inputs ``SETUP_REPEATS`` times, timing each input maker.

    The makers' time is the sum of each maker's median, so a slow stretch of
    the machine moves few samples; ``ref_s`` scales each sample by the speed
    probes around it.  Added to the median time of the imports
    (``time_import``), it is ``setup_s``: the time from process start until
    the inputs are ready.
    """
    makers = workload.makers(seed)
    samples = [[] for _ in makers]
    keys = set()
    for _ in range(SETUP_REPEATS):
        items = []
        for times, make in zip(samples, makers):
            wall, ref, made = probe.timed(make, SETUP_PROBES)
            times.append((wall, ref))
            items += made
        keys.add(repr([item.key() for item in items]))
    return Setup(items, *(sum(statistics.median(t[which] for t in times) for times in samples)
                          for which in (0, 1)), len(keys) == 1)


def time_import(probe):
    """(wall s, s at reference speed) of a fresh interpreter that imports what
    the benchmark needs before it can build inputs, from start to exit."""
    def child():
        subprocess.run([sys.executable, "-c", IMPORT_CODE, str(HERE), str(ROOT / "src")],
                       cwd=ROOT, check=True)
    return probe.timed(child, SETUP_PROBES)[:2]


# -- metrics ---------------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def per_op_medians(passes, seconds_of, kind=None):
    """Vertices per pass, and the sum over a pass's ops of each op's median time.

    Every pass runs the same ops in the same order, so an op's samples are
    spread over the run and a slow stretch of the machine moves few of them.
    ``kind`` restricts both sums to ops of that kind.
    """
    ops = [p["ops"] for p in passes if len(p["ops"]) == len(passes[0]["ops"])]
    picked = [i for i, op in enumerate(ops[0]) if kind is None or op.kind == kind]
    vertices = sum(ops[0][i].n for i in picked)
    total = sum(statistics.median(seconds_of(pass_ops[i]) for pass_ops in ops)
                for i in picked)
    return vertices, total


def end_to_end(rec, setup, imports):
    """The end-to-end metrics, raw and at reference speed.

    ``imports`` holds (wall s, reference s) samples of ``time_import``.
    """
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit, "note": note}

    def ref_s(op):
        return op.seconds * rec.probe.factor(op.start, op.start + op.seconds)

    passes = rec.passes
    every_op = [op for p in passes for op in p["ops"]]
    put("setup_wall_s", statistics.median(w for w, _ in imports) + setup.wall_s, "s",
        "median imports + sum of median input makers, %d set-ups" % SETUP_REPEATS)
    put("setup_s", statistics.median(r for _, r in imports) + setup.ref_s, "s",
        "setup_wall_s at reference speed")
    for prefix, seconds_of in (("", lambda op: op.seconds), ("ref_", ref_s)):
        for kind in (None, "solve"):
            vertices, total = per_op_medians(passes, seconds_of, kind)
            if total:
                put(prefix + (kind + "_" if kind else "") + "vertices_per_s",
                    vertices / total, "vertex/s",
                    "%d vertices per pass / sum of per-op medians over %d passes"
                    % (vertices, len(passes)))
        for kind in ("solve", "member", "audit"):
            xs = [seconds_of(op) for op in every_op if op.kind == kind]
            if not xs:
                continue
            put(prefix + kind + "_p50_ms", statistics.median(xs) * 1e3, "ms", "n=%d" % len(xs))
            found = tail(xs) if not prefix and len(xs) >= TAIL_MIN_SAMPLES else None
            if found is not None:
                put(kind + "_tail_ms", found[1] * 1e3, "ms", "p%g, n=%d" % (found[0], len(xs)))
    xs = [op.seconds for op in every_op if op.kind == "enumerate"]
    if xs:
        put("enumerate_s", statistics.median(xs), "s", "median, n=%d" % len(xs))
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    put("error_rate", rec.failed / rec.attempted, "ratio",
        "%d of %d" % (rec.failed, rec.attempted))
    size = sum(p["size"] for p in passes)
    guarantee = sum(p["guarantee"] for p in passes)
    if guarantee:
        put("solve_size_ratio", size / guarantee, "ratio", "sum |S| / sum guarantee")
    return metrics


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(snapshots, rec, untraced_op_s, generate_s):
    """Per-layer metrics per pass: counts of the first pass, median self times."""
    first = snapshots[0]
    calls = first["calls"]
    counts = first["counts"]

    def self_s(*names, prefix=None):
        per_pass = []
        for snap in snapshots:
            ns = snap["self_ns"]
            keys = [k for k in ns if k.startswith(prefix)] if prefix else names
            per_pass.append(sum(ns.get(k, 0) for k in keys) / 1e9)
        return statistics.median(per_pass)

    def calls_of(*names):
        return sum(calls.get(k, 0) for k in names)

    finders = ["configurations.find_c%d" % i for i in range(1, 6)]
    steps = rec.passes[-1]["steps"]
    traced_op_s = [p["op_s"] for p in rec.passes]
    below_roots = sum(sum(s["self_ns"].values()) - s["root_self_ns"] for s in snapshots) / 1e9
    m = {}
    for what in ("build", "cycles", "disk", "paths", "components", "embed"):
        m["plane_graph.%s_calls" % what] = (calls_of("plane_graph." + what), "count")
        m["plane_graph.%s_s" % what] = (self_s("plane_graph." + what), "s")
    m["configurations.search_calls"] = (calls_of(*finders), "count")
    m["configurations.search_s"] = (self_s(prefix="configurations."), "s")
    m["configurations.candidates"] = (counts.get("candidates", 0), "count")
    m["configurations.useful_ratio"] = (
        _ratio(calls_of("reductions.reduce"), counts.get("candidates", 0)), "ratio")
    m["reductions.steps"] = (calls_of("reductions.reduce"), "count")
    for kind in ("C1", "C2", "C3", "C4"):
        m["reductions.steps." + kind] = (steps.get(kind, 0), "count")
    m["reductions.reduce_s"] = (self_s("reductions.reduce"), "s")
    m["reductions.lift_s"] = (self_s("reductions.lift"), "s")
    for what in ("is_member", "find_diamonds", "replace"):
        m["extremal.%s_calls" % what] = (calls_of("extremal." + what), "count")
        m["extremal.%s_s" % what] = (self_s("extremal." + what), "s")
    m["extremal.certificate_s"] = (self_s("extremal.certificate"), "s")
    m["extremal.replace_useful_ratio"] = (
        _ratio(counts.get("certificate_steps", 0),
               first["under"].get("extremal.replace@extremal.is_member", 0)), "ratio")
    m["solver.exact_alpha_calls"] = (calls_of("solver.exact_alpha"), "count")
    m["solver.exact_alpha_s"] = (self_s("solver.exact_alpha"), "s")
    m["solver.solve_self_s"] = (self_s("solver.solve"), "s")
    m["discharging.apply_rules_s"] = (self_s("discharging.apply_rules"), "s")
    m["discharging.dangerous_s"] = (self_s("discharging.dangerous_cycles"), "s")
    m["discharging.dangerous_found"] = (counts.get("dangerous_found", 0), "count")
    m["discharging.audit_self_s"] = (self_s("discharging.audit"), "s")
    m["corpus.enumerate_self_s"] = (self_s("corpus.enumerate_small"), "s")
    m["corpus.generate_s"] = (generate_s, "s")
    m["verify.calls"] = (calls_of("verify.violating_edge"), "count")
    m["verify.s"] = (self_s("verify.violating_edge", "verify.is_independent_set"), "s")
    for what in ("planarity", "iso", "wl_hash"):
        m["networkx.%s_calls" % what] = (calls_of("networkx." + what), "count")
        m["networkx.%s_s" % what] = (self_s("networkx." + what), "s")
    # the op's own entry span takes whatever no deeper wrapper claims, so
    # only the time below it counts as covered
    m["trace.coverage"] = (below_roots / sum(traced_op_s), "ratio")
    m["trace.overhead_s"] = (statistics.median(traced_op_s) - untraced_op_s, "s")
    return {k: {"value": v, "unit": u, "note": "per pass"} for k, (v, u) in m.items()}


def determinism_problems(rec, snapshots):
    problems = []
    if len(set(rec.digests())) > 1:
        problems.append("output digest differs between passes: %s" % rec.digests())
    steps = [dict(p["steps"]) for p in rec.passes]
    if any(s != steps[0] for s in steps):
        problems.append("reduction steps differ between passes")
    for snap in snapshots[1:]:
        for key in ("calls", "counts", "under"):
            if snap[key] != snapshots[0][key]:
                problems.append("per-layer %s differ between passes" % key)
    return problems


# -- environment -------------------------------------------------------------------


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(loadavg):
    import networkx
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "trifree").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_revision": git_revision(), "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "networkx": networkx.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "loadavg": [round(x, 2) for x in loadavg]}


# -- main --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "trifree" / "__init__.py").is_file():
        print("perfbench: no trifree source at %s" % (ROOT / "src" / "trifree"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    loadavg = os.getloadavg()
    sys.path.insert(0, str(ROOT / "src"))
    # networkx >= 3.5 warns on every WL hash of an unlabelled graph
    warnings.filterwarnings("ignore", category=UserWarning, module=r"networkx\.")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import speed
    probe = speed.SpeedProbe()

    rec = Recorder()
    setup = set_up(workload, args.seed, probe)
    items = setup.items
    rec.checked("setup determinism", [] if setup.deterministic else
                ["inputs differ between setups of one seed"])
    workload.setup_checks(rec, items)

    snapshots = []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # untraced and traced passes alternate, so the overhead compares
        # passes run under the same machine conditions
        import tracer as tracing
        rec.tracer = tracing.install(tracing.Tracer())
        untraced = Recorder()
        while True:
            run_pass(workload, items, args.seed, untraced)
            run_pass(workload, items, args.seed, rec, snapshots)
            if time.perf_counter() >= deadline:
                break
        rec.attempted += untraced.attempted
        rec.failed += untraced.failed
        rec.failures += untraced.failures
        rec.checked("determinism", determinism_problems(rec, snapshots))
        rec.checked("untraced passes match traced passes",
                    [] if len(set(untraced.digests() + rec.digests())) == 1 else
                    ["output digest differs with tracing on"])
        untraced_op_s = statistics.median(p["op_s"] for p in untraced.passes)
        metrics = per_layer(snapshots, rec, untraced_op_s, setup.wall_s)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        # imports are timed between passes, so their samples spread over the
        # run and a slow stretch at its start does not move them all
        imports = [time_import(probe)]
        rec.probe = probe
        while True:
            run_pass(workload, items, args.seed, rec)
            if time.perf_counter() >= deadline:
                break
            if len(imports) < SETUP_REPEATS:
                imports.append(time_import(probe))
        rec.probe.probe()
        while len(imports) < SETUP_REPEATS:
            imports.append(time_import(probe))
        rec.checked("determinism", determinism_problems(rec, snapshots))
        metrics = end_to_end(rec, setup, imports)
        wanted = [m["name"] for m in spec["end_to_end"]]

    env = environment(loadavg)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": len(rec.passes),
              "ops_per_pass": dict(Counter(op.kind for op in rec.passes[0]["ops"])),
              "pass_op_s": [p["op_s"] for p in rec.passes],
              "op_s": [[op.label, op.n] + [p["ops"][i].seconds for p in rec.passes
                                           if len(p["ops"]) > i]
                       for i, op in enumerate(rec.passes[0]["ops"])],
              "digest": rec.digests()[0], "attempted": rec.attempted, "failed": rec.failed,
              "failures": rec.failures, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if snapshots:
        rec.tracer.write_spans(OUT / (stem + ".spans.tsv.gz"), snapshots[0]["spans"])

    print("env " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    print("workload=%s seed=%d trace=%d passes=%d digest=%s attempted=%d failed=%d"
          % (args.workload, args.seed, args.trace, len(rec.passes), report["digest"],
             rec.attempted, rec.failed))
    for failure in rec.failures:
        print("FAILED " + failure)
    coverage = metrics.get("trace.coverage")
    if coverage is not None and coverage["value"] < COVERAGE_MIN:
        print("WARNING trace.coverage %.3f is below %g: a layer has lost its wrapper"
              % (coverage["value"], COVERAGE_MIN))
    for name, m in metrics.items():
        print("metric %-32s %14.6g %-8s %s" % (name, m["value"], m["unit"], m["note"]))
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                                  for k in wanted if k in metrics}}))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
