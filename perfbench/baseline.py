"""Run the benchmark over many seeds and summarise it as medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` this runs ``run.py --trace 0`` once
per seed of the range ``lo-hi``, one run at a time, and reports each metric's
median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them).  A gated metric whose
spread exceeds a third of its bound is a problem.  It then checks
determinism: two traced runs on the first seed must give the same per-layer
counts and output digest, and one traced run on ``--second-seed`` is
recorded so later claims can be checked on a seed they were not tuned on.
A traced run whose ``trace.coverage`` is below 0.9 is a problem too.  The
exit code is 1 when there is any problem.  A later change is compared against the file this writes,
measured with the same benchmark code on the same machine.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COVERAGE_MIN = 0.9


def parse_seeds(text):
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run(workload, seed, seconds, trace):
    """One benchmark process; returns its full report (see run.py)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d trace %d exited %d"
                         % (workload, seed, trace, proc.returncode))
    stem = "%s-seed%d-trace%d.json" % (workload, seed, trace)
    return json.loads((HERE / "out" / stem).read_text())


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def counts_of(report):
    return {k: m["value"] for k, m in report["metrics"].items() if m["unit"] == "count"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="range lo-hi")
    ap.add_argument("--second-seed", type=int, default=1001)
    ap.add_argument("--out", default=None, help="write the summary here as JSON")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": seeds, "second_seed": args.second_seed,
               "workloads": {}}
    problems = []
    for name in names:
        reports = []
        for seed in seeds:
            reports.append(run(name, seed, seconds, 0))
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.4g" % (k, m["value"]) for k, m in reports[-1]["metrics"].items())),
                flush=True)
        metrics = {}
        for key in reports[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in reports if key in r["metrics"]]
            metrics[key] = dict(summarise(values), unit=reports[0]["metrics"][key]["unit"])
            bound = bounds.get(key)
            if bound is not None and metrics[key]["spread"] > bound / 3:
                problems.append("%s %s spread %.3f above a third of its bound %.2f"
                                % (name, key, metrics[key]["spread"], bound))
        entry = {"env": reports[0]["env"], "digests": [r["digest"] for r in reports],
                 "end_to_end": metrics}
        first = run(name, seeds[0], seconds, 1)
        again = run(name, seeds[0], seconds, 1)
        second = run(name, args.second_seed, seconds, 1)
        if counts_of(first) != counts_of(again) or first["digest"] != again["digest"]:
            problems.append("%s: traced runs of seed %d differ in counts or digest"
                            % (name, seeds[0]))
        for r in (first, again, second):
            coverage = r["metrics"]["trace.coverage"]["value"]
            if coverage < COVERAGE_MIN:
                problems.append("%s seed %d: trace.coverage %.3f below %g"
                                % (name, r["seed"], coverage, COVERAGE_MIN))
        entry["per_layer"] = {str(r["seed"]): {"digest": r["digest"], "metrics": {
            k: m["value"] for k, m in r["metrics"].items()}} for r in (first, second)}
        entry["per_layer"][str(seeds[0])]["repeat_overhead_s"] = \
            again["metrics"]["trace.overhead_s"]["value"]
        summary["workloads"][name] = entry
        for key, m in metrics.items():
            print("%-8s %-20s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f %s"
                  % (name, key, m["median"], m["q1"], m["q3"], m["spread"], m["unit"]),
                  flush=True)
    summary["problems"] = problems
    for p in problems:
        print("PROBLEM " + p)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
