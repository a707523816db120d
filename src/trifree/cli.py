"""Command-line surface.

Exit codes: 0 success, 1 invariant or bound violation or internal error,
2 input error.  No command prints a traceback.
``TRIFREE_SEED`` overrides the default seed of the generating commands.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import configurations, corpus, discharging, extremal, solver
from .plane_graph import GraphError, InternalInvariantError, parse, serialize

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _read_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise GraphError("%s is not UTF-8 text: %s" % (path, e.reason)) from None
    return parse(text)


def _fmt_set(s) -> str:
    return "{%s}" % ",".join(str(v) for v in sorted(s))


def _fmt_element(e) -> str:
    kind, obj = e
    if kind == "v":
        return "v%s" % obj
    return "f(%s)" % "-".join(str(x) for x in obj.vertex_walk())


def cmd_validate(g, args) -> int:
    lengths = sorted(f.length for f in g.faces())
    print("valid plane graph: n=%d m=%d faces=%s triangle_free=%s"
          % (g.n, g.m, lengths, g.is_triangle_free()))
    return EXIT_OK


def cmd_solve(g, args) -> int:
    res = solver.solve(g)
    print("set %s" % _fmt_set(res.independent_set))
    print("size %d guarantee %d met %s" % (res.size, res.guarantee, res.met))
    if args.trace:
        for step in res.trace:
            print(step.serialize())
    return EXIT_OK if res.met else EXIT_VIOLATION


def cmd_oracle(g, args) -> int:
    alpha, witness = solver.exact_alpha(g)
    print("alpha %d" % alpha)
    print("witness %s" % _fmt_set(witness))
    return EXIT_OK


def cmd_member(g, args) -> int:
    trace = extremal.is_member(g)
    sys.stdout.write(trace.serialize())
    if trace.is_member:
        s = extremal.member_max_independent_set(g, trace)
        print("max_set %s" % _fmt_set(s))
    return EXIT_OK


def cmd_gen_extremal(args) -> int:
    g = extremal.generate_member(args.steps, args.seed)
    sys.stdout.write(serialize(g))
    return EXIT_OK


def cmd_gen_random(args) -> int:
    spec = corpus.CorpusSpec("random", n_max=args.n, seed=args.seed, count=args.count)
    for g in corpus.gen_random(spec):
        sys.stdout.write(serialize(g))
        print("")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    for g in corpus.enumerate_small(args.n):
        sys.stdout.write(serialize(g))
        print("")
    return EXIT_OK


def cmd_find_configs(g, args) -> int:
    for c in configurations.find_all(g):
        print("%s v=%s roles=%s" % (c.kind, c.roles[0],
                                    ",".join(str(v) for v in c.roles)))
    return EXIT_OK


def cmd_discharge(g, args) -> int:
    ledger = discharging.apply_rules(g)
    print("sum_initial %s" % ledger.total_initial())
    print("sum_final %s" % ledger.total_final())
    for element in sorted(ledger.final, key=_fmt_element):
        print("%s %s" % (_fmt_element(element), ledger.final[element]))
    if args.ledger:
        for t in ledger.transfers:
            print("R%d %s -> %s %s" % (t.rule, _fmt_element(t.source),
                                       _fmt_element(t.target), t.amount))
    return EXIT_OK


def cmd_dangerous(g, args) -> int:
    found = discharging.dangerous_cycles(g)
    for dc in found:
        print("dangerous %s interior_n=%d" % ("-".join(str(v) for v in dc.cycle), dc.interior_n))
    print("count %d" % len(found))
    return EXIT_OK


def cmd_audit(g, args) -> int:
    report = discharging.audit(g)
    if not report.hypothesis_ok:
        for reason in report.hypothesis_failures:
            print("hypothesis violated: %s" % reason)
        return EXIT_VIOLATION
    for v in report.violations:
        print("below-bound %s charge=%s bound=%s" % (_fmt_element(v.element),
                                                     v.final_charge, v.bound))
    c = report.configuration
    print("non-interfering %s roles=%s" % (c.kind, ",".join(str(v) for v in c.roles)))
    return EXIT_OK


def cmd_suite(args) -> int:
    spec = corpus.CorpusSpec(args.mode, n_max=args.n, seed=args.seed,
                             count=args.count, steps=args.steps)
    report = corpus.run_suite(spec)
    header = "%-10s %3s %5s %6s %5s %5s %4s" % ("name", "n", "alpha", "member",
                                                "size", "guar", "met")
    print(header)
    for r in report.rows:
        print("%-10s %3d %5s %6s %5d %5d %4s"
              % (r.name, r.n, r.alpha, r.member, r.solve_size, r.guarantee, r.met))
    print(json.dumps(report.summary()))
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trifree",
                                description="independent sets in planar triangle-free graphs")
    sub = p.add_subparsers(dest="command", required=True)
    # a string default goes through type=int, so argparse reports a bad value
    seed = os.environ.get("TRIFREE_SEED", "0")

    def add(name, fn, graph=True):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if graph:
            sp.add_argument("file")
        return sp

    add("validate", cmd_validate)
    sp = add("solve", cmd_solve)
    sp.add_argument("--trace", action="store_true")
    add("oracle", cmd_oracle)
    add("member", cmd_member)
    sp = add("gen-extremal", cmd_gen_extremal, graph=False)
    sp.add_argument("--steps", type=int, default=3)
    sp.add_argument("--seed", type=int, default=seed)
    sp = add("gen-random", cmd_gen_random, graph=False)
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=seed)
    sp = add("enumerate", cmd_enumerate, graph=False)
    sp.add_argument("--n", type=int, required=True)
    add("find-configs", cmd_find_configs)
    sp = add("discharge", cmd_discharge)
    sp.add_argument("--ledger", action="store_true")
    add("dangerous", cmd_dangerous)
    add("audit", cmd_audit)
    sp = add("suite", cmd_suite, graph=False)
    sp.add_argument("--mode", choices=("exhaustive", "random", "extremal"),
                    default="exhaustive")
    sp.add_argument("--n", type=int, default=7)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--steps", type=int, default=3)
    sp.add_argument("--seed", type=int, default=seed)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a graph command's file is read here, under the same handlers
        return args.fn(_read_graph(args.file), args) if "file" in args else args.fn(args)
    except (GraphError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as e:
        print("invariant failure: %s" % e, file=sys.stderr)
        return EXIT_VIOLATION
    except Exception as e:  # any other failure is a bug: one line, no traceback
        msg = " ".join(str(e).split())
        print("internal error: %s: %s" % (type(e).__name__, msg), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
