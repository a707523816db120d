"""Acceptance gate: one test per release criterion, one pass/fail line each."""
import math

from trifree import configurations as cf, corpus, discharging as dc
from trifree import extremal, reductions as rd, solver
from trifree.verify import is_independent_set

import oracles


def report(label, failures):
    status = "PASS" if not failures else "FAIL"
    line = "[%s] %s" % (status, label)
    if failures:
        line += " (%d failures; first: %s)" % (len(failures), failures[0])
    print(line, flush=True)
    assert not failures, line


def desk_corpus(corpus9, golden):
    named = [("n%d_%d" % (g.n, i), g) for i, g in enumerate(corpus9)]
    named += sorted(golden.items())
    return named


def outer_embedded(g):
    """The graph re-embedded on some (<=6)-cycle face, or None."""
    k = next((f for f in g.faces() if f.is_cycle() and f.length <= 6), None)
    return None if k is None else g.re_embed(k)


def test_criterion_01_extremal_tightness():
    failures = []
    for steps in range(10):
        g = extremal.generate_member(steps, seed=steps)
        alpha, _ = solver.exact_alpha(g)
        if 3 * alpha != g.n + 1:
            failures.append("steps=%d n=%d alpha=%d" % (steps, g.n, alpha))
    report("criterion 01: family members have alpha = (n+1)/3 exactly", failures)


def test_criterion_02_lower_bound(corpus9, golden):
    failures = []
    for name, g in desk_corpus(corpus9, golden):
        alpha, _ = solver.exact_alpha(g)
        if alpha < math.ceil((g.n + 1) / 3):
            failures.append("%s alpha=%d" % (name, alpha))
    report("criterion 02: alpha >= ceil((n+1)/3) on the full desk corpus", failures)


def test_criterion_03_dichotomy(corpus9, golden):
    failures = []
    for name, g in desk_corpus(corpus9, golden):
        alpha, _ = solver.exact_alpha(g)
        member = extremal.is_member(g).is_member
        below = alpha < math.ceil((g.n + 2) / 3)
        if below != member:
            failures.append("%s alpha=%d member=%s" % (name, alpha, member))
        elif member and 3 * alpha != g.n + 1:
            failures.append("%s member misses tight size" % name)
    report("criterion 03: alpha < ceil((n+2)/3) exactly on family members", failures)


def test_criterion_04_configuration_always_found(corpus9, golden):
    failures = []
    for name, g in desk_corpus(corpus9, golden):
        try:
            if cf.find_any(g) is None:
                failures.append(name)
        except Exception as e:  # noqa: BLE001 - any escape is a failure here
            failures.append("%s: %s" % (name, e))
    report("criterion 04: find_any returns a configuration on every graph", failures)


def test_criterion_05_reductions_sound(corpus9, golden):
    failures = []
    for name, g in desk_corpus(corpus9, golden):
        if g.n > 24:
            continue
        alpha_g, _ = solver.exact_alpha(g)
        for c in cf.find_all(g):
            if c.kind == "C5":
                c = cf.c5_to_c2(g, c)
            reduced, step = rd.reduce(g, c)
            tag = "%s %s%s" % (name, c.kind, c.roles)
            if not reduced.is_triangle_free():
                failures.append(tag + " triangle")
                continue
            if reduced.n < g.n - 3 * step.gain_k:
                failures.append(tag + " removed too many vertices")
                continue
            alpha_r, wit = solver.exact_alpha(reduced)
            if alpha_g < alpha_r + step.gain_k:
                failures.append(tag + " alpha gap")
                continue
            lifted = rd.lift(step, wit)
            if (len(lifted) != alpha_r + step.gain_k
                    or not is_independent_set(g, lifted)):
                failures.append(tag + " bad lift")
    report("criterion 05: every reduction shrinks within budget and lifts verify",
           failures)


def test_criterion_06_diamond_drop(corpus9, golden):
    failures = []
    for name, g in desk_corpus(corpus9, golden):
        diamonds = extremal.find_diamonds(g)
        if not diamonds:
            continue
        alpha_g, wit_g = solver.exact_alpha(g)
        for d in diamonds:
            reduced, step = oracles.diamond_reduce(g, d)
            alpha_r, wit = solver.exact_alpha(reduced)
            tag = "%s diamond %s" % (name, (d.u1, d.w, d.u2))
            if alpha_g != alpha_r + 1:
                failures.append(tag + " drop != 1")
                continue
            lifted = rd.lift(step, wit)
            if len(lifted) != alpha_g or not is_independent_set(g, lifted):
                failures.append(tag + " bad lift")
                continue
            projected = oracles.diamond_project(g, d, wit_g)
            if not is_independent_set(reduced, projected):
                failures.append(tag + " bad projection")
                continue
            back = rd.lift(step, projected)
            if len(back) != len(projected) + 1 or not is_independent_set(g, back):
                failures.append(tag + " round trip size")
    report("criterion 06: diamond replacement drops alpha by exactly one", failures)


def test_criterion_07_avoiding_sets():
    failures = []
    for steps in range(10):
        g = extremal.generate_member(steps, seed=steps)
        target = (g.n + 1) // 3
        for f in g.faces():
            if any(g.degree(v) <= 2 for v in f.vertex_set):
                continue
            s = oracles.recursive_avoiding_set(g, f)
            tag = "steps=%d face=%s" % (steps, f.vertex_walk())
            if len(s) != target:
                failures.append(tag + " size %d" % len(s))
            elif s & f.vertex_set:
                failures.append(tag + " touches face")
            elif not is_independent_set(g, s):
                failures.append(tag + " not independent")
    report("criterion 07: face-avoiding maximum sets on members up to n=32",
           failures)


def test_criterion_08_charge_conservation(corpus9):
    failures = []
    for i, g0 in enumerate(corpus9):
        g = outer_embedded(g0)
        if g is None:
            continue
        ledger = dc.apply_rules(g)
        tag = "n%d_%d" % (g.n, i)
        if ledger.total_initial() != -8 or ledger.total_final() != -8:
            failures.append(tag + " sum")
            continue
        key = ("f", g.outer_face)
        if ledger.final[key] != ledger.initial[key]:
            failures.append(tag + " outer face charged")
    report("criterion 08: discharging conserves the total charge of -8", failures)


def test_criterion_09_noninterfering_configuration(corpus9):
    failures = []
    audited = 0
    for i, g0 in enumerate(corpus9):
        g = outer_embedded(g0)
        if g is None:
            continue
        rep = dc.audit(g)
        if not rep.hypothesis_ok:
            continue
        audited += 1
        tag = "n%d_%d" % (g.n, i)
        if rep.configuration is None:
            failures.append(tag + " no configuration")
        elif cf.interferes(rep.configuration, g.outer_face):
            failures.append(tag + " interferes")
    if audited == 0:
        failures.append("no graph satisfied the hypotheses")
    report("criterion 09: hypothesis-satisfying graphs admit a non-interfering "
           "configuration (%d audited)" % audited, failures)


def test_criterion_10_solver_guarantee(corpus9, golden):
    failures = []
    for name, g in desk_corpus(corpus9, golden):
        res = solver.solve(g)
        if not res.met or not is_independent_set(g, res.independent_set):
            failures.append("%s size=%d guarantee=%d" % (name, res.size,
                                                         res.guarantee))
    report("criterion 10: solve meets its guarantee on 100%% of the corpus",
           failures)
