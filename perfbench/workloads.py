"""The benchmark's workloads: seeded inputs, the ops run on them, and their checks.

Every workload is a closed loop with one caller: an op starts when the
previous one returns.  A *pass* runs every op of the workload once, in a
fixed order; the runner repeats whole passes, so every pass does the same
work and latency medians are taken over the same mix of inputs.  A
workload's ``makers(seed)`` are zero-argument callables that each build a
list of inputs, so set-up can be timed input by input.

The checks here re-derive every claim from the input rotations and never
call ``trifree.verify``, so a bug shared by the solver and its verifier
still shows.  They run outside the timed and traced regions.
"""
from __future__ import annotations

import functools
import random
import sys
from collections import Counter

from trifree import corpus, discharging, extremal, solver
from trifree.plane_graph import PlaneGraph

# n = 5 + 3 * steps: members of 125, 170, 215, 260 and 305 vertices
MEMBER_STEPS = (40, 55, 70, 85, 100)
# square grids and C_2k x P_m cylinders (bipartite, min degree 3)
GRIDS = ((12, 12), (15, 15))
CYLINDERS = ((6, 30), (8, 25))
RANDOM_SIZES = (150, 170, 190, 210)
ENUM_N = 8
ENUM_COUNTS = {1: 1, 2: 1, 3: 1, 4: 3, 5: 6, 6: 18, 7: 55, 8: 230}
# interference roles per configuration kind, as stated in the configuration
# module's docstring; re-stated here so the check does not reuse that code
INTERFERING_ROLES = {"C1": (0,), "C2": (0, 2, 3), "C3": (0, 2),
                     "C4": tuple(range(9)), "C5": (0, 1)}


class Graph:
    """An input graph with a private copy of its rotations for the checks."""

    def __init__(self, name, g: PlaneGraph, outer=None, expected=None):
        self.name = name
        self.expected = expected    # golden expectations, if any
        self.g = g
        self.n = g.n
        self.rot = {v: tuple(g.rotation(v)) for v in g.vertices}
        self.outer = outer          # g re-embedded with a designated outer face

    def key(self):
        outer = self.outer.outer_face.vertex_walk() if self.outer is not None else None
        return (self.name, tuple(sorted(self.rot.items())), outer)


# -- checks --------------------------------------------------------------------


def dependent_pair(rot, s):
    """An edge inside ``s`` (or a vertex outside the graph), or None."""
    for v in s:
        if v not in rot:
            return (v, v)
    for v in s:
        for u in rot[v]:
            if u in s:
                return (v, u)
    return None


def solve_problems(item, res, member, alpha=None):
    """Problems with a SolveResult; ``member`` is the expected membership."""
    out = []
    s = res.independent_set
    bad = dependent_pair(item.rot, s)
    if bad is not None:
        out.append("solve set not independent: %r" % (bad,))
    expected = (item.n + 3) // 3 if member else (item.n + 4) // 3
    if res.guarantee != expected:
        out.append("guarantee %d != %d (member=%s)" % (res.guarantee, expected, member))
    if not res.met or len(s) < res.guarantee:
        out.append("guarantee not met: |S|=%d < %d" % (len(s), res.guarantee))
    if alpha is not None and len(s) > alpha:
        out.append("solve size %d exceeds exact alpha %d" % (len(s), alpha))
    return out


def member_problems(item, result, member):
    trace, cert = result
    if trace.is_member != member:
        return ["is_member=%s, expected %s" % (trace.is_member, member)]
    if not member:
        return []
    out = []
    if 3 * len(cert) != item.n + 1:
        out.append("certificate size %d != (n+1)/3" % len(cert))
    bad = dependent_pair(item.rot, cert)
    if bad is not None:
        out.append("certificate not independent: %r" % (bad,))
    return out


def audit_problems(item, rep):
    if not rep.hypothesis_ok:
        return [] if rep.hypothesis_failures and rep.configuration is None else [
            "failed hypotheses reported inconsistently"]
    out = []
    c = rep.configuration
    if c is None:
        return ["hypotheses hold but no configuration returned"]
    outer = set(item.outer.outer_face.vertex_walk())
    roles = INTERFERING_ROLES.get(c.kind)
    if roles is None or len(c.roles) <= max(roles):
        return ["malformed configuration %r" % (c,)]
    if any(v not in item.rot for v in c.roles):
        out.append("configuration %r names a vertex outside the graph" % (c,))
    if {c.roles[i] for i in roles} & outer:
        out.append("configuration %r interferes with the outer face" % (c,))
    total = sum(rep.ledger.final.values())
    if total != -8:
        out.append("final charges sum to %s, not -8" % total)
    return out


def alpha_problems(item, result):
    alpha, witness = result
    out = []
    if len(witness) != alpha:
        out.append("witness size %d != alpha %d" % (len(witness), alpha))
    bad = dependent_pair(item.rot, witness)
    if bad is not None:
        out.append("alpha witness not independent: %r" % (bad,))
    if 3 * alpha < item.n + 1:
        out.append("alpha %d below (n+1)/3" % alpha)
    return out


# digest summaries: sizes, trace lengths and step kinds, plus the sets
# themselves, so a changed choice of set shows even when its size does not


def _solve_summary(res):
    kinds = "".join(step.kind[1] for step in res.trace)
    return ("solve", len(res.independent_set), res.guarantee, len(res.trace), kinds,
            tuple(sorted(res.independent_set)))


def _member_summary(result):
    trace, cert = result
    return ("member", trace.terminal, len(trace.steps), len(cert), tuple(sorted(cert)))


def _audit_summary(rep):
    config = rep.configuration
    return ("audit", rep.hypothesis_ok, len(rep.hypothesis_failures), len(rep.violations),
            (config.kind, config.roles) if config is not None else None)


# -- ops -------------------------------------------------------------------------


def _member_op(g):
    trace = extremal.is_member(g)
    cert = extremal.member_max_independent_set(g, trace) if trace.is_member else frozenset()
    return trace, cert


def run_solve(rec, item, member, alpha=None):
    res = rec.op("solve", item, lambda: solver.solve(item.g),
                 lambda r: (solve_problems(item, r, member, alpha), _solve_summary(r)))
    if res is not None:
        rec.solved(res)
    return res


def run_member(rec, item, member):
    return rec.op("member", item, lambda: _member_op(item.g),
                  lambda r: (member_problems(item, r, member), _member_summary(r)))


def run_audit(rec, item):
    return rec.op("audit", item, lambda: discharging.audit(item.outer),
                  lambda r: (audit_problems(item, r), _audit_summary(r)))


def run_alpha(rec, item):
    return rec.op("alpha", item, lambda: solver.exact_alpha(item.g),
                  lambda r: (alpha_problems(item, r),
                             ("alpha", r[0], tuple(sorted(r[1])))))


def designate_outer(g: PlaneGraph):
    """g re-embedded with its longest simple face of length <= 6 as outer."""
    faces = [f for f in g.faces() if f.is_cycle() and f.length <= 6]
    if not faces:
        return None
    return g.re_embed(max(faces, key=lambda f: f.length))


def grid(rows, cols) -> PlaneGraph:
    """The rows x cols square grid."""
    def vid(i, j):
        return i * cols + j + 1
    rot = {}
    for i in range(rows):
        for j in range(cols):
            rot[vid(i, j)] = tuple(vid(i + di, j + dj)
                                   for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0))
                                   if 0 <= i + di < rows and 0 <= j + dj < cols)
    return PlaneGraph(rot)


def cylinder(k, m) -> PlaneGraph:
    """C_k x P_m: m concentric k-cycles, consecutive ones joined by a matching."""
    def vid(i, j):
        return i * k + j % k + 1
    rot = {}
    for i in range(m):
        for j in range(k):
            ns = [vid(i, j + 1)]
            if i + 1 < m:
                ns.append(vid(i + 1, j))
            ns.append(vid(i, j - 1))
            if i > 0:
                ns.append(vid(i - 1, j))
            rot[vid(i, j)] = tuple(ns)
    return PlaneGraph(rot)


def random_graph(n, seed) -> PlaneGraph:
    spec = corpus.CorpusSpec("random", n_max=n, seed=seed, count=1)
    return corpus.gen_random(spec)[0]


# -- workloads ---------------------------------------------------------------------


class Members:
    """Seeded extremal-family members: membership decided positively, then solve."""

    name = "members"

    def makers(self, seed):
        return [functools.partial(self._member, steps, seed * 100 + i)
                for i, steps in enumerate(MEMBER_STEPS)]

    @staticmethod
    def _member(steps, seed):
        g = extremal.generate_member(steps, seed)
        return [Graph("member%d" % g.n, g)]

    def setup_checks(self, rec, items):
        for item, steps in zip(items, MEMBER_STEPS):
            rec.checked("setup " + item.name,
                        [] if item.n == 5 + 3 * steps else ["member has %d vertices" % item.n])

    def run_pass(self, rec, items, seed):
        for item in items:
            run_member(rec, item, True)
            run_solve(rec, item, True)


class Grids:
    """Non-members: grids, cylinders and seeded random graphs; solve, then audit."""

    name = "grids"

    def makers(self, seed):
        makers = [functools.partial(self._with_outer, "grid%dx%d" % rc, grid, *rc)
                  for rc in GRIDS]
        makers += [functools.partial(self._with_outer, "cyl%dx%d" % km, cylinder, *km)
                   for km in CYLINDERS]
        makers += [functools.partial(self._with_outer, "random%d" % n, random_graph,
                                     n, seed * 100 + i)
                   for i, n in enumerate(RANDOM_SIZES)]
        return makers

    @staticmethod
    def _with_outer(name, build, *args):
        item = Graph(name, build(*args))
        item.outer = designate_outer(item.g)
        return [item]

    def setup_checks(self, rec, items):
        for item in items:
            problems = []
            if item.outer is None:
                problems.append("no simple face of length <= 6")
            if extremal.is_member(item.g).is_member:
                problems.append("grid input certifies as a family member")
            rec.checked("setup " + item.name, problems)

    def run_pass(self, rec, items, seed):
        for item in items:
            run_solve(rec, item, False)
            run_audit(rec, item)


def clear_trifree_caches():
    """Empty every functools cache held at module level by trifree.

    A user's ``trifree enumerate`` starts from a fresh process, so each pass
    measures a cold enumeration.
    """
    for modname, mod in list(sys.modules.items()):
        if modname == "trifree" or modname.startswith("trifree."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Corpus:
    """Exhaustive n <= 8 enumeration plus every op on every graph, and the golden set."""

    name = "corpus"

    def makers(self, seed):
        return [self._golden]

    @staticmethod
    def _golden():
        expectations = corpus.golden_expectations()
        golden = corpus.golden_graphs()
        return [Graph(name, g, g if g.outer_face is not None else None, expectations[name])
                for name, g in sorted(golden.items())]

    def setup_checks(self, rec, golden):
        for item in golden:
            exp = item.expected
            problems = ["%s: %s=%r, expected %r" % (item.name, key, got, exp[key])
                        for key, got in (("n", item.n), ("m", item.g.m)) if got != exp[key]]
            if "dangerous_count" in exp:
                found = len(discharging.dangerous_cycles(item.g))
                if found != exp["dangerous_count"]:
                    problems.append("%s: %d dangerous cycles, expected %d"
                                    % (item.name, found, exp["dangerous_count"]))
            rec.checked("golden " + item.name, problems)

    def _graph_ops(self, rec, item, expected_alpha=None, expected_member=None):
        res = run_alpha(rec, item)
        alpha = res[0] if res is not None else None
        if expected_alpha is not None:
            rec.checked("golden alpha " + item.name,
                        [] if alpha == expected_alpha else
                        ["alpha %r, expected %d" % (alpha, expected_alpha)])
        if expected_member is None:
            # the theorem's dichotomy: members are exactly the tight graphs
            expected_member = alpha is not None and 3 * alpha == item.n + 1
        run_member(rec, item, expected_member)
        run_solve(rec, item, expected_member, alpha)

    def run_pass(self, rec, golden, seed):
        clear_trifree_caches()
        graphs = rec.op("enumerate", None, lambda: corpus.enumerate_small(ENUM_N),
                        self._enumeration_check,
                        n_of=lambda gs: sum(g.n for g in gs))
        if graphs is None:
            return
        order = list(range(len(graphs)))
        random.Random(seed).shuffle(order)
        for i in order:
            g = graphs[i]
            item = Graph("n%d_%d" % (g.n, i), g)
            self._graph_ops(rec, item)
            for f in g.faces():
                if f.is_cycle() and f.length <= 6:
                    item.outer = g.re_embed(f)
                    run_audit(rec, item)
        for item in golden:
            self._graph_ops(rec, item, item.expected["alpha"], item.expected["member"])
            if item.outer is not None:
                run_audit(rec, item)

    @staticmethod
    def _enumeration_check(graphs):
        counts = Counter(g.n for g in graphs)
        problems = []
        if dict(counts) != ENUM_COUNTS:
            problems.append("per-n counts %s, expected %s"
                            % (sorted(counts.items()), sorted(ENUM_COUNTS.items())))
        for g in graphs:
            if not g.is_connected() or not g.is_triangle_free():
                problems.append("enumerated graph is disconnected or has a triangle")
                break
        return problems, ("enumerate", tuple(sorted(counts.items())))


WORKLOADS = {w.name: w for w in (Members(), Grids(), Corpus())}
