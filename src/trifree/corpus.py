"""Corpus generation: exhaustive small graphs, random instances, golden files."""
from __future__ import annotations

import bisect
import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import extremal, solver
from .plane_graph import (GraphError, InternalInvariantError, PlaneGraph, Rotation,
                          cycle_graph, parse)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

ENUM_LIMIT = 11


@dataclass(frozen=True)
class CorpusSpec:
    mode: str                  # exhaustive | random | extremal
    n_max: int = 9
    seed: int = 0
    count: int = 10
    steps: int = 3

    def __post_init__(self):
        if self.count < 0:
            raise GraphError("count must be non-negative")


def _colour_key(g) -> tuple:
    """The sorted vertex colours of networkx graph ``g`` after two rounds of
    colour refinement from the degrees: isomorphic graphs share the key."""
    col = {v: len(g[v]) for v in g}
    for _ in range(2):
        col = {v: (col[v], tuple(sorted(col[u] for u in g[v]))) for v in g}
    return tuple(sorted(col.values()))


def _iso_dedup_add(buckets, g) -> bool:
    """Add to the colour-keyed store unless an isomorphic copy is present."""
    import networkx as nx
    bucket = buckets.setdefault(_colour_key(g), [])
    for h in bucket:
        if nx.is_isomorphic(g, h):
            return False
    bucket.append(g)
    return True


@functools.cache
def _abstract_level(n: int) -> tuple:
    """Connected triangle-free planar graphs on n >= 1 vertices up to
    isomorphism, as (nx graph on 0..n-1, rotation on 1..n) pairs.

    Every connected graph arises by attaching a new vertex (nonempty
    neighborhood) to a connected graph one size down, so each level is grown
    from the cached level below and every ``n_max`` shares them.  Planarity
    is an isomorphism invariant, so only a candidate that opens a new class
    is tested, once, and a planar class keeps the embedding that test found.
    """
    import networkx as nx
    if n == 1:
        g1 = nx.Graph()
        g1.add_node(0)
        return ((g1, {1: ()}),)
    buckets = {}
    grown = []
    for g, _ in _abstract_level(n - 1):
        nodes = list(g.nodes)
        for r in range(1, n):
            for subset in itertools.combinations(nodes, r):
                # triangle-freeness: the new closed neighborhood must be independent
                if any(g.has_edge(a, b) for a, b in itertools.combinations(subset, 2)):
                    continue
                h = g.copy()
                h.add_node(n - 1)
                h.add_edges_from((n - 1, v) for v in subset)
                if not _iso_dedup_add(buckets, h):
                    continue
                planar, emb = nx.check_planarity(h, counterexample=False)
                if planar:
                    grown.append((h, {v + 1: tuple(u + 1 for u in ns)
                                      for v, ns in emb.get_data().items()}))
    return tuple(grown)


def enumerate_small(n_max: int):
    """All connected plane triangle-free graphs with <= n_max vertices, embedded."""
    if not 0 <= n_max <= ENUM_LIMIT:
        raise GraphError("exhaustive enumeration takes 0 to %d vertices" % ENUM_LIMIT)
    return [PlaneGraph(rot) for n in range(1, n_max + 1) for _, rot in _abstract_level(n)]


def _move_keys(keys, old, new):
    """Swap face keys ``old`` for ``new`` in the sorted list ``keys``."""
    for k in old:
        del keys[bisect.bisect_left(keys, k)]
    for k in new:
        bisect.insort(keys, k)


def gen_random(spec: CorpusSpec):
    """Seeded girth-preserving growth from C4; deterministic per seed.

    Each graph grows as one ``Rotation``: a step subdivides an edge, or
    inserts a vertex inside a face, joined to up to three boundary vertices
    that are distinct and pairwise non-adjacent, so no triangle can appear.
    Both edits keep the rotation symmetric, and an insertion inside a face
    cannot raise the genus, so the one validated build at the end rejects
    any bad step.  Between steps the sorted edge list and the sorted face
    keys (each face's smallest dart, so ``faces()`` order) are kept, and a
    step retraces only the faces it edits.
    """
    if spec.n_max < 4:
        raise GraphError("random graphs grow from C4: n must be at least 4")
    rng = random.Random(spec.seed)
    c4 = cycle_graph(4)
    out = []
    for _ in range(spec.count):
        rot = Rotation.of(c4)
        edges = sorted(tuple(sorted(e)) for e in c4.edges)
        keys = [f.darts[0] for f in c4.faces()]
        while len(rot) < spec.n_max:
            fresh = len(rot) + 1
            if rng.random() < 0.45:
                u, v = edges.pop(rng.randrange(len(edges)))
                old = {min(rot.face_darts((u, v))), min(rot.face_darts((v, u)))}
                rot[u][rot[u].index(v)] = fresh
                rot[v][rot[v].index(u)] = fresh
                rot[fresh] = [u, v]
                bisect.insort(edges, (u, fresh))
                bisect.insort(edges, (v, fresh))
                _move_keys(keys, old, {min(rot.face_darts((u, fresh))),
                                       min(rot.face_darts((v, fresh)))})
                continue
            key = keys[rng.randrange(len(keys))]
            walk = [d[0] for d in rot.face_darts(key)]
            idxs = list(range(len(walk)))
            rng.shuffle(idxs)
            picks = []
            for i in idxs:
                u = walk[i]
                if any(u == walk[j] or rot.has_edge(u, walk[j]) for j in picks):
                    continue
                picks.append(i)
                if len(picks) == 3:
                    break
            # the face lies left of its walk, so seen from the fresh vertex
            # inside it the picks come clockwise in reverse walk order
            picks.sort()
            for i in picks:
                ns = rot[walk[i]]
                ns.insert(ns.index(walk[i - 1]) + 1, fresh)
                bisect.insort(edges, (walk[i], fresh))
            rot[fresh] = [walk[i] for i in reversed(picks)]
            # each piece of the split face leaves the fresh vertex once
            _move_keys(keys, (key,), [min(rot.face_darts((fresh, u))) for u in rot[fresh]])
        g = rot.build()
        if [f.darts[0] for f in g.faces()] != keys:
            raise InternalInvariantError("random generator lost track of its faces")
        if not g.is_triangle_free():
            raise InternalInvariantError("random generator produced a triangle")
        out.append(g)
    return out


# -- golden corpus ---------------------------------------------------------------


def golden_names():
    """Names of the golden fixtures; an empty or missing directory is an error.

    ``GOLDEN_DIR`` ships as package data; an install that left it out would
    otherwise make every golden check pass vacuously.
    """
    names = sorted(p.stem for p in GOLDEN_DIR.glob("*.graph"))
    if not names:
        raise GraphError("no golden graphs found in %s" % GOLDEN_DIR)
    return names


def load_golden(name: str) -> PlaneGraph:
    return parse((GOLDEN_DIR / (name + ".graph")).read_text())


def golden_expectations() -> dict:
    return json.loads((GOLDEN_DIR / "expectations.json").read_text())


def golden_graphs():
    return {name: load_golden(name) for name in golden_names()}


# -- suite -------------------------------------------------------------------------


@dataclass
class SuiteRow:
    name: str
    n: int
    alpha: int | None
    member: bool
    solve_size: int
    guarantee: int
    met: bool
    lower_ok: bool | None
    main_ok: bool | None


@dataclass
class SuiteReport:
    rows: list = field(default_factory=list)

    @property
    def violations(self):
        return [r for r in self.rows
                if not r.met or r.lower_ok is False or r.main_ok is False]

    def summary(self) -> dict:
        return {
            "graphs": len(self.rows),
            "members": sum(1 for r in self.rows if r.member),
            "tight": sum(1 for r in self.rows
                         if r.alpha is not None and r.alpha < extremal.guarantee(r.n, False)),
            "met": sum(1 for r in self.rows if r.met),
            "violations": len(self.violations),
        }


def _spec_graphs(spec: CorpusSpec):
    if spec.mode == "exhaustive":
        return [("n%d_%d" % (g.n, i), g) for i, g in enumerate(enumerate_small(spec.n_max))]
    if spec.mode == "random":
        return [("rnd%d" % i, g) for i, g in enumerate(gen_random(spec))]
    if spec.mode == "extremal":
        return [("ext%d" % i, extremal.generate_member(spec.steps, spec.seed + i))
                for i in range(spec.count)]
    raise GraphError("unknown corpus mode %r" % spec.mode)


def run_suite(spec: CorpusSpec) -> SuiteReport:
    report = SuiteReport()
    for name, g in _spec_graphs(spec):
        res = solver.solve(g)
        if g.n <= solver.ORACLE_LIMIT:
            b = solver.check_theorem_bounds(g)
            alpha, member, lower_ok, main_ok = b.alpha, b.member, b.lower_bound_ok, b.main_ok
        else:
            member = extremal.is_member(g).is_member
            alpha = lower_ok = main_ok = None
        report.rows.append(SuiteRow(name, g.n, alpha, member, res.size,
                                    res.guarantee, res.met, lower_ok, main_ok))
    report.rows.sort(key=lambda r: (r.n, r.name))
    return report
