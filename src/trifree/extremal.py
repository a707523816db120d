"""The tight family built from C5 by repeated path-diamond replacements.

A diamond is a 5-cycle u1-z1-z2-u2-w with degrees (3, 2, 2, 3, 3), an apex
x1 adjacent to both u1 and u2, and x2 the third neighbor of w.  Replacing
the diamond by the path x1-v1-v2-x2 removes three vertices and drops the
independence number by exactly one.  Both that replacement and its inverse
derive the one rotation system the embedding determines and make a single
validated build.  Membership testing replaces the first diamond found, step
by step, down to C5 or P2 and never backtracks; the constructive maximum-set
routines lift sets back up through those steps.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import verify
from .plane_graph import Face, GraphError, InternalInvariantError, PlaneGraph, cycle_graph

P2 = "P2"
C5 = "C5"
NOT_MEMBER = "NOT_MEMBER"


@dataclass(frozen=True, order=True)
class Diamond:
    u1: int
    z1: int
    z2: int
    u2: int
    w: int
    x1: int
    x2: int

    @property
    def cycle(self) -> tuple:
        return (self.u1, self.z1, self.z2, self.u2, self.w)


@dataclass(frozen=True)
class DiamondStep:
    """A diamond replaced by the path x1-v1-v2-x2 (x1, x2 from the diamond)."""
    diamond: Diamond
    v1: int
    v2: int

    def serialize(self) -> str:
        d = self.diamond
        return "replace %d %d %d %d %d -> path %d %d %d %d" % (
            d.u1, d.z1, d.z2, d.u2, d.w, d.x1, self.v1, self.v2, d.x2)


@dataclass(frozen=True)
class MembershipTrace:
    steps: tuple
    terminal: str

    @property
    def is_member(self) -> bool:
        return self.terminal in (P2, C5)

    def serialize(self) -> str:
        lines = [s.serialize() for s in self.steps]
        lines.append("terminal %s" % self.terminal)
        return "\n".join(lines) + "\n"


def _check_diamond(g: PlaneGraph, d: Diamond) -> bool:
    c = d.cycle
    if len(set(c)) != 5 or d.x1 in c or d.x2 in c:
        return False
    if not all(g.has_vertex(v) for v in c + (d.x1, d.x2)):
        return False
    for i in range(5):
        if not g.has_edge(c[i], c[(i + 1) % 5]):
            return False
    if not (g.has_edge(d.x1, d.u1) and g.has_edge(d.x1, d.u2) and g.has_edge(d.x2, d.w)):
        return False
    degs = (g.degree(d.u1), g.degree(d.z1), g.degree(d.z2), g.degree(d.u2), g.degree(d.w))
    return degs == (3, 2, 2, 3, 3)


def find_diamonds(g: PlaneGraph) -> list:
    """All diamonds, once up to the u1<->u2 / z1<->z2 reflection.

    The search is seeded from adjacent degree-2 pairs instead of 5-cycles.
    Every diamond contains the edge z1-z2 between two degree-2 vertices, and
    that ordered pair fixes the rest of the cycle: u1 and u2 are the other
    neighbors of z1 and z2, and w is a common neighbor of u1 and u2.  So
    trying each such pair and each w in N(u1) & N(u2) reaches every diamond,
    and each one from the single orientation with u1 < u2.  The five vertices
    are distinct by construction: z1, z2 have no further neighbors, u1 != u2,
    and a common neighbor of u1 and u2 is neither z1 nor z2.
    """
    out = set()
    for z1 in g.vertices:
        if g.degree(z1) != 2:
            continue
        for z2 in g.neighbors(z1):
            if g.degree(z2) != 2:
                continue
            (u1,) = g.neighbors(z1) - {z2}
            (u2,) = g.neighbors(z2) - {z1}
            if u2 <= u1 or g.degree(u1) != 3 or g.degree(u2) != 3:
                continue
            for w in g.neighbors(u1) & g.neighbors(u2):
                if g.degree(w) != 3:
                    continue
                cset = {u1, z1, z2, u2, w}
                x1s = g.neighbors(u1) - cset
                x2s = g.neighbors(w) - cset
                if len(x1s) == 1 and x1s == g.neighbors(u2) - cset and len(x2s) == 1:
                    out.add(Diamond(u1, z1, z2, u2, w, min(x1s), min(x2s)))
    return sorted(out)


def _splice(rot, old, new):
    """Replace one entry of a rotation tuple by a sequence."""
    i = rot.index(old)
    return rot[:i] + tuple(new) + rot[i + 1:]


def replace_diamond_with_path(g: PlaneGraph, d: Diamond) -> PlaneGraph:
    """Delete the diamond's five cycle vertices, add the path x1-v1-v2-x2.

    v1 takes u1's slot at x1 (u2 is dropped) and v2 takes w's slot at x2: the
    host minus z1, z2, u2 with its path x1-u1-w-x2 renamed, so still plane.
    """
    if not _check_diamond(g, d):
        raise GraphError("not a diamond of this graph: %r" % (d,))
    v1 = g.max_vertex_id() + 1
    v2 = v1 + 1
    removed = set(d.cycle)
    # the diamond's degree pattern pins every cycle-vertex neighbor, so only
    # the rotations at x1 and x2 mention removed vertices
    rot = {v: g.rotation(v) for v in g.vertices if v not in removed}
    rot[d.x2] = _splice(rot[d.x2], d.w, (v2,))
    rot[d.x1] = _splice(tuple(u for u in rot[d.x1] if u != d.u2), d.u1, (v1,))
    rot[v1] = (d.x1, v2)
    rot[v2] = (v1, d.x2)
    try:
        return PlaneGraph(rot)
    except GraphError as e:
        raise InternalInvariantError("diamond removal broke the embedding: %s" % e) from None


def diamond_reduce(g: PlaneGraph, d: Diamond):
    """Replace a diamond by a path; returns (reduced graph, step)."""
    reduced = replace_diamond_with_path(g, d)
    v1 = g.max_vertex_id() + 1
    return reduced, DiamondStep(d, v1, v1 + 1)


def diamond_lift(host: PlaneGraph, step: DiamondStep, s_reduced) -> frozenset:
    """Independent set of the host with one more vertex, verified against it."""
    d = step.diamond
    before = frozenset(s_reduced)
    s = set(before)
    if step.v1 in s:
        s.discard(step.v1)
        s.add(d.u1)
    if step.v2 in s:
        s.discard(step.v2)
        s.add(d.w)
    s.add(d.z2)
    bad = verify.violating_edge(host, s)
    if bad is not None:
        raise InternalInvariantError("diamond lift produced dependent pair %r" % (bad,))
    if len(s) != len(before) + 1:
        raise InternalInvariantError("diamond lift did not gain exactly one vertex")
    return frozenset(s)


def path_diamond_replacement(g: PlaneGraph, path) -> PlaneGraph:
    """Exact inverse construction: grow a path x1-v1-v2-x2 into a diamond."""
    x1, v1, v2, x2 = path
    for a, b in ((x1, v1), (v1, v2), (v2, x2)):
        if not (g.has_vertex(a) and g.has_edge(a, b)):
            raise GraphError("not a path of this graph: %r" % (path,))
    if g.degree(v1) != 2 or g.degree(v2) != 2:
        raise GraphError("path interior must have degree 2: %r" % (path,))
    base_id = g.max_vertex_id()
    u1, z1, z2, u2, w = range(base_id + 1, base_id + 6)
    # the diamond drawn along the path: u1 and u2 replace v1 at x1, w replaces
    # v2 at x2, and u1-z1-z2-u2 is drawn inside the 4-cycle x1-u1-w-u2
    rot = {v: g.rotation(v) for v in g.vertices if v not in (v1, v2)}
    rot[x2] = _splice(rot[x2], v2, (w,))
    rot[x1] = _splice(rot[x1], v1, (u1, u2))
    rot[u1] = (x1, w, z1)
    rot[u2] = (x1, z2, w)
    rot[w] = (u2, u1, x2)
    rot[z1] = (u1, z2)
    rot[z2] = (z1, u2)
    try:
        return PlaneGraph(rot)
    except GraphError as e:
        raise InternalInvariantError("diamond insertion broke the embedding: %s" % e) from None


def _degree2_paths(g: PlaneGraph) -> list:
    """All paths x1-v1-v2-x2 with both interior vertices of degree 2."""
    out = []
    for v1 in g.vertices:
        if g.degree(v1) != 2:
            continue
        for v2 in sorted(g.neighbors(v1)):
            if v2 < v1 or g.degree(v2) != 2:
                continue
            for x1 in sorted(g.neighbors(v1) - {v2}):
                for x2 in sorted(g.neighbors(v2) - {v1}):
                    if x1 != x2:
                        out.append((x1, v1, v2, x2))
    return out


def is_member(g: PlaneGraph) -> MembershipTrace:
    """Decide family membership by replacing the first diamond until C5 or P2.

    No choice is ever undone.  A member is triangle-free, so each of its
    diamonds has x1 != x2, and replacing one leaves a connected, plane,
    triangle-free graph with three fewer vertices and independence number one
    less (the diamond lemma).  That graph is tight again, and by the theorem
    every connected planar triangle-free graph with alpha < (n+2)/3 is a
    member.  Hence the first diamond found is as good as any, and a graph
    that reaches a dead end was never a member.
    """
    steps = []
    h = g
    while True:
        if h.n == 2 and h.m == 1:
            return MembershipTrace(tuple(steps), P2)
        # a simple 2-regular graph on five vertices is one 5-cycle
        if h.n == 5 and all(h.degree(v) == 2 for v in h.vertices):
            return MembershipTrace(tuple(steps), C5)
        if h.n < 5 or h.n % 3 != 2 or not h.is_connected():
            break
        diamonds = find_diamonds(h)
        if not diamonds:
            break
        h, step = diamond_reduce(h, diamonds[0])
        steps.append(step)
    return MembershipTrace((), NOT_MEMBER)


def generate_member(steps: int, seed) -> PlaneGraph:
    """A random family member with 5 + 3*steps vertices; deterministic per seed."""
    if steps < 0:
        raise GraphError("steps must be non-negative")
    rng = random.Random(seed)
    g = cycle_graph(5)
    for _ in range(steps):
        paths = _degree2_paths(g)
        if not paths:
            raise InternalInvariantError("member lost all degree-2 paths")
        g = path_diamond_replacement(g, rng.choice(paths))
    # replacements leave gaps in the label range; restore vertices 1..n
    return g.relabel({v: i + 1 for i, v in enumerate(sorted(g.vertices))})


def _replay(g: PlaneGraph, trace: MembershipTrace) -> list:
    """Graphs along the trace, from g down to the terminal."""
    graphs = [g]
    for step in trace.steps:
        nxt, replayed = diamond_reduce(graphs[-1], step.diamond)
        if replayed != step:
            raise GraphError("trace does not replay on this graph")
        graphs.append(nxt)
    return graphs


def _terminal_set(g: PlaneGraph, terminal: str) -> frozenset:
    vs = g.vertices
    if terminal == P2:
        return frozenset((vs[0],))
    for a, b in itertools.combinations(vs, 2):
        if not g.has_edge(a, b):
            return frozenset((a, b))
    raise GraphError("terminal graph is not a 5-cycle")


def member_max_independent_set(g: PlaneGraph, trace: MembershipTrace) -> frozenset:
    """An independent set of the exact extremal size (n+1)/3, built by lifting."""
    if not trace.is_member:
        raise GraphError("trace does not certify membership")
    graphs = _replay(g, trace)
    s = _terminal_set(graphs[-1], trace.terminal)
    for step, host in zip(reversed(trace.steps), reversed(graphs[:-1])):
        s = diamond_lift(host, step, s)
    if 3 * len(s) != g.n + 1:
        raise InternalInvariantError("lifted set has size %d != (n+1)/3" % len(s))
    return s


def _exact_avoiding(g: PlaneGraph, avoid: frozenset, size: int):
    """Brute-force base case: independent set of given size avoiding ``avoid``."""
    from .solver import exact_alpha
    sub = g.delete_vertices(avoid)
    alpha, witness = exact_alpha(sub)
    if alpha < size:
        return None
    if alpha == size:
        return witness
    # trim a larger witness greedily; any subset of an independent set works
    return frozenset(sorted(witness)[:size])


def avoiding_independent_set(g: PlaneGraph, f: Face) -> frozenset:
    """Maximum independent set of a family member avoiding all of V(f).

    Precondition: g is a family member and f is a face not incident with any
    vertex of degree at most two.
    """
    if any(g.degree(v) <= 2 for v in f.vertex_set):
        raise GraphError("face is incident with a vertex of degree at most two")
    size = (g.n + 1) // 3

    def recurse(h: PlaneGraph, face, want: int):
        fv = face.vertex_set
        if h.n <= 11:
            return _exact_avoiding(h, fv, want)
        for d in find_diamonds(h):
            if set(d.cycle) & fv:
                continue  # replacement would delete a face vertex
            if d.x1 in fv and h.degree(d.x1) <= 3:
                continue  # replacement would drop a face vertex to degree 2
            reduced, step = diamond_reduce(h, d)
            new_face = reduced.find_face(face.vertex_walk())
            if new_face is None or new_face.darts != face.darts:
                continue
            sub = recurse(reduced, new_face, want - 1)
            if sub is not None:
                return diamond_lift(h, step, sub)
        return None

    face = g.find_face(f.vertex_walk())
    if face is None:
        raise GraphError("not a face of this graph: %r" % (f,))
    s = recurse(g, face, size)
    if s is None:
        raise InternalInvariantError(
            "no avoiding set found; input is not a qualifying family member")
    bad = verify.violating_edge(g, s)
    if bad is not None:
        raise InternalInvariantError("avoiding set is not independent: %r" % (bad,))
    if s & face.vertex_set or len(s) != size:
        raise InternalInvariantError("avoiding set violates its contract")
    return frozenset(s)
