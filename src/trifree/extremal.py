"""The tight family built from C5 by repeated path-diamond replacements.

A diamond is a 5-cycle u1-z1-z2-u2-w with degrees (3, 2, 2, 3, 3), an apex
x1 adjacent to both u1 and u2, and x2 the third neighbor of w.  Replacing
the diamond by the path x1-v1-v2-x2 removes three vertices and drops the
independence number by exactly one.  The replacement and its inverse are
in-place edits of a ``Rotation`` that take their fresh ids from its id stack
(``Rotation.fresh_ids``), and each chain runs on one copy: membership
testing replaces the first diamond found down to C5 or P2, never
backtracking; the certificate replays that trace; the generator grows C5,
keeping its degree-2 paths in order, and builds once; the face-avoiding set
replaces the first diamond that spares the face, never backtracking either.
Both descents read their diamonds from one ``_DiamondIndex``: one
``find_diamonds`` scan, then a local search near each replacement, so a
chain costs about O(n log n) instead of one scan per step.
``diamond_reduce`` is copy, edit, one validated build.  ``diamond_lift(step,
s)``, for s independent in the reduced graph, checks what it adds against
the host neighbourhoods the degree pattern pins, a full host independence
check, and raises ``InternalInvariantError`` when it fails; the certificate
and the face-avoiding set lift into one mutable set with the same check.
``diamond_project`` goes the other way, from a host set to the reduced graph,
checked against the path's neighbourhoods without building that graph.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import operator
import random
from dataclasses import dataclass

from . import verify
from .plane_graph import (Face, GraphError, InternalInvariantError, PlaneGraph, Rotation,
                          cycle_graph)

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


def _check_diamond(g, d: Diamond) -> bool:
    """Whether d is a diamond of g: the degree pattern pins the
    neighbourhood of each cycle vertex."""
    u1, z1, z2, u2, w = c = d.cycle
    return (len(set(c)) == 5 and d.x1 not in c and d.x2 not in c
            and g.has_edge(d.x1, u1) and g.has_edge(d.x1, u2) and g.has_edge(d.x2, w)
            and all(map(g.has_vertex, c))
            and g.neighbors(u1) == {z1, w, d.x1} and g.neighbors(z1) == {u1, z2}
            and g.neighbors(z2) == {z1, u2} and g.neighbors(u2) == {z2, w, d.x1}
            and g.neighbors(w) == {u1, u2, d.x2})


def _diamonds_at(g, seeds):
    """The diamonds whose z1 is one of ``seeds``, each once (see
    ``find_diamonds``), as tuples of ``Diamond``'s fields."""
    for z1 in seeds:
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
                    yield (u1, z1, z2, u2, w, min(x1s), min(x2s))


def find_diamonds(g) -> list:
    """All diamonds, once up to the u1<->u2 / z1<->z2 reflection, sorted.

    The search is seeded from adjacent degree-2 pairs instead of 5-cycles.
    Every diamond contains the edge z1-z2 between two degree-2 vertices, and
    that ordered pair fixes the rest of the cycle: u1 and u2 are the other
    neighbors of z1 and z2, and w is a common neighbor of u1 and u2.  So
    trying each such pair and each w in N(u1) & N(u2) reaches every diamond,
    and each one from the single orientation with u1 < u2.  The five vertices
    are distinct by construction: z1, z2 have no further neighbors, u1 != u2,
    and a common neighbor of u1 and u2 is neither z1 nor z2.  This is the
    all-vertices case of the local search ``_DiamondIndex`` makes.
    """
    return [Diamond(*t) for t in sorted(_diamonds_at(g, g.vertices))]


_fields = operator.attrgetter(*Diamond.__dataclass_fields__)


class _DiamondIndex:
    """The diamonds of a graph under replacement, smallest first: a heap
    made from the graph's ``find_diamonds`` list, with lazy deletion.

    A diamond is one by the neighbourhoods of its 5-cycle alone, and a
    replacement changes neighbourhoods only at x1 and x2 and at the vertices
    it deletes or adds.  So ``replaced`` drops the diamonds whose cycle meets
    the deleted vertices, x1 or x2, and searches again only from the
    degree-2 vertices within distance 2 of x1, x2, v1 and v2: a new diamond's
    cycle holds one of those four, and z1 lies within two cycle steps of it.
    Cycle vertices have degree 2 or 3, so that walk never passes a vertex of
    higher degree.  Diamonds are kept as tuples of their fields, which
    compare fast; ``live`` maps each to the stamp of its one valid heap entry.
    """

    __slots__ = ("heap", "live", "at", "stamps")

    def __init__(self, diamonds):
        self.heap, self.live, self.at = [], {}, {}
        self.stamps = itertools.count()
        for d in diamonds:   # sorted, so each push is O(1)
            self._add(_fields(d))

    def _add(self, t: tuple) -> None:
        stamp = self.live[t] = next(self.stamps)
        heapq.heappush(self.heap, (t, stamp))
        for v in t[:5]:
            self.at.setdefault(v, []).append(t)

    def first(self, qualifies=None):
        """The smallest live diamond that ``qualifies`` (any, if None), or
        None; the live diamonds passed over stay."""
        heap, skipped, found = self.heap, [], None
        while heap and found is None:
            t, stamp = heap[0]
            if self.live.get(t) != stamp:
                heapq.heappop(heap)
            elif qualifies is None or qualifies(Diamond(*t)):
                found = Diamond(*t)
            else:
                skipped.append(heapq.heappop(heap))
        for entry in skipped:
            heapq.heappush(heap, entry)
        return found

    def replaced(self, h: Rotation, step: DiamondStep) -> None:
        """Update the index after ``step`` was made on ``h``."""
        d = step.diamond
        for v in d.cycle + (d.x1, d.x2):
            for t in self.at.pop(v, ()):
                self.live.pop(t, None)
        near = {v for v in (d.x1, d.x2, step.v1, step.v2) if len(h[v]) <= 3}
        ring = near
        for _ in range(2):
            ring = {u for v in ring for u in h[v] if len(h[u]) <= 3} - near
            near |= ring
        for t in _diamonds_at(h, [v for v in near if len(h[v]) == 2]):
            if t not in self.live:
                self._add(t)


def replace_diamond_with_path(rot: Rotation, d: Diamond) -> DiamondStep:
    """Replace the diamond by the path x1-v1-v2-x2 in ``rot``, in place;
    returns the step.  v1 takes u1's slot at x1 (u2 is dropped) and v2 takes
    w's slot at x2: the host minus z1, z2, u2 with its path x1-u1-w-x2
    renamed, so still plane.  The degree pattern pins every cycle-vertex
    neighbor, so only the rotations at x1 and x2 mention removed vertices."""
    if not _check_diamond(rot, d):
        raise GraphError("not a diamond of this graph: %r" % (d,))
    v1, v2 = rot.fresh_ids(2)
    for v in d.cycle:
        del rot[v]
    rot[d.x2][rot[d.x2].index(d.w)] = v2
    rot[d.x1].remove(d.u2)
    rot[d.x1][rot[d.x1].index(d.u1)] = v1
    rot[v1] = [d.x1, v2]
    rot[v2] = [v1, d.x2]
    return DiamondStep(d, v1, v2)


def diamond_reduce(g: PlaneGraph, d: Diamond):
    """Replace a diamond by a path on a copy of g; returns (reduced graph, step)."""
    rot = Rotation.of(g)
    step = replace_diamond_with_path(rot, d)
    return rot.build(), step


def _add_checked(neighborhoods, s: set, candidates, size: int) -> None:
    """Add to ``s``, in place, the first candidate of new vertices that brings
    it to exactly ``size`` vertices with no added vertex having a stored
    neighbour in the result, else raise ``InternalInvariantError``.  Every
    lift is checked here: ``reductions.lift``, the diamond lifts,
    ``diamond_project`` and the solver's C1 steps."""
    reasons = []
    for added in candidates:
        if not s.isdisjoint(added) or len(s) + len(set(added)) != size:
            reasons.append("size %d != %d" % (len(s.union(added)), size))
            continue
        s.update(added)
        bad = next(((a, b) for a in sorted(added)
                    for b in sorted(s.intersection(neighborhoods[a]))), None)
        if bad is None:
            return
        s.difference_update(added)
        reasons.append("violating edge %r" % (bad,))
    raise InternalInvariantError("lift failed verification: %s" % "; ".join(reasons))


def _lift_into(step: DiamondStep, s: set) -> None:
    """``diamond_lift`` in place on ``s``."""
    d = step.diamond
    added = [d.z2] + [x for v, x in ((step.v1, d.u1), (step.v2, d.w)) if v in s]
    size = len(s) + 1
    s.difference_update((step.v1, step.v2))
    nbhd = {d.u1: (d.z1, d.w, d.x1), d.w: (d.u1, d.u2, d.x2), d.z2: (d.z1, d.u2)}
    _add_checked(nbhd, s, (added,), size)


def diamond_lift(step: DiamondStep, s_reduced) -> frozenset:
    """Lift ``s_reduced``, independent in the reduced graph, to the host: v1
    and v2 go back to u1 and w, and z2 is added.  The lift is checked against
    the host neighbourhoods the degree pattern pins, N(u1) = {z1, w, x1},
    N(w) = {u1, u2, x2} and N(z2) = {z1, u2}, and must gain exactly one
    vertex, else ``InternalInvariantError``.  Every host edge between kept
    vertices is a reduced edge, so this is a full host independence check."""
    s = set(s_reduced)
    _lift_into(step, s)
    return frozenset(s)


def _augment_maximal(g: PlaneGraph, s) -> set:
    s = set(s)
    for v in g.vertices:
        if v not in s and not (g.neighbors(v) & s):
            s.add(v)
    return s


def diamond_project(g: PlaneGraph, d: Diamond, s) -> frozenset:
    """Project an independent set onto the path-reduced graph, in the ids
    ``diamond_reduce(g, d)`` gives, losing one vertex; a set that is not
    independent in g raises ``GraphError``.  No graph is built: every reduced
    edge between kept vertices is a host edge, so checking v1 and v2 against
    their reduced neighbourhoods {x1, v2} and {v1, x2} checks the result."""
    if not _check_diamond(g, d):
        raise GraphError("not a diamond of this graph: %r" % (d,))
    bad = verify.violating_edge(g, s)
    if bad is not None:
        raise GraphError("not an independent set of this graph: %r" % (bad,))
    s = _augment_maximal(g, s)
    u1, z1, z2, u2, w = d.u1, d.z1, d.z2, d.u2, d.w
    if u1 in s and u2 in s:
        s.discard(u2)
        s.add(z2)
    if z2 not in s:
        if z1 not in s:
            raise InternalInvariantError("maximal set misses both degree-2 vertices")
        # mirror the diamond so the proof's normalization z2 in S applies
        u1, u2 = u2, u1
        z1, z2 = z2, z1
    v1 = g.max_vertex_id() + 1
    v2 = v1 + 1
    out = s - {u1, z1, z2, u2, w}
    _add_checked({v1: (d.x1, v2), v2: (v1, d.x2)}, out,
                 ([v for v, x in ((v1, u1), (v2, w)) if x in s],), len(s) - 1)
    return frozenset(out)


def path_diamond_replacement(rot: Rotation, path) -> Diamond:
    """Exact inverse edit, in place: grow a path x1-v1-v2-x2 of ``rot`` into a
    diamond u1, z1, z2, u2, w = max id + 1..5, drawn along the path: u1 and u2
    replace v1 at x1, w replaces v2 at x2, and u1-z1-z2-u2 lies inside the
    4-cycle x1-u1-w-u2.  Returns the diamond."""
    x1, v1, v2, x2 = path
    for a, b in ((x1, v1), (v1, v2), (v2, x2)):
        if not (rot.has_vertex(a) and rot.has_edge(a, b)):
            raise GraphError("not a path of this graph: %r" % (path,))
    if rot.degree(v1) != 2 or rot.degree(v2) != 2:
        raise GraphError("path interior must have degree 2: %r" % (path,))
    u1, z1, z2, u2, w = rot.fresh_ids(5)
    del rot[v1], rot[v2]
    rot[x2][rot[x2].index(v2)] = w
    i = rot[x1].index(v1)
    rot[x1][i:i + 1] = [u1, u2]
    rot.update({u1: [x1, w, z1], u2: [x1, z2, w], w: [u2, u1, x2], z1: [u1, z2], z2: [z1, u2]})
    return Diamond(u1, z1, z2, u2, w, x1, x2)


def _paths_at(g, vs):
    """The paths x1-v1-v2-x2, v1 < v2 both of degree 2, with v1 or v2 in
    ``vs``; a path through two of them comes twice."""
    for a in vs:
        if g.degree(a) != 2:
            continue
        for b in g.neighbors(a):
            if g.degree(b) == 2:
                v1, v2 = min(a, b), max(a, b)
                (x1,) = g.neighbors(v1) - {v2}
                (x2,) = g.neighbors(v2) - {v1}
                if x1 != x2:
                    yield (x1, v1, v2, x2)


_interior = operator.itemgetter(1, 2)


def _degree2_paths(g) -> list:
    """All paths x1-v1-v2-x2 with both interior vertices of degree 2, by
    (v1, v2) with v1 < v2; a pair has one path."""
    return sorted(set(_paths_at(g, g.vertices)), key=_interior)


def is_member(g: PlaneGraph) -> MembershipTrace:
    """Decide family membership by replacing the first diamond until C5 or P2.

    No choice is ever undone.  A member is triangle-free, so each of its
    diamonds has x1 != x2, and replacing one leaves a connected, plane,
    triangle-free graph with three fewer vertices and independence number one
    less (the diamond lemma).  That graph is tight again, and by the theorem
    every connected planar triangle-free graph with alpha < (n+2)/3 is a
    member.  Hence the first diamond found is as good as any, and a graph
    that reaches a dead end was never a member.  The descent edits one copy
    of g, made at the first replacement, and checks connectivity on g only:
    a replacement keeps a connected graph connected.  Its diamonds come from
    one ``_DiamondIndex`` of g.
    """
    steps, h, index = [], g, None
    while True:
        if h.n == 2 and h.m == 1:   # never a copy: a replacement leaves n >= 5
            return MembershipTrace(tuple(steps), P2)
        # a simple 2-regular graph on five vertices is one 5-cycle
        if h.n == 5 and all(h.degree(v) == 2 for v in h.vertices):
            return MembershipTrace(tuple(steps), C5)
        if h.n < 5 or h.n % 3 != 2 or (h is g and not g.is_connected()):
            break
        if index is None:
            diamonds = find_diamonds(g)
            if not diamonds:
                break
            index = _DiamondIndex(diamonds)
        else:   # only a descent that goes on needs the index after its last step
            index.replaced(h, steps[-1])
        d = index.first()
        if d is None:
            break
        if h is g:
            h = Rotation.of(g)
        steps.append(replace_diamond_with_path(h, d))
    return MembershipTrace((), NOT_MEMBER)


def generate_member(steps: int, seed) -> PlaneGraph:
    """A random family member with 5 + 3*steps vertices; deterministic per seed.

    Each step grows a path picked by ``rng.choice`` from the degree-2 paths
    in ``_degree2_paths`` order.  That list is kept sorted across steps: a
    growth changes neighbourhoods only at x1, x2 and the path and diamond
    vertices, so the paths through x1, v1, v2, x2 leave it and those through
    x1, x2, z1, z2 enter."""
    if steps < 0:
        raise GraphError("steps must be non-negative")
    rng = random.Random(seed)
    rot = Rotation.of(cycle_graph(5))
    paths = _degree2_paths(rot)
    for _ in range(steps):
        if not paths:
            raise InternalInvariantError("member lost all degree-2 paths")
        path = rng.choice(paths)
        for p in set(_paths_at(rot, path)):
            del paths[bisect.bisect_left(paths, _interior(p), key=_interior)]
        d = path_diamond_replacement(rot, path)
        for p in set(_paths_at(rot, (d.x1, d.x2, d.z1, d.z2))):
            bisect.insort(paths, p, key=_interior)
    # replacements leave gaps in the label range; restore vertices 1..n
    new = {v: i + 1 for i, v in enumerate(sorted(rot))}
    return Rotation({new[v]: [new[u] for u in ns] for v, ns in rot.items()}).build()


def _replay(g: PlaneGraph, trace: MembershipTrace) -> Rotation:
    """The terminal graph of the trace, replayed on one copy of g."""
    h = Rotation.of(g)
    for step in trace.steps:
        if replace_diamond_with_path(h, step.diamond) != step:
            raise GraphError("trace does not replay on this graph")
    return h


def _terminal_set(g, terminal: str) -> frozenset:
    vs = g.vertices
    if terminal == P2:
        return frozenset((vs[0],))
    for a, b in itertools.combinations(vs, 2):
        if not g.has_edge(a, b):
            return frozenset((a, b))
    raise GraphError("terminal graph is not a 5-cycle")


def member_max_independent_set(g: PlaneGraph, trace: MembershipTrace) -> frozenset:
    """An independent set of the exact extremal size (n+1)/3, built by
    lifting the terminal's set through the trace into one set, in place."""
    if not trace.is_member:
        raise GraphError("trace does not certify membership")
    s = set(_terminal_set(_replay(g, trace), trace.terminal))
    for step in reversed(trace.steps):
        _lift_into(step, s)
    bad = verify.violating_edge(g, s)
    if bad is not None:
        raise InternalInvariantError("lifted set is not independent: %r" % (bad,))
    if 3 * len(s) != g.n + 1:
        raise InternalInvariantError("lifted set has size %d != (n+1)/3" % len(s))
    return frozenset(s)


def avoiding_independent_set(g: PlaneGraph, f: Face) -> frozenset:
    """Maximum independent set of a family member avoiding all of V(f).

    Precondition: g is a family member and f is a face not incident with any
    vertex of degree at most two.  One descent on one copy of g, as in
    ``is_member``: while n > 11, replace the first diamond whose 5-cycle
    misses V(f) and whose x1 is not a face vertex of degree 3; solve the
    rest exactly; lift back into one set.  Nothing is undone: the
    replacement leaves a member (the diamond lemma), touches f's vertices
    only by lowering x1's degree, and changes no rotation step of f's walk,
    so f stays a face with degrees at least 3.  A dead end means g was not a
    qualifying member: ``GraphError`` if ``is_member`` rejects g, else
    ``InternalInvariantError``.
    """
    from .solver import exact_alpha
    face = g.find_face(f.vertex_walk())
    if face is None:
        raise GraphError("not a face of this graph: %r" % (f,))
    fv = face.vertex_set
    if any(g.degree(v) <= 2 for v in fv):
        raise GraphError("face is incident with a vertex of degree at most two")
    size = (g.n + 1) // 3
    steps, h, index = [], Rotation.of(g), _DiamondIndex(find_diamonds(g))

    def qualifies(d):
        return fv.isdisjoint(d.cycle) and not (d.x1 in fv and h.degree(d.x1) <= 3)

    while h.n > 11:
        if steps:
            index.replaced(h, steps[-1])
        d = index.first(qualifies)
        if d is None:
            break
        steps.append(replace_diamond_with_path(h, d))
    want, s = size - len(steps), None
    if h.n <= 11:
        alpha, witness = exact_alpha(Rotation((v, [u for u in ns if u not in fv])
                                              for v, ns in h.items() if v not in fv))
        if alpha >= want:   # any subset of an independent set is one
            s = set(sorted(witness)[:want])
    if s is None:
        if not is_member(g).is_member:
            raise GraphError("input is not a family member")
        raise InternalInvariantError("no avoiding set found for a family member")
    for step in reversed(steps):
        _lift_into(step, s)
    bad = verify.violating_edge(g, s)
    if bad is not None:
        raise InternalInvariantError("avoiding set is not independent: %r" % (bad,))
    if s & fv or len(s) != size:
        raise InternalInvariantError("avoiding set violates its contract")
    return frozenset(s)
