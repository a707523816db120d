"""The tight family built from C5 by repeated path-diamond replacements.

A diamond is a 5-cycle u1-z1-z2-u2-w with degrees (3, 2, 2, 3, 3), an apex
x1 adjacent to both u1 and u2, and x2 the third neighbor of w.  Replacing
the diamond by the path x1-v1-v2-x2 removes three vertices and drops the
independence number by exactly one.  The replacement and its inverse are
in-place edits of a ``Rotation`` whose fresh ids the caller names, as
``solve`` names its contractions: each chain numbers its ids on from its
input's largest id and runs on one copy.  Membership testing and its
certificate are one descent, ``_descend``, that replaces the diamond its
caller picks, never backtracking: membership the first one, down to C5 or
P2 as ``_terminal`` tells; the certificate the trace's, ending where the
trace says.  The generator grows C5, keeping its adjacent degree-2 pairs
in order, and builds once.  The descent reads its diamonds from one
min-heap, an entry checked when it reaches the top, so it gives no stale
diamond: one ``find_diamonds`` scan, then a local search near each
replacement that holds every diamond the replacement makes, so none is
missed and a chain costs about O(n log n) instead of one scan per step.
The certificate's terminal set is ``exact_alpha``'s witness, as at the
base of every other chain.  ``DiamondStep.lift_into(s)``, for s
independent in the reduced graph, checks what it adds against the host
neighbourhoods the degree pattern pins, a full host independence check,
and raises ``InternalInvariantError`` when it fails; ``reductions.lift``
is its copying form.  Every chain ends in ``_lift_back``: one set lifted
back through the steps, then checked against the chain's input.
"""
from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass
from typing import NamedTuple

from . import verify
from .plane_graph import GraphError, InternalInvariantError, PlaneGraph, Rotation, cycle_graph

P2 = "P2"
C5 = "C5"
NOT_MEMBER = "NOT_MEMBER"


class Diamond(NamedTuple):
    u1: int
    z1: int
    z2: int
    u2: int
    w: int
    x1: int
    x2: int

    @property
    def cycle(self) -> tuple:
        return self[:5]


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

    def lift_into(self, s: set) -> None:
        """Lift ``s``, independent in the reduced graph, to the host, in
        place: v1 and v2 go back to u1 and w, and z2 is added.  The lift is
        checked against the host neighbourhoods the degree pattern pins,
        N(u1) = {z1, w, x1}, N(w) = {u1, u2, x2} and N(z2) = {z1, u2}, and
        must gain exactly one vertex, else ``InternalInvariantError``.  Every
        host edge between kept vertices is a reduced edge, so this is a full
        host independence check."""
        d = self.diamond
        added = [d.z2] + [x for v, x in ((self.v1, d.u1), (self.v2, d.w)) if v in s]
        size = len(s) + 1
        s.difference_update((self.v1, self.v2))
        nbhd = {d.u1: (d.z1, d.w, d.x1), d.w: (d.u1, d.u2, d.x2), d.z2: (d.z1, d.u2)}
        _add_checked(nbhd, s, (added,), size)


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


def _check_diamond(g, u1, z1, z2, u2, w, x1, x2) -> bool:
    """Whether the seven fields are a diamond of g: the degree pattern pins
    the neighbourhood of each cycle vertex."""
    c = (u1, z1, z2, u2, w)
    return (len(set(c)) == 5 and x1 not in c and x2 not in c
            and g.has_edge(x1, u1) and g.has_edge(x1, u2) and g.has_edge(x2, w)
            and all(map(g.has_vertex, c))
            and g.neighbors(u1) == {z1, w, x1} and g.neighbors(z1) == {u1, z2}
            and g.neighbors(z2) == {z1, u2} and g.neighbors(u2) == {z2, w, x1}
            and g.neighbors(w) == {u1, u2, x2})


def _diamonds_at(g, seeds):
    """The diamonds whose z1 is one of ``seeds``, each once (see
    ``find_diamonds``)."""
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
                    yield Diamond(u1, z1, z2, u2, w, min(x1s), min(x2s))


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
    all-vertices case of the local search ``_descend`` makes.
    """
    return sorted(_diamonds_at(g, g.vertices))


def _fresh(rot: Rotation, first: int, k: int) -> range:
    """The k ids from ``first`` on; one in use raises ``GraphError``."""
    ids = range(first, first + k)
    if any(map(rot.__contains__, ids)):
        raise GraphError("an id of %d..%d is in use" % (first, first + k - 1))
    return ids


def replace_diamond_with_path(rot: Rotation, d: Diamond, v1: int) -> DiamondStep:
    """Replace the diamond by the path x1-v1-v2-x2 in ``rot``, in place;
    returns the step.  The caller names v1, and v2 is v1 + 1; an id in use
    raises ``GraphError`` before any edit.  v1 takes u1's slot at x1 (u2 is
    dropped) and v2 takes w's slot at x2: the host minus z1, z2, u2 with its
    path x1-u1-w-x2 renamed, so still plane.  The degree pattern pins every
    cycle-vertex neighbor, so only the rotations at x1 and x2 mention removed
    vertices."""
    if not _check_diamond(rot, *d):
        raise GraphError("not a diamond of this graph: %r" % (d,))
    v1, v2 = _fresh(rot, v1, 2)
    for v in d.cycle:
        del rot[v]
    rot[d.x2][rot[d.x2].index(d.w)] = v2
    rot[d.x1].remove(d.u2)
    rot[d.x1][rot[d.x1].index(d.u1)] = v1
    rot[v1] = [d.x1, v2]
    rot[v2] = [v1, d.x2]
    return DiamondStep(d, v1, v2)


def _add_checked(neighborhoods, s: set, candidates, size: int) -> None:
    """Add to ``s``, in place, the first candidate of new vertices that brings
    it to exactly ``size`` vertices with no added vertex having a stored
    neighbour in the result, else raise ``InternalInvariantError``.  Every
    lift is checked here, by both step kinds' ``lift_into``."""
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


def _lift_back(g, steps, s: set) -> frozenset:
    """Lift ``s`` back through ``steps``, a chain that started at g, in
    reverse and in place, each step by its own ``lift_into``; then check the
    result against g itself, since each lift checks only what it adds.  This
    ends every chain: ``solve`` and the certificate."""
    for step in reversed(steps):
        step.lift_into(s)
    bad = verify.violating_edge(g, s)
    if bad is not None:
        raise InternalInvariantError("lifted set is not independent in the input: %r" % (bad,))
    return frozenset(s)


def path_diamond_replacement(rot: Rotation, path, u1: int) -> Diamond:
    """Exact inverse edit, in place: grow a path x1-v1-v2-x2 of ``rot`` into a
    diamond u1, z1, z2, u2, w = u1..u1 + 4, drawn along the path: u1 and u2
    replace v1 at x1, w replaces v2 at x2, and u1-z1-z2-u2 lies inside the
    4-cycle x1-u1-w-u2.  The caller names u1; an id in use raises
    ``GraphError`` before any edit.  Returns the diamond."""
    x1, v1, v2, x2 = path
    for a, b in ((x1, v1), (v1, v2), (v2, x2)):
        if not (rot.has_vertex(a) and rot.has_edge(a, b)):
            raise GraphError("not a path of this graph: %r" % (path,))
    if rot.degree(v1) != 2 or rot.degree(v2) != 2:
        raise GraphError("path interior must have degree 2: %r" % (path,))
    u1, z1, z2, u2, w = _fresh(rot, u1, 5)
    del rot[v1], rot[v2]
    rot[x2][rot[x2].index(v2)] = w
    i = rot[x1].index(v1)
    rot[x1][i:i + 1] = [u1, u2]
    rot.update({u1: [x1, w, z1], u2: [x1, z2, w], w: [u2, u1, x2], z1: [u1, z2], z2: [z1, u2]})
    return Diamond(u1, z1, z2, u2, w, x1, x2)


def _pairs_at(rot, vs) -> set:
    """The adjacent degree-2 pairs (v1, v2), v1 < v2, with v1 or v2 in ``vs``."""
    return {(min(a, b), max(a, b)) for a in vs if len(rot[a]) == 2
            for b in rot[a] if len(rot[b]) == 2}


def _descend(g, pick):
    """The one diamond descent; returns (h, steps), the graph it reached and
    its steps.  Each step replaces the diamond ``pick(h, steps, first)``
    names, until it names None; ``first()`` is the smallest diamond of h, or
    None.  Nothing is undone.  The steps edit one copy of g, made at the
    first replacement, and step i names its path m + 1 + 2i, m + 2 + 2i, for
    m the largest id of g.

    ``first`` reads one min-heap of ``Diamond``s, which compare as plain
    tuples: the ``find_diamonds`` scan at its first call, then after each
    step what ``_diamonds_at`` finds from the degree-2 vertices within
    distance 2 of x1, x2, v1 and v2.  An entry at the top is popped unless
    ``_check_diamond`` accepts it on h now, so ``first`` gives only diamonds.
    A diamond is one by its cycle's neighbourhoods alone, and a replacement
    changes them only at x1, x2 and the vertices it deletes or adds; so a
    diamond it makes or restores has one of x1, x2, v1, v2 on its cycle and
    z1 within two steps of it along vertices of degree 2 or 3, and none is
    missed.  An entry pushed twice is harmless.
    """
    steps, h, heap, m = [], g, None, g.max_vertex_id()

    def first():
        nonlocal heap
        if heap is None:
            heap = find_diamonds(h)   # sorted, so a heap
        while heap and not _check_diamond(h, *heap[0]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    while (d := pick(h, steps, first)) is not None:
        if h is g:
            h = Rotation.of(g)
        steps.append(step := replace_diamond_with_path(h, d, m + 1 + 2 * len(steps)))
        if heap is not None:
            near = {v for v in (d.x1, d.x2, step.v1, step.v2) if len(h[v]) <= 3}
            ring = near
            for _ in range(2):
                ring = {u for v in ring for u in h[v] if len(h[u]) <= 3} - near
                near |= ring
            for new in _diamonds_at(h, [v for v in near if len(h[v]) == 2]):
                heapq.heappush(heap, new)
    return h, steps


def _terminal(h) -> str:
    """P2 or C5 if h is that graph, else NOT_MEMBER."""
    if h.n == 2 and h.has_edge(*h.vertices):
        return P2
    # a simple 2-regular graph on five vertices is one 5-cycle
    if h.n == 5 and all(h.degree(v) == 2 for v in h.vertices):
        return C5
    return NOT_MEMBER


def is_member(g: PlaneGraph) -> MembershipTrace:
    """Decide family membership by replacing the first diamond until C5 or P2.

    A member has 3m = 5n - 10 unless it is P2, since C5 has it and each
    replacement removes 3 vertices and 5 edges; a graph of n >= 5 without it
    is rejected before any diamond scan.  Otherwise ``_descend`` replaces the
    first diamond while n > 5, and ``_terminal`` judges where it stops.  No
    choice is ever undone.  A member is triangle-free, so each of its
    diamonds has x1 != x2, and replacing one leaves a connected, plane,
    triangle-free graph with three fewer vertices and independence number one
    less (the diamond lemma).  That graph is tight again, and by the theorem
    every connected planar triangle-free graph with alpha < (n+2)/3 is a
    member.  Hence the first diamond found is as good as any, and a graph
    that reaches a dead end was never a member.  No connectivity scan is
    needed: a replacement edits one component and keeps x1, x2, v1 and v2 in
    it, so the number of components never changes, and both terminals are
    connected, so a disconnected g ends ``NOT_MEMBER``.
    """
    if g.n >= 5 and 3 * g.m != 5 * g.n - 10:
        return MembershipTrace((), NOT_MEMBER)
    h, steps = _descend(g, lambda h, steps, first: first() if h.n > 5 else None)
    terminal = _terminal(h)
    return MembershipTrace(tuple(steps) if terminal != NOT_MEMBER else (), terminal)


def generate_member(steps: int, seed) -> PlaneGraph:
    """A random family member with 5 + 3*steps vertices; deterministic per seed.

    Each step grows the path x1-v1-v2-x2 through a pair (v1, v2) that
    ``rng.choice`` picks from the sorted adjacent degree-2 pairs.  That list
    is kept sorted across steps: a growth changes neighbourhoods only at x1,
    x2 and the path and diamond vertices, so the pairs at x1, v1, v2, x2 leave
    it and those at x1, x2, z1, z2 enter.  A member is triangle-free, so x1
    and x2 differ.  Step i names its diamond 6 + 5i..10 + 5i, above every id
    of C5 and of the steps before."""
    if steps < 0:
        raise GraphError("steps must be non-negative")
    rng = random.Random(seed)
    rot = Rotation.of(cycle_graph(5))
    pairs = sorted(_pairs_at(rot, rot))
    for i in range(steps):
        if not pairs:
            raise InternalInvariantError("member lost all degree-2 pairs")
        v1, v2 = rng.choice(pairs)
        (x1,) = rot.neighbors(v1) - {v2}
        (x2,) = rot.neighbors(v2) - {v1}
        path = (x1, v1, v2, x2)
        for p in _pairs_at(rot, path):
            del pairs[bisect.bisect_left(pairs, p)]
        d = path_diamond_replacement(rot, path, 6 + 5 * i)
        for p in _pairs_at(rot, (d.x1, d.x2, d.z1, d.z2)):
            bisect.insort(pairs, p)
    # replacements leave gaps in the label range; restore vertices 1..n
    new = {v: i + 1 for i, v in enumerate(sorted(rot))}
    return Rotation({new[v]: [new[u] for u in ns] for v, ns in rot.items()}).build()


def member_max_independent_set(g: PlaneGraph, trace: MembershipTrace) -> frozenset:
    """An independent set of the exact extremal size (n+1)/3.  The trace is
    replayed by ``_descend``; it must make the trace's steps and end in the
    trace's terminal, else ``GraphError``.  The terminal's ``exact_alpha``
    witness is then lifted back by ``_lift_back``."""
    from .solver import exact_alpha
    if not trace.is_member:
        raise GraphError("trace does not certify membership")
    want = trace.steps
    h, steps = _descend(g, lambda h, steps, first:
                        want[len(steps)].diamond if len(steps) < len(want) else None)
    if tuple(steps) != want or _terminal(h) != trace.terminal:
        raise GraphError("trace does not replay to %s on this graph" % trace.terminal)
    s = _lift_back(g, steps, set(exact_alpha(h)[1]))
    if 3 * len(s) != g.n + 1:
        raise InternalInvariantError("lifted set has size %d != (n+1)/3" % len(s))
    return s
