"""Reduction-chain lower-bound solver and the exact branch-and-bound oracle."""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import configurations, extremal, reductions, verify
from .extremal import _add_checked
from .plane_graph import GraphError, InternalInvariantError, PlaneGraph, Rotation

ORACLE_LIMIT = 40
EXACT_BASE = 8  # components at most this large are solved exactly


def exact_alpha(g: PlaneGraph):
    """Exact independence number with a witness, by branch and bound.

    Branches on a maximum-degree vertex; vertices of residual degree <= 1 are
    taken greedily, which is always safe.  Deterministic.  Reads only ``n``,
    ``vertices`` and ``neighbors``, so g may also be a ``Rotation``.
    """
    if g.n > ORACLE_LIMIT:
        raise GraphError("oracle limited to %d vertices" % ORACLE_LIMIT)
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in g.neighbors(v):
            adj[index[v]] |= 1 << index[u]
    best_size = -1
    best_mask = 0

    def go(avail: int, chosen: int, size: int):
        nonlocal best_size, best_mask
        while avail:
            if size + avail.bit_count() <= best_size:
                return
            pick = -1
            pick_deg = -1
            m = avail
            while m:
                b = m & -m
                i = b.bit_length() - 1
                m ^= b
                d = (adj[i] & avail).bit_count()
                if d <= 1:
                    # residual degree <= 1: taking i is never worse
                    avail &= ~(adj[i] | b)
                    chosen |= b
                    size += 1
                    pick = -2
                    break
                if d > pick_deg:
                    pick_deg = d
                    pick = i
            if pick == -2:
                continue
            b = 1 << pick
            go(avail & ~(adj[pick] | b), chosen | b, size + 1)
            avail &= ~b
        if size > best_size:
            best_size = size
            best_mask = chosen

    go((1 << len(verts)) - 1, 0, 0)
    witness = frozenset(v for v in verts if best_mask >> index[v] & 1)
    return best_size, witness


@dataclass(frozen=True)
class SolveResult:
    independent_set: frozenset
    trace: tuple
    guarantee: int
    met: bool

    @property
    def size(self) -> int:
        return len(self.independent_set)


def _component_graphs(g: PlaneGraph) -> list:
    """The components of g as plane graphs; a connected g is returned as is."""
    comps = g.components()
    if len(comps) == 1:
        return [g]
    return [PlaneGraph({v: g.rotation(v) for v in comp}, check=False) for comp in comps]


class _Piece(Rotation):
    """One connected component of the reduction chain, edited in place.

    ``low`` is a min-heap of the vertices whose degree was at most 2 when
    pushed, and ``ids`` a min-heap of all vertices; both drop deleted
    entries lazily.  C1 steps delete in place, keeping rotation order, so
    the graph a piece freezes to is the component with those vertices
    deleted.  ``frozen`` is that graph while the piece is unchanged.
    """

    __slots__ = ("low", "ids", "frozen")

    def __init__(self, rot, frozen=None):
        super().__init__(rot)
        self.low = sorted(v for v, ns in self.items() if len(ns) <= 2)
        self.ids = sorted(self)
        self.frozen = frozen

    def smallest(self) -> int:
        while self.ids[0] not in self:
            heapq.heappop(self.ids)
        return self.ids[0]

    def c1_vertex(self):
        """The vertex of ``find_c1(self.freeze())[0]``, or None."""
        while self.low and self.low[0] not in self:
            heapq.heappop(self.low)
        return self.low[0] if self.low else None

    def freeze(self) -> PlaneGraph:
        if self.frozen is None:
            self.frozen = PlaneGraph(self, check=False)
        return self.frozen

    def c1_step(self, v):
        """Delete N[v] for the C1 configuration at v by
        ``reductions.apply_reduction``; returns the step and the pieces left,
        ascending by smallest vertex."""
        if self.degree(v) > 2:
            raise InternalInvariantError("stale C1 configuration at %d (degree %d)"
                                         % (v, self.degree(v)))
        step, touched = reductions.apply_reduction(self, "C1", (v,))
        self.frozen = None
        for t in touched:
            if self.degree(t) <= 2:
                heapq.heappush(self.low, t)
        return step, self._split(sorted(touched))

    def _split(self, starts) -> list:
        """The pieces this one falls into, given that every vertex whose
        neighbours were deleted is in ``starts``.

        Floods from every start in lockstep, merging floods that meet, until
        at most one is still open.  A closed flood is a whole component and
        moves out to a piece of its own, so the cost follows the smaller
        sides, as in ``PlaneGraph.disk_subgraph``.
        """
        owner = {t: i for i, t in enumerate(starts)}
        root = list(range(len(starts)))
        todo = [[t] for t in starts]

        def find(i):
            while root[i] != i:
                i = root[i]
            return i

        live = root[:]
        while len(live) > 1:
            for i in live:
                if root[i] != i or not todo[i]:
                    continue
                for u in self[todo[i].pop()]:
                    j = owner.get(u)
                    if j is None:
                        owner[u] = i
                        todo[i].append(u)
                        continue
                    j = find(j)
                    if j != i:
                        root[j] = i
                        todo[i].extend(todo[j])
                        todo[j] = []
            live = [i for i in live if root[i] == i and todo[i]]
        roots = [i for i in range(len(starts)) if root[i] == i]
        if len(roots) <= 1:
            return [self]
        # the open flood, or if every flood closed any one of them, stays here
        stay = next((i for i in roots if todo[i]), roots[-1])
        groups = {i: [] for i in roots if i != stay}
        for x, i in owner.items():
            i = find(i)
            if i in groups:
                groups[i].append(x)
        pieces = [self] + [_Piece({x: self.pop(x) for x in xs}) for xs in groups.values()]
        return sorted(pieces, key=_Piece.smallest)


def _solve_set(comps: list):
    """(independent set, trace) of the graph with components ``comps``, by a
    loop over an explicit stack.

    A frame is (step, components of its reduced graph left to solve, union of
    their sets so far, C1 steps made on them); the bottom frame has no step.
    Components of more than ``EXACT_BASE`` vertices become pieces: C1 steps
    run on the piece in place, and only a C2-C5 step freezes it to a graph.
    Smaller components, graphs or pieces, go to ``exact_alpha`` as they are.
    A C2-C5 step pushes a frame, which lifts its union into the frame below
    by ``reductions.lift`` when it finishes.  A C1 step pushes none: its parts
    are solved next in the current frame, which records the step and, when it
    finishes, adds the step's vertex to its union in place, checked against
    the vertex's stored neighbourhood as ``lift`` checks it.  So no set is
    copied along a C1 chain.  The trace lists steps in pre-order.
    """
    trace = []
    stack = [(None, comps[::-1], set(), [])]
    while True:
        step, pending, found, c1_steps = stack[-1]
        if not pending:
            for c1 in c1_steps[::-1]:
                _add_checked(c1.neighborhoods, found, (c1.roles,), len(found) + 1)
            stack.pop()
            if step is None:
                return frozenset(found), tuple(trace)
            stack[-1][2].update(reductions.lift(step, found))
            continue
        comp = pending.pop()
        if comp.n <= EXACT_BASE:
            found.update(exact_alpha(comp)[1])
            continue
        if isinstance(comp, PlaneGraph):
            comp = _Piece(Rotation.of(comp), comp)
        v = comp.c1_vertex()
        if v is not None:
            step, parts = comp.c1_step(v)
        else:
            g = comp.freeze()
            c = configurations.find_any(g)
            if c.kind == "C5":
                c = configurations.c5_to_c2(g, c)
            reduced, step = reductions.reduce(g, c)
            parts = _component_graphs(reduced)
        trace.append(step)
        if step.kind == "C1":
            c1_steps.append(step)
            pending.extend(parts[::-1])
        else:
            stack.append((step, parts[::-1], set(), []))


def _component_guarantee(g: PlaneGraph) -> int:
    if extremal.is_member(g).is_member:
        return (g.n + 3) // 3   # ceil((n+1)/3)
    return (g.n + 4) // 3       # ceil((n+2)/3)


def solve(g: PlaneGraph) -> SolveResult:
    """Find a large independent set constructively and check the claimed bound."""
    if not g.is_triangle_free():
        raise GraphError("solver requires a triangle-free input")
    comps = _component_graphs(g)
    s, trace = _solve_set(comps)
    if not verify.is_independent_set(g, s):
        raise InternalInvariantError("solver output failed verification")
    guarantee = sum(_component_guarantee(comp) for comp in comps)
    return SolveResult(s, trace, guarantee, len(s) >= guarantee)


@dataclass(frozen=True)
class BoundReport:
    n: int
    alpha: int
    witness: frozenset
    member: bool
    lower_bound_ok: bool       # alpha >= (n+1)/3
    main_ok: bool              # alpha >= (n+2)/3 unless member

    @property
    def ok(self) -> bool:
        return self.lower_bound_ok and self.main_ok


def check_theorem_bounds(g: PlaneGraph) -> BoundReport:
    if not g.is_triangle_free():
        raise GraphError("bounds apply to triangle-free graphs only")
    alpha, witness = exact_alpha(g)
    member = extremal.is_member(g).is_member
    lower_ok = 3 * alpha >= g.n + 1
    main_ok = member or 3 * alpha >= g.n + 2
    return BoundReport(g.n, alpha, witness, member, lower_ok, main_ok)
