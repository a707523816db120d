"""Reduction-chain lower-bound solver and the exact branch-and-bound oracle.

``solve`` reduces its pieces in place down to ``exact_alpha`` base cases and
ends, as every chain does, in ``extremal._lift_back``.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import configurations, extremal, reductions
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
    return [PlaneGraph({v: g.rotation(v) for v in comp}) for comp in comps]


class _Piece(Rotation):
    """One connected component of the reduction chain, edited in place.

    ``low`` is a min-heap of the vertices whose degree was at most 2 when
    pushed, and ``ids`` a min-heap of all vertices; ``_top`` pops deleted
    entries when they reach the top, and no step raises a degree.
    ``frozen`` is the piece as a ``PlaneGraph`` while the piece is unchanged.
    """

    __slots__ = ("low", "ids", "frozen")

    def __init__(self, rot, frozen=None):
        super().__init__(rot)
        self.low = sorted(v for v, ns in self.items() if len(ns) <= 2)
        self.ids = sorted(self)
        self.frozen = frozen

    def _top(self, heap):
        """The smallest entry of ``heap`` that is still a vertex, or None."""
        while heap and heap[0] not in self:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def smallest(self) -> int:
        return self._top(self.ids)

    def c1_vertex(self):
        """The vertex of ``find_c1(self.freeze())[0]``, or None."""
        return self._top(self.low)

    def freeze(self) -> PlaneGraph:
        if self.frozen is None:
            self.frozen = self.build()
        return self.frozen

    def reduce(self, kind, roles, z):
        """Reduce ``(kind, roles)`` in place by ``reductions.apply_reduction``,
        naming a contraction's fresh vertex z; returns the step and the pieces
        left, ascending by smallest vertex.  Every step but C1 ends, as
        ``reductions.reduce`` does, in a validated build."""
        if kind == "C1" and self.degree(roles[0]) > 2:
            raise InternalInvariantError("stale C1 configuration at %d (degree %d)"
                                         % (roles[0], self.degree(roles[0])))
        step, touched = reductions.apply_reduction(self, kind, roles, z)
        built = None if kind == "C1" else self.build()
        if step.identified:
            heapq.heappush(self.ids, z)
        for t in touched:
            if self.degree(t) <= 2:
                heapq.heappush(self.low, t)
        parts = self._split(sorted(touched))
        self.frozen = built if len(parts) == 1 else None
        return step, parts

    def _split(self, starts) -> list:
        """The pieces this one falls into, given that every vertex whose
        neighbours were deleted is in ``starts``.

        Floods from every start in lockstep, merging floods that meet, until
        at most one is still open.  A closed flood is a whole component and
        moves out to a piece of its own, so the cost follows the smaller sides.
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


def _solve_set(comps: list, z: int):
    """(base-case set, trace) of the graph with components ``comps``, by one
    loop over a stack of pieces.

    Components of more than ``EXACT_BASE`` vertices become pieces, and each
    step reduces its piece in place and splits it; a piece is frozen to a
    graph only for ``find_any``, when it has no vertex of degree at most 2.
    Smaller components go to ``exact_alpha`` as they are, into one set, and
    ``solve`` lifts that set back through the pre-order trace in reverse, so
    every step's reduced graph is lifted before the step.  Pieces share no
    vertex, and the i-th contraction's fresh vertex is ``z + i``, z above
    every input id, so one set serves every piece.  ``find_any`` tries C2
    before C5, and every C5 comes with a C2, so it never returns a C5 here.
    """
    trace, found = [], set()
    pending = comps[::-1]
    while pending:
        piece = pending.pop()
        if piece.n <= EXACT_BASE:
            found.update(exact_alpha(piece)[1])
            continue
        if isinstance(piece, PlaneGraph):
            piece = _Piece(Rotation.of(piece), piece)
        v = piece.c1_vertex()
        if v is not None:
            kind, roles = "C1", (v,)
        else:
            c = configurations.find_any(piece.freeze())
            kind, roles = c.kind, c.roles
        step, parts = piece.reduce(kind, roles, z)
        if step.identified:
            z += 1
        trace.append(step)
        pending.extend(parts[::-1])
    return found, tuple(trace)


def _component_guarantee(g: PlaneGraph) -> int:
    if extremal.is_member(g).is_member:
        return (g.n + 3) // 3   # ceil((n+1)/3)
    return (g.n + 4) // 3       # ceil((n+2)/3)


def solve(g: PlaneGraph) -> SolveResult:
    """Find a large independent set constructively and check the claimed bound."""
    if not g.is_triangle_free():
        raise GraphError("solver requires a triangle-free input")
    comps = _component_graphs(g)
    found, trace = _solve_set(comps, g.max_vertex_id() + 1)
    s = extremal._lift_back(g, trace, found)
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


def check_theorem_bounds(g: PlaneGraph) -> BoundReport:
    if not g.is_triangle_free():
        raise GraphError("bounds apply to triangle-free graphs only")
    alpha, witness = exact_alpha(g)
    member = extremal.is_member(g).is_member
    lower_ok = 3 * alpha >= g.n + 1
    main_ok = member or 3 * alpha >= g.n + 2
    return BoundReport(g.n, alpha, witness, member, lower_ok, main_ok)
