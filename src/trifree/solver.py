"""Reduction-chain lower-bound solver and the exact branch-and-bound oracle."""
from __future__ import annotations

from dataclasses import dataclass

from . import configurations, extremal, reductions, verify
from .plane_graph import GraphError, PlaneGraph

ORACLE_LIMIT = 40
EXACT_BASE = 8  # components at most this large are solved exactly


def exact_alpha(g: PlaneGraph):
    """Exact independence number with a witness, by branch and bound.

    Branches on a maximum-degree vertex; vertices of residual degree <= 1 are
    taken greedily, which is always safe.  Deterministic.
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


def _solve_set(g: PlaneGraph):
    """(independent set, trace) of g, by a loop over an explicit stack.

    A frame is (step, components of its reduced graph left to solve, union of
    their sets so far); the bottom frame has no step.  A finished frame lifts
    its union into the frame below, and the trace lists steps in pre-order.
    """
    trace = []
    stack = [(None, _component_graphs(g)[::-1], set())]
    while True:
        step, pending, found = stack[-1]
        if not pending:
            stack.pop()
            if step is None:
                return frozenset(found), tuple(trace)
            stack[-1][2].update(reductions.lift(step, frozenset(found)))
            continue
        comp = pending.pop()
        if comp.n <= EXACT_BASE:
            found.update(exact_alpha(comp)[1])
            continue
        c = configurations.find_any(comp)
        if c.kind == "C5":
            c = configurations.c5_to_c2(comp, c)
        reduced, step = reductions.reduce(comp, c)
        trace.append(step)
        stack.append((step, _component_graphs(reduced)[::-1], set()))


def _component_guarantee(g: PlaneGraph) -> int:
    if extremal.is_member(g).is_member:
        return (g.n + 3) // 3   # ceil((n+1)/3)
    return (g.n + 4) // 3       # ceil((n+2)/3)


def solve(g: PlaneGraph) -> SolveResult:
    """Find a large independent set constructively and check the claimed bound."""
    if not g.is_triangle_free():
        raise GraphError("solver requires a triangle-free input")
    s, trace = _solve_set(g)
    if not verify.is_independent_set(g, s):
        raise reductions.InternalInvariantError("solver output failed verification")
    guarantee = sum(_component_guarantee(comp) for comp in _component_graphs(g))
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
