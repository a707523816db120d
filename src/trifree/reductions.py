"""Reductions for the five configurations and verified independent-set lifting.

Each reduction shrinks the host by at most 3k vertices while the lift gains
exactly k independent vertices (k = 1 for C1/C2, 2 for C3/C4).  C5 has no
reduction of its own; callers convert it via ``configurations.c5_to_c2``.
One in-place rotation edit, ``apply_reduction``, serves every kind: ``reduce``
applies it to a ``Rotation`` copy of the host, and ``solver`` to its pieces
for C1 chains.  Reduced rotations are derived, never re-embedded: deletion
keeps rotation order and the C2/C4 identification is a contraction, so every
reduced graph inherits the host's embedding.  A ``ReductionStep``
keeps no host graph: it stores the host neighbourhoods of the vertices its
lift may add, and every lift is checked against them (see ``lift``).  The
diamond step and its lift live in ``extremal`` and are re-exported here as
``diamond_reduce`` and ``diamond_lift``; both lifts share one candidate check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import configurations
from .configurations import Configuration
from .extremal import _verified, diamond_lift, diamond_reduce
from .plane_graph import GraphError, InternalInvariantError, PlaneGraph, Rotation


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    removed: frozenset
    identified: tuple | None     # (a, b, z): a and b merged into fresh z
    added_edges: frozenset
    gain_k: int
    roles: tuple
    # host neighbourhood of every vertex a lift candidate may add
    neighborhoods: dict = field(repr=False, compare=False)

    def serialize(self) -> str:
        parts = ["%s removed={%s}" % (self.kind, ",".join(str(v) for v in sorted(self.removed)))]
        if self.identified:
            parts.append("identified=%d+%d->%d" % self.identified)
        if self.added_edges:
            parts.append("added={%s}" % ",".join(
                "%d-%d" % tuple(sorted(e)) for e in sorted(self.added_edges, key=sorted)))
        parts.append("k=%d" % self.gain_k)
        return " ".join(parts)


def apply_reduction(rot, kind: str, roles):
    """Apply the reduction of configuration ``(kind, roles)``, C1-C4, in place
    to ``rot``, each vertex's clockwise neighbour list; returns the step and
    the vertices left whose rotation changed.  The caller checks that the
    configuration holds.

    Deletion keeps the rotation order.  C2 and C4 contract a path a-...-b
    through deleted vertices into z = max id + 1, so z reads a's rotation
    clockwise from just after the path, then b's; a common neighbour of a and
    b keeps one of its two parallel edges to z.  C4 first draws u1u4 along
    u1-v1-v5-v4-u4, so that u1 = u3 and u2 = u4 come out right.  Every new
    edge meets a changed vertex, so triangles are looked for there only.
    """
    host_before = len(rot)
    identified, added, path = None, frozenset(), None
    if kind == "C1":
        (v,) = roles
        removed, k, liftable = frozenset((v, *rot[v])), 1, roles
    elif kind == "C2":
        v, u, w, w2 = roles
        removed, k, liftable = frozenset((v, u)), 1, (v, w, w2)
        path = (w, v, w2, v)   # a, a's path neighbour, b, b's path neighbour
    elif kind == "C3":
        v1, v2, v3, v4 = roles
        removed, k, liftable = frozenset((*roles, *rot[v1], *rot[v3])), 2, (v1, v3)
    elif kind == "C4":
        v1, v2, v3, v4, v5, u1, u2, u3, u4 = roles
        # v1..v4 and u1..u4 may be lifted, in either reflection
        removed, k, liftable = frozenset(roles[:5]), 2, roles[:4] + roles[5:]
        path = (u2, v2, u3, v3)
    else:
        raise GraphError("no reduction for kind %r" % (kind,))
    neighborhoods = {x: frozenset(rot[x]) for x in liftable}
    touched = set()
    if kind == "C4":
        for x, old, new in ((u1, v1, u4), (u4, v4, u1)):
            rot[x][rot[x].index(old)] = new
            rot[old].remove(x)
            touched.add(x)
        added = frozenset((frozenset((u1, u4)),))
    if path:
        a, pa, b, pb = path
        z = max(rot) + 1
        arc_a, arc_b = ([y for y in ns[ns.index(p) + 1:] + ns[:ns.index(p)] if y not in removed]
                        for ns, p in ((rot[a], pa), (rot[b], pb)))
    for x in removed:
        for y in rot.pop(x):
            if y not in removed:
                rot[y].remove(x)
                touched.add(y)
    if path:
        if b in arc_a:
            raise InternalInvariantError("identifying %d and %d makes a loop" % (a, b))
        del rot[a], rot[b]
        rot[z] = arc_a + [y for y in arc_b if y not in arc_a]
        for y in rot[z]:
            ns = rot[y]
            if a in ns and b in ns:
                ns.remove(b)
            ns[ns.index(a if a in ns else b)] = z
        touched = (touched - {a, b}) | {z, *rot[z]}
        identified = (a, b, z)
    for t in touched:
        nbrs = set(rot[t])
        if any(not nbrs.isdisjoint(rot[y]) for y in nbrs):
            raise InternalInvariantError("reduction created a triangle (stale side-conditions?)")
    if len(rot) < host_before - 3 * k:
        raise InternalInvariantError("reduction deleted more than 3k vertices")
    step = ReductionStep(kind, removed, identified, added, k, roles, neighborhoods)
    return step, touched


def reduce(g: PlaneGraph, c: Configuration):
    """Apply the configuration's reduction; returns (reduced graph, step).  The
    derived rotation is built once, validated: Euler's formula proves it plane."""
    if c.kind == "C5":
        raise GraphError("C5 has no direct reduction; convert with c5_to_c2 first")
    finder = dict(configurations._FINDERS)[c.kind]
    if c not in finder(g):
        raise GraphError("stale configuration: %r no longer holds" % (c,))
    if c.kind == "C2" and g.has_edge(c.roles[2], c.roles[3]):
        raise GraphError("host contains a triangle at %r" % (c,))
    rot = Rotation.of(g)
    step, _ = apply_reduction(rot, c.kind, c.roles)
    reduced = rot.build()
    if not reduced.is_triangle_free():
        raise InternalInvariantError("reduction created a triangle (stale side-conditions?)")
    return reduced, step


def lift(step: ReductionStep, s_reduced) -> frozenset:
    """Lift an independent set of the reduced graph back to the host.

    ``s_reduced`` must be independent in the reduced graph.  Each candidate
    lift is checked against the host neighbourhoods stored in the step: no
    vertex it adds may have a host neighbour in it, and it must hold exactly
    |s| + k vertices; the first candidate that passes is returned, and
    ``InternalInvariantError`` is raised when none does.  For such an
    ``s_reduced`` this is a full host independence check: every host edge
    between kept vertices is an edge of the reduced graph (which adds only
    edges at the fresh vertex z and the C4 edge u1u4), so an edge inside a
    candidate has an added endpoint.
    """
    s = frozenset(s_reduced)
    nbhd = step.neighborhoods
    expected = len(s) + step.gain_k
    if step.kind == "C1":
        return _verified(nbhd, [(s, {step.roles[0]})], expected)
    if step.kind == "C2":
        v, u, w, w2 = step.roles
        z = step.identified[2]
        if z in s:
            return _verified(nbhd, [(s - {z}, {w, w2})], expected)
        return _verified(nbhd, [(s, {v})], expected)
    if step.kind == "C3":
        return _verified(nbhd, [(s, {step.roles[0], step.roles[2]})], expected)
    if step.kind == "C4":
        v1, v2, v3, v4, v5, u1, u2, u3, u4 = step.roles
        z = step.identified[2]
        if u1 in s:
            # u1u4 is an edge of the reduced graph, so u4 is free; reflect the
            # labeling to realize the proof's "assume u1 not in S" symmetry
            v1, v2, v3, v4 = v4, v3, v2, v1
            u1, u2, u3, u4 = u4, u3, u2, u1
        if z in s:
            # {v1,u3,u4} is the generic choice.  base holds no host neighbour
            # of u2, u3 (z's), nor u1.  So {v1,u2,u3} passes if u1 != u3 (N(v1)
            # = {v2,v5,u1}, u1 != u2, u2u3 no edge), and {v4,u1,u2} if u1 = u3
            # (u4 is z's neighbour by the new edge, u2 != u4, u1u2 no edge)
            base = s - {z}
            candidates = [(base, {v1, u3, u4}),
                          (base, {v1, u2, u3}),
                          (base, {v4, u1, u2})]
        else:
            # u2 and u3 were merged into z, which is not in s, and after the
            # reflection u1 is not in s either; the v_i were deleted.  So s
            # holds no neighbor of v1 (v2, v5, u1) or of v3 (v2, v4, u3), and
            # v1, v3 are not adjacent on the 5-face: s | {v1, v3} always works
            candidates = [(s, {v1, v3})]
        return _verified(nbhd, candidates, expected)
    raise GraphError("unknown reduction kind %r" % step.kind)


def check_tight(g: PlaneGraph, alpha: int) -> bool:
    """Tightness test; alpha must be the exact independence number."""
    return g.is_triangle_free() and 3 * alpha <= g.n + 1
