"""Reductions for the five configurations and verified independent-set lifting.

Each reduction shrinks the host by at most 3k vertices while the lift gains
exactly k independent vertices (k = 1 for C1/C2, 2 for C3/C4).  C5 has no
reduction of its own; callers convert it via ``configurations.c5_to_c2``.
Each kind's row of ``configurations.KINDS`` says what it deletes, contracts
and adds back; only C4's drawn edge u1u4 and its reflection are code of
their own.  One in-place rotation edit, ``apply_reduction``, serves every
kind: ``reduce`` applies it to a copy of the host, ``solver`` to its pieces.
Its caller names a contraction's fresh vertex, so ``solve`` can give ids
unique in the whole solve and lift one set back through every step.
A host with a triangle is bad input, which ``reduce`` rejects.  A triangle
a reduction would make is caught at the vertices that gain an edge, so
``solve``'s steps scan no whole graph for one; each C2-C4 step still ends
in a validated build.
Reduced rotations are derived, never re-embedded: deletion keeps rotation
order and the C2/C4 identification is a contraction.  A ``ReductionStep``
keeps no host graph, only the host neighbourhoods of the vertices its lift
may add.  Each step kind lifts itself in place, ``ReductionStep.lift_into``
and ``extremal.DiamondStep.lift_into``, checked by
``extremal._add_checked``; ``lift`` is the copying form for both.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import configurations
from .configurations import Configuration
from .extremal import _add_checked, _fresh
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

    def lift_into(self, s: set) -> None:
        """Lift ``s``, independent in the reduced graph, to the host, in
        place.  The candidates come from the kind's row of
        ``configurations.KINDS``; the first that holds exactly |s| + k
        vertices, none it adds having a host neighbour (stored in the step)
        in it, is taken, else ``InternalInvariantError`` is raised.  This is
        a full host independence check: every host edge between kept
        vertices is a reduced edge (the reduction adds edges only at the
        fresh vertex z and the C4 edge u1u4), so an edge inside a candidate
        has an added endpoint."""
        adds, z_adds = configurations.kind_row(self.kind, self.roles)[4][4:]
        size = len(s) + self.gain_k
        roles = self.roles
        if self.kind == "C4" and roles[5] in s:
            # u1u4 is an edge of the reduced graph, so u4 is free; reflect the
            # labeling to realize the proof's "assume u1 not in S" symmetry
            roles = tuple(roles[i] for i in _C4_MIRROR)
        candidates = (adds,)
        if self.identified and self.identified[2] in s:
            s.discard(self.identified[2])
            candidates = z_adds
        _add_checked(self.neighborhoods, s, [[roles[i] for i in c] for c in candidates], size)


# C4's reflection v1..v4 -> v4..v1, u1..u4 -> u4..u1, as role indices
_C4_MIRROR = (3, 2, 1, 0, 4, 8, 7, 6, 5)


def apply_reduction(rot, kind: str, roles, z):
    """Apply the reduction of configuration ``(kind, roles)``, C1-C4, in place
    to ``rot``, each vertex's clockwise neighbour list; returns the step and
    the vertices left whose rotation changed.  The caller checks that the
    configuration holds, and gives z, an id no vertex has; for C2 and C4 an
    id in use raises ``GraphError`` before any edit.

    Deletion keeps the rotation order.  C2 and C4 contract a path a-...-b
    through deleted vertices into z, which reads a's rotation clockwise from
    just after the path, then b's; a common neighbour of a and b keeps one of
    its two parallel edges to z.  C4 first draws u1u4 along u1-v1-v5-v4-u4,
    so that u1 = u3 and u2 = u4 come out right.  Only C2 and C4 add edges,
    each at a changed vertex, so only they look for triangles, and only there.
    """
    reduction = configurations.kind_row(kind, roles)[4]
    if reduction is None:
        raise GraphError("%s has no direct reduction; convert with c5_to_c2 first" % kind)
    k, deleted, closed, path, adds, z_adds = reduction
    if path:
        _fresh(rot, z, 1)
    host_before = len(rot)
    removed = set(map(roles.__getitem__, deleted))
    for i in closed:
        removed.update(rot[roles[i]])
    liftable = set(adds).union(*z_adds)
    if kind == "C4":  # the lift may read the roles reflected
        liftable.update([_C4_MIRROR[i] for i in liftable])
    neighborhoods = {roles[i]: frozenset(rot[roles[i]]) for i in liftable}
    touched, identified, added = set(), None, frozenset()
    if kind == "C4":
        v1, v4, u1, u4 = (roles[i] for i in (0, 3, 5, 8))
        for x, old, new in ((u1, v1, u4), (u4, v4, u1)):
            rot[x][rot[x].index(old)] = new
            rot[old].remove(x)
            touched.add(x)
        added = frozenset((frozenset((u1, u4)),))
    if path:
        a, pa, b, pb = (roles[i] for i in path)
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
                raise InternalInvariantError(
                    "reduction created a triangle (stale side-conditions?)")
    if len(rot) < host_before - 3 * k:
        raise InternalInvariantError("reduction deleted more than 3k vertices")
    step = ReductionStep(kind, frozenset(removed), identified, added, k, roles, neighborhoods)
    return step, touched


def reduce(g: PlaneGraph, c: Configuration):
    """Apply the configuration's reduction; returns (reduced graph, step).  A
    host with a triangle raises ``GraphError``.  The derived rotation is
    built once, validated: Euler's formula proves it plane."""
    if not g.is_triangle_free():
        raise GraphError("host contains a triangle")
    if c not in configurations.kind_row(c.kind, c.roles)[1](g):
        raise GraphError("stale configuration: %r no longer holds" % (c,))
    rot = Rotation.of(g)
    step, _ = apply_reduction(rot, c.kind, c.roles, g.max_vertex_id() + 1)
    return rot.build(), step


def lift(step, s_reduced) -> frozenset:
    """Lift an independent set of the reduced graph back to the host through
    ``step``, a ``ReductionStep`` or an ``extremal.DiamondStep``: a copy of
    ``s_reduced`` and the step's checked ``lift_into``."""
    s = set(s_reduced)
    step.lift_into(s)
    return frozenset(s)
