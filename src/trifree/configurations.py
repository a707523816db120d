"""Detection of the five reducible local patterns and outer-face interference.

Role vertex conventions (``Configuration.roles``):

* C1: (v,) where deg(v) <= 2
* C2: (v, u, w, w') where deg(v) = 3, N(v) = {u, w, w'} and the graph has
  no path of exactly three edges between w and w'
* C3: (v1, v2, v3, v4) in 4-face order with deg(v1) = deg(v3) = 3
* C4: (v1, ..., v5, u1, ..., u4) where v1..v5 is a 5-face, deg(v1..v4) = 3,
  u_i is v_i's neighbor off the face, and the side-conditions below hold
* C5: (v1, v2, v3, v4) in 4-face order with deg(v1) = deg(v2) = 3

Everything else known per kind is its row of ``KINDS``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .plane_graph import Face, GraphError, InternalInvariantError, PlaneGraph


class NoConfigurationError(InternalInvariantError):
    """Every plane triangle-free graph must contain some configuration."""


@dataclass(frozen=True, order=True)
class Configuration:
    kind: str
    roles: tuple

    def __post_init__(self):
        kind_row(self.kind, self.roles)

    def interference_vertices(self) -> frozenset:
        return frozenset(self.roles[i] for i in kind_row(self.kind, self.roles)[3])


def interferes(c: Configuration, k: Face) -> bool:
    """True iff the kind-specific role vertices meet the outer cycle."""
    return bool(c.interference_vertices() & k.vertex_set)


def _face_cycles(g: PlaneGraph, length: int):
    """Faces of the given length whose walk is a simple cycle."""
    return [f for f in g.faces() if f.length == length and f.is_cycle()]


def find_c1(g: PlaneGraph) -> list:
    return [Configuration("C1", (v,)) for v in g.vertices if g.degree(v) <= 2]


def find_c2(g: PlaneGraph) -> list:
    out = []
    for v in g.vertices:
        if g.degree(v) != 3:
            continue
        nbrs = sorted(g.neighbors(v))
        for u in nbrs:
            w, w2 = sorted(x for x in nbrs if x != u)
            if not g.paths_between(w, w2, 3):
                out.append(Configuration("C2", (v, u, w, w2)))
    return sorted(out)


def find_c3(g: PlaneGraph) -> list:
    out = []
    for f in _face_cycles(g, 4):
        a, b, c, d = f.vertex_walk()
        for v1, v2, v3, v4 in ((a, b, c, d), (b, c, d, a)):
            if g.degree(v1) == 3 and g.degree(v3) == 3:
                if (v3, v4, v1, v2) < (v1, v2, v3, v4):
                    v1, v2, v3, v4 = v3, v4, v1, v2
                out.append(Configuration("C3", (v1, v2, v3, v4)))
    return sorted(set(out))


def find_c5(g: PlaneGraph) -> list:
    out = []
    for f in _face_cycles(g, 4):
        walk = f.vertex_walk()
        for i in range(4):
            v1, v2, v3, v4 = (walk[(i + j) % 4] for j in range(4))
            if g.degree(v1) == 3 and g.degree(v2) == 3:
                if v2 < v1:  # same adjacent pair read in the other direction
                    v1, v2, v3, v4 = v2, v1, v4, v3
                out.append(Configuration("C5", (v1, v2, v3, v4)))
    return sorted(set(out))


def _c4_conditions(g: PlaneGraph, vs, us) -> bool:
    """The side-conditions, read in g - vs: no u_i lies on the face, so an
    edge between u_i is one of g, and a path of g - vs one avoiding vs."""
    u1, u2, u3, u4 = us
    if g.has_edge(u1, u2) or g.has_edge(u3, u4):
        return False
    if u1 == u4 or g.has_edge(u1, u4) or g.paths_between(u1, u4, 2, forbidden=vs):
        return False
    if u2 == u3 or g.has_edge(u2, u3) or g.paths_between(u2, u3, 3, forbidden=vs):
        return False
    # u1 = u3 and u2 = u4 cannot both hold: v1-u1-v3 and v2-u2-v4 would be
    # interleaved chords outside the facial 5-cycle, which must cross
    return True


def find_c4(g: PlaneGraph) -> list:
    out = []
    for f in _face_cycles(g, 5):
        walk = f.vertex_walk()
        labelings = []
        for i in range(5):
            fwd = tuple(walk[(i + j) % 5] for j in range(5))
            labelings.append(fwd)
            labelings.append(tuple(reversed(fwd)))
        for vs in labelings:
            if any(g.degree(v) != 3 for v in vs[:4]):
                continue
            on_face = set(vs)
            us = []
            for v in vs[:4]:
                off = [x for x in g.neighbors(v) if x not in on_face]
                if len(off) != 1:
                    us = None
                    break
                us.append(off[0])
            if us is None:
                continue
            if _c4_conditions(g, vs, us):
                out.append(Configuration("C4", tuple(vs) + tuple(us)))
    return sorted(set(out))


def c5_to_c2(g: PlaneGraph, c: Configuration) -> Configuration:
    """Convert a C5 instance into the C2 instance it guarantees.

    A 4-face v1v2v3v4 with deg(v1) = deg(v2) = 3 yields C2 at v1 (diagonal
    v2, v4) or at v2 (diagonal v1, v3); in a plane triangle-free graph the
    two diagonal 3-edge paths cannot both be present.
    """
    if c.kind != "C5":
        raise GraphError("expected a C5 configuration")
    v1, v2, v3, v4 = c.roles
    p24 = g.paths_between(v2, v4, 3)
    if not p24:
        u = next(x for x in sorted(g.neighbors(v1)) if x not in (v2, v4))
        return Configuration("C2", (v1, u, min(v2, v4), max(v2, v4)))
    p13 = g.paths_between(v1, v3, 3)
    if not p13:
        u = next(x for x in sorted(g.neighbors(v2)) if x not in (v1, v3))
        return Configuration("C2", (v2, u, min(v1, v3), max(v1, v3)))
    raise InternalInvariantError(
        "both diagonal length-3 paths present at 4-face %s: %r and %r "
        "(input not plane triangle-free?)" % (c.roles, p24[0], p13[0]))


# One row per kind, a plain tuple read by position:
#   (kind, finder, role count, roles that must avoid the outer cycle, reduction)
# and a reduction, None for C5, is
#   (gain k, roles deleted, roles whose neighbours are deleted too,
#    contracted path (a, a's path neighbour, b, b's path neighbour) or None,
#    roles a lift adds when the fresh vertex z is not in the set,
#    the candidates, tried in order, when it is)
# with each role given by its index in ``Configuration.roles``.  C2 merges w
# and w' into z, C4 merges u2 and u3; ``reductions`` reads the reductions.
# Rows stay plain tuples and are looked up when used: perfbench's tracer
# swaps the finders it wraps inside module-level tuples, and only there.
KINDS = (
    ("C1", find_c1, 1, (0,), (1, (0,), (0,), None, (0,), ())),
    ("C2", find_c2, 4, (0, 2, 3), (1, (0, 1), (), (2, 0, 3, 0), (0,), ((2, 3),))),
    ("C3", find_c3, 4, (0, 2), (2, (0, 1, 2, 3), (0, 2), None, (0, 2), ())),
    ("C4", find_c4, 9, tuple(range(9)), (
        2, (0, 1, 2, 3, 4), (), (6, 1, 7, 2),
        # read after the lift's reflection, so u1 is not in s.  z, which is
        # u2 and u3, is not in s either, and the v_i were deleted.  So s holds
        # no neighbor of v1 (v2, v5, u1) or of v3 (v2, v4, u3), and v1, v3
        # are not adjacent on the 5-face: s | {v1, v3} always works
        (0, 2),
        # {v1,u3,u4} is the generic choice.  base = s - {z} holds no host
        # neighbour of u2, u3 (z's), nor u1.  So {v1,u2,u3} passes if u1 != u3
        # (N(v1) = {v2,v5,u1}, u1 != u2, u2u3 no edge), and {v4,u1,u2} if
        # u1 = u3 (u4 is z's neighbour by the new edge, u2 != u4, u1u2 no edge)
        ((0, 7, 8), (0, 6, 7), (3, 5, 6)))),
    ("C5", find_c5, 4, (0, 1), None),
)


def kind_row(kind, roles) -> tuple:
    """The row of ``kind`` in ``KINDS``, looked up when called, once checked
    that ``roles`` are as many as the kind has."""
    for row in KINDS:
        if row[0] == kind:
            if len(roles) != row[2]:
                raise GraphError("%s has %d roles, not %d" % (kind, row[2], len(roles)))
            return row
    raise GraphError("unknown configuration kind %r" % (kind,))


def find_all(g: PlaneGraph) -> list:
    if not g.is_triangle_free():
        raise GraphError("configuration search requires a triangle-free graph")
    out = []
    for row in KINDS:
        out.extend(row[1](g))
    return out


def find_any(g: PlaneGraph) -> Configuration:
    """Some configuration, searched in order C1..C5; never empty on valid input."""
    if g.n == 0:
        raise GraphError("empty graph")
    if not g.is_triangle_free():
        raise GraphError("configuration search requires a triangle-free graph")
    for row in KINDS:
        found = row[1](g)
        if found:
            return found[0]
    raise NoConfigurationError(
        "no configuration found; input is not plane triangle-free or there is a bug")
