"""Detection of the five reducible local patterns and outer-face interference.

Role vertex conventions (``Configuration.roles``):

* C1: (v,) where deg(v) <= 2
* C2: (v, u, w, w') where deg(v) = 3, N(v) = {u, w, w'} and the graph has
  no path of exactly three edges between w and w'
* C3: (v1, v2, v3, v4) in 4-face order with deg(v1) = deg(v3) = 3
* C4: (v1, ..., v5, u1, ..., u4) where v1..v5 is a 5-face, deg(v1..v4) = 3,
  u_i is v_i's neighbor off the face, and the side-conditions below hold
* C5: (v1, v2, v3, v4) in 4-face order with deg(v1) = deg(v2) = 3
"""
from __future__ import annotations

from dataclasses import dataclass

from .plane_graph import Face, GraphError, InternalInvariantError, PlaneGraph


class NoConfigurationError(InternalInvariantError):
    """Every plane triangle-free graph must contain some configuration."""


# per kind, the role indices whose vertices must avoid the outer cycle
_INTERFERENCE_ROLES = {"C1": (0,), "C2": (0, 2, 3), "C3": (0, 2),
                       "C4": tuple(range(9)), "C5": (0, 1)}


@dataclass(frozen=True, order=True)
class Configuration:
    kind: str
    roles: tuple

    def __post_init__(self):
        if self.kind not in _INTERFERENCE_ROLES:
            raise GraphError("unknown configuration kind %r" % (self.kind,))

    def interference_vertices(self) -> frozenset:
        return frozenset(self.roles[i] for i in _INTERFERENCE_ROLES[self.kind])


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
    if u1 == u3 and u2 == u4:
        # identifying u2 with u3 would turn the new edge u1u4 into a loop
        return False
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


_FINDERS = (("C1", find_c1), ("C2", find_c2), ("C3", find_c3),
            ("C4", find_c4), ("C5", find_c5))


def find_all(g: PlaneGraph) -> list:
    out = []
    for _, finder in _FINDERS:
        out.extend(finder(g))
    return out


def find_any(g: PlaneGraph) -> Configuration:
    """Some configuration, searched in order C1..C5; never empty on valid input."""
    if g.n == 0:
        raise GraphError("empty graph")
    for _, finder in _FINDERS:
        found = finder(g)
        if found:
            return found[0]
    raise NoConfigurationError(
        "no configuration found; input is not plane triangle-free or there is a bug")
