"""Plane graph substrate: rotation systems, faces, and structure queries.

A plane graph is stored as a rotation system: for every vertex, the cyclic
clockwise order of its neighbors (the order ``networkx`` planar embeddings
use).  Faces are traced with the next-edge rule: a walk that arrives at v
from u leaves v toward the neighbor that follows u in v's rotation.  Each
face walk therefore keeps its face on the left, and the ``outer:`` line of
the file format lists one such walk.  Validity (genus zero) is checked per
connected component via Euler's formula.  A ``PlaneGraph`` is immutable and
every operation on it returns a new value; its faces are traced once, and a
``re_embed`` shares them.  ``Rotation`` is the one mutable form: the diamond
chains, the reductions, the solver's pieces and the random generator edit it
in place and end with one validated ``build``.
"""
from __future__ import annotations

from dataclasses import dataclass


class GraphError(ValueError):
    """Malformed input or violated operation precondition."""


class InternalInvariantError(RuntimeError):
    """A guarantee the algorithms rely on failed; indicates an upstream bug."""


def _canonical_walk(darts):
    """Rotate a cyclic dart sequence so it starts at the smallest dart."""
    i = min(range(len(darts)), key=lambda k: darts[k], default=0)
    return tuple(darts[i:]) + tuple(darts[:i])


@dataclass(frozen=True)
class Face:
    """A face walk, stored as a canonically rotated cyclic dart sequence.

    The walk may repeat vertices and traverse a bridge twice, so ``length``
    counts edge incidences (the standard |f|).
    """

    darts: tuple

    @property
    def length(self) -> int:
        return len(self.darts)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(d[0] for d in self.darts)

    @property
    def edge_set(self) -> frozenset:
        return frozenset(frozenset(d) for d in self.darts)

    def vertex_walk(self) -> tuple:
        return tuple(d[0] for d in self.darts)

    def is_cycle(self) -> bool:
        """True iff the walk visits ``length`` distinct vertices.

        A length-2 walk traverses one edge twice, so it never qualifies.
        """
        return self.length >= 3 and len(self.vertex_set) == self.length

    def __repr__(self):
        return "Face(%s)" % "-".join(str(v) for v in self.vertex_walk())


class PlaneGraph:
    """Immutable combinatorial plane embedding."""

    __slots__ = ("_rot", "_nbr", "_faces", "_outer", "_dart_face_index", "_outer_comp")

    def __init__(self, rotation, outer_face=None, check=True):
        self._rot = {int(v): tuple(int(u) for u in ns) for v, ns in rotation.items()}
        self._nbr = {v: frozenset(ns) for v, ns in self._rot.items()}
        if check:
            self._check_simple_symmetric()
        self._trace_faces()
        if check:
            self._check_euler()
        self._outer = None
        self._outer_comp = None
        if outer_face is not None:
            key = outer_face.darts if isinstance(outer_face, Face) else _canonical_walk(tuple(outer_face))
            self._outer = self._face_with(key)
            if self._outer is None:
                raise GraphError("designated outer face is not a face of this graph")

    # -- construction helpers -------------------------------------------------

    def _check_simple_symmetric(self):
        for v, ns in self._rot.items():
            if v in ns:
                raise GraphError("loop at vertex %d" % v)
            if len(set(ns)) != len(ns):
                raise GraphError("parallel edges at vertex %d" % v)
            for u in ns:
                if u not in self._rot:
                    raise GraphError("asymmetric rotation: %d lists unknown vertex %d" % (v, u))
                if v not in self._nbr[u]:
                    raise GraphError("asymmetric rotation: edge %d-%d missing reverse entry" % (v, u))

    def _trace_faces(self):
        # a walk from the smallest untraced dart is canonical and the walks come
        # out in face order; the dart index is the record of what is traced
        succ = {}
        for v, ns in self._rot.items():
            deg = len(ns)
            for i, u in enumerate(ns):
                # the next-edge rule of the module docstring
                succ[(u, v)] = (v, ns[(i + 1) % deg])
        faces, index = [], {}
        for start in sorted(succ):
            if start in index:
                continue
            walk, cur = [start], succ[start]
            while cur != start:
                walk.append(cur)
                cur = succ[cur]
            index.update(dict.fromkeys(walk, len(faces)))
            faces.append(Face(tuple(walk)))
        self._faces, self._dart_face_index = faces, index

    def _check_euler(self):
        comps = self.components()
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        fcs = [0] * len(comps)
        for f in self._faces:
            fcs[comp_of[f.darts[0][0]]] += 1
        for comp, fc in zip(comps, fcs):
            # an isolated vertex has one face and no walk
            vc, ec, fc = len(comp), sum(len(self._rot[v]) for v in comp) // 2, max(fc, 1)
            if vc - ec + fc != 2:
                raise GraphError(
                    "Euler violation (V-E+F = %d-%d+%d != 2): rotation is not planar"
                    % (vc, ec, fc))

    def _face_with(self, key):
        """The face whose canonical walk is ``key``, or None."""
        i = self._dart_face_index.get(key[0]) if key else None
        return self._faces[i] if i is not None and self._faces[i].darts == key else None

    # -- basic queries ---------------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(self._rot))

    @property
    def n(self) -> int:
        return len(self._rot)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self._rot.values()) // 2

    @property
    def edges(self) -> frozenset:
        return frozenset(frozenset((v, u)) for v, ns in self._rot.items() for u in ns)

    def rotation(self, v) -> tuple:
        return self._rot[v]

    def neighbors(self, v) -> frozenset:
        return self._nbr[v]

    def degree(self, v) -> int:
        return len(self._rot[v])

    def has_vertex(self, v) -> bool:
        return v in self._rot

    def has_edge(self, u, v) -> bool:
        return v in self._nbr.get(u, ())

    def max_vertex_id(self) -> int:
        return max(self._rot, default=0)

    def components(self) -> list:
        seen = set()
        comps = []
        for v in sorted(self._rot):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for u in self._nbr[x]:
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    # -- faces -----------------------------------------------------------------

    def faces(self) -> list:
        return list(self._faces)

    @property
    def outer_face(self):
        return self._outer

    def face_of_dart(self, dart) -> Face:
        return self._faces[self._dart_face_index[dart]]

    def find_face(self, walk):
        """Face matching a cyclic vertex walk, or None."""
        darts = tuple((walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk)))
        return self._face_with(_canonical_walk(darts))

    def re_embed(self, f: Face) -> "PlaneGraph":
        """The same embedding with outer face ``f``; it shares the face table."""
        outer = self._face_with(f.darts) if isinstance(f, Face) else None
        if outer is None:
            raise GraphError("not a face of this graph: %r" % (f,))
        h = object.__new__(PlaneGraph)
        h._rot, h._nbr, h._faces, h._dart_face_index = (
            self._rot, self._nbr, self._faces, self._dart_face_index)
        h._outer, h._outer_comp = outer, None
        return h

    # -- structure queries -----------------------------------------------------

    def is_triangle_free(self) -> bool:
        for v, ns in self._rot.items():
            for u in ns:
                if u > v and self._nbr[v] & self._nbr[u]:
                    return False
        return True

    def paths_between(self, a, b, length, forbidden=()) -> list:
        """All simple a-b paths with exactly ``length`` edges.

        Internal vertices must avoid ``forbidden``; the endpoints are exempt.
        """
        if a == b:
            raise GraphError("path endpoints must differ")
        if length > 6:
            raise GraphError("path search limited to length 6")
        if a not in self._rot or b not in self._rot:
            return []
        forbidden = frozenset(forbidden)
        out = []

        def walk(path, used):
            v = path[-1]
            rem = length - (len(path) - 1)
            for w in sorted(self._nbr[v]):
                if w == b:
                    if rem == 1:
                        out.append(tuple(path) + (w,))
                    continue
                if rem <= 1 or w in used or w in forbidden:
                    continue
                path.append(w)
                used.add(w)
                walk(path, used)
                used.discard(w)
                path.pop()

        walk([a], {a})
        return out

    def cycles_up_to(self, max_len) -> list:
        """All simple cycles of length <= max_len, once up to rotation/reflection.

        Each cycle is reported as a vertex tuple starting at its smallest
        vertex, oriented so the second vertex is smaller than the last.
        """
        if max_len > 6:
            raise GraphError("cycle search limited to length 6")
        cycles = []
        if max_len < 3:
            return cycles
        nbrs = {v: sorted(ns) for v, ns in self._nbr.items()}

        def extend(path, used):
            v, first = path[-1], path[0]
            last = len(path) + 1 == max_len  # a step to w ends the path
            for w in nbrs[v]:
                if w == first:
                    if len(path) >= 3 and path[1] < v:
                        cycles.append(tuple(path))
                elif w < first or w in used:
                    continue
                elif last:  # the one cycle a path ending at w can close
                    if path[1] < w and first in self._nbr[w]:
                        cycles.append(tuple(path) + (w,))
                else:
                    path.append(w)
                    used.add(w)
                    extend(path, used)
                    used.discard(w)
                    path.pop()

        for v in sorted(nbrs):
            extend([v], {v})
        return cycles

    # -- disk extraction ---------------------------------------------------------

    def disk_subgraph(self, cycle) -> "PlaneGraph":
        """Subgraph drawn in the closed disk bounded by ``cycle``, with the
        cycle as its outer face.

        The disk's faces come from the dual flood of ``_disk_faces``; the
        subgraph keeps the darts of those faces and of the cycle, and is one
        validated build whose faces must be exactly the flooded ones plus the
        cycle itself as outer face.
        """
        boundary, disk_faces = self._disk_faces(cycle)
        kept = set(boundary)
        kept.update((v, u) for u, v in boundary)
        for f in disk_faces:
            kept.update(f.darts)
        verts = sorted({v for v, _ in kept})
        rot = {v: tuple(u for u in self._rot[v] if (v, u) in kept) for v in verts}
        sub = PlaneGraph(rot, outer_face=boundary)
        if len(sub._faces) != len(disk_faces) + 1:
            raise InternalInvariantError("disk extraction produced %d boundary faces"
                                         % (len(sub._faces) - len(disk_faces)))
        return sub

    def _disk_faces(self, cycle):
        """The faces inside the closed disk bounded by ``cycle``.

        Returns ``(boundary, faces)``: ``boundary`` is the cycle's dart walk
        that keeps the disk on its right, so it is the disk's outer face
        walk.  The faces left of the cycle's darts (c_i, c_i+1) lie on one
        side of it and the faces right of them on the other.  Both sides are
        flooded alternately through the dual, never crossing a cycle edge,
        and the disk is the first side that closes off without reaching the
        designated outer face.  The cost therefore follows the disk (and the
        other side while it is smaller), not the whole graph.
        """
        cycle = tuple(cycle)
        if self._outer is None:
            raise GraphError("disk extraction needs a designated outer face")
        k = len(cycle)
        if k < 3 or len(set(cycle)) != k:
            raise GraphError("not a simple cycle: %r" % (cycle,))
        darts = tuple((cycle[i], cycle[(i + 1) % k]) for i in range(k))
        for u, v in darts:
            if not self.has_edge(u, v):
                raise GraphError("not a cycle of this graph: missing edge %d-%d" % (u, v))
        cyc_edges = {frozenset(d) for d in darts}
        if len(cyc_edges) != k:
            raise GraphError("not a simple cycle: %r" % (cycle,))
        if cyc_edges == self._outer.edge_set and k == self._outer.length:
            raise GraphError("cycle bounds the outer face")
        if self._outer_comp is None:  # one component search per graph, not per cycle
            start = self._outer.darts[0][0]
            self._outer_comp = next(c for c in self.components() if start in c)
        if cycle[0] not in self._outer_comp:
            raise GraphError("outer face lies in a different component than the cycle")

        reverse = tuple((v, u) for u, v in reversed(darts))
        cut = set(darts) | set(reverse)
        # flood over face indices: an int hashes faster than a dart tuple
        index = self._dart_face_index
        outer = index[self._outer.darts[0]]
        seen = ({index[d] for d in darts}, {index[d] for d in reverse})
        if seen[0] & seen[1]:
            raise InternalInvariantError("cycle does not enclose any face")
        todo = (list(seen[0]), list(seen[1]))
        reached = [outer in seen[0], outer in seen[1]]
        # the sides stay disjoint, so at most one of them reaches the outer face
        while True:
            for i in (0, 1):
                if reached[i]:
                    continue
                if not todo[i]:
                    faces = [self._faces[j] for j in sorted(seen[i])]
                    return (reverse if i == 0 else darts), faces
                for u, v in self._faces[todo[i].pop()].darts:
                    if (v, u) in cut:
                        continue
                    f = index[(v, u)]
                    if f in seen[i]:
                        continue
                    if f in seen[1 - i]:
                        raise InternalInvariantError("cycle does not enclose any face")
                    seen[i].add(f)
                    todo[i].append(f)
                    reached[i] = reached[i] or f == outer

    def __repr__(self):
        return "PlaneGraph(n=%d, m=%d)" % (self.n, self.m)


class Rotation(dict):
    """A mutable rotation system, vertex -> clockwise neighbour list, with
    the read queries of ``PlaneGraph``."""

    __slots__ = ("_ids",)
    vertices = property(lambda self: tuple(sorted(self)))
    n = property(len)
    has_vertex = dict.__contains__

    def fresh_ids(self, k: int) -> range:
        """The k ids from ``max(self) + 1`` on, in amortised O(1 + k), from a
        stack of ids kept in ascending order: ``sorted(self)`` at the first
        call, then each call appends the ids it returns.  Once the deleted ids
        above it are popped, its top is the largest vertex, provided every
        vertex added after the first call took its id from here."""
        try:
            ids = self._ids
        except AttributeError:   # the slot is set at the first call
            ids = self._ids = sorted(self)
        while ids and ids[-1] not in self:
            ids.pop()
        top = ids[-1] if ids else 0
        fresh = range(top + 1, top + 1 + k)
        ids.extend(fresh)
        return fresh

    @classmethod
    def of(cls, g: PlaneGraph) -> "Rotation":
        return cls((v, list(g.rotation(v))) for v in g.vertices)

    def degree(self, v) -> int:
        return len(self[v])

    def neighbors(self, v) -> frozenset:
        return frozenset(self[v])

    def has_edge(self, u, v) -> bool:
        return v in self.get(u, ())

    def face_darts(self, dart) -> list:
        """The darts of the face through ``dart``, in walk order from it."""
        walk, (u, v) = [dart], dart
        while True:
            ns = self[v]
            # the next-edge rule of the module docstring
            u, v = v, ns[(ns.index(u) + 1) % len(ns)]
            if (u, v) == dart:
                return walk
            walk.append((u, v))

    def build(self) -> PlaneGraph:
        """The validated plane graph; an edit that breaks it is a bug."""
        try:
            return PlaneGraph(self)
        except GraphError as e:
            raise InternalInvariantError("rotation edit broke the embedding: %s" % e) from None


# -- file format ---------------------------------------------------------------


def parse(text: str) -> PlaneGraph:
    """Read the line-oriented graph format (see ``serialize``)."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError("first line must be 'n m'") from None
    if n < 0 or m < 0:
        raise GraphError("negative count in first line: %d %d" % (n, m))
    rotation = {}
    outer_walk = None
    for line in lines[1:]:
        if ":" not in line:
            raise GraphError("malformed line: %r" % line)
        left, right = line.split(":", 1)
        left = left.strip()
        try:
            entries = tuple(int(t) for t in right.split())
        except ValueError:
            raise GraphError("malformed line: %r" % line) from None
        if left == "outer":
            if outer_walk is not None:
                raise GraphError("duplicate outer line")
            outer_walk = entries
            continue
        try:
            v = int(left)
        except ValueError:
            raise GraphError("malformed line: %r" % line) from None
        if v in rotation:
            raise GraphError("duplicate rotation line for vertex %d" % v)
        rotation[v] = entries
    if len(rotation) != n or not all(1 <= v <= n for v in rotation):
        raise GraphError("vertices must be exactly 1..n")
    g = PlaneGraph(rotation)
    if g.m != m:
        raise GraphError("edge count mismatch: header says %d, rotations give %d" % (m, g.m))
    if outer_walk is not None:
        f = g.find_face(outer_walk)
        if f is None:
            raise GraphError("outer walk is not a face: %r" % (outer_walk,))
        g = g.re_embed(f)
    return g


def serialize(g: PlaneGraph) -> str:
    """Emit the graph file format.

    Vertices appear in ascending order and each rotation starts from its
    smallest neighbor, so output is bit-exact for equal graphs.
    """
    out = ["%d %d" % (g.n, g.m)]
    for v in g.vertices:
        ns = g.rotation(v)
        if ns:
            i = ns.index(min(ns))
            ns = ns[i:] + ns[:i]
        out.append("%d: %s" % (v, " ".join(str(u) for u in ns)))
    if g.outer_face is not None:
        out.append("outer: %s" % " ".join(str(v) for v in g.outer_face.vertex_walk()))
    return "\n".join(out) + "\n"


# -- embedding helpers ---------------------------------------------------------


def embed_edges(vertices, edges) -> PlaneGraph:
    """Find some plane embedding of an abstract graph (convenience only)."""
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise GraphError("graph is not planar")
    data = emb.get_data()
    return PlaneGraph({v: tuple(data.get(v, ())) for v in g.nodes})


def cycle_graph(k, start=1) -> PlaneGraph:
    """The k-cycle on vertices start..start+k-1."""
    vs = list(range(start, start + k))
    rot = {vs[i]: (vs[(i - 1) % k], vs[(i + 1) % k]) for i in range(k)}
    return PlaneGraph(rot)

