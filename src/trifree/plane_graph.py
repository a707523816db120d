"""Plane graph substrate: rotation systems, faces, and structure queries.

A plane graph is stored as a rotation system: for every vertex, the cyclic
clockwise order of its neighbors (the order ``networkx`` planar embeddings
use).  Faces are traced with the next-edge rule: a walk that arrives at v
from u leaves v toward the neighbor that follows u in v's rotation.  Each
face walk therefore keeps its face on the left, and the ``outer:`` line of
the file format lists one such walk.  Validity (genus zero) is one Euler
identity: each component has V - E + F = 2 - 2g with genus g >= 0 (an
isolated vertex counting one face), so n - m + F = 2C over the C components
exactly when every genus is 0.  A ``PlaneGraph`` is immutable and
every operation on it returns a new value; its faces are traced once, and a
``re_embed`` shares them.  ``Rotation`` is the one mutable form: the diamond
chains, the reductions, the solver's pieces and the random generator edit it
in place and end with one validated ``build``.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from operator import index


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

    __slots__ = ("_rot", "_nbr", "_faces", "_outer", "_dart_face_index")

    def __init__(self, rotation):
        """No outer face is designated; ``re_embed`` designates one."""
        try:
            self._rot = {index(v): tuple(map(index, ns)) for v, ns in rotation.items()}
        except TypeError:
            raise GraphError("vertex ids must be integers, "
                             "each neighbour list a sequence of them") from None
        self._nbr = {v: frozenset(ns) for v, ns in self._rot.items()}
        self._check_simple_symmetric()
        self._trace_faces()
        self._check_euler()
        self._outer = None  # the outer face's index in the face table

    # -- construction helpers -------------------------------------------------

    def _check_simple_symmetric(self):
        for v, ns in self._rot.items():
            if v in ns:
                raise GraphError("loop at vertex %d" % v)
            if len(self._nbr[v]) != len(ns):
                raise GraphError("parallel edges at vertex %d" % v)
            for u in ns:
                if u not in self._rot:
                    raise GraphError("asymmetric rotation: %d lists unknown vertex %d" % (v, u))
                if v not in self._nbr[u]:
                    raise GraphError("asymmetric rotation: edge %d-%d missing reverse entry" % (v, u))

    def _trace_faces(self):
        # a walk from the smallest untraced dart is canonical and the walks come
        # out in face order; the dart index is the record of what is traced.
        # ``pos`` finds each arrival in O(1), so tracing is linear at any degree.
        pos = {(v, u): i for v, ns in self._rot.items() for i, u in enumerate(ns)}
        faces, index = [], {}
        for start in sorted(pos):
            if start in index:
                continue
            walk = Rotation.face_darts(self._rot, start, pos)
            index.update(dict.fromkeys(walk, len(faces)))
            faces.append(Face(tuple(walk)))
        self._faces, self._dart_face_index = faces, index

    def _check_euler(self):
        # the identity of the module docstring; an isolated vertex has one
        # face and no walk
        fc = len(self._faces) + sum(not ns for ns in self._rot.values())
        cc = len(self.components())
        if self.n - self.m + fc != 2 * cc:
            raise GraphError(
                "Euler violation (V-E+F = %d-%d+%d != 2C, C = %d): rotation is not planar"
                % (self.n, self.m, fc, cc))

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
        return len(self._dart_face_index) // 2   # two darts per edge

    @property
    def edges(self) -> frozenset:
        return frozenset(frozenset((v, u)) for v, ns in self._rot.items() for u in ns)

    def rotation(self, v) -> tuple:
        return self._rot[v]

    @property
    def rotations(self) -> dict:
        """The rotation table itself, read only, as ``Rotation`` is one."""
        return self._rot

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
        return None if self._outer is None else self._faces[self._outer]

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
        h = copy.copy(self)
        h._outer = self._dart_face_index[outer.darts[0]]
        return h

    # -- structure queries -----------------------------------------------------

    def is_triangle_free(self) -> bool:
        for v, ns in self._rot.items():
            for u in ns:
                if u > v and self._nbr[v] & self._nbr[u]:
                    return False
        return True

    def paths_between(self, a, b, length, forbidden=()) -> list:
        """All simple a-b paths with exactly ``length`` edges, 2 or 3, sorted.

        Internal vertices must avoid ``forbidden``; the endpoints are exempt.
        A 2-edge path's middle vertex is a common neighbour of a and b, and a
        3-edge path a-x-y-b has y a common neighbour of x and b, so each
        length is read off neighbour-set intersections.
        """
        if a == b:
            raise GraphError("path endpoints must differ")
        if length not in (2, 3):
            raise GraphError("path search takes 2 or 3 edges, not %r" % length)
        nbr = self._nbr
        if a not in nbr or b not in nbr:
            return []
        # no internal vertex is an endpoint or forbidden
        skip = {a, b}.union(forbidden)
        if length == 2:
            return [(a, x, b) for x in sorted(nbr[a] & nbr[b] - skip)]
        return [(a, x, y, b) for x in sorted(nbr[a] - skip)
                for y in sorted(nbr[x] & nbr[b] - skip)]

    def cycles_up_to(self) -> list:
        """All simple cycles of length 4 to 6, once up to rotation/reflection,
        in sorted order.

        Each cycle is reported as a vertex tuple starting at its smallest
        vertex, oriented so the second vertex is smaller than the last.  The
        search nests one loop per position over sorted neighbour lists, every
        later vertex larger than the first, and closes a path before it
        extends it, so the tuples come out in lexicographic order.
        """
        cycles = []
        nbrs = {v: sorted(ns) for v, ns in self._nbr.items()}
        for a in sorted(nbrs):
            close = self._nbr[a]  # a path from a closes at a neighbour of a
            for b in nbrs[a]:
                if b <= a:
                    continue
                for c in nbrs[b]:
                    if c <= a:
                        continue
                    for d in nbrs[c]:
                        if d <= a or d == b:
                            continue
                        if b < d and d in close:
                            cycles.append((a, b, c, d))
                        for e in nbrs[d]:
                            if e <= a or e == b or e == c:
                                continue
                            if b < e and e in close:
                                cycles.append((a, b, c, d, e))
                            for f in nbrs[e]:
                                if b < f and f in close and f != c and f != d:
                                    cycles.append((a, b, c, d, e, f))
        return cycles

    # -- disk extraction ---------------------------------------------------------

    def disk_subgraph(self, cycle) -> "PlaneGraph":
        """Subgraph drawn in the closed disk bounded by ``cycle``, with the
        cycle as its outer face.

        ``cycle`` must be a simple cycle of this graph, not the outer face's
        boundary, in the outer face's component.  The disk's faces are those
        ``_disk_faces`` reads off the dual tree, at O(faces) per call; the
        subgraph keeps the darts of those faces and of the cycle, and is one
        validated build whose faces must be exactly the disk's plus the cycle
        itself, which ``re_embed`` makes its outer face.
        """
        cycle = tuple(cycle)
        outer = self.outer_face
        if outer is None:
            raise GraphError("disk extraction needs a designated outer face")
        k = len(cycle)
        if k < 3 or len(set(cycle)) != k:
            raise GraphError("not a simple cycle: %r" % (cycle,))
        darts = [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
        for u, v in darts:
            if not self.has_edge(u, v):
                raise GraphError("not a cycle of this graph: missing edge %d-%d" % (u, v))
        if k == outer.length and {frozenset(d) for d in darts} == outer.edge_set:
            raise GraphError("cycle bounds the outer face")

        boundary, disk_faces = self._disk_faces(cycle)
        kept = set(boundary)  # the disk's faces hold the reverse darts
        for f in disk_faces:
            kept.update(f.darts)
        verts = sorted({v for v, _ in kept})
        rot = {v: tuple(u for u in self._rot[v] if (v, u) in kept) for v in verts}
        sub = PlaneGraph(rot)
        outer = sub._face_with(_canonical_walk(boundary))
        if outer is None or len(sub._faces) != len(disk_faces) + 1:
            raise InternalInvariantError("disk extraction produced %d faces, not the disk's %d "
                                         "and its boundary" % (len(sub._faces), len(disk_faces)))
        return sub.re_embed(outer)

    def _disk_faces(self, cycle):
        """The faces inside the closed disk bounded by ``cycle``, and the
        cycle's dart walk that keeps them on its right, which is the disk's
        outer face walk.

        ``cycle`` must be a simple cycle of this graph that does not bound
        the outer face; ``disk_subgraph`` checks that for a caller's cycle.
        A face lies inside when its path in ``_dual_tree`` crosses the cycle
        an odd number of times, so each cycle edge must have one face on
        each side: one that does not is a broken embedding, reported as a
        cycle that encloses no face.
        """
        darts = tuple(zip(cycle, cycle[1:] + cycle[:1]))
        cut = set(darts).union((v, u) for u, v in darts)
        index = self._dart_face_index
        entry, order = self._dual_tree()
        odd = {order[0]: False}  # face -> whether its tree path crosses the cycle oddly
        for c in order[1:]:
            u, v = entry[c]
            odd[c] = odd[index[v, u]] != ((u, v) in cut)
        if index[darts[0]] not in odd:
            raise GraphError("outer face lies in a different component than the cycle")
        if any(odd[index[u, v]] == odd[index[v, u]] for u, v in darts):
            raise InternalInvariantError("cycle does not enclose any face")
        if odd[index[darts[0]]]:  # the darts' own faces are inside
            darts = tuple((v, u) for u, v in reversed(darts))
        return darts, [self._faces[j] for j in sorted(odd) if odd[j]]

    def _dual_tree(self):
        """The dual's breadth-first tree from the designated outer face, over
        its component: ``(entry, order)``, where ``entry`` maps each face to
        the dart of it through which the search entered it (the outer face to
        None), and ``order`` lists the faces in search order, parents first."""
        index, faces = self._dart_face_index, self._faces
        entry = {self._outer: None}
        order = [self._outer]
        for f in order:  # the list grows while it is read: a breadth-first queue
            for u, v in faces[f].darts:
                c = index[v, u]
                if c not in entry:
                    entry[c] = (v, u)
                    order.append(c)
        return entry, order

    def _subtree_sums(self, weights) -> dict:
        """Per-dart subtree totals of ``_dual_tree``, on a connected graph.

        ``weights`` holds one tuple of numbers per face, in face order.  The
        dart through which the search enters a face maps to the sum of
        ``weights`` over that face's subtree, its reverse to the negated sum,
        and every other dart to nothing.  Summed over the darts of a simple
        cycle, this is discrete Stokes: it gives the total weight of the side
        of the darts' own faces if that side does not hold the outer face,
        and minus the total of the other side if it does: the tree path from
        the outer face to a face enters the side without the outer face once
        more than it leaves it when the face lies there, else as often.
        """
        index = self._dart_face_index
        entry, order = self._dual_tree()
        totals = [list(w) for w in weights]
        sums = {}
        for c in reversed(order[1:]):  # children before parents
            u, v = entry[c]
            t = totals[c]
            parent = totals[index[v, u]]
            for i, x in enumerate(t):
                parent[i] += x
            sums[u, v] = tuple(t)
            sums[v, u] = tuple(-x for x in t)
        return sums

    def __repr__(self):
        return "PlaneGraph(n=%d, m=%d)" % (self.n, self.m)


class Rotation(dict):
    """A mutable rotation system, vertex -> clockwise neighbour list, with
    the read queries of ``PlaneGraph``."""

    __slots__ = ()
    vertices = property(lambda self: tuple(sorted(self)))
    n = property(len)
    rotations = property(lambda self: self)
    has_vertex = dict.__contains__

    @classmethod
    def of(cls, g: PlaneGraph) -> "Rotation":
        return cls((v, list(g.rotation(v))) for v in g.vertices)

    def degree(self, v) -> int:
        return len(self[v])

    def neighbors(self, v) -> frozenset:
        return frozenset(self[v])

    def has_edge(self, u, v) -> bool:
        return v in self.get(u, ())

    def face_darts(self, dart, pos=None) -> list:
        """The darts of the face through ``dart``, in walk order from it;
        ``pos``, if given, maps each dart (v, u) to u's index in v's rotation."""
        walk, (u, v) = [dart], dart
        while True:
            ns = self[v]
            i = ns.index(u) if pos is None else pos[v, u]
            # the next-edge rule of the module docstring
            u, v = v, ns[(i + 1) % len(ns)]
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
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise GraphError("first line must be 'n m'") from None
    if n < 0 or m < 0:
        raise GraphError("negative count in first line: %d %d" % (n, m))
    rotation = {}
    outer_walk = None
    for line in lines[1:]:
        # a missing colon fails the unpacking, a non-integer field the int()
        try:
            left, right = line.split(":", 1)
            entries = tuple(int(t) for t in right.split())
            v = None if left.strip() == "outer" else int(left)
        except ValueError:
            raise GraphError("malformed line: %r" % line) from None
        if v is None:
            if outer_walk is not None:
                raise GraphError("duplicate outer line")
            outer_walk = entries
        elif v in rotation:
            raise GraphError("duplicate rotation line for vertex %d" % v)
        else:
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


def cycle_graph(k) -> PlaneGraph:
    """The k-cycle on vertices 1..k."""
    return PlaneGraph({v: ((v - 2) % k + 1, v % k + 1) for v in range(1, k + 1)})

