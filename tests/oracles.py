"""Independent reference implementations used to cross-check the package.

Everything here is written naively on purpose: subset enumeration, plain
DFS, permutation scans.  None of it shares code with trifree internals;
``rebuild_solve_set`` drives only the public configuration and reduction
functions, the ``rebuild_*`` membership references only the public
``find_diamonds`` and ``diamond_reduce``, and ``recursive_avoiding_set``
those two, ``diamond_lift`` and ``exact_alpha``.
"""
import functools
import itertools
import random

import networkx as nx

from trifree import configurations, discharging, extremal, reductions, solver, verify
from trifree.plane_graph import (Face, GraphError, InternalInvariantError, PlaneGraph,
                                 Rotation, cycle_graph, embed_edges)


def path_graph(k, start=1):
    """The path on vertices start..start+k-1."""
    vs = list(range(start, start + k))
    return PlaneGraph({v: tuple(vs[j] for j in (i - 1, i + 1) if 0 <= j < k)
                       for i, v in enumerate(vs)})


_HEX = [(i, i % 6 + 1) for i in range(1, 7)]


@functools.cache
def c6_chord():
    """The 6-cycle with one chord splitting it into two 4-faces, outer face
    the hexagon."""
    g = embed_edges(range(1, 7), _HEX + [(3, 6)])
    return g.re_embed(g.find_face((1, 2, 3, 4, 5, 6)) or g.find_face((6, 5, 4, 3, 2, 1)))


@functools.cache
def c6_hub():
    """The 6-cycle with a hub adjacent to every other cycle vertex, outer face
    the hexagon."""
    g = embed_edges(range(1, 8), _HEX + [(7, 1), (7, 3), (7, 5)])
    return g.re_embed(g.find_face((1, 2, 3, 4, 5, 6)) or g.find_face((6, 5, 4, 3, 2, 1)))


def face_from_walk(darts):
    """The face with this cyclic dart walk, rotated to start at its smallest dart."""
    darts = tuple(darts)
    i = darts.index(min(darts))
    return Face(darts[i:] + darts[:i])


def delete_vertices(g, vs):
    """g minus vs, keeping rotation order."""
    vs = set(vs)
    return PlaneGraph({v: tuple(u for u in g.rotation(v) if u not in vs)
                       for v in g.vertices if v not in vs}, check=False)


def relabel(g, mapping):
    """g with every vertex v renamed mapping[v]."""
    return PlaneGraph({mapping[v]: tuple(mapping[u] for u in g.rotation(v))
                       for v in g.vertices}, check=False)


def to_networkx(g):
    """The abstract graph of g as a ``networkx.Graph``."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((v, u) for v in g.vertices for u in g.rotation(v) if u > v)
    return h


def isomorphic_small(g, h):
    """Abstract-graph isomorphism by VF2, for graphs with at most 12 vertices."""
    if g.n > 12 or h.n > 12:
        raise GraphError("isomorphic_small limited to 12 vertices")
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in g.vertices) != sorted(h.degree(v) for v in h.vertices):
        return False
    return nx.is_isomorphic(to_networkx(g), to_networkx(h))


def check_tight(g, alpha):
    """Whether g is triangle-free and meets (n+1)/3 with equality, given its
    exact independence number alpha."""
    return g.is_triangle_free() and 3 * alpha <= g.n + 1


def naive_alpha(g):
    """Maximum independent set size by enumerating all vertex subsets."""
    verts = list(g.vertices)
    assert len(verts) <= 16, "naive oracle limited to 16 vertices"
    best = 0
    for r in range(len(verts), 0, -1):
        if r <= best:
            break
        for subset in itertools.combinations(verts, r):
            if all(not g.has_edge(a, b) for a, b in itertools.combinations(subset, 2)):
                best = r
                break
    return best


def naive_paths(g, a, b, length, forbidden=()):
    """All simple a-b paths with exactly `length` edges, by plain DFS."""
    forbidden = set(forbidden)
    found = []

    def dfs(path):
        if len(path) - 1 == length:
            if path[-1] == b:
                found.append(tuple(path))
            return
        if path[-1] == b:
            return
        for w in sorted(g.neighbors(path[-1])):
            if w in path:
                continue
            if w != b and w in forbidden:
                continue
            dfs(path + [w])

    dfs([a])
    return found


def naive_cycles(g, max_len):
    """All simple cycles of length <= max_len, each as a frozenset of edges."""
    out = set()
    for cyc in nx.simple_cycles(to_networkx(g), length_bound=max_len):
        if len(cyc) < 3:
            continue
        edges = frozenset(frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))
                          for i in range(len(cyc)))
        out.add(edges)
    return out


def naive_c1(g):
    return sorted(v for v in g.vertices if g.degree(v) <= 2)


def naive_c2(g):
    """(v, u, w, w') quadruples, scanning vertices and neighbor orderings."""
    out = []
    for v in g.vertices:
        if g.degree(v) != 3:
            continue
        for u in sorted(g.neighbors(v)):
            w, w2 = sorted(g.neighbors(v) - {u})
            if not naive_paths(g, w, w2, 3):
                out.append((v, u, w, w2))
    return sorted(out)


def _quad_faces(g):
    return [f for f in g.faces() if f.length == 4 and f.is_cycle()]


def naive_c3(g):
    out = set()
    for f in _quad_faces(g):
        a, b, c, d = f.vertex_walk()
        if g.degree(a) == 3 and g.degree(c) == 3:
            out.add(min((a, b, c, d), (c, d, a, b)))
        if g.degree(b) == 3 and g.degree(d) == 3:
            out.add(min((b, c, d, a), (d, a, b, c)))
    return sorted(out)


def naive_c5(g):
    out = set()
    for f in _quad_faces(g):
        walk = f.vertex_walk()
        for i in range(4):
            quad = tuple(walk[(i + j) % 4] for j in range(4))
            for v1, v2, v3, v4 in (quad, (quad[1], quad[0], quad[3], quad[2])):
                if g.degree(v1) == 3 and g.degree(v2) == 3 and v1 < v2:
                    out.add((v1, v2, v3, v4))
    return sorted(out)


def naive_c4(g):
    """C4 instances via brute role enumeration over 5-face labelings."""
    out = set()
    for f in g.faces():
        if f.length != 5 or not f.is_cycle():
            continue
        walk = f.vertex_walk()
        labelings = []
        for i in range(5):
            fwd = tuple(walk[(i + j) % 5] for j in range(5))
            labelings.append(fwd)
            labelings.append(fwd[::-1])
        for vs in labelings:
            if any(g.degree(v) != 3 for v in vs[:4]):
                continue
            us = []
            for v in vs[:4]:
                off = sorted(g.neighbors(v) - set(vs))
                if len(off) != 1:
                    us = None
                    break
                us.append(off[0])
            if us is None:
                continue
            u1, u2, u3, u4 = us
            if u1 == u4 or u2 == u3:
                continue
            if u1 == u3 and u2 == u4:
                continue
            if g.has_edge(u1, u2) or g.has_edge(u3, u4):
                continue
            h = delete_vertices(g, vs)
            if naive_paths(h, u1, u4, 1) or naive_paths(h, u1, u4, 2):
                continue
            if naive_paths(h, u2, u3, 1) or naive_paths(h, u2, u3, 3):
                continue
            out.add(tuple(vs) + tuple(us))
    return sorted(out)


def naive_reduced_edges(g, c):
    """(vertex set, edge set) of the graph that configuration c (C1-C4)
    reduces g to, from the definitions: delete the configuration's vertices,
    identify C2's w, w' or C4's u2, u3 into max id + 1, add C4's edge u1u4."""
    roles = c.roles
    z = max(g.vertices) + 1
    image = {}
    extra = []
    if c.kind == "C1":
        deleted = {roles[0]} | set(g.neighbors(roles[0]))
    elif c.kind == "C2":
        deleted = {roles[0], roles[1]}
        image = {roles[2]: z, roles[3]: z}
    elif c.kind == "C3":
        deleted = set(roles) | set(g.neighbors(roles[0])) | set(g.neighbors(roles[2]))
    elif c.kind == "C4":
        deleted = set(roles[:5])
        image = {roles[6]: z, roles[7]: z}
        extra = [(roles[5], roles[8])]
    else:
        raise GraphError("no reduction for %s" % c.kind)
    verts = {image.get(v, v) for v in g.vertices if v not in deleted}
    edges = set()
    for a, b in [tuple(e) for e in g.edges] + extra:
        if a not in deleted and b not in deleted:
            edges.add(frozenset((image.get(a, a), image.get(b, b))))
    return verts, frozenset(edges)


def naive_diamonds(g):
    """Diamond tuples by scanning ordered 5-tuples of vertices."""
    out = set()
    for cyc in nx.simple_cycles(to_networkx(g), length_bound=5):
        if len(cyc) != 5:
            continue
        for i in range(5):
            for order in (1, -1):
                walk = tuple(cyc[(i + order * j) % 5] for j in range(5))
                u1, z1, z2, u2, w = walk
                if u1 > u2:
                    continue
                degs = tuple(g.degree(v) for v in walk)
                if degs != (3, 2, 2, 3, 3):
                    continue
                x1s = g.neighbors(u1) & g.neighbors(u2) - set(walk)
                x2s = g.neighbors(w) - set(walk)
                if len(x1s) == 1 and len(x2s) == 1:
                    out.add((u1, z1, z2, u2, w, min(x1s), min(x2s)))
    return sorted(out)


def quadratic_violating_edge(graph, vertices):
    """The first (u, v) with u before v in ``vertices`` that is an edge, by
    scanning all pairs; (v, v) for the first v that is not a vertex."""
    vs = list(vertices)
    for v in vs:
        if not graph.has_vertex(v):
            return (v, v)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if v in graph.rotation(u):
                return (u, v)
    return None


def sorted_faces(g):
    """Every face of ``g`` as its walk rotated to start at its smallest dart,
    in sorted order.  A walk is traced from every dart with the next-edge
    rule, so each face is traced once per dart and the copies are dropped."""
    succ = {}
    for v in g.vertices:
        ns = g.rotation(v)
        for i, u in enumerate(ns):
            succ[(u, v)] = (v, ns[(i + 1) % len(ns)])
    walks = set()
    for start in succ:
        walk, cur = [start], succ[start]
        while cur != start:
            walk.append(cur)
            cur = succ[cur]
        i = walk.index(min(walk))
        walks.add(tuple(walk[i:] + walk[:i]))
    return [Face(w) for w in sorted(walks)]


def naive_disk(g, cycle):
    """Whole-graph disk extraction: union-find over every face of the cycle's
    component, joining the two faces of each edge that is not on the cycle;
    the disk is every face outside the outer face's class."""
    cycle = tuple(cycle)
    outer = g.outer_face
    if outer is None:
        raise GraphError("disk extraction needs a designated outer face")
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        raise GraphError("not a simple cycle: %r" % (cycle,))
    cyc_edges = set()
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        if not g.has_edge(u, v):
            raise GraphError("not a cycle of this graph: missing edge %d-%d" % (u, v))
        cyc_edges.add(frozenset((u, v)))
    if len(cyc_edges) != k:
        raise GraphError("not a simple cycle: %r" % (cycle,))
    if cyc_edges == outer.edge_set and k == outer.length:
        raise GraphError("cycle bounds the outer face")
    comp = next(c for c in g.components() if cycle[0] in c)
    if outer.darts[0][0] not in comp:
        raise GraphError("outer face lies in a different component than the cycle")

    comp_faces = [f for f in g.faces() if f.darts[0][0] in comp]
    index = {f: i for i, f in enumerate(comp_faces)}
    parent = list(range(len(comp_faces)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for v in comp:
        for u in g.rotation(v):
            if u > v and frozenset((u, v)) not in cyc_edges:
                parent[find(index[g.face_of_dart((u, v))])] = find(index[g.face_of_dart((v, u))])
    outer_class = find(index[outer])
    disk_faces = [f for f in comp_faces if find(index[f]) != outer_class]
    if not disk_faces:
        raise InternalInvariantError("cycle does not enclose any face")
    kept = set(cyc_edges)
    for f in disk_faces:
        kept |= f.edge_set
    verts = sorted({v for e in kept for v in e})
    sub = PlaneGraph({v: tuple(u for u in g.rotation(v) if frozenset((u, v)) in kept)
                      for v in verts})
    boundary = [f for f in sub.faces() if f not in disk_faces]
    if len(boundary) != 1:
        raise InternalInvariantError("disk extraction produced %d boundary faces" % len(boundary))
    return sub.re_embed(boundary[0])


def vf2_exception(g):
    """The whole-graph C6c/C6v test by VF2: "C6c", "C6v" or None."""
    if g.n <= 12:
        if isomorphic_small(g, c6_chord()):
            return "C6c"
        if isomorphic_small(g, c6_hub()):
            return "C6v"
    return None


def vf2_dangerous_cycles(g):
    """Dangerous cycles with one validated disk build per cycle and C6c/C6v
    decided by VF2 against the two exceptional graphs."""
    k = g.outer_face
    if k is None or not k.is_cycle() or k.length > 6:
        raise GraphError("outer face is not a cycle of length at most 6")
    out = []
    for cyc in g.cycles_up_to(6):
        edges = frozenset(frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))
                          for i in range(len(cyc)))
        if edges == k.edge_set and len(cyc) == k.length:
            continue
        sub = g.disk_subgraph(cyc)
        if sub.n == len(cyc) and sub.m == len(cyc):
            continue
        if vf2_exception(sub) is not None:
            continue
        out.append(discharging.DangerousCycle(cyc, sub.n))
    return out


def grid(rows, cols):
    """The rows x cols square grid, vertex (i, j) numbered i * cols + j + 1."""
    def vid(i, j):
        return i * cols + j + 1
    return PlaneGraph({vid(i, j): tuple(vid(i + di, j + dj)
                                        for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0))
                                        if 0 <= i + di < rows and 0 <= j + dj < cols)
                       for i in range(rows) for j in range(cols)})


def cylinder(k, m):
    """C_k x P_m: m concentric k-cycles, consecutive ones joined by a matching."""
    def vid(i, j):
        return i * k + j % k + 1
    rot = {}
    for i in range(m):
        for j in range(k):
            ns = [vid(i, j + 1)] + ([vid(i + 1, j)] if i + 1 < m else [])
            ns += [vid(i, j - 1)] + ([vid(i - 1, j)] if i > 0 else [])
            rot[vid(i, j)] = tuple(ns)
    return PlaneGraph(rot)


def edge_deleted_member(steps, seed, i):
    """``generate_member(steps, seed)`` minus the edge at index i (taken
    modulo m) of its sorted edge list.  n stays 2 mod 3, so only the diamond
    descent can reject it, and it is never a member: every member but P2 has
    3m = 5n - 10 (C5 does, and each diamond adds 3 vertices and 5 edges)."""
    g = extremal.generate_member(steps, seed)
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    a, b = edges[i % len(edges)]
    return PlaneGraph({v: tuple(u for u in g.rotation(v) if {u, v} != {a, b})
                       for v in g.vertices})


def enumerate6_by_matrix():
    """Connected triangle-free planar graphs on <= 6 labeled vertices, counted
    up to isomorphism by adjacency matrix: the first labelled graph met of
    each class marks the matrices of its whole orbit under the vertex
    permutations as seen.

    Entirely independent of the package's grow-and-filter enumeration.
    """
    counts = {}
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        bit = {pair: 1 << i for i, pair in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        seen = set()
        counts[n] = 0
        for bits in range(1 << len(pairs)):
            if bits in seen:
                continue
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges)
            if not nx.is_connected(g):
                continue
            if any(set(g[a]) & set(g[b]) for a, b in g.edges):
                continue
            if not nx.check_planarity(g, counterexample=False)[0]:
                continue
            counts[n] += 1
            seen.update(sum(bit[min(p[a], p[b]), max(p[a], p[b])] for a, b in edges)
                        for p in perms)
    return counts


def traced_gen_random(spec):
    """``corpus.gen_random`` with whole-graph work at every step: the edge
    list is sorted afresh at each subdivision, and every face of the rotation
    is traced at each face insertion.  The random calls and the edits are the
    package's, so the output must be byte-identical."""
    if spec.n_max < 4:
        raise GraphError("random graphs grow from C4: n must be at least 4")
    rng = random.Random(spec.seed)
    c4 = cycle_graph(4)
    out = []
    for _ in range(spec.count):
        rot = Rotation.of(c4)
        while len(rot) < spec.n_max:
            fresh = max(rot) + 1
            if rng.random() < 0.45:
                edges = sorted((v, u) for v, ns in rot.items() for u in ns if v < u)
                u, v = edges[rng.randrange(len(edges))]
                rot[u][rot[u].index(v)] = fresh
                rot[v][rot[v].index(u)] = fresh
                rot[fresh] = [u, v]
                continue
            # every face, each walk from its smallest dart, in sorted order
            succ = {(u, v): (v, ns[(i + 1) % len(ns)])
                    for v, ns in rot.items() for i, u in enumerate(ns)}
            faces, traced = [], set()
            for start in sorted(succ):
                if start not in traced:
                    walk, cur = [start], succ[start]
                    while cur != start:
                        walk.append(cur)
                        cur = succ[cur]
                    traced.update(walk)
                    faces.append(walk)
            walk = [d[0] for d in faces[rng.randrange(len(faces))]]
            idxs = list(range(len(walk)))
            rng.shuffle(idxs)
            picks = []
            for i in idxs:
                u = walk[i]
                if any(u == walk[j] or rot.has_edge(u, walk[j]) for j in picks):
                    continue
                picks.append(i)
                if len(picks) == 3:
                    break
            picks.sort()
            for i in picks:
                ns = rot[walk[i]]
                ns.insert(ns.index(walk[i - 1]) + 1, fresh)
            rot[fresh] = [walk[i] for i in reversed(picks)]
        g = rot.build()
        assert g.is_triangle_free()
        out.append(g)
    return out


def rebuild_solve_set(g):
    """(independent set, trace) of g by the reduction chain that rebuilds a
    whole graph after every step: one public ``find_any`` / ``c5_to_c2`` /
    ``reduce`` / ``lift`` per step, components solved in ascending order of
    their smallest vertex, the trace in pre-order."""
    def component_graphs(h):
        comps = h.components()
        if len(comps) == 1:
            return [h]
        return [PlaneGraph({v: h.rotation(v) for v in comp}, check=False) for comp in comps]

    trace = []
    stack = [(None, component_graphs(g)[::-1], set())]
    while True:
        step, pending, found = stack[-1]
        if not pending:
            stack.pop()
            if step is None:
                return frozenset(found), tuple(trace)
            stack[-1][2].update(reductions.lift(step, frozenset(found)))
            continue
        comp = pending.pop()
        if comp.n <= solver.EXACT_BASE:
            found.update(solver.exact_alpha(comp)[1])
            continue
        c = configurations.find_any(comp)
        if c.kind == "C5":
            c = configurations.c5_to_c2(comp, c)
        reduced, step = reductions.reduce(comp, c)
        trace.append(step)
        stack.append((step, component_graphs(reduced)[::-1], set()))


def rebuild_is_member(g):
    """The membership trace of g by the descent that makes a validated graph
    per step: public ``find_diamonds`` and ``diamond_reduce`` on each graph,
    with connectivity checked at every step."""
    steps, h = [], g
    while True:
        if h.n == 2 and h.m == 1:
            return extremal.MembershipTrace(tuple(steps), extremal.P2)
        if h.n == 5 and all(h.degree(v) == 2 for v in h.vertices):
            return extremal.MembershipTrace(tuple(steps), extremal.C5)
        if h.n < 5 or h.n % 3 != 2 or not h.is_connected():
            return extremal.MembershipTrace((), extremal.NOT_MEMBER)
        diamonds = extremal.find_diamonds(h)
        if not diamonds:
            return extremal.MembershipTrace((), extremal.NOT_MEMBER)
        h, step = extremal.diamond_reduce(h, diamonds[0])
        steps.append(step)


def rebuild_replay(g, trace):
    """The graphs along a membership trace, from g down to its terminal, by
    one ``diamond_reduce`` (a validated build) per step."""
    graphs = [g]
    for step in trace.steps:
        reduced, replayed = extremal.diamond_reduce(graphs[-1], step.diamond)
        if replayed != step:
            raise GraphError("trace does not replay on this graph")
        graphs.append(reduced)
    return graphs


def rebuild_certificate(g, trace):
    """The certificate of a member's trace, lifted through the replayed
    graphs; every lift is checked with ``violating_edge`` against its host."""
    graphs = rebuild_replay(g, trace)
    last = graphs[-1]
    pairs = itertools.combinations(last.vertices, 2)
    s = ({last.vertices[0]} if trace.terminal == extremal.P2
         else set(next(p for p in pairs if not last.has_edge(*p))))
    for step, host in zip(reversed(trace.steps), reversed(graphs[:-1])):
        d, size = step.diamond, len(s)
        s = {d.u1 if v == step.v1 else d.w if v == step.v2 else v for v in s} | {d.z2}
        if verify.violating_edge(host, s) is not None or len(s) != size + 1:
            raise InternalInvariantError("diamond lift failed on its host")
    return frozenset(s)


def recursive_avoiding_set(g, f):
    """The face-avoiding maximum set of a member by the recursive chain that
    makes a validated graph and a face lookup per step, and backtracks over
    diamonds when a sub-call finds nothing: public ``find_diamonds``,
    ``diamond_reduce`` and ``diamond_lift``, ``exact_alpha`` on the terminal
    graph minus the face."""
    if any(g.degree(v) <= 2 for v in f.vertex_set):
        raise GraphError("face is incident with a vertex of degree at most two")

    def recurse(h, face, want):
        fv = face.vertex_set
        if h.n <= 11:
            alpha, witness = solver.exact_alpha(delete_vertices(h, fv))
            if alpha < want:
                return None
            return witness if alpha == want else frozenset(sorted(witness)[:want])
        for d in extremal.find_diamonds(h):
            if set(d.cycle) & fv:
                continue
            if d.x1 in fv and h.degree(d.x1) <= 3:
                continue
            reduced, step = extremal.diamond_reduce(h, d)
            new_face = reduced.find_face(face.vertex_walk())
            if new_face is None or new_face.darts != face.darts:
                continue
            sub = recurse(reduced, new_face, want - 1)
            if sub is not None:
                return extremal.diamond_lift(step, sub)
        return None

    face = g.find_face(f.vertex_walk())
    if face is None:
        raise GraphError("not a face of this graph: %r" % (f,))
    s = recurse(g, face, (g.n + 1) // 3)
    if s is None:
        raise InternalInvariantError("no avoiding set found")
    return frozenset(s)
