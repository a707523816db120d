"""Instance-level discharging: initial charges, Rules 0-4, dangerous cycles.

Charges are exact rationals.  Elements are keyed as ("v", vertex) or
("f", Face); the transfer ledger is replayable and conserves the Euler
total of -8 on every connected input.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import configurations
from .plane_graph import Face, GraphError, InternalInvariantError, PlaneGraph

THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class Transfer:
    rule: int
    source: tuple
    target: tuple
    amount: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    initial: dict
    transfers: tuple
    final: dict

    def total_initial(self) -> Fraction:
        return sum(self.initial.values(), Fraction(0))

    def total_final(self) -> Fraction:
        return sum(self.final.values(), Fraction(0))


def _element_charges(g: PlaneGraph) -> dict:
    """Initial charges deg-4 / |f|-4; they sum to -8 on a connected graph."""
    initial = {("v", v): Fraction(g.degree(v) - 4) for v in g.vertices}
    for f in g.faces():
        initial[("f", f)] = Fraction(f.length - 4)
    return initial


def _outer_cycle(g: PlaneGraph) -> Face:
    """The layer's one input gate: g's outer cycle, once g is a connected
    triangle-free graph whose outer face is a cycle of length <= 6, else
    ``GraphError``, whose message ``audit`` reports as its one failure."""
    k = g.outer_face
    if k is None:
        raise GraphError("no outer face designated")
    if not k.is_cycle():
        raise GraphError("outer face is not bounded by a cycle")
    if k.length > 6:
        raise GraphError("outer cycle longer than 6")
    if not g.is_connected():
        raise GraphError("graph is disconnected")
    if not g.is_triangle_free():
        raise GraphError("graph contains a triangle")
    return k


def apply_rules(g: PlaneGraph) -> ChargeLedger:
    """Run Rules 0-4 in one pass over the inner faces; g must pass ``_outer_cycle``.

    Each face reads its outer-cycle vertices ``on_k`` and internal 3-vertices
    ``fed`` once.  Each rule keeps its own list, so the ledger holds the
    transfers rule by rule and, within a rule, face by face."""
    k = _outer_cycle(g)
    kv = k.vertex_set
    r0, r1, r2, r3, r4 = [], [], [], [], []
    for f in g.faces():
        if f == k:
            continue
        on_k = sorted(f.vertex_set & kv)
        fed = sorted(v for v in f.vertex_set - kv if g.degree(v) == 3)
        # Rule 0: a face pays 1/3 to each incident outer-cycle vertex of degree 2
        r0 += (Transfer(0, ("f", f), ("v", v), THIRD) for v in on_k if g.degree(v) == 2)
        # Rule 1: a face pays 1/3 to each incident internal vertex of degree 3
        r1 += (Transfer(1, ("f", f), ("v", v), THIRD) for v in fed)
        # Rule 2: outer-cycle vertices refund a 4-face that feeds an internal 3-vertex
        if f.length == 4 and on_k and fed:
            share = Fraction(1, 3 * len(on_k))
            r2 += (Transfer(2, ("v", v), ("f", f), share) for v in on_k)
        if f.length != 5:
            continue
        # Rule 3: a 6-face pays 1/3 to a 5-face across each shared edge whose
        # endpoints are internal vertices of degree 3 (so the 6-face is not k)
        for u, v in f.darts:
            if u in fed and v in fed:
                other = g.face_of_dart((v, u))
                if other.length == 6:
                    r3.append(Transfer(3, ("f", other), ("f", f), THIRD))
        # Rule 4: an outer-cycle vertex pays 1/3 to a 5-face through each adjacent
        # internal 3-vertex on that face whose off-face neighbor it is
        for u in f.vertex_walk():
            if u in fed:
                # a triangle-free 5-face is a chordless 5-cycle, so u has one
                # off-face neighbour: a chord would close a triangle
                (v,) = g.neighbors(u) - f.vertex_set
                if v in kv:
                    r4.append(Transfer(4, ("v", v), ("f", f), THIRD))

    # each exact amount moves from source to target: the totals agree
    initial = _element_charges(g)
    final = dict(initial)
    transfers = tuple(r0 + r1 + r2 + r3 + r4)
    for t in transfers:
        final[t.source] -= t.amount
        final[t.target] += t.amount
    return ChargeLedger(initial, transfers, final)


@dataclass(frozen=True)
class DangerousCycle:
    """A dangerous cycle and the number of vertices in its closed disk."""

    cycle: tuple
    interior_n: int


def hexagon_exception(nbrs):
    """"C6c" or "C6v" when the triangle-free graph given by its neighbour
    sets is the hexagon with one chord or with a hub, else None.

    Its domain is triangle-free graphs: its callers pass the disks of a
    graph that passed ``_outer_cycle``, and that graph itself.  It is exact
    there: a triangle-free graph with degrees 3,3,2,2,2,2 whose two
    3-vertices are adjacent is a theta graph with paths of 1, 3 and 3 edges,
    which is C6c; one with degrees 3,3,3,3,2,2,2 and a 3-vertex whose
    neighbours all have degree 3 is that hub over a 6-cycle, which is C6v.
    """
    degs = sorted(len(ns) for ns in nbrs.values())
    threes = [x for x, ns in nbrs.items() if len(ns) == 3]
    if degs == [2, 2, 2, 2, 3, 3] and threes[1] in nbrs[threes[0]]:
        return "C6c"
    if degs == [2, 2, 2, 3, 3, 3, 3] and any(all(len(nbrs[u]) == 3 for u in nbrs[x])
                                             for x in threes):
        return "C6v"
    return None


def dangerous_cycles(g: PlaneGraph) -> list:
    """All cycles of length <= 6 whose closed disk is not C, C6c or C6v, in
    the sorted order of ``cycles_up_to``, each with its disk's vertex count.

    The graph must pass ``_outer_cycle``, else ``GraphError``.
    No disk is flooded or built: one ``PlaneGraph._subtree_sums`` pass gives
    every cycle its disk's faces, face lengths and vertices, each vertex
    counted at the face of its first dart.  A cycle with one side a single
    face of its length bounds the outer face or a bare disk, so it is never
    dangerous.  Every other disk must satisfy Euler's formula on its counts,
    and only one with the counts of C6c or C6v reads its faces, as the
    neighbour sets that ``hexagon_exception`` tests.
    """
    _outer_cycle(g)
    index, faces = g._dart_face_index, g.faces()
    weights = [[1, f.length, 0] for f in faces]
    pos = {}  # dart (v, u) -> u's position in v's rotation
    for v in g.vertices:
        ns = g.rotation(v)
        weights[index[v, ns[0]]][2] += 1
        pos.update(((v, u), i) for i, u in enumerate(ns))
    sums = g._subtree_sums(weights)
    total_f, total_l = len(faces), 2 * g.m
    out = []
    for cyc in g.cycles_up_to():
        k = len(cyc)
        darts = list(zip(cyc[-1:] + cyc[:-1], cyc))
        nf = nl = nv = 0
        for d in darts:
            t = sums.get(d)  # None off the tree
            if t:
                nf += t[0]
                nl += t[1]
                nv += t[2]
        forward = nf > 0  # the disk is on the side of the forward darts' faces
        if not forward:
            nf, nl, nv = -nf, -nl, -nv
        if (nf == 1 and nl == k) or (total_f - nf == 1 and total_l - nl == k):
            continue  # facial
        # the disk holds its inner vertices and the cycle's; a cycle vertex c
        # between p and q is already in nv when its first dart's face is on the
        # disk's side, and on the forward side that is when p comes after q in
        # c's rotation
        nv += k
        p, c = cyc[-2:]
        for q in cyc:
            if (pos[c, p] > pos[c, q]) == forward:
                nv -= 1
            p, c = c, q
        m2 = nl + k  # twice the edge count
        if 2 * (nv + nf + 1) - m2 != 4:
            raise InternalInvariantError("disk of %r breaks Euler (V-E+F = %d-%d/2+%d)"
                                         % (cyc, nv, m2, nf + 1))
        if (nv, m2) in ((6, 14), (7, 18)):  # (V, 2E) of C6c and of C6v
            # C6c and C6v each have one embedding, in which every inner face
            # has an edge on the outer cycle: a disk with a face away from
            # its cycle is neither
            inside = {index[d if forward else d[::-1]] for d in darts}
            if len(inside) == nf:
                nbrs = {}
                for i in inside:
                    for u, v in faces[i].darts:
                        nbrs.setdefault(u, set()).add(v)
                        nbrs.setdefault(v, set()).add(u)
                if hexagon_exception(nbrs) is not None:
                    continue
        out.append(DangerousCycle(cyc, nv))
    return out


@dataclass(frozen=True)
class ElementVerdict:
    """A vertex or face whose final charge is below its bound."""

    element: tuple
    final_charge: Fraction
    bound: Fraction


@dataclass(frozen=True)
class AuditReport:
    hypothesis_ok: bool
    hypothesis_failures: tuple
    ledger: ChargeLedger | None
    violations: tuple
    configuration: configurations.Configuration | None


def _hypothesis_failures(g: PlaneGraph) -> list:
    try:
        found = dangerous_cycles(g)
    except GraphError as e:
        return [str(e)]
    if g.n == g.m == g.outer_face.length:
        return ["graph equals its outer cycle"]
    shape = hexagon_exception({v: g.neighbors(v) for v in g.vertices}) if g.n <= 7 else None
    if shape is not None:
        return ["graph is the %s exception"
                % ("chorded-hexagon" if shape == "C6c" else "hub-hexagon")]
    return ["dangerous cycle %s" % (dc.cycle,) for dc in found]


def audit(g: PlaneGraph) -> AuditReport:
    """Check the final-charge case analysis and extract a non-interfering pattern.

    Hypothesis violations (exceptional graph, dangerous cycle, bad outer face)
    are reported, not silently ignored.  ``violations`` lists, by ``repr``, the
    elements below their bound: -5/3 at an outer-cycle vertex, else 0.  No
    rule pays or charges the outer face, so it stays at its bound |K| - 4.
    """
    fails = _hypothesis_failures(g)
    if fails:
        return AuditReport(False, tuple(fails), None, (), None)
    k = g.outer_face
    kv = k.vertex_set
    ledger = apply_rules(g)
    violations = []
    for element, charge in ledger.final.items():
        if element == ("f", k):
            continue
        kind, obj = element
        bound = Fraction(-5, 3) if kind == "v" and obj in kv else Fraction(0)
        if charge < bound:
            violations.append(ElementVerdict(element, charge, bound))
    violations.sort(key=lambda v: repr(v.element))
    # kind by kind in ``KINDS`` order, stopping at the first that avoids k
    for row in configurations.KINDS:
        for c in row[1](g):
            if not configurations.interferes(c, k):
                return AuditReport(True, (), ledger, tuple(violations), c)
    raise InternalInvariantError(
        "hypotheses hold but no non-interfering configuration exists")
