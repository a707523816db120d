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


def _vkey(v):
    return ("v", v)


def _fkey(f: Face):
    return ("f", f)


def _element_charges(g: PlaneGraph) -> dict:
    initial = {_vkey(v): Fraction(g.degree(v) - 4) for v in g.vertices}
    for f in g.faces():
        initial[_fkey(f)] = Fraction(f.length - 4)
    return initial


def initial_charges(g: PlaneGraph) -> ChargeLedger:
    """Initial charges deg-4 / |f|-4; they always sum to -8 when connected."""
    if not g.is_connected():
        raise GraphError("initial charges are defined for connected graphs")
    if g.outer_face is None:
        raise GraphError("designate an outer face first")
    initial = _element_charges(g)
    return ChargeLedger(initial, (), dict(initial))


def _outer_cycle(g: PlaneGraph) -> Face:
    k = g.outer_face
    if k is None:
        raise GraphError("no outer face designated")
    if not k.is_cycle():
        raise GraphError("outer face is not bounded by a cycle")
    if k.length > 6:
        raise GraphError("outer cycle longer than 6")
    return k


def apply_rules(g: PlaneGraph) -> ChargeLedger:
    """Run Rules 0-4 once each over all qualifying incidences."""
    if not g.is_connected():
        raise GraphError("discharging runs on connected graphs")
    if not g.is_triangle_free():
        raise GraphError("discharging requires a triangle-free graph")
    k = _outer_cycle(g)
    kv = k.vertex_set
    faces = [f for f in g.faces() if f != k]

    def internal(v) -> bool:
        return v not in kv

    transfers = []

    def send(rule, src, dst, amount):
        transfers.append(Transfer(rule, src, dst, amount))

    # Rule 0: non-outer face pays 1/3 to each incident outer-cycle vertex of degree 2
    for f in faces:
        for v in sorted(f.vertex_set):
            if v in kv and g.degree(v) == 2:
                send(0, _fkey(f), _vkey(v), THIRD)
    # Rule 1: each face pays 1/3 to each incident internal vertex of degree 3
    for f in faces:
        for v in sorted(f.vertex_set):
            if internal(v) and g.degree(v) == 3:
                send(1, _fkey(f), _vkey(v), THIRD)
    # Rule 2: outer-cycle vertices refund 4-faces that feed an internal 3-vertex
    for f in faces:
        if f.length != 4:
            continue
        on_k = sorted(f.vertex_set & kv)
        if not on_k:
            continue
        if not any(internal(v) and g.degree(v) == 3 for v in f.vertex_set):
            continue
        share = Fraction(1, 3 * len(on_k))
        for v in on_k:
            send(2, _vkey(v), _fkey(f), share)
    # Rule 3: a 6-face pays 1/3 to a 5-face across each shared edge whose
    # endpoints are internal vertices of degree 3
    for f in faces:
        if f.length != 5:
            continue
        for u, v in f.darts:
            if not (internal(u) and internal(v)):
                continue
            if g.degree(u) != 3 or g.degree(v) != 3:
                continue
            other = g.face_of_dart((v, u))
            if other.length == 6 and other != k:
                send(3, _fkey(other), _fkey(f), THIRD)
    # Rule 4: an outer-cycle vertex pays 1/3 to a 5-face through each adjacent
    # internal 3-vertex on that face whose off-face neighbor it is
    for f in faces:
        if f.length != 5:
            continue
        walk = f.vertex_walk()
        for i, u in enumerate(walk):
            if not (internal(u) and g.degree(u) == 3):
                continue
            on_walk = {walk[(i - 1) % f.length], walk[(i + 1) % f.length]}
            off = g.neighbors(u) - on_walk
            if len(off) != 1:
                continue  # non-simple walk; u has no single off-face neighbor
            (v,) = off
            if v not in f.vertex_set and v in kv:
                send(4, _vkey(v), _fkey(f), THIRD)

    initial = _element_charges(g)
    final = dict(initial)
    for t in transfers:
        final[t.source] -= t.amount
        final[t.target] += t.amount
    ledger = ChargeLedger(initial, tuple(transfers), final)
    if ledger.total_final() != ledger.total_initial():
        raise InternalInvariantError("charge was created or lost")
    return ledger


@dataclass(frozen=True)
class DangerousCycle:
    """A dangerous cycle and the number of vertices in its closed disk."""

    cycle: tuple
    interior_n: int


def hexagon_exception(nbrs):
    """"C6c" or "C6v" when the graph given by its neighbour sets is the
    hexagon with one chord or with a hub, else None.

    Exact on every graph: a triangle-free graph with degrees 3,3,2,2,2,2 whose
    two 3-vertices are adjacent is a theta graph with paths of 1, 3 and 3
    edges, which is C6c; one with degrees 3,3,3,3,2,2,2 and a 3-vertex whose
    neighbours all have degree 3 is that hub over a 6-cycle, which is C6v.
    """
    degs = sorted(len(ns) for ns in nbrs.values())
    if degs == [2, 2, 2, 2, 3, 3]:
        u, v = (x for x, ns in nbrs.items() if len(ns) == 3)
        shape = "C6c" if v in nbrs[u] else None
    elif degs == [2, 2, 2, 3, 3, 3, 3]:
        shape = "C6v" if any(len(ns) == 3 and all(len(nbrs[u]) == 3 for u in ns)
                             for ns in nbrs.values()) else None
    else:
        return None
    if any(nbrs[u] & nbrs[v] for u in nbrs for v in nbrs[u]):
        return None  # a triangle
    return shape


def _interior(cyc, faces):
    """``(V, excused)`` for the disk made of ``faces``, read from the faces'
    darts with no graph built: V is the distinct dart tails, and ``excused``
    says the disk is C6c or C6v.  Every disk is first checked against Euler's
    formula on the faces' counts, which is what a validated build of it would
    check for a sub-rotation of a valid host; a failure is a bug."""
    n = len({u for f in faces for u, _ in f.darts})
    m2 = sum(f.length for f in faces) + len(cyc)  # twice the edge count
    if 2 * (n + len(faces) + 1) - m2 != 4:
        raise InternalInvariantError("disk of %r breaks Euler (V-E+F = %d-%d/2+%d)"
                                     % (cyc, n, m2, len(faces) + 1))
    if (n, m2) not in ((6, 14), (7, 18)):  # (V, 2E) of C6c and of C6v
        return n, False
    nbrs = {}
    for f in faces:
        for u, v in f.darts:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
    return n, hexagon_exception(nbrs) is not None


def dangerous_cycles(g: PlaneGraph) -> list:
    """All cycles of length <= 6 whose closed disk is not C, C6c or C6v.

    Each cycle is flooded once and its disk classified from the flood's
    faces, with no graph built: one inner face of the cycle's length is the
    bare cycle; any other disk passes an Euler count on its faces, and only
    one with the counts of C6c or C6v is read as neighbour sets and tested
    with ``hexagon_exception``.  A found cycle carries its disk's vertex count.
    """
    k = _outer_cycle(g)
    k_edges = k.edge_set
    out = []
    for cyc in g.cycles_up_to(6):
        if len(cyc) == k.length and k_edges == frozenset(
                frozenset((cyc[i - 1], cyc[i])) for i in range(len(cyc))):
            continue  # bounds the outer face
        _, faces = g._disk_faces(cyc)
        if len(faces) == 1 and faces[0].length == len(cyc):
            continue  # the disk is the cycle itself
        n, excused = _interior(cyc, faces)
        if not excused:
            out.append(DangerousCycle(cyc, n))
    return out


@dataclass(frozen=True)
class ElementVerdict:
    element: tuple
    final_charge: Fraction
    bound: Fraction
    ok: bool


@dataclass(frozen=True)
class AuditReport:
    hypothesis_ok: bool
    hypothesis_failures: tuple
    ledger: ChargeLedger | None
    verdicts: tuple
    violations: tuple
    configuration: configurations.Configuration | None

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and self.configuration is not None


def _hypothesis_failures(g: PlaneGraph) -> list:
    fails = []
    try:
        k = _outer_cycle(g)
    except GraphError as e:
        return [str(e)]
    if not g.is_connected():
        fails.append("graph is disconnected")
        return fails
    if not g.is_triangle_free():
        fails.append("graph contains a triangle")
    if g.n == k.length and g.m == k.length:
        fails.append("graph equals its outer cycle")
    shape = hexagon_exception({v: g.neighbors(v) for v in g.vertices}) if g.n <= 7 else None
    if shape is not None:
        fails.append("graph is the %s exception"
                     % ("chorded-hexagon" if shape == "C6c" else "hub-hexagon"))
    if not fails:
        for dc in dangerous_cycles(g):
            fails.append("dangerous cycle %s" % (dc.cycle,))
    return fails


def audit(g: PlaneGraph) -> AuditReport:
    """Check the final-charge case analysis and extract a non-interfering pattern.

    Hypothesis violations (exceptional graph, dangerous cycle, bad outer face)
    are reported, not silently ignored.
    """
    fails = _hypothesis_failures(g)
    if fails:
        return AuditReport(False, tuple(fails), None, (), (), None)
    k = g.outer_face
    kv = k.vertex_set
    ledger = apply_rules(g)
    verdicts = []
    for element, charge in sorted(ledger.final.items(), key=lambda kv_: repr(kv_[0])):
        kind, obj = element
        if kind == "f":
            if obj == k:
                bound = Fraction(k.length - 4)
            else:
                bound = Fraction(0)
        elif obj in kv:
            bound = Fraction(-5, 3)
        else:
            bound = Fraction(0)
        verdicts.append(ElementVerdict(element, charge, bound, charge >= bound))
    violations = tuple(v for v in verdicts if not v.ok)
    config = None
    for c in configurations.find_all(g):
        if not configurations.interferes(c, k):
            config = c
            break
    if config is None:
        raise InternalInvariantError(
            "hypotheses hold but no non-interfering configuration exists")
    return AuditReport(True, (), ledger, tuple(verdicts), violations, config)
