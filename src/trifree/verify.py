"""Oracle-grade verifier for independent sets.

Deliberately dumb and self-contained: the lifting code must never share
logic with the checks that certify its output.
"""
from __future__ import annotations


def violating_edge(graph, vertices):
    """Return an edge inside ``vertices``, or None if the set is independent.

    Also returns a pseudo-edge (v, v) if some v is not a vertex of the graph.
    """
    vs = list(vertices)
    for v in vs:
        if not graph.has_vertex(v):
            return (v, v)
    last = {v: i for i, v in enumerate(vs)}
    for i, u in enumerate(vs):
        nbrs = graph.rotation(u)
        if any(last.get(w, -1) > i for w in nbrs):
            # the earliest later partner, as a scan over all pairs finds it
            return next((u, v) for v in vs[i + 1:] if v in nbrs)
    return None


def is_independent_set(graph, vertices) -> bool:
    return violating_edge(graph, vertices) is None
