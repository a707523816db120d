import random

from trifree import verify
from trifree.extremal import generate_member
from trifree.plane_graph import cycle_graph

import oracles


def _subsets(g, rng, count):
    """Random vertex lists: independent, dependent, and with non-vertices."""
    vs = list(g.vertices)
    for _ in range(count):
        s = rng.sample(vs, rng.randint(0, len(vs)))
        yield s
        if g.m:
            a, b = sorted(next(iter(g.edges)))
            yield s + [b, a]
        yield s + [max(vs) + 1] + s[:1]
        ind = []
        for v in s:
            if not any(g.has_edge(v, u) for u in ind):
                ind.append(v)
        yield ind


def _assert_same_as_quadratic(g, rng, count):
    for s in _subsets(g, rng, count):
        assert verify.violating_edge(g, s) == oracles.quadratic_violating_edge(g, s), s
        assert verify.violating_edge(g, set(s)) == oracles.quadratic_violating_edge(g, set(s))


class TestViolatingEdge:
    def test_matches_quadratic_scan_on_corpus8(self, corpus8):
        rng = random.Random(8)
        for g in corpus8:
            _assert_same_as_quadratic(g, rng, 3)

    def test_matches_quadratic_scan_on_member(self):
        rng = random.Random(40)
        _assert_same_as_quadratic(generate_member(40, 3), rng, 30)

    def test_earliest_later_partner(self):
        g = cycle_graph(6)
        # 3 is the first vertex with a later neighbour; 4 comes before 2
        assert verify.violating_edge(g, [3, 1, 5, 4, 2]) == (3, 4)
        assert verify.violating_edge(g, [1, 3, 5, 2, 3]) == (1, 2)
        assert verify.violating_edge(g, [1, 3, 9]) == (9, 9)
        assert verify.violating_edge(g, [1, 3, 5]) is None
