import pytest

from trifree import configurations as cf
from trifree.discharging import c6_chord, c6_hub
from trifree.plane_graph import (GraphError, PlaneGraph, cycle_graph,
                                 embed_edges, path_graph)

import oracles


def star3():
    return PlaneGraph({1: (2, 3, 4), 2: (1,), 3: (1,), 4: (1,)})


class TestFindC1:
    def test_c5_all_vertices(self):
        got = cf.find_c1(cycle_graph(5))
        assert [c.roles[0] for c in got] == [1, 2, 3, 4, 5]

    def test_cube_empty(self, cube):
        assert cf.find_c1(cube) == []

    def test_c5_dagger_degree2_vertices(self, golden):
        g = golden["c5_dagger"]
        got = sorted(c.roles[0] for c in cf.find_c1(g))
        assert got == oracles.naive_c1(g)
        assert len(got) == 4  # n=8, m=10 forces four degree-2 vertices


class TestFindC2:
    def test_star_three_instances(self):
        got = cf.find_c2(star3())
        assert len(got) == 3
        assert all(c.roles[0] == 1 for c in got)

    def test_cube_bipartite_pairs(self, cube):
        # the cube is bipartite, so no length-3 path joins two vertices in
        # the same part; every (v, u, w, w') choice qualifies
        got = cf.find_c2(cube)
        assert len(got) == 24
        assert sorted(c.roles for c in got) == oracles.naive_c2(cube)

    def test_c6v_hub_with_odd_pair(self):
        g = c6_hub()
        roles = {c.roles for c in cf.find_c2(g)}
        assert (7, 5, 1, 3) in roles

    def test_oracle_agreement(self, corpus8):
        for g in corpus8[::6]:
            got = sorted(c.roles for c in cf.find_c2(g))
            assert got == oracles.naive_c2(g)


class TestFindC3:
    def test_cube_twelve_instances(self, cube):
        got = cf.find_c3(cube)
        assert len(got) == 12
        assert sorted(c.roles for c in got) == oracles.naive_c3(cube)

    def test_c5_empty(self):
        assert cf.find_c3(cycle_graph(5)) == []

    def test_c6c_empty(self):
        assert cf.find_c3(c6_chord()) == []

    def test_oracle_agreement(self, corpus8):
        for g in corpus8[::6]:
            assert sorted(c.roles for c in cf.find_c3(g)) == oracles.naive_c3(g)


class TestFindC4:
    def test_c5_empty(self):
        assert cf.find_c4(cycle_graph(5)) == []

    def test_dodecahedron_agrees_with_oracle(self, dodecahedron):
        # adjacent-face off-neighbors sit at distance 2 via paths of even
        # length only, so the side conditions hold around every 5-face
        got = sorted(c.roles for c in cf.find_c4(dodecahedron))
        assert got == oracles.naive_c4(dodecahedron)
        assert len(got) == 120

    def test_positive_instance(self):
        # a 5-face ringed by pendant trees keeps u1..u4 far apart
        rot = {1: (5, 2, 6), 2: (1, 3, 7), 3: (2, 4, 8), 4: (3, 5, 9),
               5: (4, 1, 14, 15),
               6: (1, 10), 7: (2, 11), 8: (3, 12), 9: (4, 13),
               10: (6,), 11: (7,), 12: (8,), 13: (9,), 14: (5,), 15: (5,)}
        g = PlaneGraph(rot)
        got = cf.find_c4(g)
        assert got, "expected at least one C4 instance"
        assert sorted(c.roles for c in got) == oracles.naive_c4(g)

    def test_oracle_agreement(self, corpus8):
        for g in corpus8[::6]:
            assert sorted(c.roles for c in cf.find_c4(g)) == oracles.naive_c4(g)


class TestFindC5:
    def test_cube_twentyfour_instances(self, cube):
        got = cf.find_c5(cube)
        assert len(got) == 24
        assert sorted(c.roles for c in got) == oracles.naive_c5(cube)

    def test_c5_empty(self):
        assert cf.find_c5(cycle_graph(5)) == []

    def test_c6v_nonempty(self):
        assert cf.find_c5(c6_hub())

    def test_oracle_agreement(self, corpus8):
        for g in corpus8[::6]:
            assert sorted(c.roles for c in cf.find_c5(g)) == oracles.naive_c5(g)


class TestC5ToC2:
    def test_c6v_routes_through_hub(self):
        g = c6_hub()
        for c in cf.find_c5(g):
            c2 = cf.c5_to_c2(g, c)
            assert c2.kind == "C2"
            assert c2 in cf.find_c2(g)

    def test_direct_condition(self):
        # 4-face 1-2-3-4 with a length-3 path between 1 and 3 but none
        # between 2 and 4: the C2 must sit at vertex 1 or 2 accordingly
        edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 3), (2, 7)]
        g = embed_edges(range(1, 8), edges)
        inst = [c for c in cf.find_c5(g) if set(c.roles) == {1, 2, 3, 4}]
        assert inst
        for c in inst:
            c2 = cf.c5_to_c2(g, c)
            assert c2 in cf.find_c2(g)

    def test_kind_check(self):
        with pytest.raises(GraphError):
            cf.c5_to_c2(cycle_graph(4), cf.Configuration("C1", (1,)))

    def test_lemma_red5_on_corpus(self, corpus8):
        # whenever C5 appears in a plane triangle-free graph, C2 appears too
        for g in corpus8:
            c5s = cf.find_c5(g)
            if c5s:
                assert cf.find_c2(g)
                for c in c5s:
                    assert cf.c5_to_c2(g, c) in cf.find_c2(g)


class TestInterferes:
    def test_c1_internal(self):
        g = c6_hub()
        k = g.outer_face
        assert not cf.interferes(cf.Configuration("C1", (7,)), k)

    def test_c2_w_on_outer(self):
        g = c6_hub()
        k = g.outer_face
        assert cf.interferes(cf.Configuration("C2", (7, 5, 1, 3)), k)

    def test_c4_all_internal(self):
        k = c6_hub().outer_face
        c = cf.Configuration("C4", (101, 102, 103, 104, 105, 106, 107, 108, 109))
        assert not cf.interferes(c, k)

    def test_c3_only_diagonal_counts(self):
        k = c6_hub().outer_face
        # v2, v4 on the outer cycle do not interfere; v1, v3 do
        assert not cf.interferes(cf.Configuration("C3", (101, 1, 102, 3)), k)
        assert cf.interferes(cf.Configuration("C3", (1, 101, 102, 103)), k)

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            cf.Configuration("C9", ())


class TestFindAny:
    def test_c5_returns_c1(self):
        c = cf.find_any(cycle_graph(5))
        assert c.kind == "C1"

    def test_cube_returns_c2(self, cube):
        # C1 is absent (3-regular); C2 fires before C3 in the search order
        c = cf.find_any(cube)
        assert c.kind == "C2"

    def test_never_empty_on_corpus(self, corpus9):
        for g in corpus9:
            assert cf.find_any(g) is not None

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            cf.find_any(PlaneGraph({}))

    def test_tree_input(self):
        c = cf.find_any(path_graph(5))
        assert c.kind == "C1"
