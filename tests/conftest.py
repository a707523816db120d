import pytest

from trifree import corpus
from trifree.plane_graph import embed_edges


@pytest.fixture(scope="session")
def golden():
    return corpus.golden_graphs()


@pytest.fixture(scope="session")
def expectations():
    return corpus.golden_expectations()


@pytest.fixture(scope="session")
def corpus7():
    return corpus.enumerate_small(7)


@pytest.fixture(scope="session")
def corpus8():
    return corpus.enumerate_small(8)


@pytest.fixture(scope="session")
def corpus9():
    return corpus.enumerate_small(9)


@pytest.fixture(scope="session")
def two_cycles_text():
    """A 4-cycle and a disjoint 5-cycle, with the 4-cycle's face as outer."""
    return ("9 9\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n"
            "5: 6 9\n6: 7 5\n7: 8 6\n8: 9 7\n9: 5 8\nouter: 1 2 3 4\n")


@pytest.fixture(scope="session")
def k4_outer_text():
    """K4 with the face 1-2-4 as outer: the smallest input with a triangle."""
    return "4 6\n1: 2 3 4\n2: 1 4 3\n3: 1 2 4\n4: 1 3 2\nouter: 1 2 4\n"


@pytest.fixture(scope="session")
def cube():
    return embed_edges(range(1, 9), [(1, 2), (2, 3), (3, 4), (4, 1),
                                     (5, 6), (6, 7), (7, 8), (8, 5),
                                     (1, 5), (2, 6), (3, 7), (4, 8)])


@pytest.fixture(scope="session")
def dodecahedron():
    import networkx as nx
    g = nx.dodecahedral_graph()
    relabel = {v: v + 1 for v in g.nodes}
    return embed_edges(sorted(relabel.values()),
                       [(relabel[a], relabel[b]) for a, b in g.edges])
