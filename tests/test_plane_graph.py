import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trifree import corpus
from trifree.plane_graph import (GraphError, InternalInvariantError, PlaneGraph, Rotation,
                                 cycle_graph, embed_edges, parse, serialize)

import oracles

C5_TEXT = """\
5 5
1: 2 5
2: 1 3
3: 2 4
4: 3 5
5: 1 4
"""

K4_TEXT = """\
4 6
1: 2 3 4
2: 1 4 3
3: 1 2 4
4: 1 3 2
"""


def c5():
    return cycle_graph(5)


class TestParse:
    def test_c5_file(self):
        g = parse(C5_TEXT)
        assert g.n == 5 and g.m == 5
        assert sorted(f.length for f in g.faces()) == [5, 5]

    def test_c6v_file_faces(self):
        g = oracles.c6_hub()
        text = serialize(g)
        back = parse(text)
        assert back.n == 7
        assert sorted(f.length for f in back.faces()) == [4, 4, 4, 6]
        assert back.outer_face is not None and back.outer_face.length == 6

    def test_asymmetric_rotation_rejected(self):
        bad = "2 1\n1: 2\n2:\n"
        with pytest.raises(GraphError):
            parse(bad)

    def test_vertex_range_enforced(self):
        with pytest.raises(GraphError):
            parse("2 1\n1: 3\n3: 1\n")

    def test_huge_header_rejected_without_allocation(self):
        # the vertex check must not materialise 1..n
        tracemalloc.start()
        try:
            with pytest.raises(GraphError):
                parse("1000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_duplicate_outer_line_rejected(self):
        with pytest.raises(GraphError, match="outer"):
            parse(C5_TEXT + "outer: 1 2 3 4 5\nouter: 5 4 3 2 1\n")

    def test_comments_and_blank_lines(self):
        g = parse("# a cycle\n3 3 # header\n\n1: 2 3\n2: 3 1\n3: 1 2\n")
        assert g.n == 3 and g.m == 3

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphError):
            parse("2 5\n1: 2\n2: 1\n")

    def test_outer_line_round_trip(self):
        g = oracles.c6_chord()
        back = parse(serialize(g))
        assert back.outer_face == g.outer_face

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            PlaneGraph({1: (1,)})

    def test_parallel_edges_rejected(self):
        with pytest.raises(GraphError):
            PlaneGraph({1: (2, 2), 2: (1, 1)})

    def test_nonplanar_rotation_rejected(self):
        # K4 with one rotation flipped gives genus 1
        g = parse(K4_TEXT)
        rot = {v: g.rotation(v) for v in g.vertices}
        rot[4] = (1, 2, 3)
        with pytest.raises(GraphError):
            PlaneGraph(rot)


class TestRotation:
    def test_build_round_trip(self, golden):
        for g in golden.values():
            h = Rotation.of(g).build()
            if g.outer_face is not None:
                h = h.re_embed(g.outer_face)
            assert serialize(h) == serialize(g)

    def test_queries_match_the_graph(self, cube):
        rot = Rotation.of(cube)
        assert rot.vertices == cube.vertices and rot.n == cube.n
        for v in cube.vertices:
            assert rot.degree(v) == cube.degree(v)
            assert rot.neighbors(v) == cube.neighbors(v)
            assert rot.has_vertex(v) and not rot.has_edge(v, v)
        assert not rot.has_vertex(9) and not rot.has_edge(9, 1)

    def test_asymmetric_edit_is_an_invariant_failure(self, cube):
        rot = Rotation.of(cube)
        rot[1].remove(rot[1][0])
        with pytest.raises(InternalInvariantError):
            rot.build()

    def test_swapped_entries_break_euler(self, cube):
        # two swapped entries reverse one vertex's rotation: genus 1
        rot = Rotation.of(cube)
        rot[1][0], rot[1][1] = rot[1][1], rot[1][0]
        with pytest.raises(InternalInvariantError, match="Euler"):
            rot.build()


    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6), st.integers(1, 5)),
                    max_size=80))
    def test_fresh_ids_are_max_plus_one(self, edits):
        # deletions anywhere, the largest included, between mintings
        rot = Rotation({v: [] for v in range(1, 30)})
        for delete, pick, k in edits:
            if delete and rot:
                del rot[sorted(rot)[pick % len(rot)]]
                continue
            want = range(max(rot, default=0) + 1, max(rot, default=0) + 1 + k)
            assert rot.fresh_ids(k) == want
            rot.update((v, []) for v in want)


class TestFaces:
    def test_c5_two_faces(self):
        assert sorted(f.length for f in c5().faces()) == [5, 5]

    def test_c6c_faces(self):
        assert sorted(f.length for f in oracles.c6_chord().faces()) == [4, 4, 6]

    def test_cube_six_quadrilaterals(self, cube):
        assert sorted(f.length for f in cube.faces()) == [4] * 6

    def test_dart_partition(self, corpus7):
        for g in corpus7:
            assert sum(f.length for f in g.faces()) == 2 * g.m

    def test_euler_per_component(self, corpus7):
        for g in corpus7:
            for comp in g.components():
                vc = len(comp)
                ec = sum(g.degree(v) for v in comp) // 2
                fc = 1 if ec == 0 else sum(
                    1 for f in g.faces() if f.darts[0][0] in comp)
                assert vc - ec + fc == 2

    def test_two_edge_walk_is_not_a_cycle(self):
        g = oracles.path_graph(2)
        (f,) = g.faces()
        assert f.length == 2 and not f.is_cycle()

    def test_face_of_dart(self):
        g = c5()
        f = g.face_of_dart((1, 2))
        assert (1, 2) in f.darts

    def test_find_face(self):
        g = c5()
        assert g.find_face((1, 2, 3, 4, 5)) is not None
        assert g.find_face((1, 3, 5, 2, 4)) is None


def _face_table_graphs(corpus8, golden):
    yield from corpus8
    yield from golden.values()
    yield from (oracles.grid(5, 7), oracles.grid(1, 6), oracles.cylinder(4, 3),
                oracles.cylinder(6, 5))
    yield from corpus.gen_random(corpus.CorpusSpec("random", n_max=60, seed=4, count=3))


def _count_traces(monkeypatch):
    calls = []
    trace = PlaneGraph._trace_faces

    def counted(self):
        calls.append(self)
        trace(self)

    monkeypatch.setattr(PlaneGraph, "_trace_faces", counted)
    return calls


class TestFaceTable:
    def test_faces_match_the_sorting_oracle(self, corpus8, golden):
        for g in _face_table_graphs(corpus8, golden):
            assert g.faces() == oracles.sorted_faces(g)
            rot = Rotation.of(g)
            for f in g.faces():
                assert all(g.face_of_dart(d) is f for d in f.darts)
                # a walk on the mutable rotation from any dart of f is f
                assert all(oracles.face_from_walk(rot.face_darts(d)) == f for d in f.darts)
                assert rot.face_darts(f.darts[0]) == list(f.darts)

    def test_re_embed_equals_a_fresh_build_and_traces_nothing(self, corpus8, golden,
                                                              monkeypatch):
        traces = _count_traces(monkeypatch)
        for g in _face_table_graphs(corpus8, golden):
            rot = {v: g.rotation(v) for v in g.vertices}
            for f in g.faces():
                want = PlaneGraph(rot, outer_face=f)
                del traces[:]
                h = g.re_embed(f)
                assert not traces
                assert h.faces() == want.faces() and h.outer_face == want.outer_face == f
                assert all(h.face_of_dart(d) == want.face_of_dart(d)
                           for e in want.faces() for d in e.darts)
                assert serialize(h) == serialize(want)

    def test_parse_with_outer_line_traces_once(self, golden, monkeypatch):
        texts = [serialize(g) for g in golden.values() if g.outer_face is not None]
        assert texts
        traces = _count_traces(monkeypatch)
        for text in texts:
            del traces[:]
            assert serialize(parse(text)) == text
            assert len(traces) == 1

    def test_empty_outer_walk_is_no_face(self):
        g = c5()
        assert g.find_face(()) is None
        with pytest.raises(GraphError, match="not a face"):
            PlaneGraph({v: g.rotation(v) for v in g.vertices}, outer_face=())

    def test_euler_check_is_linear_in_components(self):
        # 10000 disjoint edges: a per-component scan of every face is quadratic
        rot = {v: (v + 1 if v % 2 else v - 1,) for v in range(1, 20001)}

        def best(check):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                PlaneGraph(rot, check=check)
                times.append(time.perf_counter() - start)
            return min(times)

        unchecked = best(False)
        assert best(True) <= 5 * unchecked


class TestTriangleFree:
    def test_c5(self):
        assert c5().is_triangle_free()

    def test_k4(self):
        assert not parse(K4_TEXT).is_triangle_free()

    def test_c5_dagger(self, golden):
        assert golden["c5_dagger"].is_triangle_free()


class TestPathsBetween:
    def test_adjacent_pair(self):
        assert c5().paths_between(1, 2, 1) == [(1, 2)]

    def test_unique_three_path(self):
        assert c5().paths_between(1, 3, 3) == [(1, 5, 4, 3)]

    def test_c6v_hub_neighbors_no_three_path(self):
        g = oracles.c6_hub()
        assert g.paths_between(1, 3, 3) == []

    def test_forbidden_internal_only(self):
        g = c5()
        assert g.paths_between(1, 3, 3, forbidden={4}) == []
        # endpoints are exempt from the forbidden set
        assert g.paths_between(1, 3, 3, forbidden={1, 3}) == [(1, 5, 4, 3)]

    def test_equal_endpoints_rejected(self):
        with pytest.raises(GraphError):
            c5().paths_between(1, 1, 2)

    def test_agrees_with_dfs_oracle(self, corpus7):
        for g in corpus7[::3]:
            for a, b in itertools.combinations(g.vertices, 2):
                for length in (1, 2, 3):
                    got = sorted(g.paths_between(a, b, length))
                    want = sorted(oracles.naive_paths(g, a, b, length))
                    assert got == want


class TestCyclesUpTo:
    def test_c5_single_cycle(self):
        assert c5().cycles_up_to(6) == [(1, 2, 3, 4, 5)]

    def test_c6c_three_cycles(self):
        lengths = sorted(len(c) for c in oracles.c6_chord().cycles_up_to(6))
        assert lengths == [4, 4, 6]

    def test_tree_has_none(self):
        assert oracles.path_graph(6).cycles_up_to(6) == []

    def test_agrees_with_nx_oracle(self, corpus8):
        for g in corpus8[::5]:
            got = {frozenset(frozenset((c[i], c[(i + 1) % len(c)]))
                             for i in range(len(c)))
                   for c in g.cycles_up_to(6)}
            assert got == oracles.naive_cycles(g, 6)

    def test_canonical_form(self, corpus7):
        for g in corpus7[::7]:
            for c in g.cycles_up_to(6):
                assert c[0] == min(c) and c[1] < c[-1]


class TestDiskSubgraph:
    def test_inner_face_gives_cycle_itself(self):
        g = oracles.c6_chord()
        d = g.disk_subgraph((1, 2, 3, 6))
        assert d.n == 4 and d.m == 4

    def test_c6v_relocated_outer_leaves_empty_hexagon(self):
        # with a 4-face outside, the hub sits on the outer side of the
        # hexagon, so the disk it bounds is the bare 6-cycle
        g = oracles.c6_hub()
        four_face = next(f for f in g.faces() if f.length == 4)
        h = g.re_embed(four_face)
        d = h.disk_subgraph((1, 2, 3, 4, 5, 6))
        assert oracles.isomorphic_small(d, cycle_graph(6))

    def test_enclosed_chord_is_c6c(self):
        # hexagon with the chord drawn inside and a pendant vertex outside
        rot = {1: (6, 7, 2), 2: (1, 3), 3: (2, 4, 6), 4: (3, 5),
               5: (4, 6), 6: (5, 1, 3), 7: (1,)}
        g = PlaneGraph(rot)
        outer = next(f for f in g.faces() if 7 in f.vertex_set)
        d = g.re_embed(outer).disk_subgraph((1, 2, 3, 4, 5, 6))
        assert oracles.isomorphic_small(d, oracles.c6_chord())

    def test_outer_cycle_rejected(self):
        g = oracles.c6_chord()
        with pytest.raises(GraphError):
            g.disk_subgraph((1, 2, 3, 4, 5, 6))

    def test_non_cycle_rejected(self):
        with pytest.raises(GraphError):
            oracles.c6_chord().disk_subgraph((1, 2, 4))

    def test_two_sides_partition_vertices(self, golden):
        g = golden["dangerous_witness"]
        cyc = (7, 8, 9, 10)
        inside = g.disk_subgraph(cyc)
        # flip the outer face to a face inside the 4-cycle and look again
        other = g.re_embed(next(
            f for f in g.faces()
            if f.vertex_set <= inside.outer_face.vertex_set | {11}
            and f.length == 4 and 11 in f.vertex_set)).disk_subgraph(cyc)
        assert frozenset(inside.vertices) | frozenset(other.vertices) == frozenset(g.vertices)
        assert frozenset(inside.vertices) & frozenset(other.vertices) == frozenset(cyc)


def _disk_outcome(extract, g, cyc):
    try:
        return serialize(extract(g, cyc))
    except (GraphError, InternalInvariantError) as e:
        return type(e)


def _assert_disks_match_naive(g):
    """Every cycle of length <= 6 gives the oracle's disk, or its exception type."""
    sizes = []
    for cyc in g.cycles_up_to(6):
        got = _disk_outcome(PlaneGraph.disk_subgraph, g, cyc)
        assert got == _disk_outcome(oracles.naive_disk, g, cyc), (g.outer_face, cyc)
        if isinstance(got, str):
            sizes.append(g.disk_subgraph(cyc).n)
    return sizes


class TestDiskAgainstNaive:
    def test_corpus7_every_short_face_outer(self, corpus7):
        checked = 0
        for g in corpus7:
            for f in g.faces():
                if f.is_cycle() and f.length <= 6:
                    _assert_disks_match_naive(g.re_embed(f))
                    checked += 1
        assert checked > 100

    def test_golden(self, golden):
        with_outer = [g for g in golden.values() if g.outer_face is not None]
        assert with_outer
        for g in with_outer:
            _assert_disks_match_naive(g)

    @pytest.mark.parametrize("build", [lambda: oracles.grid(6, 6),
                                       lambda: oracles.cylinder(6, 5)],
                             ids=["grid6x6", "cyl6x5"])
    def test_ring_cycles_take_the_large_side(self, build):
        g = build()
        g = g.re_embed(next(f for f in g.faces() if f.length == 4))
        sizes = _assert_disks_match_naive(g)
        # cycles around the outer 4-face bound a disk holding most of the graph
        assert max(sizes) > g.n // 2


class TestDisconnectedDisk:
    def test_outer_face_in_other_component(self, two_cycles_text):
        g = parse(two_cycles_text)
        with pytest.raises(GraphError, match="outer face lies in a different component"):
            g.disk_subgraph((5, 6, 7, 8, 9))


class TestIsomorphicSmall:
    def test_relabel_invariance(self):
        g = c5()
        h = oracles.relabel(g, {1: 3, 2: 5, 3: 1, 4: 2, 5: 4})
        assert oracles.isomorphic_small(g, h)

    def test_different_sizes(self):
        assert not oracles.isomorphic_small(oracles.c6_chord(), oracles.c6_hub())

    def test_c5_dagger_two_builds(self, golden):
        from trifree.extremal import generate_member
        for seed in (1, 2, 3):
            other = generate_member(1, seed)
            assert oracles.isomorphic_small(golden["c5_dagger"], other)

    def test_size_limit(self):
        big = cycle_graph(13)
        with pytest.raises(GraphError):
            oracles.isomorphic_small(big, big)

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(list(range(1, 8))), idx=st.integers(0, 17))
    def test_equivalence_under_relabeling(self, perm, idx, corpus7):
        g = corpus7[idx * max(1, len(corpus7) // 18) % len(corpus7)]
        if g.n > 7:
            return
        mapping = {v: perm[i] for i, v in enumerate(g.vertices)}
        assert oracles.isomorphic_small(g, oracles.relabel(g, mapping))


class TestReEmbed:
    def test_swap_outer_face(self):
        g = c5()
        f = g.faces()[0]
        h = g.re_embed(f)
        assert h.outer_face == f

    def test_cube_any_four_face(self, cube):
        for f in cube.faces():
            assert cube.re_embed(f).outer_face == f

    def test_foreign_face_rejected(self):
        g = c5()
        foreign = cycle_graph(4).faces()[0]
        with pytest.raises(GraphError):
            g.re_embed(foreign)


class TestSerialize:
    def test_round_trip_identity(self, corpus7):
        for g in corpus7[::4]:
            back = parse(serialize(g))
            assert {v: back.rotation(v) for v in back.vertices} == \
                   {v: tuple(g.rotation(v)) for v in g.vertices} or \
                   serialize(back) == serialize(g)

    def test_deterministic(self):
        assert serialize(c5()) == serialize(cycle_graph(5))


class TestEmbedEdges:
    def test_nonplanar_rejected(self):
        edges = list(itertools.combinations(range(1, 6), 2))  # K5
        with pytest.raises(GraphError):
            embed_edges(range(1, 6), edges)

    def test_valid_embedding(self, cube):
        assert cube.n == 8 and cube.m == 12


class TestFaceValue:
    def test_canonical_rotation(self):
        f1 = oracles.face_from_walk(((2, 3), (3, 1), (1, 2)))
        f2 = oracles.face_from_walk(((1, 2), (2, 3), (3, 1)))
        assert f1 == f2
