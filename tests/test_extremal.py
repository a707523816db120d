import dataclasses
import hashlib
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from trifree import corpus, extremal, solver
from trifree.extremal import (Diamond, avoiding_independent_set, diamond_reduce,
                              find_diamonds, generate_member, is_member,
                              member_max_independent_set,
                              path_diamond_replacement,
                              replace_diamond_with_path)
from trifree.plane_graph import (GraphError, InternalInvariantError, PlaneGraph, Rotation,
                                 cycle_graph, embed_edges)
from trifree.verify import is_independent_set

import oracles


def diamond_tuples(ds):
    return sorted((d.u1, d.z1, d.z2, d.u2, d.w, d.x1, d.x2) for d in ds)


def grow(g, path):
    """g with the path grown into a diamond: a copy, the in-place edit, one build."""
    rot = Rotation.of(g)
    path_diamond_replacement(rot, path)
    return rot.build()


def near_miss(seed):
    """A member plus the path a-p-q-r-b drawn inside one face: n stays
    2 mod 3, so only the diamond descent can reject it."""
    g = generate_member(40, seed)
    walk = g.faces()[0].vertex_walk()
    a, b = walk[0], walk[len(walk) // 2]
    p, q, r = range(g.max_vertex_id() + 1, g.max_vertex_id() + 4)
    return embed_edges(list(g.vertices) + [p, q, r],
                       set(g.edges) | {(a, p), (p, q), (q, r), (r, b)})


@pytest.fixture
def builds(monkeypatch):
    """One entry per ``PlaneGraph`` made while the test runs."""
    made = []
    init = PlaneGraph.__init__

    def counted_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlaneGraph, "__init__", counted_init)
    return made


def recorded_steps(monkeypatch, run):
    """The steps ``run()`` makes through ``extremal.replace_diamond_with_path``
    on the first rotation it edits, whether it returns or raises
    ``GraphError``.  A later chain on another rotation, the membership test
    ``avoiding_independent_set`` makes at a dead end, is left out."""
    made = []
    real = extremal.replace_diamond_with_path

    def record(rot, d):
        made.append((rot, real(rot, d)))
        return made[-1][1]

    monkeypatch.setattr(extremal, "replace_diamond_with_path", record)
    try:
        run()
    except GraphError:
        pass
    finally:
        monkeypatch.setattr(extremal, "replace_diamond_with_path", real)
    return [step for rot, step in made if rot is made[0][0]]


def check_picks(g, steps, qualifies):
    """Each step replaced the smallest diamond ``oracles.naive_diamonds``
    finds on its graph that ``qualifies(graph, diamond tuple)``, on the graphs
    ``oracles.rebuild_replay`` rebuilds and validates apart from the descent's
    workspace and index; returns the last graph."""
    graphs = oracles.rebuild_replay(g, extremal.MembershipTrace(tuple(steps), extremal.C5))
    for step, h in zip(steps, graphs):
        want = next(t for t in oracles.naive_diamonds(h) if qualifies(h, t))
        assert step.diamond == Diamond(*want)
    return graphs[-1]


def avoids(fv):
    """The face-avoiding descent's test of a diamond tuple on graph h."""
    return lambda h, t: fv.isdisjoint(t[:5]) and not (t[5] in fv and h.degree(t[5]) <= 3)


class TestFindDiamonds:
    def test_c5_has_none(self):
        assert find_diamonds(cycle_graph(5)) == []

    def test_c5_dagger_agrees_with_oracle(self, golden):
        g = golden["c5_dagger"]
        got = diamond_tuples(find_diamonds(g))
        assert got == oracles.naive_diamonds(g)
        # two degree-2 pairs, each closable by two deg-3 apexes
        assert len(got) == 4

    def test_c5_ddagger_agrees_with_oracle(self, golden):
        g = golden["c5_ddagger"]
        assert diamond_tuples(find_diamonds(g)) == oracles.naive_diamonds(g)

    def test_cube_has_none(self, cube):
        assert find_diamonds(cube) == []

    def test_oracle_agreement_on_corpus(self, corpus8):
        for g in corpus8:
            assert diamond_tuples(find_diamonds(g)) == oracles.naive_diamonds(g)

    @pytest.mark.parametrize("steps,seed", [(10, 0), (30, 1), (50, 2)])
    def test_oracle_agreement_along_membership_trace(self, steps, seed):
        g = generate_member(steps, seed)
        trace = is_member(g)
        graphs = oracles.rebuild_replay(g, trace)
        assert len(graphs) == steps + 1
        for h in graphs:
            assert diamond_tuples(find_diamonds(h)) == oracles.naive_diamonds(h)


class TestReplaceDiamondWithPath:
    def test_c5_dagger_gives_c5(self, golden):
        g = golden["c5_dagger"]
        for d in find_diamonds(g):
            reduced = diamond_reduce(g, d)[0]
            assert oracles.isomorphic_small(reduced, cycle_graph(5))

    def test_c5_ddagger_gives_c5_dagger(self, golden):
        g = golden["c5_ddagger"]
        reductions = [diamond_reduce(g, d)[0] for d in find_diamonds(g)]
        assert any(oracles.isomorphic_small(r, golden["c5_dagger"]) for r in reductions)

    def test_invalid_diamond_rejected(self):
        g = cycle_graph(5)
        fake = Diamond(1, 2, 3, 4, 5, 6, 7)
        with pytest.raises(GraphError):
            replace_diamond_with_path(Rotation.of(g), fake)

    def test_size_and_girth(self, golden):
        g = golden["member14"]
        for d in find_diamonds(g):
            r = diamond_reduce(g, d)[0]
            assert r.n == g.n - 3
            assert r.is_triangle_free()


class TestPathDiamondReplacement:
    def test_c5_gives_c5_dagger(self, golden):
        g = cycle_graph(5)
        grown = grow(g, (1, 2, 3, 4))
        assert grown.n == 8 and grown.m == 10
        assert oracles.isomorphic_small(grown, golden["c5_dagger"])

    def test_c5_dagger_gives_c5_ddagger(self, golden):
        g = golden["c5_dagger"]
        path = next(
            (x1, v1, v2, x2)
            for v1 in g.vertices if g.degree(v1) == 2
            for v2 in g.neighbors(v1) if g.degree(v2) == 2
            for x1 in g.neighbors(v1) - {v2}
            for x2 in g.neighbors(v2) - {v1} if x1 != x2)
        grown = grow(g, path)
        assert grown.n == 11
        assert oracles.isomorphic_small(grown, golden["c5_ddagger"])

    def test_p2_has_no_qualifying_path(self):
        with pytest.raises(GraphError):
            grow(oracles.path_graph(2), (1, 2, 3, 4))

    def test_interior_degree_enforced(self, golden):
        g = golden["c5_dagger"]
        v3 = next(v for v in g.vertices if g.degree(v) == 3)
        nb = sorted(g.neighbors(v3))
        with pytest.raises(GraphError):
            grow(g, (nb[0], v3, nb[1], v3))

    def test_mutually_inverse_up_to_isomorphism(self, golden):
        for name in ("c5_dagger", "c5_ddagger"):
            g = golden[name]
            for d in find_diamonds(g):
                shrunk = diamond_reduce(g, d)[0]
                v1 = g.max_vertex_id() + 1
                regrown = grow(shrunk, (d.x1, v1, v1 + 1, d.x2))
                assert oracles.isomorphic_small(regrown, g)


class TestIsMember:
    def test_c5(self):
        t = is_member(cycle_graph(5))
        assert t.terminal == "C5" and t.steps == ()

    def test_p2(self):
        t = is_member(oracles.path_graph(2))
        assert t.terminal == "P2" and t.is_member

    def test_c5_ddagger_two_steps(self, golden):
        t = is_member(golden["c5_ddagger"])
        assert t.terminal == "C5" and len(t.steps) == 2

    def test_cube_not_member(self, cube):
        assert is_member(cube).terminal == "NOT_MEMBER"

    def test_trace_serialization(self, golden):
        text = is_member(golden["c5_dagger"]).serialize()
        assert text.endswith("terminal C5\n")
        assert text.splitlines()[0].startswith("replace ")

    @pytest.mark.parametrize("steps,seed", [(20, 3), (45, 4), (60, 5)])
    def test_trace_matches_oracle_diamonds(self, steps, seed):
        # the descent replaces the smallest diamond at every step, so the
        # index must return the naive search's first diamond on every graph
        # along the trace, not only on the input
        g = generate_member(steps, seed)
        trace = is_member(g)
        assert len(trace.steps) == steps
        assert check_picks(g, trace.steps, lambda h, t: True).n == 5

    @pytest.mark.parametrize("steps,seed,edge", [(8, 0, 3), (20, 1, 40), (35, 2, 77),
                                                 (45, 3, 150)])
    def test_dead_end_picks_match_oracle_diamonds(self, monkeypatch, steps, seed, edge):
        # an edge-deleted member is rejected, with no steps in its trace: the
        # steps are recorded on the way, and the descent stops on a graph
        # where the naive search finds no diamond
        g = oracles.edge_deleted_member(steps, seed, edge)
        assert is_member(g).terminal == "NOT_MEMBER"
        made = recorded_steps(monkeypatch, lambda: is_member(g))
        last = check_picks(g, made, lambda h, t: True)
        assert last.n > 5 and oracles.naive_diamonds(last) == []

    def test_one_scan_per_descent(self, monkeypatch):
        # the index scans the input once; every later search is local
        scans = []
        real = extremal.find_diamonds
        monkeypatch.setattr(extremal, "find_diamonds", lambda g: scans.append(g) or real(g))
        member = generate_member(300, 0)
        for g, verdict in ((member, True), (oracles.edge_deleted_member(100, 0, 7), False)):
            scans.clear()
            assert is_member(g).is_member == verdict
            assert len(scans) == 1
        scans.clear()
        s = avoiding_independent_set(member, qualifying_faces(member)[0])
        assert 3 * len(s) == member.n + 1 and len(scans) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_miss_rejected_without_search(self, monkeypatch, seed):
        h = near_miss(seed)
        assert h.n == 128 and h.is_triangle_free()
        cap = (h.n - 5) // 3
        reductions = []
        real_replace = extremal.replace_diamond_with_path

        def counted_replace(rot, d):
            reductions.append(d)
            if len(reductions) > cap:
                raise AssertionError("more than %d diamond reductions" % cap)
            return real_replace(rot, d)

        hashes = []
        real_hash = nx.weisfeiler_lehman_graph_hash
        monkeypatch.setattr(extremal, "replace_diamond_with_path", counted_replace)
        monkeypatch.setattr(nx, "weisfeiler_lehman_graph_hash",
                            lambda x: hashes.append(x) or real_hash(x))
        assert is_member(h).terminal == "NOT_MEMBER"
        assert 0 < len(reductions) <= cap
        assert hashes == []

    def test_every_diamond_of_a_member_leads_to_a_member(self, golden, expectations):
        # the premise of the first-diamond descent: no choice needs undoing
        members = [generate_member(steps, seed)
                   for steps in range(3, 16, 2) for seed in (0, 1, 2)]
        members += [golden[name] for name, e in sorted(expectations.items())
                    if e["member"]]
        checked = 0
        for g in members:
            for h in oracles.rebuild_replay(g, is_member(g)):
                for d in find_diamonds(h):
                    reduced, _ = extremal.diamond_reduce(h, d)
                    assert is_member(reduced).is_member
                    checked += 1
        assert checked > 100

    def test_deep_member_needs_no_stack(self):
        # the descent and the solver are loops: 60 steps fit under fewer than
        # 60 spare frames, and so does solving the member and a C6 x P30
        # cylinder, whose chain of C1 steps also holds one C2 step
        g = generate_member(60, 1)
        cylinder = oracles.cylinder(6, 30)

        def depth():
            frame, d = sys._getframe(1), 0
            while frame is not None:
                frame, d = frame.f_back, d + 1
            return d

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth() + 40)
        try:
            trace = is_member(g)
            solved = [solver.solve(g), solver.solve(cylinder)]
        finally:
            sys.setrecursionlimit(old)
        assert trace.terminal == "C5" and len(trace.steps) == 60
        assert all(res.met for res in solved)
        assert len(solved[0].trace) > 40
        assert [step.kind for step in solved[1].trace].count("C2") == 1

    def test_large_member_certifies(self):
        g = generate_member(200, 13)
        assert g.n == 605
        trace = is_member(g)
        assert trace.terminal == "C5" and len(trace.steps) == 200
        s = member_max_independent_set(g, trace)
        assert 3 * len(s) == g.n + 1 and is_independent_set(g, s)
        res = solver.solve(g)
        assert res.met and res.guarantee == (g.n + 3) // 3

    def test_non_members_exceed_extremal_alpha(self, corpus8):
        # contrapositive of tightness on the enumerated corpus
        for g in corpus8:
            alpha, _ = solver.exact_alpha(g)
            if 3 * alpha < g.n + 2:
                assert is_member(g).is_member


class TestAgainstRebuild:
    """The in-place chains give the traces and certificates of the descent
    that makes a validated graph per step (``oracles.rebuild_is_member``)."""

    def same_as_rebuild(self, g):
        trace = is_member(g)
        want = oracles.rebuild_is_member(g)
        assert trace.serialize() == want.serialize()
        if trace.is_member:
            assert (member_max_independent_set(g, trace)
                    == oracles.rebuild_certificate(g, want))
        return trace

    def test_corpus8(self, corpus8):
        members = sum(self.same_as_rebuild(g).is_member for g in corpus8)
        assert members > 0

    def test_golden(self, golden):
        for g in golden.values():
            self.same_as_rebuild(g)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_members(self, seed):
        for steps in (10, 25, 50, 100):
            assert len(self.same_as_rebuild(generate_member(steps, seed)).steps) == steps

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_misses(self, seed):
        assert not self.same_as_rebuild(near_miss(seed)).is_member

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_deleted_members(self, seed):
        # a member with k steps has 5k + 5 edges
        for steps, stride in ((2, 1), (9, 4), (30, 23), (70, 97)):
            for edge in range(seed, 5 * steps + 5, stride):
                assert not self.same_as_rebuild(
                    oracles.edge_deleted_member(steps, seed, edge)).is_member

    @pytest.mark.parametrize("n", [40, 120])
    def test_random(self, n):
        for seed in range(3):
            spec = corpus.CorpusSpec("random", n_max=n, seed=seed, count=1)
            self.same_as_rebuild(corpus.gen_random(spec)[0])

    def test_no_build_inside_the_chains(self, builds):
        builds.clear()
        g = generate_member(100, 4)
        assert len(builds) <= 2
        builds.clear()
        trace = is_member(g)
        s = member_max_independent_set(g, trace)
        assert builds == []
        assert len(trace.steps) == 100 and 3 * len(s) == g.n + 1

    def test_thousand_steps_at_the_default_recursion_limit(self):
        # 1.5 s on a shared 2-core host under CPython 3.11; a validated build
        # per step made generation alone take minutes
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        start = time.perf_counter()
        try:
            g = generate_member(1000, 0)
            trace = is_member(g)
            s = member_max_independent_set(g, trace)
            res = solver.solve(g)
        finally:
            sys.setrecursionlimit(old)
        assert time.perf_counter() - start < 15
        assert g.n == 3005 and trace.terminal == "C5" and len(trace.steps) == 1000
        assert 3 * len(s) == g.n + 1 and is_independent_set(g, s)
        assert res.met and res.guarantee == (g.n + 3) // 3


class TestGenerateMember:
    def test_zero_steps(self):
        assert oracles.isomorphic_small(generate_member(0, 9), cycle_graph(5))

    def test_one_step_unique(self, golden):
        for seed in range(4):
            assert oracles.isomorphic_small(generate_member(1, seed), golden["c5_dagger"])

    def test_two_steps(self, golden):
        for seed in range(3):
            g = generate_member(2, seed)
            assert g.n == 11
            alpha, _ = solver.exact_alpha(g)
            assert alpha == 4
            assert oracles.isomorphic_small(g, golden["c5_ddagger"])

    def test_deterministic(self):
        from trifree.plane_graph import serialize
        assert serialize(generate_member(4, 7)) == serialize(generate_member(4, 7))

    @pytest.mark.parametrize("steps,seed,digest", [
        (1, 0, "b06f6f1427e21cf6cf0d87020a5e1abe427f2f0eb07fefd387a3ac3c5600196c"),
        (10, 3, "b83be8c8724954cc8831460171177f99760484eb9c02b95d4a9fd1d29db2cf77"),
        (40, 7, "090daac4877362bed53ae0f1adac0830ce3e73ab4365e187aa8ad3efcc5e3084"),
        (100, 1, "fc0406721185acab8a9e52f202c2f1059e0009c2d1099f07dc9b9f42e3668731"),
    ])
    def test_pinned_output(self, steps, seed, digest):
        # the member made for a seed is part of the interface: golden runs,
        # benchmark inputs and saved traces name members by (steps, seed)
        from trifree.plane_graph import serialize
        text = serialize(generate_member(steps, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_one_build_per_step(self, builds):
        # each replacement is derived, not searched: C5, one build per step
        # and the final relabelling
        for steps, seed in ((1, 0), (12, 5), (30, 2)):
            builds.clear()
            g = generate_member(steps, seed)
            assert len(builds) <= steps + 2
            d = find_diamonds(g)[0]
            builds.clear()
            diamond_reduce(g, d)
            assert len(builds) == 1

    def test_one_path_scan(self, monkeypatch):
        # the degree-2 paths are listed once; every later step edits the list
        scans = []
        real = extremal._degree2_paths
        monkeypatch.setattr(extremal, "_degree2_paths", lambda g: scans.append(g) or real(g))
        for steps, seed in ((0, 1), (1, 0), (300, 2)):
            scans.clear()
            assert generate_member(steps, seed).n == 5 + 3 * steps
            assert len(scans) == 1

    def test_negative_steps_rejected(self):
        with pytest.raises(GraphError):
            generate_member(-1, 0)

    @settings(max_examples=12, deadline=None)
    @given(steps=st.integers(0, 5), seed=st.integers(0, 50))
    def test_invariants(self, steps, seed):
        g = generate_member(steps, seed)
        assert g.n == 5 + 3 * steps
        assert g.is_triangle_free()
        assert is_member(g).is_member


class TestMemberMaxIndependentSet:
    def test_c5_size_two(self):
        g = cycle_graph(5)
        s = member_max_independent_set(g, is_member(g))
        assert len(s) == 2 and is_independent_set(g, s)

    def test_c5_dagger_size_three(self, golden):
        g = golden["c5_dagger"]
        s = member_max_independent_set(g, is_member(g))
        assert len(s) == 3 and is_independent_set(g, s)

    def test_c5_ddagger_size_four(self, golden):
        g = golden["c5_ddagger"]
        s = member_max_independent_set(g, is_member(g))
        assert len(s) == 4 and is_independent_set(g, s)

    def test_bad_trace_rejected(self, cube):
        with pytest.raises(GraphError):
            member_max_independent_set(cube, is_member(cube))

    def test_trace_with_other_step_rejected(self, golden):
        # swapped path vertices both exist after the replacement, but the
        # replayed step differs from the recorded one
        g = golden["c5_dagger"]
        trace = is_member(g)
        (step,) = trace.steps
        swapped = dataclasses.replace(step, v1=step.v2, v2=step.v1)
        bad = dataclasses.replace(trace, steps=(swapped,))
        with pytest.raises(GraphError):
            member_max_independent_set(g, bad)

    def test_final_check_against_the_input(self, monkeypatch):
        # the lifts check only the vertices they add; a dependent set that
        # reaches the end is caught by the check against the input
        g = cycle_graph(5)
        monkeypatch.setattr(extremal, "_terminal_set", lambda h, terminal: frozenset((1, 2)))
        with pytest.raises(InternalInvariantError):
            member_max_independent_set(g, is_member(g))

    def test_exact_size_on_generated_members(self):
        for steps, seed in ((3, 0), (4, 1), (5, 2)):
            g = generate_member(steps, seed)
            s = member_max_independent_set(g, is_member(g))
            assert 3 * len(s) == g.n + 1
            assert is_independent_set(g, s)
            alpha, _ = solver.exact_alpha(g)
            assert len(s) == alpha


def qualifying_faces(g):
    return [f for f in g.faces()
            if all(g.degree(v) >= 3 for v in f.vertex_set)]


class TestAvoidingIndependentSet:
    def test_c5_ddagger_both_faces(self, golden):
        g = golden["c5_ddagger"]
        faces = qualifying_faces(g)
        assert len(faces) == 2
        for f in faces:
            s = avoiding_independent_set(g, f)
            assert len(s) == 4
            assert not (s & f.vertex_set)
            assert is_independent_set(g, s)

    def test_member14_all_faces(self, golden):
        g = golden["member14"]
        for f in qualifying_faces(g):
            s = avoiding_independent_set(g, f)
            assert len(s) == 5
            assert not (s & f.vertex_set)
            assert is_independent_set(g, s)

    def test_low_degree_face_rejected(self, golden):
        g = golden["c5_ddagger"]
        bad = next(f for f in g.faces()
                   if any(g.degree(v) <= 2 for v in f.vertex_set))
        with pytest.raises(GraphError):
            avoiding_independent_set(g, bad)

    def test_non_members_raise_graph_error(self):
        # no qualifying diamond is left, and is_member rejects the input
        for g in (oracles.grid(4, 4), oracles.cylinder(5, 3)):
            faces = qualifying_faces(g)
            assert faces
            for f in faces:
                with pytest.raises(GraphError):
                    avoiding_independent_set(g, f)

    def test_identical_to_recursive_reference(self):
        # the first qualifying diamond never needs undoing: the descent
        # returns the recursive, backtracking chain's set on every pair
        pairs = 0
        for steps, seed in ([(k, s) for k in range(20) for s in range(4)]
                            + [(k, 0) for k in range(20, 30)]):
            g = generate_member(steps, seed)
            for f in qualifying_faces(g):
                assert (avoiding_independent_set(g, f)
                        == oracles.recursive_avoiding_set(g, f))
                pairs += 1
        assert pairs == 1838

    def test_picks_match_oracle_diamonds(self, monkeypatch):
        # each step replaces the first diamond in naive order that avoids
        # the face, on members and on edge-deleted members, which end in a
        # dead end or in GraphError
        graphs = [generate_member(steps, seed) for steps, seed in ((6, 0), (18, 1), (25, 2))]
        graphs += [oracles.edge_deleted_member(steps, seed, edge)
                   for steps, seed, edge in ((18, 0, 5), (24, 3, 61))]
        for g in graphs:
            for f in qualifying_faces(g)[:2]:
                made = recorded_steps(monkeypatch, lambda: avoiding_independent_set(g, f))
                last = check_picks(g, made, avoids(f.vertex_set))
                assert last.n <= 11 or not any(avoids(f.vertex_set)(last, t)
                                               for t in oracles.naive_diamonds(last))

    def test_at_most_one_validated_build(self, monkeypatch):
        validated = []
        init = PlaneGraph.__init__

        def counted(self, rotation, outer_face=None, check=True):
            validated.append(check)
            init(self, rotation, outer_face, check)

        graphs = [generate_member(steps, 2) for steps in (2, 10, 40)]
        monkeypatch.setattr(PlaneGraph, "__init__", counted)
        for g in graphs:
            for f in qualifying_faces(g)[:3]:
                validated.clear()
                s = avoiding_independent_set(g, f)
                assert validated.count(True) <= 1
                assert 3 * len(s) == g.n + 1


class TestDiamondIndex:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.integers(0, 40), seed=st.integers(0, 40),
           edge=st.one_of(st.none(), st.integers(0, 200)), pick=st.randoms(use_true_random=False))
    def test_live_diamonds_are_find_diamonds_after_every_step(self, steps, seed, edge, pick):
        # replacing diamonds in any order, down to a dead end, keeps the
        # index equal to a full scan; a diamond passed over stays
        g = (generate_member(steps, seed) if edge is None
             else oracles.edge_deleted_member(steps, seed, edge))
        index, h = extremal._DiamondIndex(find_diamonds(g)), Rotation.of(g)
        while True:
            live = sorted(Diamond(*t) for t in index.live)
            assert live == find_diamonds(h)
            assert index.first() == (live[0] if live else None)
            if not live:
                break
            if len(live) > 1:
                assert index.first(lambda d: d != live[0]) == live[1]
                assert index.first() == live[0]
            index.replaced(h, replace_diamond_with_path(h, pick.choice(live)))

    def test_back_to_back_diamonds(self):
        # two diamonds whose w vertices 5 and 10 are joined, each the other's
        # x2: replacing one changes the other's x2, and that diamond's z1 is
        # three steps from v2, so it is found only from x2
        g = embed_edges(range(1, 13), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 1), (6, 4),
                                       (5, 10), (7, 8), (8, 9), (9, 11), (11, 10), (10, 7),
                                       (12, 7), (12, 11), (6, 12)])
        diamonds = find_diamonds(g)
        assert {(d.w, d.x2) for d in diamonds} >= {(5, 10), (10, 5)}
        for d in diamonds:
            index, h = extremal._DiamondIndex(find_diamonds(g)), Rotation.of(g)
            step = replace_diamond_with_path(h, d)
            index.replaced(h, step)
            live = sorted(Diamond(*t) for t in index.live)
            assert live == find_diamonds(h)
            assert any(e.x2 == step.v2 for e in live)
