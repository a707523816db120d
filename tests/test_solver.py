import random
import sys

import networkx
import pytest
from hypothesis import given, settings, strategies as st

from trifree import configurations, corpus, discharging, solver
from trifree.extremal import generate_member, is_member, member_max_independent_set
from trifree.plane_graph import (GraphError, InternalInvariantError, PlaneGraph, cycle_graph,
                                 parse)
from trifree.verify import is_independent_set

import oracles
from test_plane_graph import _best


class TestExactAlpha:
    def test_c5(self):
        alpha, wit = solver.exact_alpha(cycle_graph(5))
        assert alpha == 2 and is_independent_set(cycle_graph(5), wit)

    def test_c5_ddagger(self, golden):
        alpha, _ = solver.exact_alpha(golden["c5_ddagger"])
        assert alpha == 4

    def test_cube(self, cube):
        alpha, wit = solver.exact_alpha(cube)
        assert alpha == 4 and len(wit) == 4

    def test_empty_graph(self):
        assert solver.exact_alpha(PlaneGraph({})) == (0, frozenset())

    def test_agrees_with_subset_oracle(self, corpus8):
        for g in corpus8[::3]:
            alpha, wit = solver.exact_alpha(g)
            assert alpha == oracles.naive_alpha(g)
            assert is_independent_set(g, wit) and len(wit) == alpha

    def test_size_limit(self):
        with pytest.raises(GraphError):
            solver.exact_alpha(cycle_graph(41))

    def test_deterministic_witness(self, golden):
        g = golden["member14"]
        assert solver.exact_alpha(g) == solver.exact_alpha(g)


class TestSolve:
    def test_c5(self):
        res = solver.solve(cycle_graph(5))
        assert res.size == 2 and res.guarantee == 2 and res.met

    def test_cube(self, cube):
        res = solver.solve(cube)
        assert res.size == 4 and res.guarantee == 4 and res.met

    def test_member20(self, golden):
        res = solver.solve(golden["member20"])
        assert res.size == 7 and res.met
        assert is_independent_set(golden["member20"], res.independent_set)

    def test_generated_member_five_steps(self):
        g = generate_member(5, 0)
        res = solver.solve(g)
        assert g.n == 20 and res.size == 7 and res.met

    def test_trace_below_base_is_empty(self):
        res = solver.solve(cycle_graph(5))
        assert res.trace == ()

    def test_trace_records_reductions(self, golden):
        res = solver.solve(golden["member14"])
        assert res.trace
        total_gain = sum(step.gain_k for step in res.trace)
        assert res.size >= total_gain

    def test_triangle_rejected(self):
        with pytest.raises(GraphError):
            solver.solve(PlaneGraph({1: (2, 3), 2: (3, 1), 3: (1, 2)}))

    def test_disconnected_components_summed(self):
        g = PlaneGraph({1: (2,), 2: (1,), 11: (12,), 12: (13, 11), 13: (12,)})
        res = solver.solve(g)
        assert res.size == 3  # one from the edge, two from the path
        assert res.guarantee == 3
        assert res.met

    def test_deterministic(self, golden):
        g = golden["member20"]
        assert solver.solve(g) == solver.solve(g)

    def test_outer_face_does_not_matter(self, golden):
        g = golden["member20"]
        bare = PlaneGraph({v: g.rotation(v) for v in g.vertices})
        with_outer = bare.re_embed(bare.faces()[-1])
        a, b = solver.solve(bare), solver.solve(with_outer)
        assert with_outer.outer_face is not None
        assert a == b and [s.serialize() for s in a.trace] == [s.serialize() for s in b.trace]

    def test_disjoint_union_matches_parts(self, golden):
        first = generate_member(6, 1)
        second = golden["member14"]
        offset = first.max_vertex_id()
        shifted = oracles.relabel(second, {v: v + offset for v in second.vertices})
        rot = {v: first.rotation(v) for v in first.vertices}
        rot.update({v: shifted.rotation(v) for v in shifted.vertices})
        union = solver.solve(PlaneGraph(rot))
        parts = [solver.solve(first), solver.solve(shifted)]
        assert union.independent_set == parts[0].independent_set | parts[1].independent_set
        assert union.trace == parts[0].trace + parts[1].trace
        assert union.guarantee == parts[0].guarantee + parts[1].guarantee
        assert union.met and parts[1].trace

    def test_met_on_corpus(self, corpus8):
        for g in corpus8:
            res = solver.solve(g)
            assert is_independent_set(g, res.independent_set)
            assert res.met, (g, res)

    def test_never_exceeds_alpha(self, corpus8):
        for g in corpus8[::5]:
            res = solver.solve(g)
            alpha, _ = solver.exact_alpha(g)
            assert res.size <= alpha

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: solve reaches only (n+1)/3 on this non-member, 4 where "
        "alpha is 5; the per-piece budget must make this test pass"))
    def test_smallest_known_miss_meets_its_bound(self):
        # the smallest one-edge-deleted member that solve leaves below (n+2)/3:
        # n = 11, m = 14, no member, and exact_alpha gives 5
        res = solver.solve(oracles.edge_deleted_member(2, 0, 2))
        assert res.met and len(res.independent_set) == 5

    @settings(max_examples=10, deadline=None)
    @given(steps=st.integers(0, 6), seed=st.integers(0, 30))
    def test_members_attain_extremal_size(self, steps, seed):
        g = generate_member(steps, seed)
        res = solver.solve(g)
        assert 3 * res.size == g.n + 1
        assert res.met


def _join_by_path(first, second):
    """first and second joined by a path x-a-b-c-y from first's vertex 1 to
    second's vertex 1, with b = 1, a = 2 and c = 3: b is the smallest vertex
    of degree 2, and a C1 step at b splits the graph into its two parts."""
    shift = first.max_vertex_id() + 3
    rot = {v + 3: tuple(u + 3 for u in first.rotation(v)) for v in first.vertices}
    rot.update({v + shift: tuple(u + shift for u in second.rotation(v)) for v in second.vertices})
    x, y = 1 + 3, 1 + shift
    rot[x] += (2,)
    rot[y] += (3,)
    rot.update({2: (x, 1), 1: (2, 3), 3: (1, y)})
    return PlaneGraph(rot)


class TestWorkspace:
    """``solve`` reduces its pieces in place and lifts one set back through the
    trace; the rebuild-per-step loop of ``oracles.rebuild_solve_set`` must
    give the same sets and traces."""

    @staticmethod
    def same_as_rebuild(g):
        s, trace = oracles.rebuild_solve_set(g)
        res = solver.solve(g)
        assert res.independent_set == s
        assert [step.serialize() for step in res.trace] == [step.serialize() for step in trace]
        return res

    def test_corpus_and_golden(self, corpus8, golden):
        for g in corpus8 + list(golden.values()):
            self.same_as_rebuild(g)

    def test_grids_and_cylinders(self):
        for r in range(6, 16):
            self.same_as_rebuild(oracles.grid(r, r))
        kinds = [step.kind for step in self.same_as_rebuild(oracles.cylinder(6, 30)).trace]
        assert kinds.count("C2") == 1
        self.same_as_rebuild(oracles.cylinder(8, 25))

    def test_random_graphs(self):
        for n in (40, 120, 300):
            for seed in range(3):
                spec = corpus.CorpusSpec("random", n_max=n, seed=seed, count=1)
                for g in corpus.gen_random(spec):
                    self.same_as_rebuild(g)

    def test_members(self):
        for steps, seed in ((10, 0), (25, 1), (40, 2), (60, 3)):
            self.same_as_rebuild(generate_member(steps, seed))

    def test_edge_deleted_members(self):
        # near-members: n is 2 mod 3, but membership is rejected on the way
        for steps, seed in ((2, 0), (5, 1), (13, 2), (30, 3)):
            for edge in range(0, 5 * steps + 5, 3):
                self.same_as_rebuild(oracles.edge_deleted_member(steps, seed, edge))

    @pytest.mark.parametrize("extra", [1, 2])
    def test_bad_base_case_set_fails_the_reverse_lift(self, monkeypatch, extra):
        # P12 takes C1 steps at 1 and 3, and exact_alpha solves 5..12.  A
        # witness that holds vertex 1 itself or its neighbour 2 fails the
        # reverse lift's check of vertex 1, before the check against the input
        real = solver.exact_alpha

        def bad_alpha(g):
            alpha, witness = real(g)
            return alpha, witness | {extra}

        monkeypatch.setattr(solver, "exact_alpha", bad_alpha)
        with pytest.raises(InternalInvariantError, match="lift failed verification"):
            solver.solve(oracles.path_graph(12))

    def test_split_then_frozen_piece(self, dodecahedron):
        # C1 at the path's middle vertex splits the piece into two cubic
        # parts, and each is then frozen for a C4 (dodecahedron) or C2
        # (cylinder) step
        cylinder = oracles.cylinder(6, 4)
        later = 0
        for first, second in ((dodecahedron, dodecahedron), (dodecahedron, cylinder),
                              (cylinder, dodecahedron)):
            g = _join_by_path(first, second)
            kinds = [step.kind for step in self.same_as_rebuild(g).trace]
            assert kinds[0] == "C1"
            later += any(k != "C1" for k in kinds[1:])
        assert later == 3

    def test_three_part_chain(self, dodecahedron):
        # C1 steps split off a dodecahedron, a cylinder and a dodecahedron,
        # whose C4, C2 and C4 steps name their fresh vertices 71, 72 and 73
        g = _join_by_path(_join_by_path(dodecahedron, oracles.cylinder(6, 4)), dodecahedron)
        res = self.same_as_rebuild(g)
        fresh = [(step.kind, step.identified[2]) for step in res.trace if step.identified]
        assert g.max_vertex_id() == 70 and res.met
        assert fresh == [("C4", 71), ("C2", 72), ("C4", 73)]

    def test_fresh_ids_unique_per_solve(self, dodecahedron):
        # every contraction's fresh vertex follows the input's ids, one more
        # per contraction in trace order, so no two pieces share an id
        cylinder = oracles.cylinder(6, 4)
        graphs = [oracles.cylinder(8, 400)] + [
            _join_by_path(first, second) for first, second in (
                (dodecahedron, dodecahedron), (dodecahedron, cylinder),
                (cylinder, dodecahedron), (cylinder, cylinder))]
        for g in graphs:
            fresh = [step.identified[2] for step in solver.solve(g).trace if step.identified]
            start = g.max_vertex_id() + 1
            assert fresh and fresh == list(range(start, start + len(fresh)))

    def test_one_finder_run_per_frozen_step(self, monkeypatch):
        # the configuration find_any picks is reduced on the piece as it is,
        # with no second finder run to check that it still holds
        runs = []

        def counted(finder):
            def run(g):
                runs.append(g.n)
                return finder(g)
            return run

        monkeypatch.setattr(configurations, "KINDS", tuple(
            row[:1] + (counted(row[1]),) + row[2:] if row[0] == "C2" else row
            for row in configurations.KINDS))
        res = solver.solve(oracles.cylinder(6, 30))
        assert [step.kind for step in res.trace].count("C2") == 1
        assert runs == [180]

    def test_no_large_build(self, monkeypatch):
        # a C1 chain builds no graph, and small pieces go to exact_alpha as
        # they are, so the grid builds none at all.  The cylinder has no
        # vertex of degree <= 2, so its C2 step needs a frozen graph (at most
        # one build) and builds its reduced graph once
        sizes = []
        init = PlaneGraph.__init__

        def counted(self, rotation, *args, **kwargs):
            sizes.append(len(rotation))
            init(self, rotation, *args, **kwargs)

        grid, cylinder = oracles.grid(30, 30), oracles.cylinder(6, 30)
        monkeypatch.setattr(PlaneGraph, "__init__", counted)
        assert solver.solve(grid).met
        assert sizes == []
        assert solver.solve(cylinder).met
        assert len([n for n in sizes if n > solver.EXACT_BASE]) <= 2

    def test_no_planarity_call(self, monkeypatch, dodecahedron):
        # every reduced rotation is derived from its host's, so no step, C2
        # and C4 included, asks networkx for an embedding
        cylinder = oracles.cylinder(6, 4)
        graphs = [oracles.cylinder(8, 400)] + [
            _join_by_path(first, second) for first, second in (
                (dodecahedron, dodecahedron), (dodecahedron, cylinder),
                (cylinder, dodecahedron))]

        def refuse(*args, **kwargs):
            raise AssertionError("check_planarity called")

        monkeypatch.setattr(networkx, "check_planarity", refuse)
        kinds = set()
        for g in graphs:
            res = solver.solve(g)
            assert res.met
            kinds.update(step.kind for step in res.trace)
        assert {"C2", "C4"} <= kinds

    def test_no_networkx_on_hot_paths(self, monkeypatch, golden):
        # random growth, the diamond chains, solve on a grid and the audit
        # make no planarity or isomorphism call
        grid = oracles.grid(20, 20)

        def refuse(*args, **kwargs):
            raise AssertionError("networkx called")

        for attr in ("check_planarity", "is_isomorphic"):
            monkeypatch.setattr(networkx, attr, refuse)
        (g,) = corpus.gen_random(corpus.CorpusSpec("random", n_max=200, seed=0, count=1))
        member = generate_member(100, 0)
        trace = is_member(member)
        assert g.n == 200 and trace.is_member
        assert 3 * len(member_max_independent_set(member, trace)) == member.n + 1
        assert solver.solve(grid).met
        discharging.audit(grid.re_embed(next(f for f in grid.faces() if f.length == 4)))
        discharging.audit(g.re_embed(next(f for f in g.faces()
                                          if f.is_cycle() and f.length <= 6)))
        assert not discharging.audit(golden["dangerous_witness"]).hypothesis_ok

    def test_large_inputs_at_default_recursion_limit(self):
        graphs = (oracles.grid(60, 60), oracles.cylinder(8, 400))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)   # CPython's default
        try:
            solved = [solver.solve(g) for g in graphs]
        finally:
            sys.setrecursionlimit(old)
        assert all(res.met for res in solved)
        assert [g.n for g in graphs] == [3600, 3200]


class TestScale:
    """The n = 12005 member and the 200 x 200 grid, at the default recursion
    limit.  The chains are near-linear, so each test takes about a second on
    a 2-core host under CPython 3.11; sizes are asserted, times are not."""

    def test_member_12005(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            g = generate_member(4000, 0)
            trace = is_member(g)
            cert = member_max_independent_set(g, trace)
            res = solver.solve(g)
        finally:
            sys.setrecursionlimit(old)
        assert g.n == 12005 and trace.terminal == "C5" and len(trace.steps) == 4000
        for s in (cert, res.independent_set):
            assert 3 * len(s) == g.n + 1 and is_independent_set(g, s)
        assert res.met and res.guarantee == (g.n + 3) // 3

    def test_grid_200(self):
        g = oracles.grid(200, 200)
        res = solver.solve(g)
        assert res.size == 20000 and res.guarantee == 13334 and res.met
        assert is_independent_set(g, res.independent_set)


class TestHub:
    @pytest.mark.parametrize("make", [oracles.k2, oracles.subdivided_star])
    def test_solve_is_linear_at_a_hub(self, make):
        # against a linear scan of the same graph; the first C1 step deletes
        # the hub, so a split into the 8000 pieces left must stay linear
        g = make(8000)
        assert _best(lambda: solver.solve(g)) <= 60 * _best(g._check_simple_symmetric)


class TestCheckTheoremBounds:
    def test_c5(self):
        rep = solver.check_theorem_bounds(cycle_graph(5))
        assert rep.alpha == 2 and rep.member and rep.lower_bound_ok and rep.main_ok

    def test_c5_dagger(self, golden):
        rep = solver.check_theorem_bounds(golden["c5_dagger"])
        assert rep.alpha == 3 and rep.member and rep.lower_bound_ok and rep.main_ok

    def test_cube(self, cube):
        rep = solver.check_theorem_bounds(cube)
        assert rep.alpha == 4 and not rep.member and rep.lower_bound_ok and rep.main_ok

    def test_corpus_no_violations(self, corpus8):
        for g in corpus8:
            rep = solver.check_theorem_bounds(g)
            assert rep.lower_bound_ok and rep.main_ok

    def test_path_graphs(self):
        for k in (1, 2, 3, 4, 7):
            rep = solver.check_theorem_bounds(oracles.path_graph(k))
            assert rep.lower_bound_ok and rep.main_ok

    def test_triangle_rejected(self, k4_outer_text):
        with pytest.raises(GraphError, match="triangle-free graphs only"):
            solver.check_theorem_bounds(parse(k4_outer_text))


def _disjoint_union(first, second):
    """first beside second, second's ids shifted above first's."""
    shift = first.max_vertex_id()
    rot = {v: first.rotation(v) for v in first.vertices}
    rot.update({v + shift: tuple(u + shift for u in second.rotation(v)) for v in second.vertices})
    return PlaneGraph(rot)


class TestGuarantee:
    """The bound every reader states: ceil((n+1)/3) for a family member and
    ceil((n+2)/3) otherwise, summed per component by ``solve``.  The formulas
    are written out here, not read from the library."""

    @staticmethod
    def per_component(g):
        total = 0
        for comp in g.components():
            c = PlaneGraph({v: g.rotation(v) for v in comp})
            total += (c.n + 3) // 3 if is_member(c).is_member else (c.n + 4) // 3
        return total

    def test_matches_the_theorem_per_component(self, corpus8, golden, cube):
        rng = random.Random(0)
        graphs = corpus8 + list(golden.values())
        graphs += [generate_member(k, s) for k in (0, 1, 2, 5, 10, 40) for s in (0, 1)]
        graphs += [oracles.edge_deleted_member(steps, seed, rng.randrange(5 * steps + 5))
                   for steps in (1, 2, 5, 10, 30) for seed in range(3)]
        c5 = cycle_graph(5)
        graphs += [_disjoint_union(c5, c5), _disjoint_union(c5, PlaneGraph({1: ()})),
                   _disjoint_union(golden["member20"], cube)]
        for g in graphs:
            assert solver.solve(g).guarantee == self.per_component(g), g
            if g.n <= solver.ORACLE_LIMIT:
                rep = solver.check_theorem_bounds(g)
                assert rep.member == is_member(g).is_member
                assert rep.lower_bound_ok == (3 * rep.alpha >= g.n + 1)
                assert rep.main_ok == (rep.member or 3 * rep.alpha >= g.n + 2)

    def test_empty_graph_holds_both_bounds(self):
        # solve guarantees 0 over no components and meets it; the bound check
        # must not report the empty graph as a theorem violation
        g = PlaneGraph({})
        res = solver.solve(g)
        assert (res.size, res.guarantee, res.met) == (0, 0, True)
        assert solver.check_theorem_bounds(g) == solver.BoundReport(0, False, True, True)

    def test_suite_summary(self):
        report = corpus.run_suite(corpus.CorpusSpec("exhaustive", n_max=7))
        assert report.summary() == {"graphs": 85, "members": 2, "tight": 2, "met": 85,
                                    "violations": 0}
