import hashlib

import pytest

from trifree import configurations as cf, corpus, extremal as ex, reductions as rd, solver
from trifree.extremal import Diamond, find_diamonds
from trifree.plane_graph import (GraphError, InternalInvariantError, PlaneGraph, Rotation,
                                 cycle_graph, serialize)
from trifree.verify import is_independent_set

import oracles


def all_configs(g):
    out = []
    for c in cf.find_all(g):
        if c.kind == "C5":
            c = cf.c5_to_c2(g, c)
        out.append(c)
    return out


class TestReduce:
    def test_c1_on_c5_gives_p2(self):
        g = cycle_graph(5)
        reduced, step = rd.reduce(g, cf.Configuration("C1", (1,)))
        assert reduced.n == 2 and reduced.m == 1
        assert step.gain_k == 1
        assert oracles.isomorphic_small(reduced, oracles.path_graph(2))

    def test_c1_on_c6v(self):
        g = oracles.c6_hub()
        v = next(x for x in g.vertices if g.degree(x) == 2)
        reduced, step = rd.reduce(g, cf.Configuration("C1", (v,)))
        assert reduced.n == 4 and step.gain_k == 1

    def test_c3_on_cube(self, cube):
        g = cube
        c = next(c for c in cf.find_c3(g))
        reduced, step = rd.reduce(g, c)
        assert step.gain_k == 2
        assert reduced.n == 2
        # lifting an exact solution of the remainder reaches alpha(Q3) = 4
        _, wit = solver.exact_alpha(reduced)
        lifted = rd.lift(step, wit)
        assert len(lifted) == 4 and is_independent_set(g, lifted)

    def test_c5_requires_conversion(self, cube):
        c = cf.find_c5(cube)[0]
        with pytest.raises(GraphError):
            rd.reduce(cube, c)

    @pytest.mark.parametrize("kind, count", [("C1", 1), ("C2", 4), ("C3", 4), ("C4", 9)])
    def test_role_count_checked(self, cube, kind, count):
        for wrong in {count - 1, count + 1, 2} - {count}:
            with pytest.raises(GraphError, match="roles"):
                rd.apply_reduction(Rotation.of(cube), kind, tuple(range(1, wrong + 1)),
                                   cube.max_vertex_id() + 1)

    def test_c5_and_unknown_kinds_have_no_reduction(self, cube):
        c = cf.find_c5(cube)[0]
        for kind, roles in ((c.kind, c.roles), ("C9", (1,))):
            with pytest.raises(GraphError):
                rd.apply_reduction(Rotation.of(cube), kind, roles, cube.max_vertex_id() + 1)

    def test_contraction_onto_an_id_in_use_rejected_before_any_edit(self, golden):
        kinds = set()
        for g in golden.values():
            c = next((c for c in cf.find_all(g) if c.kind in ("C2", "C4")), None)
            if c is None:
                continue
            kinds.add(c.kind)
            for z in g.vertices:
                rot = Rotation.of(g)
                with pytest.raises(GraphError, match="in use"):
                    rd.apply_reduction(rot, c.kind, c.roles, z)
                assert rot == Rotation.of(g)
        assert kinds == {"C2", "C4"}

    def test_stale_configuration_rejected(self, cube):
        with pytest.raises(GraphError):
            rd.reduce(cube, cf.Configuration("C1", (1,)))

    def test_host_with_a_triangle_rejected(self):
        # a bad input, not a broken invariant, though C1 only deletes
        g = PlaneGraph({1: (2, 3), 2: (3, 1), 3: (1, 2, 4), 4: (3, 5), 5: (4,)})
        with pytest.raises(GraphError, match="triangle"):
            rd.reduce(g, cf.Configuration("C1", (5,)))

    def test_vertex_budget(self, corpus8):
        for g in corpus8[::4]:
            for c in all_configs(g):
                reduced, step = rd.reduce(g, c)
                assert reduced.n >= g.n - 3 * step.gain_k
                assert reduced.is_triangle_free()

    def test_serialization(self):
        g = cycle_graph(5)
        _, step = rd.reduce(g, cf.Configuration("C1", (1,)))
        assert step.serialize().startswith("C1 removed={1,2,5}")


def reduction_cases(corpus8, dodecahedron):
    """(host, configuration, reduced graph, step) for every configuration of
    corpus8, the dodecahedron, cylinders and a few random graphs."""
    hosts = corpus8 + [dodecahedron]
    hosts += [oracles.cylinder(k, m) for k in range(4, 9) for m in (2, 3)]
    for seed in range(3):
        hosts += corpus.gen_random(corpus.CorpusSpec("random", n_max=60, seed=seed, count=1))
    for g in hosts:
        for c in all_configs(g):
            yield (g, c) + rd.reduce(g, c)


class TestDerivedReduction:
    """``reduce`` derives the reduced rotation from the host's, never
    re-embedding it; it must give the abstract reduced graph and keep every
    host face that the reduction leaves alone."""

    def test_matches_abstract_reduction(self, corpus8, dodecahedron):
        kinds = set()
        for g, c, reduced, _ in reduction_cases(corpus8, dodecahedron):
            assert (set(reduced.vertices), reduced.edges) == oracles.naive_reduced_edges(g, c)
            kinds.add(c.kind)
        assert kinds == {"C1", "C2", "C3", "C4"}

    def test_inherits_host_faces(self, corpus8, dodecahedron):
        kept = 0
        for g, c, reduced, step in reduction_cases(corpus8, dodecahedron):
            changed = set(step.removed) | set(step.identified[:2] if step.identified else ())
            changed.update(x for e in step.added_edges for x in e)
            faces = set(reduced.faces())
            for f in g.faces():
                if f.vertex_set.isdisjoint(changed):
                    assert f in faces, (c, f)
                    kept += 1
        assert kept > 1000


class TestLift:
    def test_c1_singleton(self):
        g = oracles.path_graph(3)
        reduced, step = rd.reduce(g, cf.Configuration("C1", (2,)))
        assert reduced.n == 0
        assert rd.lift(step, frozenset()) == frozenset({2})

    def test_c2_both_branches(self, corpus8):
        seen_z, seen_v = False, False
        for g in corpus8[::3]:
            for c in cf.find_c2(g):
                reduced, step = rd.reduce(g, c)
                z = step.identified[2]
                _, wit = solver.exact_alpha(reduced)
                lifted = rd.lift(step, wit)
                assert is_independent_set(g, lifted)
                assert len(lifted) == len(wit) + 1
                if z in wit:
                    seen_z = True
                    assert {c.roles[2], c.roles[3]} <= lifted
                else:
                    seen_v = True
                    assert c.roles[0] in lifted
        assert seen_z and seen_v

    def test_c4_lift_of_any_independent_set(self, corpus8, dodecahedron):
        # the C4 lift has one candidate when z is not in the set and three
        # when it is; lift sets of several shapes, one of them a maximal set
        # grown from {z}, through every C4 configuration to exercise them.
        # corpus8 holds few C4s (both degenerate, u1 = u3 or u2 = u4); every
        # 5-face of the dodecahedron gives some
        configs = 0
        for g in corpus8 + [dodecahedron]:
            for c in cf.find_c4(g):
                reduced, step = rd.reduce(g, c)
                greedy = oracles._augment_maximal(reduced, ())
                with_z = oracles._augment_maximal(reduced, {step.identified[2]})
                for s in (frozenset(), greedy, with_z, solver.solve(reduced).independent_set):
                    lifted = rd.lift(step, s)
                    assert is_independent_set(g, lifted)
                    assert len(lifted) == len(s) + 2
                configs += 1
        assert configs > 100

    def test_lift_rejects_a_host_neighbour(self, corpus8, dodecahedron):
        # steps keep no host graph: each lift is checked against the stored
        # neighbourhoods of the vertices it adds, so a reduced set holding a
        # host neighbour of one of them must be rejected, for every kind
        cases = {}
        for g in corpus8 + [dodecahedron]:
            for c in all_configs(g):
                _, step = rd.reduce(g, c)
                # when s avoids z and u1, every lift adds roles[0] (v or v1);
                # roles[1] is its neighbour (for C1 take any neighbour of v)
                v = step.roles[0]
                nbr = min(g.neighbors(v), default=None) if step.kind == "C1" else step.roles[1]
                if nbr is not None:
                    cases.setdefault(step.kind, (step, {nbr}))
                if step.kind == "C2":
                    # s = {z, x}: the lift swaps z for w and w', and x is a
                    # host neighbour of w other than v
                    w = step.roles[2]
                    others = g.neighbors(w) - {v}
                    if others:
                        cases.setdefault("C2 via z", (step, {step.identified[2], min(others)}))
        assert sorted(cases) == ["C1", "C2", "C2 via z", "C3", "C4"]
        for step, s in cases.values():
            with pytest.raises(InternalInvariantError):
                rd.lift(step, s)

    def test_alpha_never_overshoots(self, corpus8):
        for g in corpus8[::4]:
            alpha_g, _ = solver.exact_alpha(g)
            for c in all_configs(g):
                reduced, step = rd.reduce(g, c)
                alpha_r, wit = solver.exact_alpha(reduced)
                assert alpha_g >= alpha_r + step.gain_k
                lifted = rd.lift(step, wit)
                assert is_independent_set(g, lifted)
                assert len(lifted) == alpha_r + step.gain_k

    def test_tightness_preserved(self, corpus8):
        for g in corpus8[::4]:
            alpha_g, _ = solver.exact_alpha(g)
            if not oracles.check_tight(g, alpha_g):
                continue
            for c in all_configs(g):
                reduced, _ = rd.reduce(g, c)
                alpha_r, _ = solver.exact_alpha(reduced)
                assert oracles.check_tight(reduced, alpha_r)


class TestPinnedReductions:
    """Every ``find_all`` configuration of a fixed host set, its reduction and
    the lifts of several sets, pinned by one digest.  ``solve --trace`` on
    the golden files makes C1 steps only, so this is what holds C2-C4
    reduction and lifting output fixed."""

    def test_digest(self, corpus8, dodecahedron):
        hosts = corpus8 + [dodecahedron, oracles.cylinder(4, 3), oracles.cylinder(5, 3),
                           oracles.grid(4, 5)]
        lines, kinds, seeds = [], set(), set()
        for i, g in enumerate(hosts):
            for c in cf.find_all(g):
                kinds.add(c.kind)
                lines.append("%d %r %s" % (i, c, sorted(c.interference_vertices())))
                if c.kind == "C5":
                    c = cf.c5_to_c2(g, c)
                    lines.append("c5_to_c2 %r" % (c,))
                reduced, step = rd.reduce(g, c)
                lines += [serialize(reduced), step.serialize(),
                          repr(sorted((x, sorted(ns)) for x, ns in step.neighborhoods.items()))]
                z = (step.identified[2],) if step.identified else ()
                u1 = (c.roles[5],) if c.kind == "C4" else ()
                sets = {"empty": frozenset(),
                        "solve": solver.solve(reduced).independent_set}
                for name, seed in (("greedy", ()), ("z", z), ("u1", u1), ("u1+z", u1 + z)):
                    if (name == "greedy" or seed) and is_independent_set(reduced, seed):
                        sets[name] = oracles._augment_maximal(reduced, seed)
                        seeds.add((c.kind, name))
                for name, s in sets.items():
                    lines.append("%s %s -> %s" % (name, sorted(s), sorted(rd.lift(step, s))))
        assert kinds == {"C1", "C2", "C3", "C4", "C5"}
        assert {("C2", "z"), ("C4", "z"), ("C4", "u1"), ("C4", "u1+z")} <= seeds
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8526c4c284ba68726e057c31ab0a8c7690d71b263d39bc0f351166061ec805f8")


class TestDiamondRoundTrip:
    def test_c5_dagger_context(self, golden):
        g = golden["c5_dagger"]
        d = find_diamonds(g)[0]
        reduced, step = oracles.diamond_reduce(g, d)
        assert oracles.isomorphic_small(reduced, cycle_graph(5))
        assert step.diamond.x1 == d.x1 and step.diamond.x2 == d.x2

    def test_exact_alpha_drop(self, golden):
        for name in ("c5_dagger", "c5_ddagger", "member14"):
            g = golden[name]
            alpha_g, _ = solver.exact_alpha(g)
            for d in find_diamonds(g):
                reduced, step = oracles.diamond_reduce(g, d)
                alpha_r, wit = solver.exact_alpha(reduced)
                assert alpha_g == alpha_r + 1
                lifted = rd.lift(step, wit)
                assert is_independent_set(g, lifted)
                assert len(lifted) == alpha_g

    def test_lift_without_path_vertices(self, golden):
        g = golden["c5_dagger"]
        d = find_diamonds(g)[0]
        reduced, step = oracles.diamond_reduce(g, d)
        s = frozenset()
        lifted = rd.lift(step, s)
        assert lifted == frozenset({d.z2})

    def test_dependent_lift_rejected(self, golden):
        g = golden["c5_dagger"]
        d = find_diamonds(g)[0]
        _, step = oracles.diamond_reduce(g, d)
        # v1 lifts to u1, which is adjacent to x1
        with pytest.raises(InternalInvariantError):
            rd.lift(step, {step.v1, d.x1})

    def test_project_then_lift_sizes(self, golden):
        for name in ("c5_dagger", "c5_ddagger"):
            g = golden[name]
            for d in find_diamonds(g):
                reduced, step = oracles.diamond_reduce(g, d)
                _, wit = solver.exact_alpha(g)
                projected = oracles.diamond_project(g, d, wit)
                assert is_independent_set(reduced, projected)
                back = rd.lift(step, projected)
                assert is_independent_set(g, back)
                assert len(back) == len(projected) + 1

    def test_project_augments_first(self, golden):
        g = golden["c5_dagger"]
        d = find_diamonds(g)[0]
        projected = oracles.diamond_project(g, d, {d.z1})
        reduced = oracles.diamond_reduce(g, d)[0]
        assert is_independent_set(reduced, projected)

    def test_project_rejects_dependent_or_foreign_sets(self):
        g = ex.generate_member(4, 1)
        d = find_diamonds(g)[0]
        for s in ({d.u1, d.z1}, {d.w, d.u2, d.z2}, {d.u1, d.x1}, {10 ** 6}):
            with pytest.raises(GraphError):
                oracles.diamond_project(g, d, s)

    def test_project_builds_no_graph(self, monkeypatch):
        # the projection is checked against the path's neighbourhoods, not
        # on a built reduced graph; a dependent set still raises GraphError
        g = ex.generate_member(10, 3)
        wit = solver.exact_alpha(g)[1]
        d = find_diamonds(g)[0]
        reduced, step = oracles.diamond_reduce(g, d)
        builds = []
        init = PlaneGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PlaneGraph, "__init__", counted)
        for d in find_diamonds(g):
            projected = oracles.diamond_project(g, d, wit)
            assert len(projected) == len(wit) - 1
            with pytest.raises(GraphError):
                oracles.diamond_project(g, d, {d.u1, d.z1})
        assert builds == []
        monkeypatch.undo()
        projected = oracles.diamond_project(g, step.diamond, wit)
        assert is_independent_set(reduced, projected)

    def test_invalid_diamond(self):
        g = cycle_graph(5)
        with pytest.raises(GraphError):
            oracles.diamond_reduce(g, Diamond(1, 2, 3, 4, 5, 6, 7))

    def test_diamonds_on_corpus(self, corpus8):
        for g in corpus8[::2]:
            for d in find_diamonds(g):
                alpha_g, _ = solver.exact_alpha(g)
                reduced, step = oracles.diamond_reduce(g, d)
                alpha_r, wit = solver.exact_alpha(reduced)
                assert alpha_g == alpha_r + 1
                lifted = rd.lift(step, wit)
                assert is_independent_set(g, lifted) and len(lifted) == alpha_g


class TestCheckTight:
    def test_c5(self):
        assert oracles.check_tight(cycle_graph(5), 2)

    def test_cube(self, cube):
        assert not oracles.check_tight(cube, 4)

    def test_p2(self):
        assert oracles.check_tight(oracles.path_graph(2), 1)
