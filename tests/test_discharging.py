from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from trifree import corpus, discharging as dc
from trifree.plane_graph import GraphError, InternalInvariantError, PlaneGraph, cycle_graph

import oracles

THIRD = Fraction(1, 3)


def c5_with_outer():
    g = cycle_graph(5)
    return g.re_embed(g.faces()[0])


class TestExceptionalGraphs:
    def test_c6c_shape(self):
        g = oracles.c6_chord()
        assert g.n == 6 and g.m == 7
        assert sorted(f.length for f in g.faces()) == [4, 4, 6]
        assert g.outer_face.length == 6

    def test_c6v_shape(self):
        g = oracles.c6_hub()
        assert g.n == 7 and g.m == 9
        assert sorted(f.length for f in g.faces()) == [4, 4, 4, 6]
        assert g.outer_face.length == 6
        hub = next(v for v in g.vertices if v not in g.outer_face.vertex_set)
        assert g.degree(hub) == 3


class TestInitialCharges:
    def test_c5_values(self):
        ledger = dc.initial_charges(c5_with_outer())
        vals = sorted(ledger.initial.values())
        assert vals == [-2] * 5 + [1, 1]
        assert ledger.total_initial() == -8

    def test_c6v_values(self):
        g = oracles.c6_hub()
        ledger = dc.initial_charges(g)
        by_kind = {}
        for (kind, obj), q in ledger.initial.items():
            by_kind.setdefault(kind, []).append(q)
        assert sorted(by_kind["v"]) == [-2, -2, -2, -1, -1, -1, -1]
        assert sorted(by_kind["f"]) == [0, 0, 0, 2]
        assert ledger.total_initial() == -8

    def test_cube_values(self, cube):
        g = cube.re_embed(cube.faces()[0])
        ledger = dc.initial_charges(g)
        assert sorted(ledger.initial.values()) == [-1] * 8 + [0] * 6
        assert ledger.total_initial() == -8

    def test_disconnected_rejected(self):
        g = PlaneGraph({1: (2,), 2: (1,), 3: (4,), 4: (3,)})
        with pytest.raises(GraphError):
            dc.initial_charges(g)

    def test_outer_face_required(self):
        with pytest.raises(GraphError):
            dc.initial_charges(cycle_graph(5))

    def test_minus_eight_on_corpus(self, corpus7):
        for g in corpus7:
            if not g.faces():
                continue  # the single-vertex graph has no face to designate
            ledger = dc.initial_charges(g.re_embed(g.faces()[0]))
            assert ledger.total_initial() == -8


class TestApplyRules:
    def test_c5_rule0_only(self):
        ledger = dc.apply_rules(c5_with_outer())
        assert all(t.rule == 0 for t in ledger.transfers)
        assert len(ledger.transfers) == 5
        assert all(t.amount == THIRD for t in ledger.transfers)
        assert ledger.total_final() == -8

    def test_c6v_conservation(self):
        ledger = dc.apply_rules(oracles.c6_hub())
        assert ledger.total_final() == -8
        assert any(t.rule == 0 for t in ledger.transfers)

    def test_cube_rule2_sixths(self, cube):
        g = cube.re_embed(cube.faces()[0])
        ledger = dc.apply_rules(g)
        r2 = [t for t in ledger.transfers if t.rule == 2]
        assert r2 and all(t.amount == Fraction(1, 6) for t in r2)
        assert ledger.total_final() == -8

    def test_outer_face_untouched(self, corpus8):
        for g0 in corpus8[::4]:
            k = next((f for f in g0.faces() if f.is_cycle() and f.length <= 6), None)
            if k is None:
                continue
            g = g0.re_embed(k)
            ledger = dc.apply_rules(g)
            key = ("f", g.outer_face)
            assert ledger.final[key] == ledger.initial[key]

    def test_amounts_in_rule_set(self, corpus8):
        allowed = {THIRD, Fraction(1, 6), Fraction(1, 9), Fraction(1, 12)}
        for g0 in corpus8[::4]:
            k = next((f for f in g0.faces() if f.is_cycle() and f.length <= 6), None)
            if k is None:
                continue
            for t in dc.apply_rules(g0.re_embed(k)).transfers:
                assert t.amount in allowed

    def test_rerun_identical(self, golden):
        g = golden["dangerous_witness"]
        assert dc.apply_rules(g) == dc.apply_rules(g)

    def test_long_outer_face_rejected(self):
        g = cycle_graph(7)
        with pytest.raises(GraphError):
            dc.apply_rules(g.re_embed(g.faces()[0]))

    def test_non_cycle_outer_rejected(self):
        g = oracles.path_graph(4)
        with pytest.raises(GraphError):
            dc.apply_rules(g.re_embed(g.faces()[0]))

    def test_conservation_on_corpus(self, corpus8):
        for g0 in corpus8[::2]:
            k = next((f for f in g0.faces() if f.is_cycle() and f.length <= 6), None)
            if k is None:
                continue
            ledger = dc.apply_rules(g0.re_embed(k))
            assert ledger.total_final() == ledger.total_initial() == -8


def _grid_with_square_outer():
    g = oracles.grid(10, 10)
    return g.re_embed(next(f for f in g.faces() if f.length == 4))


def _enclosed_chord_graph():
    """An outer hexagon with a hexagon-with-chord hanging off it."""
    from trifree.plane_graph import embed_edges
    edges = [(i, i % 6 + 1) for i in range(1, 7)]
    edges += [(6 + i, 6 + (i % 6) + 1) for i in range(1, 7)]
    edges += [(9, 12), (1, 7)]
    g = embed_edges(range(1, 13), edges)
    return g.re_embed(g.find_face((1, 2, 3, 4, 5, 6)) or g.find_face((6, 5, 4, 3, 2, 1)))


class TestDangerousCycles:
    def test_c5_none(self):
        assert dc.dangerous_cycles(c5_with_outer()) == []

    def test_c6c_none(self):
        assert dc.dangerous_cycles(oracles.c6_chord()) == []

    def test_c6v_none(self):
        assert dc.dangerous_cycles(oracles.c6_hub()) == []

    def test_witness_has_one(self, golden, expectations):
        g = golden["dangerous_witness"]
        found = dc.dangerous_cycles(g)
        assert len(found) == expectations["dangerous_witness"]["dangerous_count"]
        assert found[0].cycle == (7, 8, 9, 10)
        assert found[0].interior_n == 5

    def test_enclosed_exception_is_not_dangerous(self):
        # an inner hexagon-with-chord hangs off the outer hexagon: its disk
        # is exactly C6c, which the danger test must excuse
        h = _enclosed_chord_graph()
        d = h.disk_subgraph((7, 8, 9, 10, 11, 12))
        assert oracles.isomorphic_small(d, oracles.c6_chord())
        assert dc.dangerous_cycles(h) == []


class TestDangerousCyclesCost:
    def test_no_whole_graph_work_per_cycle(self, monkeypatch):
        import networkx as nx
        oracles.c6_chord(), oracles.c6_hub()
        g = _grid_with_square_outer()
        k_edges = g.outer_face.edge_set
        inner_cycles = sum(
            frozenset(frozenset((c[i - 1], c[i])) for i in range(len(c))) != k_edges
            for c in g.cycles_up_to(6))
        calls = Counter()
        planarity, iso, components, flood, build = (
            nx.check_planarity, nx.is_isomorphic, PlaneGraph.components,
            PlaneGraph._disk_faces, PlaneGraph.__init__)

        def counted_planarity(*args, **kwargs):
            calls["planarity"] += 1
            return planarity(*args, **kwargs)

        def counted_iso(*args, **kwargs):
            calls["iso"] += 1
            return iso(*args, **kwargs)

        def counted_components(self):
            calls["host components" if self is g else "disk components"] += 1
            return components(self)

        def counted_flood(self, cycle):
            calls["floods"] += 1
            return flood(self, cycle)

        def counted_build(self, rotation, outer_face=None, check=True):
            calls["validated builds"] += check
            build(self, rotation, outer_face, check)

        monkeypatch.setattr(nx, "check_planarity", counted_planarity)
        monkeypatch.setattr(nx, "is_isomorphic", counted_iso)
        monkeypatch.setattr(PlaneGraph, "components", counted_components)
        monkeypatch.setattr(PlaneGraph, "_disk_faces", counted_flood)
        monkeypatch.setattr(PlaneGraph, "__init__", counted_build)
        found = dc.dangerous_cycles(g)
        assert found
        assert calls["floods"] == inner_cycles
        assert calls["validated builds"] == calls["disk components"] == 0
        assert calls["iso"] == 0
        assert calls["planarity"] == 0
        assert calls["host components"] <= 1
        assert oracles.c6_chord() is oracles.c6_chord()
        assert oracles.c6_hub() is oracles.c6_hub()
        # each found cycle carries the vertex count of its built disk
        assert [d.interior_n for d in found] == [g.disk_subgraph(d.cycle).n for d in found]
        assert calls["validated builds"] == len(found)

    @pytest.mark.parametrize("make, min_faces", [(_grid_with_square_outer, 4),
                                                 (_enclosed_chord_graph, 2)])
    def test_flood_losing_a_face_breaks_euler(self, monkeypatch, make, min_faces):
        # the grid drops a face only from dangerous disks (C6c and C6v have
        # 2 and 3 faces), the enclosed-chord graph from its one C6c disk
        g = make()
        flood = PlaneGraph._disk_faces

        def lossy_flood(self, cycle):
            boundary, faces = flood(self, cycle)
            return boundary, faces[1:] if len(faces) >= min_faces else faces

        monkeypatch.setattr(PlaneGraph, "_disk_faces", lossy_flood)
        with pytest.raises(InternalInvariantError, match="breaks Euler"):
            dc.dangerous_cycles(g)


class TestDangerousCycleValue:
    def test_value_is_cycle_and_interior_n(self, golden):
        (a,) = dc.dangerous_cycles(golden["dangerous_witness"])
        b = dc.DangerousCycle((7, 8, 9, 10), 5)
        assert a == b and hash(a) == hash(b)
        assert a != dc.DangerousCycle(a.cycle, 6)
        assert a != dc.DangerousCycle((7, 10, 9, 8), 5)
        assert repr(a) == "DangerousCycle(cycle=(7, 8, 9, 10), interior_n=5)"


def _short_faces(g):
    return [f for f in g.faces() if f.is_cycle() and f.length <= 6]


class TestAgainstVF2:
    """The shape test and ``dangerous_cycles`` against VF2 (``oracles``)."""

    def test_shape_predicate_on_graph_atlas(self):
        import networkx as nx
        from trifree.plane_graph import embed_edges
        seen = Counter()
        for h in nx.graph_atlas_g()[1:]:
            if not nx.is_connected(h):
                continue
            # C6c and C6v are planar, so VF2 matches no non-planar graph
            want = (oracles.vf2_exception(embed_edges(h.nodes, h.edges))
                    if nx.check_planarity(h)[0] else None)
            assert dc.hexagon_exception({v: set(h[v]) for v in h}) == want, list(h.edges)
            triangles = any(set(h[u]) & set(h[v]) for u, v in h.edges)
            seen[want, triangles] += 1
        assert sum(seen.values()) == 996  # connected graphs on 1 to 7 vertices
        assert seen["C6c", False] == seen["C6v", False] == 1
        assert seen[None, True] > 800 and seen[None, False] > 80

    def _same(self, g):
        def key(found):
            return [(d.cycle, d.interior_n) for d in found]
        got = key(dc.dangerous_cycles(g))
        assert got == key(oracles.vf2_dangerous_cycles(g))
        return len(got)

    def test_corpus7_every_short_face(self, corpus7):
        found = sum(self._same(g.re_embed(f)) for g in corpus7 for f in _short_faces(g))
        assert found > 0

    def test_golden(self, golden):
        checked = 0
        for g in golden.values():
            for f in _short_faces(g):
                self._same(g.re_embed(f))
                checked += 1
        assert checked > 20

    def test_grid_cylinder_and_random(self):
        graphs = [oracles.grid(6, 6), oracles.cylinder(6, 5)]
        found = 0
        for g in graphs:
            for f in _short_faces(g)[::4]:
                found += self._same(g.re_embed(f))
        for seed in range(3):
            (g,) = corpus.gen_random(corpus.CorpusSpec("random", n_max=150, seed=seed, count=1))
            found += self._same(g.re_embed(max(_short_faces(g), key=lambda f: f.length)))
        assert found > 0


def _audit_invariants(g):
    rep = dc.audit(g)
    charges = sorted(rep.ledger.final.values()) if rep.ledger else None
    return len(dc.dangerous_cycles(g)), rep.hypothesis_ok, charges


class TestAuditMetamorphic:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 60), seed=st.integers(0, 2 ** 32), data=st.data())
    def test_relabel_and_mirror_keep_the_audit(self, n, seed, data):
        (g,) = corpus.gen_random(corpus.CorpusSpec("random", n_max=n, seed=seed, count=1))
        faces = _short_faces(g)
        assume(faces)
        outer = data.draw(st.sampled_from(faces))
        g = g.re_embed(outer)
        want = _audit_invariants(g)

        mapping = dict(zip(g.vertices, data.draw(st.permutations(g.vertices))))
        relabelled = oracles.relabel(g, mapping)
        relabelled = relabelled.re_embed(
            relabelled.find_face([mapping[v] for v in outer.vertex_walk()]))
        assert _audit_invariants(relabelled) == want

        # reversing every rotation reverses every face walk
        mirrored = PlaneGraph({v: g.rotation(v)[::-1] for v in g.vertices})
        mirrored = mirrored.re_embed(mirrored.find_face(outer.vertex_walk()[::-1]))
        assert _audit_invariants(mirrored) == want


class TestAudit:
    def test_exceptional_graphs_rejected(self):
        for g in (oracles.c6_chord(), oracles.c6_hub()):
            rep = dc.audit(g)
            assert not rep.hypothesis_ok
            assert any("exception" in r for r in rep.hypothesis_failures)

    def test_bare_cycle_rejected(self):
        rep = dc.audit(c5_with_outer())
        assert not rep.hypothesis_ok

    def test_witness_rejected_with_cycle(self, golden):
        rep = dc.audit(golden["dangerous_witness"])
        assert not rep.hypothesis_ok
        assert any("dangerous" in r for r in rep.hypothesis_failures)

    def test_hypothesis_satisfying_corpus(self, corpus8):
        audited = 0
        for g0 in corpus8:
            k = next((f for f in g0.faces() if f.is_cycle() and f.length <= 6), None)
            if k is None:
                continue
            rep = dc.audit(g0.re_embed(k))
            if not rep.hypothesis_ok:
                continue
            audited += 1
            assert rep.configuration is not None
            assert rep.ok
            from trifree.configurations import interferes
            assert not interferes(rep.configuration, g0.re_embed(k).outer_face)
        assert audited > 20

    def test_final_charge_bounds_reported(self, corpus8):
        from trifree.configurations import interferes
        for g0 in corpus8[::3]:
            k = next((f for f in g0.faces() if f.is_cycle() and f.length <= 6), None)
            if k is None:
                continue
            rep = dc.audit(g0.re_embed(k))
            if not rep.hypothesis_ok:
                continue
            for v in rep.verdicts:
                assert v.ok == (v.final_charge >= v.bound)
