import hashlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from trifree import corpus, discharging as dc
from trifree.plane_graph import (GraphError, InternalInvariantError, PlaneGraph, cycle_graph,
                                 parse)

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
        ledger = dc.apply_rules(c5_with_outer())
        vals = sorted(ledger.initial.values())
        assert vals == [-2] * 5 + [1, 1]
        assert ledger.total_initial() == -8

    def test_c6v_values(self):
        ledger = dc.apply_rules(oracles.c6_hub())
        by_kind = {}
        for (kind, obj), q in ledger.initial.items():
            by_kind.setdefault(kind, []).append(q)
        assert sorted(by_kind["v"]) == [-2, -2, -2, -1, -1, -1, -1]
        assert sorted(by_kind["f"]) == [0, 0, 0, 2]
        assert ledger.total_initial() == -8

    def test_cube_values(self, cube):
        ledger = dc.apply_rules(cube.re_embed(cube.faces()[0]))
        assert sorted(ledger.initial.values()) == [-1] * 8 + [0] * 6
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

    def test_disconnected_rejected(self):
        # a 4-cycle (outer) and a disjoint edge
        g = parse("6 5\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n5: 6\n6: 5\nouter: 1 2 3 4\n")
        with pytest.raises(GraphError, match="graph is disconnected"):
            dc.apply_rules(g)

    def test_outer_face_required(self):
        with pytest.raises(GraphError, match="no outer face"):
            dc.apply_rules(cycle_graph(5))

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

    def test_pinned_ledgers(self, corpus8):
        # every transfer, in ledger order, of every simple face of length
        # <= 6 taken as outer face, on the n <= 8 corpus and 20 seeded random
        # graphs; all five rules fire
        digest, ledgers, rules = hashlib.sha256(), [], Counter()
        random20 = corpus.gen_random(corpus.CorpusSpec("random", n_max=40, seed=1, count=20))
        for graphs in (corpus8, random20):
            ledgers.append(0)
            for g0 in graphs:
                for k in g0.faces():
                    if not (k.is_cycle() and k.length <= 6):
                        continue
                    ledgers[-1] += 1
                    for t in dc.apply_rules(g0.re_embed(k)).transfers:
                        rules[t.rule] += 1
                        digest.update(("%d %r %r %s\n" % (t.rule, t.source, t.target,
                                                          t.amount)).encode())
                    digest.update(b"\n")
        assert ledgers == [613, 463]
        assert rules == {0: 1713, 1: 11904, 2: 2426, 3: 59, 4: 407}
        assert digest.hexdigest() == (
            "3229fb60b07546c68d16d441328e010ebb3d48482695b4da2389698ae2c75251")


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

    @pytest.mark.parametrize("text", [
        # a 4-cycle (outer) and a disjoint path on three vertices
        "7 6\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n5: 6\n6: 5 7\n7: 6\nouter: 1 2 3 4\n",
        # a 4-cycle (outer) and a disjoint 4-cycle
        "8 8\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n5: 6 8\n6: 7 5\n7: 8 6\n8: 5 7\n"
        "outer: 1 2 3 4\n",
    ], ids=["c4+p3", "c4+c4"])
    def test_disconnected_input_rejected(self, text):
        # the other component's cycles decide nothing: the input is refused
        with pytest.raises(GraphError, match="graph is disconnected"):
            dc.dangerous_cycles(parse(text))

    def test_enclosed_exception_is_not_dangerous(self):
        # an inner hexagon-with-chord hangs off the outer hexagon: its disk
        # is exactly C6c, which the danger test must excuse
        h = _enclosed_chord_graph()
        d = h.disk_subgraph((7, 8, 9, 10, 11, 12))
        assert oracles.isomorphic_small(d, oracles.c6_chord())
        assert dc.dangerous_cycles(h) == []

    def test_pinned_output(self, corpus8, monkeypatch):
        # every dangerous cycle, with its disk's vertex count, of every simple
        # face of length <= 6 taken as outer face: on test_pinned_ledgers'
        # graphs, and on grids and cylinders; the shape test excuses both
        # hexagons and turns other disks away
        shapes, shape = Counter(), dc.hexagon_exception

        def counted(nbrs):
            found = shape(nbrs)
            shapes[found] += 1
            return found

        monkeypatch.setattr(dc, "hexagon_exception", counted)
        random20 = corpus.gen_random(corpus.CorpusSpec("random", n_max=40, seed=1, count=20))
        grids = [oracles.grid(r, r) for r in range(3, 9)]
        grids += [oracles.cylinder(6, 4), oracles.cylinder(8, 5)]
        digest, outers, cycles = hashlib.sha256(), [], 0
        for graphs in (corpus8, random20, grids):
            outers.append(0)
            for g0 in graphs:
                for k in _short_faces(g0):
                    outers[-1] += 1
                    for d in dc.dangerous_cycles(g0.re_embed(k)):
                        cycles += 1
                        digest.update(("%r %d\n" % (d.cycle, d.interior_n)).encode())
                    digest.update(b"\n")
        assert outers == [613, 463, 191] and cycles == 24462
        # a 6-cycle's one-chord disk is excused by its counts, with no shape call
        assert shapes == {"C6c": 23, "C6v": 267, None: 3988}
        assert digest.hexdigest() == (
            "5712550d2aa5aa73edd84a56a9d89fc179bb9995610ce1b5329f18e438fcbc40")

    def test_six_cycle_disks_with_one_chord_are_c6c(self):
        # the lemma dangerous_cycles excuses by counts, checked on built disks:
        # a 6-cycle's disk with 6 vertices and 7 edges is C6c, never dangerous
        graphs = corpus.gen_random(corpus.CorpusSpec("random", n_max=40, seed=1, count=20))
        graphs += [oracles.grid(r, r) for r in range(3, 9)]
        graphs += [oracles.cylinder(6, 4), oracles.cylinder(8, 5)]
        checked = 0
        for g in map(_longest_short_face_outer, graphs):
            dangerous = {d.cycle for d in dc.dangerous_cycles(g)}
            for c in _non_facial(g):
                if len(c) != 6:
                    continue
                d = g.disk_subgraph(c)
                if (d.n, d.m) == (6, 7):
                    assert oracles.isomorphic_small(d, oracles.c6_chord()), c
                    assert c not in dangerous
                    checked += 1
        assert checked > 0


def _non_facial(g):
    """The cycles of ``cycles_up_to`` that are no face walk either way round."""
    facial = {frozenset(f.darts) for f in g.faces()}
    facial |= {frozenset((v, u) for u, v in f) for f in facial}
    return [c for c in g.cycles_up_to()
            if frozenset((c[i - 1], c[i]) for i in range(len(c))) not in facial]


class TestDangerousCyclesCost:
    def test_no_whole_graph_work_per_cycle(self, monkeypatch):
        import networkx as nx
        g = _grid_with_square_outer()
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(nx, "check_planarity", counted("planarity", nx.check_planarity))
        monkeypatch.setattr(nx, "is_isomorphic", counted("iso", nx.is_isomorphic))
        monkeypatch.setattr(PlaneGraph, "components",
                            counted("components", PlaneGraph.components))
        monkeypatch.setattr(PlaneGraph, "_disk_faces", counted("floods", PlaneGraph._disk_faces))
        monkeypatch.setattr(PlaneGraph, "__init__", counted("validated builds",
                                                            PlaneGraph.__init__))
        monkeypatch.setattr(PlaneGraph, "_subtree_sums",
                            counted("subtree sums", PlaneGraph._subtree_sums))
        monkeypatch.setattr(PlaneGraph, "_dual_tree", counted("dual trees", PlaneGraph._dual_tree))
        found = dc.dangerous_cycles(g)
        assert found and _non_facial(g)
        assert calls["floods"] == calls["validated builds"] == 0
        assert calls["iso"] == calls["planarity"] == 0
        assert calls["components"] <= 1  # the host's connectivity test
        assert calls["subtree sums"] == 1  # one pass over the dual per call
        assert calls["dual trees"] == 1
        # each found cycle carries the vertex count of its built disk
        assert [d.interior_n for d in found] == [g.disk_subgraph(d.cycle).n for d in found]
        assert calls["validated builds"] == len(found)

    @pytest.mark.parametrize("make", [lambda: oracles.grid(12, 12),
                                      lambda: oracles.cylinder(6, 30)],
                             ids=["grid12x12", "cyl6x30"])
    def test_one_chord_hexagons_read_no_faces(self, monkeypatch, make):
        # with the benchmark's outer face, the longest short face, each disk
        # with the counts of C6c or C6v is a 6-cycle's one-chord disk, which
        # its counts alone excuse: no face is read into neighbour sets
        g = _longest_short_face_outer(make())
        calls, shape = Counter(), dc.hexagon_exception

        def counted(nbrs):
            calls["shape"] += 1
            return shape(nbrs)

        monkeypatch.setattr(dc, "hexagon_exception", counted)
        assert dc.dangerous_cycles(g)
        assert calls["shape"] == 0

    @pytest.mark.parametrize("make", [_grid_with_square_outer, _enclosed_chord_graph])
    def test_dropping_a_vertex_breaks_euler(self, monkeypatch, make):
        # one face of a disk loses the vertex counted at it, so that disk
        # counts one vertex short
        g = make()
        first = {g.face_of_dart((v, g.rotation(v)[0])) for v in g.vertices}
        faces = g.faces()
        target = next(faces.index(f) for c in _non_facial(g)
                      for f in g.disk_subgraph(c).faces() if f in first)
        sums = PlaneGraph._subtree_sums

        def lossy_sums(self, weights):
            weights[target][2] -= 1
            return sums(self, weights)

        monkeypatch.setattr(PlaneGraph, "_subtree_sums", lossy_sums)
        with pytest.raises(InternalInvariantError, match="breaks Euler"):
            dc.dangerous_cycles(g)

    @pytest.mark.parametrize("make", [_grid_with_square_outer, _enclosed_chord_graph])
    def test_a_wrong_subtree_total_breaks_euler(self, monkeypatch, make):
        # the first tree dart on a cycle that is not facial claims one face
        # too many
        g = make()
        c = _non_facial(g)[0]
        darts = [(c[i - 1], c[i]) for i in range(len(c))]
        sums = PlaneGraph._subtree_sums

        def wrong_sums(self, weights):
            out = sums(self, weights)
            d = next(d for d in darts if d in out)
            out[d] = (out[d][0] + (1 if out[d][0] > 0 else -1),) + out[d][1:]
            return out

        monkeypatch.setattr(PlaneGraph, "_subtree_sums", wrong_sums)
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


def _longest_short_face_outer(g):
    return g.re_embed(max(_short_faces(g), key=lambda f: f.length))


class TestAgainstVF2:
    """The shape test and ``dangerous_cycles`` against VF2 (``oracles``)."""

    def test_shape_predicate_on_graph_atlas(self):
        import networkx as nx
        from trifree.plane_graph import embed_edges
        seen = Counter()
        for h in nx.graph_atlas_g()[1:]:
            # the shape test's domain is triangle-free graphs
            if not nx.is_connected(h) or any(set(h[u]) & set(h[v]) for u, v in h.edges):
                continue
            # C6c and C6v are planar, so VF2 matches no non-planar graph
            want = (oracles.vf2_exception(embed_edges(h.nodes, h.edges))
                    if nx.check_planarity(h)[0] else None)
            assert dc.hexagon_exception({v: set(h[v]) for v in h}) == want, list(h.edges)
            seen[want] += 1
        # connected triangle-free graphs on 1 to 7 vertices
        assert sum(seen.values()) == 90
        assert seen["C6c"] == seen["C6v"] == 1

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
            for f in _short_faces(g):
                found += self._same(g.re_embed(f))
        for seed in range(3):
            (g,) = corpus.gen_random(corpus.CorpusSpec("random", n_max=150, seed=seed, count=1))
            found += self._same(_longest_short_face_outer(g))
        assert found > 0


class TestAgainstFlood:
    """``dangerous_cycles`` against one dual flood per cycle (``oracles``)."""

    @staticmethod
    def _same(g):
        def key(found):
            return [(d.cycle, d.interior_n) for d in found]
        got = key(dc.dangerous_cycles(g))
        assert got == key(oracles.flood_dangerous_cycles(g))
        return len(got)

    def test_corpus8_every_short_face(self, corpus8):
        found = sum(self._same(g.re_embed(f)) for g in corpus8 for f in _short_faces(g))
        assert found > 0

    @pytest.mark.parametrize("make", [
        lambda: oracles.grid(12, 12),
        lambda: oracles.cylinder(6, 30),
    ] + [lambda seed=seed: corpus.gen_random(
        corpus.CorpusSpec("random", n_max=150, seed=seed, count=1))[0] for seed in range(3)],
        ids=["grid12x12", "cyl6x30", "random150-0", "random150-1", "random150-2"])
    def test_benchmark_shapes(self, make):
        # the benchmark's outer face (the longest short face) and a 4-face,
        # whose neighbouring 6-cycles enclose nearly the whole graph
        g = make()
        faces = _short_faces(g)
        found = 0
        for f in {max(faces, key=lambda f: f.length), next(f for f in faces if f.length == 4)}:
            found += self._same(g.re_embed(f))
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


class TestTriangleInput:
    def test_apply_rules_rejects(self, k4_outer_text):
        with pytest.raises(GraphError, match="graph contains a triangle"):
            dc.apply_rules(parse(k4_outer_text))

    def test_dangerous_cycles_rejects(self, k4_outer_text):
        # the definitions assume no triangle: K4's 4-cycles are not dangerous
        with pytest.raises(GraphError, match="graph contains a triangle"):
            dc.dangerous_cycles(parse(k4_outer_text))

    def test_find_all_rejects(self, k4_outer_text):
        from trifree.configurations import find_all
        with pytest.raises(GraphError, match="requires a triangle-free graph"):
            find_all(parse(k4_outer_text))

    def test_find_any_rejects(self, k4_outer_text):
        # K4 holds no configuration: bad input, not a broken invariant
        from trifree.configurations import find_any
        with pytest.raises(GraphError, match="requires a triangle-free graph"):
            find_any(parse(k4_outer_text))

    def test_audit_reports(self, k4_outer_text):
        rep = dc.audit(parse(k4_outer_text))
        assert not rep.hypothesis_ok
        assert rep.hypothesis_failures == ("graph contains a triangle",)
        assert rep.ledger is None and rep.violations == () and rep.configuration is None


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
            from trifree.configurations import interferes
            assert not interferes(rep.configuration, g0.re_embed(k).outer_face)
        assert audited > 20

    def test_final_charge_bounds_reported(self, corpus8):
        # recompute every element's bound from the outer cycle: -5/3 on it,
        # 0 off it and on every inner face; the outer face stays at |K| - 4
        audited = found = 0
        for g0 in corpus8[::3]:
            k = next((f for f in g0.faces() if f.is_cycle() and f.length <= 6), None)
            if k is None:
                continue
            g = g0.re_embed(k)
            rep = dc.audit(g)
            if not rep.hypothesis_ok:
                continue
            audited += 1
            want = []
            for (kind, obj), charge in rep.ledger.final.items():
                if kind == "f" and obj == g.outer_face:
                    assert charge == k.length - 4
                    continue
                bound = -Fraction(5, 3) if kind == "v" and obj in k.vertex_set else 0
                if charge < bound:
                    want.append(((kind, obj), charge, bound))
            want.sort(key=lambda row: repr(row[0]))
            assert [(v.element, v.final_charge, v.bound) for v in rep.violations] == want
            found += len(want)
        assert audited == 18 and found == 56

    def test_configuration_is_the_first_non_interfering_one(self, corpus9, golden):
        # audit searches kind by kind and stops at the first configuration
        # that avoids the outer cycle: the one find_all lists first
        from trifree.configurations import find_all, interferes
        audited = 0
        for g0 in list(corpus9) + list(golden.values()):
            faces = [f for f in g0.faces() if f.is_cycle() and f.length <= 6]
            if not faces:
                continue
            g = g0.re_embed(max(faces, key=lambda f: f.length))
            rep = dc.audit(g)
            if not rep.hypothesis_ok:
                continue
            audited += 1
            want = next(c for c in find_all(g) if not interferes(c, g.outer_face))
            assert rep.configuration == want, g
        assert audited == 125
