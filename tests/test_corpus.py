import hashlib
import random
import re
import time
from pathlib import Path

import pytest

import trifree
from trifree import corpus
from trifree.plane_graph import (GraphError, InternalInvariantError, PlaneGraph, parse,
                                 serialize)

import oracles


class TestEnumerateSmall:
    def test_tiny_counts(self):
        graphs = corpus.enumerate_small(2)
        assert [g.n for g in graphs] == [1, 2]

    def test_contains_known_graphs(self):
        from trifree.plane_graph import cycle_graph
        graphs = [g for g in corpus.enumerate_small(5) if g.n == 5]
        assert any(oracles.isomorphic_small(g, cycle_graph(5)) for g in graphs)
        # K_{2,3}
        from trifree.plane_graph import embed_edges
        k23 = embed_edges(range(1, 6), [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
        assert any(oracles.isomorphic_small(g, k23) for g in graphs)

    def test_all_valid(self, corpus7):
        for g in corpus7:
            assert g.is_triangle_free()
            assert g.is_connected()
            assert sorted(g.vertices) == list(range(1, g.n + 1))

    def test_pairwise_nonisomorphic_at_n6(self):
        import networkx as nx
        graphs = [g for g in corpus.enumerate_small(6) if g.n == 6]
        for i, a in enumerate(graphs):
            for b in graphs[i + 1:]:
                assert not (a.m == b.m and nx.is_isomorphic(oracles.to_networkx(a),
                                                            oracles.to_networkx(b)))

    def test_counts_match_matrix_enumeration(self):
        # independent generate-and-filter run with adjacency-matrix canon
        want = oracles.enumerate6_by_matrix()
        assert want == {1: 1, 2: 1, 3: 1, 4: 3, 5: 6, 6: 18}
        got = {}
        for g in corpus.enumerate_small(6):
            got[g.n] = got.get(g.n, 0) + 1
        assert got == want

    def test_pinned_output(self, corpus9):
        # every graph up to n = 9, its order and its embedding must not change
        text = "".join(serialize(g) for g in corpus9)
        assert len(corpus9) == 1378
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9f542c4eee3c33402206f99b318229061ef8eb6148bd4242a2f5c69512cc38ef")

    def test_one_planarity_test_per_class(self, monkeypatch):
        # planarity is an isomorphism invariant, so only a candidate that
        # opens a new class is tested; the uncached call leaves the cache alone
        import networkx as nx
        tested, opened = [], []
        check, dedup = nx.check_planarity, corpus._iso_dedup_add

        def counted_check(*args, **kwargs):
            tested.append(1)
            return check(*args, **kwargs)

        def counted_dedup(buckets, g):
            new = dedup(buckets, g)
            opened.append(new)
            return new

        corpus._abstract_level(6)
        monkeypatch.setattr(nx, "check_planarity", counted_check)
        monkeypatch.setattr(corpus, "_iso_dedup_add", counted_dedup)
        level = corpus._abstract_level.__wrapped__(7)
        assert len(level) == 55
        assert len(tested) == sum(opened) < len(opened)

    def test_smaller_enumerations_reuse_the_levels(self, corpus9, monkeypatch):
        # after enumerate_small(9) every smaller one is read from the shared
        # levels: no graph is keyed or compared again
        import networkx as nx

        def refuse(*args, **kwargs):
            raise AssertionError("an enumeration level was grown again")

        monkeypatch.setattr(corpus, "_colour_key", refuse)
        monkeypatch.setattr(nx, "is_isomorphic", refuse)
        for n_max in range(8):
            got = [serialize(g) for g in corpus.enumerate_small(n_max)]
            assert got == [serialize(g) for g in corpus9 if g.n <= n_max]

    def test_colour_key_is_a_relabelling_invariant(self):
        import networkx as nx
        rng = random.Random(7)
        for n in range(1, 9):
            for g, _ in corpus._abstract_level(n):
                key = corpus._colour_key(g)
                for _ in range(3):
                    perm = list(g)
                    rng.shuffle(perm)
                    assert corpus._colour_key(nx.relabel_nodes(g, dict(zip(g, perm)))) == key

    def test_colour_key_is_as_fine_as_the_wl_hash(self, monkeypatch):
        # a coarser key leaves the output alone but compares more candidates;
        # 1517 is the count the networkx Weisfeiler-Lehman hash key gave
        import networkx as nx
        calls = []
        iso = nx.is_isomorphic

        def counted(*args, **kwargs):
            calls.append(1)
            return iso(*args, **kwargs)

        corpus._abstract_level(7)
        monkeypatch.setattr(nx, "is_isomorphic", counted)
        level = corpus._abstract_level.__wrapped__(8)
        assert len(level) == 230
        assert len(calls) == 1517

    def test_limit_enforced(self):
        with pytest.raises(GraphError):
            corpus.enumerate_small(12)

    def test_zero_and_negative(self):
        assert corpus.enumerate_small(0) == []
        with pytest.raises(GraphError):
            corpus.enumerate_small(-1)


class TestGenRandom:
    def test_deterministic(self):
        spec = corpus.CorpusSpec("random", n_max=15, seed=1, count=2)
        a = [serialize(g) for g in corpus.gen_random(spec)]
        b = [serialize(g) for g in corpus.gen_random(spec)]
        assert a == b

    @pytest.mark.parametrize("n,seed,digest", [
        (12, 0, "b94da41a234c6c406531cbfee44a0e9f3cd30616bf56d0987979a5d277b027de"),
        (12, 1, "fb0ba3cc9c64ab175d52446a6dada9e92d2de9afc960e27f5f6761932e00034b"),
        (12, 2, "7659e824f9f4c88eae7bf2aae60619e0773daa3a3c31a0b742ea17184a62bf3c"),
        (60, 0, "1af7977e8a1f5f2df7efe9a65d141a322aae03ba68f51ae0573f03db9f17851d"),
        (60, 1, "5f225ef133d1183d2c3fd2bf3147539f6e08c48f9fe0e5a257e8d40dbc2dedfb"),
        (60, 2, "6430c1f8e1065b10e04f7b40eb5cf00ffc15df94525d5015b2dc04f85fd4390e"),
        (210, 0, "9042dd0003f694423daf5aca59193263ce2b5128162acadff7d19ce40273ce48"),
        (210, 1, "fb17548a961c357a8f5bc593644e30360fc0fd3292b03141611c062800cec5db"),
        (210, 2, "3b6909459444f972074a727f1ebbdfb70ba9eebea7396ae389ab570d8ee2af7c"),
    ])
    def test_pinned_output(self, n, seed, digest):
        # the graph made for a seed must not change between versions
        (g,) = corpus.gen_random(corpus.CorpusSpec("random", n_max=n, seed=seed, count=1))
        assert hashlib.sha256(serialize(g).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 20, 60, 150, 210, 400])
    def test_matches_whole_trace_generator(self, n):
        # kept edges and face keys stand in for a whole trace per step
        for seed in range(12):
            spec = corpus.CorpusSpec("random", n_max=n, seed=seed, count=2)
            assert ([serialize(g) for g in corpus.gen_random(spec)]
                    == [serialize(g) for g in oracles.traced_gen_random(spec)])

    def test_two_thousand_vertices_in_under_a_second(self):
        # each step retraces only the faces it edits (a whole trace per face
        # step takes about 8 s at this size)
        start = time.perf_counter()
        (g,) = corpus.gen_random(corpus.CorpusSpec("random", n_max=2000, seed=0, count=1))
        assert time.perf_counter() - start < 1.0
        assert g.n == 2000

    def test_outputs_valid(self):
        spec = corpus.CorpusSpec("random", n_max=20, seed=3, count=5)
        for g in corpus.gen_random(spec):
            assert g.n >= 20
            assert g.is_triangle_free()
            assert g.is_connected()

    def test_one_validated_build_per_graph(self, monkeypatch):
        # each graph grows as one rotation and is validated once at the end;
        # the C4 seed may add one more
        validated = []
        init = PlaneGraph.__init__

        def counted(self, rotation):
            validated.append(1)
            init(self, rotation)

        monkeypatch.setattr(PlaneGraph, "__init__", counted)
        graphs = corpus.gen_random(corpus.CorpusSpec("random", n_max=60, seed=0, count=3))
        assert len(graphs) <= len(validated) <= len(graphs) + 1

    def test_triangle_is_an_invariant_failure(self, monkeypatch):
        # the edits cannot make a triangle, so the final check guards a bug,
        # not the caller's input
        monkeypatch.setattr(PlaneGraph, "is_triangle_free", lambda self: False)
        with pytest.raises(InternalInvariantError, match="produced a triangle"):
            corpus.gen_random(corpus.CorpusSpec("random", n_max=12, seed=0, count=1))

    @pytest.mark.parametrize("n", [3, 2, 0, -1])
    def test_below_c4_rejected(self, n):
        with pytest.raises(GraphError):
            corpus.gen_random(corpus.CorpusSpec("random", n_max=n, seed=0, count=1))

    def test_round_trip(self):
        spec = corpus.CorpusSpec("random", n_max=12, seed=5, count=3)
        for g in corpus.gen_random(spec):
            back = parse(serialize(g))
            assert serialize(back) == serialize(g)


class TestGolden:
    def test_all_files_load(self, golden, expectations):
        assert set(golden) == set(expectations)
        for name, g in golden.items():
            exp = expectations[name]
            assert g.n == exp["n"] and g.m == exp["m"]

    def test_expected_alpha_and_membership(self, golden, expectations):
        from trifree import solver
        from trifree.extremal import is_member
        for name, g in golden.items():
            exp = expectations[name]
            alpha, _ = solver.exact_alpha(g)
            assert alpha == exp["alpha"], name
            assert is_member(g).is_member == exp["member"], name

    def test_expected_names_present(self, golden):
        for name in ("p2", "c5", "c5_dagger", "c5_ddagger", "c6c", "c6v",
                     "q3", "member14", "member20", "dangerous_witness"):
            assert name in golden

    def test_corpus_ships_inside_the_package(self):
        # an installed package finds its golden files only as package data
        assert corpus.GOLDEN_DIR.is_relative_to(Path(trifree.__file__).resolve().parent)

    def test_missing_corpus_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setattr(corpus, "GOLDEN_DIR", tmp_path)
        with pytest.raises(GraphError, match=re.escape(str(tmp_path))):
            corpus.golden_graphs()
        monkeypatch.setattr(corpus, "GOLDEN_DIR", tmp_path / "absent")
        with pytest.raises(GraphError, match="absent"):
            corpus.golden_names()


class TestCorpusSpec:
    @pytest.mark.parametrize("mode", ["exhaustive", "random", "extremal"])
    def test_negative_count_rejected(self, mode):
        # one check covers every path that takes a count
        with pytest.raises(GraphError, match="count must be non-negative"):
            corpus.CorpusSpec(mode, count=-1)
        assert corpus.CorpusSpec(mode, count=0).count == 0


class TestRunSuite:
    def test_exhaustive_no_violations(self):
        report = corpus.run_suite(corpus.CorpusSpec("exhaustive", n_max=7))
        assert report.rows and not report.violations
        summary = report.summary()
        assert summary["graphs"] == len(report.rows)
        assert summary["met"] == summary["graphs"]

    def test_extremal_mode(self):
        report = corpus.run_suite(corpus.CorpusSpec("extremal", steps=3, count=3))
        assert all(r.member for r in report.rows)
        assert all(3 * r.alpha == r.n + 1 for r in report.rows)
        assert not report.violations

    def test_above_the_oracle_limit(self):
        # n = 41: no exact alpha, the member flag comes from is_member alone
        report = corpus.run_suite(corpus.CorpusSpec("extremal", count=2, steps=12))
        assert [r.n for r in report.rows] == [41, 41]
        for r in report.rows:
            assert r.alpha is None and r.lower_ok is None and r.main_ok is None
            assert r.member and r.met
        assert not report.violations

    def test_random_mode(self):
        report = corpus.run_suite(
            corpus.CorpusSpec("random", n_max=14, seed=2, count=3))
        assert not report.violations

    def test_one_membership_test_per_oracle_row(self, monkeypatch):
        # solve's guarantee asks once and check_theorem_bounds once; the row
        # reads its member flag from the bounds
        from trifree import extremal
        calls = []
        real = extremal.is_member

        def counted(g):
            calls.append(1)
            return real(g)

        monkeypatch.setattr(extremal, "is_member", counted)
        report = corpus.run_suite(corpus.CorpusSpec("exhaustive", n_max=6))
        assert len(report.rows) == 30
        assert len(calls) == 2 * len(report.rows)

    def test_unknown_mode(self):
        with pytest.raises(GraphError):
            corpus.run_suite(corpus.CorpusSpec("bogus"))
