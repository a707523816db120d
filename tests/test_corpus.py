import re

import pytest

from trifree import corpus
from trifree.plane_graph import GraphError, isomorphic_small, parse, serialize

import oracles


class TestEnumerateSmall:
    def test_tiny_counts(self):
        graphs = corpus.enumerate_small(2)
        assert [g.n for g in graphs] == [1, 2]

    def test_contains_known_graphs(self):
        from trifree.plane_graph import cycle_graph
        graphs = [g for g in corpus.enumerate_small(5) if g.n == 5]
        assert any(isomorphic_small(g, cycle_graph(5)) for g in graphs)
        # K_{2,3}
        from trifree.plane_graph import embed_edges
        k23 = embed_edges(range(1, 6), [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
        assert any(isomorphic_small(g, k23) for g in graphs)

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
                assert not (a.m == b.m and nx.is_isomorphic(a.to_networkx(), b.to_networkx()))

    def test_counts_match_matrix_enumeration(self):
        # independent generate-and-filter run with adjacency-matrix canon
        want = oracles.enumerate6_by_matrix()
        got = {}
        for g in corpus.enumerate_small(6):
            got[g.n] = got.get(g.n, 0) + 1
        assert got == want

    def test_limit_enforced(self):
        with pytest.raises(GraphError):
            corpus.enumerate_small(12)


class TestGenRandom:
    def test_deterministic(self):
        spec = corpus.CorpusSpec("random", n_max=15, seed=1, count=2)
        a = [serialize(g) for g in corpus.gen_random(spec)]
        b = [serialize(g) for g in corpus.gen_random(spec)]
        assert a == b

    def test_outputs_valid(self):
        spec = corpus.CorpusSpec("random", n_max=20, seed=3, count=5)
        for g in corpus.gen_random(spec):
            assert g.n >= 20
            assert g.is_triangle_free()
            assert g.is_connected()

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

    def test_missing_corpus_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setattr(corpus, "GOLDEN_DIR", tmp_path)
        with pytest.raises(GraphError, match=re.escape(str(tmp_path))):
            corpus.golden_graphs()
        monkeypatch.setattr(corpus, "GOLDEN_DIR", tmp_path / "absent")
        with pytest.raises(GraphError, match="absent"):
            corpus.golden_names()


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

    def test_random_mode(self):
        report = corpus.run_suite(
            corpus.CorpusSpec("random", n_max=14, seed=2, count=3))
        assert not report.violations

    def test_unknown_mode(self):
        with pytest.raises(GraphError):
            corpus.run_suite(corpus.CorpusSpec("bogus"))
