import hashlib
import re
import time

import pytest

from trifree import corpus
from trifree.plane_graph import GraphError, PlaneGraph, parse, serialize

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

    def test_smaller_enumerations_reuse_the_levels(self, corpus9, monkeypatch):
        # after enumerate_small(9) every smaller one is read from the shared
        # levels: no graph is hashed or compared again
        import networkx as nx

        def refuse(*args, **kwargs):
            raise AssertionError("an enumeration level was grown again")

        monkeypatch.setattr(nx, "weisfeiler_lehman_graph_hash", refuse)
        monkeypatch.setattr(nx, "is_isomorphic", refuse)
        for n_max in range(8):
            got = [serialize(g) for g in corpus.enumerate_small(n_max)]
            assert got == [serialize(g) for g in corpus9 if g.n <= n_max]

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

        def counted(self, rotation, outer_face=None, check=True):
            validated.append(check)
            init(self, rotation, outer_face, check)

        monkeypatch.setattr(PlaneGraph, "__init__", counted)
        graphs = corpus.gen_random(corpus.CorpusSpec("random", n_max=60, seed=0, count=3))
        assert len(graphs) <= sum(validated) <= len(graphs) + 1

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
