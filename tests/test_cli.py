import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trifree import cli
from trifree.corpus import GOLDEN_DIR
from trifree.plane_graph import parse, serialize

import oracles


C5_TWO_OUTER_LINES = ("5 5\n1: 2 5\n2: 1 3\n3: 2 4\n4: 3 5\n5: 1 4\n"
                      "outer: 1 2 3 4 5\nouter: 5 4 3 2 1\n")

# K(2,3) with the 4-cycle 1-2-5-3 outer: it meets every audit hypothesis and
# still has elements below their bounds
K23_OUTER_TEXT = "5 6\n1: 2 4 3\n2: 1 5\n3: 1 5\n4: 1 5\n5: 2 3 4\nouter: 1 2 5 3\n"


def golden_path(name):
    return str(GOLDEN_DIR / (name + ".graph"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserSurface:
    GRAPH_COMMANDS = ("validate", "solve", "oracle", "member",
                      "find-configs", "discharge", "dangerous", "audit")

    def test_pinned_structure(self, capsys, monkeypatch):
        # every subcommand's arguments, in declaration order, with what
        # argparse does with each; help text is left out, because argparse
        # formats it differently across Python versions
        monkeypatch.delenv("TRIFREE_SEED", raising=False)
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        rows = [[name, [[a.option_strings, a.dest, a.default, a.required, a.nargs,
                         getattr(a.type, "__name__", None), a.choices, type(a).__name__]
                        for a in sp._actions]]
                for name, sp in sorted(sub.choices.items())]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "dc8a36011dfc706c16e327c715baff59a7e2bd7cbe44333fde537f8845fe538a"
        # a graph command without its file is a usage error
        for command in self.GRAPH_COMMANDS:
            with pytest.raises(SystemExit) as exc:
                cli.main([command])
            assert exc.value.code == 2
        capsys.readouterr()


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", golden_path("c5"))
        assert code == 0
        assert "n=5 m=5" in out and "triangle_free=True" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such.graph")
        assert code == 2 and "error:" in err

    def test_malformed_graph(self, capsys, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("3 2\n1: 2\n2: 1 3\n3: 1\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "error:" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        # undecodable bytes are bad input that names the file, not a bug
        p = tmp_path / "binary.graph"
        p.write_bytes(b"\xff\xfe\x00garbage")
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert str(p) in err and "UTF-8" in err

    @pytest.mark.parametrize("text", [
        "3 2\n1: 2\n2: 1 3\n3: 2\nouter:\n", "-3 0\n", "0 -1\n", C5_TWO_OUTER_LINES,
        pytest.param("", id="empty"),
        pytest.param("# a comment\n\n", id="comment-only"),
        pytest.param("5\n", id="one-token-header"),
        pytest.param("two 1\n1: 2\n2: 1\n", id="non-integer-header"),
        pytest.param("2 1\n1 2\n2: 1\n", id="no-colon"),
        pytest.param("2 1\n1: x\n2: 1\n", id="non-integer-entry"),
        pytest.param("2 1\nv: 2\n2: 1\n", id="non-integer-label"),
        pytest.param("2 1\n1: 2\n1: 2\n2: 1\n", id="duplicate-vertex"),
        pytest.param("2 1\n1: 3\n2: 1\n", id="unknown-vertex"),
    ])
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_bad_header_or_outer_line(self, capsys, tmp_path, command, text):
        # an empty outer walk, a bad or negative count, a second outer line
        # and every malformed rotation line are input errors
        p = tmp_path / "bad.graph"
        p.write_text(text)
        code, out, err = run(capsys, command, str(p))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


    def test_hub_of_degree_4000(self, capsys, tmp_path):
        p = tmp_path / "k2_4000.graph"
        p.write_text(serialize(oracles.k2(4000)))
        for command in ("validate", "solve"):
            code, out, err = run(capsys, command, str(p))
            assert code == 0 and out and err == ""


class TestSolve:
    def test_member20(self, capsys):
        code, out, _ = run(capsys, "solve", golden_path("member20"))
        assert code == 0
        assert "size 7 guarantee 7 met True" in out

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "solve", "--trace", golden_path("member14"))
        assert code == 0
        assert any(line.startswith("C") for line in out.splitlines())


class TestOracle:
    def test_q3(self, capsys):
        code, out, _ = run(capsys, "oracle", golden_path("q3"))
        assert code == 0 and "alpha 4" in out

    def test_witness_printed(self, capsys):
        _, out, _ = run(capsys, "oracle", golden_path("c5"))
        assert "witness {" in out


class TestMember:
    def test_positive(self, capsys):
        code, out, _ = run(capsys, "member", golden_path("c5_dagger"))
        assert code == 0 and "max_set {" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "member", golden_path("q3"))
        assert code == 0 and "max_set" not in out


class TestInternalError:
    def test_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def broken(g, args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        code, out, err = run(capsys, "validate", golden_path("c5"))
        assert code == 1 and out == ""
        assert err == "internal error: RuntimeError: boom second line\n"


class TestGenerators:
    def test_gen_extremal_parses(self, capsys):
        code, out, _ = run(capsys, "gen-extremal", "--steps", "2", "--seed", "4")
        assert code == 0
        g = parse(out)
        assert g.n == 11 and g.is_triangle_free()

    def test_gen_random_deterministic(self, capsys):
        _, a, _ = run(capsys, "gen-random", "--n", "12", "--seed", "7")
        _, b, _ = run(capsys, "gen-random", "--n", "12", "--seed", "7")
        _, c, _ = run(capsys, "gen-random", "--n", "12", "--seed", "8")
        assert a == b != c

    def test_gen_random_triangle_is_an_invariant_failure(self, capsys, monkeypatch):
        # the generator's own edits cannot make a triangle, so one is a bug
        from trifree.plane_graph import PlaneGraph
        monkeypatch.setattr(PlaneGraph, "is_triangle_free", lambda self: False)
        code, out, err = run(capsys, "gen-random", "--n", "12")
        assert code == 1 and out == ""
        assert err == "invariant failure: random generator produced a triangle\n"

    def test_seed_env(self, capsys, monkeypatch):
        _, a, _ = run(capsys, "gen-random", "--n", "12", "--seed", "9")
        monkeypatch.setenv("TRIFREE_SEED", "9")
        _, b, _ = run(capsys, "gen-random", "--n", "12")
        assert a == b

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIFREE_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-random", "--n", "12"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "--seed" in line and "'abc'" in line
        # commands without a seed ignore the variable
        code, out, _ = run(capsys, "validate", golden_path("c5"))
        assert code == 0 and "n=5 m=5" in out

    def test_enumerate_stderr_clean(self):
        # a fresh process, so no cached enumeration skips the hashing
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "always::UserWarning", "-m", "trifree",
             "enumerate", "--n", "6"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout
        assert proc.stderr == ""

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 6  # 1 + 1 + 1 + 3 connected triangle-free graphs
        for b in blocks:
            parse(b)

    def test_enumerate_over_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "12")
        assert code == 2 and "error:" in err

    def test_enumerate_zero_prints_nothing(self, capsys):
        assert run(capsys, "enumerate", "--n", "0") == (0, "", "")

    @pytest.mark.parametrize("argv", [("enumerate", "--n", "-1"), ("gen-random", "--n", "2"),
                                      ("gen-random", "--n", "3", "--count", "2"),
                                      ("gen-random", "--count", "-1"),
                                      ("suite", "--mode", "random", "--n", "10", "--count", "-2"),
                                      ("suite", "--mode", "extremal", "--count", "-1")])
    def test_size_below_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestFindConfigs:
    def test_c5(self, capsys):
        code, out, _ = run(capsys, "find-configs", golden_path("c5"))
        assert code == 0
        assert out.count("C1 ") == 5

    def test_q3_kinds(self, capsys):
        _, out, _ = run(capsys, "find-configs", golden_path("q3"))
        kinds = {line.split()[0] for line in out.splitlines()}
        assert kinds == {"C2", "C3", "C5"}


class TestDischarge:
    def test_c5(self, capsys):
        code, out, _ = run(capsys, "discharge", golden_path("c5"))
        assert code == 0
        assert "sum_initial -8" in out and "sum_final -8" in out

    def test_ledger_lines(self, capsys):
        _, out, _ = run(capsys, "discharge", "--ledger", golden_path("c5"))
        rules = [line for line in out.splitlines() if line.startswith("R")]
        assert len(rules) == 5 and all("1/3" in line for line in rules)

    def test_bad_outer_face(self, capsys, tmp_path):
        p = tmp_path / "p4.graph"
        p.write_text("4 3\n1: 2\n2: 1 3\n3: 2 4\n4: 3\n")
        code, _, err = run(capsys, "discharge", str(p))
        assert code == 2 and "error:" in err


class TestDangerous:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "dangerous", golden_path("dangerous_witness"))
        assert code == 0
        assert "dangerous 7-8-9-10" in out and "count 1" in out

    def test_clean_graph(self, capsys):
        code, out, _ = run(capsys, "dangerous", golden_path("c5"))
        assert code == 0 and "count 0" in out

    def _one_build(self, capsys, monkeypatch, path):
        from trifree.plane_graph import PlaneGraph
        builds = []
        build = PlaneGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(PlaneGraph, "__init__", counted)
        code, out, err = run(capsys, "dangerous", path)
        assert code == 0 and err == ""
        assert len(builds) == 1  # the parse; no disk is built
        return out

    def test_witness_lines_with_one_build(self, capsys, monkeypatch):
        out = self._one_build(capsys, monkeypatch, golden_path("dangerous_witness"))
        assert out == "dangerous 7-8-9-10 interior_n=5\ncount 1\n"

    def test_random_600_lines_with_one_build(self, capsys, monkeypatch, tmp_path):
        import hashlib
        from trifree import corpus
        (g,) = corpus.gen_random(corpus.CorpusSpec("random", n_max=600, seed=1, count=1))
        g = g.re_embed(max((f for f in g.faces() if f.is_cycle() and f.length <= 6),
                           key=lambda f: f.length))
        p = tmp_path / "random600.graph"
        p.write_text(serialize(g))
        out = self._one_build(capsys, monkeypatch, str(p))
        lines = out.splitlines()
        assert lines[:2] == ["dangerous 1-5-158-111-282 interior_n=598",
                             "dangerous 2-3-102-41-100-167 interior_n=12"]
        assert lines[-1] == "count 1016" and len(lines) == 1017
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eca8c2ce516475b5c121562a2fa968796c6360097f90d665e54d9b0a7f7a0221")

    @pytest.mark.parametrize("make, want", [
        (lambda: oracles.grid(6, 6),
         "dangerous 1-2-3-9-8-7 interior_n=36\n"
         "dangerous 1-2-8-14-13-7 interior_n=36\n"
         "count 2\n"),
        (lambda: oracles.cylinder(6, 5),
         "dangerous 1-2-8-7-12-6 interior_n=30\n"
         "dangerous 1-6-5-11-12-7 interior_n=30\n"
         "dangerous 1-6-12-18-13-7 interior_n=30\n"
         "dangerous 7-8-9-10-11-12 interior_n=24\n"
         "dangerous 13-14-15-16-17-18 interior_n=18\n"
         "dangerous 19-20-21-22-23-24 interior_n=12\n"
         "count 6\n"),
    ], ids=["grid6x6", "cyl6x5"])
    def test_disks_of_nearly_the_whole_graph(self, capsys, tmp_path, make, want):
        # with a 4-face outer, a 6-cycle around that face and a neighbour
        # encloses every vertex
        g = make()
        p = tmp_path / "square_outer.graph"
        p.write_text(serialize(g.re_embed(next(f for f in g.faces() if f.length == 4))))
        code, out, err = run(capsys, "dangerous", str(p))
        assert (code, out, err) == (0, want, "")

    def test_disconnected_input_is_one_error(self, capsys, tmp_path, two_cycles_text):
        p = tmp_path / "two_cycles.graph"
        p.write_text(two_cycles_text)
        code, out, err = run(capsys, "dangerous", str(p))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: graph is disconnected"]

    @pytest.mark.parametrize("text", [
        "7 6\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n5: 6\n6: 5 7\n7: 6\nouter: 1 2 3 4\n",
        "8 8\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n5: 6 8\n6: 7 5\n7: 8 6\n8: 5 7\n"
        "outer: 1 2 3 4\n",
    ], ids=["c4+p3", "c4+c4"])
    def test_disconnected_whatever_the_other_component(self, capsys, tmp_path, text):
        # a 4-cycle (outer) beside a path or a 4-cycle: refused the same way
        p = tmp_path / "disconnected.graph"
        p.write_text(text)
        code, out, err = run(capsys, "dangerous", str(p))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: graph is disconnected"]


class TestAudit:
    def test_exceptional_rejected(self, capsys):
        code, out, _ = run(capsys, "audit", golden_path("c6v"))
        assert code == 1 and "hypothesis violated" in out

    def test_witness_rejected(self, capsys):
        code, out, _ = run(capsys, "audit", golden_path("dangerous_witness"))
        assert code == 1 and "dangerous" in out

    def test_disconnected_input(self, capsys, tmp_path, two_cycles_text):
        p = tmp_path / "two_cycles.graph"
        p.write_text(two_cycles_text)
        code, out, err = run(capsys, "audit", str(p))
        assert code == 1 and err == ""
        assert out == "hypothesis violated: graph is disconnected\n"

    def test_below_bound_lines(self, capsys, tmp_path):
        p = tmp_path / "k23.graph"
        p.write_text(K23_OUTER_TEXT)
        code, out, err = run(capsys, "audit", str(p))
        assert code == 0 and err == ""
        assert out == ("below-bound f(1-3-5-4) charge=-1/3 bound=0\n"
                       "below-bound f(1-4-5-2) charge=-1/3 bound=0\n"
                       "below-bound v4 charge=-2 bound=0\n"
                       "non-interfering C1 roles=4\n")

    def test_triangle_input(self, capsys, tmp_path, k4_outer_text):
        p = tmp_path / "k4.graph"
        p.write_text(k4_outer_text)
        code, out, err = run(capsys, "audit", str(p))
        assert code == 1 and err == ""
        assert out == "hypothesis violated: graph contains a triangle\n"
        code, out, err = run(capsys, "discharge", str(p))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        for cmd in ("dangerous", "find-configs"):  # both assume no triangle
            code, out, err = run(capsys, cmd, str(p))
            assert code == 2 and out == "", cmd
            assert len(err.splitlines()) == 1 and err.startswith("error:"), cmd

    def test_passing_graph(self, capsys, tmp_path, corpus8):
        from trifree import discharging
        for g0 in corpus8:
            k = next((f for f in g0.faces() if f.is_cycle() and f.length <= 6), None)
            if k is None:
                continue
            g = g0.re_embed(k)
            if not discharging.audit(g).hypothesis_ok:
                continue
            p = tmp_path / "ok.graph"
            p.write_text(serialize(g))
            code, out, _ = run(capsys, "audit", str(p))
            assert code == 0 and "non-interfering" in out
            return
        pytest.fail("no hypothesis-satisfying graph found")


class TestSuite:
    def test_exhaustive(self, capsys):
        code, out, _ = run(capsys, "suite", "--mode", "exhaustive", "--n", "6")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["violations"] == 0 and summary["graphs"] > 20

    def test_extremal(self, capsys):
        code, out, _ = run(capsys, "suite", "--mode", "extremal",
                           "--steps", "2", "--count", "3")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["members"] == 3

    def test_extremal_above_the_oracle_limit(self, capsys):
        code, out, _ = run(capsys, "suite", "--mode", "extremal",
                           "--steps", "12", "--count", "2")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary == {"graphs": 2, "members": 2, "tight": 0, "met": 2, "violations": 0}


class TestGoldenTranscript:
    """Every command on the golden corpus and every generator, run in-process,
    pinned by one sha256 over (argv, exit code, stdout, stderr).  A golden
    file enters argv by its name, so the digest holds wherever the corpus is
    installed."""

    GOLDEN_COMMANDS = (("validate",), ("solve",), ("solve", "--trace"), ("oracle",),
                       ("member",), ("find-configs",), ("discharge",),
                       ("discharge", "--ledger"), ("dangerous",), ("audit",))
    GENERATORS = (("gen-extremal", "--steps", "20"), ("gen-random", "--n", "60", "--count", "2"),
                  ("enumerate", "--n", "6"), ("suite", "--mode", "extremal"),
                  ("suite", "--mode", "random"))

    def test_digest(self, capsys, monkeypatch):
        import hashlib
        from trifree import corpus
        monkeypatch.delenv("TRIFREE_SEED", raising=False)
        runs = [(cmd + (name,), cmd + (golden_path(name),))
                for name in corpus.golden_names() for cmd in self.GOLDEN_COMMANDS]
        runs += [(argv, argv) for argv in self.GENERATORS]
        assert len(runs) == 105
        digest = hashlib.sha256()
        for shown, argv in runs:
            code, out, err = run(capsys, *argv)
            digest.update(repr((shown, code, out, err)).encode())
        assert digest.hexdigest() == (
            "cc636c018960cb3e9006f3e6042ad477673d4df13941f5064b5b5faf801e10b8")
