"""networkx loads only where the package calls it.

Each check runs in a fresh interpreter, so what an earlier test imported
cannot hide an import at module level.
"""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from trifree import cli, corpus
from trifree.corpus import GOLDEN_DIR
def golden(name):
    return str(GOLDEN_DIR / (name + ".graph"))
"""

LIBRARY = """
from trifree import (audit, dangerous_cycles, generate_member, is_member,
                     member_max_independent_set, parse, solve)
g = parse(open(golden("member20")).read())
assert solve(g).met
trace = is_member(g)
assert len(member_max_independent_set(g, trace)) == 7
member = generate_member(30, 1)
assert is_member(member).is_member and solve(member).met
for h in corpus.gen_random(corpus.CorpusSpec("random", n_max=150, seed=2, count=2)):
    solve(h)
    f = next(f for f in h.faces() if f.is_cycle() and f.length <= 6)
    dangerous_cycles(h.re_embed(f))
    audit(h.re_embed(f))
audit(parse(open(golden("dangerous_witness")).read()))
"""

COMMANDS = """
for argv in (["validate", golden("c5")], ["solve", "--trace", golden("member20")],
             ["oracle", golden("q3")], ["member", golden("member20")],
             ["find-configs", golden("q3")], ["discharge", "--ledger", golden("c5")],
             ["dangerous", golden("dangerous_witness")], ["audit", golden("c6v")],
             ["audit", golden("dangerous_witness")], ["gen-random", "--n", "300"],
             ["gen-extremal", "--steps", "20"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) in (0, 1), argv
"""


def networkx_loaded(code):
    """Whether networkx is imported after ``code`` runs in a fresh interpreter."""
    code = PRELUDE + code + "\nprint('networkx' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1] == "True"


def test_library_entry_points_leave_networkx_unloaded():
    assert not networkx_loaded(LIBRARY)


def test_commands_leave_networkx_unloaded():
    assert not networkx_loaded(COMMANDS)


def test_enumeration_and_embedding_load_it():
    # the probe itself must be able to see an import
    assert networkx_loaded("corpus.enumerate_small(4)")
    assert networkx_loaded("from trifree import embed_edges\n"
                           "embed_edges([1, 2], [(1, 2)])")
