"""The benchmark's layer tracer still sees every layer it reports on.

``perfbench/tracer.py`` wraps trifree's functions from outside the package by
swapping references held in module globals and module-level tuples.  A
refactor that moves a call behind some other reference silently zeroes that
layer's counts, so this runs the tracer on small inputs and checks them.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracer
import oracles
from trifree import configurations, corpus, discharging, extremal, solver
from trifree.plane_graph import PlaneGraph

t = tracer.install(tracer.Tracer())
t.keep_spans = False
t.active = True
g = corpus.golden_graphs()["member20"]
# solve reduces member20 by C1 four times on its own workspace, without
# find_c1 or reduce; the cylinder's C2 step goes through find_any, find_c1
# and reduce.  The cube would be solved exactly
solver.solve(g)
solver.solve(oracles.cylinder(6, 30))
extremal.member_max_independent_set(g, extremal.is_member(g))
w = corpus.golden_graphs()["dangerous_witness"]
discharging.audit(w)
# neither audit nor dangerous_cycles builds a disk; this builds one
w.disk_subgraph(discharging.dangerous_cycles(w)[0].cycle)
grid = oracles.grid(4, 5)
discharging.audit(grid.re_embed(next(f for f in grid.faces() if f.length == 4)))
layers, under = dict(t.calls), dict(t.ancestor_counts)
# find_all alone, on C6v (C1, C2, C3, C5) beside the 11-vertex member (C4)
t.reset()
c6v, member11 = corpus.golden_graphs()["c6v"], corpus.golden_graphs()["c5_ddagger"]
rot = {v: c6v.rotation(v) for v in c6v.vertices}
rot.update({v + 100: tuple(u + 100 for u in member11.rotation(v)) for v in member11.vertices})
kinds = sorted({c.kind for c in configurations.find_all(PlaneGraph(rot))})
print(json.dumps([layers, under, t.calls, kinds]))
"""


def test_tracer_counts_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(ROOT / "tests")],
        env=dict(os.environ), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls, under, find_all_calls, kinds = json.loads(proc.stdout)
    for name in ("configurations.find_c1", "reductions.reduce", "reductions.lift",
                 "extremal.find_diamonds", "extremal.replace", "extremal.certificate",
                 "discharging.audit", "discharging.dangerous_cycles", "plane_graph.disk"):
        assert calls.get(name, 0) > 0, name
    # the benchmark's replace_useful_ratio divides by this count
    assert under.get("extremal.replace@extremal.is_member", 0) > 0
    # find_all reaches every finder through the kind table, which the tracer
    # sees only while its rows are plain tuples
    assert kinds == ["C1", "C2", "C3", "C4", "C5"]
    for name in ["configurations.find_all"] + ["configurations.find_c%d" % i
                                               for i in range(1, 6)]:
        assert find_all_calls.get(name, 0) > 0, name
