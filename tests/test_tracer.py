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
from trifree import corpus, discharging, extremal, solver

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
print(json.dumps([t.calls, t.ancestor_counts]))
"""


def test_tracer_counts_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(ROOT / "tests")],
        env=dict(os.environ), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls, under = json.loads(proc.stdout)
    for name in ("configurations.find_c1", "reductions.reduce", "reductions.lift",
                 "extremal.find_diamonds", "extremal.replace", "extremal.certificate",
                 "discharging.audit", "discharging.dangerous_cycles", "plane_graph.disk"):
        assert calls.get(name, 0) > 0, name
    # the benchmark's replace_useful_ratio divides by this count
    assert under.get("extremal.replace@extremal.is_member", 0) > 0
