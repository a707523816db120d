"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of the ``trifree`` modules (and the three
networkx routines they lean on) from outside the package: every reference to
a wrapped function in a loaded ``trifree`` module is swapped for a wrapper
that records a span (name, start, end, parent) and a call count.  Self time is
a span's duration minus the time its child spans cover, accumulated as spans
close, so per-layer self times add up to the traced time without double
counting.  Nothing under ``src/trifree`` is edited.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

perf_ns = time.perf_counter_ns


class Tracer:
    """Records spans while ``active`` is true; see ``install``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.active = False
        self.keep_spans = True
        self.spans = array("q")       # flattened (name id, parent, start, end)
        self._stack = []              # [span index or -1, child ns]
        self.calls = Counter()        # name -> calls
        self.self_ns = Counter()      # name -> self time in ns
        self.root_self_ns = 0         # self time of spans opened with no parent
        self.counts = Counter()       # extra counters named by ``install``
        self.ancestor_counts = Counter()
        self._open = Counter()        # name -> spans of that name now open

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, counter=None, under=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``counter`` is ``(counter name, f)``: ``f(result)`` is added to that
        counter.  ``under`` names an enclosing span: calls made while it is
        open are also counted as ``name@under``.
        """
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            if tracer.keep_spans:
                idx = len(tracer.spans) // 4
                tracer.spans.extend((nid, parent, 0, 0))
            else:
                idx = -1
            if under is not None and tracer._open[under]:
                tracer.ancestor_counts[name + "@" + under] += 1
            frame = [idx, 0]
            stack.append(frame)
            tracer._open[name] += 1
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_ns()
                tracer._open[name] -= 1
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_self_ns += dur - frame[1]
                if idx >= 0:
                    tracer.spans[4 * idx + 2] = start
                    tracer.spans[4 * idx + 3] = end
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def reset(self):
        """Forget recorded spans and totals (wrappers stay installed)."""
        self.spans = array("q")
        self.calls.clear()
        self.self_ns.clear()
        self.root_self_ns = 0
        self.counts.clear()
        self.ancestor_counts.clear()

    def snapshot(self):
        """Totals recorded since the last reset, as plain dicts."""
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "root_self_ns": self.root_self_ns, "counts": dict(self.counts),
                "under": dict(self.ancestor_counts)}

    def write_spans(self, path, s):
        """Write spans kept in ``s`` as gzipped TSV: id, parent, name, start_ns, end_ns."""
        t0 = s[2] if s else 0
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(s) // 4):
                nid, parent, start, end = s[4 * i: 4 * i + 4]
                out.write("%d\t%d\t%s\t%d\t%d\n"
                          % (i, parent, self.names[nid], start - t0, end - t0))


def _swap(value, original, wrapped):
    if value is original:
        return wrapped
    if isinstance(value, tuple):  # tables such as configurations._FINDERS
        swapped = tuple(_swap(v, original, wrapped) for v in value)
        if any(a is not b for a, b in zip(swapped, value)):
            return swapped
    return value


def _replace_everywhere(original, wrapped):
    """Point every reference to ``original`` held by a ``trifree`` module at ``wrapped``.

    Covers module globals (including names imported from another module)
    and functions stored in module-level tuples.
    """
    for modname, mod in list(sys.modules.items()):
        if modname == "trifree" or modname.startswith("trifree."):
            for attr, value in list(vars(mod).items()):
                swapped = _swap(value, original, wrapped)
                if swapped is not value:
                    setattr(mod, attr, swapped)


def _length(result):
    return len(result)


def install(tracer):
    """Wrap the layer boundaries of trifree; returns the tracer."""
    import networkx as nx
    from trifree import (configurations, corpus, discharging, extremal, plane_graph,
                         reductions, solver, verify)

    pg = plane_graph.PlaneGraph
    for attr, name in (("__init__", "plane_graph.build"),
                       ("cycles_up_to", "plane_graph.cycles"),
                       ("disk_subgraph", "plane_graph.disk"),
                       ("paths_between", "plane_graph.paths"),
                       ("components", "plane_graph.components")):
        setattr(pg, attr, tracer.wrap(name, getattr(pg, attr)))

    steps = (lambda trace: len(trace.steps))
    functions = [
        (plane_graph, "embed_edges", "plane_graph.embed", None, None),
        (configurations, "find_any", "configurations.find_any", None, None),
        (configurations, "find_all", "configurations.find_all", None, None),
        (configurations, "c5_to_c2", "configurations.c5_to_c2", None, None),
        (reductions, "reduce", "reductions.reduce", None, None),
        (reductions, "lift", "reductions.lift", None, None),
        (extremal, "is_member", "extremal.is_member", ("certificate_steps", steps), None),
        (extremal, "find_diamonds", "extremal.find_diamonds", None, None),
        (extremal, "replace_diamond_with_path", "extremal.replace", None,
         "extremal.is_member"),
        (extremal, "member_max_independent_set", "extremal.certificate", None, None),
        (solver, "solve", "solver.solve", None, None),
        (solver, "exact_alpha", "solver.exact_alpha", None, None),
        (discharging, "audit", "discharging.audit", None, None),
        (discharging, "apply_rules", "discharging.apply_rules", None, None),
        (discharging, "dangerous_cycles", "discharging.dangerous_cycles",
         ("dangerous_found", _length), None),
        (corpus, "enumerate_small", "corpus.enumerate_small", None, None),
        (verify, "violating_edge", "verify.violating_edge", None, None),
        (verify, "is_independent_set", "verify.is_independent_set", None, None),
    ]
    for kind in ("c1", "c2", "c3", "c4", "c5"):
        functions.append((configurations, "find_" + kind, "configurations.find_" + kind,
                          ("candidates", _length), None))
    for module, attr, name, counter, under in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, counter, under))
    # trifree calls these through the ``nx`` module object
    for attr, name in (("check_planarity", "networkx.planarity"),
                       ("is_isomorphic", "networkx.iso"),
                       ("weisfeiler_lehman_graph_hash", "networkx.wl_hash")):
        setattr(nx, attr, tracer.wrap(name, getattr(nx, attr)))
    return tracer
