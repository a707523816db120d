"""Machine-speed probe: scales op times to a fixed reference speed.

On a shared host the same op on the same input runs up to a quarter slower
for stretches of seconds to minutes, in CPU time as well as wall time, so a
whole run can land in a slow stretch.  The probe is a fixed pure-Python graph
walk (dicts, sets, tuples and sorting, like trifree's own inner loops, but no
trifree code, so no change to the program moves it).  Its graph is large
enough not to stay in the core's private caches, which made it track slow
stretches of the ops better than a small one.  It runs between ops
about every ``INTERVAL_S``; an op's time at reference speed is its wall time
times ``NOMINAL_S`` over the median probe cost within ``WINDOW_S`` of the op.
Set-up steps are scaled by probes taken just around each one (``timed``).
The garbage collector is off during a probe, so the program's heap does not
change the probe's cost.
"""
from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

NOMINAL_S = 0.005
INTERVAL_S = 0.125
WINDOW_S = 0.5


class SpeedProbe:
    def __init__(self):
        rng = random.Random(0)
        n = 4000
        adj = {v: set() for v in range(n)}
        for v in range(n):
            for u in rng.sample(range(n), 3):
                if u != v:
                    adj[v].add(u)
                    adj[u].add(v)
        self.adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self.starts = []
        self.costs = []
        self.last = float("-inf")

    def _walk(self):
        adj = self.adj
        seen = {0}
        order = {}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in sorted(adj[x], reverse=True):
                if y not in seen:
                    seen.add(y)
                    order[y] = (x, len(seen))
                    stack.append(y)
        return len(frozenset(order))

    def _cost(self):
        """(start, seconds) of one walk."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._walk()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        return start, end - start

    def probe(self):
        start, cost = self._cost()
        self.starts.append(start)
        self.costs.append(cost)
        self.last = start + cost

    def timed(self, call, probes):
        """(wall s, s at reference speed, result) of ``call()``, scaled by
        the median of ``probes`` walks just before and just after it.

        These walks are kept apart from the op probes, so they do not enter
        the window of an op that follows.
        """
        costs = [self._cost()[1] for _ in range(probes)]
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        costs += [self._cost()[1] for _ in range(probes)]
        return wall, wall * NOMINAL_S / statistics.median(costs), result

    def maybe_probe(self):
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.probe()

    def factor(self, start, end):
        """Reference speed over the machine's speed around [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.costs[lo:hi] or self.costs)
