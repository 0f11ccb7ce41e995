"""A fixed reference workload that measures how fast this machine runs
Python at the moment it is called.

On a shared machine the speed of a pure-Python process changes by up to
1.7x for stretches of seconds to minutes, so wall times of identical runs
do not repeat.  The run measures this workload after every pass and every
set-up and scales each pass's times by it: a time at reference speed is
the time a machine would take on which one call of this workload (the
geometric mean of its kernels' times) takes NOMINAL_S.

The kernels are the benchmark's own and never import the program, so a
change to the program moves the scaled times in full.  They do the kind
of work the program does: breadth- and depth-first search over adjacency
sets, set intersections, small function calls, tuple building and
sorting, and integer arithmetic.  Changing them, their graph or
NOMINAL_S changes the unit of every timing metric.
"""

import math
import random
import time
from collections import deque

NOMINAL_S = 0.002
GRAPH_N = 600
GRAPH_SEED = 5
REPS = 3


class Reference:
    """Call to measure the machine's current speed: the geometric mean,
    over the kernels, of each kernel's fastest of REPS runs, in seconds."""

    def __init__(self):
        rng = random.Random(GRAPH_SEED)
        self.adj = [set() for _ in range(GRAPH_N)]
        for _ in range(3 * GRAPH_N):
            u, v = rng.randrange(GRAPH_N), rng.randrange(GRAPH_N)
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.kernels = (self._bfs, self._intersections, self._calls,
                        self._dfs, self._arithmetic)
        self.expected = [k() for k in self.kernels]

    def __call__(self):
        log_sum = 0.0
        for kernel, expected in zip(self.kernels, self.expected):
            best = math.inf
            for _ in range(REPS):
                t0 = time.perf_counter()
                result = kernel()
                best = min(best, time.perf_counter() - t0)
                if result != expected:
                    raise RuntimeError(f"reference kernel {kernel.__name__} "
                                       f"gave {result}, not {expected}")
            log_sum += math.log(best)
        return math.exp(log_sum / len(self.kernels))

    def _bfs(self):
        total = 0
        for source in range(0, GRAPH_N, 30):
            dist = {source: 0}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            total += sum(dist.values())
        return total

    def _intersections(self):
        adj = self.adj
        return sum(len(adj[u] & adj[w]) for u in range(GRAPH_N)
                   for w in adj[u])

    def _calls(self):
        def ordered(a, b):
            return (a, b) if a < b else (b, a)
        pairs = [ordered(i % 97, i % 89) for i in range(8000)]
        pairs.sort()
        return len(set(pairs))

    def _dfs(self):
        seen = set()

        def visit(u, depth):
            seen.add(u)
            for w in sorted(self.adj[u]):
                if w not in seen and depth < 400:
                    visit(w, depth + 1)
        components = 0
        for source in range(GRAPH_N):
            if source not in seen:
                components += 1
                visit(source, 0)
        return components

    def _arithmetic(self):
        total = 0
        for i in range(20000):
            total += i * i % 7
        return total
