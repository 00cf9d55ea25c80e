"""A fixed reference computation that measures the CPU's speed of the moment.

On a shared host the same code runs up to half again as slow while other
tenants are busy, in spells from milliseconds to minutes. The worker runs
``calibrate`` before the first case and after every case, and divides each
case's time by the mean of the two calibrations around it. That ratio is the
case's cost at a fixed speed: it holds steady when the host slows, and it
moves by exactly the factor the case itself gets slower or faster.

The computation is plain Python, like most of qnetfid: a max-product
Dijkstra from 16 sources on a fixed random graph. It never calls qnetfid, so
a change to the library cannot change it. Busy neighbours slow numpy loops
over arrays larger than the L2 cache by a smaller factor than they slow
this, so time spent in such loops is scaled down too far; the
``montecarlo`` workload, nearly all such loops, is not steady by this
measure and is not gated.

``REFERENCE_S`` converts ratios back to seconds: it is the computation's
time on a 2-CPU Intel Xeon virtual machine with Python 3.11.7, in the
machine's fast spells. Changing the computation or ``REFERENCE_S`` breaks
comparison with results taken before.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

REFERENCE_S = 0.006

NODES, LINKS, SOURCES = 200, 800, 16


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(20240930)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(NODES)]
    for _ in range(LINKS):
        a, b, weight = rng.randrange(NODES), rng.randrange(NODES), rng.random()
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
    return adjacency


_ADJACENCY = _graph()


def calibrate() -> float:
    """Seconds the reference computation takes now."""
    start = perf_counter()
    for source in range(0, NODES, NODES // SOURCES):
        best = {source: 1.0}
        heap = [(-1.0, source)]
        while heap:
            negative, u = heapq.heappop(heap)
            if -negative < best[u]:
                continue
            for v, weight in _ADJACENCY[u]:
                product = -negative * weight
                if product > best.get(v, 0.0):
                    best[v] = product
                    heapq.heappush(heap, (-product, v))
    return perf_counter() - start
