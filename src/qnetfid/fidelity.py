"""Max-product best paths, per-pair fidelities, and the network average.

The fidelity achievable between two nodes through a path is
``(1 + prod(weights)) / 2``, so the best pair fidelity is set by the
maximum-product path. Weights lie in [0, 1], hence extending a path never
increases its product: a best-first search is exact and simple paths
suffice (revisiting a node can only multiply extra factors <= 1).

When several simple paths tie for the maximum product, the network average
weights the pair by the number of tied paths. On trees and on graphs with
generic (e.g. randomly drawn) weights every pair has degeneracy 1 and this
is the plain mean over the C(N,2) unordered pairs; on a uniform even ring
it reproduces the closed-form value, which counts both equal-length arcs
between opposite nodes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import fsum

from .network import EnumerationLimitError, GraphError, Network

# Reported paths break product ties by fewer hops, then lexicographically
# smallest node sequence. Fidelity values never depend on the tie rule.
_Label = tuple[float, int, tuple[int, ...]]  # (product, hops, path)

_DEGENERACY_CAP = 1_000_000


@dataclass(frozen=True)
class PairFidelity:
    """Best source-target record: path, weight product, fidelity.

    ``degeneracy`` is the number of simple paths tying for the maximum
    product (1 when the best path is unique).
    """

    source: int
    target: int
    best_path: tuple[int, ...]
    product: float
    fidelity: float
    degeneracy: int = 1


@dataclass(frozen=True)
class NetworkFidelity:
    """Network-wide result: degeneracy-weighted mean of pair fidelities."""

    avg_max_fidelity: float
    pair_records: tuple[PairFidelity, ...]
    effective_path_length: float | None = None
    analytic_value: float | None = None
    analytic_abs_diff: float | None = None


def _check_pair(net: Network, s: int, t: int) -> None:
    n = net.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise GraphError(f"node pair ({s}, {t}) out of range for {n} nodes")
    if s == t:
        raise GraphError("source and target must differ")


def _max_product_search(net: Network, source: int) -> dict[int, _Label]:
    """Best-first max-product search from ``source`` to every node.

    Heap keys are (-product, hops, path); the key is monotone under path
    extension, so the first settlement of a node carries its best label.
    Always settles the whole graph: tie counting needs final labels
    everywhere, not just on the source-target axis.
    """
    adj = net.adjacency
    best: dict[int, _Label] = {source: (1.0, 0, (source,))}
    heap: list[tuple[float, int, tuple[int, ...]]] = [(-1.0, 0, (source,))]
    settled: set[int] = set()
    while heap:
        neg_prod, hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        prod = -neg_prod
        for v, w in adj[node]:
            if v in settled:
                continue
            cand_prod = prod * w
            cand = (cand_prod, hops + 1, path + (v,))
            old = best.get(v)
            if old is None or (-cand_prod, cand[1], cand[2]) < (-old[0], old[1], old[2]):
                best[v] = cand
                heapq.heappush(heap, (-cand_prod, cand[1], cand[2]))
    return best


def _min_hop_path(net: Network, source: int, target: int) -> tuple[int, ...]:
    """Fewest-hops path, lexicographically smallest among those.

    Used for reporting when the best product is 0.0: every path then has
    product zero, so the hop/lex tie-break ranges over all simple paths,
    which a single-label max-product search cannot represent.
    """
    adj = net.adjacency
    best: dict[int, tuple[int, tuple[int, ...]]] = {source: (0, (source,))}
    heap: list[tuple[int, tuple[int, ...]]] = [(0, (source,))]
    settled: set[int] = set()
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return path
        for v, _ in adj[node]:
            if v in settled:
                continue
            cand = (hops + 1, path + (v,))
            old = best.get(v)
            if old is None or cand < old:
                best[v] = cand
                heapq.heappush(heap, cand)
    raise GraphError("target unreachable in a connected graph")


def _best_record(net: Network, best: dict[int, _Label], s: int, t: int) -> PairFidelity:
    prod, _, path = best[t]
    if prod == 0.0:
        path = _min_hop_path(net, s, t)
    deg = _count_tied_paths(net, best, s, t)
    return PairFidelity(s, t, path, prod, (1.0 + prod) / 2.0, deg)


def _cap_exceeded(source: int, target: int, steps: int):
    raise EnumerationLimitError(
        f"tie degeneracy enumeration exceeded cap for pair ({source}, {target}) "
        f"after {steps} steps"
    )


def _count_tied_paths(net: Network, best: dict[int, _Label], source: int, target: int) -> int:
    """Number of simple source->target paths achieving the maximum product.

    Every max-product simple path is prefix-optimal (each prefix realises
    the best product at its end node), so tied paths are exactly the simple
    paths of the "tight" successor graph. Pairs whose best product is 0 or
    1 are counted once by convention: their tie classes can be huge and
    every tied path has the same fidelity anyway.
    """
    target_prod = best[target][0]
    if target_prod <= 0.0 or target_prod >= 1.0:
        return 1
    adj = net.adjacency
    count = 0
    steps = 0
    visited = {source}

    def walk(u: int, prod: float) -> None:
        nonlocal count, steps
        steps += 1
        if steps > _DEGENERACY_CAP:
            _cap_exceeded(source, target, steps)
        if u == target:
            count += 1
            return
        for v, w in adj[u]:
            if v in visited:
                continue
            nxt = prod * w
            if nxt < target_prod:
                continue
            label = best.get(v)
            if label is None or nxt != label[0]:
                continue
            visited.add(v)
            walk(v, nxt)
            visited.discard(v)

    walk(source, 1.0)
    return max(count, 1)


def pair_max_fidelity(net: Network, s: int, t: int) -> PairFidelity:
    """Best achievable fidelity between ``s`` and ``t``."""
    _check_pair(net, s, t)
    best = _max_product_search(net, s)
    return _best_record(net, best, s, t)


def average_max_fidelity(net: Network) -> NetworkFidelity:
    """Degeneracy-weighted mean of the best fidelity over unordered pairs."""
    if net.node_count < 2:
        raise GraphError("network average needs at least 2 nodes")
    records: list[PairFidelity] = []
    for s in range(net.node_count - 1):
        best = _max_product_search(net, s)
        for t in range(s + 1, net.node_count):
            records.append(_best_record(net, best, s, t))
    total_weight = sum(r.degeneracy for r in records)
    avg = fsum(r.degeneracy * r.fidelity for r in records) / total_weight
    return NetworkFidelity(avg, tuple(records))


def brute_force_pair_fidelity(net: Network, s: int, t: int, node_cap: int = 10) -> PairFidelity:
    """Exhaustive oracle: enumerate every simple path and keep the best.

    Products are accumulated in path order, exactly as the engine does, so
    on agreement the max products are bitwise equal. Guarded by ``node_cap``
    because the enumeration is exponential.
    """
    _check_pair(net, s, t)
    if net.node_count > node_cap:
        raise GraphError(
            f"brute force capped at {node_cap} nodes, network has {net.node_count}"
        )
    adj = net.adjacency
    best: tuple[float, int, tuple[int, ...]] | None = None
    degeneracy = 0
    stack: list[tuple[int, float, tuple[int, ...]]] = [(s, 1.0, (s,))]
    while stack:
        node, prod, path = stack.pop()
        if node == t:
            if best is None or prod > best[0]:
                best = (prod, len(path) - 1, path)
                degeneracy = 1
            elif prod == best[0]:
                degeneracy += 1
                if (len(path) - 1, path) < (best[1], best[2]):
                    best = (prod, len(path) - 1, path)
            continue
        in_path = set(path)
        for v, w in adj[node]:
            if v not in in_path:
                stack.append((v, prod * w, path + (v,)))
    assert best is not None  # connected graph: some path exists
    prod, _, path = best
    if prod <= 0.0 or prod >= 1.0:
        degeneracy = 1
    return PairFidelity(s, t, path, prod, (1.0 + prod) / 2.0, degeneracy)


# --- effective path length -------------------------------------------------
#
# Count, for each pair, the minimum number of non-ME links (weight < 1) on a
# best path in the limit where every non-ME weight tends to one; ME links
# cost nothing. The degeneracy-weighted pair average of this count equals
# 2 * dF/dp at p -> 1 when all non-ME links share the weight p.


def _min_cost_search(net: Network, source: int) -> list[int]:
    adj = net.adjacency
    inf = net.node_count + 1
    cost = [inf] * net.node_count
    cost[source] = 0
    heap = [(0, source)]
    while heap:
        c, u = heapq.heappop(heap)
        if c > cost[u]:
            continue
        for v, w in adj[u]:
            nc = c + (0 if w == 1.0 else 1)
            if nc < cost[v]:
                cost[v] = nc
                heapq.heappush(heap, (nc, v))
    return cost


def _count_min_cost_paths(net: Network, cost: list[int], source: int, target: int) -> int:
    if cost[target] == 0:
        return 1
    adj = net.adjacency
    count = 0
    steps = 0
    visited = {source}

    def walk(u: int, c: int) -> None:
        nonlocal count, steps
        steps += 1
        if steps > _DEGENERACY_CAP:
            _cap_exceeded(source, target, steps)
        if u == target:
            count += 1
            return
        for v, w in adj[u]:
            if v in visited:
                continue
            nc = c + (0 if w == 1.0 else 1)
            if nc > cost[target] or nc != cost[v]:
                continue
            visited.add(v)
            walk(v, nc)
            visited.discard(v)

    walk(source, 0)
    return max(count, 1)


def effective_path_length(net: Network) -> float:
    """Pair-averaged count of non-ME links along best paths.

    Zero when every pair is joined by an all-ME path; equals the plain
    average path length when no link is ME.
    """
    if net.node_count < 2:
        raise GraphError("effective path length needs at least 2 nodes")
    num = 0
    den = 0
    for s in range(net.node_count - 1):
        cost = _min_cost_search(net, s)
        for t in range(s + 1, net.node_count):
            deg = _count_min_cost_paths(net, cost, s, t)
            num += deg * cost[t]
            den += deg
    return num / den


def _with_common_weight(net: Network, q: float) -> Network:
    return net.with_weights([1.0 if w == 1.0 else q for _, _, w in net.edges])


def effective_path_length_fd(net: Network, h: float = 1e-4, order: int = 2) -> float:
    """Finite-difference estimate of the same quantity.

    Sets every non-ME weight to a common value q and differentiates the
    network average at q -> 1 from below (2 * dF/dq there equals the
    combinatorial count). ``order=1`` is the plain one-sided difference
    2*[F(1) - F(1-h)]/h; ``order=2`` the second-order one-sided stencil.
    """

    def f(q: float) -> float:
        return average_max_fidelity(_with_common_weight(net, q)).avg_max_fidelity

    f1 = f(1.0)
    if order == 1:
        return 2.0 * (f1 - f(1.0 - h)) / h
    if order == 2:
        return (3.0 * f1 - 4.0 * f(1.0 - h) + f(1.0 - 2.0 * h)) / h
    raise ValueError(f"unsupported order {order}")


def first_order_estimate(net: Network, delta_p: float) -> float:
    """Linearised fidelity 1 - l_avg * delta_p / 2 near the all-ME point."""
    return 1.0 - effective_path_length(net) * delta_p / 2.0


__all__ = [
    "PairFidelity",
    "NetworkFidelity",
    "pair_max_fidelity",
    "average_max_fidelity",
    "brute_force_pair_fidelity",
    "effective_path_length",
    "effective_path_length_fd",
    "first_order_estimate",
]
