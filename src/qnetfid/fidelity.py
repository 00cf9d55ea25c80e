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

Tie counts are exact simple-path counts, made in one pass per source (the
path-count DP of Brandes, J. Math. Sociol. 25, 2001). Only where ME links
between equally good nodes close a cycle, or where rounding may let a path
that is not prefix-optimal tie (see ``_tie_counts``), does a count fall
back to enumerating the tied paths of that pair, under a step cap.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from math import fsum
from operator import mul

from .network import EnumerationLimitError, GraphError, Network

# A step rule is (start key, extend(key, weight)). Smaller keys are better,
# and extending a path never makes its key better.
_Rule = tuple[float, Callable[[float, float], float]]
_PRODUCT: _Rule = (-1.0, mul)  # negated weight product
_NON_ME: _Rule = (0, lambda k, w: k + (w != 1.0))  # non-ME links on the path
_HOPS: _Rule = (0, lambda k, w: k + 1)  # for the product-0 path report

# Search labels are (key, hops, path): key ties go to fewer hops, then to the
# lexicographically smallest node sequence. Reported paths follow this rule;
# fidelity values never depend on it.
_Label = tuple[float, int, tuple[int, ...]]

_DEGENERACY_CAP = 1_000_000

# Below this product the relative rounding bound of ``_tie_counts`` fails
# (subnormal steps round by an absolute amount), so such targets enumerate.
_TINY_PRODUCT = 2.0**-1000


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


def _search(net: Network, source: int, rule: _Rule) -> dict[int, _Label]:
    """Best-first search: the best label of every node, in settle order.

    Keys never decrease in settle order, and a node's first settlement
    carries its best label. Always settles the whole graph: tie counting
    needs final keys everywhere, not just on the source-target axis.
    """
    start, extend = rule
    adj = net.adjacency
    best: dict[int, _Label] = {source: (start, 0, (source,))}
    heap = [best[source]]
    settled: dict[int, _Label] = {}
    while heap:
        label = heapq.heappop(heap)
        key, hops, path = label
        u = path[-1]
        if u in settled:
            continue
        settled[u] = label
        for v, w in adj[u]:
            if v in settled:
                continue
            cand = (extend(key, w), hops + 1, path + (v,))
            old = best.get(v)
            if old is None or cand < old:
                best[v] = cand
                heapq.heappush(heap, cand)
    return settled


def _tie_counts(
    net: Network, source: int, settled: dict[int, _Label], targets: Sequence[int], rule: _Rule
) -> list[tuple[int, tuple[int, ...]]]:
    """Number of simple paths tying for the best key, and the reported path, per target.

    A link u->v is tight when ``extend(key[u], w) == key[v]``. Every best
    simple path is prefix-optimal, so tied paths are exactly the simple
    paths of the tight graph. One pass in settle order counts them: a tight
    link that raises the key adds the count of u into v. A tight link that
    keeps the key (an ME link, or one at product 0 or a subnormal product)
    is tight both ways, so nodes joined by such links pool their inflow.
    That is exact while those links form a forest: a path enters such a
    component once, its route inside is unique, and keys never come back
    down. A component with a cycle leaves its targets, and every target
    counted through it, to per-target enumeration. Targets whose key equals
    the source's, or whose product is 0, count once: their tie classes can
    be huge and every tied path has the same value anyway.

    Rounded products break prefix-optimality: a prefix a few ulps short of
    a node's best can round onto the same product further on. Over at most
    n links each product is within a factor (1 +- 2^-53)^n of the exact
    one, so such a prefix reaches v at a key within ``near`` of key[v],
    through a link that is near but not tight. A target no better than any
    node with such an inflow, or with a product below ``_TINY_PRODUCT``,
    is enumerated instead, and its reported path is the best tied one
    found there. Integer keys never round and never trigger this.
    """
    extend = rule[1]
    adj = net.adjacency
    key = {v: label[0] for v, label in settled.items()}
    near = 1.0 - len(settled) * 2.0**-50
    fragile = float("inf")  # best key among nodes with a near inflow
    count: dict[int, int | None] = {}
    for v in settled:
        if v in count:
            continue
        k = key[v]
        k_near = k * near
        comp, members, links = [v], {v}, 0
        inflow = [1] if v == source else []
        for u in comp:
            for x, w in adj[u]:
                e = extend(key[x], w)
                if e != k:
                    if e <= k_near and k < fragile:
                        fragile = k
                    continue
                if key[x] != k:
                    inflow.append(count[x])
                    continue
                links += 1
                if x not in members:
                    members.add(x)
                    comp.append(x)
        # a tree on len(comp) nodes has len(comp) - 1 links, each seen here
        # from both ends
        total = sum(inflow) if links == 2 * (len(comp) - 1) and None not in inflow else None
        for u in comp:
            count[u] = total
    counts = []
    for t in targets:
        kt = key[t]
        if kt == key[source] or kt == 0:
            counts.append((1, settled[t][2]))
        elif count[t] is None or kt >= fragile or -_TINY_PRODUCT < kt < 0:
            counts.append(
                _enumerate_tied(net, key, source, t, extend, near if kt <= -_TINY_PRODUCT else 0.0)
            )
        else:
            counts.append((count[t], settled[t][2]))
    return counts


def _enumerate_tied(
    net: Network,
    key: dict[int, float],
    source: int,
    target: int,
    extend: Callable[[float, float], float],
    near: float,
) -> tuple[int, tuple[int, ...]]:
    """Tied simple paths to one target, and the fewest-hop, then
    lexicographically smallest of them, by depth-first enumeration.

    Carries each prefix's own key, and keeps a prefix while that key is no
    worse than the target's and, for product keys, than ``near`` times its
    node's best (``near`` 0 keeps every such prefix). Takes one step per
    path prefix visited, the source included, and raises
    ``EnumerationLimitError`` past ``_DEGENERACY_CAP`` steps.
    """
    adj = net.adjacency
    target_key = key[target]
    slack = {v: k * near if k < 0 else k for v, k in key.items()}
    count = 0
    best = None
    steps = 1
    on_path = {source}
    stack = [(source, key[source], iter(adj[source]))]
    while stack:
        u, k, links = stack[-1]
        for v, w in links:
            if v in on_path:
                continue
            nxt = extend(k, w)
            if nxt > target_key or nxt > slack[v]:
                continue
            steps += 1
            if steps > _DEGENERACY_CAP:
                raise EnumerationLimitError(
                    f"tie degeneracy enumeration exceeded cap for pair ({source}, {target}) "
                    f"after {steps} steps"
                )
            if v == target:
                count += 1
                path = tuple(x for x, _, _ in stack) + (v,)
                if best is None or (len(path), path) < (len(best), best):
                    best = path
            else:
                on_path.add(v)
                stack.append((v, nxt, iter(adj[v])))
                break
        else:
            on_path.discard(u)
            stack.pop()
    assert best is not None  # the target's own best path is tied
    return count, best


def _pair_records(net: Network, s: int, targets: Sequence[int]) -> list[PairFidelity]:
    settled = _search(net, s, _PRODUCT)
    hop_labels = None
    records = []
    for t, (deg, path) in zip(targets, _tie_counts(net, s, settled, targets, _PRODUCT)):
        prod = -settled[t][0]
        if prod == 0.0:
            # every path then has product zero, so the hop/lex tie-break
            # ranges over all simple paths, which one max-product label
            # cannot represent
            if hop_labels is None:
                hop_labels = _search(net, s, _HOPS)
            path = hop_labels[t][2]
        records.append(PairFidelity(s, t, path, prod, (1.0 + prod) / 2.0, deg))
    return records


def pair_max_fidelity(net: Network, s: int, t: int) -> PairFidelity:
    """Best achievable fidelity between ``s`` and ``t``."""
    _check_pair(net, s, t)
    return _pair_records(net, s, [t])[0]


def average_max_fidelity(net: Network) -> NetworkFidelity:
    """Degeneracy-weighted mean of the best fidelity over unordered pairs."""
    if net.node_count < 2:
        raise GraphError("network average needs at least 2 nodes")
    n = net.node_count
    records = [r for s in range(n - 1) for r in _pair_records(net, s, range(s + 1, n))]
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


def effective_path_length(net: Network) -> float:
    """Pair-averaged count of non-ME links along best paths.

    Zero when every pair is joined by an all-ME path; equals the plain
    average path length when no link is ME.
    """
    if net.node_count < 2:
        raise GraphError("effective path length needs at least 2 nodes")
    n = net.node_count
    num = den = 0
    for s in range(n - 1):
        settled = _search(net, s, _NON_ME)
        targets = range(s + 1, n)
        for t, (deg, _) in zip(targets, _tie_counts(net, s, settled, targets, _NON_ME)):
            num += deg * settled[t][0]
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
