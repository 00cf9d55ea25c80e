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
path-count DP of Brandes, J. Math. Sociol. 25, 2001); on a tree (N - 1
links) every count is 1 and no link is scanned. Only where ME links between
equally good nodes close a cycle, or where rounding may let a path that is
not prefix-optimal tie (a product below 2^-1000, or a target no better than
a node with a near-tight inflow; see ``_tie_counts``), does a count fall
back to enumerating the tied paths of that pair, under a step cap.

Values need only best keys, so the search carries keys alone. Best paths,
a report for :func:`pair_max_fidelity` and ``average_max_fidelity(net,
paths=True)``, are read off the final keys (:func:`_best_paths`).

Uniform weights skip the search: every path of d links multiplies the same
factors in the same order, so its product is t[d] of one table
(:func:`_products`). Unless t stalls, a pair's best product is t at its hop
distance and its tied paths are its shortest paths, both counted by one
breadth-first pass per source (:func:`_hop_profile`): bit-identical to the
search, and never enumerating. :func:`effective_path_length` takes that pass
when no link is ME. Other inputs, and ``paths=True``, run the search.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from math import fsum
from operator import mul

from .network import EnumerationLimitError, GraphError, Network

# A step rule is (start, extend(key, weight)); smaller keys are better and
# extending never improves one.
_Rule = tuple[object, Callable]
_PRODUCT: _Rule = (-1.0, mul)  # negated weight product
_NON_ME: _Rule = (0, lambda k, w: k + (w != 1.0))  # non-ME links on the path

_DEGENERACY_CAP = 1_000_000

# Below this product the relative rounding bound of ``_tie_counts`` fails
# (subnormal steps round by an absolute amount), so such targets enumerate.
_TINY_PRODUCT = 2.0**-1000


@dataclass(slots=True)
class PairFidelity:
    """Best source-target record: path, weight product, fidelity.

    ``degeneracy`` is the number of simple paths tying for the maximum
    product (1 when the best path is unique). ``best_path`` may be None.
    """

    source: int
    target: int
    best_path: tuple[int, ...] | None
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


def _products(p: float, longest: int) -> tuple[list[float], bool]:
    """Products t[c] of c factors p in path order, for c up to ``longest``, and
    whether t stalls: two equal entries strictly between 0 and 1, so a longer
    path would tie a shorter one (only subnormal products can)."""
    t = [1.0]
    for _ in range(longest):
        t.append(t[-1] * p)
    return t, any(a == b and 0.0 < a < 1.0 for a, b in zip(t, t[1:]))


def _hop_profile(net: Network, source: int) -> tuple[list[int], list[int]]:
    """Hop distance and number of shortest paths of every node, node-indexed,
    by one breadth-first pass (Brandes' path counts)."""
    adj = net.adjacency
    dist, sigma = [-1] * net.node_count, [0] * net.node_count
    dist[source], sigma[source] = 0, 1
    queue = [source]
    for u in queue:
        d, s = dist[u] + 1, sigma[u]
        for v, _ in adj[u]:
            if dist[v] < 0:
                dist[v], sigma[v] = d, s
                queue.append(v)
            elif dist[v] == d:
                sigma[v] += s
    return dist, sigma


def _profile_records(net: Network) -> list[PairFidelity] | None:
    """Every pair's record from hop profiles, or None unless all links share
    one weight and t does not stall. Pairs at t 0 or 1 count once."""
    n = net.node_count
    p, *others = {w for _, _, w in net.edges}
    products, stalls = _products(p, n - 1)
    if others or stalls:
        return None
    fidelity = [(1.0 + t) / 2.0 for t in products]
    records = []
    for s in range(n - 1):
        dist, sigma = _hop_profile(net, s)
        records += [PairFidelity(s, t, None, products[d], fidelity[d],
                                 sigma[t] if 0.0 < products[d] < 1.0 else 1)
                    for t, d in enumerate(dist[s + 1:], s + 1)]
    return records


def _search(net: Network, source: int, rule: _Rule) -> tuple[list, list[int]]:
    """Best-first search: the final key of every node, node-indexed, and the
    order in which nodes leave the heap, along which keys never decrease.
    Runs over the whole graph, as tie counting needs final keys everywhere.

    Heap entries are (key, v), so equal keys leave by node index and a
    relaxation builds no tuple. Pushes need a strict gain, so only a node's
    first pop equals its best key; a link is extended only from a key
    better than the neighbour's.
    """
    start, extend = rule
    adj = net.adjacency
    best = [float("inf")] * net.node_count
    best[source] = start
    heap = [(start, source)]
    order = []
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        k, u = pop(heap)
        if k != best[u]:
            continue
        order.append(u)
        for v, w in adj[u]:
            if k < best[v]:
                cand = extend(k, w)
                if cand < best[v]:
                    best[v] = cand
                    push(heap, (cand, v))
    return best, order


def _best_paths(net: Network, source: int, key: list[float] | None) -> list[tuple[int, ...]]:
    """Fewest-hop, then lexicographically smallest, path to every node, by
    one breadth-first pass over sorted neighbours along the tight links of
    the final product keys (``key[u] * w == key[v]``), whose paths are the
    prefix-optimal best paths; along every link if ``key`` is None."""
    adj = net.adjacency
    path: list = [None] * net.node_count
    path[source] = (source,)
    queue = [source]
    for u in queue:
        for v, w in adj[u]:
            if path[v] is None and (key is None or key[u] * w == key[v]):
                path[v] = path[u] + (v,)
                queue.append(v)
    return path


def _tie_counts(
    net: Network, source: int, key: list, order: list[int], targets: Sequence[int],
    extend: Callable, paths: list | None = None,
) -> list[int]:
    """Number of simple paths tying for the best key, per target. On a tree
    each count is 1 and no link is scanned.

    Needs only the final keys and an ``order`` along which they never
    decrease, and any such order gives the same counts: inflow comes from
    strictly better keys, equal-key nodes pool by component whichever comes
    first, and ``fragile`` is a minimum.

    A link u->v is tight when ``extend(key[u], w) == key[v]``. Every best
    simple path is prefix-optimal, so tied paths are exactly the simple
    paths of the tight graph. One pass in ``order`` counts them: a tight
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
    is enumerated instead. Integer keys never round and never trigger this.
    An enumerated target's entry in ``paths`` (best path per node, if given)
    becomes the best tied path found there.
    """
    if net.edge_count == net.node_count - 1:
        return [1] * len(targets)
    adj = net.adjacency
    near = 1.0 - net.node_count * 2.0**-50
    fragile = float("inf")  # best key among nodes with a near inflow
    # 0 until counted (every count is at least 1), -1 while in the
    # component being scanned, None when the node's targets enumerate
    count: list[int | None] = [0] * net.node_count
    for v in order:
        if count[v] != 0:
            continue
        k = key[v]
        k_near = k * near
        worse = max(k, k_near)  # extend(kx, w) >= kx > worse: neither tight nor near
        total = 1 if v == source else 0
        comp, links = [v], 0
        count[v] = -1
        for u in comp:
            for x, w in adj[u]:
                kx = key[x]
                if kx > worse:
                    continue
                e = extend(kx, w)
                if e != k:
                    if e <= k_near and k < fragile:
                        fragile = k
                elif kx != k:
                    c = count[x]
                    total = None if c is None or total is None else total + c
                else:
                    links += 1
                    if count[x] == 0:
                        count[x] = -1
                        comp.append(x)
        # a tree on len(comp) nodes has len(comp) - 1 links, each seen here
        # from both ends
        total = total if links == 2 * (len(comp) - 1) else None
        for u in comp:
            count[u] = total
    counts = []
    for t in targets:
        kt = key[t]
        if kt == key[source] or kt == 0:
            counts.append(1)
        elif count[t] is None or kt >= fragile or -_TINY_PRODUCT < kt < 0:
            tied, path = _enumerate_tied(net, key, source, t, extend,
                                         near if kt <= -_TINY_PRODUCT else 0.0)
            counts.append(tied)
            if paths is not None:
                paths[t] = path
        else:
            counts.append(count[t])
    return counts


def _enumerate_tied(
    net: Network, key: list[float], source: int, target: int,
    extend: Callable[[float, float], float], near: float,
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
    slack = [k * near if k < 0 else k for k in key]
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


def _pair_records(net: Network, s: int, targets: Sequence[int], paths: bool) -> list[PairFidelity]:
    key, order = _search(net, s, _PRODUCT)
    found = _best_paths(net, s, key) if paths else [None] * net.node_count
    if paths and any(key[t] == 0 for t in targets):
        # every path to a product-0 target ties, so the hop/lex tie-break
        # ranges over all simple paths, not only tight ones
        found = [h if k == 0 else f for h, k, f in zip(_best_paths(net, s, None), key, found)]
    counts = _tie_counts(net, s, key, order, targets, mul, found if paths else None)
    return [PairFidelity(s, t, found[t], -key[t], (1.0 - key[t]) / 2.0, deg)
            for t, deg in zip(targets, counts)]


def pair_max_fidelity(net: Network, s: int, t: int) -> PairFidelity:
    """Best achievable fidelity between ``s`` and ``t``, with its best path."""
    _check_pair(net, s, t)
    return _pair_records(net, s, [t], paths=True)[0]


def average_max_fidelity(net: Network, paths: bool = False) -> NetworkFidelity:
    """Degeneracy-weighted mean of the best fidelity over unordered pairs.
    Records carry best paths only with ``paths``: no value depends on them."""
    if net.node_count < 2:
        raise GraphError("network average needs at least 2 nodes")
    n = net.node_count
    records = None if paths else _profile_records(net)
    if records is None:
        records = [r for s in range(n - 1) for r in _pair_records(net, s, range(s + 1, n), paths)]
    total_weight = sum(r.degeneracy for r in records)
    avg = fsum(r.degeneracy * r.fidelity for r in records) / total_weight
    return NetworkFidelity(avg, tuple(records))


# --- effective path length -------------------------------------------------
#
# Count, for each pair, the minimum number of non-ME links (weight < 1) on a
# best path in the limit where every non-ME weight tends to one; ME links
# cost nothing. The degeneracy-weighted pair average of this count equals
# 2 * dF/dp at p -> 1 when all non-ME links share the weight p.


def effective_path_length(net: Network) -> float:
    """Pair-averaged count of non-ME links along best paths.

    Zero when every pair is joined by an all-ME path; equals the plain
    average path length when no link is ME, and is then counted by hop
    profiles instead of the search.
    """
    if net.node_count < 2:
        raise GraphError("effective path length needs at least 2 nodes")
    n = net.node_count
    me_free = all(w != 1.0 for _, _, w in net.edges)
    num = den = 0
    for s in range(n - 1):
        targets = range(s + 1, n)
        if me_free:
            key, counts = _hop_profile(net, s)
            counts = counts[s + 1:]
        else:
            key, order = _search(net, s, _NON_ME)
            counts = _tie_counts(net, s, key, order, targets, _NON_ME[1])
        for t, deg in zip(targets, counts):
            num += deg * key[t]
            den += deg
    return num / den


__all__ = [
    "PairFidelity", "NetworkFidelity", "pair_max_fidelity", "average_max_fidelity",
    "effective_path_length",
]
