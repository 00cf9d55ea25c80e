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

Values need only best keys, so searches carry keys alone. Best paths, a
report for :func:`pair_max_fidelity` and ``average_max_fidelity(net,
paths=True)``, follow the tight links of the final keys (:func:`_best_paths`).

Where the non-ME links share one weight p, a path with c non-ME links has
the product t[c] of one table (:func:`_levels`; multiplying by an ME
weight 1 is exact) and the exact product p^c. So a pair's best product is
t at its least c, and its tied paths are its simple paths at that c, both
from one count pass per source (:func:`_counts`): breadth-first without ME
links, else a search over integer counts, which never rounds. A pair counts
once where its exact product is 0 or 1: at c = 0, and everywhere when p is
0 or 1. The product search serves mixed weights, and p = 0 beside ME links.
Neither count depends on p: averages and the effective length read one
profile {(c, ties): pairs} (:func:`_profile`), cached here by node count
and links with their ME flags, so every caller counts a network once.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum
from operator import mul

from .network import EnumerationLimitError, GraphError, Network

# A step rule is (start, extend(key, weight)); smaller keys are better and
# extending never improves one.
_Rule = tuple[object, Callable]
_PRODUCT: _Rule = (-1.0, mul)  # negated weight product
_NON_ME: _Rule = (0, lambda k, w: k + (w != 1.0))  # non-ME links on the path
_Table = tuple[list[float], list[float], bool, int]  # _levels' t, fidelity, once; ME links

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
    """Network-wide result: degeneracy-weighted mean of pair fidelities, and
    the worst and best pair fidelity. ``pair_records`` is built on first
    read by ``_records``, one more pass over the sources, and kept.
    Equality ignores it (compare the records themselves)."""

    avg_max_fidelity: float
    worst_pair_fidelity: float
    best_pair_fidelity: float
    _records: Callable[[], list[PairFidelity]] = field(repr=False, compare=False)
    effective_path_length: float | None = None
    analytic_value: float | None = None
    analytic_abs_diff: float | None = None

    @cached_property
    def pair_records(self) -> tuple[PairFidelity, ...]:
        return tuple(self._records())


def _check_pair(net: Network, s: int, t: int) -> None:
    n = net.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise GraphError(f"node pair ({s}, {t}) out of range for {n} nodes")
    if s == t:
        raise GraphError("source and target must differ")


def _levels(p: float, longest: int) -> tuple[list[float], list[float], bool]:
    """Products t[c] of c factors p in path order, for c up to ``longest``;
    their fidelities (1 + t)/2; and whether every pair counts once. A path's
    exact product is p^c, so only p = 0 or 1 makes every exact product 0 or
    1; else a pair counts once only at c = 0, however t rounds."""
    t = [1.0]
    for _ in range(longest):
        t.append(t[-1] * p)
    return t, [(1.0 + x) / 2.0 for x in t], p in (0.0, 1.0)


def _table(net: Network) -> _Table | None:
    """:func:`_levels` by non-ME link count c, and the number of ME links;
    None unless the non-ME links share one weight, and at p = 0 beside ME
    links (a product-0 pair counts once, which an ME cycle must not turn
    into an enumeration)."""
    weights = [w for _, _, w in net.edges]
    me = weights.count(1.0)
    p, *others = set(weights) - {1.0} or {1.0}
    if others or (p == 0.0 and me):
        return None
    return *_levels(p, net.node_count - 1), me


def _counts(net: Network, source: int, targets: Sequence[int], me: int) -> tuple[list, list]:
    """Least non-ME link count to every node, and the number of simple paths
    tying at it (valid at the targets), both node-indexed, given the number
    ``me`` of ME links: hop distances and shortest-path counts by one
    breadth-first pass (Brandes) without ME links, 0 and 1 with only ME
    links, else the ``_NON_ME`` search and its tie counts."""
    n = net.node_count
    if me == net.edge_count:
        return [0] * n, [1] * n
    if me:
        key, order = _search(net, source, _NON_ME)
        return key, _tie_counts(net, source, key, order, targets, _NON_ME[1])
    adj = net.adjacency
    dist, sigma = [-1] * n, [0] * n
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


def _best_paths(net: Network, source: int, key: list | None, extend: Callable,
                targets: Sequence[int]) -> list:
    """Fewest-hop, then lexicographically smallest, path to each target, node-
    indexed (None elsewhere), by one breadth-first pass over sorted neighbours
    along the tight links of the final keys (``extend(key[u], w) == key[v]``),
    whose paths are the prefix-optimal best paths; along every link if
    ``key`` is None. The pass keeps one predecessor per node, the node that
    first reached it, and walks back from the targets alone."""
    adj = net.adjacency
    before = [-1] * net.node_count
    before[source] = source
    queue = [source]
    for u in queue:
        for v, w in adj[u]:
            if before[v] < 0 and (key is None or extend(key[u], w) == key[v]):
                before[v] = u
                queue.append(v)
    path: list = [None] * net.node_count
    for t in targets:
        walk = [t]
        while walk[-1] != source:
            walk.append(before[walk[-1]])
        path[t] = tuple(reversed(walk))
    return path


def _tie_counts(
    net: Network, source: int, key: list, order: list[int], targets: Sequence[int],
    extend: Callable, paths: list | None = None,
) -> list:
    """Number of simple paths tying for the best key, node-indexed and valid
    at the targets. On a tree each count is 1 and no link is scanned.

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
        return [1] * net.node_count
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
    for t in targets:
        kt = key[t]
        if kt == key[source] or kt == 0:
            count[t] = 1
        elif count[t] is None or kt >= fragile or -_TINY_PRODUCT < kt < 0:
            count[t], path = _enumerate_tied(net, key, source, t, extend,
                                             near if kt <= -_TINY_PRODUCT else 0.0)
            if paths is not None:
                paths[t] = path
    return count


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


def _source(net: Network, s: int, targets: Sequence[int], paths: bool):
    """One source's node-indexed negated products, tie counts (valid at the
    targets) and best paths, by the product search."""
    key, order = _search(net, s, _PRODUCT)
    found = _best_paths(net, s, key, mul, targets) if paths else None
    if paths and any(key[t] == 0 for t in targets):
        # every path to a product-0 target ties, so the hop/lex tie-break
        # ranges over all simple paths, not only tight ones
        found = [h if k == 0 else f
                 for h, k, f in zip(_best_paths(net, s, None, mul, targets), key, found)]
    return key, _tie_counts(net, s, key, order, targets, mul, found), found


def _pair_records(
    net: Network, s: int, targets: Sequence[int], paths: bool, table: _Table | None,
) -> list[PairFidelity]:
    """Records of one source: counted (:func:`_counts`) and read off the
    ``table`` if there is one, else searched (:func:`_source`)."""
    if table is None:
        key, ties, found = _source(net, s, targets, paths)
    else:
        key, ties = _counts(net, s, targets, table[3])
        found = _best_paths(net, s, key, _NON_ME[1], targets) if paths else None
    picked = map(found.__getitem__, targets) if found else [None] * len(targets)
    if table is None:
        return [PairFidelity(s, t, path, -key[t], (1.0 - key[t]) / 2.0, ties[t])
                for t, path in zip(targets, picked)]
    products, fidelity, once, _ = table
    return [PairFidelity(s, t, path, products[c], fidelity[c], 1 if once else ties[t])
            for t, c, path in zip(targets, map(key.__getitem__, targets), picked)]


# profile items by (node count, links with their ME flags), the 8 last used;
# each step is one dict call, so threads sharing it at worst count twice
_PROFILES: dict[tuple, tuple] = {}


def _profile(net: Network) -> tuple:
    """Items of {(c, ties): pairs}, c a pair's least non-ME link count and ties
    its simple paths at c, from ``_PROFILES``; on a miss, counted once and
    stored, each source's :func:`_counts` lists dropped once added."""
    n = net.node_count
    key = (n, tuple((u, v, w == 1.0) for u, v, w in net.edges))
    items = _PROFILES.pop(key, None)
    if items is None:
        me = sum(flag for *_, flag in key[1])
        profile = Counter()
        for s in range(n - 1):
            count, ties = _counts(net, s, range(s + 1, n), me)
            profile.update(zip(count[s + 1:], ties[s + 1:]))
        items = tuple(profile.items())
    _PROFILES[key] = items
    for old in list(_PROFILES)[:-8]:
        _PROFILES.pop(old, None)
    return items


def pair_max_fidelity(net: Network, s: int, t: int) -> PairFidelity:
    """Best achievable fidelity between ``s`` and ``t``, with its best path."""
    _check_pair(net, s, t)
    return _pair_records(net, s, [t], True, _table(net))[0]


def average_max_fidelity(net: Network, paths: bool = False) -> NetworkFidelity:
    """Degeneracy-weighted mean of the best fidelity over unordered pairs.
    Holds one source's lists at a time. Records, with best paths only if
    ``paths`` (no value depends on them), are built on first read by one
    more pass over the sources (:func:`_pair_records`)."""
    if net.node_count < 2:
        raise GraphError("network average needs at least 2 nodes")
    n, table = net.node_count, _table(net)
    if table is not None:
        profile = _profile(net)
        _, fidelity, once, _ = table
        terms = [(pairs, 1 if once else ties, c) for (c, ties), pairs in profile]
        # the exact sum of pairs * fl(d * fidelity[c]), rounded once as fsum
        # rounds: every term is num / den with den a power of two, so scaled
        # to the largest den the sum is one integer, and int / int rounds once
        ratios = [(pairs, (d * fidelity[c]).as_integer_ratio()) for pairs, d, c in terms]
        scale = max(den for _, (_, den) in ratios)
        exact = sum(pairs * num * (scale // den) for pairs, (num, den) in ratios)
        avg = exact / scale / sum(pairs * d for pairs, d, _ in terms)
        worst, best = fidelity[max(c for _, _, c in terms)], fidelity[min(c for _, _, c in terms)]
    else:
        weight, worst, best = 0, 1.0, 0.0

        def weighted():  # each source's weighted fidelities, into one fsum
            nonlocal weight, worst, best
            for s in range(n - 1):
                key, ties, _ = _source(net, s, range(s + 1, n), False)
                fids, ties = [(1.0 - k) / 2.0 for k in key[s + 1:]], ties[s + 1:]
                weight, worst, best = weight + sum(ties), min(worst, *fids), max(best, *fids)
                yield from map(mul, ties, fids)

        avg = fsum(weighted()) / weight  # operands run left to right: weight is summed by then

    def records() -> list[PairFidelity]:
        return [r for s in range(n - 1)
                for r in _pair_records(net, s, range(s + 1, n), paths, table)]

    return NetworkFidelity(avg, worst, best, records)


# --- effective path length -------------------------------------------------
#
# Count, for each pair, the minimum number of non-ME links (weight < 1) on a
# best path in the limit where every non-ME weight tends to one; ME links
# cost nothing. The degeneracy-weighted pair average of this count equals
# 2 * dF/dp at p -> 1 when all non-ME links share the weight p.


def effective_path_length(net: Network) -> float:
    """Pair-averaged count of non-ME links along best paths.

    Zero when every pair is joined by an all-ME path; equals the plain
    average path length when no link is ME. Read off :func:`_profile`:
    the sum of pairs * ties * c over that of pairs * ties.
    """
    if net.node_count < 2:
        raise GraphError("effective path length needs at least 2 nodes")
    profile = _profile(net)
    return sum(pairs * ties * c for (c, ties), pairs in profile) / sum(
        pairs * ties for (_, ties), pairs in profile)


__all__ = [
    "PairFidelity", "NetworkFidelity", "pair_max_fidelity", "average_max_fidelity",
    "effective_path_length",
]
