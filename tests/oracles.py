"""Test oracles: references the package never calls, kept beside the tests
so that they stay independent of the calculator.

- :func:`brute_force_pair_fidelity` enumerates every simple path of a pair;
- :func:`one_weight_ties` enumerates every simple path from a source and
  ties them by their least non-ME link count, as the exact products of one
  weight p do (:func:`simple_path_costs` is its enumeration);
- :func:`searched` is the product search's records, read at p = 1/2 where
  one weight's float products collide (:func:`collide`);
- :func:`effective_path_length_fd` differentiates the network average
  numerically, and :func:`first_order_estimate` is the linearised fidelity
  near the all-ME point;
- the triangle constants are exact expectations under i.i.d. uniform weights.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import frexp

from qnetfid import GraphError, Network, PairFidelity, average_max_fidelity, effective_path_length
from qnetfid.fidelity import _check_pair, _pair_records

# Exact expectation of the triangle (3-ring) average under i.i.d. uniform
# weights: maximising over the two paths of each pair before averaging.
TRIANGLE_MAX_THEN_AVERAGE = Fraction(7, 9)
# What averaging each product first and then maximising would give instead;
# the gap demonstrates that the two operations do not commute on loops.
TRIANGLE_AVERAGE_THEN_MAX = Fraction(3, 4)


def brute_force_pair_fidelity(net: Network, s: int, t: int, node_cap: int = 10) -> PairFidelity:
    """Exhaustive oracle: enumerate every simple path and keep the best.

    Products are accumulated in path order, exactly as the engine does, so
    on agreement the max products are bitwise equal. Guarded by ``node_cap``
    because the enumeration is exponential.

    Where the non-ME links share one weight 0 < p < 1, a path with c of them
    has the exact product p^c, so paths rank by c instead: their float
    products can reach 0 or stall and tie where the exact ones do not.
    """
    _check_pair(net, s, t)
    if net.node_count > node_cap:
        raise GraphError(
            f"brute force capped at {node_cap} nodes, network has {net.node_count}"
        )
    adj = net.adjacency
    weights = {w for _, _, w in net.edges} - {1.0}
    by_count = len(weights) == 1 and 0.0 < min(weights) < 1.0
    best: tuple[float, int, tuple[int, ...], float] | None = None  # rank, hops, path, product
    degeneracy = 0
    stack: list[tuple[int, float, int, tuple[int, ...]]] = [(s, 1.0, 0, (s,))]
    while stack:
        node, prod, c, path = stack.pop()
        rank = -c if by_count else prod
        if node == t:
            if best is None or rank > best[0]:
                best = (rank, len(path) - 1, path, prod)
                degeneracy = 1
            elif rank == best[0]:
                degeneracy += 1
                if (len(path) - 1, path) < (best[1], best[2]):
                    best = (rank, len(path) - 1, path, prod)
            continue
        in_path = set(path)
        for v, w in adj[node]:
            if v not in in_path:
                stack.append((v, prod * w, c + (w != 1.0), path + (v,)))
    assert best is not None  # connected graph: some path exists
    _, _, path, prod = best
    if prod >= 1.0 or (prod <= 0.0 and not by_count):
        degeneracy = 1
    return PairFidelity(s, t, path, prod, (1.0 + prod) / 2.0, degeneracy)


def simple_path_costs(net: Network, s: int) -> dict[int, list[tuple[int, float]]]:
    """Every simple path from ``s``, by target: its number of non-ME links
    and its weight product, multiplied in path order."""
    adj = net.adjacency
    costs: dict[int, list[tuple[int, float]]] = {}
    stack = [(s, 0, 1.0, (s,))]
    while stack:
        u, c, prod, path = stack.pop()
        if u != s:
            costs.setdefault(u, []).append((c, prod))
        for v, w in adj[u]:
            if v not in path:
                stack.append((v, c + (w != 1.0), prod * w, path + (v,)))
    return costs


def one_weight_ties(net: Network, s: int) -> dict[int, tuple[int, int, float]]:
    """{t: (c, ties, product)} for every other node t, where the non-ME links
    share one weight p: c is the least non-ME link count over the simple
    paths from ``s`` to t, ties the number of those paths at c, and product
    their float product. A path's exact product is p^c, so for every p the
    tied paths are those at c; the pair counts once where that exact product
    is 0 or 1: at c = 0, or when p is 0 or 1."""
    weights = {w for _, _, w in net.edges} - {1.0}
    if len(weights) > 1:
        raise ValueError("the non-ME links do not share one weight")
    once = weights <= {0.0}
    ties = {}
    for t, costs in simple_path_costs(net, s).items():
        c, prod = min(costs)
        ties[t] = (c, 1 if once or c == 0 else [k for k, _ in costs].count(c), prod)
    return ties


def _products(p: float, c: int) -> list[float]:
    """Float products of 0, 1, ..., c factors p, multiplied in path order."""
    t = [1.0]
    for _ in range(c):
        t.append(t[-1] * p)
    return t


def collide(p: float, c: int) -> bool:
    """Whether 0 < p < 1 and two of the float products of 0, 1, ..., c
    factors p are equal: they reach 0 or stall, where the exact products
    p^0 > p^1 > ... > p^c differ."""
    return 0.0 < p < 1.0 and len(set(_products(p, c))) <= c


def searched(net: Network, s: int, targets) -> list[PairFidelity]:
    """Records of ``s`` to ``targets``, best paths included, by the product
    search and its tie counts. Where the non-ME links share one weight
    0 < p < 1 whose float products collide (:func:`collide`), the search
    would tie paths whose exact products p^c differ: it runs at p = 1/2
    instead, whose products 2^-c are exact below 1075 links and so tell
    every c apart, and each record is read at p from its least c."""
    weights = {w for *_, w in net.edges} - {1.0}
    p = min(weights, default=1.0)
    if len(weights) > 1 or not collide(p, net.node_count - 1):
        return _pair_records(net, s, targets, True, None)
    assert net.node_count <= 1075
    half = net.with_weights([1.0 if w == 1.0 else 0.5 for *_, w in net.edges])
    t = _products(p, net.node_count - 1)
    return [replace(r, product=t[c], fidelity=(1.0 + t[c]) / 2.0)
            for r in _pair_records(half, s, targets, True, None)
            for c in [1 - frexp(r.product)[1]]]  # r.product = 2^-c = 0.5 * 2^(1 - c)


def _with_common_weight(net: Network, q: float) -> Network:
    return net.with_weights([1.0 if w == 1.0 else q for _, _, w in net.edges])


def effective_path_length_fd(net: Network, h: float = 1e-4, order: int = 2) -> float:
    """Finite-difference estimate of the same quantity.

    Sets every non-ME weight to a common value q and differentiates the
    network average at q -> 1 from below (2 * dF/dq there equals the
    combinatorial count). ``order=1`` is the plain one-sided difference
    2*[F(1) - F(1-h)]/h; ``order=2`` the second-order one-sided stencil.
    Both need 0 < order*h <= 1, so that every weight stays in [0, 1).
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order!r}: use 1 or 2")
    if not 0.0 < order * h <= 1.0:
        raise ValueError(f"step h={h!r} must satisfy 0 < order*h <= 1")

    def f(q: float) -> float:
        return average_max_fidelity(_with_common_weight(net, q)).avg_max_fidelity

    f1 = f(1.0)
    if order == 1:
        return 2.0 * (f1 - f(1.0 - h)) / h
    return (3.0 * f1 - 4.0 * f(1.0 - h) + f(1.0 - 2.0 * h)) / h


def first_order_estimate(net: Network, delta_p: float) -> float:
    """Linearised fidelity 1 - l_avg * delta_p / 2 near the all-ME point."""
    return 1.0 - effective_path_length(net) * delta_p / 2.0
