"""Test oracles: references the package never calls, kept beside the tests
so that they stay independent of the calculator.

- :func:`brute_force_pair_fidelity` enumerates every simple path of a pair;
- :func:`effective_path_length_fd` differentiates the network average
  numerically, and :func:`first_order_estimate` is the linearised fidelity
  near the all-ME point;
- the triangle constants are exact expectations under i.i.d. uniform weights.
"""

from __future__ import annotations

from fractions import Fraction

from qnetfid import GraphError, Network, PairFidelity, average_max_fidelity, effective_path_length
from qnetfid.fidelity import _check_pair

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
