"""Test helpers: random connected graphs (a random spanning tree plus extra
edges), randomly labelled trees, and the plain, unweighted pair mean of a
network result."""

from __future__ import annotations

import random
from math import fsum

from qnetfid import Network, NetworkFidelity


def random_connected_network(
    rng: random.Random,
    n: int,
    extra_edge_prob: float = 0.3,
    me_prob: float = 0.0,
    levels: tuple[float, ...] | None = None,
) -> Network:
    """Uniformly weighted random connected graph on n nodes.

    Starts from a random spanning tree (each node attaches to a random
    earlier node), then adds every remaining pair independently with
    probability ``extra_edge_prob``. With ``me_prob`` > 0 some links are
    upgraded to weight exactly 1.0. With ``levels`` each weight is drawn
    from those fixed values instead of U[0, 1), so best paths tie.
    """

    def weight() -> float:
        if me_prob and rng.random() < me_prob:
            return 1.0
        return rng.choice(levels) if levels else rng.random()

    edges = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = weight()
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges[(u, v)] = weight()
    return Network(n, tuple((u, v, w) for (u, v), w in edges.items()))


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Links of a random tree on n nodes under a random labelling.

    Each node attaches to a random earlier node, then the labels are
    shuffled, so a parent's label may exceed its child's; link order and
    orientation are shuffled too.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    for v in range(1, n):
        a, b = labels[rng.randrange(v)], labels[v]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return edges


def plain_pair_mean(result: NetworkFidelity) -> float:
    """Mean pair fidelity with every pair counted once, ties ignored."""
    return fsum(r.fidelity for r in result.pair_records) / len(result.pair_records)
