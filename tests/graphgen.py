"""Random connected test graphs: a random spanning tree plus extra edges."""

from __future__ import annotations

import random

from qnetfid import Network


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
