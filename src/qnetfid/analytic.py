"""Closed-form network averages for the canonical topologies.

Every evaluator follows from counting, per path length n, how many pairs
are joined by a best path whose product is p**n: each such pair contributes
``(1 + p**n) / 2``. Two weight regimes are covered: a uniform weight p on
every link, and M maximally entangled links (weight 1) with the rest at p,
averaged over all C(L, M) placements.

Evaluators are generic over the numeric type of ``p``: pass a float for
double precision or a ``fractions.Fraction`` (or int) for exact rational
arithmetic. The result has the same type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, fsum
from typing import Union

from .network import TopologySpecError

Scalar = Union[float, Fraction]

# Exact expectation of the triangle (3-ring) average under i.i.d. uniform
# weights: maximising over the two paths of each pair before averaging.
TRIANGLE_MAX_THEN_AVERAGE = Fraction(7, 9)
# What averaging each product first and then maximising would give instead;
# the gap demonstrates that the two operations do not commute on loops.
TRIANGLE_AVERAGE_THEN_MAX = Fraction(3, 4)


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient with the out-of-range convention C(n, k) = 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _coerce(p: Scalar) -> Scalar:
    if isinstance(p, bool):
        raise TypeError("p must be a number")
    if isinstance(p, int):
        p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p


def path_fidelity_term(n: int, p: Scalar) -> Scalar:
    """Fidelity of a path with n links of weight p: (1 + p**n) / 2."""
    if n < 0:
        raise ValueError("path length must be non-negative")
    return (1 + p**n) / 2


def star_uniform(n: int, p: Scalar) -> Scalar:
    """Star of n nodes, uniform weight p: hub pairs at 1 hop, leaf pairs at 2."""
    if n < 2:
        raise ValueError("star requires n >= 2")
    p = _coerce(p)
    links = n - 1
    acc = links * path_fidelity_term(1, p) + _comb0(links, 2) * path_fidelity_term(2, p)
    return acc / comb(n, 2)


def chain_uniform(n: int, p: Scalar) -> Scalar:
    """Chain of n nodes, uniform weight p: n - l pairs at every hop count l."""
    if n < 2:
        raise ValueError("chain requires n >= 2")
    p = _coerce(p)
    acc = sum(((n - l) * path_fidelity_term(l, p) for l in range(1, n)), 0 * p)
    return acc / comb(n, 2)


def flower_uniform(n: int, k: int, p: Scalar) -> Scalar:
    """k-th intermediate flower: a (k+2)-spoke star with one spoke extended
    into a chain. Interpolates between the chain (k=0) and the star (k=n-3).
    """
    if n < 2:
        raise ValueError("flower requires n >= 2")
    links = n - 1
    if not 0 <= k <= links - 2:
        raise ValueError(f"flower k must satisfy 0 <= k <= {links - 2}, got {k}")
    p = _coerce(p)
    acc = _comb0(k + 1, 2) * path_fidelity_term(2, p)
    acc += sum(((n - l) * path_fidelity_term(l, p) for l in range(1, links - k + 1)), 0 * p)
    return acc / comb(n, 2)


def ring_uniform(n: int, p: Scalar) -> Scalar:
    """Ring of n nodes, uniform weight p.

    Every pair is joined by two arcs and the shorter one wins; for even n
    the two arcs between opposite nodes tie and are both counted, which is
    exactly the degeneracy weighting of the engine average.
    """
    if n < 3:
        raise ValueError("ring requires n >= 3")
    p = _coerce(p)
    half = n // 2
    acc = sum((path_fidelity_term(l, p) for l in range(1, half + 1)), 0 * p)
    return acc / half


def complete_uniform(p: Scalar) -> Scalar:
    """Complete graph, uniform weight p: the direct link always wins."""
    p = _coerce(p)
    return path_fidelity_term(1, p)


def star_with_me(n: int, m_links: int, p: Scalar) -> Scalar:
    """Star with m_links maximally entangled spokes, rest at p.

    All placements are equivalent by hub symmetry, so this is both the
    placement average and the value of every single placement.
    """
    if n < 2:
        raise ValueError("star requires n >= 2")
    links = n - 1
    if not 0 <= m_links <= links:
        raise ValueError(f"m_links must lie in [0, {links}], got {m_links}")
    p = _coerce(p)
    f0 = path_fidelity_term(0, p)
    f1 = path_fidelity_term(1, p)
    f2 = path_fidelity_term(2, p)
    acc = (
        _comb0(m_links + 1, 2) * f0
        + (m_links + 1) * (links - m_links) * f1
        + _comb0(links - m_links, 2) * f2
    )
    return acc / comb(n, 2)


def chain_with_me(n: int, m_links: int, p: Scalar) -> Scalar:
    """Chain with m_links maximally entangled links, averaged over placements.

    Counting arrangements of ME links inside each sub-path reduces to a
    binary-string count, which collapses to the closed form below. At
    m_links = n - 1 the sum is empty and the value is exactly 1.
    """
    if n < 2:
        raise ValueError("chain requires n >= 2")
    links = n - 1
    if not 0 <= m_links <= links:
        raise ValueError(f"m_links must lie in [0, {links}], got {m_links}")
    p = _coerce(p)
    inner = sum(
        ((n - m_links - l) * path_fidelity_term(l, p) for l in range(1, links - m_links + 1)),
        0 * p,
    )
    inner = inner * (n + 1) / (n - m_links) + m_links * path_fidelity_term(0, p)
    return n * inner / ((n + 1 - m_links) * comb(n, 2))


@lru_cache(maxsize=4096)
def _flower_me_weights(n: int, k: int, m_links: int) -> tuple[Fraction, ...]:
    """Rational weights w[c] with the flower ME average = sum_c w[c] F_c.

    A pair l links apart keeps c non-ME links on its path when l - c of the
    M ME links land on that path and the other M - l + c land on the L - l
    links off it: C(l, c) * C(L - l, M - l + c) of the C(L, M) placements.
    The flower has n - l pairs at every l from 1 to L - k along the stem,
    plus C(k + 1, 2) petal pairs at l = 2.
    """
    links = n - 1
    pairs_at = [0] + [n - l for l in range(1, links - k + 1)]
    pairs_at[2] += comb(k + 1, 2)
    counts = [0] * (links + 1)
    for l, pairs in enumerate(pairs_at):
        for c in range(l + 1):
            counts[c] += pairs * comb(l, c) * _comb0(links - l, m_links - l + c)
    denom = comb(n, 2) * comb(links, m_links)
    return tuple(Fraction(count, denom) for count in counts)


@lru_cache(maxsize=4096)
def _flower_me_float_weights(
    n: int, k: int, m_links: int
) -> tuple[tuple[int, float], ...]:
    """The nonzero ``_flower_me_weights`` as (l, float(w)), in order of l."""
    return tuple(
        (l, float(w)) for l, w in enumerate(_flower_me_weights(n, k, m_links)) if w
    )


def flower_with_me(n: int, k: int, m_links: int, p: Scalar) -> Scalar:
    """k-th intermediate flower with m_links ME links, placement-averaged."""
    if n < 2:
        raise ValueError("flower requires n >= 2")
    links = n - 1
    if not 0 <= k <= links - 2:
        raise ValueError(f"flower k must satisfy 0 <= k <= {links - 2}, got {k}")
    if not 0 <= m_links <= links:
        raise ValueError(f"m_links must lie in [0, {links}], got {m_links}")
    p = _coerce(p)
    if isinstance(p, Fraction):
        weights = _flower_me_weights(n, k, m_links)
        return sum(w * path_fidelity_term(l, p) for l, w in enumerate(weights) if w)
    return fsum(
        w * path_fidelity_term(l, p) for l, w in _flower_me_float_weights(n, k, m_links)
    )


def uniform_value(family: str, n: int, k: int | None, p: Scalar) -> Scalar:
    """Dispatch the uniform-weight closed form for a canonical family."""
    if family == "chain":
        return chain_uniform(n, p)
    if family == "star":
        return star_uniform(n, p)
    if family == "flower":
        if k is None:
            raise TopologySpecError("flower requires k")
        return flower_uniform(n, k, p)
    if family == "ring":
        return ring_uniform(n, p)
    if family == "complete":
        return complete_uniform(p)
    raise TopologySpecError(f"no uniform closed form for family {family!r}")


def me_value(family: str, n: int, k: int | None, m_links: int, p: Scalar) -> Scalar:
    """Dispatch the placement-averaged ME closed form (tree families only)."""
    if family == "chain":
        return chain_with_me(n, m_links, p)
    if family == "star":
        return star_with_me(n, m_links, p)
    if family == "flower":
        if k is None:
            raise TopologySpecError("flower requires k")
        return flower_with_me(n, k, m_links, p)
    raise TopologySpecError(f"no ME-placement closed form for family {family!r}")


def star_me_limit(m: Scalar, p: Scalar) -> Scalar:
    """Large-n limit of the star average at ME fraction m: the leaf pairs
    dominate and the value tends to m**2 + 2m(1-m)F1 + (1-m)**2 F2."""
    p = _coerce(p)
    if isinstance(m, int):
        m = Fraction(m)
    f1 = path_fidelity_term(1, p)
    f2 = path_fidelity_term(2, p)
    return m * m + 2 * m * (1 - m) * f1 + (1 - m) * (1 - m) * f2


__all__ = [
    "TRIANGLE_MAX_THEN_AVERAGE",
    "TRIANGLE_AVERAGE_THEN_MAX",
    "path_fidelity_term",
    "star_uniform",
    "chain_uniform",
    "flower_uniform",
    "ring_uniform",
    "complete_uniform",
    "star_with_me",
    "chain_with_me",
    "flower_with_me",
    "uniform_value",
    "me_value",
    "star_me_limit",
]
