"""Closed-form network averages for the canonical topologies.

Every closed form follows from counting, per path length n, how many pairs
are joined by a best path whose product is p**n: each such pair contributes
``(1 + p**n) / 2``. Two weight regimes are covered, each by one entry point
taking the family name: :func:`uniform_value` for a uniform weight p on
every link, and :func:`me_value` for M maximally entangled links (weight 1)
with the rest at p, averaged over all C(L, M) placements (:func:`me_grid`
evaluates the latter over a grid of p).

Both are generic over the numeric type of ``p``: pass a float for double
precision or a ``fractions.Fraction`` (or int) for exact rational
arithmetic. The result has the same type.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, fsum
from typing import Union

import numpy as np

from .network import CANONICAL_FAMILIES, TREE_FAMILIES, TopologySpec, TopologySpecError, WeightError

Scalar = Union[float, Fraction]


def _coerce(p: Scalar) -> Scalar:
    if isinstance(p, bool):
        raise TypeError("p must be a number")
    if isinstance(p, int):
        p = Fraction(p)
    if not 0 <= p <= 1:
        raise WeightError(f"weight out of range: {p}")
    return p


def path_fidelity_term(n: int, p: Scalar) -> Scalar:
    """Fidelity of a path with n links of weight p: (1 + p**n) / 2."""
    if n < 0:
        raise ValueError("path length must be non-negative")
    return (1 + p**n) / 2


def _binomials(m: int, low: int, high: int) -> list[int]:
    """C(m, j) for j = low .. high, by one ``comb`` call and the ratio
    C(m, j + 1) = C(m, j) (m - j) / (j + 1), exact in integers (0 past m)."""
    run = [comb(m, low)]
    for j in range(low, high):
        run.append(run[-1] * (m - j) // (j + 1))
    return run


def _flower_me_counts(n: int, k: int, m_links: int) -> tuple[tuple[int, ...], int]:
    """Integer counts[c] and denominator with the flower ME average equal to
    sum_c counts[c] / denom * F_c.

    A pair l links apart keeps c of the r = L - M non-ME links on its path in
    C(l, c) C(L - l, r - c) of the C(L, M) placements. The flower has n - l
    pairs at each l from 1 to S = L - k along the stem, plus C(k + 1, 2)
    petal pairs at l = 2. The stem sums in O(L) big-integer operations, for
    any k, by (n - l) C(l, c) = (n - c) C(l, c) - (c + 1) C(l, c + 1) and
    Σ_{l≤S} C(l, a) C(L - l, b) = Σ_{i>a} C(S + 1, i) C(k, a + b + 1 - i)
    (the (a + 1)-th of a + b + 1 marks among L + 1 slots lies in the first
    S + 1): with T_s(j) = Σ_{i≥j} C(S + 1, i) C(k, r + s - i), counts[c] is
    (n - c) T_1(c + 1) - (c + 1) T_2(c + 2), less n C(L, r) at c = 0 (l = 0).
    The chain (k = 0) has no petal pairs, n = 2 included.
    """
    links = n - 1
    stem, rest = links - k, links - m_links

    def tail_sums(shift: int) -> list[int]:
        # C(S + 1, i) C(k, top - i) is nonzero only at first <= i <= last (one i if k = 0)
        top = rest + shift
        first, last = max(0, top - k), min(stem + 1, top)
        sums = [0] * (stem + 3)
        if first <= last:
            heads, tails = _binomials(stem + 1, first, last), _binomials(k, top - last, top - first)
            for i in range(last, first - 1, -1):
                sums[i] = sums[i + 1] + heads[i - first] * tails[last - i]
            sums[:first] = [sums[first]] * first
        return sums

    once, twice = tail_sums(1), tail_sums(2)
    counts = [0] * (links + 1)
    for c in range(min(stem, rest) + 1):
        counts[c] = (n - c) * once[c + 1] - (c + 1) * twice[c + 2]
    counts[0] -= n * comb(links, rest)
    for c in range(min(2, rest) + 1 if k else 0):
        counts[c] += comb(k + 1, 2) * comb(2, c) * comb(links - 2, rest - c)
    return tuple(counts), comb(n, 2) * comb(links, m_links)


def _flower_k(family: str, n: int, k: int | None) -> int:
    """The k of the flower that is this tree: the chain is flower(n, 0) and
    the star flower(n, n - 3), or flower(2, 0) at n = 2."""
    return {"chain": 0, "star": max(0, n - 3), "flower": k}[family]


def _check_shape(family: str, n: int, k: int | None, families, regime: str) -> None:
    """Raise for a family outside ``families``, and as :class:`TopologySpec`
    does for a bad n or k: ``ValueError`` subclasses either way."""
    if family not in families:
        raise TopologySpecError(f"no {regime} closed form for family {family!r}")
    TopologySpec(family, n, k)


def _check_me(family: str, n: int, k: int | None, m_links: int) -> None:
    """Raise the errors of the ME closed forms for a bad family, n, k or M."""
    _check_shape(family, n, k, TREE_FAMILIES, "ME-placement")
    if not 0 <= m_links <= n - 1:
        raise WeightError(f"m_links must lie in [0, {n - 1}], got {m_links}")


def uniform_value(family: str, n: int, k: int | None, p: Scalar) -> Scalar:
    """Closed form of a canonical family with weight p on every link.

    - complete: the direct link always wins, F1.
    - ring: every pair is joined by two arcs and the shorter one wins; for
      even n the two arcs between opposite nodes tie and are both counted,
      which is exactly the degeneracy weighting of the engine average.
    - star: n - 1 hub pairs at 1 hop, C(n - 1, 2) leaf pairs at 2.
    - flower k: a (k+2)-spoke star with one spoke extended into a chain,
      n - l pairs at every hop count l along the stem plus C(k + 1, 2)
      petal pairs at 2. It runs from the chain (k = 0) to the star
      (k = n - 3); the chain is computed as the flower at k = 0.
    """
    _check_shape(family, n, k, CANONICAL_FAMILIES, "uniform")
    links = n - 1
    p = _coerce(p)

    def term(l: int) -> Scalar:
        return path_fidelity_term(l, p)

    if family == "complete":
        return term(1)
    if family == "ring":
        half = n // 2
        return sum((term(l) for l in range(1, half + 1)), 0 * p) / half
    if family == "star":
        # kept off the flower counts: fig3a's engine-minus-closed-form bytes pin this rounding
        acc = links * term(1) + comb(links, 2) * term(2)
    else:
        k = _flower_k(family, n, k)
        stem = sum(((n - l) * term(l) for l in range(1, links - k + 1)), 0 * p)
        acc = comb(k + 1, 2) * term(2) + stem
    return acc / comb(n, 2)


def me_value(family: str, n: int, k: int | None, m_links: int, p: Scalar) -> Scalar:
    """Placement-averaged ME closed form of a tree family: sum_c counts[c] /
    denom * (1 + p**c)/2 over its flower's counts (:func:`_flower_me_counts`).

    A ``Fraction`` p sums exactly. A float p weights each nonzero count by
    count / denom, which integer true division rounds correctly to the float
    of the exact weight, and adds the terms with ``math.fsum``.
    """
    _check_me(family, n, k, m_links)
    p = _coerce(p)
    counts, denom = _flower_me_counts(n, _flower_k(family, n, k), m_links)
    terms = [(count, path_fidelity_term(c, p)) for c, count in enumerate(counts) if count]
    if isinstance(p, Fraction):
        return sum(count * term for count, term in terms) / denom
    return fsum(count / denom * term for count, term in terms)


def me_grid(family: str, n: int, k: int | None, m_links_values, p_values):
    """:func:`me_value` at every (p, M) point of a grid of float p values,
    evaluated one distinct M at a time over all p at once.

    Returns ``{M: (values, worst, best)}``, three lists of Python floats over
    the p values. ``values`` holds me_value bit for bit: the same weights,
    added by ``math.fsum`` down each p column. ``worst`` and ``best`` are the
    least and the greatest pair fidelity over all placements, the path term
    (1 + p**c)/2 at the largest and the least c with a nonzero count. A bad
    p or M raises what the point-by-point loop (p outer, M inner, M checked
    before p) met first.
    """
    for i, p in enumerate(p_values):
        for m_links in m_links_values if i == 0 else m_links_values[:1]:
            _check_me(family, n, k, m_links)
            _coerce(p)
    weights = {}
    for m_links in dict.fromkeys(m_links_values if len(p_values) else ()):
        counts, denom = _flower_me_counts(n, _flower_k(family, n, k), m_links)
        used, w = zip(*((c, count / denom) for c, count in enumerate(counts) if count))
        weights[m_links] = np.array(used), np.array(w)
    depth = max((used[-1] for used, _ in weights.values()), default=-1)
    table = np.array([[path_fidelity_term(c, p) for p in p_values] for c in range(depth + 1)])
    grid = {}
    for m_links, (used, w) in weights.items():
        values = list(map(fsum, (table[used] * w[:, None]).T.tolist()))
        grid[m_links] = values, table[used[-1]].tolist(), table[used[0]].tolist()
    return grid


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
    "path_fidelity_term",
    "uniform_value",
    "me_value",
    "me_grid",
    "star_me_limit",
]
