from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb, fsum, ulp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TRIANGLE_AVERAGE_THEN_MAX, TRIANGLE_MAX_THEN_AVERAGE
from qnetfid import (
    TopologySpec,
    TopologySpecError,
    average_max_fidelity,
    generate,
    me_value,
    path_fidelity_term,
    uniform_value,
)
from qnetfid.analytic import (
    _flower_me_counts,
    me_grid,
    star_me_limit,
)
from qnetfid.network import MEPlacement, edge_skeleton
from qnetfid.scenarios import run_scenario_B

HALF = Fraction(1, 2)
PS = (0.1, 0.5, 0.9)


def tree_paths(n, edges):
    """Link indices on the unique path of every pair i < j, found by BFS."""
    adjacency = {v: [] for v in range(n)}
    for index, (u, v) in enumerate(edges):
        adjacency[u].append((v, index))
        adjacency[v].append((u, index))
    paths = []
    for source in range(n):
        via = {source: frozenset()}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v, index in adjacency[u]:
                if v not in via:
                    via[v] = via[u] | {index}
                    queue.append(v)
        paths += [via[target] for target in range(source + 1, n)]
    return paths


class TestExactRationalMode:
    def test_table_values(self):
        assert uniform_value("chain", 4, None, HALF) == Fraction(65, 96)
        assert uniform_value("star", 4, None, HALF) == Fraction(66, 96)
        assert uniform_value("ring", 4, None, HALF) == Fraction(66, 96)
        assert uniform_value("complete", 4, None, HALF) == Fraction(72, 96)

    def test_double_mode_close(self):
        assert uniform_value("chain", 4, None, 0.5) == pytest.approx(65 / 96, abs=1e-12)
        assert uniform_value("star", 4, None, 0.5) == pytest.approx(66 / 96, abs=1e-12)

    def test_term(self):
        assert path_fidelity_term(0, HALF) == 1
        assert path_fidelity_term(3, HALF) == Fraction(9, 16)
        assert path_fidelity_term(2, 0.5) == 0.625

    def test_int_p_is_exact(self):
        assert uniform_value("star", 7, None, 1) == 1
        assert uniform_value("chain", 9, None, 0) == HALF


class TestUniformForms:
    def test_flower_example_form(self):
        # (5 F1 + 7 F2 + 3 F3) / 15 on six nodes with k = 2
        for p in (Fraction(1, 3), Fraction(7, 10)):
            expected = (
                5 * path_fidelity_term(1, p)
                + 7 * path_fidelity_term(2, p)
                + 3 * path_fidelity_term(3, p)
            ) / 15
            assert uniform_value("flower", 6, 2, p) == expected

    @pytest.mark.parametrize("n", range(3, 13))
    def test_flower_reductions(self, n):
        for p in PS:
            chain = uniform_value("chain", n, None, p)
            assert uniform_value("flower", n, 0, p).hex() == chain.hex()
            star = uniform_value("star", n, None, p)
            assert uniform_value("flower", n, n - 3, p) == pytest.approx(star, abs=1e-12)
        assert uniform_value("flower", n, 0, HALF) == uniform_value("chain", n, None, HALF)
        assert uniform_value("flower", n, n - 3, HALF) == uniform_value("star", n, None, HALF)

    def test_ring_small(self):
        assert uniform_value("ring", 3, None, HALF) == path_fidelity_term(1, HALF)
        assert uniform_value("ring", 4, None, HALF) == (
            path_fidelity_term(1, HALF) + path_fidelity_term(2, HALF)
        ) / 2

    def test_boundaries(self):
        for n in (2, 5, 9):
            assert uniform_value("star", n, None, 1.0) == 1.0
            assert uniform_value("chain", n, None, 1.0) == 1.0
            assert uniform_value("star", n, None, 0.0) == 0.5
            assert uniform_value("chain", n, None, 0.0) == 0.5
        assert uniform_value("ring", 6, None, 1.0) == 1.0
        assert uniform_value("complete", 4, None, 1.0) == 1.0

    def test_ordering_chain_to_star(self):
        for p in PS:
            values = [uniform_value("chain", 7, None, p)]
            values += [uniform_value("flower", 7, k, p) for k in (1, 2, 3)]
            values.append(uniform_value("star", 7, None, p))
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_derivative_is_mean_path_length(self):
        n, h = 9, 1e-6
        mean_path = sum((n - l) * l for l in range(1, n)) / comb(n, 2)
        drop = uniform_value("chain", n, None, 1.0) - uniform_value("chain", n, None, 1.0 - h)
        fd = 2 * drop / h
        assert fd == pytest.approx(mean_path, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            uniform_value("star", 4, None, 1.5)
        with pytest.raises(ValueError):
            uniform_value("chain", 1, None, 0.5)
        with pytest.raises(ValueError):
            uniform_value("ring", 2, None, 0.5)
        with pytest.raises(ValueError):
            uniform_value("flower", 6, 4, 0.5)


class TestMEForms:
    def test_star_example(self):
        assert me_value("star", 4, None, 1, HALF) == Fraction(37, 48)  # 4.625 / 6
        star = me_value("star", 4, None, 1, 0.5)
        assert star == pytest.approx(float(Fraction(37, 48)), abs=1e-15)

    def test_chain_example(self):
        assert me_value("chain", 4, None, 1, HALF) == Fraction(109, 144)  # 0.7569444...

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_me_reduces_to_uniform(self, n):
        for p in PS:
            for family in ("star", "chain"):
                uniform = uniform_value(family, n, None, p)
                assert me_value(family, n, None, 0, p) == pytest.approx(uniform, abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_me_is_exactly_one(self, n):
        assert me_value("star", n, None, n - 1, 0.5) == 1.0
        assert me_value("chain", n, None, n - 1, 0.5) == 1.0
        assert me_value("chain", n, None, n - 1, HALF) == 1

    @pytest.mark.parametrize("n,k", [(5, 1), (6, 2), (7, 3), (8, 1)])
    def test_flower_reduces(self, n, k):
        # the flower at M = 0 is its uniform closed form
        assert me_value("flower", n, k, 0, HALF) == uniform_value("flower", n, k, HALF)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_star_and_chain_exact(self, n):
        # references written out here, not read from the flower counts: the
        # star's three classes (both ends ME, one, none) and the chain's sum
        # over the n - l pairs l links apart
        links = n - 1
        for p in (Fraction(1, 3), Fraction(9, 10)):
            f = [path_fidelity_term(c, p) for c in range(max(n, 3))]
            for m in range(n):
                rest = links - m
                star = comb(m + 1, 2) * f[0] + (m + 1) * rest * f[1] + comb(rest, 2) * f[2]
                assert me_value("star", n, None, m, p) == star / comb(n, 2), (p, m)
                chain = sum(
                    (n - l) * comb(l, c) * comb(links - l, rest - c) * f[c]
                    for l in range(1, n)
                    for c in range(min(l, rest) + 1)
                )
                assert me_value("chain", n, None, m, p) == chain / comb(n, 2) / comb(links, m), (p, m)

    def test_flower_placement_oracle(self):
        # mean over the 10 explicit placements of 2 ME links on flower(6, 2)
        spec = TopologySpec.flower(6, 2)
        est = run_scenario_B(spec, 0.5, 2)
        assert (est.mode, est.sample_count) == ("exhaustive", 10)
        assert me_value("flower", 6, 2, 2, 0.5) == pytest.approx(est.mean, abs=1e-10)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_flower_matches_every_placement(self, n):
        # every pair has one path; c non-ME links on it give (1 + p**c) / 2
        p = Fraction(1, 3)
        links = n - 1
        for k in range(n - 2):
            paths = tree_paths(n, edge_skeleton(TopologySpec.flower(n, k)))
            for m in range(links + 1):
                terms = [
                    (1 + p ** len(path.difference(me))) / 2
                    for me in combinations(range(links), m)
                    for path in paths
                ]
                assert sum(terms) / len(terms) == me_value("flower", n, k, m, p), (k, m)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_grid_extremes_match_every_placement(self, n):
        # me_grid's worst and best pair against every placement of every tree
        p, links = 0.7, n - 1
        shapes = [("chain", None), ("star", None), *(("flower", k) for k in range(n - 2))]
        for family, k in shapes:
            paths = tree_paths(n, edge_skeleton(TopologySpec(family, n, k)))
            grid = me_grid(family, n, k, list(range(n)), [p])
            for m in range(n):
                terms = {
                    path_fidelity_term(len(path.difference(me)), p)
                    for me in combinations(range(links), m)
                    for path in paths
                }
                assert grid[m] == ([me_value(family, n, k, m, p)], [min(terms)], [max(terms)])

    def test_grid_takes_numpy_p_values(self):
        p_values = np.array([0.5, 0.6])
        grid = me_grid("chain", 5, None, [1], p_values)
        assert grid == me_grid("chain", 5, None, [1], p_values.tolist())
        assert grid[1][0] == [me_value("chain", 5, None, 1, p) for p in (0.5, 0.6)]

    def test_chain_placement_oracle(self):
        est = run_scenario_B(TopologySpec.chain(10), 0.5, 6)
        assert est.sample_count == comb(9, 6)
        assert me_value("chain", 10, None, 6, 0.5) == pytest.approx(est.mean, abs=1e-10)

    def test_m_range_errors(self):
        with pytest.raises(ValueError):
            me_value("star", 4, None, 4, 0.5)
        with pytest.raises(ValueError):
            me_value("chain", 4, None, -1, 0.5)
        with pytest.raises(ValueError):
            me_value("flower", 6, 2, 6, 0.5)


class TestArgumentChecks:
    # TopologySpec's rules hold for every closed form: a ring needs n >= 3
    # and every other family n >= 2, and only the flower takes a k, with
    # 0 <= k <= n - 3. Each bad n is a ValueError (TopologySpecError is one);
    # the checks run before p is read.
    SMALL_N = [("chain", 1, None), ("star", 1, None), ("flower", 1, 0),
               ("ring", 2, None), ("complete", 1, None)]
    STRAY_K = [("chain", 4, 0), ("star", 4, 1), ("ring", 5, 0), ("complete", 4, 2)]
    FLOWER_K = [None, -1, 5]  # missing, and either side of 0..n-3 at n = 7

    @pytest.mark.parametrize("family, n, k", SMALL_N)
    def test_uniform_small_n(self, family, n, k):
        for small in (n, 0, -1):
            with pytest.raises(ValueError, match=f"{family} requires n >= {n + 1}"):
                uniform_value(family, small, k, 0.5)

    @pytest.mark.parametrize("family, n, k", STRAY_K)
    def test_uniform_stray_k(self, family, n, k):
        with pytest.raises(TopologySpecError, match="k is only valid for the flower"):
            uniform_value(family, n, k, 0.5)
        uniform_value(family, n, None, 0.5)  # the same call without k is fine

    @pytest.mark.parametrize("k", FLOWER_K)
    def test_uniform_flower_k(self, k):
        with pytest.raises(TopologySpecError, match="flower"):
            uniform_value("flower", 7, k, 0.5)

    @pytest.mark.parametrize("family, n, k", SMALL_N[:3])
    def test_me_small_n(self, family, n, k):
        with pytest.raises(ValueError, match=f"{family} requires n >= 2"):
            me_value(family, n, k, 0, 0.5)

    @pytest.mark.parametrize("family, n, k", STRAY_K[:2])
    def test_me_stray_k(self, family, n, k):
        with pytest.raises(TopologySpecError, match="k is only valid for the flower"):
            me_value(family, n, k, 1, 0.5)

    @pytest.mark.parametrize("k", FLOWER_K)
    def test_me_flower_k(self, k):
        with pytest.raises(TopologySpecError, match="flower"):
            me_value("flower", 7, k, 1, 0.5)

    @pytest.mark.parametrize("family", ["ring", "complete", "custom", "grid"])
    def test_me_family(self, family):
        with pytest.raises(TopologySpecError, match="no ME-placement closed form"):
            me_value(family, 6, None, 1, 0.5)


def _weight_cases():
    # flower cases are named by n alone, the two ends by family and n
    for n in (*range(3, 41), 100):
        yield pytest.param("flower", n, id=str(n))
    for family in ("chain", "star"):
        for n in (*range(2, 41), 100):
            yield pytest.param(family, n, id=f"{family}-{n}")


class TestFlowerWeights:
    @pytest.mark.parametrize("family, n", _weight_cases())
    def test_float_weights_are_rounded_fractions(self, family, n):
        # me_value weights each path term by count / denom, which is
        # correctly rounded: the float of the exact weight. At n = 100
        # (fig3def's flower:48) the counts pass 2**53, where
        # float(count) / float(denom) would round twice. The counts are
        # the per-distance sums over each tree's own BFS distances.
        if family == "flower":
            specs = [TopologySpec.flower(n, k) for k in (range(n - 2) if n <= 40 else (48,))]
        else:
            specs = [TopologySpec(family, n)]
        for spec in specs:
            pairs_at = tree_distance_counts(n, edge_skeleton(spec))
            for m in range(n):
                denom = comb(n, 2) * comb(n - 1, m)
                counts = per_distance_me_counts(pairs_at, m)
                weights = [(l, float(Fraction(c, denom))) for l, c in enumerate(counts) if c]
                for p in (0.3, 0.9):
                    want = fsum(w * ((1 + p**l) / 2) for l, w in weights)
                    got = me_value(family, n, spec.k, m, p)
                    assert got.hex() == want.hex(), (spec.k, m, p)

    def test_chain_1000_within_one_ulp(self):
        # the pm-grid point p = 0.95, m = 0.79 on chain 1000: the exact
        # value is 0.58501561527549977..., so its 12th digit is a 5
        p = float(np.linspace(0, 1, 101)[95])
        got = me_value("chain", 1000, None, 789, p)
        exact = me_value("chain", 1000, None, 789, Fraction(p))
        assert abs(Fraction(got) - exact) <= Fraction(ulp(got))
        assert f"{got:.12g}" == "0.585015615275"


def tree_distance_counts(n, edges):
    """pairs[l]: the pairs of a tree l links apart, by breadth-first search
    from every node."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    pairs = [0] * n
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        for u in queue:
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for d in dist[source + 1:]:
            pairs[d] += 1
    return pairs


def per_distance_me_counts(pairs_at, m_links):
    """counts[c] = sum over l of pairs_at[l] * C(l, c) * C(L - l, r - c), the
    placements of the r = L - M non-ME links that put c of them on a path of
    l links and the other r - c off it. Both binomials walk in c by their
    ratios, so each step is exact integer arithmetic."""
    links = len(pairs_at) - 1
    rest = links - m_links
    counts = [0] * (links + 1)
    for l, pairs in enumerate(pairs_at):
        c = max(0, l - m_links)
        on, off = comb(l, c), comb(links - l, rest - c)
        while pairs and c <= min(l, rest):
            counts[c] += pairs * on * off
            on = on * (l - c) // (c + 1)
            off = off * (rest - c) // (m_links - l + c + 1)
            c += 1
    return counts


class TestFlowerCounts:
    # _flower_me_counts sums the stem in closed form; the reference here is
    # the per-distance double sum over the flower's own BFS distances
    def check(self, n, k, m, pairs_at):
        counts, denom = _flower_me_counts(n, k, m)
        assert list(counts) == per_distance_me_counts(pairs_at, m), (n, k, m)
        # every pair under every placement lands at exactly one c
        assert sum(counts) == denom == comb(n, 2) * comb(n - 1, m), (n, k, m)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_every_case_up_to_40_nodes(self, n):
        for k in range(n - 2):
            pairs_at = tree_distance_counts(n, edge_skeleton(TopologySpec.flower(n, k)))
            for m in range(n):
                self.check(n, k, m, pairs_at)

    def test_two_nodes(self):
        # flower(2, 0) is the one-link chain and star: no petal pairs
        pairs_at = tree_distance_counts(2, edge_skeleton(TopologySpec.chain(2)))
        for m in (0, 1):
            self.check(2, 0, m, pairs_at)

    @pytest.mark.parametrize("k", [0, 1, 300, 997])
    def test_sampled_m_at_1000_nodes(self, k):
        pairs_at = tree_distance_counts(1000, edge_skeleton(TopologySpec.flower(1000, k)))
        for m in (0, 1, 2, 299, 300, 301, 499, 997, 998, 999):
            self.check(1000, k, m, pairs_at)


class TestEngineAgreement:
    @pytest.mark.parametrize("family,n,k", [
        ("chain", 4, None), ("chain", 10, None),
        ("star", 4, None), ("star", 10, None),
        ("flower", 7, 2), ("flower", 10, 4),
        ("ring", 5, None), ("ring", 8, None), ("ring", 10, None),
        ("complete", 4, None), ("complete", 6, None),
    ])
    def test_uniform_vs_engine(self, family, n, k):
        for p in PS:
            spec = TopologySpec(family, n, k=k)
            engine = average_max_fidelity(generate(spec, p)).avg_max_fidelity
            assert float(uniform_value(family, n, k, p)) == pytest.approx(engine, abs=1e-10)

    def test_chain_long_matches_engine(self):
        engine = average_max_fidelity(generate(TopologySpec.chain(100), 0.5)).avg_max_fidelity
        assert uniform_value("chain", 100, None, 0.5) == pytest.approx(engine, abs=1e-12)


class TestTriangleConstants:
    def test_values(self):
        assert TRIANGLE_MAX_THEN_AVERAGE == Fraction(7, 9)
        assert TRIANGLE_AVERAGE_THEN_MAX == Fraction(3, 4)
        assert TRIANGLE_MAX_THEN_AVERAGE > TRIANGLE_AVERAGE_THEN_MAX


class TestFloatVsRational:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        m_frac=st.fractions(0, 1),
        p_numer=st.integers(0, 32),
    )
    def test_chain_me_consistency(self, n, m_frac, p_numer):
        m_links = round(m_frac * (n - 1))
        p = Fraction(p_numer, 32)
        exact = me_value("chain", n, None, m_links, p)
        assert Fraction(1, 2) <= exact <= 1
        double = me_value("chain", n, None, m_links, float(p))
        assert double == pytest.approx(float(exact), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 12), data=st.data())
    def test_flower_me_consistency(self, n, data):
        k = data.draw(st.integers(0, n - 3))
        m_links = data.draw(st.integers(0, n - 1))
        p = Fraction(data.draw(st.integers(0, 16)), 16)
        exact = me_value("flower", n, k, m_links, p)
        assert Fraction(1, 2) <= exact <= 1
        assert me_value("flower", n, k, m_links, float(p)) == pytest.approx(float(exact), abs=1e-12)


def test_star_limit_matches_large_star():
    for p in (0.5, 0.9):
        for m in (0.0, 0.5):
            n = 4001
            m_links = round(m * (n - 1))
            limit = float(star_me_limit(m, p))
            assert me_value("star", n, None, m_links, p) == pytest.approx(limit, abs=5.0 / n)


def test_star_placement_invariance_against_engine():
    # every explicit placement of a star equals the closed form exactly
    spec = TopologySpec.star(6)
    for m in range(6):
        expected = float(me_value("star", 6, None, m, 0.3))
        for start in range(0, 5 - m + 1):
            placement = MEPlacement(tuple(range(start, start + m)), 0.3)
            engine = average_max_fidelity(generate(spec, placement)).avg_max_fidelity
            assert engine == pytest.approx(expected, abs=1e-12)
