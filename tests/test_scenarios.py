import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import random_connected_network, random_tree_edges
from qnetfid import (
    DecoherenceParams,
    EstimateResult,
    Network,
    TopologySpec,
    TopologySpecError,
    WeightError,
    advantage_region,
    average_max_fidelity,
    chain_uniform,
    decoherence_sweep,
    decoherence_weight,
    default_sample_count,
    edge_skeleton,
    generate,
    large_N_limit_check,
    load_edge_list,
    run_scenario_A,
    run_scenario_B,
    run_scenario_C,
    save_edge_list,
    star_uniform,
    star_with_me,
)
from qnetfid import analytic, scenarios
from qnetfid.scenarios import (
    ADVANTAGE_THRESHOLD,
    CHUNK,
    _chunk_rng,
    _closure_products,
    _fidelity_table,
    _kernel_values,
    _placement_values,
    _scenario_B,
    _simple_paths,
    _tree_schedule,
    pair_products_batch,
    placement_mode,
    resolve_threads,
)

DYADIC = (0.0, 0.25, 0.5, 1.0)


class TestScenarioA:
    def test_star4(self):
        nf = run_scenario_A(TopologySpec.star(4), 0.5)
        assert nf.avg_max_fidelity == 0.6875
        assert nf.analytic_value == 0.6875
        assert nf.analytic_abs_diff == 0.0

    def test_chain_all_me(self):
        assert run_scenario_A(TopologySpec.chain(9), 1.0).avg_max_fidelity == 1.0

    def test_flower_matches_analytic(self):
        nf = run_scenario_A(TopologySpec.flower(10, 3), 0.5)
        assert nf.analytic_abs_diff <= 1e-12

    def test_eff_length_attached(self):
        nf = run_scenario_A(TopologySpec.chain(4), 0.5, with_eff_length=True)
        assert nf.effective_path_length == 10 / 6

    @pytest.mark.parametrize("p", [1.5, -0.25])
    def test_weight_out_of_range_is_a_weight_error(self, p, tmp_path):
        path = tmp_path / "ring5.txt"
        save_edge_list(generate(TopologySpec.ring(5), 0.5), path)
        for spec in (TopologySpec.custom(str(path)), TopologySpec.ring(5)):
            with pytest.raises(WeightError, match="weight out of range"):
                run_scenario_A(spec, p)

    def test_custom_file_matches_family(self, tmp_path):
        path = tmp_path / "flower.txt"
        save_edge_list(generate(TopologySpec.flower(8, 2), 0.0), path)
        custom = run_scenario_A(TopologySpec.custom(str(path)), 0.5)
        family = run_scenario_A(TopologySpec.flower(8, 2), 0.5)
        assert custom.avg_max_fidelity == family.avg_max_fidelity
        assert custom.analytic_value is None


class TestScenarioB:
    def test_chain4_single_me_link(self):
        est = run_scenario_B(TopologySpec.chain(4), 0.5, 1)
        assert est.sample_count == 3
        assert est.mean == pytest.approx(0.7569444444444444, abs=1e-12)
        assert est.sample_min == pytest.approx(0.75, abs=1e-15)
        assert est.sample_max == pytest.approx(0.7708333333333334, abs=1e-12)
        assert est.std_error == 0.0
        assert est.spread_std > 0

    def test_star_placements_are_identical(self):
        est = run_scenario_B(TopologySpec.star(6), 0.4, 2)
        assert est.sample_min == est.sample_max == est.mean
        assert est.mean == pytest.approx(float(star_with_me(6, 2, 0.4)), abs=1e-12)
        assert est.spread_std == 0.0

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="exceed"):
            run_scenario_B(TopologySpec.complete(10), 0.5, 20, mode="exhaustive")

    def test_auto_samples_past_the_cap(self):
        assert math.comb(30, 15) > 10**6  # placements of 15 ME links on ring(30)
        spec = TopologySpec.ring(30)
        for seed in (0, 4):
            auto = run_scenario_B(spec, 0.5, 15, samples=50, seed=seed)
            assert auto == run_scenario_B(spec, 0.5, 15, mode="sample", samples=50, seed=seed)
            assert auto.sample_count == 50

    def test_auto_is_exhaustive_under_the_cap(self):
        spec = TopologySpec.ring(6)
        for m_links in range(7):  # at most C(6, 3) = 20 placements
            auto = run_scenario_B(spec, 0.5, m_links)
            assert auto == run_scenario_B(spec, 0.5, m_links, mode="exhaustive")
            assert auto.sample_count == math.comb(6, m_links)

    def test_placement_mode_rule(self):
        # C(24, 8) placements fit the 10^6 cap, C(25, 8) do not
        assert math.comb(24, 8) <= 10**6 < math.comb(25, 8)
        assert placement_mode("auto", 24, 8) == "exhaustive"
        assert placement_mode("exhaustive", 24, 8) == "exhaustive"
        assert placement_mode("auto", 25, 8) == "sample"
        assert placement_mode("sample", 6, 3) == "sample"
        with pytest.raises(ValueError, match="exceed the exhaustive cap"):
            placement_mode("exhaustive", 25, 8)
        with pytest.raises(ValueError, match="unknown placement mode 'random'"):
            placement_mode("random", 6, 3)

    @pytest.mark.parametrize("token,m_links,mode", [
        ("ring:6", 3, "auto"),  # C(6, 3) = 20 placements, under the cap
        ("ring:30", 15, "auto"),  # C(30, 15) = 155,117,520, past it
        ("chain:7", 3, "exhaustive"),
        ("ring:6", 3, "sample"),
    ])
    def test_mode_reports_what_ran(self, token, m_links, mode, tmp_path):
        spec, _, links = placement_graph(token, tmp_path)
        count = math.comb(len(links), m_links)
        expected = "exhaustive" if mode != "sample" and count <= 10**6 else "sample"
        est = run_scenario_B(spec, 0.5, m_links, mode=mode, samples=20)
        assert est.mode == expected == placement_mode(mode, len(links), m_links)
        assert est.sample_count == (count if expected == "exhaustive" else 20)
        assert (est.std_error == 0.0) == (expected == "exhaustive")

    @pytest.mark.parametrize("spec", [
        TopologySpec.chain(7), TopologySpec.star(8), TopologySpec.flower(9, 2),
        TopologySpec.flower(6, 3),
    ])
    def test_tree_families_carry_the_closed_form(self, spec):
        links = spec.n - 1
        for m_links, p in itertools.product(range(links + 1), (0.0, 0.3, 0.5, 1.0 - 2.0**-52)):
            est = run_scenario_B(spec, p, m_links)
            expected = float(analytic.me_value(spec.family, spec.n, spec.k, m_links, p))
            assert est.analytic_value.hex() == expected.hex()
        sampled = run_scenario_B(spec, 0.5, 2, mode="sample", samples=5)
        assert sampled.analytic_value == float(
            analytic.me_value(spec.family, spec.n, spec.k, 2, 0.5)
        )

    @pytest.mark.parametrize("token", ["ring:6", "complete:5", "custom"])
    def test_other_graphs_carry_no_closed_form(self, token, tmp_path):
        spec, _, _ = placement_graph(token, tmp_path)
        assert run_scenario_B(spec, 0.5, 2).analytic_value is None
        assert run_scenario_B(spec, 0.5, 2, mode="sample", samples=5).analytic_value is None

    def test_sampled_mode_is_deterministic(self):
        a = run_scenario_B(TopologySpec.ring(6), 0.5, 3, mode="sample", samples=50, seed=9)
        b = run_scenario_B(TopologySpec.ring(6), 0.5, 3, mode="sample", samples=50, seed=9)
        assert a == b
        c = run_scenario_B(TopologySpec.ring(6), 0.5, 3, mode="sample", samples=50, seed=10)
        assert c != a

    def test_sampled_mean_near_exhaustive(self):
        exact = run_scenario_B(TopologySpec.chain(7), 0.5, 3)
        sampled = run_scenario_B(
            TopologySpec.chain(7), 0.5, 3, mode="sample", samples=400, seed=1
        )
        assert abs(sampled.mean - exact.mean) <= 4 * max(sampled.std_error, 1e-12)

    def test_scenario_a_is_m_zero(self):
        est = run_scenario_B(TopologySpec.ring(5), 0.7, 0)
        nf = run_scenario_A(TopologySpec.ring(5), 0.7)
        assert est.mean == nf.avg_max_fidelity


# p = 0 and 1, a generic p, the largest p below 1, a p whose fourth power
# underflows to 0, and the smallest subnormal
P_EXTREMES = (0.0, 1.0, 0.5, 1.0 - 2.0**-52, 2.0**-300, 2.0**-1074)
# a 5-cycle with a chord and a triangle hung on it, links listed out of order
CUSTOM_GRAPH = "6\n0 1 0.5\n1 2 0.5\n2 3 0.5\n3 4 0.5\n4 0 0.5\n4 1 0.5\n5 2 0.5\n3 5 0.5\n"


def placement_graph(token, tmp_path):
    """(spec, n, links in placement order) for a family token or 'custom'."""
    if token == "custom":
        path = tmp_path / "custom.txt"
        path.write_text(CUSTOM_GRAPH)
        net = load_edge_list(path)
        return TopologySpec.custom(str(path)), net.node_count, [(u, v) for u, v, _ in net.edges]
    name, _, n = token.partition(":")
    spec = TopologySpec.flower(int(n), 2) if name == "flower" else TopologySpec(name, int(n))
    return spec, spec.n, edge_skeleton(spec)


def engine_placement(n, edges, p, placement):
    """Reference: the engine's average and pair-fidelity envelope, as hex,
    on a network with weight 1.0 on the placement's links and p elsewhere."""
    chosen = set(placement)
    net = Network(n, tuple((u, v, 1.0 if e in chosen else p) for e, (u, v) in enumerate(edges)))
    nf = average_max_fidelity(net)
    fids = [r.fidelity for r in nf.pair_records]
    return nf.avg_max_fidelity.hex(), min(fids).hex(), max(fids).hex()


def kernel_placements(n, edges, p, placements):
    paths = _simple_paths(n, tuple(edges))
    assert paths is not None
    table = _fidelity_table(p, int(paths[1].max()))
    assert table is not None
    values, lo, hi = _kernel_values(paths, table, np.array(placements, dtype=np.intp))
    return [(v.hex(), float(a).hex(), float(b).hex()) for v, a, b in zip(values, lo, hi)]


def estimate_hex(result):
    est, (worst, best) = result
    floats = (est.mean, est.std_error, est.sample_min, est.sample_max, est.spread_std, worst, best)
    return est.sample_count, [x.hex() for x in floats]


def ring_arc_oracle(n, p, m_links):
    """Exhaustive Scenario B on a ring from arc counts alone: mean, worst and
    best pair fidelity over every placement.

    Link e joins e and e + 1 (mod n). With S the prefix sums of the non-ME
    mask, pair i < j has one arc with S[j] - S[i] non-ME links and the other
    with the rest; its best arc has c = the smaller count and product p^c
    (c factors, multiplied one by one). Equal arcs tie, so the pair weighs 2,
    unless the product is exactly 0 or 1, which counts once.
    """
    t = [1.0]
    for _ in range(n):
        t.append(t[-1] * p)
    i, j = np.triu_indices(n, k=1)
    values, worst, best = [], 1.0, 0.0
    for placement in itertools.combinations(range(n), m_links):
        non_me = np.ones(n, dtype=int)
        non_me[list(placement)] = 0
        prefix = np.concatenate(([0], np.cumsum(non_me)))
        arc = (prefix[j] - prefix[i]).tolist()
        other = [prefix[n] - a for a in arc]
        fids = [(1.0 + t[min(a, b)]) / 2.0 for a, b in zip(arc, other)]
        weights = [2 if a == b and 0.0 < t[a] < 1.0 else 1 for a, b in zip(arc, other)]
        values.append(fsum(w * f for w, f in zip(weights, fids)) / sum(weights))
        worst, best = min(worst, *fids), max(best, *fids)
    mean = min(max(fsum(values) / len(values), min(values)), max(values))
    return mean, worst, best


class TestPlacementKernel:
    """The simple-path count kernel of Scenario B against the engine."""

    @pytest.mark.parametrize("token,m_values", [
        ("ring:5", None), ("ring:6", None), ("ring:7", None), ("ring:8", None),
        ("complete:5", None), ("chain:7", None), ("star:7", None), ("flower:7", None),
        ("custom", None),
        # 2^15 placements in all: the smallest and largest M here, the middle
        # ones in test_scenario_B_matches_engine_fallback
        ("complete:6", (0, 1, 2, 3, 12, 13, 14, 15)),
    ])
    def test_every_placement_matches_engine(self, token, m_values, tmp_path):
        _, n, edges = placement_graph(token, tmp_path)
        links = len(edges)
        for m_links in m_values or range(links + 1):
            placements = list(itertools.combinations(range(links), m_links))
            for p in P_EXTREMES:
                expected = [engine_placement(n, edges, p, pl) for pl in placements]
                assert kernel_placements(n, edges, p, placements) == expected, (m_links, p)

    @pytest.mark.parametrize("token,m_links,mode", [
        ("complete:6", 5, "sample"),
        ("complete:6", 8, "sample"),
        ("ring:8", 3, "exhaustive"),
        ("flower:7", 2, "sample"),
        ("custom", 4, "exhaustive"),
        ("custom", 4, "sample"),
    ])
    @pytest.mark.parametrize("p", (0.0, 0.5, 2.0**-1074))
    def test_scenario_B_matches_engine_fallback(
        self, token, m_links, mode, p, tmp_path, monkeypatch
    ):
        _, n, edges = placement_graph(token, tmp_path)
        args = (n, tuple(edges), p, m_links, mode, 60, 3)
        kernel = _scenario_B(*args)
        monkeypatch.setattr(scenarios, "_simple_paths", lambda n, edges: None)
        assert estimate_hex(kernel) == estimate_hex(_scenario_B(*args))

    def test_run_scenario_B_indexes_placement_order(self, tmp_path):
        # sample mode draws link indices, so the order matters: the skeleton
        # order for families (the ring's link 11 is (11, 0), sorted second),
        # the sorted order for custom files
        for token in ("ring:12", "custom"):
            spec, n, edges = placement_graph(token, tmp_path)
            est = run_scenario_B(spec, 0.5, 3, mode="sample", samples=40, seed=8)
            assert est == _scenario_B(n, tuple(edges), 0.5, 3, "sample", 40, 8)[0]

    @settings(max_examples=30, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        n=st.integers(2, 8),
        extra=st.sampled_from((0.0, 0.3, 0.8)),
        p=st.sampled_from(P_EXTREMES + (0.3,)),
    )
    def test_random_graphs_match_engine(self, rnd, n, extra, p):
        net = random_connected_network(rnd, n, extra_edge_prob=extra)
        edges = [(u, v) for u, v, _ in net.edges]
        m_links = rnd.randint(0, len(edges))
        placements = [tuple(sorted(rnd.sample(range(len(edges)), m_links))) for _ in range(6)]
        expected = [engine_placement(n, edges, p, pl) for pl in placements]
        assert kernel_placements(n, edges, p, placements) == expected

    def test_path_counts(self):
        # a pair of K_n is joined directly or through an ordered choice of k
        # of the other n - 2 nodes
        for n in (5, 7, 8):
            paths = _simple_paths(n, tuple(edge_skeleton(TopologySpec.complete(n))))
            per_pair = sum(math.perm(n - 2, k) for k in range(n - 1))
            assert paths[3].tolist() == [per_pair] * math.comb(n, 2)
        assert per_pair == 1957  # K8: 54,796 paths
        for family, per_pair in (("ring", 2), ("chain", 1), ("flower", 1)):
            spec = TopologySpec.flower(9, 3) if family == "flower" else TopologySpec(family, 9)
            incidence, lengths, starts, counts = _simple_paths(9, tuple(edge_skeleton(spec)))
            assert counts.tolist() == [per_pair] * 36
            assert starts.tolist() == list(range(0, 36 * per_pair, per_pair))
            assert incidence.sum(axis=0).tolist() == lengths.tolist()
        assert _simple_paths(9, tuple(edge_skeleton(TopologySpec.complete(9)))) is None
        # the cap is 2^21 link-by-path entries: n links times n(n - 1) paths
        for n, fits in ((128, True), (129, False)):
            assert (n * n * (n - 1) <= 2**21) == fits
            paths = _simple_paths(n, tuple(edge_skeleton(TopologySpec.ring(n))))
            assert (paths is not None) == fits

    def test_stalled_products_have_no_table(self):
        # 0.75^c falls into the subnormals after about 2460 factors; there a
        # product of a few units of 2^-1074, times 0.75, rounds back to itself
        t = [1.0]
        while t[-1] * 0.75 != t[-1]:
            t.append(t[-1] * 0.75)
        assert 0.0 < t[-1] < 2.0**-1022
        assert len(t) > 1023
        assert _fidelity_table(0.75, len(t) - 1) is not None
        assert _fidelity_table(0.75, len(t)) is None

    def test_graph_over_path_cap_runs_engine(self, monkeypatch):
        spec = TopologySpec.complete(10)
        edges = edge_skeleton(spec)
        assert _simple_paths(10, tuple(edges)) is None

        def no_kernel(*args):
            raise AssertionError("kernel called over the path cap")

        monkeypatch.setattr(scenarios, "_kernel_values", no_kernel)
        est = run_scenario_B(spec, 0.5, 3, mode="sample", samples=4, seed=5)
        # the same placements, drawn from the documented stream (Philox key =
        # seed, counter 0), on the engine
        rng = _chunk_rng(5, 0)
        values = [
            float.fromhex(engine_placement(
                10, edges, 0.5, rng.choice(len(edges), size=3, replace=False).tolist()
            )[0])
            for _ in range(4)
        ]
        assert est.sample_count == 4
        assert (est.sample_min, est.sample_max) == (min(values), max(values))

    def test_me_k7_inside_k8(self):
        # README: K8 at p = 1/2 whose nodes 0..6 form an ME K7. A pair inside
        # the K7 has product 1 and counts once. Every simple path from i < 7 to
        # node 7 enters 7 by exactly one non-ME link, so all of them tie: the
        # direct link, or an ordered route through k of the other six ME nodes.
        weight = sum(math.perm(6, k) for k in range(7))
        assert weight == 1957
        edges = tuple(edge_skeleton(TopologySpec.complete(8)))
        placement = tuple(e for e, (u, v) in enumerate(edges) if v < 7)
        assert len(placement) == 21
        exact = (21 + 7 * weight * Fraction(3, 4)) / (21 + 7 * weight)
        values, extremes = _placement_values(8, edges, 0.5, [placement])
        assert values == [float(exact)]
        assert f"{values[0]:.12g}" == "0.750382653061"
        assert extremes == (0.75, 1.0)

    def test_ring_rows_match_arc_oracle(self):
        n = 12
        result = advantage_region(
            TopologySpec.ring(n),
            p_values=(0.0, 0.3, 0.5, 0.9, 1.0),
            m_values=(0.0, 0.25, 0.5, 0.75, 1.0),
        )
        assert len(result.rows) == 25
        for values in result.rows:
            row = dict(zip(result.columns, values))
            mean, worst, best = ring_arc_oracle(n, row["p"], row["m_links"])
            assert row["method"] == "exhaustive"
            assert row["f"] == mean
            flags = (row["avg_advantage"], row["any_path_advantage"], row["all_path_advantage"])
            assert flags == (mean > 2 / 3, best > 2 / 3, worst > 2 / 3)


class TestScenarioC:
    def test_same_seed_bit_identical(self):
        a = run_scenario_C(TopologySpec.ring(4), 5000, seed=3)
        b = run_scenario_C(TopologySpec.ring(4), 5000, seed=3)
        assert a == b

    @pytest.mark.parametrize("spec", [TopologySpec.chain(5), TopologySpec.ring(5)])
    def test_reports_sample_mode_and_no_closed_form(self, spec):
        for count in (1, 100):
            est = run_scenario_C(spec, count, seed=2)
            assert est.mode == "sample"
            assert est.analytic_value is None

    def test_different_seeds_compatible(self):
        a = run_scenario_C(TopologySpec.ring(4), 50_000, seed=3)
        b = run_scenario_C(TopologySpec.ring(4), 50_000, seed=4)
        assert a.mean != b.mean
        assert abs(a.mean - b.mean) <= 6 * math.hypot(a.std_error, b.std_error)

    def test_thread_count_does_not_change_result(self):
        a = run_scenario_C(TopologySpec.complete(5), 3 * CHUNK + 17, seed=5, threads=1)
        b = run_scenario_C(TopologySpec.complete(5), 3 * CHUNK + 17, seed=5, threads=4)
        assert a == b

    def test_tree_mean_matches_uniform_half(self):
        # linearity on trees: the random-weight mean equals the p = 1/2 value
        est = run_scenario_C(TopologySpec.chain(4), 200_000, seed=2)
        assert abs(est.mean - float(chain_uniform(4, 0.5))) <= 4 * est.std_error

    def test_triangle_ballpark(self):
        est = run_scenario_C(TopologySpec.ring(3), 200_000, seed=2)
        assert abs(est.mean - 7 / 9) <= 5 * est.std_error
        assert est.mean > 0.75

    def test_loops_beat_uniform_half(self):
        for spec, uniform in [
            (TopologySpec.ring(4), 66 / 96),
            (TopologySpec.complete(4), 72 / 96),
        ]:
            est = run_scenario_C(spec, 100_000, seed=6)
            assert est.mean > uniform + 5 * est.std_error

    def test_estimate_invariants(self):
        est = run_scenario_C(TopologySpec.star(5), 10_000, seed=1)
        assert est.sample_min <= est.mean <= est.sample_max
        assert est.std_error >= 0
        assert est.sample_count == 10_000

    def test_batch_evaluator_matches_engine(self):
        rnd = random.Random(7)
        for tree in [False] * 12 + [True] * 12:
            n = rnd.randrange(2, 8)
            if tree:
                edges = random_tree_edges(rnd, n)
                net = Network(n, tuple((u, v, rnd.random()) for u, v in edges))
            else:
                net = random_connected_network(rnd, n, extra_edge_prob=0.5)
            edges = [(u, v) for u, v, _ in net.edges]
            weights = np.array([[w for _, _, w in net.edges]])
            products = pair_products_batch(weights, edges, n)[0]
            records = average_max_fidelity(net).pair_records
            assert products == pytest.approx([r.product for r in records], abs=1e-12)

    @pytest.mark.parametrize("family", ["chain", "star"])
    def test_large_tree_mean_is_exact_tree_mean(self, family):
        n = 100
        # pairs per hop distance d
        distances = (
            {d: n - d for d in range(1, n)}
            if family == "chain"
            else {1: n - 1, 2: math.comb(n - 1, 2)}
        )
        assert sum(distances.values()) == math.comb(n, 2)
        # a tree pair has one path, and E[product of d independent U[0, 1)
        # weights] = 2^-d, so the pair's mean fidelity is 1/2 + 2^-d / 2
        total = sum(count * 0.5**d for d, count in distances.items())
        exact = 0.5 + 0.5 * total / math.comb(n, 2)
        est = run_scenario_C(getattr(TopologySpec, family)(n), CHUNK, seed=11)
        assert abs(est.mean - exact) <= 5 * est.std_error

    def test_custom_ring_matches_generated_ring(self, tmp_path):
        # the ring's skeleton ends with (n-1, 0); the draws index the
        # canonical (min, max) order, so a file of the same ring agrees
        path = tmp_path / "ring6.txt"
        save_edge_list(generate(TopologySpec.ring(6), 0.5), path)
        custom = run_scenario_C(TopologySpec.custom(str(path)), 500, seed=5)
        assert custom == run_scenario_C(TopologySpec.ring(6), 500, seed=5)

    def test_chain40_first_chunk_matches_closure(self):
        spec = TopologySpec.chain(40)
        edges = [(u, v) for u, v, _ in generate(spec, 0.0).edges]
        weights = _chunk_rng(0, 0).random((CHUNK, len(edges)))
        products = pair_products_batch(weights, edges, 40)
        assert np.array_equal(products, _closure_products(weights, edges, 40))


class TestBatchKernel:
    """The tree kernel against the Floyd-Warshall closure it replaces."""

    @staticmethod
    def _weights(rnd, rows, links, levels=None, one_prob=0.0):
        # U[0, 1) on numpy's 53-bit grid, as Scenario C draws; Hypothesis's own
        # floats would add subnormals and values an ulp below 1, where the
        # closure's detours can round above the path (pair_products_batch)
        gen = np.random.default_rng(rnd.getrandbits(64))
        if levels:
            weights = gen.choice(levels, size=(rows, links))
        else:
            weights = gen.random((rows, links))
        weights[gen.random((rows, links)) < one_prob] = 1.0
        return weights

    @settings(max_examples=80, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        n=st.integers(2, 16),
        levels=st.sampled_from((None, DYADIC)),
    )
    def test_tree_kernel_matches_closure(self, rnd, n, levels):
        edges = random_tree_edges(rnd, n)
        assert _tree_schedule(tuple(edges), n) is not None
        weights = self._weights(rnd, 64, n - 1, levels)
        products = pair_products_batch(weights, edges, n)
        assert products.flags.c_contiguous
        assert np.array_equal(products, _closure_products(weights, edges, n))

    @settings(max_examples=80, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), n=st.integers(3, 16))
    def test_exact_ones_stay_within_rounding(self, rnd, n):
        edges = random_tree_edges(rnd, n)
        weights = self._weights(rnd, 64, n - 1, one_prob=0.3)
        tree = pair_products_batch(weights, edges, n)
        closure = _closure_products(weights, edges, n)
        assert np.all(tree <= closure)
        assert np.all(closure - tree <= 1e-15 * closure)

    def test_disconnected_graph_with_n_minus_1_links_uses_closure(self):
        edges = [(0, 1), (1, 2), (0, 2)]  # a triangle and an isolated node 3
        assert _tree_schedule(tuple(edges), 4) is None
        weights = np.array([[0.5, 0.25, 0.75]])
        products = pair_products_batch(weights, edges, 4)[0]
        # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
        assert products.tolist() == [0.5, 0.75, 0.0, 0.375, 0.0, 0.0]


class TestDecoherence:
    def test_weight_value(self):
        params = DecoherenceParams(alpha=0.46, p_det=1.0, d=30.0)
        assert decoherence_weight(params) == pytest.approx(10 ** -1.38, abs=1e-12)

    def test_lossless_limits(self):
        assert decoherence_weight(DecoherenceParams(0.0, 1.0, 500.0)) == 1.0
        assert decoherence_weight(DecoherenceParams(0.46, 1.0, 0.0)) == 1.0

    def test_strictly_decreasing(self):
        ws = [decoherence_weight(DecoherenceParams(0.46, 0.9, d)) for d in (10, 20, 40)]
        assert ws[0] > ws[1] > ws[2]
        wa = [decoherence_weight(DecoherenceParams(a, 0.9, 25)) for a in (0.1, 0.3, 0.7)]
        assert wa[0] > wa[1] > wa[2]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DecoherenceParams(-0.1, 1.0, 10.0)
        with pytest.raises(ValueError):
            DecoherenceParams(0.4, 1.2, 10.0)
        with pytest.raises(ValueError):
            DecoherenceParams(0.4, 1.0, -5.0)

    def test_sweep_shape_and_monotonicity(self):
        result = decoherence_sweep(d_values=(30.0, 60.0, 90.0))
        assert result.columns[:2] == ("family", "n")
        assert len(result.rows) == 12
        f_by_family = {}
        for row in result.rows:
            f_by_family.setdefault(row[0], []).append(row[-1])
        for series in f_by_family.values():
            assert series[0] > series[1] > series[2]
        # complete on top, chain at the bottom; star beats ring at n = 8
        for i in range(3):
            assert f_by_family["complete"][i] >= f_by_family["ring"][i]
            assert f_by_family["complete"][i] >= f_by_family["star"][i]
            assert f_by_family["star"][i] >= f_by_family["ring"][i]
            assert f_by_family["ring"][i] >= f_by_family["chain"][i]

    def test_far_distances_round_to_one_half(self):
        # from ~350 km on every value is exactly 1/2, so neighbours are equal
        d_values = tuple(float(d) for d in range(30, 401, 10))
        result = decoherence_sweep(d_values=d_values)
        f_by_family = {}
        for row in result.rows:
            f_by_family.setdefault(row[0], []).append(row[-1])
        for series in f_by_family.values():
            assert all(b <= a for a, b in zip(series, series[1:]))
            assert series[-1] == 0.5

    @pytest.mark.parametrize(
        "shift,fails", [(2.0**-53, False), (1e-13, True)], ids=["ulp", "1e-13"]
    )
    def test_order_check_allows_only_rounding(self, monkeypatch, shift, fails):
        # lower the complete graph's average: by one ulp it passes as rounding,
        # by 1e-13 it falls below the star's at every d and is reported
        exact = scenarios.run_scenario_A

        def shifted(spec, p):
            result = exact(spec, p)
            if spec.family != "complete":
                return result
            return replace(result, avg_max_fidelity=result.avg_max_fidelity - shift)

        monkeypatch.setattr(scenarios, "run_scenario_A", shifted)
        d_values = (300.0, 330.0, 360.0)
        if fails:
            with pytest.raises(RuntimeError, match="complete graph not on top"):
                decoherence_sweep(d_values=d_values)
        else:
            decoherence_sweep(d_values=d_values)

    def test_rows_keyed_by_family_token(self):
        result = decoherence_sweep(
            families=("chain", "flower:1", "flower:3"), d_values=(30.0, 60.0)
        )
        assert result.column("family") == [
            "chain", "chain", "flower:1", "flower:1", "flower:3", "flower:3"
        ]
        f = result.column("f")
        spec = TopologySpec.flower(8, 3)
        p = decoherence_weight(DecoherenceParams(0.46, 1.0, 30.0))
        assert f[4] == run_scenario_A(spec, p).avg_max_fidelity
        assert f[2] < f[4]  # more petals: shorter paths

    def test_bare_flower_needs_k(self):
        with pytest.raises(TopologySpecError, match="flower requires k"):
            decoherence_sweep(families=("flower",), d_values=(30.0,))
        rows = decoherence_sweep(families=("flower",), d_values=(30.0,), flower_k=2).rows
        assert rows[0][0] == "flower"


class TestAdvantageRegion:
    def test_star_100_example(self):
        result = advantage_region(
            TopologySpec.star(100), p_values=[0.9], m_values=[0.0]
        )
        row = dict(zip(result.columns, result.rows[0]))
        assert row["f"] == pytest.approx(float(star_uniform(100, 0.9)), abs=1e-12)
        assert row["avg_advantage"] is True
        assert row["method"] == "analytic"

    def test_chain_100_example(self):
        result = advantage_region(
            TopologySpec.chain(100), p_values=[0.5], m_values=[0.5]
        )
        row = dict(zip(result.columns, result.rows[0]))
        assert row["m_links"] == 50
        assert row["avg_advantage"] is False

    def test_p_one_column_all_true(self):
        result = advantage_region(
            TopologySpec.flower(20, 5), p_values=[1.0], m_values=[0.0, 0.3, 1.0]
        )
        for row in result.rows:
            assert row[-4] and row[-3] and row[-2]

    def test_out_of_range_m_links_names_the_range(self):
        # round(-0.5 * 6) = -3 ME links on a 6-link ring
        with pytest.raises(WeightError) as info:
            advantage_region(TopologySpec.ring(6), p_values=[0.5], m_values=[-0.5])
        assert str(info.value) == "m_links must lie in [0, 6], got -3"

    def test_flag_implications(self):
        result = advantage_region(
            TopologySpec.chain(12),
            p_values=np.linspace(0, 1, 9),
            m_values=np.linspace(0, 1, 9),
        )
        cols = result.columns
        for values in result.rows:
            row = dict(zip(cols, values))
            if row["all_path_advantage"]:
                assert row["avg_advantage"]
            if row["avg_advantage"]:
                assert row["any_path_advantage"]

    def test_tree_bounds_match_enumeration(self):
        # closed-form any/all bounds against explicit placement extremes
        spec = TopologySpec.flower(6, 1)
        analytic_rows = advantage_region(
            spec, p_values=[0.7], m_values=[0.0, 0.2, 0.4, 0.8, 1.0]
        ).rows
        numeric_rows = advantage_region(
            spec, p_values=[0.7], m_values=[0.0, 0.2, 0.4, 0.8, 1.0], mode="exhaustive"
        ).rows
        for a_row, n_row in zip(analytic_rows, numeric_rows):
            assert a_row[6] == pytest.approx(n_row[6], abs=1e-10)  # f
            assert a_row[7:10] == n_row[7:10]  # advantage flags

    def test_modes(self):
        spec = TopologySpec.star(5)
        kwargs = dict(p_values=[0.5], m_values=[0.5])
        assert advantage_region(spec, **kwargs).rows[0][-1] == "analytic"
        assert advantage_region(spec, mode="sample", **kwargs).rows[0][-1] == "sample"
        with pytest.raises(ValueError, match="unknown placement mode 'analytic'"):
            advantage_region(spec, mode="analytic", **kwargs)

    def test_ring_is_numeric(self):
        result = advantage_region(
            TopologySpec.ring(5), p_values=[0.5], m_values=[0.4]
        )
        assert result.rows[0][-1] == "exhaustive"

    def test_custom_ring_matches_generated_ring(self, tmp_path):
        path = tmp_path / "ring5.txt"
        save_edge_list(generate(TopologySpec.ring(5), 0.5), path)
        kwargs = dict(p_values=[0.5], m_values=[0.4], mode="exhaustive")
        custom = advantage_region(TopologySpec.custom(str(path)), **kwargs)
        ring = advantage_region(TopologySpec.ring(5), **kwargs)
        c_row = dict(zip(custom.columns, custom.rows[0]))
        r_row = dict(zip(ring.columns, ring.rows[0]))
        assert (c_row["family"], c_row["n"], c_row["m_links"]) == ("custom", 5, 2)
        assert c_row["f"] == pytest.approx(r_row["f"], abs=1e-12)
        for flag in ("avg_advantage", "any_path_advantage", "all_path_advantage"):
            assert c_row[flag] == r_row[flag]


def _pointwise_region(spec, ps, ms):
    """advantage_region rows built point by point from me_value and the
    extreme pair terms (1.0 + p**e) / 2.0, as the closed-form path once ran."""
    family, n, k = spec.family, spec.n, spec.k
    links = n - 1
    diameter = {"chain": links, "star": min(2, links), "flower": links - (k or 0)}[family]
    rows = []
    for p, m in itertools.product(ps, ms):
        m_links = round(m * links)
        f = float(analytic.me_value(family, n, k, m_links, p))
        worst_exp = diameter - max(0, m_links - (links - diameter))
        worst = (1.0 + p**worst_exp) / 2.0
        best = (1.0 + p ** max(0, 1 - m_links)) / 2.0
        third = ADVANTAGE_THRESHOLD
        rows.append((family, n, k, p, m, m_links, f, f > third, best > third, worst > third, "analytic"))
    return rows


def _first_error(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return None


FIG3DEF_GRID = np.linspace(0.0, 1.0, 101)


def _grid_specs():
    for n in (2, 3, 4, 7, 100):
        yield TopologySpec.chain(n)
        yield TopologySpec.star(n)
        for k in sorted({0, (n - 3) // 2, 48 if n == 100 else n - 3} if n >= 3 else ()):
            yield TopologySpec.flower(n, k)


class TestAdvantageGrid:
    """The tree closed forms over a p grid equal the point-by-point values."""

    @pytest.mark.parametrize(
        "spec", list(_grid_specs()), ids=lambda s: f"{s.family}{s.n}k{s.k}"
    )
    def test_rows_equal_pointwise(self, spec):
        rng = random.Random(spec.n * 1000 + (spec.k or 0))
        ps = [0.0, 1.0, 2.0**-1074, 1.0 - 2.0**-52, *FIG3DEF_GRID.tolist()]
        ps += rng.sample(ps, 7)  # repeats
        rng.shuffle(ps)
        ms = FIG3DEF_GRID.tolist() + [0.5, 0.0, 1.0, 0.37]
        rng.shuffle(ms)
        got = advantage_region(spec, p_values=ps, m_values=ms).rows
        want = _pointwise_region(spec, ps, ms)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert [type(v) for v in g] == [type(v) for v in w]
            assert g[:6] == w[:6] and g[7:] == w[7:]
            assert g[6].hex() == w[6].hex(), g[:6]

    @pytest.mark.parametrize("spec", [TopologySpec.chain(4), TopologySpec.star(7), TopologySpec.flower(7, 2)],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize(
        "ps,ms",
        [
            ([0.5, 1.5], [0.0, 0.5]),
            ([float("nan"), 0.5], [0.5]),
            ([0.5, -0.25], [1.0]),
            ([0.5, 0.25], [0.0, 1.5]),
            ([0.5], [-0.5, 0.5]),
            ([1.5, 0.5], [0.5, 1.5]),
            ([1.5], [1.5, 0.5]),
            ([0.5, 2.0], [0.5, 1.5]),
        ],
    )
    def test_errors_match_pointwise(self, spec, ps, ms):
        want = _first_error(lambda: _pointwise_region(spec, ps, ms))
        assert want is not None
        assert _first_error(lambda: advantage_region(spec, p_values=ps, m_values=ms)) == want

    def test_empty_axes_give_no_rows(self):
        spec = TopologySpec.chain(5)
        assert advantage_region(spec, p_values=[], m_values=[2.0]).rows == []
        assert advantage_region(spec, p_values=[1.5], m_values=[]).rows == []


class TestLargeN:
    def test_chain_shrinks_toward_half(self):
        result = large_N_limit_check("chain", 0.5, 0.6, [10, 50, 100, 500])
        values = result.column("f")
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0.5 for v in values)

    def test_star_threshold_flip(self):
        # the flip sits at p = 1/sqrt(3) ~ 0.57735: 0.57 is below, 0.58 above
        below = large_N_limit_check("star", 0.57, 0.0, [100, 10_000])
        above = large_N_limit_check("star", 0.58, 0.0, [100, 10_000])
        assert below.column("f")[-1] < 2 / 3
        assert above.column("f")[-1] > 2 / 3
        assert large_N_limit_check("star", 0.60, 0.0, [10_000]).column("f")[-1] > 2 / 3

    def test_chain_violation_raises(self):
        with pytest.raises(RuntimeError):
            large_N_limit_check("chain", 0.5, 0.6, [500, 50, 10])


class TestConfigAndHelpers:
    def test_default_sample_count(self):
        assert default_sample_count(4) == 100_000
        assert default_sample_count(10) == 100_000
        assert default_sample_count(11) == 1_000
        assert default_sample_count(100) == 1_000

    def test_resolve_threads(self, monkeypatch):
        monkeypatch.delenv("QNETFID_THREADS", raising=False)
        assert resolve_threads(None) == 1
        assert resolve_threads(3) == 3
        assert resolve_threads(0) >= 1
        monkeypatch.setenv("QNETFID_THREADS", "5")
        assert resolve_threads(None) == 5
        with pytest.raises(ValueError):
            resolve_threads(-2)
        monkeypatch.setenv("QNETFID_THREADS", "abc")
        assert resolve_threads(2) == 2  # an explicit count never reads the variable
        with pytest.raises(ValueError) as info:
            resolve_threads(None)
        assert str(info.value) == "QNETFID_THREADS must be an integer, got 'abc'"

    def test_estimate_result_invariants(self):
        with pytest.raises(ValueError):
            EstimateResult(0.5, -1.0, 10, 0.4, 0.6)
        with pytest.raises(ValueError):
            EstimateResult(0.7, 0.0, 10, 0.4, 0.6)
        with pytest.raises(ValueError):
            EstimateResult(0.5, 0.0, 0, 0.4, 0.6)
        with pytest.raises(ValueError, match="unknown estimate mode 'auto'"):
            EstimateResult(0.5, 0.0, 10, 0.4, 0.6, mode="auto")
