import itertools
import math
import os
import random
from fractions import Fraction
from math import fsum
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import random_connected_network, random_tree_edges
from qnetfid import (
    DecoherenceParams,
    EstimateResult,
    GraphError,
    Network,
    TopologySpec,
    TopologySpecError,
    WeightError,
    advantage_region,
    average_max_fidelity,
    decoherence_sweep,
    decoherence_weight,
    default_sample_count,
    edge_skeleton,
    generate,
    large_N_limit_check,
    load_edge_list,
    me_value,
    run_scenario_A,
    run_scenario_B,
    run_scenario_C,
    save_edge_list,
    uniform_value,
)
from qnetfid import analytic, fidelity, scenarios
from qnetfid.fidelity import _levels, _pair_records
from qnetfid.scenarios import (
    ADVANTAGE_THRESHOLD,
    CHUNK,
    _chunk_rng,
    _kernel_values,
    _mc_chunk_stats,
    _link_permutations,
    _placement_orbits,
    _placement_values,
    _scenario_B,
    _simple_paths,
    _spec_symmetries,
    _tree_pair_sums,
    _tree_plan,
    pair_products_batch,
    placement_mode,
    resolve_threads,
)

DYADIC = (0.0, 0.25, 0.5, 1.0)
U = 2.0**-53  # unit roundoff of float64


def gamma(k: int) -> float:
    """Relative error bound on a sum or product of non-negative floats whose
    every term passes through at most k roundings, each a factor (1 ± U)."""
    return k * U / (1 - k * U)


def tree_pass_bound(n: int) -> float:
    """Relative bound on |tree pass - closure| for one sample's pair sum on an
    n-node tree, from operation counts alone (every operand is >= 0).

    Tree pass: a pair's product passes at most n multiplies (one ``w·down``
    per link of its path, then one ``down[p]·branch``), at most n - 1 adds
    into ``down`` (each link adds into it once) and at most n - 1 adds into
    the total: 3n - 2 roundings. Closure summed by ``fsum``: at most n - 2
    multiplies per path product (a link of weight exactly 1.0 multiplies
    exactly, so a detour over such links takes no more; a detour over a link
    w < 1 loses a factor w², which the roundings cannot make up unless w is
    within about n ulp of 1), then one rounding of the sum: n - 1. Both lie
    within their gamma of the exact sum S, so their difference is at most
    (gamma(3n - 2) + gamma(n - 1)) · S, and S <= closure / (1 - gamma(n - 1)).
    About (4n - 3) · 2^-53."""
    closure = gamma(n - 1)
    return (gamma(3 * n - 2) + closure) / (1 - closure)


def exact_tree_mean(distances: dict[int, int]) -> float:
    """Exact Scenario C mean of a tree with ``distances[d]`` pairs d links
    apart: a tree pair has one path, and E[product of d independent U[0, 1)
    weights] = 2^-d, so the pair's mean fidelity is 1/2 + 2^-d / 2."""
    total = sum(count * 0.5**d for d, count in distances.items())
    return 0.5 + 0.5 * total / sum(distances.values())


def closure_pair_sums(weights, edges, n) -> np.ndarray:
    """Each sample's pair sum off the public closure, each row summed exactly
    and rounded once."""
    return np.array([fsum(row) for row in pair_products_batch(weights, edges, n).tolist()])


def assert_tree_pass_matches_closure(weights, edges, n):
    plan = _tree_plan(tuple(edges), n)
    assert plan is not None
    closure = closure_pair_sums(weights, edges, n)
    got = _tree_pair_sums(weights, plan)
    assert np.all(np.abs(got - closure) <= tree_pass_bound(n) * closure)


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


ESTIMATE_FIELDS = ("mean", "std_error", "sample_min", "sample_max", "spread_std")


def fields_hex(est):
    return [getattr(est, name).hex() for name in ESTIMATE_FIELDS]


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
        assert est.mean == pytest.approx(float(me_value("star", 6, None, 2, 0.4)), abs=1e-12)
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

    def test_unset_samples_draw_1000_placements(self):
        spec = TopologySpec.ring(8)
        unset = run_scenario_B(spec, 0.5, 3, mode="sample", samples=None, seed=2)
        given = run_scenario_B(spec, 0.5, 3, mode="sample", samples=1000, seed=2)
        assert unset.sample_count == 1000
        assert fields_hex(unset) == fields_hex(given)

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
    """Reference: the product search's average and pair-fidelity envelope, as
    hex, on a network with weight 1.0 on the placement's links and p
    elsewhere. ``_pair_records`` without a table never counts non-ME links,
    so this reference does not share the kernel's rule."""
    chosen = set(placement)
    net = Network(n, tuple((u, v, 1.0 if e in chosen else p) for e, (u, v) in enumerate(edges)))
    records = [r for s in range(n - 1)
               for r in _pair_records(net, s, range(s + 1, n), False, None)]
    avg = fsum(r.degeneracy * r.fidelity for r in records) / sum(r.degeneracy for r in records)
    fids = [r.fidelity for r in records]
    return avg.hex(), min(fids).hex(), max(fids).hex()


def kernel_placements(n, edges, p, placements):
    paths = _simple_paths(n, tuple(edges))
    assert paths is not None
    t = np.array(_levels(p, int(paths[1].max()))[0])
    table = (1.0 + t) / 2.0, (t == 0.0) | (t == 1.0)
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

    def test_path_cap_bounds_path_length(self):
        # a simple path of l links holds l(l + 1)/2 simple paths over at
        # least l links, so the cap admits no path past 160 links (chain 161);
        # a product of p > 1/2 stays normal for 1022 factors and cannot stall
        for links, fits in ((160, True), (161, False)):
            assert (links * math.comb(links + 1, 2) <= 2**21) == fits
        paths = _simple_paths(161, tuple(edge_skeleton(TopologySpec.chain(161))))
        assert paths is not None and int(paths[1].max()) == 160
        assert _simple_paths(162, tuple(edge_skeleton(TopologySpec.chain(162)))) is None
        assert 0.5**160 >= 2.0**-1022

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

    @pytest.mark.parametrize("p", (0.0, 0.5, 0.9))
    def test_engine_values_build_no_records(self, p, monkeypatch):
        # K9 is past the path cap, so every placement runs the engine; the
        # pair extremes come from its averages, with no record built
        edges = edge_skeleton(TopologySpec.complete(9))
        assert _simple_paths(9, tuple(edges)) is None
        rng = _chunk_rng(9, 0)
        placements = [rng.choice(len(edges), size=m, replace=False).tolist()
                      for m in (0, 1, 4, 9, 20, 36)]
        expected = [engine_placement(9, edges, p, pl) for pl in placements]
        made, real = [], fidelity.PairFidelity
        monkeypatch.setattr(fidelity, "PairFidelity", lambda *a: made.append(a) or real(*a))
        values, (worst, best) = scenarios._engine_values(9, edges, p, placements)
        assert made == []
        assert [v.hex() for v in values] == [avg for avg, _, _ in expected]
        lows, highs = ([float.fromhex(e[i]) for e in expected] for i in (1, 2))
        assert (worst.hex(), best.hex()) == (min(lows).hex(), max(highs).hex())

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


def cycle_lengths(perm):
    lengths, left = [], set(range(len(perm)))
    while left:
        start = current = left.pop()
        length = 1
        while perm[current] != start:
            current = perm[current]
            left.discard(current)
            length += 1
        lengths.append(length)
    return lengths


def burnside_orbits(group, m):
    """Orbits of the m-subsets of range(L) under ``group``, every element of
    the group listed as a permutation of range(L), by Burnside's lemma: the
    mean over the group of the subsets each element fixes, which are unions
    of its cycles."""
    fixed = 0
    for perm in group:
        ways = [1] + [0] * m  # unions of cycles by size
        for length in cycle_lengths(perm):
            for size in range(m, length - 1, -1):
                ways[size] += ways[size - length]
        fixed += ways[m]
    assert fixed % len(group) == 0
    return fixed // len(group)


def induced_node_map(edges, link_perm):
    """The node permutation that maps link e onto link link_perm[e] for every
    e, or None when there is none."""
    n = 1 + max(max(e) for e in edges)
    candidates = [set(range(n)) for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        ends = set(edges[link_perm[e]])
        candidates[u] &= ends
        candidates[v] &= ends
    settled = True
    while settled:  # a node left with two candidates loses the settled ones
        settled = False
        taken = {next(iter(c)) for c in candidates if len(c) == 1}
        for c in candidates:
            if len(c) > 1 and c & taken:
                c -= taken
                settled = True
    if any(len(c) != 1 for c in candidates):
        return None
    node_map = [c.pop() for c in candidates]
    if sorted(node_map) != list(range(n)):
        return None
    images = [{node_map[u], node_map[v]} for u, v in edges]
    return node_map if images == [set(edges[f]) for f in link_perm] else None


def exhaustive_reference(n, edges, p, m_links):
    """Every EstimateResult field and the pair extremes of an exhaustive
    point, summed with fsum over every placement, as :func:`estimate_hex`
    gives them."""
    placements = itertools.combinations(range(len(edges)), m_links)
    values, (worst, best) = _placement_values(n, edges, p, placements)
    count, lo, hi = len(values), min(values), max(values)
    mean = fsum(values) / count
    deviation = fsum((v - mean) ** 2 for v in values)
    spread = math.sqrt(max(0.0, deviation / (count - 1))) if count > 1 else 0.0
    floats = (min(max(mean, lo), hi), 0.0, lo, hi, spread, worst, best)
    return count, [x.hex() for x in floats]


def orbit_specs(n_max, families=("ring", "complete", "chain", "star", "flower")):
    """Every spec of the families up to n_max nodes, every flower k."""
    specs = []
    for family in families:
        for n in range(3 if family == "ring" else 2, n_max + 1):
            if family == "flower":
                specs += [TopologySpec.flower(n, k) for k in range(n - 2)]
            else:
                specs.append(TopologySpec(family, n))
    return specs


def spec_id(spec):
    return f"{spec.family}{spec.n}" + (f"k{spec.k}" if spec.family == "flower" else "")


def family_link_perms(spec):
    """Generators of the ring's, K_n's or the star's symmetries, as link
    permutations in ``edge_skeleton`` order: the rotation and the reflection
    i -> 1 - i of the ring's nodes; on K_n's nodes and the star's leaves, the
    swap of the first two and the cycle through all."""
    n, edges = spec.n, edge_skeleton(spec)
    if spec.family == "ring":
        node_perms = [[(i + 1) % n for i in range(n)], [(1 - i) % n for i in range(n)]]
    else:
        moved = list(range(spec.family == "star", n))
        fixed = list(range(moved[0]))
        node_perms = [fixed + moved[1::-1] + moved[2:], fixed + moved[1:] + moved[:1]]
    index = {frozenset(e): i for i, e in enumerate(edges)}
    return [tuple(index[frozenset((perm[u], perm[v]))] for u, v in edges) for perm in node_perms]


def closure_orbits(link_count, link_perms, m):
    """Orbits of the m-link placements, walked in lexicographic order: each
    placement not yet seen is closed breadth-first under ``link_perms``, an
    image being seen by the lexicographic rank of its sorted links. Returns
    the first placement of every orbit and the orbit sizes."""
    total = math.comb(link_count, m)
    weights = [[math.comb(link_count - 1 - c, m - j) for c in range(link_count)] for j in range(m)]
    seen = bytearray(total)
    rows, sizes = [], []
    for rank, placement in enumerate(itertools.combinations(range(link_count), m)):
        if seen[rank]:
            continue
        seen[rank], orbit = 1, [placement]
        for member in orbit:  # grows while it is read: breadth first
            for perm in link_perms:
                image = sorted(map(perm.__getitem__, member))
                image_rank = total - 1 - sum(map(getitem, weights, image))
                if not seen[image_rank]:
                    seen[image_rank] = 1
                    orbit.append(image)
        rows.append(list(placement))
        sizes.append(len(orbit))
    return rows, sizes


class TestPlacementOrbits:
    """Exhaustive Scenario B on one placement per orbit of the family's
    symmetries, against counts and sums the tests derive themselves."""

    @pytest.mark.parametrize("spec", orbit_specs(12), ids=spec_id)
    def test_generators_are_graph_symmetries(self, spec):
        edges = edge_skeleton(spec)
        symmetries = _spec_symmetries(spec)
        for link_perm in symmetries:
            assert sorted(link_perm) == list(range(len(edges)))
            assert link_perm != tuple(range(len(edges)))
            assert induced_node_map(edges, link_perm) is not None, link_perm
        # the chain and the flower stream every placement, as custom graphs do
        trivial = spec.family in ("chain", "flower") or spec.n == 2
        assert (symmetries == ()) == trivial

    def test_custom_graphs_have_no_symmetries(self, tmp_path):
        spec, _, _ = placement_graph("custom", tmp_path)
        assert _spec_symmetries(spec) == ()

    def test_a_non_symmetry_fails_loudly(self):
        chain = edge_skeleton(TopologySpec.chain(4))
        with pytest.raises(GraphError, match="non-link"):
            _link_permutations(chain, [[1, 0, 2, 3]])  # link (1, 2) -> (0, 2)
        assert _link_permutations(chain, [[3, 2, 1, 0], [0, 1, 2, 3]]) == ((2, 1, 0),)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_ring_orbits_by_burnside(self, n):
        # the dihedral group in full: rotations j -> j + s, reflections j -> s - j
        group = [[(j + s) % n for j in range(n)] for s in range(n)]
        group += [[(s - j) % n for j in range(n)] for s in range(n)]
        symmetries = _spec_symmetries(TopologySpec.ring(n))
        for m in range(n + 1):
            representatives, sizes = _placement_orbits(n, symmetries, m)
            assert len(sizes) == burnside_orbits(group, m), m
            assert sum(sizes) == math.comb(n, m)
            assert representatives.shape == (len(sizes), m)

    def test_complete_orbits_are_graphs_by_edge_count(self):
        # graphs on 5 unlabelled nodes with M edges, and on 7 nodes with 3:
        # three disjoint links, the 4-node path, the 3-link star, the
        # triangle, and a 2-link path beside a link
        symmetries = _spec_symmetries(TopologySpec.complete(5))
        counts = [len(_placement_orbits(10, symmetries, m)[1]) for m in range(11)]
        assert counts == [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1]
        assert len(_placement_orbits(21, _spec_symmetries(TopologySpec.complete(7)), 3)[1]) == 5

    @pytest.mark.parametrize("n", range(3, 12))
    def test_star_orbits(self, n):
        # any M leaves of the star are any other M leaves relabelled
        links = n - 1
        symmetries = _spec_symmetries(TopologySpec.star(n))
        for m in range(links + 1):
            representatives, sizes = _placement_orbits(links, symmetries, m)
            assert sizes == (math.comb(links, m),), m
            assert representatives.tolist() == [list(range(m))]

    @pytest.mark.parametrize("spec", [
        *(TopologySpec.ring(n) for n in range(3, 15)),
        *(TopologySpec.complete(n) for n in range(3, 8)),
        *(TopologySpec.star(n) for n in range(3, 12)),
    ], ids=spec_id)
    def test_labels_equal_the_closure_walk(self, spec):
        links = len(edge_skeleton(spec))
        link_perms = family_link_perms(spec)
        for m in range(links + 1):
            representatives, sizes = _placement_orbits(links, _spec_symmetries(spec), m)
            assert representatives.dtype == np.intc
            assert representatives.flags.writeable is False
            rows, expected = closure_orbits(links, link_perms, m)
            assert (representatives.tolist(), list(sizes)) == (rows, expected), m

    @pytest.mark.parametrize("n", (101, 128))
    def test_long_cycles_converge(self, n):
        # the rotation has order n, so labels pass far along each orbit
        group = [[(j + s) % n for j in range(n)] for s in range(n)]
        group += [[(s - j) % n for j in range(n)] for s in range(n)]
        symmetries = _spec_symmetries(TopologySpec.ring(n))
        counts = []
        for m in (1, 2):
            representatives, sizes = _placement_orbits(n, symmetries, m)
            counts.append(burnside_orbits(group, m))
            assert len(sizes) == counts[-1] and sum(sizes) == math.comb(n, m)
            # each orbit's first member: link 0, and link d at d <= n/2 links' distance
            assert representatives.tolist() == [[0, d][:m] for d in range(1, len(sizes) + 1)]
        assert counts == [1, n // 2]

    @pytest.mark.parametrize("spec", [
        *(TopologySpec.ring(n) for n in range(3, 13)),
        *(TopologySpec.complete(n) for n in range(3, 8)),
        *orbit_specs(11, ("chain", "star", "flower")),
    ], ids=spec_id)
    @pytest.mark.parametrize("route", ("kernel", "engine"))
    def test_exhaustive_equals_fsum_over_every_placement(self, spec, route, monkeypatch):
        n, edges = spec.n, tuple(edge_skeleton(spec))
        symmetries = _spec_symmetries(spec)
        links = len(edges)
        # every M with at most 8192 placements on the kernel (all but K7's
        # middle ones) and 60 on the engine fallback past the path cap
        budget = 8192 if route == "kernel" else 60
        if route == "engine":
            monkeypatch.setattr(scenarios, "_simple_paths", lambda n, edges: None)
        for m in (m for m in range(links + 1) if math.comb(links, m) <= budget):
            for p in P_EXTREMES:
                args = (n, edges, p, m, "exhaustive", 1, 0)
                expected = exhaustive_reference(n, edges, p, m)
                assert estimate_hex(_scenario_B(*args, symmetries)) == expected, (m, p)

    def test_public_callers_walk_orbits(self):
        # run_scenario_B and advantage_region's exhaustive points read the
        # family's symmetries; their values are the every-placement sums
        spec = TopologySpec.ring(9)
        edges = tuple(edge_skeleton(spec))
        before = _placement_orbits.cache_info()
        est = run_scenario_B(spec, 0.5, 4)
        floats = (est.mean, est.std_error, est.sample_min, est.sample_max, est.spread_std)
        count, expected = exhaustive_reference(9, edges, 0.5, 4)
        assert (est.sample_count, [x.hex() for x in floats]) == (count, expected[:5])
        region = advantage_region(spec, (0.3, 0.9), (0.0, 0.5), mode="exhaustive")
        for row in region.rows:
            row = dict(zip(region.columns, row))
            _, floats = exhaustive_reference(9, edges, row["p"], row["m_links"])
            assert row["f"].hex() == floats[0]
            assert row["any_path_advantage"] == (float.fromhex(floats[6]) > ADVANTAGE_THRESHOLD)
            assert row["all_path_advantage"] == (float.fromhex(floats[5]) > ADVANTAGE_THRESHOLD)
        after = _placement_orbits.cache_info()
        assert after.hits + after.misses > before.hits + before.misses

    def test_trivial_group_streams_every_placement(self, tmp_path, monkeypatch):
        # custom graphs, the chain, the flower, and families whose generators
        # fix every link, never walk
        monkeypatch.setattr(scenarios, "_placement_orbits", None)  # a call would fail
        spec, n, edges = placement_graph("custom", tmp_path)
        est = run_scenario_B(spec, 0.5, 4, mode="exhaustive")
        assert est.sample_count == math.comb(len(edges), 4)
        streamed = (TopologySpec.chain(7), TopologySpec.flower(7, 2),
                    TopologySpec.star(2), TopologySpec.complete(2))
        for spec in streamed:
            links = len(edge_skeleton(spec))
            est = run_scenario_B(spec, 0.5, 1, mode="exhaustive")
            assert est.sample_count == links

    def test_sampled_points_never_walk(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_placement_orbits", None)
        est = run_scenario_B(TopologySpec.ring(12), 0.5, 3, mode="sample", samples=30, seed=4)
        assert est.mode == "sample" and est.sample_count == 30


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
        for spec in (TopologySpec.complete(5), TopologySpec.chain(40)):
            a = run_scenario_C(spec, 3 * CHUNK + 17, seed=5, threads=1)
            b = run_scenario_C(spec, 3 * CHUNK + 17, seed=5, threads=4)
            assert a == b

    def test_unset_count_is_the_default_of_the_node_count(self, tmp_path):
        assert run_scenario_C(TopologySpec.chain(7)).sample_count == 100_000
        # a custom file's spec carries no node count: the file's 12 nodes decide
        path = tmp_path / "chain12.txt"
        save_edge_list(generate(TopologySpec.chain(12), 0.5), path)
        spec = TopologySpec.custom(str(path))
        assert spec.n == 0
        assert run_scenario_C(spec).sample_count == 1_000

    def test_thread_count_means_what_the_cli_means(self, monkeypatch):
        # 0 is one thread per usable CPU, None reads QNETFID_THREADS, and a
        # negative count raises; none of them changes a bit of the result
        ordered_map, seen = scenarios._ordered_map, []

        def recording(fn, items, threads):
            seen.append(threads)
            return ordered_map(fn, items, threads)

        monkeypatch.setattr(scenarios, "_ordered_map", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setenv("QNETFID_THREADS", "2")
        spec, samples = TopologySpec.ring(5), 2 * CHUNK + 5
        results = [run_scenario_C(spec, samples, seed=4, threads=t) for t in (1, 0, None)]
        assert seen == [1, 3, 2]
        assert fields_hex(results[1]) == fields_hex(results[2]) == fields_hex(results[0])
        with pytest.raises(ValueError) as info:
            run_scenario_C(spec, 10, threads=-1)
        assert str(info.value) == "thread count must be >= 0"
        assert seen == [1, 3, 2]

    def test_tree_mean_matches_uniform_half(self):
        # linearity on trees: the random-weight mean equals the p = 1/2 value
        est = run_scenario_C(TopologySpec.chain(4), 200_000, seed=2)
        assert abs(est.mean - float(uniform_value("chain", 4, None, 0.5))) <= 4 * est.std_error

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
        for n in (100, 2000):
            # pairs per hop distance d
            distances = (
                {d: n - d for d in range(1, n)}
                if family == "chain"
                else {1: n - 1, 2: math.comb(n - 1, 2)}
            )
            assert sum(distances.values()) == math.comb(n, 2)
            est = run_scenario_C(getattr(TopologySpec, family)(n), CHUNK, seed=11)
            assert abs(est.mean - exact_tree_mean(distances)) <= 5 * est.std_error

    def test_random_tree_file_mean_is_exact_tree_mean(self, tmp_path):
        # a random tree under shuffled labels, read from an edge-list file;
        # its pair distances are counted by breadth-first search from each node
        n = 400
        edges = random_tree_edges(random.Random(12), n)
        path = tmp_path / "tree.txt"
        save_edge_list(Network(n, tuple((u, v, 0.5) for u, v in edges)), path)
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        distances = {}
        for source in range(n):
            depth = {source: 0}
            queue = [source]
            for u in queue:
                for v in adj[u]:
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        queue.append(v)
            for target, d in depth.items():
                if target > source:
                    distances[d] = distances.get(d, 0) + 1
        assert sum(distances.values()) == math.comb(n, 2)
        est = run_scenario_C(TopologySpec.custom(str(path)), CHUNK, seed=13)
        assert abs(est.mean - exact_tree_mean(distances)) <= 5 * est.std_error

    def test_spread_does_not_cancel_at_large_n(self):
        # every value lies near 1/2; the spread must come from deviations,
        # checked against a two-pass fsum over values the test derives itself
        n, samples, seed = 20_000, 200, 3
        est = run_scenario_C(TopologySpec.chain(n), samples, seed=seed)
        # chain links in sorted order: link j - 1 joins j - 1 and j, and r_j,
        # the sum of the path products of the pairs (i, j) with i < j, is
        # w_{j-1} · (1 + r_{j-1})
        weights = _chunk_rng(seed, 0).random((samples, n - 1))
        r, total = np.zeros(samples), np.zeros(samples)
        for j in range(1, n):
            r = weights[:, j - 1] * (1.0 + r)
            total += r
        values = [0.5 + 0.5 * (s / math.comb(n, 2)) for s in total.tolist()]
        mean = fsum(values) / samples
        spread = math.sqrt(fsum((v - mean) ** 2 for v in values) / (samples - 1))
        assert abs(est.spread_std - spread) <= 1e-9 * spread
        assert abs(est.mean - mean) <= 1e-12 * mean

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
        assert_tree_pass_matches_closure(weights, edges, 40)

    def test_loopy_chunks_run_the_public_kernel(self, monkeypatch):
        # per-layer tracing wraps the module attribute, so every loopy chunk
        # must call it by that name, and no tree chunk may
        samples = 2 * CHUNK + 1
        cases = [(TopologySpec.ring(6), 3), (TopologySpec.chain(6), 0)]
        unpatched = [run_scenario_C(spec, samples, seed=3) for spec, _ in cases]
        kernel, calls = scenarios.pair_products_batch, []

        def counting(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(scenarios, "pair_products_batch", counting)
        for (spec, expected_calls), want in zip(cases, unpatched):
            calls.clear()
            got = run_scenario_C(spec, samples, seed=3)
            assert len(calls) == expected_calls
            assert fields_hex(got) == fields_hex(want)


class TestBatchKernel:
    """Scenario C's tree pass against the public Floyd-Warshall closure."""

    @staticmethod
    def _weights(rnd, rows, links, levels=None, one_prob=0.0):
        # U[0, 1) on numpy's 53-bit grid, as Scenario C draws; Hypothesis's own
        # floats would add subnormals and values an ulp below 1, where the
        # closure's detours can round above the path (see tree_pass_bound)
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
        weights = self._weights(rnd, 64, n - 1, levels)
        assert pair_products_batch(weights, edges, n).flags.c_contiguous
        assert_tree_pass_matches_closure(weights, edges, n)

    @settings(max_examples=80, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), n=st.integers(3, 16))
    def test_exact_ones_stay_within_rounding(self, rnd, n):
        edges = random_tree_edges(rnd, n)
        weights = self._weights(rnd, 64, n - 1, one_prob=0.3)
        assert_tree_pass_matches_closure(weights, edges, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 16, 17, 40])
    def test_chunk_stats_match_public_kernel_mean(self, n):
        # a chunk's (sum v, sum d, sum d², min, max), v = 1/2 + pair mean / 2
        # and d = v - 1/2, against the same statistics of the closure's values
        specs = [TopologySpec.chain(n), TopologySpec.star(n)]
        if n >= 3:
            specs.append(TopologySpec.flower(n, (n - 3) // 2))
        trees = [sorted(edge_skeleton(spec)) for spec in specs]
        rnd = random.Random(n)
        trees += [random_tree_edges(rnd, n) for _ in range(2)]
        pairs = math.comb(n, 2)
        for edges in trees:
            plan = _tree_plan(tuple(edges), n)
            assert plan is not None
            for seed, index, size in [(0, 0, 1), (1, 0, 5), (7, 0, CHUNK), (7, 3, 17)]:
                got = _mc_chunk_stats(seed, index, size, edges, n, plan)
                weights = _chunk_rng(seed, index).random((size, n - 1))
                sums = closure_pair_sums(weights, edges, n)
                values = [0.5 + 0.5 * (s / pairs) for s in sums.tolist()]
                spread = [v - 0.5 for v in values]
                expected = (
                    fsum(values), fsum(spread), fsum(d * d for d in spread),
                    min(values), max(values),
                )
                # per value: the pair mean within the pass bound plus its
                # division on each side, halved, plus v's rounding on each
                # side (v <= 1, so the mean's error is absolute too)
                value_tol = 0.5 * (tree_pass_bound(n) + 3 * U) + U
                # per sum of `size` terms in [0, 1]: the values' difference,
                # a square's rounding, and numpy's sum against fsum
                sum_tol = size * (value_tol + U + gamma(size))
                tols = (sum_tol, sum_tol, sum_tol, value_tol, value_tol)
                for g, e, tol in zip(got, expected, tols):
                    assert abs(g - e) <= tol

    def test_disconnected_graph_with_n_minus_1_links_uses_closure(self):
        edges = [(0, 1), (1, 2), (0, 2)]  # a triangle and an isolated node 3
        assert _tree_plan(tuple(edges), 4) is None
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

    def test_nan_params_rejected(self):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            DecoherenceParams(float("nan"), 1.0, 10.0)
        with pytest.raises(ValueError, match="distance must be >= 0"):
            DecoherenceParams(0.46, 1.0, float("nan"))

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

    def test_ring7_beats_star7_at_30_km(self):
        # exact values at the sweep's own p: ring 7 averages its three hop
        # classes (7 pairs each), star 7 has 6 hub pairs and 15 leaf pairs
        rows = decoherence_sweep(families=("ring", "star"), n=7, d_values=(30.0,)).rows
        (_, _, _, _, _, p_ring, ring), (_, _, _, _, _, p_star, star) = rows
        assert p_ring == p_star == pytest.approx(10**-1.38, abs=1e-12)
        p = Fraction(p_ring)
        f = [(1 + p**l) / 2 for l in range(4)]
        exact_ring = (f[1] + f[2] + f[3]) / 3
        exact_star = (6 * f[1] + 15 * f[2]) / 21
        assert exact_ring > exact_star
        assert ring > star
        assert abs(Fraction(ring) - exact_ring) <= Fraction(2.0**-52)
        assert abs(Fraction(star) - exact_star) <= Fraction(2.0**-52)

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

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_series_fall_with_complete_on_top_and_chain_at_bottom(self, n):
        # Each average lies within (n + 5)/2 * 2**-53 of its exact value: a
        # path product rounds up to n - 2 times, and the pair term, the
        # degeneracy multiply, the fsum and the division once each. Two
        # topologies whose exact values are within that of each other (far
        # out, both are 1/2 plus far less than an ulp) may therefore come out
        # in either order, by at most twice that bound.
        slack = (n + 5) * 2.0**-53
        families = ("chain", "flower:2", "star", "ring", "complete")
        d_values = tuple(float(d) for d in range(30, 401, 10))
        result = decoherence_sweep(families=families, n=n, d_values=d_values)
        series = {family: [] for family in families}
        for row in result.rows:
            series[row[0]].append(row[-1])
        assert all(len(f) == len(d_values) for f in series.values())
        for family, f in series.items():
            assert all(b <= a for a, b in zip(f, f[1:])), family
            assert all(top >= x - slack for top, x in zip(series["complete"], f)), family
            assert all(x >= low - slack for x, low in zip(f, series["chain"])), family

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
        assert row["f"] == pytest.approx(float(uniform_value("star", 100, None, 0.9)), abs=1e-12)
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

    @pytest.mark.parametrize("spec", [TopologySpec.chain(10), TopologySpec.ring(6)],
                             ids=["chain-10", "ring-6"])
    @pytest.mark.parametrize("m", [1.04, float("nan"), -0.01])
    def test_m_outside_unit_interval_names_m(self, spec, m):
        # 1.04 and -0.01 round to M = L and M = 0 on both graphs
        with pytest.raises(ValueError) as info:
            advantage_region(spec, p_values=[0.5], m_values=[m])
        assert str(info.value) == f"m must lie in [0, 1], got {m}"

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

    def test_unset_samples_draw_200_placements(self):
        grid = np.linspace(0.0, 1.0, 3)
        kwargs = dict(p_values=grid, m_values=grid, mode="sample", seed=1)
        unset = advantage_region(TopologySpec.ring(8), samples=None, **kwargs)
        assert unset.rows == advantage_region(TopologySpec.ring(8), samples=200, **kwargs).rows

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

    @pytest.mark.parametrize("m", [1.04, float("nan"), float("inf"), -0.01])
    def test_m_outside_unit_interval_names_m(self, m):
        with pytest.raises(ValueError) as info:
            large_N_limit_check("chain", 0.5, m, [10, 50])
        assert str(info.value) == f"m must lie in [0, 1], got {m}"

    def test_chain_without_noise_is_half_at_every_size(self):
        result = large_N_limit_check("chain", 0.0, 0.0, [10, 20])
        assert result.column("f") == [0.5, 0.5]
        assert result.column("f_minus_half") == [0.0, 0.0]

    def test_rows_keep_the_given_order(self):
        result = large_N_limit_check("chain", 0.5, 0.6, [50, 10])
        assert result.column("n") == [50, 10]
        f50, f10 = result.column("f")
        assert f10 > f50 > 0.5

    def test_no_sizes_give_no_rows(self):
        result = large_N_limit_check("star", 0.5, 0.6, [])
        assert result.rows == [] and result.metadata == {}


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
        # 0 counts the CPUs this process may run on, not the machine's
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert resolve_threads(0) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_threads(0) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_threads(0) == 1
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
