import itertools
import random
from math import comb

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgen import plain_pair_mean, random_connected_network
from oracles import brute_force_pair_fidelity, effective_path_length_fd, first_order_estimate
from qnetfid import (
    GraphError,
    Network,
    TopologySpec,
    average_max_fidelity,
    effective_path_length,
    generate,
    pair_max_fidelity,
    run_scenario_A,
)
from qnetfid.fidelity import _NON_ME, _products, _search, _tie_counts


def triangle(p01, p02, p12):
    return Network(3, ((0, 1, p01), (0, 2, p02), (1, 2, p12)))


def grid(k, p):
    edges = [(v, v + 1, p) for v in range(k * k) if (v + 1) % k]
    edges += [(v, v + k, p) for v in range(k * k - k)]
    return Network(k * k, tuple(edges))


class TestPairMaxFidelity:
    def test_chain_end_to_end(self):
        net = generate(TopologySpec.chain(4), 0.5)
        rec = pair_max_fidelity(net, 0, 3)
        assert rec.product == 0.125
        assert rec.fidelity == 0.5625
        assert rec.best_path == (0, 1, 2, 3)

    def test_direct_edge_wins(self):
        rec = pair_max_fidelity(triangle(0.9, 0.2, 0.2), 0, 1)
        assert rec.fidelity == 0.95
        assert rec.best_path == (0, 1)

    def test_longer_path_wins(self):
        # the two-hop route 0-2-1 beats the direct 0.3 edge
        rec = pair_max_fidelity(triangle(0.3, 0.9, 0.9), 0, 1)
        assert rec.product == pytest.approx(0.81, abs=1e-15)
        assert rec.fidelity == pytest.approx(0.905, abs=1e-15)
        assert rec.best_path == (0, 2, 1)

    def test_zero_weight_edge_is_traversable(self):
        net = Network(2, ((0, 1, 0.0),))
        rec = pair_max_fidelity(net, 0, 1)
        assert rec.product == 0.0
        assert rec.fidelity == 0.5

    def test_validation(self):
        net = generate(TopologySpec.chain(3), 0.5)
        with pytest.raises(GraphError):
            pair_max_fidelity(net, 0, 0)
        with pytest.raises(GraphError):
            pair_max_fidelity(net, 0, 3)

    def test_tie_breaks_prefer_short_then_lexicographic(self):
        # both arcs of a weight-1 square tie; (0, 1, 2) beats (0, 3, 2)
        net = generate(TopologySpec.ring(4), 1.0)
        rec = pair_max_fidelity(net, 0, 2)
        assert rec.best_path == (0, 1, 2)

    def test_long_chain_has_no_depth_limit(self):
        net = generate(TopologySpec.chain(1100), 0.9999)
        rec = pair_max_fidelity(net, 0, 1099)
        product = 1.0
        for _, _, w in net.edges:
            product *= w
        assert rec.degeneracy == 1
        assert rec.product == product

    def test_long_chain_behind_me_triangle(self):
        # the ME triangle is a cycle of key-keeping links, so this pair is
        # counted by enumeration: 0-2-3-... and 0-1-2-3-...
        edges = ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))
        edges += tuple((v, v + 1, 0.9999) for v in range(2, 1099))
        rec = pair_max_fidelity(Network(1100, edges), 0, 1099)
        assert rec.degeneracy == 2

    def test_grid_ties_counted_without_enumeration(self):
        # no ME link: every monotone staircase ties, far beyond the
        # enumeration cap, and all are counted in one pass
        rec = pair_max_fidelity(grid(12, 0.5), 0, 143)
        assert rec.degeneracy == comb(22, 11)


class TestAverage:
    def test_table_values(self):
        assert average_max_fidelity(
            generate(TopologySpec.chain(4), 0.5)
        ).avg_max_fidelity == pytest.approx(65 / 96, abs=1e-15)
        assert average_max_fidelity(
            generate(TopologySpec.star(4), 0.5)
        ).avg_max_fidelity == 0.6875
        assert average_max_fidelity(
            generate(TopologySpec.complete(4), 0.5)
        ).avg_max_fidelity == 0.75

    def test_ring_even_counts_tied_arcs(self):
        nf = average_max_fidelity(generate(TopologySpec.ring(4), 0.5))
        assert nf.avg_max_fidelity == pytest.approx(66 / 96, abs=1e-15)
        degs = {(r.source, r.target): r.degeneracy for r in nf.pair_records}
        assert degs[(0, 2)] == 2 and degs[(1, 3)] == 2
        assert degs[(0, 1)] == 1

    def test_all_me_network(self):
        for spec in (TopologySpec.ring(5), TopologySpec.complete(4), TopologySpec.chain(6)):
            assert average_max_fidelity(generate(spec, 1.0)).avg_max_fidelity == 1.0

    def test_unity_only_with_all_me_paths(self):
        net = generate(TopologySpec.chain(3), [1.0, 0.999999])
        assert average_max_fidelity(net).avg_max_fidelity < 1.0

    def test_one_record_per_pair(self):
        nf = average_max_fidelity(generate(TopologySpec.complete(5), 0.4))
        assert len(nf.pair_records) == 10


def oracle_effective_length(net):
    """Pair average of the least non-ME link count over simple paths, each
    pair weighted by its number of simple paths at that count, by explicit
    enumeration. A pair joined by an all-ME path counts once, at 0."""
    num = den = 0
    for s in range(net.node_count):
        costs = {}
        stack = [(s, 0, (s,))]
        while stack:
            u, c, path = stack.pop()
            if u != s:
                costs.setdefault(u, []).append(c)
            for v, w in net.adjacency[u]:
                if v not in path:
                    stack.append((v, c + (w != 1.0), path + (v,)))
        for t in range(s + 1, net.node_count):
            least = min(costs[t])
            ties = 1 if least == 0 else costs[t].count(least)
            num += ties * least
            den += ties
    return num / den


class TestPathFreeEngine:
    # Values come from a search that carries bare keys; paths=True then reads
    # best paths off the tight links of the final keys. No value may change.
    @settings(max_examples=120, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        n=st.integers(2, 8),
        dense=st.booleans(),
        me_prob=st.sampled_from((0.0, 0.3)),
        # dyadic levels tie exactly; zero, subnormal, ME and one-ulp-short
        # weights make products that are zero, tiny, one or rounding-prone
        levels=st.sampled_from(
            (None, (0.0, 0.25, 0.5, 1.0), (0.0, 5e-324, 2.0**-520, 0.5, 1 - 2.0**-53, 1.0))
        ),
    )
    def test_paths_change_no_value(self, rnd, n, dense, me_prob, levels):
        net = random_connected_network(
            rnd, n, extra_edge_prob=0.6 if dense else 0.2, me_prob=me_prob, levels=levels
        )
        plain = average_max_fidelity(net)
        with_paths = average_max_fidelity(net, paths=True)
        assert plain.avg_max_fidelity.hex() == with_paths.avg_max_fidelity.hex()
        assert len(plain.pair_records) == len(with_paths.pair_records) == comb(n, 2)
        for a, b in zip(plain.pair_records, with_paths.pair_records):
            assert a.best_path is None
            assert (a.source, a.target, a.degeneracy) == (b.source, b.target, b.degeneracy)
            assert (a.product.hex(), a.fidelity.hex()) == (b.product.hex(), b.fidelity.hex())
            assert b.best_path == pair_max_fidelity(net, b.source, b.target).best_path
            assert b == brute_force_pair_fidelity(net, b.source, b.target)
        assert effective_path_length(net) == oracle_effective_length(net)

    def test_every_small_network_matches_brute_force(self):
        # every connected labelled graph on 4 nodes, each link 0, 0.5 or 1:
        # zero, tied and ME paths, checked record by record
        links = list(itertools.combinations(range(4), 2))
        networks = 0
        for weights in itertools.product((None, 0.0, 0.5, 1.0), repeat=len(links)):
            edges = tuple((u, v, w) for (u, v), w in zip(links, weights) if w is not None)
            try:
                net = Network(4, edges)
            except GraphError:  # not connected
                continue
            networks += 1
            for r in average_max_fidelity(net, paths=True).pair_records:
                assert r == brute_force_pair_fidelity(net, r.source, r.target), edges
        assert networks == 3834

    def test_product_zero_pairs_report_fewest_hops(self):
        # every path to 4 ends on the zero link 1-4, so all of them tie at
        # product 0 and the fewest-hop one is reported, 0-1-4, not the one
        # through the best path to 1 (0-2-3-1, product 0.729 against 0.1)
        net = Network(5, ((0, 1, 0.1), (0, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (1, 4, 0.0)))
        records = {(r.source, r.target): r for r in average_max_fidelity(net, True).pair_records}
        assert records[(0, 1)].best_path == (0, 2, 3, 1)
        assert records[(0, 4)].best_path == (0, 1, 4)
        assert records[(0, 4)] == brute_force_pair_fidelity(net, 0, 4)

    def test_scenario_A_paths_on_request(self):
        spec = TopologySpec.chain(4)
        assert {r.best_path for r in run_scenario_A(spec, 0.5).pair_records} == {None}
        paths = [r.best_path for r in run_scenario_A(spec, 0.5, paths=True).pair_records]
        # a chain joins each pair by its one path, the nodes from s to t
        assert paths == [tuple(range(s, t + 1)) for s in range(4) for t in range(s + 1, 4)]


UNIFORM_P = (0.0, 2.0**-520, 0.3, 0.5, 0.9, 1 - 2.0**-53, 1.0, random.Random(5).random())


def uniform_graphs():
    """Random connected graphs on up to 30 nodes, and the canonical shapes
    with both ring parities, as (label, edge skeleton Network)."""
    rnd = random.Random(17)
    graphs = [(f"random{i}", random_connected_network(rnd, n, extra_edge_prob=prob))
              for i, (n, prob) in enumerate(
                  [(2, 0.0), (5, 0.5), (9, 0.3), (12, 0.6), (16, 0.2), (20, 0.1), (25, 0.15),
                   (30, 0.08), (30, 0.3)])]
    specs = [TopologySpec.chain(12), TopologySpec.star(12), TopologySpec.ring(11),
             TopologySpec.ring(12), TopologySpec.complete(7)]
    return graphs + [(f"{s.family}{s.n}", generate(s, 0.5)) for s in specs]


def engine_effective_length(net):
    """``effective_path_length`` by the ``_NON_ME`` search and its tie counts."""
    n = net.node_count
    num = den = 0
    for s in range(n - 1):
        key, order = _search(net, s, _NON_ME)
        targets = range(s + 1, n)
        for t, deg in zip(targets, _tie_counts(net, s, key, order, targets, _NON_ME[1])):
            num += deg * key[t]
            den += deg
    return num / den


class TestHopProfiles:
    # Under one weight p, values come from a breadth-first hop profile;
    # paths=True always runs the product search, so the two must agree bit
    # for bit, count-once pairs (t exactly 0 or 1) included.
    @pytest.mark.parametrize("label, skeleton", uniform_graphs())
    def test_uniform_average_matches_engine(self, label, skeleton):
        for p in UNIFORM_P:
            net = skeleton.with_weights([p] * skeleton.edge_count)
            profile = average_max_fidelity(net)
            engine = average_max_fidelity(net, paths=True)
            assert profile.avg_max_fidelity.hex() == engine.avg_max_fidelity.hex(), p
            assert len(profile.pair_records) == len(engine.pair_records)
            for a, b in zip(profile.pair_records, engine.pair_records):
                assert a.best_path is None
                assert (a.source, a.target, a.degeneracy) == (b.source, b.target, b.degeneracy)
                assert (a.product.hex(), a.fidelity.hex()) == (b.product.hex(), b.fidelity.hex())
                assert type(a.product) is float and type(a.fidelity) is float

    @pytest.mark.parametrize("label, skeleton", uniform_graphs())
    def test_effective_length_matches_engine(self, label, skeleton):
        rnd = random.Random(label)
        # generic weights: no link is ME, so the profile runs whatever they are
        net = skeleton.with_weights([rnd.random() for _ in range(skeleton.edge_count)])
        assert effective_path_length(net) == engine_effective_length(net)
        if net.node_count <= 10:
            assert effective_path_length(net) == oracle_effective_length(net)

    @settings(max_examples=40, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), n=st.integers(2, 10), dense=st.booleans())
    def test_effective_length_matches_enumeration(self, rnd, n, dense):
        net = random_connected_network(rnd, n, extra_edge_prob=0.35 if dense else 0.15)
        assert effective_path_length(net) == oracle_effective_length(net)
        assert effective_path_length(net) == engine_effective_length(net)

    def test_uniform_networks_run_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the product search ran")

        monkeypatch.setattr("qnetfid.fidelity._search", no_search)
        for net in (grid(5, 0.5), generate(TopologySpec.ring(6), 1 - 2.0**-53),
                    generate(TopologySpec.complete(5), 0.0)):
            average_max_fidelity(net)
            effective_path_length(net)
        effective_path_length(generate(TopologySpec.ring(6), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        with pytest.raises(AssertionError, match="search ran"):
            effective_path_length(generate(TopologySpec.ring(6), [1.0, 0.5, 0.5, 0.5, 0.5, 0.5]))

    def test_stalled_table_goes_to_the_engine(self, monkeypatch):
        # at p = 0.5000001 the products reach 2^-1074 after 1075 factors and
        # stay there, so paths of 1075 and 1076 links would tie
        p = 0.5000001
        table, stalls = _products(p, 1076)
        assert table[1075] == table[1076] == 2.0**-1074
        assert stalls and not _products(p, 1075)[1]

        class EngineRan(Exception):
            pass

        def engine(*args):
            raise EngineRan

        monkeypatch.setattr("qnetfid.fidelity._pair_records", engine)
        with pytest.raises(EngineRan):
            average_max_fidelity(generate(TopologySpec.chain(1080), p))

    def test_count_once_at_zero_and_one(self):
        for p in (0.0, 1.0):
            nf = average_max_fidelity(generate(TopologySpec.ring(4), p))
            assert [r.degeneracy for r in nf.pair_records] == [1] * 6
            assert nf.avg_max_fidelity == (1.0 + p) / 2.0
        # 2^-520 squared is 2^-1040; three factors underflow to 0
        nf = average_max_fidelity(generate(TopologySpec.ring(6), 2.0**-520))
        assert {(r.target - r.source, r.product, r.degeneracy) for r in nf.pair_records} == {
            (1, 2.0**-520, 1), (5, 2.0**-520, 1), (2, 2.0**-1040, 1), (4, 2.0**-1040, 1),
            (3, 0.0, 1),
        }


class TestBruteForceOracle:
    def test_ring_tie(self):
        net = generate(TopologySpec.ring(4), 0.5)
        rec = brute_force_pair_fidelity(net, 0, 2)
        assert rec.product == 0.25
        assert rec.degeneracy == 2

    def test_chain_unique_path(self):
        net = generate(TopologySpec.chain(3), 0.5)
        rec = brute_force_pair_fidelity(net, 0, 2)
        assert rec.product == 0.25
        assert rec.degeneracy == 1

    def test_cap(self):
        net = generate(TopologySpec.chain(12), 0.5)
        with pytest.raises(GraphError, match="capped"):
            brute_force_pair_fidelity(net, 0, 11)

    @pytest.mark.parametrize(
        "edges, s, t, degeneracy, path",
        [
            # 1-2-0 falls short of 1-0, yet both round to 5e-324 at node 3
            (((0, 1, 0.75), (0, 2, 0.75), (0, 3, 5e-324), (1, 2, 0.75)), 1, 3, 2, (1, 0, 3)),
            # 0-1-2 is one ulp short of 0-2; times 0.6 the two products agree
            (((0, 2, 1 - 2**-53), (0, 1, 1 - 2**-53), (1, 2, 1 - 2**-53), (2, 3, 0.6)),
             0, 3, 2, (0, 2, 3)),
            # 0-1 falls short of the ME detour 0-3-1, yet times 5e-324 both
            # round to 5e-324 at node 2: the shorter 0-1-2 is reported
            (((0, 1, 0.75), (0, 3, 1.0), (1, 2, 5e-324), (1, 3, 1.0), (2, 3, 0.0)),
             0, 2, 2, (0, 1, 2)),
        ],
    )
    def test_rounding_ties_counted(self, edges, s, t, degeneracy, path):
        net = Network(4, edges)
        engine = pair_max_fidelity(net, s, t)
        assert engine == brute_force_pair_fidelity(net, s, t)
        assert (engine.degeneracy, engine.best_path) == (degeneracy, path)

    @settings(max_examples=160, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        n=st.integers(2, 8),
        dense=st.booleans(),
        # dyadic levels make products exact, so ties test counting, not rounding
        levels=st.sampled_from((None, (0.0, 0.25, 0.5, 1.0))),
    )
    def test_engine_matches_brute_force(self, rnd, n, dense, levels):
        net = random_connected_network(
            rnd, n, extra_edge_prob=0.6 if dense else 0.2, levels=levels
        )
        for s in range(n):
            for t in range(s + 1, n):
                engine = pair_max_fidelity(net, s, t)
                oracle = brute_force_pair_fidelity(net, s, t)
                assert engine.product == oracle.product  # bitwise
                assert engine.best_path == oracle.best_path
                assert engine.degeneracy == oracle.degeneracy
                assert 0.5 <= engine.fidelity <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        n=st.integers(2, 8),
        # zero, subnormal, ME and one-ulp-short weights make products that
        # are zero, tiny, one or sensitive to rounding
        levels=st.sampled_from((None, (0.0, 5e-324, 2.0**-520, 0.5, 1 - 2.0**-53, 1.0))),
    )
    def test_trees_have_unique_paths(self, rnd, n, levels):
        net = random_connected_network(rnd, n, extra_edge_prob=0.0, levels=levels)
        for s in range(n):
            for t in range(s + 1, n):
                engine = pair_max_fidelity(net, s, t)
                oracle = brute_force_pair_fidelity(net, s, t)
                assert oracle.degeneracy == 1
                assert engine.product == oracle.product  # bitwise
                assert engine.best_path == oracle.best_path
                assert engine.degeneracy == oracle.degeneracy


class TestMonotonicity:
    # Raising a link never lowers a pair's fidelity, but it can create a tie
    # that weighs a worse pair more, so the tie-weighted average can drop.
    # Pinned example: triangle 0-1 at 0.25, 0-2 ME, 1-2 at 0.0 raised to 0.25;
    # pairs (0, 1) and (1, 2) each gain a second best path and the average
    # goes 0.75 -> 0.7.
    @example(rnd=random.Random(22), n=3, bump=0.25, levels=(0.0, 0.25, 0.5, 1.0))
    @settings(max_examples=120, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        n=st.integers(3, 7),
        bump=st.floats(0.01, 0.5),
        # fixed levels make ties common, so tie counts change under a raise
        levels=st.sampled_from((None, (0.0, 0.25, 0.5, 1.0))),
    )
    def test_single_edge_increase(self, rnd, n, bump, levels):
        net = random_connected_network(rnd, n, extra_edge_prob=0.4, levels=levels)
        before = average_max_fidelity(net)
        idx = rnd.randrange(net.edge_count)
        weights = [w for _, _, w in net.edges]
        weights[idx] = min(1.0, weights[idx] + bump)
        after = average_max_fidelity(net.with_weights(weights))
        for a, b in zip(before.pair_records, after.pair_records):
            assert b.fidelity >= a.fidelity - 1e-15
        assert plain_pair_mean(after) >= plain_pair_mean(before) - 1e-15
        if all(
            a.degeneracy == b.degeneracy
            for a, b in zip(before.pair_records, after.pair_records)
        ):
            assert after.avg_max_fidelity >= before.avg_max_fidelity - 1e-15

    def test_new_tie_can_lower_the_average(self):
        # Ring(4) with one link at 0.4: both opposite pairs have a unique best
        # arc (0.25 against 0.2). Raising the link to 0.5 ties both arcs, so
        # the two pairs at fidelity 5/8 weigh twice: 0.7 -> 66/96.
        before = average_max_fidelity(generate(TopologySpec.ring(4), [0.5, 0.5, 0.4, 0.5]))
        after = average_max_fidelity(generate(TopologySpec.ring(4), 0.5))
        assert before.avg_max_fidelity == pytest.approx(0.7, abs=1e-15)
        assert after.avg_max_fidelity == 66 / 96
        assert after.avg_max_fidelity < before.avg_max_fidelity
        assert plain_pair_mean(after) > plain_pair_mean(before)


class TestEffectivePathLength:
    def test_chain4(self):
        net = generate(TopologySpec.chain(4), 0.5)
        assert effective_path_length(net) == 10 / 6

    def test_star4(self):
        assert effective_path_length(generate(TopologySpec.star(4), 0.5)) == 1.5

    def test_all_me_is_zero(self):
        assert effective_path_length(generate(TopologySpec.ring(5), 1.0)) == 0.0

    def test_me_links_cost_nothing(self):
        # chain 0-1-2-3 with the middle link ME: pair costs 1,1,2,0,1,1
        net = generate(TopologySpec.chain(4), [0.5, 1.0, 0.5])
        assert effective_path_length(net) == 1.0

    def test_even_ring_counts_tied_arcs(self):
        # opposite pairs weigh twice: (4*1 + 4*2) / 8
        net = generate(TopologySpec.ring(4), 0.5)
        assert effective_path_length(net) == 1.5

    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec.chain(6),
            TopologySpec.star(6),
            TopologySpec.flower(7, 2),
            TopologySpec.ring(7),
            TopologySpec.ring(8),
            TopologySpec.complete(5),
        ],
    )
    def test_matches_derivative(self, spec):
        net = generate(spec, 0.5)
        combinatorial = effective_path_length(net)
        assert effective_path_length_fd(net, order=2) == pytest.approx(
            combinatorial, abs=1e-4
        )

    def test_matches_derivative_with_me_links(self):
        rnd = random.Random(11)
        for _ in range(10):
            net = random_connected_network(rnd, 6, extra_edge_prob=0.4, me_prob=0.3)
            assert effective_path_length_fd(net, order=2) == pytest.approx(
                effective_path_length(net), abs=1e-4
            )

    @pytest.mark.parametrize(
        "order, h, name",
        [(3, 1e-4, "order"), (0, 1e-4, "order"), (2, 0.0, "h"), (1, -0.5, "h"),
         (2, 0.75, "h"), (1, float("nan"), "h")],
    )
    def test_fd_checks_arguments_before_any_engine_call(self, monkeypatch, order, h, name):
        calls = []
        monkeypatch.setattr(
            "oracles.average_max_fidelity", lambda net: calls.append(net)
        )
        net = generate(TopologySpec.complete(5), 0.5)
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            effective_path_length_fd(net, h=h, order=order)
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), n=st.integers(2, 12), dense=st.booleans())
    def test_matches_networkx_shortest_path_counts(self, rnd, n, dense):
        net = random_connected_network(rnd, n, extra_edge_prob=0.5 if dense else 0.15)
        g = nx.Graph((u, v) for u, v, _ in net.edges)
        num = den = 0
        for s in range(n):
            for t in range(s + 1, n):
                paths = list(nx.all_shortest_paths(g, s, t))
                num += len(paths) * (len(paths[0]) - 1)
                den += len(paths)
        assert effective_path_length(net) == num / den

    @pytest.mark.parametrize(
        "spec",
        [TopologySpec.chain(5), TopologySpec.star(6), TopologySpec.ring(6)],
    )
    def test_first_order_expansion(self, spec):
        delta = 1e-3
        net = generate(spec, 1.0 - delta)
        estimate = first_order_estimate(net, delta)
        actual = average_max_fidelity(net).avg_max_fidelity
        assert abs(actual - estimate) <= 1e-5


def test_results_are_deterministic():
    net = generate(TopologySpec.flower(7, 1), 0.37)
    a = average_max_fidelity(net)
    b = average_max_fidelity(net)
    assert a.avg_max_fidelity == b.avg_max_fidelity
    assert a.pair_records == b.pair_records
