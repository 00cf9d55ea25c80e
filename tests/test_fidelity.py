import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, fsum
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgen import plain_pair_mean, random_connected_network
from oracles import (
    brute_force_pair_fidelity, collide, effective_path_length_fd, first_order_estimate,
    one_weight_ties, searched, simple_path_costs,
)
from qnetfid import (
    EnumerationLimitError,
    GraphError,
    Network,
    TopologySpec,
    average_max_fidelity,
    effective_path_length,
    generate,
    pair_max_fidelity,
    run_scenario_A,
    uniform_value,
)
from qnetfid.cli import main
from qnetfid.fidelity import (
    _NON_ME, _PRODUCT, _PROFILES, _levels, _pair_records, _search, _table, _tie_counts,
)


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


NEAR_ONE = 1 - 2.0**-53


def oracle_records(pairs):
    """``one_weight_ties``' (c, ties, product) entries as (degeneracy,
    fidelity) records."""
    return [SimpleNamespace(degeneracy=d, fidelity=(1.0 + prod) / 2.0) for _, d, prod in pairs]


def record_average(records, copies=1):
    """fsum of degeneracy * fidelity over the records, each taken ``copies``
    times, over the sum of degeneracies: the exact sum, rounded once."""
    num = fsum(r.degeneracy * r.fidelity for r in records for _ in range(copies))
    return num / (copies * sum(r.degeneracy for r in records))


class TestExactAverage:
    # average_max_fidelity's value against the records' own correctly
    # rounded sum, by float.hex, where ties and near-one products make many
    # terms carry long mantissas
    def test_grid_with_one_me_link_near_one(self):
        k = 12
        edges = [(v, v + 1) for v in range(k * k) if (v + 1) % k]
        edges += [(v, v + k) for v in range(k * k - k)]
        net = Network(k * k, tuple(
            (u, v, 1.0 if (u, v) == (65, 66) else NEAR_ONE) for u, v in edges))
        nf = average_max_fidelity(net)
        assert max(r.degeneracy for r in nf.pair_records) == 116424
        assert nf.avg_max_fidelity.hex() == record_average(nf.pair_records).hex()

    @pytest.mark.parametrize("p", [NEAR_ONE, 0.9])
    def test_complete_150(self, p):
        nf = average_max_fidelity(generate(TopologySpec.complete(150), p))
        assert nf.avg_max_fidelity.hex() == record_average(nf.pair_records).hex()

    @pytest.mark.parametrize("p", [NEAR_ONE, 0.9, 0.3])
    def test_ring_2000(self, p):
        # every unordered pair of a ring is a rotation of a pair of node 0,
        # and each appears twice among the n sources: so the pair multiset is
        # n / 2 copies of node 0's pairs, here from the one-weight oracle. At
        # p = 0.3 the antipodal products underflow to 0, yet each antipodal
        # pair's two arcs tie at the exact product 0.3^1000
        n = 2000
        net = generate(TopologySpec.ring(n), p)
        oracle = one_weight_ties(net, 0)
        assert oracle[n // 2][:2] == (n // 2, 2)
        want = record_average(oracle_records(oracle.values()), copies=n // 2)
        assert average_max_fidelity(net).avg_max_fidelity.hex() == want.hex()
        if not collide(p, n // 2):  # and from the product search's records
            records = _pair_records(net, 0, range(1, n), False, None)
            assert record_average(records, copies=n // 2).hex() == want.hex()

    def test_seeded_me_placements_on_complete_graphs(self):
        rnd = random.Random(29)
        for _ in range(200):
            n = rnd.randint(3, 13)
            links = list(itertools.combinations(range(n), 2))
            me = set(rnd.sample(links, rnd.randint(0, len(links))))
            p = rnd.choice([NEAR_ONE, 0.9, 0.5, 0.3, 0.123456789])
            net = Network(n, tuple((u, v, 1.0 if (u, v) in me else p) for u, v in links))
            nf = average_max_fidelity(net)
            assert nf.avg_max_fidelity.hex() == record_average(nf.pair_records).hex(), (n, me, p)


def oracle_effective_length(net):
    """Pair average of the least non-ME link count over simple paths, each
    pair weighted by its number of simple paths at that count, by explicit
    enumeration. A pair joined by an all-ME path counts once, at 0."""
    num = den = 0
    for s in range(net.node_count):
        for t, costs in simple_path_costs(net, s).items():
            if t > s:
                counts = [c for c, _ in costs]
                least = min(counts)
                ties = 1 if least == 0 else counts.count(least)
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
        ties = _tie_counts(net, s, key, order, range(s + 1, n), _NON_ME[1])
        for t in range(s + 1, n):
            num += ties[t] * key[t]
            den += ties[t]
    return num / den


def engine_records(net):
    """Every pair's record, best path included, by the product search and its
    tie counts (:func:`searched`), whatever the weights."""
    n = net.node_count
    return [r for s in range(n - 1) for r in searched(net, s, range(s + 1, n))]


class TestHopProfiles:
    # Under one weight p, values and best paths come from breadth-first
    # passes; the product search must agree with them bit for bit,
    # count-once pairs (t exactly 0 or 1) included.
    @pytest.mark.parametrize("label, skeleton", uniform_graphs())
    def test_uniform_average_matches_engine(self, label, skeleton):
        for p in UNIFORM_P:
            net = skeleton.with_weights([p] * skeleton.edge_count)
            profile = average_max_fidelity(net)
            with_paths = average_max_fidelity(net, paths=True)
            engine = engine_records(net)
            avg = fsum(r.degeneracy * r.fidelity for r in engine) / sum(
                r.degeneracy for r in engine)
            for nf in (profile, with_paths):
                assert nf.avg_max_fidelity.hex() == avg.hex(), p
            assert len(profile.pair_records) == len(with_paths.pair_records) == len(engine)
            for a, b, c in zip(profile.pair_records, with_paths.pair_records, engine):
                assert a.best_path is None
                assert b.best_path == c.best_path
                for r in (a, b):
                    assert (r.source, r.target, r.degeneracy) == (c.source, c.target, c.degeneracy)
                    assert r.product.hex() == c.product.hex()
                    assert r.fidelity.hex() == c.fidelity.hex()
                    assert type(r.product) is float and type(r.fidelity) is float

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

        _PROFILES.clear()  # a cached profile would skip the search the last call must run
        monkeypatch.setattr("qnetfid.fidelity._search", no_search)
        for net in (grid(5, 0.5), generate(TopologySpec.ring(6), 1 - 2.0**-53),
                    generate(TopologySpec.complete(5), 0.0)):
            average_max_fidelity(net)
            average_max_fidelity(net, paths=True)
            pair_max_fidelity(net, 0, net.node_count - 1)
            effective_path_length(net)
        effective_path_length(generate(TopologySpec.ring(6), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        with pytest.raises(AssertionError, match="search ran"):
            effective_path_length(generate(TopologySpec.ring(6), [1.0, 0.5, 0.5, 0.5, 0.5, 0.5]))

    def test_stalled_table_stays_on_the_count_pass(self, monkeypatch):
        # at p = 0.5000001 the products reach 2^-1074 after 1075 factors and
        # stay there, so float products of 1075 and 1076 links tie where the
        # exact ones, p^1075 > p^1076, do not: the least count decides
        p = 0.5000001
        table = _levels(p, 1076)[0]
        assert table[1075] == table[1076] == 2.0**-1074
        # chain 1080 joins each pair by one path, so its values are the
        # product search's, whichever call cached its count profile
        spec = TopologySpec.chain(1080)
        net = generate(spec, p)
        n = net.node_count
        fids = [r.fidelity for s in range(n - 1)
                for r in _pair_records(net, s, range(s + 1, n), False, None)]
        want = (fsum(fids) / len(fids)).hex(), min(fids).hex(), max(fids).hex()
        pair = _pair_records(net, 0, [n - 1], True, None)[0]
        for seed in (lambda: run_scenario_A(spec, 0.5),
                     lambda: average_max_fidelity(generate(spec, 0.5))):
            _PROFILES.clear()
            seed()
            with monkeypatch.context() as m:
                m.setattr("qnetfid.fidelity._search", search_without_products)
                for paths in (False, True):
                    for nf in (average_max_fidelity(net, paths),
                               run_scenario_A(spec, p, paths=paths)):
                        assert (nf.avg_max_fidelity.hex(), nf.worst_pair_fidelity.hex(),
                                nf.best_pair_fidelity.hex()) == want
                assert pair_max_fidelity(net, 0, n - 1) == pair

    @pytest.mark.parametrize("spec", [TopologySpec.star(1077), TopologySpec.ring(1200)],
                             ids=["star1077", "ring1200"])
    def test_stall_past_every_least_count_still_counts(self, spec, monkeypatch):
        # the same p stalls from 1075 factors on, but no pair here has a least
        # count that high (2 on the star, 600 on the ring), so the product
        # search's records hold the exact ties, and the count pass must agree
        p = 0.5000001
        net = generate(spec, p)
        n, far = net.node_count, net.node_count // 2
        searched = [r for s in range(n - 1)
                    for r in _pair_records(net, s, range(s + 1, n), False, None)]
        fids = [r.fidelity for r in searched]
        pair = _pair_records(net, 0, [far], True, None)[0]
        _PROFILES.clear()
        calls = counting(monkeypatch, "_search")
        nf = average_max_fidelity(net)
        assert pair_max_fidelity(net, 0, far) == pair
        assert calls == []
        assert (nf.avg_max_fidelity.hex(), nf.worst_pair_fidelity.hex(),
                nf.best_pair_fidelity.hex()) == (
            record_average(searched).hex(), min(fids).hex(), max(fids).hex())

    def test_pair_counts_its_source_once(self, monkeypatch):
        # one count pass from the source, where products stall too
        calls = counting(monkeypatch, "_counts")
        rec = pair_max_fidelity(generate(TopologySpec.chain(1080), 0.5000001), 0, 10)
        assert len(calls) == 1
        assert (rec.best_path, rec.degeneracy) == (tuple(range(11)), 1)

    def test_pair_holds_linear_memory(self):
        # one predecessor per node, and a path built for the target alone:
        # a path per node would hold about N^2 / 4 entries (~32 MB here)
        n = 4000
        net = generate(TopologySpec.ring(n), 0.9)
        net.adjacency  # built before tracing: it is the network's, not the query's
        tracemalloc.start()
        try:
            rec = pair_max_fidelity(net, 0, n // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rec.best_path, rec.degeneracy) == (tuple(range(n // 2 + 1)), 2)
        assert peak < 2 * 2**20, peak

    def test_uniform_grid_near_one_never_enumerates(self):
        # at p = 1 - 2^-53 every link is near-tight, so the search would
        # enumerate the C(22, 11) shortest paths across a 12 x 12 grid
        p = 1 - 2.0**-53
        product = 1.0
        for _ in range(22):
            product *= p
        rec = pair_max_fidelity(grid(12, p), 0, 143)
        assert rec.degeneracy == comb(22, 11)
        assert rec.best_path == tuple(range(12)) + tuple(range(23, 144, 12))
        assert (rec.product, rec.fidelity) == (product, (1.0 + product) / 2.0)

    def test_count_once_at_zero_and_one(self):
        for p in (0.0, 1.0):
            nf = average_max_fidelity(generate(TopologySpec.ring(4), p))
            assert [r.degeneracy for r in nf.pair_records] == [1] * 6
            assert nf.avg_max_fidelity == (1.0 + p) / 2.0
        # 2^-520 squared is 2^-1040; three factors underflow to 0, but an
        # antipodal pair's two arcs tie at the exact product 2^-1560 > 0
        net = generate(TopologySpec.ring(6), 2.0**-520)
        nf = average_max_fidelity(net)
        assert {(r.target - r.source, r.product, r.degeneracy) for r in nf.pair_records} == {
            (1, 2.0**-520, 1), (5, 2.0**-520, 1), (2, 2.0**-1040, 1), (4, 2.0**-1040, 1),
            (3, 0.0, 2),
        }
        for r in nf.pair_records:
            c, ties, product = one_weight_ties(net, r.source)[r.target]
            assert (r.degeneracy, r.product) == (ties, product)

    @pytest.mark.parametrize("n, p", [(324, 0.01), (2000, 0.3), (2150, 0.5)])
    def test_even_rings_match_exact_closed_form(self, n, p):
        # In the standard model with underflow each product step is
        # fl(x p) = x p (1 + d) + e, |d| <= u = 2^-53, |e| <= 2^-1075, so
        # t[c] lies within g_c p^c + c 2^-1075 of p^c, g_c = c u / (1 - c u).
        # The fidelity (1 + t) / 2 adds u, d * fidelity u, and the average
        # (the exact term sum over the pair weight, rounded twice) 3u more,
        # against the exact closed form, which weighs an antipodal pair by
        # both of its arcs. The products underflow to 0 in each of these
        u, c = Fraction(1, 2**53), n // 2
        assert _levels(p, c)[0][c] == 0.0
        bound = (c * u / (1 - c * u) * Fraction(p) + c * Fraction(1, 2**1075)) / 2 + 5 * u
        exact = uniform_value("ring", n, None, Fraction(p))
        value = average_max_fidelity(generate(TopologySpec.ring(n), p)).avg_max_fidelity
        assert abs(Fraction(value) - exact) <= bound, float(abs(Fraction(value) - exact))

    @pytest.mark.parametrize("net", [
        generate(TopologySpec.chain(1080), 0.5000001),
        generate(TopologySpec.ring(2200), 0.5000001),
        generate(TopologySpec.ring(8), [2.0**-1074 if e % 4 else 1.0 for e in range(8)]),
        generate(TopologySpec.ring(2150), 0.5),
    ], ids=["stalled-chain1080", "stalled-ring2200", "me-ring8-subnormal", "ring2150"])
    def test_one_weight_networks_run_no_search(self, net, monkeypatch):
        # one weight p > 0: the least non-ME count decides every tie, whether
        # the float products stall (p = 0.5000001 past 1075 factors) or reach
        # 0, so no product search runs; the farthest pair from node 0 (on the
        # rings, two arcs) is counted as the one-weight oracle counts it
        _PROFILES.clear()
        monkeypatch.setattr("qnetfid.fidelity._search", search_without_products)
        n = net.node_count
        far = n - 1 if net.edge_count < n else n // 2
        nf = average_max_fidelity(net)
        rec = pair_max_fidelity(net, 0, far)
        assert 0.5 < nf.avg_max_fidelity < 1.0 and effective_path_length(net) > 0
        c, ties, product = one_weight_ties(net, 0)[far]
        assert (rec.degeneracy, rec.product.hex()) == (ties, product.hex())
        assert rec.degeneracy == (1 if far == n - 1 else 2)
        if n < 10:  # every record, and the average, against the oracle
            oracle = {(s, t): v for s in range(n) for t, v in one_weight_ties(net, s).items()}
            assert [(r.degeneracy, r.product) for r in nf.pair_records] == [
                oracle[r.source, r.target][1:] for r in nf.pair_records]
            assert nf.avg_max_fidelity == record_average(oracle_records(
                oracle[s, t] for s in range(n) for t in range(s + 1, n)))


# one weight p beside ME links: the smallest subnormal (float products reach
# 0, and the product search reference runs at 1/2), generic values, two near
# 1 where the product search's rounding guard enumerates, and one U(0, 1) draw
ME_PLACEMENT_P = (2.0**-1074, 0.3, 0.5, 0.9, 1 - 2.0**-45, 1 - 2.0**-53,
                  random.Random(20).random())


def search_without_products(net, source, rule):
    if rule is _PRODUCT:
        raise AssertionError("the product search ran")
    return _search(net, source, rule)


def me_k12_in_k13(p):
    """K13 whose nodes 0-11 form an ME K12; node 12 joins each by weight p."""
    return Network(13, tuple((u, v, 1.0 if v < 12 else p)
                             for u, v in itertools.combinations(range(13), 2)))


class TestCountPass:
    # ME links among links of one weight p: a path with c non-ME links has
    # the product t[c], so the engine counts non-ME links (integer keys, no
    # rounding guard) and reads t off one table. Records must equal the
    # product search's (:func:`searched`) bit for bit, with no product
    # search run, and the effective length must not move.
    @pytest.mark.parametrize("p", ME_PLACEMENT_P)
    def test_me_placements_match_product_search(self, p, monkeypatch):
        rnd = random.Random(p.hex())
        for _ in range(40):
            n = rnd.randint(2, 12)
            net = random_connected_network(rnd, n, extra_edge_prob=rnd.choice((0.0, 0.2, 0.5)),
                                           me_prob=rnd.choice((0.2, 0.5)), levels=(p,))
            engine, length = engine_records(net), engine_effective_length(net)
            avg = fsum(r.degeneracy * r.fidelity for r in engine) / sum(
                r.degeneracy for r in engine)
            s, t = rnd.sample(range(n), 2)
            with monkeypatch.context() as m:
                m.setattr("qnetfid.fidelity._search", search_without_products)
                nf = average_max_fidelity(net, paths=True)
                pair = pair_max_fidelity(net, s, t)
                assert effective_path_length(net) == length
            assert nf.avg_max_fidelity.hex() == avg.hex()
            assert len(nf.pair_records) == len(engine)
            for r, e in zip(nf.pair_records, engine):
                assert (r.source, r.target, r.best_path, r.degeneracy) == (
                    e.source, e.target, e.best_path, e.degeneracy)
                assert (r.product.hex(), r.fidelity.hex()) == (e.product.hex(), e.fidelity.hex())
            ref = searched(net, s, [t])[0]
            assert (pair.best_path, pair.product.hex(), pair.degeneracy) == (
                ref.best_path, ref.product.hex(), ref.degeneracy)

    def test_grid_with_me_link_near_one_never_enumerates(self):
        # at p = 1 - 2^-53 every link is near-tight, so the product search
        # would enumerate. ME link (65, 66) joins columns 5 and 6 of row 5;
        # the best paths from corner to corner are the monotone ones through
        # it: 21 non-ME links, C(10, 5) ways to reach node 65 and C(11, 5)
        # ways on from node 66
        p = 1 - 2.0**-53
        base = grid(12, p)
        net = base.with_weights([1.0 if (u, v) == (65, 66) else w for u, v, w in base.edges])
        product = 1.0
        for _ in range(21):
            product *= p
        rec = pair_max_fidelity(net, 0, 143)
        assert rec.degeneracy == comb(10, 5) * comb(11, 5) == 116_424
        assert (rec.product, rec.fidelity) == (product, (1.0 + product) / 2.0)
        # right along row 0, down column 5, over the ME link, right along
        # row 5, down column 11
        assert rec.best_path == (*range(6), *range(17, 66, 12), *range(66, 72),
                                 *range(83, 144, 12))
        assert 0.5 < average_max_fidelity(net).avg_max_fidelity < 1.0

    def test_me_k12_in_k13_counts_product_zero_once(self, monkeypatch):
        # at p = 0 each of the 12 pairs with node 12 has product 0 and counts
        # once, however many paths tie: (66 * 1 + 12 * 1/2) / 78 = 12/13
        def no_enumeration(*args):
            raise AssertionError("a tie count enumerated")

        with monkeypatch.context() as m:
            m.setattr("qnetfid.fidelity._enumerate_tied", no_enumeration)
            assert average_max_fidelity(me_k12_in_k13(0.0)).avg_max_fidelity == 12 / 13
        # a positive product ties along every route through the ME K12: more
        # paths than the enumeration cap allows
        for p in (2.0**-1074, 0.5):
            with pytest.raises(EnumerationLimitError, match=r"pair \(0, 12\)"):
                average_max_fidelity(me_k12_in_k13(p))

    def test_all_me_network_runs_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search ran")

        _PROFILES.clear()  # the count pass must run, not a cached profile
        monkeypatch.setattr("qnetfid.fidelity._search", no_search)
        net = generate(TopologySpec.complete(150), 1.0)
        nf = average_max_fidelity(net)
        assert nf.avg_max_fidelity == 1.0
        assert {(r.product, r.degeneracy) for r in nf.pair_records} == {(1.0, 1)}
        assert effective_path_length(net) == 0.0


PROFILE_P = (0.0, 2.0**-1074, 0.3, 0.5, 0.9, 1 - 2.0**-53, 1.0)


def engine_average(net):
    """The network average, as hex, from the product search's records."""
    engine = engine_records(net)
    return (fsum(r.degeneracy * r.fidelity for r in engine)
            / sum(r.degeneracy for r in engine)).hex()


def spec_of(label, skeleton, tmp_path):
    """The spec ``run_scenario_A`` reads for a ``uniform_graphs`` entry: its
    family for the canonical shapes, else an edge-list file of its links."""
    family = label.rstrip("0123456789")
    if family != "random":
        return TopologySpec(family, skeleton.node_count)
    path = tmp_path / f"{label}.txt"
    path.write_text(f"{skeleton.node_count}\n"
                    + "".join(f"{u} {v} 0.5\n" for u, v, _ in skeleton.edges))
    return TopologySpec.custom(str(path))


def counting(monkeypatch, name):
    """Replace ``qnetfid.fidelity.<name>`` by a wrapper; returns its call list."""
    import qnetfid.fidelity as fidelity

    calls, real = [], getattr(fidelity, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fidelity, name, wrapper)
    return calls


class TestCountProfile:
    # Averages and effective lengths come from one count profile,
    # {(c, ties): pairs}, cached in the fidelity module by node count and
    # links with their ME flags. They must equal the product search's by
    # float.hex; records are built on read. Tests that count passes, or
    # forbid them, clear the cache first.
    @pytest.mark.parametrize("label, skeleton", uniform_graphs())
    def test_uniform_values_match_engine(self, label, skeleton, tmp_path):
        spec = spec_of(label, skeleton, tmp_path)
        for p in PROFILE_P:
            net = skeleton.with_weights([p] * skeleton.edge_count)
            avg, length = engine_average(net), engine_effective_length(net).hex()
            assert average_max_fidelity(net).avg_max_fidelity.hex() == avg, p
            assert effective_path_length(net).hex() == length, p
            nf = run_scenario_A(spec, p, with_eff_length=True)
            assert (nf.avg_max_fidelity.hex(), nf.effective_path_length.hex()) == (avg, length), p
            assert run_scenario_A(spec, p).avg_max_fidelity.hex() == avg, p

    @pytest.mark.parametrize("p", PROFILE_P)
    def test_me_placement_values_match_engine(self, p):
        rnd = random.Random(p.hex())
        for _ in range(40):
            n = rnd.randint(2, 12)
            net = random_connected_network(rnd, n, extra_edge_prob=rnd.choice((0.0, 0.2, 0.5)),
                                           me_prob=rnd.choice((0.2, 0.5)), levels=(p,))
            assert average_max_fidelity(net).avg_max_fidelity.hex() == engine_average(net)
            assert effective_path_length(net).hex() == engine_effective_length(net).hex()

    @pytest.mark.parametrize("net", [
        generate(TopologySpec.ring(12), 0.9),
        generate(TopologySpec.ring(8), [0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5]),
        random_connected_network(random.Random(3), 12, extra_edge_prob=0.3),
    ], ids=["uniform", "me-placement", "mixed"])
    def test_average_builds_records_on_read(self, net, monkeypatch):
        # the average makes one pass (N - 1 count or search calls) unless it
        # reads a cached profile, and builds no record; reading the records
        # makes exactly N - 1 more calls either way
        n = net.node_count
        name = "_search" if _table(net) is None else "_counts"
        _PROFILES.clear()
        for cached in (False, True):
            calls = counting(monkeypatch, name)
            made = counting(monkeypatch, "PairFidelity")
            nf = average_max_fidelity(net)
            assert made == []
            assert len(calls) == (0 if cached and name == "_counts" else n - 1), cached
            before = len(calls)
            records = nf.pair_records
            assert len(made) == len(records) == comb(n, 2)
            assert len(calls) == before + n - 1, cached
            monkeypatch.undo()
            for r, e in zip(records, engine_records(net)):
                assert r.best_path is None
                assert (r.source, r.target, r.degeneracy) == (e.source, e.target, e.degeneracy)
                assert (r.product.hex(), r.fidelity.hex()) == (e.product.hex(), e.fidelity.hex())
        assert records == average_max_fidelity(net).pair_records

    @pytest.mark.parametrize("net", [
        generate(TopologySpec.ring(1000), 0.9),
        generate(TopologySpec.ring(400), [random.Random(400).random() for _ in range(400)]),
    ], ids=["counted-ring1000", "searched-ring400"])
    def test_average_holds_one_source_at_a_time(self, net):
        # no source's lists outlive its pass: the call peaks, and the result
        # (with the profile cache) retains, under 1 MB, where keeping every
        # source's lists would take O(N^2)
        _PROFILES.clear()
        tracemalloc.start()
        try:
            nf = average_max_fidelity(net)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nf.avg_max_fidelity > 0.5
        assert retained < 2**20 and peak < 2**20, (retained, peak)

    @pytest.mark.parametrize("net, counted", [
        (generate(TopologySpec.ring(12), 0.9), True),
        (generate(TopologySpec.ring(8), [0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5]), True),
        (random_connected_network(random.Random(3), 12, extra_edge_prob=0.3), False),
        # an ME placement at p = 0, searched as _table is None, and a chain
        # whose float products stall (README), counted all the same
        (generate(TopologySpec.ring(8), [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), False),
        (generate(TopologySpec.chain(1077), 0.5000001), True),
    ], ids=["uniform", "me-placement", "mixed", "me-placement-p0", "stalled-chain"])
    def test_pair_extremes_match_records(self, net, counted):
        n = net.node_count
        assert (_table(net) is not None) == counted
        # the product search's records, best paths only where they are cheap
        fids = [r.fidelity for s in range(n - 1)
                for r in _pair_records(net, s, range(s + 1, n), n < 100, None)]
        nf = average_max_fidelity(net)
        assert (nf.worst_pair_fidelity.hex(), nf.best_pair_fidelity.hex()) == (
            min(fids).hex(), max(fids).hex())

    def test_pair_extremes_on_random_networks(self):
        rnd = random.Random(34)
        for _ in range(60):
            levels = rnd.choice((None, (0.5,), (0.0,), (0.0, 0.25, 0.5, 1.0)))
            net = random_connected_network(
                rnd, rnd.randint(2, 12), extra_edge_prob=rnd.choice((0.0, 0.3, 0.6)),
                me_prob=rnd.choice((0.0, 0.3)), levels=levels)
            fids = [r.fidelity for r in engine_records(net)]
            nf = average_max_fidelity(net)
            assert (nf.worst_pair_fidelity.hex(), nf.best_pair_fidelity.hex()) == (
                min(fids).hex(), max(fids).hex())

    @pytest.mark.parametrize("net", [
        generate(TopologySpec.ring(12), 0.9),
        generate(TopologySpec.ring(8), [0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5]),
        random_connected_network(random.Random(3), 12, extra_edge_prob=0.3),
    ], ids=["uniform", "me-placement", "mixed"])
    @pytest.mark.parametrize("cached", [False, True], ids=["counted", "cached"])
    def test_records_with_paths_are_built_on_read(self, net, cached, monkeypatch):
        _PROFILES.clear()
        if cached:
            average_max_fidelity(net)
        made = counting(monkeypatch, "PairFidelity")
        nf = average_max_fidelity(net, paths=True)
        assert made == []
        records = nf.pair_records
        assert len(made) == len(records) == comb(net.node_count, 2)
        monkeypatch.undo()
        for r, e in zip(records, engine_records(net)):
            assert (r.source, r.target, r.degeneracy, r.best_path) == (
                e.source, e.target, e.degeneracy, e.best_path)
            assert (r.product.hex(), r.fidelity.hex()) == (e.product.hex(), e.fidelity.hex())

    def test_ties_count_where_products_underflow(self):
        # ring 324 at p = 0.01: a pair c links apart has one shortest arc and
        # product 0.01^c, which underflows to 0 at c = 162, where the 162
        # antipodal pairs tie on two arcs at the exact product 0.01^162 > 0:
        # each weighs 2, as in the closed form
        n, p = 324, 0.01
        t = _levels(p, n // 2)[0]
        assert t[n // 2] == 0.0 < t[n // 2 - 1]
        terms = [(1.0 + t[c]) / 2.0 for c in range(1, n // 2) for _ in range(n)]
        expected = fsum(terms + [2 * 0.5] * (n // 2)) / (len(terms) + 2 * (n // 2))
        spec = TopologySpec.ring(n)
        assert average_max_fidelity(generate(spec, p)).avg_max_fidelity == expected
        assert run_scenario_A(spec, p).avg_max_fidelity == expected

    def test_scenario_A_counts_once_with_effective_length(self, monkeypatch):
        _PROFILES.clear()
        calls = counting(monkeypatch, "_counts")
        nf = run_scenario_A(TopologySpec.complete(20), 0.9, with_eff_length=True)
        assert len(calls) == 19
        assert nf.effective_path_length == 1.0
        assert len(nf.pair_records) == 190  # records are one more pass
        assert len(calls) == 38
        # a cached profile gives the average; its records cost one pass
        nf = run_scenario_A(TopologySpec.complete(20), 0.5)
        assert len(calls) == 38
        assert len(nf.pair_records) == 190
        assert len(calls) == 57

    @pytest.mark.parametrize("route", [
        ("--graph", "{k20}", "--eff-length"),
        ("--graph", "{k20}", "--pairs", "--eff-length"),
        ("--family", "complete", "--n", "20", "--p", "0.9", "--pairs", "--eff-length"),
    ])
    def test_compute_counts_once(self, route, tmp_path, monkeypatch, capsys):
        k20 = str(tmp_path / "k20.txt")
        main(["generate", "--family", "complete", "--n", "20", "--p", "0.9", "-o", k20])
        _PROFILES.clear()
        calls = counting(monkeypatch, "_counts")
        assert main(["compute", *(arg.format(k20=k20) for arg in route)]) == 0
        # one profile pass; --pairs builds its records by one more
        assert len(calls) == (38 if "--pairs" in route else 19)
        assert "\neffective_path_length 1\n" in capsys.readouterr().out

    def test_scenario_A_counts_once_per_skeleton(self, monkeypatch):
        _PROFILES.clear()
        calls = counting(monkeypatch, "_counts")
        spec = TopologySpec.chain(30)
        for i in range(1, 12):
            run_scenario_A(spec, i / 12)
        assert len(calls) == 29

    def test_cache_keys_on_me_flags(self, monkeypatch):
        # one ring 8 skeleton under ME at link 0, ME at link 3 and no ME link:
        # three profiles, none of which may serve another
        _PROFILES.clear()
        skeleton = generate(TopologySpec.ring(8), 0.5)
        for me in (0, 3, None):
            for p in (0.5, 0.9):
                net = skeleton.with_weights([1.0 if e == me else p
                                             for e in range(skeleton.edge_count)])
                avg, length = average_max_fidelity(net), effective_path_length(net)
                assert avg.avg_max_fidelity.hex() == engine_average(net), (me, p)
                assert length.hex() == engine_effective_length(net).hex(), (me, p)
                if me is None:
                    assert avg.avg_max_fidelity == float(uniform_value("ring", 8, None, p))
        assert len(_PROFILES) == 3
        # ME at each link in turn: six new profiles, so the least recently
        # used, the one without ME links, is dropped to keep 8
        for me in range(skeleton.edge_count):
            effective_path_length(skeleton.with_weights([float(e == me) for e in range(8)]))
        assert len(_PROFILES) == 8
        assert (8, tuple((u, v, False) for u, v, _ in skeleton.edges)) not in _PROFILES


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
