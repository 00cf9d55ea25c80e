import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import random_connected_network
from qnetfid import (
    EdgeListParseError,
    GraphError,
    MEPlacement,
    Network,
    TopologySpec,
    TopologySpecError,
    WeightError,
    edge_skeleton,
    generate,
    load_edge_list,
    parse_family,
    save_edge_list,
)


def to_nx(net: Network) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(net.node_count))
    g.add_edges_from((u, v) for u, v, _ in net.edges)
    return g


class TestGenerators:
    def test_chain_shape(self):
        net = generate(TopologySpec.chain(4), 0.5)
        assert net.edges == ((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5))

    def test_star_shape(self):
        net = generate(TopologySpec.star(5), 0.3)
        assert [(u, v) for u, v, _ in net.edges] == [(0, i) for i in range(1, 5)]
        assert sorted(net.degrees(), reverse=True) == [4, 1, 1, 1, 1]

    def test_flower_shape(self):
        # four spokes at the hub plus a one-link stem continuation
        net = generate(TopologySpec.flower(6, 2), 0.5)
        assert net.edge_count == 5
        assert max(net.degrees()) == 4
        assert (4, 5, 0.5) in net.edges

    def test_ring_triangle(self):
        net = generate(TopologySpec.ring(3), 0.5)
        assert net.edge_count == 3
        assert net.degrees() == [2, 2, 2]

    @pytest.mark.parametrize(
        "spec,expected_edges",
        [
            (TopologySpec.chain(6), 5),
            (TopologySpec.star(6), 5),
            (TopologySpec.flower(6, 1), 5),
            (TopologySpec.ring(6), 6),
            (TopologySpec.complete(6), 15),
        ],
    )
    def test_edge_counts(self, spec, expected_edges):
        assert generate(spec, 0.7).edge_count == expected_edges

    def test_chain_degree_sequence(self):
        net = generate(TopologySpec.chain(6), 0.5)
        assert sorted(net.degrees()) == [1, 1, 2, 2, 2, 2]

    @pytest.mark.parametrize("n", [4, 5, 7, 9])
    def test_flower_endpoints_are_chain_and_star(self, n):
        chain = to_nx(generate(TopologySpec.chain(n), 0.5))
        star = to_nx(generate(TopologySpec.star(n), 0.5))
        first = to_nx(generate(TopologySpec.flower(n, 0), 0.5))
        last = to_nx(generate(TopologySpec.flower(n, n - 3), 0.5))
        assert nx.is_isomorphic(first, chain)
        assert nx.is_isomorphic(last, star)

    def test_spec_validation(self):
        with pytest.raises(TopologySpecError):
            TopologySpec.ring(2)
        with pytest.raises(TopologySpecError):
            TopologySpec.chain(1)
        with pytest.raises(TopologySpecError):
            TopologySpec.flower(6, 4)  # k > n-3
        with pytest.raises(TopologySpecError):
            TopologySpec("chain", 4, k=1)
        with pytest.raises(TopologySpecError):
            TopologySpec("blob", 4)
        with pytest.raises(TopologySpecError):
            TopologySpec("custom")

    @pytest.mark.parametrize("n", [None, 4.0, "5"], ids=["none", "float", "str"])
    def test_spec_rejects_non_integer_n(self, n):
        with pytest.raises(TopologySpecError, match="must be integers"):
            TopologySpec("chain", n)

    def test_spec_rejects_non_integer_k(self):
        with pytest.raises(TopologySpecError, match="must be integers"):
            TopologySpec("flower", 7, k=2.0)

    def test_spec_stores_numpy_ints_as_int(self):
        spec = TopologySpec("flower", np.int64(7), k=np.int32(2))
        assert type(spec.n) is int and type(spec.k) is int
        assert spec == TopologySpec.flower(7, 2)
        assert generate(TopologySpec("chain", np.int64(5)), 0.5).node_count == 5

    def test_parse_family_tokens(self):
        assert parse_family("chain", 5) == TopologySpec.chain(5)
        assert parse_family(" star ", 5, k=2) == TopologySpec.star(5)  # k is flower-only
        assert parse_family("flower:3", 8) == TopologySpec.flower(8, 3)
        assert parse_family("flower:3", 8, k=1) == TopologySpec.flower(8, 3)
        assert parse_family("flower", 8, k=1) == TopologySpec.flower(8, 1)
        for token in ("flower", "flower:x", "chain:2", "blob"):
            with pytest.raises(TopologySpecError):
                parse_family(token, 8)


class TestWeights:
    def test_explicit_list(self):
        net = generate(TopologySpec.chain(4), [0.1, 0.2, 0.3])
        assert [p for _, _, p in net.edges] == [0.1, 0.2, 0.3]

    def test_length_mismatch(self):
        with pytest.raises(WeightError):
            generate(TopologySpec.chain(4), [0.1, 0.2])

    def test_out_of_range(self):
        with pytest.raises(WeightError):
            generate(TopologySpec.chain(4), 1.2)
        with pytest.raises(WeightError):
            generate(TopologySpec.chain(4), [0.5, -0.1, 0.5])

    def test_me_placement(self):
        net = generate(TopologySpec.chain(4), MEPlacement((1,), 0.5))
        assert [p for _, _, p in net.edges] == [0.5, 1.0, 0.5]

    def test_me_placement_errors(self):
        with pytest.raises(WeightError):
            generate(TopologySpec.chain(4), MEPlacement((3,), 0.5))
        with pytest.raises(WeightError):
            generate(TopologySpec.chain(4), MEPlacement((1, 1), 0.5))

    def test_weights_required(self):
        with pytest.raises(WeightError):
            generate(TopologySpec.chain(4))


class TestNetworkInvariants:
    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Network(3, ((0, 0, 0.5), (0, 1, 0.5), (1, 2, 0.5)))

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Network(3, ((0, 1, 0.5), (1, 0, 0.4), (1, 2, 0.5)))

    def test_weight_range(self):
        with pytest.raises(GraphError, match="weight out of range"):
            Network(2, ((0, 1, 1.5),))
        with pytest.raises(GraphError, match="weight out of range"):
            Network(2, ((0, 1, math.nan),))

    def test_disconnected(self):
        with pytest.raises(GraphError, match="not connected"):
            Network(4, ((0, 1, 0.5), (2, 3, 0.5)))

    def test_node_range(self):
        with pytest.raises(GraphError):
            Network(3, ((0, 3, 0.5), (0, 1, 0.5), (1, 2, 0.5)))

    def test_canonical_ordering(self):
        net = Network(3, ((2, 1, 0.3), (1, 0, 0.2), (0, 2, 0.1)))
        assert net.edges == ((0, 1, 0.2), (0, 2, 0.1), (1, 2, 0.3))


class TestEdgeListIO:
    def test_parse_example(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("4\n0 1 0.5\n1 2 0.5\n2 3 0.5\n")
        net = load_edge_list(path)
        assert net == generate(TopologySpec.chain(4), 0.5)

    def test_comments_and_crlf(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"# a comment\r\n3\r\n\r\n0 1 0.25\r\n1 2 1\r\n")
        net = load_edge_list(path)
        assert net.edges == ((0, 1, 0.25), (1, 2, 1.0))

    def test_weight_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1 1.2\n")
        with pytest.raises(EdgeListParseError, match="weight out of range") as err:
            load_edge_list(path)
        assert err.value.line == 2

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 0.5\nnonsense here\n")
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list(path)

    def test_disconnected_rejected(self, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("4\n0 1 0.5\n2 3 0.5\n")
        with pytest.raises(GraphError, match="not connected"):
            load_edge_list(path)

    def test_round_trip_complete(self, tmp_path):
        net = generate(TopologySpec.complete(5), 0.37)
        path = tmp_path / "c5.txt"
        save_edge_list(net, path)
        assert load_edge_list(path) == net

    def test_generate_custom(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(generate(TopologySpec.ring(5), 0.5), path)
        net = generate(TopologySpec.custom(str(path)))
        assert net.edge_count == 5

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 9), rnd=st.randoms(use_true_random=False))
    def test_round_trip_random(self, tmp_path_factory, n, rnd):
        net = random_connected_network(rnd, n)
        path = tmp_path_factory.mktemp("io") / "net.txt"
        save_edge_list(net, path)
        assert load_edge_list(path) == net


def test_skeleton_order_is_me_mask_contract():
    # ME placement indices refer to this documented order
    assert edge_skeleton(TopologySpec.ring(4)) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert edge_skeleton(TopologySpec.flower(6, 2)) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (4, 5),
    ]
