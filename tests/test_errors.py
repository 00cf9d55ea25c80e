"""Error classes, messages and exit codes of bad inputs.

A bad input raises one class with one message whichever route it takes:
a weight outside [0, 1] is a ``WeightError`` reading ``weight out of
range: ...`` on the closed forms as on the engine, and so is an ME count
outside [0, L]. Every test here names the class and the message, and the
exit code or line number where there is one.
"""

import time

import pytest

from qnetfid import (
    EdgeListParseError,
    GraphError,
    Network,
    TopologySpec,
    TopologySpecError,
    WeightError,
    advantage_region,
    average_max_fidelity,
    effective_path_length,
    generate,
    large_N_limit_check,
    load_edge_list,
    me_value,
    path_fidelity_term,
    run_scenario_A,
    run_scenario_B,
    run_scenario_C,
    uniform_value,
)
from qnetfid import scenarios
from qnetfid.analytic import me_grid
from qnetfid.cli import GRID_CAP, _unit_grid, main

BAD_WEIGHTS = [(1.5, "weight out of range: 1.5"), (float("nan"), "weight out of range: nan")]


def run_cli(*args):
    return main(list(args))


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestOneClassPerBadInput:
    @pytest.mark.parametrize("p,message", BAD_WEIGHTS, ids=["above-one", "nan"])
    @pytest.mark.parametrize("call", [
        lambda p: advantage_region(TopologySpec.chain(10), [p], [0.5]),
        lambda p: advantage_region(TopologySpec.ring(6), [p], [0.5]),
        lambda p: me_value("chain", 10, None, 2, p),
        lambda p: me_grid("chain", 10, None, [2], [p]),
        lambda p: large_N_limit_check("chain", p, 0.5, [10]),
    ], ids=["region-chain", "region-ring", "me_value", "me_grid", "large_N"])
    def test_bad_weight_is_a_weight_error(self, call, p, message):
        with pytest.raises(WeightError) as info:
            call(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("call,message", [
        (lambda: run_scenario_B(TopologySpec.ring(6), 0.5, 7), "m_links must lie in [0, 6], got 7"),
        (lambda: me_value("star", 5, None, 9, 0.5), "m_links must lie in [0, 4], got 9"),
        (lambda: advantage_region(TopologySpec.chain(10), [0.5], [1.5]),
         "m_links must lie in [0, 9], got 14"),
    ], ids=["ring", "me_value", "region-chain"])
    def test_bad_me_count_is_a_weight_error(self, call, message):
        with pytest.raises(WeightError) as info:
            call()
        assert str(info.value) == message

    def test_sweep_N_bad_weight_exits_2(self, tmp_path, capsys):
        out = tmp_path / "N.csv"
        assert run_cli("sweep", "--kind", "N", "--n-list", "10", "--p", "1.5", "-o", str(out)) == 2
        assert one_error_line(capsys) == "error: weight out of range: 1.5"
        assert not out.exists()


class TestDistanceStep:
    @pytest.mark.parametrize("step,message", [
        ("1e-9", "--d-step 1e-09 gives more than 1000000 distances"),
        ("inf", "--d-step must be positive and finite, got inf"),
    ], ids=["fine", "inf"])
    def test_bad_step_exits_2_at_once(self, step, message, tmp_path, capsys):
        out = tmp_path / "d.csv"
        start = time.perf_counter()
        assert run_cli("sweep", "--kind", "d", "--d-step", step, "-o", str(out)) == 2
        assert time.perf_counter() - start < 2.0
        assert one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    def test_default_grid_keeps_thirteen_distances(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("sweep", "--kind", "d", "--family", "chain", "--no-timestamp",
                       "-o", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [row[4] for row in rows] == [str(d) for d in range(30, 151, 10)]


class TestPointCount:
    @pytest.mark.parametrize("kind", ["p", "pm-grid"])
    def test_too_many_points_exit_2_at_once(self, kind, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        start = time.perf_counter()
        assert run_cli("sweep", "--kind", kind, "--points", "1000001", "-o", str(out)) == 2
        assert time.perf_counter() - start < 2.0
        assert one_error_line(capsys) == (
            "error: --points 1000001 gives more than 1000000 grid points")
        assert list(tmp_path.iterdir()) == []

    def test_grid_cap_is_inclusive(self):
        grid = _unit_grid(GRID_CAP)
        assert GRID_CAP == 10**6 and len(grid) == GRID_CAP
        assert (grid[0], grid[-1]) == (0.0, 1.0)


class TestOneNodeGraph:
    @pytest.mark.parametrize("run", [
        lambda spec: run_scenario_A(spec, 0.5),
        lambda spec: run_scenario_B(spec, 0.5, 0),
        lambda spec: run_scenario_C(spec, 10),
    ], ids=["A", "B", "C"])
    def test_every_scenario_raises_one_graph_error(self, run, tmp_path):
        graph = tmp_path / "one.txt"
        graph.write_text("1\n")
        with pytest.raises(GraphError) as info:
            run(TopologySpec.custom(str(graph)))
        assert str(info.value) == "network average needs at least 2 nodes"


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["minus-one", "two-to-128"])
    @pytest.mark.parametrize("call", [
        lambda seed: run_scenario_C(TopologySpec.star(5), 10, seed=seed),
        lambda seed: run_scenario_B(TopologySpec.ring(6), 0.5, 2, samples=10, seed=seed),
    ], ids=["C", "B-sample"])
    def test_seed_out_of_range_is_named(self, call, seed, monkeypatch):
        monkeypatch.setattr(scenarios, "EXHAUSTIVE_CAP", 0)  # B samples its 15 placements
        with pytest.raises(ValueError) as info:
            call(seed)
        assert str(info.value) == f"seed must lie in [0, 2**128), got {seed}"

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_are_accepted(self, seed, monkeypatch):
        monkeypatch.setattr(scenarios, "EXHAUSTIVE_CAP", 0)
        assert run_scenario_C(TopologySpec.star(5), 10, seed=seed).sample_count == 10
        est = run_scenario_B(TopologySpec.ring(6), 0.5, 2, samples=10, seed=seed)
        assert (est.mode, est.sample_count) == ("sample", 10)

    def test_exhaustive_placements_ignore_the_seed(self):
        spec = TopologySpec.ring(6)
        assert run_scenario_B(spec, 0.5, 2, seed=-1) == run_scenario_B(spec, 0.5, 2, seed=0)

    @pytest.mark.parametrize("scenario", [
        ("--scenario", "C", "--samples", "10"),
        ("--scenario", "B", "--p", "0.5", "--me-count", "2"),
    ], ids=["C", "B-sample"])
    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["minus-one", "two-to-128"])
    def test_cli_seed_out_of_range_exits_2(self, scenario, seed, capsys, monkeypatch):
        monkeypatch.setattr(scenarios, "EXHAUSTIVE_CAP", 0)  # B samples its 6 placements
        assert run_cli("compute", "--family", "star", "--n", "5", *scenario, "--seed", seed) == 2
        assert one_error_line(capsys) == f"error: seed must lie in [0, 2**128), got {seed}"


class TestEdgeListErrors:
    @pytest.mark.parametrize("text,line,message", [
        ("abc\n0 1 0.5\n", 1, "expected node count, got 'abc'"),
        ("# header\n0\n", 2, "node count must be positive: 0"),
        ("2\na 1 0.5\n", 2, "node ids must be integers: 'a 1 0.5'"),
        ("", 1, "empty edge-list file"),
        ("# only a comment\n\n", 2, "empty edge-list file"),
    ], ids=["count-not-integer", "count-zero", "ids-not-integers", "empty", "comments-only"])
    def test_bad_file_names_its_line_and_exits_4(self, text, line, message, tmp_path, capsys):
        graph = tmp_path / "bad.txt"
        graph.write_text(text)
        with pytest.raises(EdgeListParseError) as info:
            load_edge_list(graph)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"
        assert run_cli("compute", "--graph", str(graph)) == 4
        assert one_error_line(capsys) == f"error: line {line}: {message}"


class TestUsageErrors:
    @pytest.mark.parametrize("extra,message", [
        (("--me-links", "0"), "--me-links requires --p for the remaining links"),
        ((), "provide --p, --weights, or --me-links with --p"),
    ], ids=["me-links-without-p", "no-weight-source"])
    def test_generate_without_weights_exits_2(self, extra, message, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--family", "chain", "--n", "4", *extra, "-o", str(out)) == 2
        assert one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

    def test_scenario_B_without_me_count_exits_2(self, capsys):
        assert run_cli("compute", "--family", "chain", "--n", "4", "--scenario", "B",
                       "--p", "0.5") == 2
        assert one_error_line(capsys) == "error: scenario B requires --p and --me-count"

    def test_custom_family_takes_no_weights(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("2\n0 1 0.5\n")
        with pytest.raises(TopologySpecError) as info:
            generate(TopologySpec.custom(str(graph)), 0.5)
        assert str(info.value) == "custom family takes its weights from the file"

    @pytest.mark.parametrize("call,message", [
        (lambda: run_scenario_C(TopologySpec.star(5), 0), "sample_count must be >= 1"),
        (lambda: run_scenario_B(TopologySpec.ring(30), 0.5, 15, samples=0),
         "samples must be >= 1"),
        # C(6, 2) = 15 placements run exhaustively, yet samples is checked first
        (lambda: run_scenario_B(TopologySpec.ring(6), 0.5, 2, samples=0),
         "samples must be >= 1"),
        (lambda: advantage_region(TopologySpec.ring(6), [0.5], [0.3], samples=-5),
         "samples must be >= 1"),
        # trees are closed forms that never read samples, yet it is checked
        (lambda: advantage_region(TopologySpec.star(6), [0.5], [0.3], samples=0),
         "samples must be >= 1"),
    ], ids=["C", "B-sample", "B-exhaustive", "region-ring", "region-tree"])
    def test_zero_samples(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("measure,message", [
        (average_max_fidelity, "network average needs at least 2 nodes"),
        (effective_path_length, "effective path length needs at least 2 nodes"),
    ], ids=["average", "effective-length"])
    def test_one_node_network(self, measure, message):
        with pytest.raises(GraphError) as info:
            measure(Network(1, ()))
        assert str(info.value) == message

    def test_negative_path_length(self):
        with pytest.raises(ValueError) as info:
            path_fidelity_term(-1, 0.5)
        assert str(info.value) == "path length must be non-negative"

    def test_bool_weight_is_a_type_error(self):
        with pytest.raises(TypeError) as info:
            uniform_value("chain", 4, None, True)
        assert str(info.value) == "p must be a number"
