import argparse
import hashlib
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qnetfid.cli import CSV_BLOCK_ROWS, PRESET_TABLE, PRESETS, _write_csv, main
from qnetfid.scenarios import SweepResult

REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "references.json"


def run_cli(*args):
    return main(list(args))


class TestGenerate:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "chain4.txt"
        assert run_cli("generate", "--family", "chain", "--n", "4", "--p", "0.5",
                       "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "4"
        assert len(lines) == 4

    def test_stdout_when_no_out(self, capsys):
        assert run_cli("generate", "--family", "ring", "--n", "3", "--p", "0.25") == 0
        captured = capsys.readouterr().out.strip().splitlines()
        assert captured[0] == "3"
        assert len(captured) == 4

    def test_flower_hub_degree(self, tmp_path):
        out = tmp_path / "f.txt"
        run_cli("generate", "--family", "flower", "--k", "2", "--n", "6",
                "--p", "0.5", "-o", str(out))
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 5
        hub_degree = sum(1 for line in lines if "0" in line.split()[:2])
        assert hub_degree == 4

    def test_flower_token(self, capsys):
        assert run_cli("generate", "--family", "flower:2", "--n", "6", "--p", "0.5") == 0
        token = capsys.readouterr().out
        assert run_cli("generate", "--family", "flower", "--k", "2", "--n", "6",
                       "--p", "0.5") == 0
        assert token == capsys.readouterr().out
        assert token.count("\n") == 1 + 5

    def test_me_links(self, capsys):
        assert run_cli("generate", "--family", "chain", "--n", "4", "--p", "0.5",
                       "--me-links", "1") == 0
        out = capsys.readouterr().out
        assert "1 2 1.0" in out

    @pytest.mark.parametrize("extra,named", [
        (("--p", "0.5", "--weights", "0.1,0.2,0.3"), "--p"),
        (("--weights", "0.1,0.2,0.3", "--me-links", "1"), "--me-links"),
        (("--me-links", "1", "--p", "0.5", "--weights", "0.1,0.2,0.3"), "--p --me-links"),
    ])
    def test_one_weight_source(self, extra, named, tmp_path, capsys):
        out = tmp_path / "chain.txt"
        assert run_cli("generate", "--family", "chain", "--n", "4", *extra, "-o", str(out)) == 2
        err = capsys.readouterr().err.rstrip()
        assert err.endswith(f"--weights does not read these options; drop {named}")
        assert not out.exists()

    def test_invalid_spec_exits_2(self, capsys):
        assert run_cli("generate", "--family", "ring", "--n", "2") == 2

    def test_bad_weight_exits_2(self, capsys):
        assert run_cli("generate", "--family", "chain", "--n", "4", "--p", "1.5") == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli("generate", "--family", "chain", "--n", "4", "--nope") == 2


class TestCompute:
    def test_star_text_output(self, capsys):
        assert run_cli("compute", "--family", "star", "--n", "4",
                       "--scenario", "A", "--p", "0.5") == 0
        out = capsys.readouterr().out
        assert "0.687500" in out
        assert "analytic_exact 11/16" in out.splitlines()
        assert "analytic_abs_diff 0" in out.splitlines()

    def test_text_output_prints_each_key_once(self, capsys):
        assert run_cli("compute", "--family", "flower:2", "--n", "6", "--scenario", "A",
                       "--p", "0.5") == 0
        keys = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert len(keys) == len(set(keys)), keys

    def test_pairs_table(self, tmp_path, capsys):
        graph = tmp_path / "chain4.txt"
        run_cli("generate", "--family", "chain", "--n", "4", "--p", "0.5",
                "-o", str(graph))
        capsys.readouterr()
        assert run_cli("compute", "--graph", str(graph), "--pairs") == 0
        out = capsys.readouterr().out
        pair_lines = out.split("pairs:")[1].strip().splitlines()[1:]
        assert len(pair_lines) == 6

    def test_json_document(self, capsys):
        assert run_cli("compute", "--family", "star", "--n", "4", "--scenario", "A",
                       "--p", "0.5", "--eff-length", "--pairs", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["f_avg"] == 0.6875
        assert doc["analytic_exact"] == "11/16"
        assert doc["effective_path_length"] == 1.5
        assert len(doc["pairs"]) == 6

    def test_scenario_c_json(self, capsys):
        assert run_cli("compute", "--family", "ring", "--n", "3", "--scenario", "C",
                       "--samples", "20000", "--seed", "7", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["f_avg_mean"] - 7 / 9) < 5 * doc["std_error"]
        assert doc["rng"].startswith("philox")

    def test_scenario_b_text(self, capsys):
        assert run_cli("compute", "--family", "chain", "--n", "4", "--scenario", "B",
                       "--p", "0.5", "--me-count", "1") == 0
        out = capsys.readouterr().out
        assert "0.756944" in out

    def test_scenario_b_samples_past_the_cap(self, capsys):
        # C(30, 15) > 10^6 placements: the default mode samples 1000 of them
        assert run_cli("compute", "--family", "ring", "--n", "30", "--scenario", "B",
                       "--p", "0.5", "--me-count", "15") == 0
        out = capsys.readouterr().out.splitlines()
        assert "placement_mode sample" in out
        assert "sample_count 1000" in out

    def test_disconnected_graph_exits_4(self, tmp_path, capsys):
        graph = tmp_path / "disc.txt"
        graph.write_text("4\n0 1 0.5\n2 3 0.5\n")
        assert run_cli("compute", "--graph", str(graph)) == 4

    def test_parse_error_exits_4(self, tmp_path, capsys):
        graph = tmp_path / "bad.txt"
        graph.write_text("2\n0 1 junk\n")
        assert run_cli("compute", "--graph", str(graph)) == 4

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert run_cli("compute", "--graph", str(tmp_path / "nope.txt")) == 3

    def test_missing_args_exits_2(self, capsys):
        assert run_cli("compute", "--family", "star", "--n", "4", "--scenario", "A") == 2
        assert run_cli("compute") == 2

    def test_flower_token(self, capsys):
        assert run_cli("compute", "--family", "flower:2", "--n", "6", "--scenario", "A",
                       "--p", "0.5", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analytic_exact"] == "157/240"  # flower(6, 2) at p = 1/2
        assert doc["f_avg"] == pytest.approx(157 / 240, abs=1e-15)

    @pytest.mark.parametrize("extra,named", [
        (("--scenario", "C", "--samples", "10"), "--scenario --samples"),
        (("--p", "0.5"), "--p"),
        (("--family", "star", "--n", "3"), "--family --n"),
        (("--mode", "sample"), "--mode"),
        (("--threads", "2"), "--threads"),
        (("--seed", "1"), "--seed"),
    ])
    def test_graph_with_scenario_options_exits_2(self, extra, named, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("3\n0 1 0.5\n1 2 0.5\n")
        assert run_cli("compute", "--graph", str(graph), *extra) == 2
        assert f"drop {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,extra,named", [
        ("A", ("--p", "0.5", "--me-count", "3"), "--me-count"),
        ("A", ("--p", "0.5", "--mode", "exhaustive"), "--mode"),
        ("A", ("--p", "0.5", "--samples", "10"), "--samples"),
        ("A", ("--p", "0.5", "--mode", "exhaustive", "--me-count", "3"), "--me-count --mode"),
        ("C", ("--me-count", "3"), "--me-count"),
        ("C", ("--mode", "sample"), "--mode"),
        ("C", ("--p", "0.5", "--samples", "10"), "--p"),
        ("A", ("--p", "0.5", "--threads", "3"), "--threads"),
        ("A", ("--p", "0.5", "--threads", "-1"), "--threads"),
        ("B", ("--p", "0.5", "--me-count", "1", "--threads", "2"), "--threads"),
        ("B", ("--p", "0.5", "--me-count", "1", "--pairs"), "--pairs"),
        ("B", ("--p", "0.5", "--me-count", "1", "--eff-length"), "--eff-length"),
        ("B", ("--p", "0.5", "--me-count", "1", "--pairs", "--eff-length"),
         "--pairs --eff-length"),
        ("C", ("--samples", "10", "--pairs"), "--pairs"),
        ("C", ("--samples", "10", "--eff-length"), "--eff-length"),
        ("A", ("--p", "0.5", "--seed", "3"), "--seed"),
        ("A", ("--p", "0.5", "--seed", "0"), "--seed"),
    ])
    def test_scenario_rejects_options_it_does_not_read(self, scenario, extra, named, capsys):
        assert run_cli("compute", "--family", "chain", "--n", "4", "--scenario", scenario,
                       *extra) == 2
        err = capsys.readouterr().err
        assert f"scenario {scenario} " in err and err.rstrip().endswith(f"drop {named}")

    def test_thread_variable_is_read_only_by_scenario_c(self, monkeypatch, capsys):
        monkeypatch.setenv("QNETFID_THREADS", "abc")
        assert run_cli("compute", "--family", "star", "--n", "4", "--p", "0.5") == 0
        assert run_cli("compute", "--family", "star", "--n", "4", "--scenario", "B",
                       "--p", "0.5", "--me-count", "1") == 0
        capsys.readouterr()
        assert run_cli("compute", "--family", "star", "--n", "4", "--scenario", "C",
                       "--samples", "10") == 2
        assert "QNETFID_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert run_cli("compute", "--family", "star", "--n", "4", "--scenario", "C",
                       "--samples", "10", "--threads", "2") == 0

    def test_family_without_n_exits_2(self, capsys):
        assert run_cli("compute", "--family", "chain", "--scenario", "A", "--p", "0.5") == 2
        assert "--family requires --n" in capsys.readouterr().err

    def test_tie_enumeration_cap_exits_5(self, tmp_path, capsys):
        # valid K11 whose nodes 0..9 form an ME clique: every clique ordering
        # ties for the pair (0, 10), far beyond the enumeration cap
        graph = tmp_path / "k11.txt"
        lines = ["11"] + [
            f"{i} {j} {1.0 if j < 10 else 0.5}" for i in range(11) for j in range(i + 1, 11)
        ]
        graph.write_text("\n".join(lines) + "\n")
        assert run_cli("compute", "--graph", str(graph)) == 5
        err = capsys.readouterr().err
        assert "enumeration exceeded cap for pair (0, 10) after 1000001 steps" in err


class TestSweep:
    def test_d_kind_headers_and_values(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("sweep", "--kind", "d", "--family", "complete", "--n", "8",
                       "--no-timestamp", "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "family,n,alpha,p_det,d_km,p,f"
        first = [line for line in lines if not line.startswith("#")][1].split(",")
        # complete graph: f = (1 + p) / 2 per row
        p, f = float(first[5]), float(first[6])
        assert f == pytest.approx((1 + p) / 2, abs=1e-12)

    def test_d_kind_flower_token_keeps_k(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("sweep", "--kind", "d", "--families", "flower:1,flower:3",
                       "--n", "8", "--d-max", "40", "--no-timestamp", "-o", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [row[0] for row in rows] == ["flower:1", "flower:1", "flower:3", "flower:3"]
        assert rows[2][4] == "30"
        assert rows[2][6] == "0.505589937074"  # flower(8, 3), not flower(8, 0)

    def test_d_kind_bare_flower_needs_k(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("sweep", "--kind", "d", "--families", "flower", "--n", "8",
                       "-o", str(out)) == 2
        assert "flower requires k" in capsys.readouterr().err
        assert not out.exists()

    def test_d_kind_far_distances(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("sweep", "--kind", "d", "--d-min", "30", "--d-max", "400",
                       "--d-step", "10", "--no-timestamp", "-o", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert len(rows) == 4 * 38
        assert rows[-1][4] == "400" and rows[-1][6] == "0.5"

    @pytest.mark.parametrize("args,message", [
        (("--d-step", "0"), "--d-step must be positive"),
        (("--d-step", "-10"), "--d-step must be positive"),
        (("--d-min", "60", "--d-max", "40"), "--d-max 40.0 lies below --d-min 60.0"),
    ], ids=["zero-step", "negative-step", "max-below-min"])
    def test_d_kind_bad_range_exits_2(self, args, message, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("sweep", "--kind", "d", *args, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_zero_n_is_validated(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run_cli("sweep", "--kind", "p", "--n", "0", "-o", str(out)) == 2
        assert "requires n >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("compute", "--family", "chain", "--n", "4", "--scenario", "C", "--samples", "0"),
        ("compute", "--family", "chain", "--n", "4", "--scenario", "B", "--p", "0.5",
         "--me-count", "1", "--mode", "sample", "--samples", "0"),
        ("sweep", "--preset", "fig3c", "--samples", "0"),
        ("sweep", "--kind", "pm-grid", "--points", "0"),
    ])
    def test_counts_below_one_exit_2(self, args, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*args) == 2
        assert "must be at least 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_files_follow_umask(self, umask, mode, tmp_path):
        csv, edges = tmp_path / "d.csv", tmp_path / "chain.txt"
        old = os.umask(umask)
        try:
            assert run_cli("sweep", "--kind", "d", "--d-max", "40", "-o", str(csv)) == 0
            assert run_cli("generate", "--family", "chain", "--n", "4", "--p", "0.5",
                           "-o", str(edges)) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(csv.stat().st_mode) == mode
        assert stat.S_IMODE(edges.stat().st_mode) == mode
        assert sorted(path.name for path in tmp_path.iterdir()) == ["chain.txt", "d.csv"]

    def test_fig5_preset(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run_cli("sweep", "--preset", "fig5", "--no-timestamp", "-o", str(out)) == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 4 * 13  # header + 4 families x 13 distances

    def test_p_kind(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("sweep", "--kind", "p", "--families", "chain,flower:2,star",
                       "--n", "6", "--points", "5", "--no-timestamp", "-o", str(out)) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "family,k,n,p,f,f_analytic,abs_diff"
        assert len(lines) == 1 + 3 * 5
        for line in lines[1:]:
            assert float(line.split(",")[6]) <= 1e-10  # engine equals closed form

    def test_m_kind(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("sweep", "--kind", "m", "--family", "star", "--n", "5",
                       "--p", "0.5", "--no-timestamp", "-o", str(out)) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(lines) == 1 + 5  # header + M = 0..4
        last = lines[-1].split(",")
        assert float(last[6]) == 1.0  # all links ME

    def test_m_kind_follows_mode(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("sweep", "--kind", "m", "--family", "ring", "--n", "6", "--mode",
                       "sample", "--samples", "5", "--no-timestamp", "-o", str(out)) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()
                         if not line.startswith("#")]
        assert len(rows) == 7  # M = 0..6
        assert [row[header.index("method")] for row in rows] == ["sample"] * 7
        assert [row[header.index("placements")] for row in rows] == ["5"] * 7

    def test_N_kind_single_case(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run_cli("sweep", "--kind", "N", "--family", "chain", "--p", "0.5",
                       "--m", "0.6", "--n-list", "10,50,100", "--no-timestamp",
                       "-o", str(out)) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        values = [float(line.split(",")[5]) for line in lines[1:]]
        assert values[0] > values[1] > values[2] > 0.5

    def test_N_kind_takes_families(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run_cli("sweep", "--kind", "N", "--families", "star", "--p", "0.5",
                       "--n-list", "10,20", "--no-timestamp", "-o", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [(row[0], row[3]) for row in rows] == [("star", "10"), ("star", "20")]

    def test_N_kind_empty_n_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        assert run_cli("sweep", "--kind", "N", "--n-list", ",", "-o", str(out)) == 2
        assert "holds no node counts" in capsys.readouterr().err
        assert not out.exists()

    def test_user_family_overrides_preset_default(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        assert run_cli("sweep", "--preset", "fig3a", "--family", "star", "--points", "3",
                       "--no-timestamp", "-o", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [row[0] for row in rows] == ["star"] * 3

    def test_family_and_families_are_one_option(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("sweep", "--kind", "p", "--families", "chain", "--family", "star",
                       "--n", "5", "--points", "2", "--no-timestamp", "-o", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [row[0] for row in rows] == ["star"] * 2  # the last one given wins

    def test_mode_analytic_is_gone(self, tmp_path, capsys):
        out = tmp_path / "pm.csv"
        assert run_cli("sweep", "--kind", "pm-grid", "--family", "star", "--n", "5",
                       "--points", "2", "--mode", "analytic", "-o", str(out)) == 2
        assert "invalid choice: 'analytic'" in capsys.readouterr().err
        assert not out.exists()

    def test_fig4_preset_has_benchmark_cases(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli("sweep", "--preset", "fig4", "--no-timestamp", "-o", str(out)) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert len(lines) == 1 + 2 * 4 * 6  # two families x four cases x six sizes

    def test_pm_grid_kind(self, tmp_path):
        out = tmp_path / "pm.csv"
        assert run_cli("sweep", "--kind", "pm-grid", "--family", "star", "--n", "30",
                       "--points", "4", "--no-timestamp", "-o", str(out)) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0].startswith("family,n,k,p,m,m_links,f,avg_advantage")
        assert len(lines) == 1 + 16
        assert all(line.endswith("analytic") for line in lines[1:])

    def test_fig2_preset(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli("sweep", "--preset", "fig2", "--samples", "4000",
                       "--no-timestamp", "-o", str(out)) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        # five families x (7 placements counts + 1 scenario C row)
        assert len(lines) == 1 + 5 * 8

    def test_fig2_preset_follows_mode(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli("sweep", "--preset", "fig2", "--family", "chain,star", "--mode",
                       "sample", "--samples", "5", "--no-timestamp", "-o", str(out)) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()
                         if not line.startswith("#")]
        b_rows = [row for row in rows if row[0] == "B"]
        assert len(b_rows) == 2 * 7
        assert [row[header.index("placements")] for row in b_rows] == ["5"] * 14
        c_rows = [row for row in rows if row[0] == "C"]
        assert [row[header.index("samples")] for row in c_rows] == ["5"] * 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--preset", "fig3c", "--samples", "3000", "--seed", "11",
                "--no-timestamp")
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        content_a = a.read_bytes()
        content_b = b.read_bytes()
        # identical except for the output path recorded in the command line
        assert content_a.replace(str(a).encode(), b"X") == content_b.replace(
            str(b).encode(), b"X"
        )

    def test_seed_changes_mc_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("sweep", "--preset", "fig3c", "--samples", "3000", "--seed", "1",
                "--no-timestamp", "-o", str(a))
        run_cli("sweep", "--preset", "fig3c", "--samples", "3000", "--seed", "2",
                "--no-timestamp", "-o", str(b))
        rows_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        rows_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
        assert rows_a != rows_b

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("sweep", "--kind", "d", "--n", "8", "--d-max", "40",
                "-o", str(out))
        assert any(line.startswith("# timestamp:") for line in out.read_text().splitlines())

    def test_unknown_preset_exits_2_and_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--preset", "fig99", "-o", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("chosen", [
        ("--kind", "p", "--preset", "fig5"),
        ("--preset", "fig5", "--kind", "p"),
        (),
    ])
    def test_kind_and_preset_are_one_required_choice(self, chosen, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("sweep", *chosen, "--n", "4", "--points", "3", "-o", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert ("not allowed with argument" in err) if chosen else ("required" in err)

    @pytest.mark.parametrize("chosen,extra,named", [
        (("--kind", "p"), ("--samples", "10"), "--samples"),
        (("--kind", "m"), ("--threads", "2"), "--threads"),
        (("--kind", "N"), ("--n", "50"), "--n"),
        (("--kind", "d"), ("--threads", "2"), "--threads"),
        (("--kind", "d"), ("--samples", "5", "--p", "0.3", "--points", "3", "--threads", "2"),
         "--p --points --samples --threads"),
        (("--kind", "pm-grid"), ("--p", "0.3"), "--p"),
        (("--preset", "fig2"), ("--points", "3"), "--points"),
        (("--preset", "fig3a"), ("--samples", "10"), "--samples"),
        (("--preset", "fig3b"), ("--m", "0.5"), "--m"),
        (("--preset", "fig3c"), ("--p", "0.5"), "--p"),
        (("--preset", "fig3def"), ("--threads", "2"), "--threads"),
        (("--preset", "fig4"), ("--n", "50"), "--n"),
        (("--preset", "fig5"), ("--mode", "sample"), "--mode"),
    ])
    def test_rejects_options_it_does_not_read(self, chosen, extra, named, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("sweep", *chosen, *extra, "--no-timestamp") == 2
        err = capsys.readouterr().err.rstrip()
        assert err.endswith(f"{' '.join(chosen)} does not read these options; drop {named}")
        assert list(tmp_path.iterdir()) == []

    def test_threads_do_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("sweep", "--preset", "fig3c", "--samples", "9000", "--seed", "5",
                "--no-timestamp")
        assert run_cli(*base, "--threads", "1", "-o", str(a)) == 0
        assert run_cli(*base, "--threads", "4", "-o", str(b)) == 0
        rows_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        rows_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
        assert rows_a == rows_b


# float -> its cell, as 12 significant digits of the shortest round-trip value
SPECIAL_FLOATS = (
    (-0.0, "-0"), (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (5e-324, "4.94065645841e-324"), (1e16, "1e+16"), (0.1 + 0.2, "0.3"),
    (123456789012.5, "123456789012"),
)


class TestCsvWriter:
    """The sweep writer against the documented cell rules: empty for None,
    true/false, 12 significant digits for floats (numpy floats too), str()
    for everything else. Expected text is built here, never by the writer."""

    @staticmethod
    def _cells(i):
        """(value, expected cell) for each column of row i. Rows span three
        blocks: k is None in the first, an int in the second and mixed (None,
        int, np.int64) in the third; y is float, then mixed with np.float64."""
        block = i // CSV_BLOCK_ROWS
        if block == 0:
            k = (None, "")
        elif block == 1:
            k = (48, "48")
        else:
            k = ((None, ""), (7, "7"), (np.int64(9), "9"))[i % 3]
        x = SPECIAL_FLOATS[i % len(SPECIAL_FLOATS)] if i % 2 else (i / 7, format(i / 7, ".12g"))
        y = np.float64(i) / 3 if block == 2 and i % 2 else i / 3
        return (
            (("star", "flower", "50%s")[i % 3],) * 2,
            (i, str(i)),
            k,
            (i % 5 == 0, "true" if i % 5 == 0 else "false"),
            x,
            (y, format(float(y), ".12g")),
            (np.int64(-i), str(-i)),
        )

    def test_cells_follow_the_documented_rules(self, tmp_path):
        count = 2 * CSV_BLOCK_ROWS + CSV_BLOCK_ROWS // 2 + 7
        result = SweepResult(("family", "n", "k", "flag", "x", "y", "z"))
        expected = ["# note: a, b", "family,n,k,flag,x,y,z"]
        for i in range(count):
            cells = self._cells(i)
            result.append(*(value for value, _ in cells))
            expected.append(",".join(text for _, text in cells))
        result.metadata = {"note": "a, b"}
        out = tmp_path / "rules.csv"
        _write_csv(result, str(out))
        assert out.read_bytes().decode() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("brk,escaped", [("\n", r"\n"), ("\r", r"\r"), ("\r\n", r"\r\n")])
    def test_line_break_in_argument_stays_in_its_metadata_line(self, brk, escaped, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--kind", "p", "--family", f"chain{brk}", "--n", "4",
                       "--points", "2", "--no-timestamp", "-o", str(out)) == 0
        lines = out.read_bytes().decode().splitlines()  # splits at \r too
        header = lines.index("family,k,n,p,f,f_analytic,abs_diff")
        assert all(line.startswith("# ") for line in lines[:header])
        assert len(lines) == header + 3
        assert [line for line in lines if f"'chain{escaped}'" in line] == [lines[1]]
        assert lines[1].startswith("# command: sweep --kind p --family ")

    @pytest.mark.parametrize("widths,bad", [
        ({CSV_BLOCK_ROWS + 3: 2}, CSV_BLOCK_ROWS + 3),
        ({CSV_BLOCK_ROWS + 3: 4}, CSV_BLOCK_ROWS + 3),
        ({i: 2 for i in range(CSV_BLOCK_ROWS + 10)}, 0),
    ])
    def test_ragged_row_raises_and_leaves_the_target(self, widths, bad, tmp_path):
        rows = [(i,) * widths.get(i, 3) for i in range(CSV_BLOCK_ROWS + 10)]
        target = tmp_path / "t.csv"
        target.write_bytes(b"old\n")
        message = f"row {bad} has {widths[bad]} values for 3 columns"
        with pytest.raises(ValueError, match=message):
            _write_csv(SweepResult(("a", "b", "c"), rows), str(target))
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_memory_stays_below_the_file_size(self, tmp_path):
        build, reads = PRESET_TABLE["fig3def"]
        result = build(argparse.Namespace(**reads, k=None, seed=0))
        assert len(result.rows) == 30603
        out = tmp_path / "fig3def.csv"
        tracemalloc.start()
        try:
            _write_csv(result, str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_bytes_match_references(preset, tmp_path, monkeypatch):
    # the "# command:" metadata line records -o, so run with a relative path
    monkeypatch.chdir(tmp_path)
    assert run_cli("sweep", "--preset", preset, "--no-timestamp", "--seed", "0",
                   "-o", f"{preset}.csv") == 0
    digest = hashlib.sha256((tmp_path / f"{preset}.csv").read_bytes()).hexdigest()
    expected = json.loads(REFERENCES.read_text())["preset_sha256"][preset]
    assert digest == expected


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert "qnetfid" in capsys.readouterr().out
