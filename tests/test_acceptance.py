"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Three criteria assert values that the test derives from the model
itself, independently of the program's output: the Ring(4) random-weight
mean 119/162 in criterion 2 (exact expectations of the best arc per pair),
the large-N star flip bracketed by p = 0.57 and 0.58 in criterion 8 (the
root of the star's closed form, which tends to 1/sqrt(3) from below), and
the star above the tie-weighted ring at n = 8 in criterion 9
(star - ring = p^2 (2 - p - p^2) / 8). The average weights a pair by its
number of tied best paths (README "Conventions"), so it is not monotone in
a single link weight; criterion 10 asserts monotonicity for each pair's
fidelity, for the plain pair mean, and for the weighted average whenever no
pair's tie count changes.
"""

import random
import time
from fractions import Fraction
from math import factorial, sqrt

from graphgen import plain_pair_mean, random_connected_network
from oracles import brute_force_pair_fidelity, effective_path_length_fd
from qnetfid import (
    TopologySpec,
    average_max_fidelity,
    decoherence_sweep,
    decoherence_weight,
    DecoherenceParams,
    effective_path_length,
    generate,
    me_value,
    pair_max_fidelity,
    run_scenario_B,
    run_scenario_C,
    uniform_value,
)
from qnetfid.cli import main as cli_main

HALF = Fraction(1, 2)
THRESHOLD = 2 / 3


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} — {detail}")


def expected_max_of_products(a: int, b: int) -> Fraction:
    """E[max(X, Y)] for independent products X, Y of a and b U[0, 1) weights.

    P(product of k uniforms <= t) = t * sum_{j<k} (-ln t)^j / j!, and
    E[max(X, Y)] = 1 - int_0^1 P(X <= t) P(Y <= t) dt, where
    int_0^1 t^2 (-ln t)^m dt = m! / 3^(m+1).
    """
    below = sum(
        Fraction(factorial(i + j), factorial(i) * factorial(j) * 3 ** (i + j + 1))
        for i in range(a)
        for j in range(b)
    )
    return 1 - below


def test_criterion_01_table_exact_values():
    expected = {
        "chain": Fraction(65, 96),
        "star": Fraction(66, 96),
        "ring": Fraction(66, 96),
        "complete": Fraction(72, 96),
    }
    start = time.perf_counter()
    problems = []
    for family, exact in expected.items():
        rational = uniform_value(family, 4, None, HALF)
        if rational != exact:
            problems.append(f"{family} rational {rational} != {exact}")
        double = float(uniform_value(family, 4, None, 0.5))
        if abs(double - float(exact)) > 1e-12:
            problems.append(f"{family} double off by {abs(double - float(exact)):.2e}")
        engine = average_max_fidelity(generate(TopologySpec(family, 4), 0.5))
        if abs(engine.avg_max_fidelity - float(exact)) > 1e-12:
            problems.append(
                f"{family} engine {engine.avg_max_fidelity} != {float(exact)}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.3f}s >= 1s")
    report(1, not problems, f"table values exact, engine <= 1e-12 ({elapsed:.3f}s)")
    assert not problems, problems


def test_criterion_02_table_scenario_c():
    # Ring(4) under i.i.d. U[0, 1) weights: an adjacent pair takes the better
    # of its link and the three-link arc, an opposite pair the better of two
    # two-link arcs. Weights tie with probability 0, so no pair is weighted.
    adjacent = (1 + expected_max_of_products(1, 3)) / 2
    opposite = (1 + expected_max_of_products(2, 2)) / 2
    assert (adjacent, opposite) == (Fraction(41, 54), Fraction(37, 54))
    ring = (4 * adjacent + 2 * opposite) / 6
    assert ring == Fraction(119, 162)
    targets = {"chain": 0.6771, "star": 0.6875, "ring": ring, "complete": 0.8000}
    start = time.perf_counter()
    failures = []
    details = []
    for family, target in targets.items():
        spec = TopologySpec(family, 4)
        est = run_scenario_C(spec, 1_000_000, seed=0, threads=1)
        err = abs(est.mean - float(target))
        ok = err <= 3 * est.std_error
        details.append(
            f"{family} {est.mean:.5f} (target {float(target):.6f}, "
            f"{err / est.std_error:.1f} se)"
        )
        if not ok:
            failures.append(
                f"{family}: mean {est.mean:.6f} vs target {target} is "
                f"{err / est.std_error:.1f} standard errors away"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 2min")
    report(2, not failures, "; ".join(details) + f" ({elapsed:.1f}s)")
    assert not failures, "Scenario C reference-value mismatches: " + "; ".join(failures)


def test_criterion_03_triangle_non_commutativity():
    est = run_scenario_C(TopologySpec.ring(3), 1_000_000, seed=0, threads=1)
    err = abs(est.mean - 7 / 9)
    ok = err <= 3 * est.std_error and est.mean > 3 / 4
    report(
        3, ok,
        f"ring(3) mean {est.mean:.6f} within {err / est.std_error:.2f} se of 7/9, "
        f"> 3/4 by {est.mean - 0.75:.4f}",
    )
    assert err <= 3 * est.std_error
    assert est.mean > 3 / 4


def test_criterion_04_oracle_equivalence():
    rnd = random.Random(20260809)
    start = time.perf_counter()
    pairs_checked = 0
    for trial in range(500):
        n = rnd.randrange(2, 9)
        density = 0.6 if n <= 6 else 0.25
        net = random_connected_network(rnd, n, extra_edge_prob=density)
        for s in range(n):
            for t in range(s + 1, n):
                engine = pair_max_fidelity(net, s, t)
                oracle = brute_force_pair_fidelity(net, s, t)
                assert engine.product == oracle.product, (
                    f"trial {trial}: engine {engine.product!r} != "
                    f"oracle {oracle.product!r} on {net.edges} pair ({s}, {t})"
                )
                pairs_checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(4, ok, f"500 graphs, {pairs_checked} pairs bitwise equal ({elapsed:.1f}s)")
    assert ok, f"runtime {elapsed:.1f}s >= 1min"


def test_criterion_05_me_closed_forms():
    start = time.perf_counter()
    checked = 0
    for p in (0.1, 0.5, 0.9):
        for n in range(2, 9):
            links = n - 1
            cases = [("chain", None), ("star", None)]
            cases += [("flower", k) for k in range(0, n - 2)]
            for family, k in cases:
                spec = TopologySpec(family, n, k=k)
                for m_links in range(links + 1):
                    est = run_scenario_B(spec, p, m_links)
                    closed = float(me_value(family, n, k, m_links, p))
                    assert abs(est.mean - closed) <= 1e-10, (
                        f"{family}(n={n}, k={k}) M={m_links} p={p}: "
                        f"engine {est.mean} vs closed form {closed}"
                    )
                    checked += 1
    exact = me_value("chain", 4, None, 1, HALF)
    assert exact == Fraction(109, 144)
    assert abs(float(exact) - 0.7569444444444444) < 1e-15
    elapsed = time.perf_counter() - start
    report(5, True, f"{checked} placement-averaged cases <= 1e-10 ({elapsed:.1f}s)")


def test_criterion_06_derivative_relation():
    h = 1e-4
    specs = []
    for n in range(2, 11):
        specs.append(TopologySpec.chain(n))
        specs.append(TopologySpec.star(n))
        specs.append(TopologySpec.complete(n))
        specs.extend(TopologySpec.flower(n, k) for k in range(0, n - 2))
        if n >= 3:
            specs.append(TopologySpec.ring(n))
    worst = 0.0
    for spec in specs:
        net = generate(spec, 0.5)
        combinatorial = effective_path_length(net)
        fd = effective_path_length_fd(net, h=h, order=1)
        gap = abs(fd - combinatorial)
        worst = max(worst, gap)
        assert gap <= 1e-3, f"{spec}: |{fd} - {combinatorial}| = {gap:.2e}"
    chain4 = effective_path_length(generate(TopologySpec.chain(4), 0.5))
    assert chain4 == 10 / 6
    report(6, True, f"{len(specs)} topologies, worst fd gap {worst:.2e}; chain(4) = 10/6")


def test_criterion_07_seven_node_ordering():
    ladder = [("chain", None), ("flower", 1), ("flower", 2), ("flower", 3), ("star", None)]
    values = {}
    for m_links in range(7):
        row = []
        for family, k in ladder:
            est = run_scenario_B(TopologySpec("flower", 7, k=k) if k else TopologySpec(family, 7),
                                 0.5, m_links)
            closed = float(me_value(family, 7, k, m_links, 0.5))
            assert abs(est.mean - closed) <= 1e-10
            row.append(est.mean)
        values[m_links] = row
        assert all(a <= b + 1e-12 for a, b in zip(row, row[1:])), (
            f"M={m_links}: not non-decreasing along chain->flowers->star: {row}"
        )
    assert all(v < THRESHOLD for v in values[0]), f"M=0 row not all below 2/3: {values[0]}"
    for m_links in range(2, 7):
        assert all(v > THRESHOLD for v in values[m_links]), (
            f"M={m_links} row not all above 2/3: {values[m_links]}"
        )
    advantaged = [i for i, v in enumerate(values[1]) if v > THRESHOLD]
    assert advantaged == [2, 3, 4], (
        f"M=1 classification {advantaged} (expected flower(2), flower(3), star)"
    )
    report(
        7, True,
        "M=0..6 ordering holds; M=0 all < 2/3; M>=2 all > 2/3; "
        "M=1 advantage exactly {flower2, flower3, star} (matches the prose)",
    )


def test_criterion_08_large_n_behaviour():
    failures = []
    f50 = float(me_value("chain", 50, None, round(0.6 * 49), 0.5))
    f500 = float(me_value("chain", 500, None, round(0.6 * 499), 0.5))
    if not f500 - 0.5 < f50 - 0.5:
        failures.append(f"chain gap did not shrink: {f500 - 0.5} vs {f50 - 0.5}")
    if not f500 < 0.52:
        failures.append(f"chain F(500) = {f500} >= 0.52")

    # Star of N nodes without ME links: N - 1 hub pairs at p and C(N - 1, 2)
    # leaf pairs at p^2, so F = 1/2 + (2p + (N - 2) p^2) / (2N). F = 2/3 at
    # the positive root of (N - 2) p^2 + 2p - N/3, which tends to 1/sqrt(3)
    # from below as N grows.
    big = 10_000
    flip = (-1 + sqrt(1 + (big - 2) * big / 3)) / (big - 2)
    if not 0.57 < flip < 1 / sqrt(3) < 0.58:
        failures.append(f"star flip {flip:.6f} not in (0.57, 1/sqrt(3) < 0.58)")
    for p in (Fraction(57, 100), Fraction(58, 100), Fraction(60, 100)):
        exact = HALF + (2 * p + (big - 2) * p**2) / (2 * big)
        if me_value("star", big, None, 0, p) != exact:
            failures.append(f"star me_value at p={p} is not {exact}")
    star57 = float(me_value("star", big, None, 0, 0.57))
    star58 = float(me_value("star", big, None, 0, 0.58))
    star60 = float(me_value("star", big, None, 0, 0.60))
    if not star57 <= THRESHOLD:
        failures.append(f"star at p=0.57 has F = {star57:.6f} > 2/3")
    if not star58 > THRESHOLD:
        failures.append(f"star at p=0.58 has F = {star58:.6f} <= 2/3")
    if not star60 > THRESHOLD:
        failures.append(f"star at p=0.60 has F = {star60:.6f} <= 2/3")
    report(
        8, not failures,
        f"chain F(50)={f50:.4f} -> F(500)={f500:.4f}; star F(0.57)={star57:.4f}, "
        f"F(0.58)={star58:.4f}, F(0.60)={star60:.4f} vs 2/3; "
        f"flip at p={flip:.6f} < 1/sqrt(3)",
    )
    assert not failures, failures


def test_criterion_09_decoherence_sweep():
    result = decoherence_sweep(
        families=("chain", "star", "ring", "complete"),
        n=8, alpha=0.46, p_det=1.0, d_values=tuple(float(d) for d in range(30, 151, 10)),
    )
    failures = []
    series = {}
    weights = []
    for row in result.rows:
        series.setdefault(row[0], []).append(row[-1])
        if row[0] == "star":
            weights.append(row[5])
    for family, values in series.items():
        if any(b >= a for a, b in zip(values, values[1:])):
            failures.append(f"{family} not monotonically decreasing")
    for hi, lo in (("complete", "star"), ("star", "ring"), ("ring", "chain")):
        bad = [i for i, (h, l) in enumerate(zip(series[hi], series[lo])) if h < l]
        if bad:
            d = 30 + 10 * bad[0]
            failures.append(
                f"{hi} >= {lo} fails at d={d} ({series[hi][bad[0]]:.6f} < "
                f"{series[lo][bad[0]]:.6f})"
            )
    # Tie-weighted Ring(8): 8 pairs each at 1, 2 and 3 hops, and 4 opposite
    # pairs whose two tied arcs weigh them twice, so F = 1/2 + (p + p^2 + p^3
    # + p^4) / 8 over weight 32. Star(8): 7 hub pairs at p and 21 leaf pairs
    # at p^2, F = 1/2 + (p + 3 p^2) / 8. Hence star - ring = p^2 (2 - p - p^2) / 8.
    for d, p, star, ring in zip(range(30, 151, 10), weights, series["star"], series["ring"]):
        gap = -(p**2) * (p + p**2 - 2) / 8
        if abs((star - ring) - gap) > 1e-15:
            failures.append(
                f"star - ring at d={d} is {star - ring:.3e}, not p^2(2 - p - p^2)/8 "
                f"= {gap:.3e}"
            )
    p30 = decoherence_weight(DecoherenceParams(0.46, 1.0, 30.0))
    if abs(p30 - 10 ** -1.38) > 1e-12:
        failures.append(f"d=30 maps to {p30}, not 10^-1.38")
    detail = (
        "monotone per topology; complete >= star >= ring >= chain at every d; "
        f"star - ring = p^2(2 - p - p^2)/8 ({series['star'][0] - series['ring'][0]:.3e} "
        f"at d=30); d=30 -> p = 10^-1.38 ({p30:.6f})"
    )
    if failures:
        detail += "; but " + failures[0]
    report(9, not failures, detail)
    assert not failures, failures


def test_criterion_10_property_suites(tmp_path):
    rnd = random.Random(99)
    for _ in range(100):
        net = random_connected_network(rnd, rnd.randrange(2, 8), extra_edge_prob=0.4)
        for rec in average_max_fidelity(net).pair_records:
            assert 0.5 <= rec.fidelity <= 1.0

    for trial in range(200):
        net = random_connected_network(rnd, rnd.randrange(3, 8), extra_edge_prob=0.4)
        before = average_max_fidelity(net)
        weights = [w for _, _, w in net.edges]
        idx = rnd.randrange(len(weights))
        weights[idx] = min(1.0, weights[idx] + rnd.uniform(0.01, 0.5))
        after = average_max_fidelity(net.with_weights(weights))
        for a, b in zip(before.pair_records, after.pair_records):
            assert b.fidelity >= a.fidelity
        # a raise can create a tie that weighs a worse pair more, so the
        # weighted average is monotone only while no tie count changes
        assert plain_pair_mean(after) >= plain_pair_mean(before), f"trial {trial}"
        if all(
            a.degeneracy == b.degeneracy
            for a, b in zip(before.pair_records, after.pair_records)
        ):
            assert after.avg_max_fidelity >= before.avg_max_fidelity, f"trial {trial}"

    out = tmp_path / "determinism.csv"
    args = ["sweep", "--preset", "fig3c", "--samples", "5000", "--seed", "3",
            "--no-timestamp", "-o", str(out)]
    assert cli_main(args) == 0
    first = out.read_bytes()
    assert cli_main(args) == 0
    assert out.read_bytes() == first
    report(10, True, "range, 200 monotonicity trials, byte-identical reruns")
