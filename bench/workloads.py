"""The benchmark's workloads: inputs made from the seed, the timed case list,
and the output checks.

Every case calls qnetfid's public API through module attributes looked up at
call time, so the traced pass sees the wrapped functions. Checks compare
each output with a second, independent source: closed forms, a second
implementation, a direct count, stored exhaustive references, or the
recorded bytes of the preset CSVs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from math import comb, fsum
from typing import Callable

import numpy as np

import qnetfid

HERE = os.path.dirname(os.path.abspath(__file__))

ABS_TOL = 1e-12
SIGMAS = 5.0


@dataclass
class Prepared:
    """One pass: the timed cases and what to do with their outputs.

    ``cases`` holds (name, zero-argument callable); ``work`` gives the
    work units of the pass from the outputs; ``layer_counts`` adds
    workload-side counts to the traced pass.
    """

    cases: list[tuple[str, Callable[[], object]]]
    check: Callable[[list], list[tuple[str, bool, str]]]
    work: Callable[[list], int]
    layer_counts: Callable[[list], dict[str, float]] = lambda outputs: {}
    cleanup: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one work unit is, for the throughput line
    build: Callable[[int, str], Prepared]
    imports: tuple[str, ...] = ()  # modules to load before tracing starts


def references() -> dict:
    """Stored references, written by bench/make_refs.py."""
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _close(name: str, value: float, expected: float, tol: float = ABS_TOL):
    diff = abs(value - expected)
    return name, diff <= tol, f"value {value!r}, expected {expected!r}, diff {diff:.3g}"


# --- engine ------------------------------------------------------------------
#
# Exact max-product engine on mid-sized graphs. Tie counting dominates its
# time, so a faster counting pass must show here; the Monte Carlo kernel is
# never called. The even ring has real degeneracy; the random graphs have
# none, and their effective length is a heavy min-hop tie enumeration.

ENGINE_P = 0.9
ENGINE_CANONICAL = (("chain", 120), ("star", 120), ("complete", 40), ("ring", 100))
RANDOM_GRAPHS, RANDOM_N, RANDOM_LINKS = 3, 60, 420


def random_graph(rng: np.random.Generator, n: int, links: int) -> "qnetfid.Network":
    """Connected simple graph: a random recursive tree plus uniform extra
    links, with i.i.d. U(0, 1) weights (so no weight is exactly 1)."""
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        a, b = int(order[i]), int(order[rng.integers(i)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < links:
        a, b = (int(x) for x in rng.integers(n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    skeleton = sorted(edges)
    base = qnetfid.Network(n, tuple((u, v, 0.0) for u, v in skeleton))
    return base.with_weights(rng.random(len(skeleton)).tolist())


def bfs_length_average(net) -> float:
    """Tie-weighted mean hop distance: sum sigma*d / sum sigma over pairs,
    sigma the number of shortest paths, counted by BFS (Brandes 2001)."""
    n = net.node_count
    neighbours = [[] for _ in range(n)]
    for u, v, _ in net.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    num = den = 0
    for s in range(n - 1):
        dist = [-1] * n
        sigma = [0] * n
        dist[s], sigma[s] = 0, 1
        queue = [s]
        for u in queue:
            for v in neighbours[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
        for t in range(s + 1, n):
            num += sigma[t] * dist[t]
            den += sigma[t]
    return num / den


def _build_engine(seed: int, workdir: str) -> Prepared:
    canonical = [
        (family, n, qnetfid.generate(qnetfid.TopologySpec(family, n), ENGINE_P))
        for family, n in ENGINE_CANONICAL
    ]
    rng = np.random.default_rng(seed)
    graphs = [random_graph(rng, RANDOM_N, RANDOM_LINKS) for _ in range(RANDOM_GRAPHS)]
    cases = [
        (f"{family}{n}", lambda net=net: qnetfid.average_max_fidelity(net))
        for family, n, net in canonical
    ]
    cases += [
        (f"random{i}", lambda net=net: qnetfid.average_max_fidelity(net))
        for i, net in enumerate(graphs)
    ]
    cases += [
        (f"random{i}-eff-length", lambda net=net: qnetfid.effective_path_length(net))
        for i, net in enumerate(graphs)
    ]

    def check(outputs):
        results = []
        fids = outputs[: len(canonical) + len(graphs)]
        lengths = outputs[len(canonical) + len(graphs) :]
        for (family, n, net), nf in zip(canonical, fids):
            label = f"{family}{n}"
            expected = float(qnetfid.uniform_value(family, n, None, ENGINE_P))
            results.append(_close(f"{label} vs closed form", nf.avg_max_fidelity, expected))
            results.append(
                (f"{label} pair count", len(nf.pair_records) == comb(n, 2), "")
            )
            tied = sorted(r.degeneracy for r in nf.pair_records if r.degeneracy != 1)
            # uniform even ring: the n/2 antipodal pairs have two tied arcs
            expected_tied = [2] * (n // 2) if family == "ring" and n % 2 == 0 else []
            results.append((f"{label} degeneracies", tied == expected_tied, f"{tied[:8]}"))
        for i, (net, nf, length) in enumerate(zip(graphs, fids[len(canonical) :], lengths)):
            label = f"random{i}"
            weights = np.array([[w for _, _, w in net.edges]])
            edges = [(u, v) for u, v, _ in net.edges]
            batch = qnetfid.scenarios.pair_products_batch(weights, edges, net.node_count)[0]
            engine = np.array([r.product for r in nf.pair_records])
            worst = float(np.max(np.abs(engine - batch) / np.maximum(batch, 1e-300)))
            results += [
                (f"{label} products vs batch kernel", worst <= ABS_TOL, f"rel diff {worst:.3g}"),
                _close(f"{label} mean vs batch kernel", nf.avg_max_fidelity,
                       0.5 + 0.5 * batch.mean()),
                (f"{label} unique best paths",
                 all(r.degeneracy == 1 for r in nf.pair_records), ""),
            ]
            expected = bfs_length_average(net)
            results.append((f"{label} effective length vs BFS count", length == expected,
                            f"{length!r} vs {expected!r}"))
        return results

    def work(outputs):
        return sum(len(nf.pair_records) for nf in outputs[: len(canonical) + len(graphs)])

    return Prepared(cases, check, work)


# --- montecarlo ----------------------------------------------------------------
#
# Scenario C: nearly all time is the batched all-pairs kernel, O(B N^3) on
# every topology, and no per-pair engine call is made. Trees (where an
# O(B N^2) kernel would apply) sit beside loopy graphs (where it must not
# change anything).

MC_CASES = (
    ("ring", 10, 100_000),
    ("chain", 40, 4096),
    ("star", 40, 4096),
    ("complete", 12, 40_960),
    ("ring", 4, 100_000),
)
FIRST_CHUNK_ROWS = 4
RING4_MEAN = 119 / 162  # exact Ring(4) random-weight mean (README)


def tree_random_mean(family: str, n: int) -> float:
    """Exact Scenario C mean on a tree: E[prod U] = 2^-d on a d-link path."""
    if family == "chain":
        total = sum((n - d) * 2.0**-d for d in range(1, n))
    else:  # star: n-1 hub pairs at one link, C(n-1, 2) leaf pairs at two
        total = (n - 1) * 0.5 + comb(n - 1, 2) * 0.25
    return 0.5 + 0.5 * total / comb(n, 2)


def _base_network(spec):
    return qnetfid.Network(
        spec.n, tuple((u, v, 0.0) for u, v in qnetfid.edge_skeleton(spec))
    )


def _build_montecarlo(seed: int, workdir: str) -> Prepared:
    specs = [(qnetfid.TopologySpec(family, n), samples) for family, n, samples in MC_CASES]
    cases = [
        (
            f"{spec.family}{spec.n}",
            lambda spec=spec, samples=samples: qnetfid.run_scenario_C(
                spec, samples, seed=seed, threads=1
            ),
        )
        for spec, samples in specs
    ]

    def check(outputs):
        results = []
        for (spec, samples), est in zip(specs, outputs):
            label = f"{spec.family}{spec.n}"
            results.append((f"{label} sample count", est.sample_count == samples, ""))
            exact = None
            if spec.family in ("chain", "star"):
                exact = tree_random_mean(spec.family, spec.n)
            elif spec.family == "ring" and spec.n == 4:
                exact = RING4_MEAN
            if exact is not None:
                z = abs(est.mean - exact) / est.std_error
                results.append((f"{label} within {SIGMAS:g} sigma of exact mean",
                                z <= SIGMAS, f"z = {z:.2f}"))
            # the first chunk redrawn from the documented Philox stream
            # (key = seed, counter 0, row-major over the sorted edge order)
            # and evaluated by the per-pair engine
            base = _base_network(spec)
            rng = np.random.Generator(np.random.Philox(key=seed, counter=0))
            rows = rng.random((FIRST_CHUNK_ROWS, base.edge_count))
            values = [
                qnetfid.average_max_fidelity(base.with_weights(row.tolist())).avg_max_fidelity
                for row in rows
            ]
            head = qnetfid.run_scenario_C(spec, FIRST_CHUNK_ROWS, seed=seed, threads=1)
            results += [
                _close(f"{label} first chunk mean vs engine", head.mean,
                       fsum(values) / len(values)),
                _close(f"{label} first chunk min vs engine", head.sample_min, min(values)),
                _close(f"{label} first chunk max vs engine", head.sample_max, max(values)),
            ]
        return results

    def work(outputs):
        return sum(est.sample_count for est in outputs)

    return Prepared(cases, check, work)


# --- placements ----------------------------------------------------------------
#
# Exhaustive Scenario B: thousands of engine calls on 7-14 node graphs, each
# building a new Network, so per-call overhead dominates. A change that
# speeds up large graphs but adds per-call set-up shows here as a loss.

PLACEMENT_P = 0.9
PLACEMENT_CASES = (("ring", 14, 4), ("complete", 7, 3), ("star", 14, 5))


def star_weight(seed: int) -> float:
    """The star's link weight, drawn from the seed; ring and complete use
    PLACEMENT_P so their stored exhaustive references apply."""
    return 0.5 + 0.45 * float(np.random.default_rng(seed).random())


def _build_placements(seed: int, workdir: str) -> Prepared:
    star_p = star_weight(seed)
    runs = [
        (qnetfid.TopologySpec(family, n), m, star_p if family == "star" else PLACEMENT_P)
        for family, n, m in PLACEMENT_CASES
    ]
    cases = [
        (
            f"{spec.family}{spec.n}-m{m}",
            lambda spec=spec, m=m, p=p: qnetfid.run_scenario_B(spec, p, m),
        )
        for spec, m, p in runs
    ]

    def check(outputs):
        stored = references()["placements"]
        results = []
        for (spec, m, p), est in zip(runs, outputs):
            label = f"{spec.family}{spec.n}-m{m}"
            links = len(qnetfid.edge_skeleton(spec))
            results.append((f"{label} placement count", est.sample_count == comb(links, m), ""))
            if spec.family in qnetfid.TREE_FAMILIES:
                expected = float(qnetfid.me_value(spec.family, spec.n, spec.k, m, p))
                results.append(_close(f"{label} mean vs closed form", est.mean, expected))
                continue
            ref = stored[label]
            results += [
                _close(f"{label} mean vs exhaustive reference", est.mean, ref["mean"]),
                _close(f"{label} min vs exhaustive reference", est.sample_min, ref["min"]),
                _close(f"{label} max vs exhaustive reference", est.sample_max, ref["max"]),
            ]
        return results

    def work(outputs):
        return sum(est.sample_count for est in outputs)

    return Prepared(cases, check, work)


# --- presets -------------------------------------------------------------------
#
# The seven figure presets through the CLI, in a fresh interpreter, so the
# closed forms' caches start cold as they do for every CLI user. The only
# workload that loads the CLI's CSV writer. The seed only orders the presets;
# the outputs must be byte-identical to the CSVs recorded at the seed commit.

PRESETS = ("fig2", "fig3a", "fig3b", "fig3c", "fig3def", "fig4", "fig5")


def preset_argv(preset: str) -> list[str]:
    return ["sweep", "--preset", preset, "--no-timestamp", "--seed", "0",
            "-o", f"{preset}.csv"]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _build_presets(seed: int, workdir: str) -> Prepared:
    order = list(PRESETS)
    random.Random(seed).shuffle(order)
    outdir = tempfile.mkdtemp(prefix="presets-", dir=workdir)
    home = os.getcwd()
    os.chdir(outdir)  # relative -o paths keep the recorded command line fixed
    cases = [
        (preset, lambda argv=preset_argv(preset): qnetfid.cli.main(argv))
        for preset in order
    ]
    paths = [os.path.join(outdir, f"{preset}.csv") for preset in order]

    def check(outputs):
        stored = references()["preset_sha256"]
        results = []
        for preset, code, path in zip(order, outputs, paths):
            results.append((f"{preset} exit code", code == 0, f"exit {code}"))
            digest = _sha256(path) if os.path.exists(path) else "missing"
            expected = stored[preset]
            results.append((f"{preset} CSV bytes", digest == expected, digest))
        return results

    def rows(path):
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if not line.startswith("#")) - 1

    def work(outputs):
        return sum(rows(path) for path in paths if os.path.exists(path))

    def layer_counts(outputs):
        sizes = [os.path.getsize(path) for path in paths if os.path.exists(path)]
        return {"cli.csv_bytes": sum(sizes)}

    def cleanup():
        os.chdir(home)
        shutil.rmtree(outdir, ignore_errors=True)

    return Prepared(cases, check, work, layer_counts, cleanup)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("engine", "pairs", _build_engine),
        Workload("montecarlo", "samples", _build_montecarlo),
        Workload("placements", "placements", _build_placements),
        Workload("presets", "CSV rows", _build_presets, imports=("qnetfid.cli",)),
    )
}
