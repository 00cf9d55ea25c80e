"""Scenario drivers: uniform weights (A), ME placements (B), random weights (C),
plus the decoherence map and the derived sweeps.

Monte Carlo runs are reproducible across thread counts: weights are drawn
with a counter-based generator (numpy Philox, philox4x64-10) in fixed
chunks of :data:`CHUNK` samples, chunk c using counter c * 2**64 under the
master seed. Aggregation is order-fixed, so identical (config, seed) pairs
give bit-identical results.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb, fsum, sqrt

import numpy as np

from . import analytic
from .fidelity import NetworkFidelity, average_max_fidelity, effective_path_length
from .network import (
    CANONICAL_FAMILIES,
    MEPlacement,
    Network,
    TREE_FAMILIES,
    TopologySpec,
    TopologySpecError,
    WeightError,
    edge_skeleton,
    generate,
    load_edge_list,
    parse_family,
)

RNG_ALGORITHM = "philox4x64-10 (numpy)"
CHUNK = 4096
ADVANTAGE_THRESHOLD = 2.0 / 3.0


def default_sample_count(n: int) -> int:
    """Documented Scenario C default: 10^5 samples up to 10 nodes, 10^3 above."""
    return 100_000 if n <= 10 else 1_000


def resolve_threads(threads: int | None) -> int:
    """CLI thread contract: None -> QNETFID_THREADS env -> 1; 0 means auto."""
    if threads is None:
        env = os.environ.get("QNETFID_THREADS", "").strip()
        threads = int(env) if env else 1
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads < 0:
        raise ValueError("thread count must be >= 0")
    return threads


def _ordered_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class EstimateResult:
    """Aggregate of an averaged quantity over samples or placements.

    ``std_error`` is spread/sqrt(count) in sample mode and exactly 0.0 in
    exhaustive mode; ``spread_std`` is the plain standard deviation across
    samples (the "shuffling" envelope companion to sample_min/sample_max).
    """

    mean: float
    std_error: float
    sample_count: int
    sample_min: float
    sample_max: float
    spread_std: float = 0.0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.std_error < 0 or self.spread_std < 0:
            raise ValueError("spreads must be non-negative")
        if not self.sample_min <= self.mean <= self.sample_max:
            raise ValueError("min <= mean <= max violated")


@dataclass(frozen=True)
class DecoherenceParams:
    """Fibre model inputs: attenuation alpha (dB/km), detection probability,
    and the fibre distance d (km) between neighbouring stations."""

    alpha: float
    p_det: float
    d: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.d < 0:
            raise ValueError("distance must be >= 0")
        if not 0.0 <= self.p_det <= 1.0:
            raise ValueError("p_det must lie in [0, 1]")


@dataclass
class SweepResult:
    """Tabular sweep output: named columns, aligned rows, provenance."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


# --- seeded sampling ---------------------------------------------------------


def _base_network(spec: TopologySpec) -> Network:
    """Structure holder for a spec; for custom specs the file's canonical
    edge order is what weight assignments and ME placements index."""
    if spec.family == "custom":
        return load_edge_list(spec.path)
    skeleton = edge_skeleton(spec)
    return Network(spec.n, tuple((u, v, 0.0) for u, v in skeleton))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 64))


def _closure_products(weights: np.ndarray, edges, node_count: int) -> np.ndarray:
    """Floyd-Warshall max-product closure, vectorised over the batch.

    Valid because weights <= 1 mean cycles never help. O(B·N³), in slices
    of at most 512 samples and about 1 MB per (slice, N, N) array, which
    stay in cache and are reused from slice to slice.
    """
    n = node_count
    iu, ju = np.triu_indices(n, k=1)
    idx = np.arange(n)
    slice_size = max(64, min(512, 131_072 // (n * n)))
    out = np.empty((weights.shape[0], len(iu)), dtype=np.float64)
    tmp = np.empty((min(slice_size, weights.shape[0]), n, n), dtype=np.float64)
    for start in range(0, weights.shape[0], slice_size):
        block = weights[start : start + slice_size]
        w = np.zeros((block.shape[0], n, n), dtype=np.float64)
        for e, (u, v) in enumerate(edges):
            w[:, u, v] = block[:, e]
            w[:, v, u] = block[:, e]
        w[:, idx, idx] = 1.0
        step = tmp[: block.shape[0]]
        for k in range(n):
            np.multiply(w[:, :, k, None], w[:, None, k, :], out=step)
            np.maximum(w, step, out=w)
        out[start : start + block.shape[0]] = w[:, iu, ju]
    return out


@lru_cache(maxsize=64)
def _tree_schedule(edges: tuple, n: int):
    """Product schedule of a connected tree, or None for any other graph.

    Replays Floyd-Warshall on booleans: pair (i, j) is first reached at the
    step k that is the largest interior node of its path, as
    P(i, k) · P(k, j). Returns the pair index of each edge, in edge order,
    and the triples (pair, left pair, right pair) in step order; every
    pair's factors come earlier. Pairs are indexed in ``np.triu_indices``
    order.
    """
    if len(edges) != n - 1:
        return None
    iu, ju = np.triu_indices(n, k=1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(len(iu))
    reach = np.eye(n, dtype=bool)
    for u, v in edges:
        reach[u, v] = reach[v, u] = True
    triples = []
    for k in range(n):
        new = np.triu(reach[:, k, None] & reach[None, k, :] & ~reach, 1)
        i, j = np.nonzero(new)
        triples += zip(pair[i, j].tolist(), pair[i, k].tolist(), pair[k, j].tolist())
        reach |= new | new.T
    if not reach.all():  # n - 1 links that leave a pair apart close a cycle
        return None
    leaves = np.array([pair[u, v] for u, v in edges], dtype=np.intp)
    leaves.flags.writeable = False  # cached: every caller shares it
    return leaves, tuple(triples)


def pair_products_batch(weights: np.ndarray, edges, node_count: int) -> np.ndarray:
    """All-pairs max-product for a batch of weight rows, shape (B, C(N,2)).

    The structure picks the kernel. On a connected tree (N - 1 links) each
    pair's one path product is computed once, O(B·N²), as P(i, k) · P(k, j)
    with k the path's largest interior node: the product Floyd-Warshall
    forms when it first reaches the pair. Other graphs run the O(B·N³)
    closure. Both give pairs in ``np.triu_indices`` order, rows
    C-contiguous, and agree bit for bit on U[0, 1) weights.

    The closure also keeps any detour off the path that rounds above the
    path product. With weights of exactly 1.0 (ME links) or within a few
    ulp of it among non-dyadic ones, or with subnormal products, it can
    exceed the tree kernel by a few ulp (relative 4.3e-16 at most over 600
    random trees with ME links); the tree kernel never exceeds it. Scenario
    C's draws do not meet these cases. The per-pair engine stays the
    reference implementation.
    """
    schedule = _tree_schedule(tuple((int(u), int(v)) for u, v in edges), node_count)
    if schedule is None:
        return _closure_products(weights, edges, node_count)
    leaves, triples = schedule
    pairs = len(leaves) + len(triples)
    # a buffer a fraction of the result's size is reused from chunk to chunk;
    # at the result's size the allocator maps fresh pages for every chunk
    slice_size = max(64, min(1024, 4_194_304 // max(pairs, 1)))
    out = np.empty((weights.shape[0], pairs), dtype=np.float64)
    # pair-major buffer: every product is a multiply of two contiguous rows
    t = np.empty((pairs, min(slice_size, weights.shape[0])), dtype=np.float64)
    for start in range(0, weights.shape[0], slice_size):
        block = weights[start : start + slice_size]
        rows = t[:, : block.shape[0]]
        rows[leaves] = block.T
        for dst, a, b in triples:
            np.multiply(rows[a], rows[b], out=rows[dst])
        # transpose back in bands of rows; one strided copy thrashes the cache
        for p in range(0, pairs, 64):
            out[start : start + block.shape[0], p : p + 64] = rows[p : p + 64].T
    return out


def _mc_chunk_stats(seed, chunk_index, size, edges, node_count):
    # numpy fills row-major, so drawing (size, L) consumes the same stream
    # prefix as the full (CHUNK, L) chunk: sample i's weights depend only on
    # (seed, i), never on the requested total count
    rng = _chunk_rng(seed, chunk_index)
    weights = rng.random((size, len(edges)))
    products = pair_products_batch(weights, edges, node_count)
    values = 0.5 + 0.5 * products.mean(axis=1)
    return (
        float(np.sum(values)),
        float(np.sum(values * values)),
        float(values.min()),
        float(values.max()),
    )


def run_scenario_C(
    spec: TopologySpec,
    sample_count: int,
    seed: int = 0,
    threads: int = 1,
) -> EstimateResult:
    """Average fidelity under i.i.d. uniform weights.

    Each sample draws every link weight from U[0,1], takes the best product
    per pair (maximising before averaging: on loops the order matters), and
    averages. Sample i's weights depend only on (seed, i).
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    base = _base_network(spec)
    edges = [(u, v) for u, v, _ in base.edges]
    n = base.node_count

    tasks = []
    remaining = sample_count
    chunk_index = 0
    while remaining > 0:
        size = min(CHUNK, remaining)
        tasks.append((chunk_index, size))
        remaining -= size
        chunk_index += 1

    stats = _ordered_map(
        lambda t: _mc_chunk_stats(seed, t[0], t[1], edges, n),
        tasks,
        threads,
    )
    total = fsum(s[0] for s in stats)
    total_sq = fsum(s[1] for s in stats)
    mean = total / sample_count
    if sample_count > 1:
        var = max(0.0, (total_sq - sample_count * mean * mean) / (sample_count - 1))
    else:
        var = 0.0
    spread = sqrt(var)
    lo = min(s[2] for s in stats)
    hi = max(s[3] for s in stats)
    return EstimateResult(
        mean=min(max(mean, lo), hi),  # division can round an ulp past the envelope
        std_error=spread / sqrt(sample_count),
        sample_count=sample_count,
        sample_min=lo,
        sample_max=hi,
        spread_std=spread,
    )


# --- scenario A and B --------------------------------------------------------


def run_scenario_A(
    spec: TopologySpec,
    p: float,
    with_eff_length: bool = False,
) -> NetworkFidelity:
    """Uniform weight p everywhere; attaches the closed form when one exists."""
    if spec.family == "custom":
        base = _base_network(spec)
        net = base.with_weights([float(p)] * base.edge_count)
    else:
        net = generate(spec, float(p))
    result = average_max_fidelity(net)
    if spec.family in CANONICAL_FAMILIES:
        value = float(analytic.uniform_value(spec.family, spec.n, spec.k, float(p)))
        result = replace(
            result,
            analytic_value=value,
            analytic_abs_diff=abs(result.avg_max_fidelity - value),
        )
    if with_eff_length:
        result = replace(result, effective_path_length=effective_path_length(net))
    return result


def _placement_values(spec, p, placements):
    # generated families keep the documented skeleton-order index contract;
    # custom files index their canonical (sorted) edge order
    base = _base_network(spec) if spec.family == "custom" else None
    values = []
    extremes = []
    for placement in placements:
        if base is None:
            net = generate(spec, MEPlacement(tuple(placement), p))
        else:
            chosen = set(placement)
            net = base.with_weights(
                [1.0 if e in chosen else p for e in range(base.edge_count)]
            )
        nf = average_max_fidelity(net)
        values.append(nf.avg_max_fidelity)
        fids = [r.fidelity for r in nf.pair_records]
        extremes.append((min(fids), max(fids)))
    return values, extremes


def run_scenario_B(
    spec: TopologySpec,
    p: float,
    m_links: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    max_exhaustive: int = 10**6,
    _with_extremes: bool = False,
):
    """Weight 1 on m_links links and p elsewhere, aggregated over placements.

    Exhaustive mode averages every C(L, M) placement (std_error is exactly
    0; the min/max envelope is across placements). Sample mode draws
    placements uniformly with the seeded generator.
    """
    link_count = _base_network(spec).edge_count
    if not 0 <= m_links <= link_count:
        raise WeightError(f"m_links must lie in [0, {link_count}], got {m_links}")
    if mode == "exhaustive":
        count = comb(link_count, m_links)
        if count > max_exhaustive:
            raise ValueError(
                f"{count} placements exceed the exhaustive cap {max_exhaustive}"
            )
        placements = itertools.combinations(range(link_count), m_links)
        values, extremes = _placement_values(spec, p, placements)
        exhaustive = True
    elif mode == "sample":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        rng = _chunk_rng(seed, 0)
        placements = [
            tuple(sorted(rng.choice(link_count, size=m_links, replace=False).tolist()))
            for _ in range(samples)
        ]
        values, extremes = _placement_values(spec, p, placements)
        exhaustive = False
    else:
        raise ValueError(f"unknown placement mode {mode!r}")

    count = len(values)
    mean = fsum(values) / count
    if count > 1:
        var = max(0.0, fsum((v - mean) ** 2 for v in values) / (count - 1))
    else:
        var = 0.0
    spread = sqrt(var)
    lo, hi = min(values), max(values)
    result = EstimateResult(
        mean=min(max(mean, lo), hi),  # division can round an ulp past the envelope
        std_error=0.0 if exhaustive else spread / sqrt(count),
        sample_count=count,
        sample_min=lo,
        sample_max=hi,
        spread_std=spread,
    )
    if _with_extremes:
        worst = min(lo for lo, _ in extremes)
        best = max(hi for _, hi in extremes)
        return result, worst, best
    return result


# --- decoherence ---------------------------------------------------------------


def decoherence_weight(params: DecoherenceParams) -> float:
    """Link weight from the fibre model: p_det * 10**(-alpha * d / 10)."""
    return params.p_det * 10.0 ** (-params.alpha * params.d / 10.0)


def decoherence_sweep(
    families: tuple[str, ...] = ("chain", "star", "ring", "complete"),
    n: int = 8,
    alpha: float = 0.46,
    p_det: float = 1.0,
    d_values: tuple[float, ...] = tuple(range(30, 151, 10)),
    flower_k: int | None = None,
) -> SweepResult:
    """Fidelity versus inter-node distance for the basic topologies.

    ``families`` holds family tokens (``chain``, ``flower:3``; a bare
    ``flower`` takes ``flower_k``); rows are labelled by token. Per topology
    the result never rises with d (far enough out it rounds to exactly 1/2,
    so neighbouring values may be equal); at every d the complete graph sits
    on top and the chain at the bottom, up to the rounding of the averages.
    Both properties are verified before returning. (Ring and star swap order
    with n: they tie at n=4, the ring wins at n=5, the star wins from n=6 on
    because its pairs are never more than two hops apart.)
    """
    result = SweepResult(("family", "n", "alpha", "p_det", "d_km", "p", "f"))
    values: dict[str, list[float]] = {}
    for token in families:
        spec = parse_family(token, n, flower_k)
        per_family = []
        for d in d_values:
            p = decoherence_weight(DecoherenceParams(alpha, p_det, float(d)))
            f = run_scenario_A(spec, p).avg_max_fidelity
            per_family.append(f)
            result.append(token, n, alpha, p_det, float(d), p, f)
        values[token] = per_family
    if alpha > 0 and p_det > 0:
        for family, series in values.items():
            if any(b > a for a, b in zip(series, series[1:])):
                raise RuntimeError(f"{family} fidelity rises with distance")
    # Each average lies within (n + 5)/2 * 2**-53 of its exact value: a path
    # product rounds up to n - 2 times, and the pair term, the degeneracy
    # multiply, the fsum and the division once each. Two topologies whose
    # exact values are within that of each other (far out, both are 1/2 plus
    # far less than an ulp) may therefore come out in either order.
    slack = (n + 5) * 2.0**-53
    for family, series in values.items():
        if "complete" in values and any(
            h < l - slack for h, l in zip(values["complete"], series)
        ):
            raise RuntimeError(f"complete graph not on top against {family}")
        if "chain" in values and any(
            h < l - slack for h, l in zip(series, values["chain"])
        ):
            raise RuntimeError(f"chain not at the bottom against {family}")
    result.metadata["alpha"] = repr(alpha)
    result.metadata["p_det"] = repr(p_det)
    return result


# --- advantage regions and large-N behaviour ----------------------------------


def _tree_diameter(family: str, n: int, k: int | None) -> int:
    links = n - 1
    if family == "chain":
        return links
    if family == "star":
        return min(2, links)
    if family == "flower":
        return links - (k or 0)
    raise TopologySpecError(f"no tree diameter for family {family!r}")


def _tree_path_extremes(family, n, k, m_links, p):
    """Best/worst pair fidelity across placements for a tree family.

    Best case puts an ME link on an adjacent pair; worst case pushes all
    ME links off a diameter path (only L - diameter fit off-path).
    """
    links = n - 1
    best_exp = max(0, 1 - m_links)
    diameter = _tree_diameter(family, n, k)
    worst_exp = diameter - max(0, m_links - (links - diameter))
    return (1.0 + p**worst_exp) / 2.0, (1.0 + p**best_exp) / 2.0


def advantage_region(
    spec: TopologySpec,
    p_values=None,
    m_values=None,
    mode: str = "auto",
    samples: int = 200,
    seed: int = 0,
    max_exhaustive: int = 10**6,
) -> SweepResult:
    """Grid of placement-averaged fidelity with quantum-advantage flags.

    Per (p, m) point, with M = round(m * L): ``avg_advantage`` is mean
    fidelity > 2/3; ``any_path_advantage`` uses the best pair fidelity over
    placements, ``all_path_advantage`` the worst. Tree families evaluate in
    closed form; ring, complete and custom graphs fall back to placement
    enumeration or sampling and are flagged by the ``method`` column. Node
    and link counts come from the graph itself.
    """
    if p_values is None:
        p_values = np.linspace(0.0, 1.0, 101)
    if m_values is None:
        m_values = np.linspace(0.0, 1.0, 101)
    base = _base_network(spec)
    family, n, k, links = spec.family, base.node_count, spec.k, base.edge_count
    result = SweepResult(
        (
            "family", "n", "k", "p", "m", "m_links", "f",
            "avg_advantage", "any_path_advantage", "all_path_advantage", "method",
        )
    )

    for p, m in itertools.product(map(float, p_values), map(float, m_values)):
        m_links = round(m * links)
        if family in TREE_FAMILIES and mode in ("auto", "analytic"):
            f = float(analytic.me_value(family, n, k, m_links, p))
            worst, best = _tree_path_extremes(family, n, k, m_links, p)
            method = "analytic"
        else:
            method = mode
            if mode in ("auto", "analytic"):
                method = (
                    "exhaustive"
                    if comb(links, m_links) <= max_exhaustive
                    else "sample"
                )
            est, worst, best = run_scenario_B(
                spec, p, m_links,
                mode=method, samples=samples, seed=seed,
                max_exhaustive=max_exhaustive, _with_extremes=True,
            )
            f = est.mean
        result.append(
            family, n, k, p, m, m_links, f,
            f > ADVANTAGE_THRESHOLD,
            best > ADVANTAGE_THRESHOLD,
            worst > ADVANTAGE_THRESHOLD,
            method,
        )
    return result


def large_N_limit_check(
    family: str,
    p: float,
    m: float,
    n_values,
    k: int | None = None,
    check: bool = True,
) -> SweepResult:
    """Tabulate the placement-averaged fidelity against network size.

    With ``check`` on (the default), the chain series with p, m < 1 must
    decrease towards 1/2 and the star's final value must sit within O(1/n)
    of its large-n limit (leaf pairs dominate); violations raise
    RuntimeError. ``check=False`` only tabulates.
    """
    result = SweepResult(("family", "p", "m", "n", "m_links", "f", "f_minus_half"))
    series = []
    for n in n_values:
        links = n - 1
        m_links = round(m * links)
        f = float(analytic.me_value(family, n, k, m_links, p))
        series.append((n, f))
        result.append(family, p, m, n, m_links, f, f - 0.5)
    if not check:
        return result
    if family == "chain" and p < 1 and m < 1:
        fs = [f for _, f in series]
        if any(b >= a for a, b in zip(fs, fs[1:])):
            raise RuntimeError("chain fidelity not decreasing with n")
        if fs[-1] <= 0.5:
            raise RuntimeError("chain fidelity fell to or below 1/2")
    if family == "star":
        n_last, f_last = series[-1]
        limit = float(analytic.star_me_limit(m, p))
        if abs(f_last - limit) > max(5.0 / n_last, 1e-12):
            raise RuntimeError(
                f"star value {f_last} not within O(1/n) of limit {limit}"
            )
        result.metadata["star_limit"] = repr(limit)
    return result


__all__ = [
    "RNG_ALGORITHM",
    "CHUNK",
    "ADVANTAGE_THRESHOLD",
    "EstimateResult",
    "DecoherenceParams",
    "SweepResult",
    "default_sample_count",
    "resolve_threads",
    "pair_products_batch",
    "run_scenario_A",
    "run_scenario_B",
    "run_scenario_C",
    "decoherence_weight",
    "decoherence_sweep",
    "advantage_region",
    "large_N_limit_check",
]
