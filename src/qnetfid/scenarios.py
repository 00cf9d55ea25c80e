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
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb, fsum, sqrt

import numpy as np

from . import analytic
from .fidelity import NetworkFidelity, average_max_fidelity, effective_path_length
from .network import (
    CANONICAL_FAMILIES,
    Network,
    TREE_FAMILIES,
    TopologySpec,
    WeightError,
    check_weight,
    edge_skeleton,
    load_edge_list,
    parse_family,
)

RNG_ALGORITHM = "philox4x64-10 (numpy)"
CHUNK = 4096
ADVANTAGE_THRESHOLD = 2.0 / 3.0
EXHAUSTIVE_CAP = 10**6  # most C(L, M) placements a Scenario B point averages in full
PLACEMENT_MODES = ("auto", "exhaustive", "sample")


def default_sample_count(n: int) -> int:
    """Documented Scenario C default: 10^5 samples up to 10 nodes, 10^3 above."""
    return 100_000 if n <= 10 else 1_000


def resolve_threads(threads: int | None) -> int:
    """CLI thread contract: None -> QNETFID_THREADS env -> 1; 0 means auto."""
    if threads is None:
        env = os.environ.get("QNETFID_THREADS", "").strip()
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ValueError(f"QNETFID_THREADS must be an integer, got {env!r}") from None
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

    ``mode`` is what ran: ``"exhaustive"`` (every Scenario B placement) or
    ``"sample"`` (seeded draws; every Scenario C result). ``std_error`` is
    spread/sqrt(count) in sample mode and exactly 0.0 in exhaustive mode;
    ``spread_std`` is the plain standard deviation across samples (the
    "shuffling" envelope companion to sample_min/sample_max).
    ``analytic_value`` is the closed form of the same average where one
    exists (Scenario B on a tree family, :func:`analytic.me_value`), else
    None.
    """

    mean: float
    std_error: float
    sample_count: int
    sample_min: float
    sample_max: float
    spread_std: float = 0.0
    mode: str = "sample"
    analytic_value: float | None = None

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.std_error < 0 or self.spread_std < 0:
            raise ValueError("spreads must be non-negative")
        if not self.sample_min <= self.mean <= self.sample_max:
            raise ValueError("min <= mean <= max violated")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown estimate mode {self.mode!r}")


def _estimate(
    mode: str, count: int, mean: float, deviation: float, lo: float, hi: float
) -> EstimateResult:
    """The EstimateResult of ``count`` values in [lo, hi] with mean ``mean``
    and squared deviations from it summing to ``deviation``."""
    var = max(0.0, deviation / (count - 1)) if count > 1 else 0.0
    spread = sqrt(var)
    return EstimateResult(
        mean=min(max(mean, lo), hi),  # division can round an ulp past the envelope
        std_error=0.0 if mode == "exhaustive" else spread / sqrt(count),
        sample_count=count,
        sample_min=lo,
        sample_max=hi,
        spread_std=spread,
        mode=mode,
    )


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


def _spec_edges(spec: TopologySpec) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Node count and links of a spec, the one place every scenario resolves
    one. Links come in the order ME placements index: the family's
    :func:`edge_skeleton`, or a custom file's canonical (sorted) edge order."""
    if spec.family == "custom":
        net = load_edge_list(spec.path)
        return net.node_count, tuple((u, v) for u, v, _ in net.edges)
    return spec.n, tuple(edge_skeleton(spec))


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
    n, links = _spec_edges(spec)
    # the draws index links in canonical (min, max) order, as a Network sorts them
    edges = sorted((min(u, v), max(u, v)) for u, v in links)

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
    return _estimate(
        "sample", sample_count, mean, total_sq - sample_count * mean * mean,
        min(s[2] for s in stats), max(s[3] for s in stats),
    )


# --- scenario A ----------------------------------------------------------------


def run_scenario_A(
    spec: TopologySpec,
    p: float,
    with_eff_length: bool = False,
) -> NetworkFidelity:
    """Uniform weight p everywhere; attaches the closed form when one exists."""
    p = check_weight(p)
    n, edges = _spec_edges(spec)
    net = Network(n, tuple((u, v, p) for u, v in edges))
    result = average_max_fidelity(net)
    if spec.family in CANONICAL_FAMILIES:
        value = float(analytic.uniform_value(spec.family, spec.n, spec.k, p))
        result = replace(
            result,
            analytic_value=value,
            analytic_abs_diff=abs(result.avg_max_fidelity - value),
        )
    if with_eff_length:
        result = replace(result, effective_path_length=effective_path_length(net))
    return result


# --- scenario B ------------------------------------------------------------------
#
# Under an ME placement every weight is p or 1.0, and multiplying by 1.0 is
# exact, so a path's product is t[c] = p·p·…·p with c factors, c the number
# of non-ME links on the path: the float the engine forms. While no two
# entries of t strictly between 0 and 1 are equal, a pair's best path is one
# with the least c, and its tie count is the number of its simple paths at
# that c. The kernel therefore needs only the graph's simple paths,
# enumerated once, and evaluates batches of placements with integer array
# operations; the engine stays the fallback.

_INCIDENCE_CAP = 1 << 21  # link-by-path entries (4 MiB of int16)
_CHUNK_ENTRIES = 1 << 15  # placement-by-path entries per kernel step


@lru_cache(maxsize=8)
def _simple_paths(n: int, edges: tuple):
    """Every simple path of every pair, as a link-by-path incidence matrix.

    Returns (incidence, lengths, starts, counts): ``incidence[e, j]`` is 1
    when link e lies on path j, ``lengths[j]`` is the path's link count, and
    pair i, in ``np.triu_indices`` order, owns the ``counts[i]`` paths from
    ``starts[i]`` on. A tree has N(N-1)/2 paths, a ring N(N-1), K7 6,846 and
    K8 54,796. Returns None for a graph without a pair, or when the matrix
    would pass ``_INCIDENCE_CAP`` entries (K9 and larger, rings past 128
    nodes, chains past 161).
    """
    budget = _INCIDENCE_CAP // max(len(edges), 1)  # paths
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    lengths, starts, counts = [], [], []
    flat = array("q")  # link indices of every path, read by numpy without a copy
    for s in range(n - 1):
        found = [[] for _ in range(n)]  # link lists of the paths to each target
        on_path = [False] * n
        on_path[s] = True
        nodes, links, stack = [s], [], [iter(adj[s])]
        while stack:
            for v, e in stack[-1]:
                if on_path[v]:
                    continue
                links.append(e)
                if v > s:
                    found[v].append(tuple(links))
                    budget -= 1
                    if budget < 0:
                        return None
                on_path[v] = True
                nodes.append(v)
                stack.append(iter(adj[v]))
                break
            else:
                stack.pop()
                on_path[nodes.pop()] = False
                if links:
                    links.pop()
        for target in found[s + 1 :]:
            starts.append(len(lengths))
            counts.append(len(target))
            lengths += map(len, target)
            for path in target:
                flat.extend(path)
    if not lengths:
        return None
    lengths = np.array(lengths, dtype=np.int16)
    incidence = np.zeros((len(edges), len(lengths)), dtype=np.int16)
    column = np.repeat(np.arange(len(lengths)), lengths)
    incidence[np.frombuffer(flat, dtype=np.int64), column] = 1
    structure = (incidence, lengths, np.array(starts), np.array(counts))
    for part in structure:
        part.flags.writeable = False  # cached: every caller shares it
    return structure


def _fidelity_table(p: float, longest: int):
    """Fidelities (1 + t[c]) / 2 of the products t[c] of c factors p,
    multiplied in path order as the engine does, for c up to ``longest``,
    and where t[c] is exactly 0 or 1 (such a pair counts once).

    None when two products strictly between 0 and 1 are equal: there a
    smaller c no longer means a better path. Only subnormal products stall,
    for p > 1/2 after more than 1022 factors, longer than any path under
    the path cap; the check guards the kernel's premise all the same.
    """
    t = [1.0]
    for _ in range(longest):
        t.append(t[-1] * p)
    if any(0.0 < b == a < 1.0 for a, b in zip(t, t[1:])):
        return None
    products = np.array(t)
    return (1.0 + products) / 2.0, (products == 0.0) | (products == 1.0)


def _kernel_values(paths, table, me: np.ndarray):
    """Network averages of a batch of placements, one per row of ``me`` (its
    ME link indices), with each placement's worst and best pair fidelity.

    The average is fsum(ties * fidelity) / sum(ties) over pairs, which does
    not depend on pair order; ties are counted as the engine counts them: a
    pair whose best product is exactly 0 or 1 counts once.
    """
    incidence, lengths, starts, counts = paths
    fidelity, counts_once = table
    c = np.tile(lengths, (len(me), 1))
    for links in me.T:  # no BLAS matmul: its first call costs ~2.5 MB of RSS
        c -= incidence[links]
    best = np.minimum.reduceat(c, starts, axis=1)
    # float counts are exact integers, and count * fidelity rounds as in the engine
    ties = np.add.reduceat(
        c == np.repeat(best, counts, axis=1), starts, axis=1, dtype=np.float64
    )
    ties[counts_once[best]] = 1.0
    totals = ties.sum(axis=1).tolist()
    terms = np.multiply(ties, fidelity[best], out=ties)
    values = [fsum(row.tolist()) / total for row, total in zip(terms, totals)]
    return values, fidelity[best.max(axis=1)], fidelity[best.min(axis=1)]


def _engine_values(n, edges, p, placements):
    values, worst, best = [], 1.0, 0.0
    for placement in placements:
        chosen = set(placement)
        net = Network(
            n,
            tuple((u, v, 1.0 if e in chosen else p) for e, (u, v) in enumerate(edges)),
        )
        nf = average_max_fidelity(net)
        values.append(nf.avg_max_fidelity)
        fids = [r.fidelity for r in nf.pair_records]
        worst, best = min(worst, *fids), max(best, *fids)
    return values, (worst, best)


def _placement_values(n, edges, p, placements):
    """Network average per placement, and the worst and best pair fidelity
    over all of them. ``placements`` (ME link index tuples) is consumed in
    chunks by the path-count kernel; graphs past the path cap, and p whose
    products stall, run the engine on one Network per placement."""
    paths = _simple_paths(n, edges)
    table = None if paths is None else _fidelity_table(p, int(paths[1].max()))
    if table is None:
        return _engine_values(n, edges, p, placements)
    size = max(1, _CHUNK_ENTRIES // len(paths[1]))
    placements = iter(placements)
    values, worst, best = [], 1.0, 0.0
    while chunk := list(itertools.islice(placements, size)):
        batch, lo, hi = _kernel_values(paths, table, np.array(chunk, dtype=np.intp))
        values += batch
        worst, best = min(worst, float(lo.min())), max(best, float(hi.max()))
    return values, (worst, best)


def placement_mode(mode: str, link_count: int, m_links: int) -> str:
    """The placement mode a Scenario B point runs: ``"exhaustive"`` or
    ``"sample"``. ``"auto"`` is exhaustive while the C(L, M) placements fit
    :data:`EXHAUSTIVE_CAP` and sampled past it; ``"exhaustive"`` past the cap
    raises ValueError."""
    if mode not in PLACEMENT_MODES:
        raise ValueError(f"unknown placement mode {mode!r}")
    if mode == "sample":
        return mode
    count = comb(link_count, m_links)
    if count <= EXHAUSTIVE_CAP:
        return "exhaustive"
    if mode == "exhaustive":
        raise ValueError(f"{count} placements exceed the exhaustive cap {EXHAUSTIVE_CAP}")
    return "sample"


def _scenario_B(n, edges, p, m_links, mode, samples, seed):
    """:func:`run_scenario_B` on an edge list, with the worst and best pair
    fidelity over its placements."""
    p = check_weight(p)
    link_count = len(edges)
    if not 0 <= m_links <= link_count:
        raise WeightError(f"m_links must lie in [0, {link_count}], got {m_links}")
    mode = placement_mode(mode, link_count, m_links)
    if mode == "exhaustive":
        placements = itertools.combinations(range(link_count), m_links)
    else:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        rng = _chunk_rng(seed, 0)
        placements = (
            tuple(sorted(rng.choice(link_count, size=m_links, replace=False).tolist()))
            for _ in range(samples)
        )
    values, extremes = _placement_values(n, edges, p, placements)
    mean = fsum(values) / len(values)
    deviation = fsum((v - mean) ** 2 for v in values)
    return _estimate(mode, len(values), mean, deviation, min(values), max(values)), extremes


def run_scenario_B(
    spec: TopologySpec,
    p: float,
    m_links: int,
    mode: str = "auto",
    samples: int = 1000,
    seed: int = 0,
) -> EstimateResult:
    """Weight 1 on m_links links and p elsewhere, aggregated over placements.

    Exhaustive mode averages every C(L, M) placement (std_error is exactly
    0; the min/max envelope is across placements). Sample mode draws
    ``samples`` placements uniformly with the seeded generator. ``"auto"``
    (the default) picks between them by :func:`placement_mode`: exhaustive
    up to :data:`EXHAUSTIVE_CAP` placements, sampled past it. Placements
    index the links in :func:`edge_skeleton` order, or a custom file's
    sorted order. Tree families carry :func:`analytic.me_value` as
    ``analytic_value``.
    """
    n, edges = _spec_edges(spec)
    result = _scenario_B(n, edges, p, m_links, mode, samples, seed)[0]
    if spec.family in TREE_FAMILIES:
        value = analytic.me_value(spec.family, spec.n, spec.k, m_links, check_weight(p))
        result = replace(result, analytic_value=float(value))
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


def _tree_extreme_exponents(family, n, k, m_links):
    """Path lengths of the worst and best pair across placements for a tree
    family, counting non-ME links only.

    Best case puts an ME link on an adjacent pair; worst case pushes all
    ME links off a diameter path (only L - diameter fit off-path).
    """
    links = n - 1
    best_exp = max(0, 1 - m_links)
    diameter = {"chain": links, "star": min(2, links), "flower": links - (k or 0)}[family]
    worst_exp = diameter - max(0, m_links - (links - diameter))
    return worst_exp, best_exp


def advantage_region(
    spec: TopologySpec,
    p_values=None,
    m_values=None,
    mode: str = "auto",
    samples: int = 200,
    seed: int = 0,
) -> SweepResult:
    """Grid of placement-averaged fidelity with quantum-advantage flags.

    Per (p, m) point, with M = round(m * L): ``avg_advantage`` is mean
    fidelity > 2/3; ``any_path_advantage`` uses the best pair fidelity over
    placements, ``all_path_advantage`` the worst. Node and link counts come
    from the graph itself. Rows run p outer, m inner.

    ``mode="auto"`` evaluates tree families in closed form, one distinct M
    at a time over the whole p grid (:func:`analytic.me_grid`; every value
    equals the point-by-point :func:`analytic.me_value` bit for bit), and
    other graphs point by point as :func:`placement_mode` resolves it:
    every placement, or ``samples`` seeded ones past :data:`EXHAUSTIVE_CAP`.
    ``"exhaustive"`` or ``"sample"`` runs that mode point by point for
    every family. The ``method`` column records what each point ran.
    """
    if p_values is None:
        p_values = np.linspace(0.0, 1.0, 101)
    if m_values is None:
        m_values = np.linspace(0.0, 1.0, 101)
    ps, ms = list(map(float, p_values)), list(map(float, m_values))
    n, edges = _spec_edges(spec)
    family, k, links = spec.family, spec.k, len(edges)
    result = SweepResult(
        (
            "family", "n", "k", "p", "m", "m_links", "f",
            "avg_advantage", "any_path_advantage", "all_path_advantage", "method",
        )
    )

    def add(p, m, m_links, f, worst, best, method):
        result.append(
            family, n, k, p, m, m_links, f,
            f > ADVANTAGE_THRESHOLD,
            best > ADVANTAGE_THRESHOLD,
            worst > ADVANTAGE_THRESHOLD,
            method,
        )

    if family in TREE_FAMILIES and mode == "auto":
        m_links_values = [round(m * links) for m in ms]
        table, columns = analytic.me_grid(family, n, k, m_links_values, ps)
        extremes = {
            m_links: [table[e].tolist() for e in _tree_extreme_exponents(family, n, k, m_links)]
            for m_links in columns
        }
        for i, p in enumerate(ps):
            for m, m_links in zip(ms, m_links_values):
                worst, best = extremes[m_links]
                add(p, m, m_links, columns[m_links][i], worst[i], best[i], "analytic")
        return result

    for p, m in itertools.product(ps, ms):
        m_links = round(m * links)
        est, (worst, best) = _scenario_B(n, edges, p, m_links, mode, samples, seed)
        add(p, m, m_links, est.mean, worst, best, est.mode)
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
    "EXHAUSTIVE_CAP",
    "PLACEMENT_MODES",
    "EstimateResult",
    "DecoherenceParams",
    "SweepResult",
    "default_sample_count",
    "resolve_threads",
    "pair_products_batch",
    "run_scenario_A",
    "placement_mode",
    "run_scenario_B",
    "run_scenario_C",
    "decoherence_weight",
    "decoherence_sweep",
    "advantage_region",
    "large_N_limit_check",
]
