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
from math import comb, fsum, isfinite, sqrt

import numpy as np

from . import analytic
from .fidelity import NetworkFidelity, _levels, average_max_fidelity, effective_path_length
from .network import (
    CANONICAL_FAMILIES,
    GraphError,
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
    """Scenario C's thread count: None -> QNETFID_THREADS env -> 1; 0 = one per usable CPU."""
    if threads is None:
        env = os.environ.get("QNETFID_THREADS", "").strip()
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ValueError(f"QNETFID_THREADS must be an integer, got {env!r}") from None
    if threads == 0:
        usable = getattr(os, "sched_getaffinity", None)
        threads = len(usable(0)) if usable else os.cpu_count() or 1
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
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if not self.d >= 0:
            raise ValueError("distance must be >= 0")
        if not 0.0 <= self.p_det <= 1.0:
            raise ValueError("p_det must lie in [0, 1]")


@dataclass
class SweepResult:
    """Tabular sweep output: named columns, rows of one value per column
    (the CSV writer checks their width), provenance."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

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


def _link_permutations(edges, node_perms) -> tuple[tuple[int, ...], ...]:
    """Each node permutation as a permutation of the link indices of
    ``edges``, identities dropped. A node permutation that maps a link to a
    non-link is no symmetry of the graph and raises GraphError."""
    index = {(min(u, v), max(u, v)): e for e, (u, v) in enumerate(edges)}
    identity, links = tuple(range(len(edges))), {}
    for perm in node_perms:
        pairs = ((perm[u], perm[v]) for u, v in edges)
        image = tuple(index.get((min(a, b), max(a, b)), -1) for a, b in pairs)
        if -1 in image:
            raise GraphError(f"node permutation {perm} maps a link to a non-link")
        if image != identity:
            links[image] = None
    return tuple(links)


def _spec_symmetries(spec: TopologySpec) -> tuple[tuple[int, ...], ...]:
    """Generators of a group of the family's symmetries, as permutations of
    the links in :func:`_spec_edges` order: the ring's rotation i -> i+1 and
    reflection i -> -i; on the complete graph's nodes and on the star's
    leaves 1..n-1, the transposition of the first two and the cycle through
    all. The chain, the flower and custom graphs get none: the chain's group
    has order 2, as flower:1's has, so its cached representatives would hold
    half the placements. Any subgroup of the automorphism group will do:
    exhaustive Scenario B evaluates one placement per orbit of it."""
    n = spec.n
    if spec.family == "ring":
        perms = [[(i + 1) % n for i in range(n)], [-i % n for i in range(n)]]
    elif spec.family in ("complete", "star"):
        fixed = list(range(spec.family == "star"))  # the star's centre stays
        moved = list(range(len(fixed), n))
        perms = [fixed + moved[1::-1] + moved[2:], fixed + moved[1:] + moved[:1]]
    else:
        return ()
    return _link_permutations(_spec_edges(spec)[1], perms)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 64))


def pair_products_batch(weights: np.ndarray, edges, node_count: int) -> np.ndarray:
    """All-pairs max-product of a batch of weight rows, shape (B, C(N,2)),
    pairs in ``np.triu_indices`` order, rows C-contiguous: the Floyd-Warshall
    closure on every graph (Scenario C's tree chunks need only each sample's
    pair sum, :func:`_tree_pair_sums`). Valid because weights <= 1 mean
    cycles never help. O(B·N³), in slices of at most 512 samples and about
    1 MB per (slice, N, N) array: the product buffer is reused from slice to
    slice, ``w`` is fresh for each."""
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


def _link_adjacency(n: int, edges) -> list[list[tuple[int, int]]]:
    """Each node's (neighbour, link index) pairs, links in ``edges`` order."""
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def _tree_plan(edges: tuple, n: int):
    """(link, child, parent) triples of a connected tree rooted at node 0,
    children before parents (reverse breadth-first order), or None for any
    other graph: n - 1 links that leave a node unreached close a cycle."""
    if len(edges) != n - 1:
        return None
    adj = _link_adjacency(n, edges)
    order, queue, seen = [], [0], {0}
    for parent in queue:
        for child, e in adj[parent]:
            if child not in seen:
                seen.add(child)
                order.append((e, child, parent))
                queue.append(child)
    return tuple(reversed(order)) if len(queue) == n else None


def _tree_pair_sums(weights: np.ndarray, plan) -> np.ndarray:
    """Each sample's sum of path products over all pairs of a tree, O(B·N).

    ``down[v]`` sums the path products from v to every node of its subtree
    (v itself counting 1). Hanging child c's subtree onto parent p across a
    link of weight w joins every node below c to every node already below p,
    which adds ``down[p] · w · down[c]`` to the pair sum. Only pending rows
    are held: a leaf's row is 1 (its weight column is its branch), a
    parent's row is made at its first child and a child's is dropped once
    hung, so 1 · x and 1 + x are taken exactly as from a row of ones."""
    down = {}
    total = np.zeros(len(weights))
    for e, child, parent in plan:
        below = down.pop(child, None)
        branch = weights[:, e] if below is None else weights[:, e] * below
        if parent in down:
            total += down[parent] * branch
            down[parent] += branch
        else:
            total += branch
            down[parent] = 1.0 + branch
    return total


def _mc_chunk_stats(seed, chunk_index, size, edges, node_count, plan):
    """(sum, sum of d, sum of d², min, max) of a chunk's values v = 0.5 +
    0.5 · pair mean, with d = v - 0.5 (exact). Trees run
    :func:`_tree_pair_sums` by their :func:`_tree_plan`, any other graph
    (``plan`` None) :func:`pair_products_batch`."""
    # numpy fills row-major, so drawing (size, L) consumes the same stream
    # prefix as the full (CHUNK, L) chunk: sample i's weights depend only on
    # (seed, i), never on the requested total count
    rng = _chunk_rng(seed, chunk_index)
    weights = rng.random((size, len(edges)))
    if plan is None:
        means = pair_products_batch(weights, edges, node_count).mean(axis=1)
    else:
        means = _tree_pair_sums(weights, plan) / comb(node_count, 2)
    values = 0.5 + 0.5 * means
    spread = values - 0.5
    stats = values.sum(), spread.sum(), (spread * spread).sum(), values.min(), values.max()
    return tuple(map(float, stats))


def run_scenario_C(
    spec: TopologySpec,
    sample_count: int | None = None,
    seed: int = 0,
    threads: int | None = 1,
) -> EstimateResult:
    """Average fidelity under i.i.d. uniform weights.

    Each sample draws every link weight from U[0,1], takes the best product
    per pair (maximising before averaging: on loops the order matters), and
    averages. Sample i's weights depend only on (seed, i). Trees take each
    sample's pair sum in one subtree pass, O(N) per sample, which agrees with
    :func:`pair_products_batch` within rounding (about 1e-15 relative); any
    other graph runs that closure, O(N³) per sample.

    An unset ``sample_count`` is :func:`default_sample_count` of the node
    count; ``threads`` (no effect on the result) is read by :func:`resolve_threads`.
    """
    if sample_count is not None and sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    threads = resolve_threads(threads)
    n, links = _spec_edges(spec)
    if n < 2:
        raise GraphError("network average needs at least 2 nodes")
    if sample_count is None:
        sample_count = default_sample_count(n)
    # the draws index links in canonical (min, max) order, as a Network sorts them
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in links))
    plan = _tree_plan(edges, n)
    tasks = [(i, min(CHUNK, sample_count - start))
             for i, start in enumerate(range(0, sample_count, CHUNK))]
    stats = _ordered_map(lambda t: _mc_chunk_stats(seed, *t, edges, n, plan), tasks, threads)
    total, spread, spread_sq = (fsum(s[i] for s in stats) for i in range(3))
    # squared deviations from the sums of v - 0.5, not of v: with v near 0.5
    # the latter cancel to nothing at large N
    return _estimate(
        "sample", sample_count, total / sample_count,
        spread_sq - spread * spread / sample_count,
        min(s[3] for s in stats), max(s[4] for s in stats),
    )


# --- scenario A ----------------------------------------------------------------


def run_scenario_A(
    spec: TopologySpec,
    p: float,
    with_eff_length: bool = False,
    paths: bool = False,
) -> NetworkFidelity:
    """Uniform weight p everywhere: :func:`average_max_fidelity`, with the
    effective length if asked and the closed form where one exists. Both
    read the count profile :mod:`fidelity` caches per link skeleton, the
    same for every p below 1, so a sweep over p counts once."""
    p = check_weight(p)
    n, edges = _spec_edges(spec)
    net = Network(n, tuple((u, v, p) for u, v in edges))
    nf = average_max_fidelity(net, paths)
    length = effective_path_length(net) if with_eff_length else None
    value = diff = None
    if spec.family in CANONICAL_FAMILIES:
        value = float(analytic.uniform_value(spec.family, spec.n, spec.k, p))
        diff = abs(nf.avg_max_fidelity - value)
    return replace(nf, effective_path_length=length, analytic_value=value, analytic_abs_diff=diff)


# --- scenario B ------------------------------------------------------------------
#
# Under an ME placement every weight is p or 1.0, and multiplying by 1.0 is
# exact, so a path's product is t[c] = p·p·…·p with c factors, c the number
# of non-ME links on the path: the float the engine forms. Only a subnormal
# product can stall (t[c+1] == t[c]), for p > 1/2 after more than 1022
# factors, and the path cap admits no path past 160 links, so a pair's best
# path is one with the least c, and its tie count is the number of its
# simple paths at that c (or 1: see ``fidelity._levels``). The kernel therefore
# needs only the graph's simple paths, enumerated once, and evaluates batches
# of placements with integer array operations. Past the path cap the engine
# counts non-ME links by the same rule, on one Network per placement.
#
# A symmetry of the graph maps a placement to one with the same multiset of
# pair (best c, ties), so to the same average and pair fidelities, bit for
# bit. An exhaustive point therefore evaluates one placement per orbit of
# the family's symmetries (:func:`_spec_symmetries`), and sums each value
# once per member of its orbit: fsum rounds the exact sum of a multiset
# once, whatever the order, so mean and deviation equal the sums over every
# placement.

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
    adj = _link_adjacency(n, edges)
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


def _kernel_values(paths, table, me: np.ndarray):
    """Network averages of a batch of placements, one per row of ``me`` (its
    ME link indices), with each placement's worst and best pair fidelity.
    ``table`` holds the fidelity of t[c] and whether a pair at t[c] counts
    once, as :func:`fidelity._levels` gives them.

    The average is fsum(ties * fidelity) / sum(ties) over pairs, which does
    not depend on pair order; ties are counted as the engine counts them.
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
        net = Network(n, tuple((u, v, 1.0 if e in chosen else p)
                               for e, (u, v) in enumerate(edges)))
        nf = average_max_fidelity(net)
        values.append(nf.avg_max_fidelity)
        worst, best = min(worst, nf.worst_pair_fidelity), max(best, nf.best_pair_fidelity)
    return values, (worst, best)


def _placement_values(n, edges, p, placements):
    """Network average per placement, and the worst and best pair fidelity
    over all of them. ``placements`` (ME link index tuples, or the rows of
    an array of them) is consumed in chunks by the path-count kernel; graphs
    past the path cap run the engine on one Network per placement."""
    paths = _simple_paths(n, edges)
    if paths is None:
        return _engine_values(n, edges, p, placements)
    _, fidelity, once, _ = _levels(p, int(paths[1].max()))
    table = np.array(fidelity), np.array(once)
    size = max(1, _CHUNK_ENTRIES // len(paths[1]))
    placements = iter(placements)
    values, worst, best = [], 1.0, 0.0
    while chunk := list(itertools.islice(placements, size)):
        batch, lo, hi = _kernel_values(paths, table, np.array(chunk, dtype=np.intp))
        values += batch
        worst, best = min(worst, float(lo.min())), max(best, float(hi.max()))
    return values, (worst, best)


@lru_cache(maxsize=64)
def _placement_orbits(link_count: int, symmetries: tuple, m_links: int):
    """The orbits of the M-link placements under the group the link
    permutations ``symmetries`` generate: (representatives, sizes), one
    read-only ``intc`` row per orbit (its lexicographically first
    placement) and the orbit's size, in lexicographic order.

    The sorted placement c_0 < c_1 < ... has rank C(L, M) - 1 minus the sum
    of its ``weights[j, c_j]`` = C(L - 1 - c_j, M - j). A pass over the
    placements in blocks ranks their sorted images, as one int32 permutation
    of the ranks per generator (C(L, M) <= EXHAUSTIVE_CAP). Each round, every
    label (at first its own rank) takes the least of its images' labels,
    then pointers jump (``label[label]``). Labels only fall and stay in their
    orbit, so when a round changes none, each is its orbit's least rank: its
    first member's, which a second pass picks out."""
    total = comb(link_count, m_links)
    weights = np.array([[comb(link_count - 1 - c, m_links - j) for c in range(link_count)]
                        for j in range(m_links)], dtype=np.int32).reshape(m_links, link_count)
    dtype = np.min_scalar_type(link_count - 1)  # of a link index
    def blocks(stop):  # (start, rows of the placements ranked start, start + 1, ... < stop)
        combos = itertools.combinations(range(link_count), m_links)
        for start in range(0, stop, 1 << 16):
            count = min(1 << 16, stop - start)
            flat = itertools.chain.from_iterable(itertools.islice(combos, count))
            yield start, np.fromiter(flat, dtype, count * m_links).reshape(count, m_links)
    generators = [(np.array(g, dtype=dtype), np.empty(total, dtype=np.int32)) for g in symmetries]
    for start, block in blocks(total):
        for perm, rank in generators:
            image = np.sort(perm[block], axis=1).T
            rank[start : start + len(block)] = total - 1 - sum(map(np.take, weights, image))
    label, previous = np.arange(total, dtype=np.int32), None
    while previous != (previous := int(label.sum())):  # labels only fall
        for _, rank in generators:
            np.minimum(label, label[rank], out=label)
        label = label[label]
    generators = rank = None  # ranks freed before the counts: memory stays bounded
    roots = np.flatnonzero(label == np.arange(total, dtype=np.int32))
    picked = [block[roots[(start <= roots) & (roots < start + len(block))] - start]
              for start, block in blocks(int(roots[-1]) + 1)]
    representatives = np.concatenate(picked, dtype=np.intc)
    representatives.flags.writeable = False  # cached: every caller shares it
    return representatives, tuple(np.bincount(label)[roots].tolist())


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


def _scenario_B(n, edges, p, m_links, mode, samples, seed, symmetries=()):
    """:func:`run_scenario_B` on an edge list, with the worst and best pair
    fidelity over its placements. An exhaustive point evaluates one
    placement per orbit under the link permutations ``symmetries``
    (:func:`_spec_symmetries`), or streams every placement when there are
    none."""
    p = check_weight(p)
    link_count = len(edges)
    if not 0 <= m_links <= link_count:
        raise WeightError(f"m_links must lie in [0, {link_count}], got {m_links}")
    mode = placement_mode(mode, link_count, m_links)
    sizes = None
    if mode == "exhaustive" and symmetries:
        placements, sizes = _placement_orbits(link_count, symmetries, m_links)
    elif mode == "exhaustive":
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
    count = len(values) if sizes is None else comb(link_count, m_links)

    def every(per_value):  # each orbit's value once per member
        if sizes is None:
            return per_value
        return itertools.chain.from_iterable(map(itertools.repeat, per_value, sizes))

    mean = fsum(every(values)) / count
    deviation = fsum(every((v - mean) ** 2 for v in values))
    return _estimate(mode, count, mean, deviation, min(values), max(values)), extremes


def run_scenario_B(
    spec: TopologySpec,
    p: float,
    m_links: int,
    mode: str = "auto",
    samples: int | None = None,
    seed: int = 0,
) -> EstimateResult:
    """Weight 1 on m_links links and p elsewhere, aggregated over placements.

    Exhaustive mode averages every C(L, M) placement (std_error is exactly
    0; the min/max envelope is across placements). Sample mode draws
    ``samples`` placements (1000 when unset) uniformly with the seeded
    generator. ``"auto"`` (the default) picks between them by
    :func:`placement_mode`: exhaustive up to :data:`EXHAUSTIVE_CAP`
    placements, sampled past it. Placements index the links in
    :func:`edge_skeleton` order, or a custom file's sorted order. Tree
    families carry :func:`analytic.me_value` as ``analytic_value``.

    On a ring, a complete graph or a star an exhaustive point evaluates one
    placement per orbit of the family's symmetries (rotations and
    reflections of the ring, relabellings of K_n's nodes and of the star's
    leaves) and counts it once per member of its orbit. Every result field
    equals the average over every placement bit for bit; ``sample_count``
    is still C(L, M). The chain, the flower and custom graphs evaluate
    every placement.
    """
    n, edges = _spec_edges(spec)
    samples = 1000 if samples is None else samples
    result = _scenario_B(n, edges, p, m_links, mode, samples, seed, _spec_symmetries(spec))[0]
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
    Tier-1 pins them; the sweep only tabulates. (For even n, ring and star
    tie at n=4 and the star is never below the ring from n=6 on: both put
    weight 2/n on one hop, and the star puts the rest on two hops where the
    ring spreads it to longer paths. For odd n it can depend on p: ring 7
    beats star 7 below p = 1/7, so at every default distance.)
    """
    result = SweepResult(("family", "n", "alpha", "p_det", "d_km", "p", "f"))
    for token in families:
        spec = parse_family(token, n, flower_k)
        for d in d_values:
            p = decoherence_weight(DecoherenceParams(alpha, p_det, float(d)))
            f = run_scenario_A(spec, p).avg_max_fidelity
            result.rows.append((token, n, alpha, p_det, float(d), p, f))
    result.metadata["alpha"] = repr(alpha)
    result.metadata["p_det"] = repr(p_det)
    return result


# --- advantage regions and large-N behaviour ----------------------------------


def _me_links(m: float, links: int) -> int:
    """M = round(m * L) for the ME fraction m. An m outside [0, 1], NaN and inf
    included, raises ValueError naming m, unless M leaves [0, L]: the M checks name M."""
    if not 0 <= m <= 1 and (not isfinite(m) or 0 <= round(m * links) <= links):
        raise ValueError(f"m must lie in [0, 1], got {m}")
    return round(m * links)


def advantage_region(
    spec: TopologySpec,
    p_values,
    m_values,
    mode: str = "auto",
    samples: int | None = None,
    seed: int = 0,
) -> SweepResult:
    """Grid of placement-averaged fidelity with quantum-advantage flags.

    Per (p, m) point, with M = round(m * L): ``avg_advantage`` is mean
    fidelity > 2/3; ``any_path_advantage`` uses the best pair fidelity over
    placements, ``all_path_advantage`` the worst. Node and link counts come
    from the graph itself. Rows run p outer, m inner.

    ``mode="auto"`` evaluates tree families in closed form, one distinct M
    at a time over the whole p grid (:func:`analytic.me_grid`; every value
    equals the point-by-point :func:`analytic.me_value` bit for bit, and the
    worst and best pair come from the same placement counts), and other
    graphs point by point as :func:`placement_mode` resolves it:
    every placement, or ``samples`` seeded ones (200 when unset) past
    :data:`EXHAUSTIVE_CAP`.
    ``"exhaustive"`` or ``"sample"`` runs that mode point by point for
    every family. The ``method`` column records what each point ran. An
    exhaustive point on a ring, a complete graph or a star evaluates one
    placement per orbit of its symmetries, as :func:`run_scenario_B` does,
    with the same values, worst and best pair.
    """
    ps, ms = list(map(float, p_values)), list(map(float, m_values))
    n, edges = _spec_edges(spec)
    family, k, links = spec.family, spec.k, len(edges)
    # points (p, m, M, f, worst, best, method), p outer and m inner
    if family in TREE_FAMILIES and mode == "auto":
        m_links_values = [_me_links(m, links) for m in ms]
        grid = analytic.me_grid(family, n, k, m_links_values, ps)
        cells = {m_links: list(zip(*columns)) for m_links, columns in grid.items()}
        points = ((p, m, m_links, *cells[m_links][i], "analytic")
                  for i, p in enumerate(ps) for m, m_links in zip(ms, m_links_values))
    else:
        symmetries = _spec_symmetries(spec)
        samples = 200 if samples is None else samples
        points = []
        for p, m in itertools.product(ps, ms):
            m_links = _me_links(m, links)
            est, (worst, best) = _scenario_B(n, edges, p, m_links, mode, samples, seed, symmetries)
            points.append((p, m, m_links, est.mean, worst, best, est.mode))
    t = ADVANTAGE_THRESHOLD
    return SweepResult(
        (
            "family", "n", "k", "p", "m", "m_links", "f",
            "avg_advantage", "any_path_advantage", "all_path_advantage", "method",
        ),
        [(family, n, k, p, m, m_links, f, f > t, best > t, worst > t, method)
         for p, m, m_links, f, worst, best, method in points],
    )


def large_N_limit_check(
    family: str,
    p: float,
    m: float,
    n_values,
    k: int | None = None,
) -> SweepResult:
    """Tabulate the placement-averaged fidelity against network size, one row
    per n in the order given. It only tabulates: the large-N statements it
    shows (the chain falls toward 1/2, the star nears
    :func:`analytic.star_me_limit`) are pinned by the tests, not here."""
    result = SweepResult(("family", "p", "m", "n", "m_links", "f", "f_minus_half"))
    for n in n_values:
        m_links = _me_links(m, n - 1)
        f = float(analytic.me_value(family, n, k, m_links, p))
        result.rows.append((family, p, m, n, m_links, f, f - 0.5))
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
