"""Graph model, canonical topology generators, and edge-list file I/O.

A network is an undirected, connected, simple graph on nodes 0..N-1 whose
edge weights lie in [0, 1]. The weight is the Werner parameter of the state
shared across that link: 1.0 is a maximally entangled (ME) link, 0.0 is a
link that carries no quantum advantage at all (but is still traversable).
"""

from __future__ import annotations

import operator
import os
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union


class NetworkError(ValueError):
    """Base class for validation failures raised by this package."""


class TopologySpecError(NetworkError):
    """Invalid topology family or family parameters."""


class WeightError(NetworkError):
    """Invalid weight assignment (out of range, wrong length, bad ME mask)."""


class GraphError(NetworkError):
    """A constructed or loaded graph violates the network invariants."""


class EnumerationLimitError(NetworkError):
    """A tied-path enumeration exceeded its step cap on a valid graph."""


class EdgeListParseError(GraphError):
    """Edge-list file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


FAMILIES = ("chain", "star", "flower", "ring", "complete", "custom")
CANONICAL_FAMILIES = ("chain", "star", "flower", "ring", "complete")
TREE_FAMILIES = ("chain", "star", "flower")


@dataclass(frozen=True)
class TopologySpec:
    """Canonical family descriptor.

    ``k`` is only meaningful for the flower family: flower(0) has the chain
    shape and flower(n-3) the star shape. ``path`` is only meaningful for
    the custom family and points at an edge-list file. ``n`` and ``k`` take
    any integer type (numpy's too) and are stored as plain ints.
    """

    family: str
    n: int = 0
    k: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise TopologySpecError(f"unknown family {self.family!r}")
        try:
            object.__setattr__(self, "n", operator.index(self.n))
            object.__setattr__(self, "k", None if self.k is None else operator.index(self.k))
        except TypeError:
            raise TopologySpecError(f"n and k must be integers: {self.n!r}, {self.k!r}") from None
        if self.family == "custom":
            if not self.path:
                raise TopologySpecError("custom family requires an edge-list path")
            return
        n = self.n
        if self.family == "ring":
            if n < 3:
                raise TopologySpecError("ring requires n >= 3")
        elif n < 2:
            raise TopologySpecError(f"{self.family} requires n >= 2")
        if self.family == "flower":
            if self.k is None:
                raise TopologySpecError("flower requires k")
            if not 0 <= self.k <= n - 3:
                raise TopologySpecError(
                    f"flower k must satisfy 0 <= k <= n-3, got k={self.k}, n={n}"
                )
        elif self.k is not None:
            raise TopologySpecError("k is only valid for the flower family")

    @classmethod
    def chain(cls, n: int) -> "TopologySpec":
        return cls("chain", n)

    @classmethod
    def star(cls, n: int) -> "TopologySpec":
        return cls("star", n)

    @classmethod
    def flower(cls, n: int, k: int) -> "TopologySpec":
        return cls("flower", n, k=k)

    @classmethod
    def ring(cls, n: int) -> "TopologySpec":
        return cls("ring", n)

    @classmethod
    def complete(cls, n: int) -> "TopologySpec":
        return cls("complete", n)

    @classmethod
    def custom(cls, path: str) -> "TopologySpec":
        return cls("custom", path=path)


def parse_family(token: str, n: int, k: int | None = None) -> TopologySpec:
    """Spec for a family token: ``chain``, ``flower:3``, or ``flower`` with ``k``.

    ``k`` only fills in a flower token that carries no ``:K`` of its own;
    other families ignore it. A flower without any k is rejected.
    """
    name, colon, rest = token.strip().partition(":")
    if colon:
        try:
            k = int(rest)
        except ValueError:
            raise TopologySpecError(f"bad family token {token!r}") from None
        return TopologySpec(name, n, k=k)
    if name != "flower":
        return TopologySpec(name, n)
    if k is None:
        raise TopologySpecError("flower requires k (use --k or 'flower:K')")
    return TopologySpec.flower(n, k)


@dataclass(frozen=True)
class MEPlacement:
    """Weight rule for networks with maximally entangled links.

    The listed link indices (positions in the family's edge order, see
    :func:`edge_skeleton`) get weight 1.0; every other link gets ``p``.
    """

    me_links: tuple[int, ...]
    p: float


WeightAssignment = Union[float, Sequence[float], MEPlacement]

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class Network:
    """Immutable weighted graph; edges are canonicalised to u < v and sorted.

    Validation rejects self-loops, duplicate undirected edges, weights
    outside [0, 1], and disconnected graphs. Instances are safe to share
    across threads.
    """

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = self.node_count
        if not isinstance(n, int) or n < 1:
            raise GraphError(f"node count must be a positive integer, got {n!r}")
        seen: set[tuple[int, int]] = set()
        canon = []
        for u, v, p in self.edges:
            if not isinstance(u, int) or not isinstance(v, int):
                raise GraphError(f"node ids must be integers, got ({u!r}, {v!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} nodes")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise GraphError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise GraphError(f"weight out of range on edge ({a}, {b}): {p}")
            canon.append((a, b, p))
        canon.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "edges", tuple(canon))
        if not self._is_connected():
            raise GraphError("graph is not connected")

    def _is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        neigh: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v, _ in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in neigh[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.node_count

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-node tuple of (neighbour, weight), sorted by neighbour id."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.node_count)]
        for u, v, p in self.edges:
            adj[u].append((v, p))
            adj[v].append((u, p))
        return tuple(tuple(sorted(a)) for a in adj)

    def with_weights(self, weights: Sequence[float]) -> "Network":
        """Same edge set with new weights (aligned with ``self.edges``)."""
        if len(weights) != len(self.edges):
            raise WeightError(
                f"expected {len(self.edges)} weights, got {len(weights)}"
            )
        return Network(
            self.node_count,
            tuple((u, v, float(w)) for (u, v, _), w in zip(self.edges, weights)),
        )


def edge_skeleton(spec: TopologySpec) -> list[tuple[int, int]]:
    """Edge list (without weights) of a canonical family, in index order.

    The order is the contract for ME placements: chain (0,1),(1,2),...;
    star (0,1),...,(0,n-1) with node 0 the hub; flower spokes first then the
    stem continuing from the last spoke; ring is the chain plus (n-1,0);
    complete enumerates (i,j) with i < j.
    """
    family, n, k = spec.family, spec.n, spec.k
    if family == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "star":
        return [(0, i) for i in range(1, n)]
    if family == "flower":
        # hub 0; petals 1..k+1; spoke k+2 continues as the stem k+3..n-1
        edges = [(0, i) for i in range(1, k + 3)]
        prev = k + 2
        for node in range(k + 3, n):
            edges.append((prev, node))
            prev = node
        return edges
    if family == "ring":
        return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    if family == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise TopologySpecError(f"no skeleton for family {family!r}")


def check_weight(p) -> float:
    """``p`` as a float link weight, or WeightError outside [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise WeightError(f"weight out of range: {p}")
    return p


def _resolve_weights(link_count: int, weights: WeightAssignment) -> list[float]:
    if isinstance(weights, MEPlacement):
        p = check_weight(weights.p)
        mask = set()
        for idx in weights.me_links:
            if not 0 <= idx < link_count:
                raise WeightError(
                    f"ME link index {idx} out of range for {link_count} links"
                )
            if idx in mask:
                raise WeightError(f"duplicate ME link index {idx}")
            mask.add(idx)
        return [1.0 if i in mask else p for i in range(link_count)]
    if isinstance(weights, (int, float)):
        return [check_weight(weights)] * link_count
    values = [float(w) for w in weights]
    if len(values) != link_count:
        raise WeightError(f"expected {link_count} weights, got {len(values)}")
    return [check_weight(w) for w in values]


def generate(spec: TopologySpec, weights: WeightAssignment | None = None) -> Network:
    """Build a Network for ``spec`` with the given weight assignment."""
    if spec.family == "custom":
        if weights is not None:
            raise TopologySpecError("custom family takes its weights from the file")
        return load_edge_list(spec.path)
    if weights is None:
        raise WeightError("a weight assignment is required for generated families")
    skeleton = edge_skeleton(spec)
    values = _resolve_weights(len(skeleton), weights)
    return Network(spec.n, tuple((u, v, w) for (u, v), w in zip(skeleton, values)))


def load_edge_list(path: str | os.PathLike) -> Network:
    """Parse an edge-list file.

    Format: the first meaningful line holds the node count N; every later
    non-empty line that does not start with '#' reads ``u v p`` with 0-based
    integer ids and a decimal weight. UTF-8, LF or CRLF.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    node_count: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if node_count is None:
            try:
                node_count = int(text)
            except ValueError:
                raise EdgeListParseError(f"expected node count, got {text!r}", lineno)
            if node_count < 1:
                raise EdgeListParseError(f"node count must be positive: {node_count}", lineno)
            continue
        parts = text.split()
        if len(parts) != 3:
            raise EdgeListParseError(f"expected 'u v p', got {text!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"node ids must be integers: {text!r}", lineno)
        try:
            p = float(parts[2])
        except ValueError:
            raise EdgeListParseError(f"weight must be a decimal: {parts[2]!r}", lineno)
        if not 0.0 <= p <= 1.0:
            raise EdgeListParseError(f"weight out of range: {p}", lineno)
        edges.append((u, v, p))
    if node_count is None:
        raise EdgeListParseError("empty edge-list file", len(lines) or 1)
    return Network(node_count, tuple(edges))


def write_text_atomic(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write the UTF-8 text ``chunks`` with LF endings to a temporary file in
    the target directory, then rename it over ``path``: no partial file is
    ever left, even when producing a chunk raises. Chunks are written as they
    come, so the whole text need never be in memory at once.

    The file is created with mode 0o666 less the umask, as ``open()`` would
    create it (``tempfile.mkstemp`` would leave it 0o600). An ``OSError`` is
    raised again with its errno but naming ``path``, not the temporary file.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def save_edge_list(net: Network, path: str | os.PathLike) -> None:
    """Write ``net`` in the edge-list format (atomically: temp file + rename)."""
    write_text_atomic(path, [format_edge_list(net)])


def format_edge_list(net: Network) -> str:
    lines = [str(net.node_count)]
    for u, v, p in net.edges:
        lines.append(f"{u} {v} {p!r}")
    return "\n".join(lines) + "\n"
