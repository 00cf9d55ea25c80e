#!/usr/bin/env python3
"""Write bench/references.json, the stored references the checks compare with.

Run from the repository root: ``python3 bench/make_refs.py``.

- ``preset_sha256``: SHA-256 of each ``sweep --preset`` CSV (``--no-timestamp``,
  seed 0). They were recorded once, at the commit that added the benchmark,
  and are the byte-identity oracle for every later change: rerun this only
  to add a preset, never to accept changed bytes.
- ``placements``: exhaustive Scenario B mean, min and max for the ring and
  complete cases of the placements workload. They come from the plain
  enumerator below, which lists every simple path of every placement and
  shares no code with the library's search; it takes about a minute.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
from math import fsum

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qnetfid  # noqa: E402
import qnetfid.cli  # noqa: E402
import workloads  # noqa: E402


def network_average(n: int, skeleton, weights) -> float:
    """Degeneracy-weighted pair average by listing every simple path.

    Products are accumulated from the lower-numbered node along the path;
    paths tie on exact equality; pairs whose best product is 0 or 1 count
    once (the documented convention).
    """
    adj = [[] for _ in range(n)]
    for (u, v), w in zip(skeleton, weights):
        adj[u].append((v, w))
        adj[v].append((u, w))
    terms = []
    total = 0
    for s in range(n - 1):
        best = [-1.0] * n
        ties = [0] * n
        on_path = [False] * n
        on_path[s] = True

        def extend(u, prod):
            for v, w in adj[u]:
                if on_path[v]:
                    continue
                nxt = prod * w
                if nxt > best[v]:
                    best[v], ties[v] = nxt, 1
                elif nxt == best[v]:
                    ties[v] += 1
                on_path[v] = True
                extend(v, nxt)
                on_path[v] = False

        extend(s, 1.0)
        for t in range(s + 1, n):
            prod = best[t]
            degeneracy = 1 if prod <= 0.0 or prod >= 1.0 else ties[t]
            terms.append(degeneracy * ((1.0 + prod) / 2.0))
            total += degeneracy
    return fsum(terms) / total


def placement_reference(family: str, n: int, m: int, p: float) -> dict:
    skeleton = qnetfid.edge_skeleton(qnetfid.TopologySpec(family, n))
    values = []
    for chosen in itertools.combinations(range(len(skeleton)), m):
        me = set(chosen)
        weights = [1.0 if e in me else p for e in range(len(skeleton))]
        values.append(network_average(n, skeleton, weights))
    lo, hi = min(values), max(values)
    return {"mean": min(max(fsum(values) / len(values), lo), hi), "min": lo, "max": hi,
            "placements": len(values), "p": p}


def preset_hashes() -> dict:
    hashes = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for preset in workloads.PRESETS:
                if qnetfid.cli.main(workloads.preset_argv(preset)) != 0:
                    raise SystemExit(f"preset {preset} failed")
                with open(f"{preset}.csv", "rb") as fh:
                    hashes[preset] = hashlib.sha256(fh.read()).hexdigest()
        finally:
            os.chdir(home)
    return hashes


def main() -> int:
    placements = {}
    for family, n, m in workloads.PLACEMENT_CASES:
        if family in qnetfid.TREE_FAMILIES:
            continue  # trees are checked against the closed form
        label = f"{family}{n}-m{m}"
        placements[label] = placement_reference(family, n, m, workloads.PLACEMENT_P)
    refs = {"preset_sha256": preset_hashes(), "placements": placements}
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
