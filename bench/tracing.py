"""Span tracing for the traced pass.

The tracer wraps qnetfid's public functions at every module that imports
them (``qnetfid.scenarios.average_max_fidelity`` as well as
``qnetfid.fidelity.average_max_fidelity``), so a call is seen however the
library reaches it. Each call becomes a span (name, start, end, parent span,
trace id) kept in memory; the spans are written out once the pass ends.
Counts are taken at the same boundaries, from arguments and returned
records. Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs timed as spans, named "<module>.<function>".
TIMED = (
    ("network", "generate"),
    ("fidelity", "average_max_fidelity"),
    ("fidelity", "effective_path_length"),
    ("scenarios", "run_scenario_A"),
    ("scenarios", "run_scenario_B"),
    ("scenarios", "run_scenario_C"),
    ("scenarios", "pair_products_batch"),
    ("scenarios", "advantage_region"),
    ("scenarios", "decoherence_sweep"),
    ("scenarios", "large_N_limit_check"),
    ("analytic", "me_value"),
    ("analytic", "uniform_value"),
    ("cli", "main"),
)
WITH_WEIGHTS = "network.with_weights"
SPAN_NAMES = tuple(f"{module}.{function}" for module, function in TIMED) + (WITH_WEIGHTS,)

# Floyd-Warshall step k of pair_products_batch multiplies and compares one
# B x N x N slice: 2 B N^2 flops, and 8-byte writes and reads of the slice
# and its temporary product, 32 B N^2 bytes. Summed over the N steps.
FLOP_PER_BN3 = 2
BYTES_PER_BN3 = 32


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: Counter = Counter()
        self.max_degeneracy = 0
        self._stack: list[int] = []
        self._trace_id = "setup"
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def case(self, trace_id: str):
        """Tag every span opened inside with ``trace_id``."""
        previous, self._trace_id = self._trace_id, trace_id
        try:
            yield
        finally:
            self._trace_id = previous

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._trace_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "qnetfid" or key.startswith("qnetfid.")
        ]
        after = {
            "fidelity.average_max_fidelity": self._after_average,
            "scenarios.run_scenario_B": self._after_placements,
            "scenarios.run_scenario_C": self._after_samples,
            "scenarios.pair_products_batch": self._after_kernel,
        }
        for module_name, function in TIMED:
            home = sys.modules.get(f"qnetfid.{module_name}")
            if home is None:  # qnetfid.cli is imported only by the presets workload
                continue
            original = getattr(home, function)
            name = f"{module_name}.{function}"
            wrapper = self._wrap(name, original, after.get(name))
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._patch(module, attr, wrapper)

        network_cls = sys.modules["qnetfid.network"].Network
        self._patch(
            network_cls, "with_weights", self._wrap(WITH_WEIGHTS, network_cls.with_weights)
        )
        post_init = network_cls.__post_init__
        counts = self.counts

        def counted_post_init(net):
            counts["network.networks"] += 1
            post_init(net)

        self._patch(network_cls, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _after_average(self, args, kwargs, result):
        records = result.pair_records
        self.counts["fidelity.pairs"] += len(records)
        degeneracies = [r.degeneracy for r in records]
        self.counts["fidelity.tied_pairs"] += sum(1 for d in degeneracies if d > 1)
        self.max_degeneracy = max(self.max_degeneracy, max(degeneracies))

    def _after_placements(self, args, kwargs, result):
        estimate = result[0] if isinstance(result, tuple) else result
        self.counts["scenarios.placements"] += estimate.sample_count

    def _after_samples(self, args, kwargs, result):
        self.counts["scenarios.samples"] += result.sample_count

    def _after_kernel(self, args, kwargs, result):
        weights, _, node_count = args
        bn3 = weights.shape[0] * node_count**3
        self.counts["scenarios.pair_products_batch.flop_computed"] += FLOP_PER_BN3 * bn3
        self.counts["scenarios.pair_products_batch.bytes_computed"] += BYTES_PER_BN3 * bn3

    def summary(self, region_seconds: float) -> dict[str, float]:
        """Per-layer metrics of the traced region.

        ``<span>_s`` is self time (the span minus its child spans) summed
        over calls, except ``cli.main_s``, which is inclusive; ``cli.self_s``
        is main's self time. ``harness.self_s`` is the region's time outside
        every span.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        total_time = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = Counter()
        root_time = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            self_time[name] += duration - child_time[index]
            total_time[name] += duration
            calls[name] += 1
            if parent < 0:
                root_time += duration
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}_s"] = self_time[name]
            metrics[f"{name}.calls"] = calls[name]
        metrics["cli.main_s"] = total_time["cli.main"]
        metrics["cli.self_s"] = self_time["cli.main"]
        for key in (
            "fidelity.pairs",
            "fidelity.tied_pairs",
            "network.networks",
            "scenarios.placements",
            "scenarios.samples",
            "scenarios.pair_products_batch.flop_computed",
            "scenarios.pair_products_batch.bytes_computed",
            "cli.csv_bytes",  # filled in by the presets workload
        ):
            metrics[key] = self.counts[key]
        metrics["fidelity.max_degeneracy"] = self.max_degeneracy
        kernel_s = self_time["scenarios.pair_products_batch"]
        flop = self.counts["scenarios.pair_products_batch.flop_computed"]
        metrics["scenarios.pair_products_batch.gflop_per_s"] = (
            flop / kernel_s / 1e9 if kernel_s > 0 else 0.0
        )
        metrics["harness.self_s"] = region_seconds - root_time
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def write(self, path: str, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, trace_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "trace_id": trace_id,
                        }
                    )
                    + "\n"
                )
