"""One pass of one workload, in a fresh interpreter.

Started by run.py, never by hand. Builds the inputs from the seed, runs the
case list once as a closed loop with one caller, checks every output outside
the timed region, and writes one JSON result to ``--result``. With
``--trace 1`` the library is wrapped by bench/tracing.py for the set-up and
the pass, and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    import numpy
    import workloads  # imports qnetfid
    from calibration import calibrate

    workload = workloads.WORKLOADS[args.workload]
    for module in workload.imports:
        importlib.import_module(module)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    case = tracer.case if tracer else (lambda trace_id: nullcontext())

    region_start = time.perf_counter()
    with case("setup"):
        prepared = workload.build(args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned_at

    outputs = []
    case_s = []
    calibration_s = [calibrate()]  # around every case: see calibration.py
    for name, run in prepared.cases:
        with case(f"{args.workload}:{name}"):
            start = time.perf_counter()
            outputs.append(run())
            case_s.append(time.perf_counter() - start)
        calibration_s.append(calibrate())
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.summary(end - region_start)
        layers.update(prepared.layer_counts(outputs))
        tracer.write(args.spans, region_start)

    try:
        checks = prepared.check(outputs)
        work = prepared.work(outputs)
    finally:
        prepared.cleanup()

    result = {
        "traced": bool(args.trace),
        "wall_s": sum(case_s),
        "case_s": case_s,
        "calibration_s": calibration_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "work": work,
        "unit": workload.unit,
        "checks": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
        "layers": layers,
        "numpy": numpy.__version__,
        "case_count": len(prepared.cases),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
