#!/usr/bin/env python3
"""qnetfid benchmark: one workload, measured for a fixed time.

Run from the repository root:

    python3 bench/run.py --workload engine --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh interpreter (bench/worker.py),
one after the other: a closed loop with one caller and threads=1. Passes
are started until the next one would end after ``--seconds``. With
``--trace 0`` every pass is untraced. ``ref_wall_s`` is one pass at the
reference CPU speed (see ``ref_pass_s``); ``setup_s``, scaled to that speed
by the calibration that follows it, and ``peak_rss_mb`` are medians over
passes. With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics are medians over traced passes and
``trace.overhead_s`` is the traced minus the untraced ``ref_wall_s``.

Every output is checked outside the timed region. The report lines name
each metric with its unit; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The metric
names and units come from BENCHMARK.json. A full result, with machine facts
and every pass, is written to bench/.out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
PASS_TIMEOUT_S = 150


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_root)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_root, entry, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            facts["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass
    return facts


def child_env() -> dict:
    env = dict(os.environ)
    env["QNETFID_THREADS"] = "1"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the worker puts src/ first itself
    return env


def run_pass(workload: str, seed: int, traced: bool, index: int, env: dict) -> dict:
    tag = f"{workload}-seed{seed}"
    result_path = os.path.join(OUT, f"pass-{tag}.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--workdir", OUT, "--result", result_path,
        "--spans", os.path.join(OUT, f"spans-{workload}.jsonl"),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass {index} of {workload} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.unlink(result_path)
    result["elapsed_s"] = time.monotonic() - spawned_at
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def ref_pass_s(passes: list[dict]) -> float:
    """Seconds one pass takes at the reference CPU speed.

    Each case's time is divided by the mean of the calibrations run just
    before and after it (calibration.py), the median of that ratio is taken
    over ``passes``, and the medians are summed over the cases and scaled by
    ``calibration.REFERENCE_S``.
    """
    ratios = []
    for p in passes:
        cal = p["calibration_s"]
        ratios.append([t / ((cal[i] + cal[i + 1]) / 2) for i, t in enumerate(p["case_s"])])
    return REFERENCE_S * sum(statistics.median(r) for r in zip(*ratios))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qnetfid", "__init__.py")):
        print(f"error: qnetfid sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS  # imports qnetfid

    names = sorted(WORKLOADS)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2

    # bytecode is built once here, so no pass pays for compiling the sources
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(OUT, exist_ok=True)
    env = child_env()

    pattern = (False, True) if args.trace else (False,)
    passes: list[dict] = []
    started = time.monotonic()
    deadline = started + args.seconds
    while True:
        traced = pattern[len(passes) % len(pattern)]
        passes.append(run_pass(args.workload, args.seed, traced, len(passes), env))
        enough = len(passes) >= len(pattern)
        if enough and time.monotonic() + passes[-1]["elapsed_s"] > deadline:
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c["passed"]]
    works = {p["work"] for p in passes}
    if len(works) != 1:
        print(f"error: work per pass differs between passes: {sorted(works)}",
              file=sys.stderr)
        return 1
    work = works.pop()

    summary = {
        # set-up scaled like the cases, by the calibration that follows it
        "setup_s": quartiles(
            [REFERENCE_S * p["setup_s"] / p["calibration_s"][0] for p in plain]
        ),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in plain]),
        "plain_wall_s": quartiles([p["wall_s"] for p in plain]),
        "plain_setup_s": quartiles([p["setup_s"] for p in plain]),
        "calibration_s": quartiles([c for p in plain for c in p["calibration_s"]]),
    }
    wall = ref_pass_s(plain)
    end_to_end = {
        "ref_wall_s": wall,
        "setup_s": summary["setup_s"][1],
        "peak_rss_mb": summary["peak_rss_mb"][1],
        "ref_throughput_per_s": work / wall,
    }

    facts = machine_facts()
    facts.update(numpy=passes[0]["numpy"], threads=1, seed=args.seed)
    print(
        "machine: nproc={nproc} affinity={affinity} cpu={cpu_model!r} caches={caches} "
        "python={python} numpy={numpy} threads={threads} seed={seed}".format(**facts)
    )
    print(
        f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes of "
        f"{passes[0]['case_count']} cases in {time.monotonic() - started:.1f} s; "
        f"closed loop, one caller"
    )
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    units.update(plain_wall_s="s", plain_setup_s="s", calibration_s="s")
    print(f"  {'ref_wall_s':<28} {wall:12.6g} s      one pass at the reference speed "
          f"(calibration {REFERENCE_S * 1e3:g} ms), from {len(plain)} passes")
    print(f"  {'ref_throughput_per_s':<28} {end_to_end['ref_throughput_per_s']:12.6g} 1/s    "
          f"{passes[0]['unit']} per second at the reference speed ({work} per pass)")
    notes = {"setup_s": "at the reference speed", "plain_wall_s": "unscaled whole pass",
             "plain_setup_s": "unscaled", "calibration_s": "every calibration"}
    for key, (q1, median, q3) in summary.items():
        print(f"  {key:<28} {median:12.6g} {units[key]:<6} median, quartiles "
              f"{q1:.6g} .. {q3:.6g}; {notes.get(key, 'per pass')}")
    print(f"  {'error_rate':<28} {len(failed) / len(checks):12.6g} 1      "
          f"{len(failed)} of {len(checks)} output checks failed")
    for c in failed[:20]:
        print(f"  FAILED {c['name']}: {c['detail']}")

    if args.trace:
        layer_values: dict[str, float] = {}
        for key in traced[0]["layers"]:
            layer_values[key] = statistics.median(p["layers"][key] for p in traced)
        layer_values["trace.overhead_s"] = ref_pass_s(traced) - wall
        missing = [m["name"] for m in config["per_layer"] if m["name"] not in layer_values]
        if missing:
            print(f"error: per-layer metrics not measured: {missing}", file=sys.stderr)
            return 1
        for name in sorted(layer_values):
            print(f"  {name:<46} {layer_values[name]:14.6g} {units.get(name, '')}")
        metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]}
                   for m in config["per_layer"]}
    else:
        layer_values = None
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in config["end_to_end"]}

    report = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    result_name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, result_name), "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "workload": args.workload, "seconds": args.seconds,
                   "summary": summary, "end_to_end": end_to_end, "layers": layer_values,
                   "failed_checks": failed, "passes": passes, "report": report}, fh, indent=1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
