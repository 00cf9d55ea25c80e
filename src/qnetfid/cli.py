"""Command-line front end.

Subcommands: ``generate`` (write an edge-list file), ``compute`` (one
network or scenario evaluation), ``sweep`` (parameter sweeps to CSV,
including the figure presets). Exit codes: 0 success, 2 usage error,
3 I/O failure, 4 graph validation failure, 5 computation limit reached
(the tied-path enumeration cap).

CSV conventions: '.' decimal point, ',' separator, LF line endings, header
row always present, floats with 12 significant digits, ``# key: value``
metadata lines before the header. Output files are written to a temporary
file and renamed, so partial files are never left behind.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shlex
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import __version__, analytic
from .fidelity import average_max_fidelity, effective_path_length
from .network import (
    EnumerationLimitError,
    GraphError,
    MEPlacement,
    TopologySpec,
    TopologySpecError,
    WeightError,
    edge_skeleton,
    format_edge_list,
    generate,
    load_edge_list,
    parse_family,
    save_edge_list,
    write_text_atomic,
)
from .scenarios import (
    PLACEMENT_MODES,
    RNG_ALGORITHM,
    SweepResult,
    advantage_region,
    decoherence_sweep,
    default_sample_count,
    large_N_limit_check,
    resolve_threads,
    run_scenario_A,
    run_scenario_B,
    run_scenario_C,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_GRAPH = 4
EXIT_LIMIT = 5


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(result: SweepResult, path: str) -> None:
    lines = [f"# {key}: {value}" for key, value in result.metadata.items()]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _count(text: str) -> int:
    """argparse type for sample, placement and grid-point counts (>= 1)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _unset_or(value, default):
    """``value``, or ``default`` when the option was not given (None); an
    explicit 0 stays 0."""
    return default if value is None else value


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# --- generate ----------------------------------------------------------------


def _weights_from_args(args) -> object:
    if args.weights is not None:
        return _parse_float_list(args.weights)
    if args.me_links is not None:
        if args.p is None:
            raise WeightError("--me-links requires --p for the remaining links")
        return MEPlacement(tuple(_parse_int_list(args.me_links)), args.p)
    if args.p is None:
        raise WeightError("provide --p, --weights, or --me-links with --p")
    return args.p


def cmd_generate(args) -> int:
    spec = parse_family(args.family, args.n, args.k)
    net = generate(spec, _weights_from_args(args))
    if args.out:
        save_edge_list(net, args.out)
    else:
        sys.stdout.write(format_edge_list(net))
    return EXIT_OK


# --- compute -----------------------------------------------------------------


def _pair_rows(records):
    return [
        {
            "source": r.source,
            "target": r.target,
            "product": r.product,
            "fidelity": r.fidelity,
            "degeneracy": r.degeneracy,
            "path": "-".join(str(x) for x in r.best_path),
        }
        for r in records
    ]


def _analytic_fraction(family, n, k, p):
    """Exact rational value when p has a small exact binary representation."""
    frac = Fraction(p)
    if frac.denominator > 1024:
        return None
    return analytic.uniform_value(family, n, k, frac)


def _network_doc(args, nf, exact: Fraction | None = None) -> dict:
    doc: dict = {"f_avg": nf.avg_max_fidelity}
    if nf.analytic_value is not None:
        doc["analytic"] = nf.analytic_value
        doc["analytic_abs_diff"] = nf.analytic_abs_diff
        if exact is not None:
            doc["analytic_exact"] = f"{exact.numerator}/{exact.denominator}"
    if nf.effective_path_length is not None:
        doc["effective_path_length"] = nf.effective_path_length
    if args.pairs:
        doc["pairs"] = _pair_rows(nf.pair_records)
    return doc


def _estimate_doc(est) -> dict:
    return {
        "f_avg_mean": est.mean,
        "std_error": est.std_error,
        "sample_count": est.sample_count,
        "f_min": est.sample_min,
        "f_max": est.sample_max,
        "spread_std": est.spread_std,
    }


def _reject_options(args, opts, reason: str) -> None:
    """Usage error naming every option of ``opts`` the user gave."""
    given = [f"--{opt}" for opt in opts if getattr(args, opt.replace("-", "_")) is not None]
    if given:
        raise TopologySpecError(f"{reason}; drop {' '.join(given)}")


def cmd_compute(args) -> int:
    if args.graph:
        _reject_options(
            args,
            ("family", "n", "k", "scenario", "p", "me-count", "mode", "samples", "threads"),
            "--graph uses the file's own weights",
        )
        net = load_edge_list(args.graph)
        nf = average_max_fidelity(net)
        if args.eff_length:
            nf = replace(nf, effective_path_length=effective_path_length(net))
        doc = _network_doc(args, nf)
    else:
        if args.family is None:
            raise TopologySpecError("provide --graph or --family")
        if args.n is None:
            raise TopologySpecError("--family requires --n")
        spec = parse_family(args.family, args.n, args.k)
        scenario = args.scenario or "A"
        if scenario == "A":
            _reject_options(
                args,
                ("me-count", "mode", "samples", "threads"),
                "scenario A weighs every link p",
            )
            if args.p is None:
                raise TopologySpecError("scenario A requires --p")
            nf = run_scenario_A(spec, args.p, with_eff_length=args.eff_length)
            exact = _analytic_fraction(spec.family, spec.n, spec.k, args.p)
            doc = _network_doc(args, nf, exact)
        elif scenario == "B":
            _reject_options(args, ("threads",), "scenario B runs on one thread")
            if args.p is None or args.me_count is None:
                raise TopologySpecError("scenario B requires --p and --me-count")
            est = run_scenario_B(
                spec, args.p, args.me_count, mode=_unset_or(args.mode, "auto"),
                samples=_unset_or(args.samples, 1000), seed=args.seed,
            )
            doc = _estimate_doc(est)
            doc["placement_mode"] = est.mode
            if est.analytic_value is not None:
                doc["analytic"] = est.analytic_value
        else:  # scenario C
            _reject_options(
                args, ("p", "me-count", "mode"), "scenario C draws every weight from U(0, 1)"
            )
            samples = _unset_or(args.samples, default_sample_count(spec.n))
            threads = resolve_threads(args.threads)
            est = run_scenario_C(spec, samples, seed=args.seed, threads=threads)
            doc = _estimate_doc(est)
            doc["seed"] = args.seed
            doc["rng"] = RNG_ALGORITHM
    _emit_compute(doc, args.format)
    return EXIT_OK


def _emit_compute(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
        return
    if fmt == "csv":
        pairs = doc.get("pairs")
        if pairs:
            cols = ("source", "target", "product", "fidelity", "degeneracy", "path")
            print(",".join(cols))
            for row in pairs:
                print(",".join(_fmt(row[c]) for c in cols))
        else:
            keys = [k for k in doc if k != "pairs"]
            print(",".join(keys))
            print(",".join(_fmt(doc[k]) for k in keys))
        return
    for key, value in doc.items():
        if key == "pairs":
            continue
        if key == "f_avg" or key == "f_avg_mean":
            print(f"{key} {value:.6f}")
        else:
            print(f"{key} {_fmt(value)}")
    pairs = doc.get("pairs")
    if pairs:
        print("pairs:")
        print("source target product fidelity degeneracy path")
        for row in pairs:
            print(
                f"{row['source']} {row['target']} {_fmt(row['product'])} "
                f"{_fmt(row['fidelity'])} {row['degeneracy']} {row['path']}"
            )


# --- sweep -------------------------------------------------------------------


def _sweep_metadata(args, argv) -> dict:
    meta = {
        "generator": f"qnetfid {__version__}",
        "command": shlex.join(argv),
        "seed": str(args.seed),
        "rng": RNG_ALGORITHM,
    }
    if not args.no_timestamp:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _family_tokens(args, default: str) -> list[str]:
    return [token.strip() for token in _unset_or(args.family, default).split(",")]


def _specs_from_args(args, default: str, n: int) -> list[TopologySpec]:
    return [parse_family(token, n, args.k) for token in _family_tokens(args, default)]


def _sweep_p(args) -> SweepResult:
    points = _unset_or(args.points, 101)
    n = _unset_or(args.n, 10)
    result = SweepResult(("family", "k", "n", "p", "f", "f_analytic", "abs_diff"))
    for spec in _specs_from_args(args, "chain,star", n):
        for p in np.linspace(0.0, 1.0, points):
            nf = run_scenario_A(spec, float(p))
            result.append(
                spec.family, spec.k, n, float(p), nf.avg_max_fidelity,
                nf.analytic_value, nf.analytic_abs_diff,
            )
    return result


def _m_series(args, spec, p):
    """Scenario B at every ME count M = 0..L of one spec: (M, M / L, estimate)."""
    links = len(edge_skeleton(spec))
    for m_links in range(links + 1):
        est = run_scenario_B(
            spec, p, m_links, mode=args.mode, samples=_unset_or(args.samples, 1000),
            seed=args.seed,
        )
        yield m_links, m_links / links, est


def _sweep_m(args) -> SweepResult:
    n = _unset_or(args.n, 10)
    p = _unset_or(args.p, 0.5)
    result = SweepResult(
        (
            "family", "k", "n", "p", "m_links", "m", "f_mean", "f_min",
            "f_max", "f_std", "std_error", "placements", "f_analytic", "method",
        )
    )
    for spec in _specs_from_args(args, "chain,star", n):
        for m_links, m, est in _m_series(args, spec, p):
            result.append(
                spec.family, spec.k, n, p, m_links, m, est.mean,
                est.sample_min, est.sample_max, est.spread_std,
                est.std_error, est.sample_count, est.analytic_value, est.mode,
            )
    return result


def _sweep_N(args) -> SweepResult:
    n_values = _parse_int_list(_unset_or(args.n_list, "10,20,50,100,200,500"))
    if not n_values:
        raise ValueError(f"--n-list {args.n_list!r} holds no node counts")
    if args.p is None and args.m is None:
        pm_cases = ((0.5, 0.6), (0.9, 0.6), (0.5, 0.5), (0.5, 0.9))
    else:
        pm_cases = ((_unset_or(args.p, 0.5), _unset_or(args.m, 0.6)),)
    result = SweepResult(("family", "p", "m", "n", "m_links", "f", "f_minus_half"))
    # the smallest size validates each token (a flower's k must fit every n)
    for spec in _specs_from_args(args, "star,chain", min(n_values)):
        for p, m in pm_cases:
            table = large_N_limit_check(spec.family, p, m, n_values, k=spec.k, check=False)
            result.rows.extend(table.rows)
    return result


def _sweep_d(args) -> SweepResult:
    if not args.d_step > 0:
        raise ValueError(f"--d-step must be positive, got {args.d_step}")
    if args.d_max < args.d_min:
        raise ValueError(f"--d-max {args.d_max} lies below --d-min {args.d_min}")
    d_values = tuple(
        float(d)
        for d in np.arange(args.d_min, args.d_max + args.d_step / 2, args.d_step)
    )
    return decoherence_sweep(
        families=tuple(_family_tokens(args, "chain,star,ring,complete")),
        n=_unset_or(args.n, 8),
        alpha=args.alpha,
        p_det=args.p_det,
        d_values=d_values,
        flower_k=args.k,
    )


def _sweep_pm_grid(args) -> SweepResult:
    grid = np.linspace(0.0, 1.0, _unset_or(args.points, 101))
    result, *rest = [
        advantage_region(
            spec, p_values=grid, m_values=grid, mode=args.mode,
            samples=_unset_or(args.samples, 200), seed=args.seed,
        )
        for spec in _specs_from_args(args, "star", _unset_or(args.n, 100))
    ]
    for part in rest:
        result.rows.extend(part.rows)
    return result


def _sweep_fig2(args) -> SweepResult:
    n = _unset_or(args.n, 7)
    p = _unset_or(args.p, 0.5)
    samples = _unset_or(args.samples, default_sample_count(n))
    threads = resolve_threads(args.threads)
    result = SweepResult(
        (
            "scenario", "family", "k", "n", "p", "m_links", "m", "placements",
            "samples", "avg_path_length", "f_mean", "f_min", "f_max",
            "f_std", "std_error",
        )
    )
    for spec in _specs_from_args(args, "chain,flower:1,flower:2,flower:3,star", n):
        family, k = spec.family, spec.k
        path_len = effective_path_length(generate(spec, p))
        for m_links, m, est in _m_series(args, spec, p):
            result.append(
                "B", family, k, n, p, m_links, m, est.sample_count,
                None, path_len, est.mean, est.sample_min, est.sample_max,
                est.spread_std, est.std_error,
            )
        est = run_scenario_C(spec, samples, seed=args.seed, threads=threads)
        result.append(
            "C", family, k, n, None, None, None, None, samples, path_len,
            est.mean, est.sample_min, est.sample_max, est.spread_std,
            est.std_error,
        )
    return result


def _sweep_fig3c(args) -> SweepResult:
    n = _unset_or(args.n, 10)
    samples = _unset_or(args.samples, default_sample_count(n))
    threads = resolve_threads(args.threads)
    result = SweepResult(
        ("family", "k", "n", "samples", "f_mean", "std_error", "f_min", "f_max", "f_std")
    )
    for spec in _specs_from_args(args, "chain,flower:3,star", n):
        est = run_scenario_C(spec, samples, seed=args.seed, threads=threads)
        result.append(
            spec.family, spec.k, n, samples, est.mean, est.std_error,
            est.sample_min, est.sample_max, est.spread_std,
        )
    return result


SWEEP_KINDS = {
    "p": _sweep_p,
    "m": _sweep_m,
    "N": _sweep_N,
    "d": _sweep_d,
    "pm-grid": _sweep_pm_grid,
}

# preset name -> (builder, values for options the user left unset)
PRESET_TABLE = {
    "fig2": (_sweep_fig2, {}),
    "fig3a": (_sweep_p, {"family": "chain,flower:3,star"}),
    "fig3b": (_sweep_m, {"family": "chain,flower:3,star"}),
    "fig3c": (_sweep_fig3c, {}),
    "fig3def": (_sweep_pm_grid, {"family": "star,flower:48,chain"}),
    "fig4": (_sweep_N, {}),
    "fig5": (_sweep_d, {}),
}
PRESETS = tuple(PRESET_TABLE)


def cmd_sweep(args, argv) -> int:
    if args.preset:
        build, defaults = PRESET_TABLE[args.preset]
        unset = {key: value for key, value in defaults.items() if getattr(args, key) is None}
        args = argparse.Namespace(**{**vars(args), **unset})
    else:
        build = SWEEP_KINDS[args.kind]
    result = build(args)
    meta = _sweep_metadata(args, argv)
    meta.update(result.metadata)
    result.metadata = meta
    out = args.out or f"{args.preset or args.kind}.csv"
    _write_csv(result, out)
    print(f"wrote {len(result.rows)} rows to {out}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------

FAMILY_HELP = "family token: chain, star, ring, complete, flower:K (or flower with --k)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetfid",
        description="Average maximum teleportation fidelity of repeater networks",
    )
    parser.add_argument("--version", action="version", version=f"qnetfid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a topology as an edge-list file")
    gen.add_argument("--family", required=True, help=FAMILY_HELP)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=None, help="flower parameter")
    gen.add_argument("--p", type=float, default=None, help="uniform link weight")
    gen.add_argument("--weights", default=None, help="comma-separated weights")
    gen.add_argument("--me-links", default=None, help="comma-separated ME link indices")
    gen.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=lambda a, argv: cmd_generate(a))

    comp = sub.add_parser("compute", help="evaluate one network or scenario")
    comp.add_argument("--graph", default=None, help="edge-list file to evaluate")
    comp.add_argument("--family", default=None, help=FAMILY_HELP)
    comp.add_argument("--n", type=int, default=None)
    comp.add_argument("--k", type=int, default=None)
    comp.add_argument("--scenario", choices=("A", "B", "C"), default=None)
    comp.add_argument("--p", type=float, default=None)
    comp.add_argument("--me-count", type=int, default=None, help="scenario B ME link count")
    comp.add_argument("--mode", choices=PLACEMENT_MODES, default=None,
                      help="scenario B placements (default auto)")
    comp.add_argument(
        "--samples", type=_count, default=None,
        help="scenario B sampled placements (default 1000); scenario C samples "
        "(default 10^5 up to 10 nodes, 10^3 above)",
    )
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--threads", type=int, default=None)
    comp.add_argument("--pairs", action="store_true", help="include the per-pair table")
    comp.add_argument("--eff-length", action="store_true")
    comp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    comp.set_defaults(func=lambda a, argv: cmd_compute(a))

    sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    what = sweep.add_mutually_exclusive_group(required=True)
    what.add_argument("--kind", choices=SWEEP_KINDS, default=None)
    what.add_argument("--preset", choices=PRESETS, default=None)
    sweep.add_argument(  # one option, two spellings: dest "family"
        "--family", "--families", default=None, help="comma list, e.g. chain,flower:3,star"
    )
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument("--k", type=int, default=None)
    sweep.add_argument("--p", type=float, default=None)
    sweep.add_argument("--m", type=float, default=None, help="ME link fraction")
    sweep.add_argument("--n-list", default=None, help="comma list of node counts")
    sweep.add_argument("--points", type=_count, default=None, help="grid points per axis")
    sweep.add_argument("--samples", type=_count, default=None)
    sweep.add_argument("--mode", choices=PLACEMENT_MODES, default="auto")
    sweep.add_argument("--alpha", type=float, default=0.46, help="fibre attenuation dB/km")
    sweep.add_argument("--p-det", type=float, default=1.0)
    sweep.add_argument("--d-min", type=float, default=30.0)
    sweep.add_argument("--d-max", type=float, default=150.0)
    sweep.add_argument("--d-step", type=float, default=10.0)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--threads", type=int, default=None)
    sweep.add_argument("--no-timestamp", action="store_true")
    sweep.add_argument("-o", "--out", default=None, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, list(argv))
    except (TopologySpecError, WeightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAPH
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
