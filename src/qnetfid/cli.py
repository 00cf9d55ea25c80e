"""Command-line front end.

Subcommands: ``generate`` (write an edge-list file), ``compute`` (one
network or scenario evaluation), ``sweep`` (parameter sweeps to CSV,
including the figure presets). Exit codes: 0 success, 2 usage error,
3 I/O failure, 4 graph validation failure, 5 computation limit reached
(the tied-path enumeration cap); ``EXIT_CODES`` maps error classes to them.

CSV conventions: '.' decimal point, ',' separator, LF line endings, header
row always present, ``# key: value`` metadata lines before the header (a
line break in a value is written as the two characters ``\\n`` or ``\\r``).
Cells: empty for None, ``true``/``false`` for bools, floats with 12
significant digits (``%.12g``), ``str`` otherwise. Output files are written
to a temporary file in blocks of rows and renamed, so partial files are
never left behind.
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
    RNG_ALGORITHM,
    SweepResult,
    advantage_region,
    decoherence_sweep,
    large_N_limit_check,
    run_scenario_A,
    run_scenario_B,
    run_scenario_C,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_GRAPH = 4
EXIT_LIMIT = 5
# error class -> exit code; the first class the error is an instance of wins
EXIT_CODES = {(TopologySpecError, WeightError): EXIT_USAGE, GraphError: EXIT_GRAPH,
              EnumerationLimitError: EXIT_LIMIT, OSError: EXIT_IO, ValueError: EXIT_USAGE}


def _fmt(value) -> str:
    """One output cell: empty for None, ``true``/``false`` for a bool, 12
    significant digits for a float (numpy floats too), ``str`` otherwise.
    ``compute``'s text lines use it; every table uses it or the column
    formats below, which give the same strings."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# A column of a CSV block whose values all have one of these exact types is
# formatted by one %-conversion, giving _fmt's strings; any other column
# (bools, None, numpy scalars, mixed types such as k) maps _fmt over its values.
COLUMN_FORMATS = {float: "%.12g", int: "%s", str: "%s"}
# rows per block: the writer holds one block's text at a time
CSV_BLOCK_ROWS = 4096


def _csv_blocks(result: SweepResult, sep: str = ","):
    """The CSV text of ``result`` in chunks: the metadata lines and header,
    then one chunk per block of rows, cells joined by ``sep`` (a space for
    ``compute``'s text table). A row whose length is not the column count
    raises ValueError naming its index."""
    for key, value in result.metadata.items():
        yield f"# {key}: " + str(value).replace("\n", r"\n").replace("\r", r"\r") + "\n"
    width = len(result.columns)
    yield sep.join(result.columns) + "\n"
    for start in range(0, len(result.rows), CSV_BLOCK_ROWS):
        block = result.rows[start:start + CSV_BLOCK_ROWS]
        lengths = list(map(len, block))
        if lengths.count(width) != len(block):
            bad = next(i for i, length in enumerate(lengths) if length != width)
            raise ValueError(f"row {start + bad} has {lengths[bad]} values for {width} columns")
        cells = list(zip(*block))
        formats = []
        for i, column in enumerate(cells):
            kinds = set(map(type, column))
            form = COLUMN_FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
            if form is None:
                cells[i], form = list(map(_fmt, column)), "%s"
            formats.append(form)
        template = sep.join(formats) + "\n"
        yield "".join([template % row for row in zip(*cells)])


def _count(text: str) -> int:
    """argparse type for sample, placement and grid-point counts (>= 1)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve(args, reads: dict, tables, variant: str) -> argparse.Namespace:
    """``args`` for one variant of a subcommand, with every unset option it
    reads filled in. ``reads`` maps those options to their values when unset
    (None: the variant checks); ``tables`` holds every variant's ``reads``.
    These options parse as None, so an explicit 0 stays 0. Giving one that
    ``variant`` does not read is a usage error naming each, in declaration
    order."""
    others = {dest for table in tables for dest in table} - reads.keys()
    given = [dest for dest, value in vars(args).items() if dest in others and value is not None]
    if given:
        drop = " ".join("--" + dest.replace("_", "-") for dest in given)
        raise TopologySpecError(f"{variant} does not read these options; drop {drop}")
    unset = {dest: value for dest, value in reads.items() if getattr(args, dest) is None}
    return argparse.Namespace(**{**vars(args), **unset})


def _parse_list(option: str, text: str, kind=int) -> list:
    """The comma-separated ``kind`` values of ``option``; a token that does
    not parse is a usage error naming the option and the token."""
    values = []
    for tok in filter(str.strip, text.split(",")):
        try:
            values.append(kind(tok))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{option}: {tok.strip()!r} is not {noun}") from None
    return values


# --- generate ----------------------------------------------------------------


# weight source -> the options it reads (none has a default)
GENERATE_SOURCES = {
    "--weights": {"weights": None}, "--me-links": {"me_links": None, "p": None},
    "--p": {"p": None},
}


def _weights_from_args(args) -> object:
    source = (
        "--weights" if args.weights is not None
        else "--me-links" if args.me_links is not None else "--p"
    )
    args = _resolve(args, GENERATE_SOURCES[source], GENERATE_SOURCES.values(), source)
    if args.weights is not None:
        return _parse_list("--weights", args.weights, float)
    if args.me_links is not None:
        if args.p is None:
            raise WeightError("--me-links requires --p for the remaining links")
        return MEPlacement(tuple(_parse_list("--me-links", args.me_links)), args.p)
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


PAIR_COLUMNS = ("source", "target", "product", "fidelity", "degeneracy", "path")


def _pair_rows(records):
    # one string per node id, joined along each path; every node but 0 is a target
    ids = [str(v) for v in range(max(r.target for r in records) + 1)]
    return [
        dict(zip(PAIR_COLUMNS, (r.source, r.target, r.product, r.fidelity, r.degeneracy,
                                "-".join([ids[x] for x in r.best_path]))))
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
    return {"f_avg_mean": est.mean, "std_error": est.std_error, "sample_count": est.sample_count,
            "f_min": est.sample_min, "f_max": est.sample_max, "spread_std": est.spread_std}


_SPEC = {"family": None, "n": None, "k": None}
# variant -> {option dest: value when unset}; --format is read by every variant
COMPUTE_VARIANTS = {
    "--graph": {"graph": None, "pairs": False, "eff_length": False},
    "scenario A": {**_SPEC, "scenario": None, "p": None, "pairs": False, "eff_length": False},
    "scenario B": {**_SPEC, "scenario": None, "p": None, "me_count": None, "samples": None,
                   "seed": 0},
    "scenario C": {**_SPEC, "scenario": None, "samples": None, "seed": 0, "threads": None},
}


def cmd_compute(args) -> int:
    variant = "--graph" if args.graph is not None else f"scenario {args.scenario or 'A'}"
    args = _resolve(args, COMPUTE_VARIANTS[variant], COMPUTE_VARIANTS.values(), variant)
    if variant == "--graph":
        net = load_edge_list(args.graph)
        nf = average_max_fidelity(net, args.pairs)
        if args.eff_length:
            nf = replace(nf, effective_path_length=effective_path_length(net))
        doc = _network_doc(args, nf)
    else:
        if args.family is None:
            raise TopologySpecError("provide --graph or --family")
        if args.n is None:
            raise TopologySpecError("--family requires --n")
        spec = parse_family(args.family, args.n, args.k)
        if variant == "scenario A":
            if args.p is None:
                raise TopologySpecError("scenario A requires --p")
            nf = run_scenario_A(spec, args.p, with_eff_length=args.eff_length, paths=args.pairs)
            exact = _analytic_fraction(spec.family, spec.n, spec.k, args.p)
            doc = _network_doc(args, nf, exact)
        elif variant == "scenario B":
            if args.p is None or args.me_count is None:
                raise TopologySpecError("scenario B requires --p and --me-count")
            est = run_scenario_B(spec, args.p, args.me_count, args.samples, args.seed)
            doc = _estimate_doc(est)
            doc["placement_mode"] = est.mode
            if est.analytic_value is not None:
                doc["analytic"] = est.analytic_value
        else:
            doc = _estimate_doc(run_scenario_C(spec, args.samples, args.seed, args.threads))
            doc["seed"] = args.seed
            doc["rng"] = RNG_ALGORITHM
    _emit_compute(doc, args.format)
    return EXIT_OK


def _emit_compute(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
        return
    # the pairs table if there is one, else the document as one row
    pairs = doc.pop("pairs", None)
    table = (SweepResult(PAIR_COLUMNS, [row.values() for row in pairs]) if pairs
             else SweepResult(tuple(doc), [doc.values()]))
    if fmt == "csv":
        sys.stdout.writelines(_csv_blocks(table))
        return
    for key, value in doc.items():
        print(f"{key} {value:.6f}" if key in ("f_avg", "f_avg_mean") else f"{key} {_fmt(value)}")
    if pairs:
        print("pairs:")
        sys.stdout.writelines(_csv_blocks(table, " "))


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


def _family_tokens(args) -> list[str]:
    return [token.strip() for token in args.family.split(",")]


def _specs_from_args(args, n: int) -> list[TopologySpec]:
    return [parse_family(token, n, args.k) for token in _family_tokens(args)]


GRID_CAP = 10**6  # most values one sweep axis may hold: --points, or --d-step's distances


def _unit_grid(points: int) -> np.ndarray:
    """``points`` evenly spaced values on [0, 1], checked against GRID_CAP first."""
    if points > GRID_CAP:
        raise ValueError(f"--points {points} gives more than {GRID_CAP} grid points")
    return np.linspace(0.0, 1.0, points)


def _joined(parts) -> SweepResult:
    """The first table, with every later table's rows appended."""
    result, *rest = parts
    for part in rest:
        result.rows.extend(part.rows)
    return result


def _sweep_p(args) -> SweepResult:
    result = SweepResult(("family", "k", "n", "p", "f", "f_analytic", "abs_diff"))
    for spec in _specs_from_args(args, args.n):
        for p in _unit_grid(args.points):
            nf = run_scenario_A(spec, float(p))
            result.rows.append((
                spec.family, spec.k, args.n, float(p), nf.avg_max_fidelity,
                nf.analytic_value, nf.analytic_abs_diff,
            ))
    return result


def _m_series(args, spec, p):
    """Scenario B at every ME count M = 0..L of one spec: (M, M / L, estimate)."""
    links = len(edge_skeleton(spec))
    for m_links in range(links + 1):
        est = run_scenario_B(spec, p, m_links, args.samples, args.seed)
        yield m_links, m_links / links, est


def _sweep_m(args) -> SweepResult:
    result = SweepResult(
        (
            "family", "k", "n", "p", "m_links", "m", "f_mean", "f_min",
            "f_max", "f_std", "std_error", "placements", "f_analytic", "method",
        )
    )
    for spec in _specs_from_args(args, args.n):
        for m_links, m, est in _m_series(args, spec, args.p):
            result.rows.append((
                spec.family, spec.k, args.n, args.p, m_links, m, est.mean,
                est.sample_min, est.sample_max, est.spread_std,
                est.std_error, est.sample_count, est.analytic_value, est.mode,
            ))
    return result


# the four benchmark (p, m) cases; --p or --m picks one, the other as in the first
N_CASES = ((0.5, 0.6), (0.9, 0.6), (0.5, 0.5), (0.5, 0.9))


def _sweep_N(args) -> SweepResult:
    n_values = _parse_list("--n-list", args.n_list)
    if not n_values:
        raise ValueError(f"--n-list {args.n_list!r} holds no node counts")
    pm_cases = N_CASES
    if args.p is not None or args.m is not None:
        p, m = N_CASES[0]
        pm_cases = ((p if args.p is None else args.p, m if args.m is None else args.m),)
    # the smallest size validates each token (a flower's k must fit every n)
    return _joined([
        large_N_limit_check(spec.family, p, m, n_values, k=spec.k)
        for spec in _specs_from_args(args, min(n_values)) for p, m in pm_cases
    ])


def _sweep_d(args) -> SweepResult:
    if not 0 < args.d_step < np.inf:
        raise ValueError(f"--d-step must be positive and finite, got {args.d_step}")
    for option, value in (("--d-min", args.d_min), ("--d-max", args.d_max)):
        if not np.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    if args.d_max < args.d_min:
        raise ValueError(f"--d-max {args.d_max} lies below --d-min {args.d_min}")
    if (args.d_max - args.d_min) / args.d_step >= GRID_CAP:
        raise ValueError(f"--d-step {args.d_step} gives more than {GRID_CAP} distances")
    d_values = np.arange(args.d_min, args.d_max + args.d_step / 2, args.d_step)
    return decoherence_sweep(
        families=tuple(_family_tokens(args)), n=args.n, alpha=args.alpha, p_det=args.p_det,
        d_values=tuple(float(d) for d in d_values), flower_k=args.k,
    )


def _sweep_pm_grid(args) -> SweepResult:
    grid = _unit_grid(args.points)
    return _joined([
        advantage_region(spec, grid, grid, samples=args.samples, seed=args.seed)
        for spec in _specs_from_args(args, args.n)
    ])


def _sweep_fig2(args) -> SweepResult:
    n, p = args.n, args.p
    result = SweepResult(
        (
            "scenario", "family", "k", "n", "p", "m_links", "m", "placements",
            "samples", "avg_path_length", "f_mean", "f_min", "f_max",
            "f_std", "std_error",
        )
    )
    for spec in _specs_from_args(args, n):
        family, k = spec.family, spec.k
        path_len = effective_path_length(generate(spec, p))
        for m_links, m, est in _m_series(args, spec, p):
            result.rows.append((
                "B", family, k, n, p, m_links, m, est.sample_count,
                None, path_len, est.mean, est.sample_min, est.sample_max,
                est.spread_std, est.std_error,
            ))
        est = run_scenario_C(spec, args.samples, args.seed, args.threads)
        result.rows.append((
            "C", family, k, n, None, None, None, None, est.sample_count, path_len,
            est.mean, est.sample_min, est.sample_max, est.spread_std,
            est.std_error,
        ))
    return result


def _sweep_fig3c(args) -> SweepResult:
    result = SweepResult(
        ("family", "k", "n", "samples", "f_mean", "std_error", "f_min", "f_max", "f_std")
    )
    for spec in _specs_from_args(args, args.n):
        est = run_scenario_C(spec, args.samples, args.seed, args.threads)
        result.rows.append((
            spec.family, spec.k, args.n, est.sample_count, est.mean, est.std_error,
            est.sample_min, est.sample_max, est.spread_std,
        ))
    return result


# kind or preset -> (builder, {option dest: value when unset}). --k, --seed,
# --no-timestamp and -o are read by every variant and keep their parser
# defaults. An unset --samples or --threads is passed on as None: each
# scenario owns its default.
SWEEP_KINDS = {
    "p": (_sweep_p, {"family": "chain,star", "n": 10, "points": 101}),
    "m": (_sweep_m, {"family": "chain,star", "n": 10, "p": 0.5, "samples": None}),
    "N": (_sweep_N, {"family": "star,chain", "n_list": "10,20,50,100,200,500", "p": None,
                     "m": None}),
    "d": (_sweep_d, {"family": "chain,star,ring,complete", "n": 8, "alpha": 0.46, "p_det": 1.0,
                     "d_min": 30.0, "d_max": 150.0, "d_step": 10.0}),
    "pm-grid": (_sweep_pm_grid, {"family": "star", "n": 100, "points": 101, "samples": None}),
}


def _preset(kind: str, **values):
    """A kind's table with other values."""
    build, reads = SWEEP_KINDS[kind]
    return build, {**reads, **values}


PRESET_TABLE = {
    "fig2": (_sweep_fig2, {"family": "chain,flower:1,flower:2,flower:3,star", "n": 7, "p": 0.5,
                           "samples": None, "threads": None}),
    "fig3a": _preset("p", family="chain,flower:3,star"),
    "fig3b": _preset("m", family="chain,flower:3,star"),
    "fig3c": (_sweep_fig3c, {"family": "chain,flower:3,star", "n": 10, "samples": None,
                             "threads": None}),
    "fig3def": _preset("pm-grid", family="star,flower:48,chain"),
    "fig4": _preset("N"),
    "fig5": _preset("d"),
}
PRESETS = tuple(PRESET_TABLE)


def cmd_sweep(args, argv) -> int:
    build, reads = SWEEP_KINDS[args.kind] if args.kind else PRESET_TABLE[args.preset]
    variant = f"--kind {args.kind}" if args.kind else f"--preset {args.preset}"
    tables = [table for _, table in (*SWEEP_KINDS.values(), *PRESET_TABLE.values())]
    args = _resolve(args, reads, tables, variant)
    result = build(args)
    result.metadata = {**_sweep_metadata(args, argv), **result.metadata}
    out = args.out or f"{args.preset or args.kind}.csv"
    write_text_atomic(out, _csv_blocks(result))
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
    gen.add_argument("--k", type=int, help="flower parameter")
    gen.add_argument("--p", type=float, help="uniform link weight")
    gen.add_argument("--weights", help="comma-separated weights")
    gen.add_argument("--me-links", help="comma-separated ME link indices")
    gen.add_argument("-o", "--out", help="output path (default stdout)")
    gen.set_defaults(func=lambda a, argv: cmd_generate(a))

    comp = sub.add_parser("compute", help="evaluate one network or scenario")
    comp.add_argument("--graph", help="edge-list file to evaluate")
    comp.add_argument("--family", help=FAMILY_HELP)
    comp.add_argument("--n", type=int)
    comp.add_argument("--k", type=int)
    comp.add_argument("--scenario", choices=("A", "B", "C"), help="default A")
    comp.add_argument("--p", type=float)
    comp.add_argument("--me-count", type=int, help="scenario B ME link count")
    comp.add_argument("--samples", type=_count, help="scenario B placements or C samples")
    comp.add_argument("--seed", type=int)
    comp.add_argument("--threads", type=int)
    comp.add_argument("--pairs", action="store_true", default=None, help="per-pair table")
    comp.add_argument("--eff-length", action="store_true", default=None)
    comp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    comp.set_defaults(func=lambda a, argv: cmd_compute(a))

    sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    what = sweep.add_mutually_exclusive_group(required=True)
    what.add_argument("--kind", choices=SWEEP_KINDS)
    what.add_argument("--preset", choices=PRESETS)
    sweep.add_argument(  # one option, two spellings: dest "family"
        "--family", "--families", help="comma list, e.g. chain,flower:3,star"
    )
    sweep.add_argument("--n", type=int)
    sweep.add_argument("--k", type=int)
    sweep.add_argument("--p", type=float)
    sweep.add_argument("--m", type=float, help="ME link fraction")
    sweep.add_argument("--n-list", help="comma list of node counts")
    sweep.add_argument("--points", type=_count, help="grid points per axis")
    sweep.add_argument("--samples", type=_count)
    sweep.add_argument("--alpha", type=float, help="fibre attenuation dB/km")
    sweep.add_argument("--p-det", type=float)
    sweep.add_argument("--d-min", type=float)
    sweep.add_argument("--d-max", type=float)
    sweep.add_argument("--d-step", type=float)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--threads", type=int)
    sweep.add_argument("--no-timestamp", action="store_true")
    sweep.add_argument("-o", "--out", help="output CSV path")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES.items() if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
