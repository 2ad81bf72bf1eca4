"""Command-line interface.

Subcommands: ``synth`` (generate a synthetic dataset), ``split`` (train/test
split of a trips file), ``annotate`` (fit edge weights and write them out),
``evaluate`` (compare the objective variants on a held-out split), and
``pagerank-stats`` (dual-graph PageRank and degree statistics).

The run settings, RunConfig's fields and ``--config``, are options of
``annotate`` and ``evaluate`` only: ``pagerank-stats`` reads none of them.
``evaluate --variant`` picks the variant its loss-ratio curve and its
training-size sweep report.

Exit codes: 0 success, 2 input validation failure, 3 solver non-convergence,
4 I/O error. Settings are checked and output directories created before any
input is loaded. Diagnostics go to stderr only. Set ROADCOST_LOG to a level
name (debug, info, warning, error) to control log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
import textwrap
from pathlib import Path

from .config import VARIANTS, RunConfig, parse_config_file
from .dataio import (
    HEADERS,
    load_dataset,
    load_schedule,
    save_dataset,
    save_trips,
    write_csv,
    write_weights,
)
from .errors import ConvergenceError, GenerationError, LoadError
from .evaluation import (
    build_constraints,
    edge_coverage,
    pool_fractions,
    run_comparison,
    solve_variant,
    training_size_sweep,
)
from .graph import build_dual
from .pagerank import degree_stats, dual_weights, pagerank, pagerank_stats
from .solver import objective_terms
from .synth import SyntheticSpec, generate_synthetic
from .trips import check_split, partition_by_tag, split_trips

_FORMAT_NOTES = {"network": "(speed blank if unknown)", "schedule": "(day_class: weekday|weekend)"}
_FORMATS_EPILOG = "file formats (CSV, UTF-8, header row required):\n" + "".join(
    f"  {name + ':':<10}{','.join(header):<44}{_FORMAT_NOTES.get(name, '')}".rstrip() + "\n"
    for name, header in HEADERS.items()
) + textwrap.fill(
    "config file: key=value lines ("
    + ", ".join(f.name for f in dataclasses.fields(RunConfig))
    + "); command-line flags override file values.",
    width=72,
    subsequent_indent="  ",
) + "\n"


def _add_dataset_args(parser: argparse.ArgumentParser, trips_required: bool = True):
    parser.add_argument("--network", required=True, help="network CSV")
    parser.add_argument("--schedule", required=True, help="tag schedule CSV")
    parser.add_argument("--trips", required=trips_required, help="trips CSV")
    parser.add_argument("--costs", required=trips_required, help="trip costs CSV")


def _add_config_args(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file")
    for f in dataclasses.fields(RunConfig):
        kind = {"choices": sorted(VARIANTS)} if f.name == "variant" else {"type": type(f.default)}
        parser.add_argument("--" + f.name.replace("_", "-"), **kind)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = parse_config_file(args.config) if args.config else RunConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    return dataclasses.replace(config, **overrides)


def _columns(rows: list[tuple[str, ...]]):
    """``write_csv``'s ``columns_of`` for a table given as rows of field texts."""
    return lambda part: zip(*rows[part])


def _numbers(flag: str, text: str, form: str, width: int) -> tuple:
    """The comma-separated numbers of ``text``, or its lo:hi pairs of them when
    ``width`` is 2; any other text is an error naming the flag and its form."""
    try:
        items = [tuple(map(float, item.split(":"))) for item in text.split(",")]
    except ValueError:
        items = []
    if not items or any(len(item) != width for item in items):
        raise ValueError(f"{flag} takes {form}, got {text!r}")
    return tuple(items) if width == 2 else tuple(item[0] for item in items)


def _synth_spec(args: argparse.Namespace) -> SyntheticSpec:
    tags = tuple(t.strip() for t in args.tags.split(",") if t.strip())
    ranges = _numbers("--weight-ranges", args.weight_ranges, "comma-separated lo:hi pairs", 2)
    limits = (
        _numbers("--speed-limits", args.speed_limits, "comma-separated km/h numbers", 1)
        if args.speed_limits
        else None
    )
    return SyntheticSpec(
        rows=args.rows,
        cols=args.cols,
        tags=tags,
        weight_ranges=ranges,
        n_trips=args.n_trips,
        trip_len=(args.trip_len_min, args.trip_len_max),
        coverage=args.coverage,
        noise=args.noise,
        speed_limit_choices=limits,
        truth_from_speed_limits=args.truth_from_speed_limits,
        cover_all_entries=args.cover_all_entries,
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    graph, truth, trips = generate_synthetic(_synth_spec(args), args.seed)
    paths = save_dataset(graph, trips, args.out, truth=truth)
    logging.getLogger(__name__).info(
        "wrote %d trips over %d edges to %s", len(trips), graph.n_edges, args.out
    )
    print("\n".join(str(p) for p in paths.values()))
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    check_split(args.train_fraction, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph, trips = load_dataset(args.network, args.schedule, args.trips, args.costs)
    train, test = split_trips(trips, args.train_fraction, args.seed)
    save_trips(train, graph, out / "train_trips.csv", out / "train_costs.csv")
    save_trips(test, graph, out / "test_trips.csv", out / "test_costs.csv")
    print(f"{len(train)} train / {len(test)} test")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    for path in (args.out, args.report):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    graph, trips = load_dataset(args.network, args.schedule, args.trips, args.costs)
    dual = build_dual(graph)
    matrices = build_constraints(trips, graph, dual, config)
    weights, mask, info = solve_variant(
        matrices, trips.costs(), graph, config, config.variant
    )
    write_weights(args.out, graph, weights, mask)

    alpha, beta = config.variant_coefficients(config.variant)
    terms = objective_terms(
        weights.values, matrices.q, trips.costs(),
        matrices.l_a if alpha else None, matrices.l_b if beta else None,
        alpha, beta, config.gamma,
    )
    coverage_per_variant = {
        variant: edge_coverage(graph, matrices.mask(*config.variant_coefficients(variant)))
        for variant in sorted(VARIANTS)
    }
    report = {
        "config": dataclasses.asdict(config),
        "variant": config.variant,
        "cg_iterations": info.iterations,
        "cg_relative_residual": info.residual,
        "preconditioner_nnz": info.factor_nnz,
        "q_nnz": matrices.q.nnz,
        "l_b_nnz": matrices.l_b.nnz,
        "l_a_pairs": matrices.l_a.pairs,
        "objective": dataclasses.asdict(terms),
        "coverage_per_variant": coverage_per_variant,
        "n_trips": len(trips),
        "n_edges": graph.n_edges,
        "n_tags": graph.n_tags,
    }
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    fractions = ()
    if args.sweep_fractions:
        numbers = _numbers("--sweep-fractions", args.sweep_fractions, "comma-separated numbers", 1)
        fractions = pool_fractions(numbers)
    check_split(args.train_fraction, config.seed)  # annotate uses no seed: RunConfig takes any
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph, trips = load_dataset(args.network, args.schedule, args.trips, args.costs)
    dual = build_dual(graph)
    train, test = split_trips(trips, args.train_fraction, config.seed)
    report = run_comparison(train, test, graph, dual, config)
    (out / "report.json").write_text(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    curve = [(str(pct), "%.6f" % frac) for pct, frac in report.alr_curve]
    write_csv(out / "alr_curve.csv", ["threshold_pct", "fraction"], len(curve), _columns(curve))
    coverage = [(v, "%.6f" % c) for v, c in sorted(report.coverage_per_variant.items())]
    write_csv(out / "coverage.csv", ["variant", "coverage"], len(coverage), _columns(coverage))
    if fractions:
        sweep = training_size_sweep(
            trips, graph, dual, config,
            fractions=fractions,
            test_fraction=1.0 - args.train_fraction,
        )
        rows = [("%.3f" % f, "%.6f" % s) for f, s in sweep]
        write_csv(out / "sweep.csv", ["train_pool_fraction", "ssl"], len(rows), _columns(rows))
    return 0


def _cmd_pagerank_stats(args: argparse.Namespace) -> int:
    # trips are optional here: without them every transition matrix falls
    # back to the uniform random walk on the dual graph
    if (args.trips is None) != (args.costs is None):
        raise ValueError("--trips and --costs are read together: give both or neither")
    tag_names = load_schedule(args.schedule).tags
    if args.tag and args.tag not in tag_names:
        raise ValueError(f"unknown tag {args.tag!r}; known tags: {', '.join(tag_names)}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph, trips = load_dataset(args.network, args.schedule, args.trips, args.costs)
    dual = build_dual(graph)
    partitions = partition_by_tag(trips, graph.tag_schedule)
    tag = tag_names.index(args.tag) if args.tag else 0
    pr = pagerank(dual_weights(dual, partitions[tag], tag=tag), pattern=dual.chain_pattern)
    percentages = pagerank_stats(pr)
    buckets = [(str(b + 1), "%.17g" % p) for b, p in enumerate(percentages.tolist())]
    write_csv(
        out / "pagerank_buckets.csv", ["bucket", "percentage"], len(buckets), _columns(buckets)
    )
    rows = list(zip(graph.edge_ids, ["%.12g" % v for v in pr.values.tolist()]))
    write_csv(
        out / "pagerank_values.csv", ["dual_vertex_id", "pagerank"], len(rows), _columns(rows)
    )
    stats = degree_stats(dual)
    counts = (stats.n_vertices, stats.n_edges, stats.max_in, stats.max_out)
    write_csv(
        out / "degree_stats.csv",
        ["n_dual_vertices", "n_dual_edges", "max_in", "max_out", "avg_degree"],
        1,
        _columns([(*map(str, counts), "%.6f" % stats.avg_degree)]),
    )
    return 0


@functools.cache  # parsing leaves the parser as it was: one build per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadcost",
        description="Annotate road-network edges with time-varying travel-cost weights",
        epilog=_FORMATS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = SyntheticSpec()
    p = sub.add_parser("synth", help="generate a synthetic grid dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rows", type=int, default=spec.rows)
    p.add_argument("--cols", type=int, default=spec.cols)
    p.add_argument("--tags", default=",".join(spec.tags), help="comma-separated tag names")
    p.add_argument(
        "--weight-ranges",
        default=",".join(f"{lo!r}:{hi!r}" for lo, hi in spec.weight_ranges),
        help="per-tag lo:hi unit-cost ranges, comma separated",
    )
    p.add_argument("--n-trips", type=int, default=spec.n_trips)
    p.add_argument("--trip-len-min", type=int, default=spec.trip_len[0])
    p.add_argument("--trip-len-max", type=int, default=spec.trip_len[1])
    p.add_argument("--coverage", type=float, default=spec.coverage, help="edge coverage target")
    p.add_argument("--noise", type=float, default=spec.noise, help="relative cost noise")
    p.add_argument("--speed-limits", help="comma-separated km/h choices")
    p.add_argument("--truth-from-speed-limits", action="store_true")
    p.add_argument("--cover-all-entries", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="deterministic train/test split")
    _add_dataset_args(p)
    p.add_argument("--train-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("annotate", help="fit weights for every (edge, tag) entry")
    _add_dataset_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output weights CSV")
    p.add_argument("--report", required=True, help="output run-report JSON")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("evaluate", help="compare objective variants on a held-out split")
    _add_dataset_args(p)
    _add_config_args(p)
    p.add_argument("--train-fraction", type=float, default=0.5)
    p.add_argument(
        "--sweep-fractions",
        default=None,
        help="also sweep training-pool fractions (e.g. 0.2,0.4,0.6,0.8,1.0) "
        "and write sweep.csv",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pagerank-stats", help="dual-graph PageRank and degree statistics")
    _add_dataset_args(p, trips_required=False)
    p.add_argument("--tag", default=None, help="tag name (default: first tag)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pagerank_stats)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, os.environ.get("ROADCOST_LOG", "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LoadError as exc:
        print(f"error [{exc.code}]:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    except (ValueError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
