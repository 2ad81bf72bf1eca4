"""Workloads, output checks and metrics of the roadcost benchmark.

One run of one workload, all in this process:

1. import ``roadcost`` from ``src/`` of the checkout (timed over several
   fresh imports, with numpy and scipy already loaded);
2. set up ``DATASETS`` datasets: generate each from a seed derived from
   ``--seed`` and write its CSVs;
3. run the job untraced on every dataset, round after round, for
   ``--seconds`` (at least one round); end-to-end metrics come from these
   runs, with times scaled to a reference speed of the host (``pace.py``);
4. with ``--trace 1``, run the first dataset's job once more untraced, then
   set it up again and run its job again with every function in ``TIMED``
   wrapped in a span; per-layer metrics come from this traced run.

Every job is checked, traced or not: PageRank vectors and CG solves are
checked as they are returned, output files after the job, and every job's
outputs must equal those of the first job on the same dataset. A job that
raises, exits non-zero or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from pace import Pacer
from probe import Probe, summarize

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One synthetic dataset shape and the job run on it."""

    kind: str  # annotate | gridsearch | evaluate
    rows: int
    cols: int
    n_trips: int
    speed_limits: Optional[tuple[float, ...]] = None

    def spec(self, rc):
        return rc.SyntheticSpec(
            rows=self.rows,
            cols=self.cols,
            n_trips=self.n_trips,
            coverage=0.3,
            noise=0.05,
            speed_limit_choices=self.speed_limits,
        )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "annotate-grid40": Workload("annotate", 40, 40, 2000, (50.0, 100.0)),
    "gridsearch-grid12": Workload("gridsearch", 12, 12, 144),
    "evaluate-grid30": Workload("evaluate", 30, 30, 4000),
}
# Each run sets up this many datasets of the workload's shape, from
# seed * DATASETS + k, and runs its jobs on them in turn. Job time depends on
# the data (CG iteration counts vary by about 10% from dataset to dataset),
# so spreading a run over several datasets keeps job_s steady from seed to seed.
DATASETS = 6
# Fresh imports of roadcost timed per run; setup_s adds their median.
IMPORT_SAMPLES = 5
# Third-party modules roadcost imports, loaded before the import is timed:
# their import time is not roadcost's.
PRELOADED = ("numpy", "scipy.sparse", "scipy.sparse.csgraph")

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "weight_rel_err": "ratio",
    "edge_coverage": "ratio",
}

# Functions wrapped in spans by the traced run, as <module>.<function>.
TIMED = (
    "dataio.load_dataset",
    "dataio.save_dataset",
    "dataio.write_weights",
    "synth.generate_synthetic",
    "graph.build_dual",
    "trips.partition_by_tag",
    "trips.split_trips",
    "pagerank.transition_matrices",
    "pagerank.pagerank",
    "solver.build_q",
    "solver.build_a",
    "solver.build_b",
    "solver.laplacian",
    "solver.solve_weights",
    "solver.annotated_mask",
    "solver.objective_terms",
    "evaluation.build_constraints",
    "evaluation.solve_variant",
    "evaluation.ssl",
    "evaluation.alr_curve",
    "evaluation.run_comparison",
    "evaluation.grid_search",
)

COUNTERS = {
    "dataio.records": "count",
    "graph.dual_edges": "count",
    "pagerank.iters": "count",
    "pagerank.residual_max": "l1",
    "solver.cg_iters": "count",
    "solver.cg_s_per_iter": "s",
    "solver.q_nnz": "count",
    "solver.a_nnz": "count",
    "solver.b_nnz": "count",
    "evaluation.solve_variant_calls": "count",
    "evaluation.heldout_ssl_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMED:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    units.update(COUNTERS)
    return units


def import_roadcost():
    """Import roadcost from src/ of this checkout; returns (module, seconds)."""
    src = ROOT / "src"
    if not (src / "roadcost" / "__init__.py").is_file():
        raise FileNotFoundError(f"{src / 'roadcost'} not found: run from a roadcost checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    started = time.perf_counter()
    import roadcost
    import roadcost.cli  # noqa: F401  (the CLI is not imported by the package)

    elapsed = time.perf_counter() - started
    if Path(roadcost.__file__).resolve().parent != (src / "roadcost").resolve():
        raise ImportError(f"imported roadcost from {roadcost.__file__}, not from {src}")
    return roadcost, elapsed


def time_import(samples: int) -> list[tuple[float, float]]:
    """``time.perf_counter`` at start and end of ``samples`` fresh imports of
    roadcost's own modules.

    Each sample drops every ``roadcost`` module and imports the package
    again, so it must run before any roadcost object exists. The
    third-party modules in ``PRELOADED`` are loaded first.
    """
    for name in PRELOADED:
        importlib.import_module(name)
    sections = []
    for _ in range(samples):
        for name in [m for m in sys.modules if m == "roadcost" or m.startswith("roadcost.")]:
            del sys.modules[name]
        started = time.perf_counter()
        import_roadcost()
        sections.append((started, time.perf_counter()))
    return sections


def set_up(rc, workload: Workload, seed: int, data_dir: Path):
    graph, truth, trips = rc.generate_synthetic(workload.spec(rc), seed)
    paths = rc.dataio.save_dataset(graph, trips, data_dir)
    return graph, truth, paths


# ---------------------------------------------------------------- jobs


def _dataset_args(paths) -> list[str]:
    return [
        "--network", str(paths["network"]),
        "--schedule", str(paths["schedule"]),
        "--trips", str(paths["trips"]),
        "--costs", str(paths["costs"]),
    ]


def job_annotate(rc, paths, out: Path, seed: int) -> int:
    return rc.cli.main(
        [
            "annotate", *_dataset_args(paths),
            "--variant", "F4", "--alpha", "0.5", "--beta", "2", "--seed", str(seed),
            "--out", str(out / "weights.csv"), "--report", str(out / "report.json"),
        ]
    )


def job_evaluate(rc, paths, out: Path, seed: int) -> int:
    return rc.cli.main(
        [
            "evaluate", *_dataset_args(paths),
            "--train-fraction", "0.5", "--seed", str(seed), "--out-dir", str(out),
        ]
    )


def job_gridsearch(rc, paths, out: Path, seed: int) -> int:
    """Grid search with the library defaults, then fit the best config on all trips."""
    graph, trips = rc.dataio.load_dataset(
        paths["network"], paths["schedule"], paths["trips"], paths["costs"]
    )
    trips.validate_against(graph)
    dual = rc.build_dual(graph)
    best, table = rc.grid_search(trips, graph, dual, rc.RunConfig(seed=seed))
    matrices = rc.evaluation.build_constraints(trips, graph, dual, best)
    weights, mask, _ = rc.evaluation.solve_variant(
        matrices, trips.costs(), graph, best, best.variant
    )
    rc.dataio.write_weights(out / "weights.csv", graph, weights, mask)
    (out / "grid.json").write_text(
        json.dumps({"best": dataclasses.asdict(best), "table": table}, indent=2) + "\n"
    )
    return 0


JOBS = {"annotate": job_annotate, "evaluate": job_evaluate, "gridsearch": job_gridsearch}


# ---------------------------------------------------------------- hooks


class Observer:
    """Hooks for one job: output checks always, layer counters when traced."""

    def __init__(self, rc, trace: bool):
        self.rc = rc
        self.trace = trace
        self.problems: list[str] = []
        self.pagerank_calls = 0
        self.f4 = None  # (weights, mask) of the last F4 solve
        self.counters = dict.fromkeys(COUNTERS, 0.0)

    def hooks(self) -> dict:
        hooks = {
            "pagerank.pagerank": self.on_pagerank,
            "evaluation.solve_variant": self.on_solve_variant,
        }
        if self.trace:
            hooks.update(
                {
                    "dataio.load_dataset": self.on_load_dataset,
                    "graph.build_dual": self.on_build_dual,
                    "solver.solve_weights": self.on_solve_weights,
                    "solver.build_q": self._nnz("solver.q_nnz"),
                    "solver.build_a": self._nnz("solver.a_nnz"),
                    "solver.build_b": self._nnz("solver.b_nnz"),
                }
            )
        return hooks

    def on_pagerank(self, args, kwargs, pr):
        import numpy as np

        m = args[0] if args else kwargs["m"]
        tol = kwargs.get("tol", self.rc.RunConfig().pr_tol)
        v = np.asarray(pr.values)
        residual = float(np.abs(m.apply_transpose(v) - v).sum())
        total = float(v.sum())
        self.pagerank_calls += 1
        if not abs(total - 1.0) <= 1e-9:
            self.problems.append(f"PageRank of tag {pr.tag} sums to {total!r}")
        if not residual <= tol:
            self.problems.append(f"PageRank of tag {pr.tag}: residual {residual:.3g} > {tol:.3g}")
        self.counters["pagerank.iters"] += pr.iterations
        self.counters["pagerank.residual_max"] = max(
            self.counters["pagerank.residual_max"], residual
        )

    def on_solve_variant(self, args, kwargs, result):
        weights, mask, _ = result
        matrices, costs, _, config, variant = args
        residual = system_residual(matrices, costs, config, variant, weights.values)
        if not residual <= config.cg_tol:
            self.problems.append(
                f"{variant}: CG relative residual {residual:.3g} > {config.cg_tol:.3g}"
            )
        if variant == "F4":
            self.f4 = (weights, mask)
        self.counters["evaluation.solve_variant_calls"] += 1

    def on_load_dataset(self, args, kwargs, result):
        _, trips = result
        self.counters["dataio.records"] += sum(len(t.records) for t in trips)

    def on_build_dual(self, args, kwargs, dual):
        self.counters["graph.dual_edges"] = dual.n_edges

    def on_solve_weights(self, args, kwargs, result):
        self.counters["solver.cg_iters"] += result[1].iterations

    def _nnz(self, counter: str):
        def hook(args, kwargs, matrix):
            self.counters[counter] = max(self.counters[counter], getattr(matrix, "nnz", 0))

        return hook


# ---------------------------------------------------------------- checks


def system_residual(matrices, costs, config, variant: str, d) -> float:
    """||(Q Q^T + a L_A + b L_B + g I) d - Q c|| / ||Q c|| of a variant's weights.

    Computed here from the constraint matrices, not taken from the solver.
    Entries outside the annotated mask are zero in the solution too (their
    right-hand side and couplings to annotated entries are zero), so the
    masked weights returned by ``solve_variant`` satisfy the same system.
    """
    import numpy as np

    alpha, beta = config.variant_coefficients(variant)
    q = matrices.q
    rhs = q @ np.asarray(costs, dtype=float)
    lhs = q @ (q.T @ d) + config.gamma * d
    if alpha:
        lhs = lhs + alpha * (matrices.l_a @ d)
    if beta:
        lhs = lhs + beta * (matrices.l_b @ d)
    rhs_norm = float(np.linalg.norm(rhs))
    return float(np.linalg.norm(lhs - rhs)) / (rhs_norm or 1.0)



def _fingerprint(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def check_outputs(rc, workload: Workload, out: Path, graph, obs: Observer) -> list[str]:
    """Problems with one finished job's outputs (empty when all checks pass)."""
    import numpy as np

    problems = list(obs.problems)
    if obs.pagerank_calls == 0:
        problems.append("no PageRank vector was computed")
    if obs.f4 is None:
        return problems + ["no F4 solve was observed"]
    if workload.kind == "evaluate":
        ratio = json.loads((out / "report.json").read_text())["ratios"]["F4"]
        if not ratio <= 1.0:
            problems.append(f"held-out SSL of F4 is {ratio:.6f} x that of F1")
        return problems
    weights, mask = obs.f4
    path = out / "weights.csv"
    try:
        loaded, loaded_mask = rc.dataio.load_weights(path, graph)
    except rc.LoadError as exc:
        return problems + [f"weights CSV does not load: {exc.problems[:3]}"]
    with open(path, encoding="utf-8") as handle:
        rows = sum(1 for _ in handle) - 1
    if rows != graph.n_entries:
        problems.append(f"weights CSV has {rows} rows, expected {graph.n_entries}")
    if not (
        np.allclose(loaded.values, weights.values, rtol=1e-11, atol=0.0)
        and np.array_equal(loaded_mask, mask)
    ):
        problems.append("weights CSV differs from the fitted F4 weights")
    return problems


# ---------------------------------------------------------------- runs


@dataclasses.dataclass
class Dataset:
    index: int  # position in the run
    seed: int  # drives the synthetic data, the train/test split and the folds
    graph: object
    truth: object
    paths: dict


@dataclasses.dataclass
class JobResult:
    dataset: int  # index of the dataset in the run
    start: float  # time.perf_counter() when the job started
    end: float
    hook_s: float  # time spent in hooks, not the job's
    problems: list[str]
    obs: Observer
    fingerprint: dict[str, str]
    spans: list[dict] = dataclasses.field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start - self.hook_s


def run_job(rc, workload: Workload, data: Dataset, out: Path, probe: Probe, obs: Observer) -> JobResult:
    """Run one job under an installed probe, then check its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()  # garbage left by the previous job is not this job's cost
    hook_before = probe.hook_s
    started = time.perf_counter()
    with probe.span("job"):
        code = JOBS[workload.kind](rc, data.paths, out, data.seed)
    ended = time.perf_counter()
    problems = [f"job exited with code {code}"] if code != 0 else []
    problems += check_outputs(rc, workload, out, data.graph, obs)
    return JobResult(
        data.index, started, ended, probe.hook_s - hook_before, problems, obs, _fingerprint(out)
    )


def _quality(rc, data: Dataset, obs: Observer) -> dict[str, float]:
    import numpy as np

    weights, mask = obs.f4
    truth = data.truth.values
    return {
        "weight_rel_err": float(np.abs(weights.values[mask] - truth[mask]).sum() / truth[mask].sum()),
        "edge_coverage": float(rc.edge_coverage(data.graph, mask)),
    }


def run_workload(
    name: str,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_root: Path,
    pacer: Pacer,
    imports: tuple[tuple[float, float], ...] = (),
) -> dict:
    """Set up and run one workload; returns metrics, counts and run details.

    ``pacer`` must be started; it is stopped when the run's jobs are done.
    ``imports`` are the sections of timed imports of roadcost, if any.
    """
    rc, _ = import_roadcost()
    out_dir = out_root / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    job_dir = out_dir / "job"
    origin = time.perf_counter()

    datasets, setups = [], []  # setups: (start, end) of each set-up
    for k in range(DATASETS):
        gc.collect()
        started = time.perf_counter()
        made = set_up(rc, workload, seed * DATASETS + k, out_dir / f"data{k}")
        setups.append((started, time.perf_counter()))
        datasets.append(Dataset(k, seed * DATASETS + k, *made))
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failures = 0, []
    jobs: list[JobResult] = []  # good untraced jobs of the timed loop
    first: dict[int, JobResult] = {}  # first good job on each dataset

    def attempt(k: int, traced: bool) -> Optional[JobResult]:
        nonlocal attempted
        attempted += 1
        data = datasets[k]
        obs = Observer(rc, traced)
        probe = Probe(traced, obs.hooks(), origin)
        try:
            with probe.installed("roadcost", TIMED if traced else tuple(obs.hooks())):
                if traced:
                    with probe.span("setup"):
                        set_up(rc, workload, data.seed, data.paths["network"].parent)
                result = run_job(rc, workload, data, job_dir, probe, obs)
        except Exception:  # a failed job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            problems = ["job raised: " + traceback.format_exc().strip().splitlines()[-1]]
        else:
            problems = result.problems
            if k in first and result.fingerprint != first[k].fingerprint:
                problems = problems + ["outputs differ from the first job's on this dataset"]
        if problems:
            failures.append(problems)
            print(f"job {attempted} failed: {problems}", file=sys.stderr)
            return None
        first.setdefault(k, result)
        result.spans = probe.spans
        return result

    # The first round always runs whole. After it, a job starts only if the
    # last job on its dataset took no longer than the time left, so a run
    # measures for about ``seconds`` and no longer.
    deadline = time.perf_counter() + seconds
    last: dict[int, float] = {}  # seconds of the last job on each dataset
    for k in itertools.cycle(range(DATASETS)):
        if k in last and time.perf_counter() + last[k] > deadline:
            break
        started = time.perf_counter()
        result = attempt(k, False)
        last[k] = time.perf_counter() - started
        if result is not None:
            jobs.append(result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if 0 not in first:
        raise RuntimeError(f"no job of {name} passed on its first dataset: {failures[:1]}")
    quality = [_quality(rc, datasets[k], first[k].obs) for k in sorted(first)]

    per_layer, spans = None, []
    if trace:
        # An untraced job on the first dataset right before the traced one:
        # both run warm and close in time, so their ratio shows the trace's cost.
        untraced = attempt(0, False)
        traced = attempt(0, True)
        if untraced is not None and traced is not None:
            spans = traced.spans
            first_start = origin + min(span["start"] for span in spans)
            last_end = origin + max(span["end"] for span in spans)
            overhead = pacer.scaled(traced.start, traced.end, traced.hook_s) / pacer.scaled(
                untraced.start, untraced.end, untraced.hook_s
            ) - 1.0
            per_layer = _per_layer(
                spans, traced, pacer.factor(first_start, last_end), overhead, job_dir, workload
            )
    pacer.stop()

    # Times at the reference speed of pace.py: the host's slow spells would
    # otherwise be most of the spread from run to run. job_s is the mean over
    # datasets of each dataset's median job time, so that each dataset
    # counts once however many jobs the run fitted in on it.
    job_s = [pacer.scaled(j.start, j.end, j.hook_s) for j in jobs]
    by_dataset: dict[int, list[float]] = {}
    for job, scaled in zip(jobs, job_s):
        by_dataset.setdefault(job.dataset, []).append(scaled)
    setup_s = [pacer.scaled(*section) for section in setups]
    import_s = [pacer.scaled(*section) for section in imports] or [0.0]
    end_to_end = {
        "job_s": statistics.fmean(statistics.median(v) for v in by_dataset.values()),
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        **{key: statistics.fmean(q[key] for q in quality) for key in quality[0]},
    }

    for k in range(DATASETS):
        shutil.rmtree(out_dir / f"data{k}", ignore_errors=True)
    shutil.rmtree(job_dir, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        (out_dir / "spans.json").write_text(json.dumps(spans) + "\n")
    result = {
        "correct": not failures and (per_layer is not None or not trace),
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": _with_units(end_to_end, END_TO_END),
        "per_layer": _with_units(per_layer, per_layer_units()) if per_layer else None,
        "details": {
            "workload": name,
            "spec": dataclasses.asdict(workload),
            "seed": seed,
            "dataset_seeds": [d.seed for d in datasets],
            "environment": environment(),
            "import_s": import_s,
            "setup_s": setup_s,
            "setup_wall_s": [end - start for start, end in setups],
            "setup_rss_mb": setup_rss_mb,
            "job_s": job_s,
            "job_wall_s": [j.wall_s for j in jobs],
            "pace_samples": len(pacer.samples),
            "failures": failures,
        },
    }
    (out_dir / "results.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def _per_layer(spans, traced: JobResult, factor: float, overhead: float, job_dir, workload) -> dict:
    """Per-layer metrics of the traced job. Span times are scaled by
    ``factor`` (``Pacer.factor`` over the traced set-up and job); they
    include the pacer's samples, about 2% of the time. ``overhead`` is the
    trace's cost relative to an untraced job on the same dataset."""
    summary = summarize(spans)
    metrics = {}
    for name in TIMED:
        entry = summary.get(name, {"total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}_s"] = entry["total_s"] * factor
        metrics[f"{name}_self_s"] = entry["self_s"] * factor
    counters = dict(traced.obs.counters)
    iters = counters["solver.cg_iters"]
    counters["solver.cg_s_per_iter"] = metrics["solver.solve_weights_s"] / iters if iters else 0.0
    counters["trace.overhead_frac"] = overhead
    if workload.kind == "evaluate":
        report = json.loads((job_dir / "report.json").read_text())
        counters["evaluation.heldout_ssl_ratio"] = report["ratios"]["F4"]
    metrics.update(counters)
    return metrics


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{prefix}{name:<44} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.dont_write_bytecode = True  # every run compiles roadcost the same way
    with Pacer() as pacer:
        try:
            imports = time_import(IMPORT_SAMPLES)
        except (FileNotFoundError, ImportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("environment: " + json.dumps(environment()))
        result = run_workload(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), RUNS_DIR, pacer, tuple(imports),
        )
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    if metrics is None:  # the traced job failed: nothing to report per layer
        return 1
    _print_metrics("", metrics)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Run every workload traced, each in a process of its own, so that
    ``peak_rss_mb`` is that workload's; print every metric with its unit."""
    summary, code = {}, 0
    for name in WORKLOADS:
        results = RUNS_DIR / f"{name}-seed{seed}-trace1" / "results.json"
        results.unlink(missing_ok=True)
        command = [
            sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
        ]
        if subprocess.run(command, stdout=subprocess.DEVNULL).returncode or not results.is_file():
            print(f"== {name}: run failed", flush=True)
            code = 1
            continue
        result = json.loads(results.read_text())
        print(f"== {name}: failed_ops {result['failed']}/{result['attempted']}")
        _print_metrics(f"{name}  ", result["end_to_end"])
        _print_metrics(f"{name}  ", result["per_layer"] or {})
        summary[name] = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps(summary))
    return code
