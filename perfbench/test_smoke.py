"""Smoke test of the benchmark: each workload at a tiny scale reports every
metric declared in BENCHMARK.json, with its unit, and passes every check.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import pace  # noqa: E402
import probe  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_workload_reports_every_metric_and_passes_checks(name, tmp_path):
    tiny = dataclasses.replace(bench.WORKLOADS[name], rows=8, cols=8, n_trips=400)
    with pace.Pacer() as pacer:
        result = bench.run_workload(name, tiny, 3, 0.0, True, tmp_path, pacer)

    assert result["details"]["failures"] == []
    assert result["correct"] and result["failed"] == 0
    # one round, then an untraced and a traced job on the first dataset
    assert result["attempted"] == bench.DATASETS + 2
    for group in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in DECLARED[group]}
        assert {k: m["unit"] for k, m in result[group].items()} == declared
    spans = json.loads((tmp_path / f"{name}-seed3-trace1" / "spans.json").read_text())
    assert {"setup", "job"} <= {s["name"] for s in spans}
    assert all(s["end"] >= s["start"] for s in spans)


def test_cg_check_recomputes_the_residual():
    rc, _ = bench.import_roadcost()
    workload = dataclasses.replace(bench.WORKLOADS["annotate-grid40"], rows=6, cols=6, n_trips=200)
    graph, _, trips = rc.generate_synthetic(workload.spec(rc), 3)
    config = rc.RunConfig(alpha=0.5, beta=2.0, seed=3)
    matrices = rc.evaluation.build_constraints(trips, graph, rc.build_dual(graph), config)
    weights, _, _ = rc.evaluation.solve_variant(matrices, trips.costs(), graph, config, "F4")
    residual = bench.system_residual(matrices, trips.costs(), config, "F4", weights.values)
    assert residual <= config.cg_tol
    off = bench.system_residual(matrices, trips.costs(), config, "F4", weights.values * 1.001)
    assert off > config.cg_tol


def _bindings(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_probe_wraps_every_binding_and_restores_it():
    rc, _ = bench.import_roadcost()
    pagerank_module = sys.modules["roadcost.pagerank"]  # rc.pagerank is the function
    modules = (rc, rc.cli, rc.dataio, rc.evaluation, pagerank_module, rc.solver)
    before = _bindings(modules)
    with probe.Probe(True, {}, 0.0).installed("roadcost", bench.TIMED):
        assert hasattr(rc.evaluation.pagerank, "__wrapped__")
        assert rc.evaluation.pagerank is pagerank_module.pagerank is rc.pagerank
        assert rc.grid_search is rc.evaluation.grid_search
    assert _bindings(modules) == before


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 0, "name": "job", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "a", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    summary = probe.summarize(spans)
    assert summary["job"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["b"]["self_s"] == 1.0


def test_pacer_scales_wall_time_by_the_kernel_time_around_it():
    pacer = pace.Pacer()
    slow = 2 * pace.REFERENCE_S  # the host runs at half the reference speed
    pacer.samples = [(t / 10, slow) for t in range(40)]  # t = 0.0 .. 3.9 s
    # 2 s of wall time with 20 samples inside: 2 s less the samples' time, halved
    assert pacer.scaled(1.0, 3.0) == pytest.approx((2.0 - 20 * slow) / 2)
    # a short section takes the samples of the window around it
    pacer.samples[20] = (2.0, 4 * pace.REFERENCE_S)
    assert pacer.factor(2.0, 2.1) == pytest.approx(1 / 2.2)  # 10 samples, one twice as slow
    with pytest.raises(RuntimeError):
        pace.Pacer().scaled(0.0, 1.0)
