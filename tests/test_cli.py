import csv
import dataclasses
import json

import numpy as np
import pytest

import roadcost.cli as cli
from roadcost.cli import main
from roadcost.dataio import save_dataset
from roadcost.synth import SyntheticSpec, generate_synthetic


def _synth(tmp_path, seed=0, extra=()):
    out = tmp_path / "data"
    code = main(
        [
            "synth", "--out", str(out), "--rows", "6", "--cols", "6",
            "--n-trips", "60", "--coverage", "0.4", "--noise", "0.05",
            "--seed", str(seed), *extra,
        ]
    )
    assert code == 0
    return out


def _dataset_args(data_dir):
    return [
        "--network", str(data_dir / "network.csv"),
        "--schedule", str(data_dir / "schedule.csv"),
        "--trips", str(data_dir / "trips.csv"),
        "--costs", str(data_dir / "costs.csv"),
    ]


def test_synth_writes_dataset(tmp_path):
    out = _synth(tmp_path)
    for name in ("network.csv", "schedule.csv", "trips.csv", "costs.csv", "truth_weights.csv"):
        assert (out / name).exists()


def test_synth_byte_identical_for_same_seed(tmp_path):
    out1 = _synth(tmp_path / "a", seed=9)
    out2 = _synth(tmp_path / "b", seed=9)
    for name in ("network.csv", "schedule.csv", "trips.csv", "costs.csv", "truth_weights.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_annotate_end_to_end_and_deterministic(tmp_path):
    data = _synth(tmp_path)
    weights1 = tmp_path / "w1.csv"
    weights2 = tmp_path / "w2.csv"
    report_path = tmp_path / "report.json"
    base = ["annotate", *_dataset_args(data), "--variant", "F4", "--report", str(report_path)]
    assert main([*base, "--out", str(weights1)]) == 0
    assert main([*base, "--out", str(weights2)]) == 0
    assert weights1.read_bytes() == weights2.read_bytes()

    report = json.loads(report_path.read_text())
    assert report["variant"] == "F4"
    assert report["cg_relative_residual"] <= report["config"]["cg_tol"]
    assert set(report["coverage_per_variant"]) == {"F1", "F2", "F3", "F4"}
    assert {"rss", "similarity_penalty", "adjacency_penalty", "l2", "total"} <= set(
        report["objective"]
    )


@pytest.mark.parametrize(
    "flags", [["--variant", "F2", "--alpha", "0"], ["--variant", "F3", "--beta", "0"]]
)
def test_report_coverage_matches_written_flags(tmp_path, flags):
    data = _synth(tmp_path, extra=("--n-trips", "8"))  # few trips: A and B add coverage
    weights, report_path = tmp_path / "w.csv", tmp_path / "report.json"
    assert main(
        ["annotate", *_dataset_args(data), *flags,
         "--out", str(weights), "--report", str(report_path)]
    ) == 0
    with open(weights, newline="") as handle:
        rows = list(csv.DictReader(handle))
    edges = {row["edge_id"] for row in rows}
    covered = {row["edge_id"] for row in rows if row["annotated_flag"] == "1"}
    report = json.loads(report_path.read_text())
    assert report["coverage_per_variant"][report["variant"]] == len(covered) / len(edges)


def test_reports_carry_preconditioner_nnz(tmp_path):
    data = _synth(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(
        ["annotate", *_dataset_args(data), "--out", str(tmp_path / "w.csv"),
         "--report", str(report_path)]
    ) == 0
    assert "preconditioner_nnz" in json.loads(report_path.read_text())
    out = tmp_path / "eval"
    assert main(["evaluate", *_dataset_args(data), "--out-dir", str(out)]) == 0
    solve_info = json.loads((out / "report.json").read_text())["solve_info"]
    assert set(solve_info) == {"F1", "F2", "F3", "F4"}
    assert all("factor_nnz" in info for info in solve_info.values())


def test_annotate_weights_file_shape(tmp_path):
    data = _synth(tmp_path)
    weights = tmp_path / "weights.csv"
    assert main(
        ["annotate", *_dataset_args(data), "--out", str(weights),
         "--report", str(tmp_path / "r.json")]
    ) == 0
    with open(weights) as handle:
        rows = list(csv.DictReader(handle))
    with open(data / "network.csv") as handle:
        n_edges = len(list(csv.DictReader(handle)))
    assert len(rows) == n_edges * 2  # two tags
    assert set(rows[0]) == {"edge_id", "tag", "cost_per_meter", "annotated_flag"}


def test_evaluate_outputs(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "eval"
    assert main(
        ["evaluate", *_dataset_args(data), "--train-fraction", "0.5",
         "--seed", "3", "--sweep-fractions", "0.5,1.0", "--out-dir", str(out)]
    ) == 0
    with open(out / "sweep.csv") as handle:
        sweep = list(csv.DictReader(handle))
    assert [r["train_pool_fraction"] for r in sweep] == ["0.500", "1.000"]
    report = json.loads((out / "report.json").read_text())
    assert report["ratios"]["F1"] == 1.0
    with open(out / "alr_curve.csv") as handle:
        curve = list(csv.DictReader(handle))
    assert len(curve) == 100
    fractions = [float(r["fraction"]) for r in curve]
    assert fractions == sorted(fractions)
    with open(out / "coverage.csv") as handle:
        coverage = {r["variant"]: float(r["coverage"]) for r in csv.DictReader(handle)}
    assert set(coverage) == {"F1", "F2", "F3", "F4"}


def test_pagerank_stats_outputs(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "stats"
    assert main(["pagerank-stats", *_dataset_args(data), "--out-dir", str(out)]) == 0
    with open(out / "pagerank_buckets.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 100
    assert [int(r["bucket"]) for r in rows] == list(range(1, 101))
    total = sum(float(r["percentage"]) for r in rows)
    assert total == pytest.approx(100.0, abs=1e-6)
    with open(out / "degree_stats.csv") as handle:
        stats = list(csv.DictReader(handle))[0]
    assert float(stats["avg_degree"]) > 0
    assert (out / "pagerank_values.csv").exists()


def test_pagerank_stats_without_trips(tmp_path):
    # topology-only statistics: transition weights fall back to the uniform walk
    data = _synth(tmp_path)
    out = tmp_path / "stats"
    assert main(
        ["pagerank-stats", "--network", str(data / "network.csv"),
         "--schedule", str(data / "schedule.csv"), "--out-dir", str(out)]
    ) == 0
    with open(out / "pagerank_buckets.csv") as handle:
        assert len(list(csv.DictReader(handle))) == 100


def test_split_command(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "split"
    assert main(
        ["split", *_dataset_args(data), "--train-fraction", "0.5",
         "--seed", "1", "--out", str(out)]
    ) == 0
    with open(out / "train_costs.csv") as handle:
        n_train = len(list(csv.DictReader(handle)))
    with open(out / "test_costs.csv") as handle:
        n_test = len(list(csv.DictReader(handle)))
    assert n_train == 30 and n_test == 30


def _trips_by_id(trips_csv, costs_csv):
    """{trip id: (cost text, record rows)} of a trips file and its costs file."""
    with open(costs_csv, newline="") as handle:
        trips = {row["trip_id"]: (row["cost"], []) for row in csv.DictReader(handle)}
    with open(trips_csv, newline="") as handle:
        for row in csv.reader(handle):
            if row[0] != "trip_id":
                trips[row[0]][1].append(row[1:])
    return trips


def test_split_keeps_the_input_trip_ids(tmp_path):
    data = _synth(tmp_path)
    # rename every trip, in reverse order and with a comma that needs quoting
    for name in ("trips.csv", "costs.csv"):
        with open(data / name, newline="") as handle:
            rows = list(csv.reader(handle))
        for row in rows[1:]:
            row[0] = f"run,{59 - int(row[0][1:])}"
        with open(data / name, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    out = tmp_path / "split"
    assert main(
        ["split", *_dataset_args(data), "--train-fraction", "0.5",
         "--seed", "1", "--out", str(out)]
    ) == 0
    given = _trips_by_id(data / "trips.csv", data / "costs.csv")
    train = _trips_by_id(out / "train_trips.csv", out / "train_costs.csv")
    test = _trips_by_id(out / "test_trips.csv", out / "test_costs.csv")
    assert len(train) == len(test) == 30
    assert not train.keys() & test.keys()
    assert train.keys() | test.keys() == given.keys()
    for half in (train, test):
        assert {trip_id: given[trip_id] for trip_id in half} == half


def test_invalid_input_exits_2_and_writes_stderr_only(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("edge_id,tail,head,length_m,speed_limit_kmh\ne0,A,A,10,\n")
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(
        "day_class,start_hhmm,end_hhmm,tag\n"
        "weekday,00:00,24:00,ALL\nweekend,00:00,24:00,ALL\n"
    )
    code = main(
        ["pagerank-stats", "--network", str(bad), "--schedule", str(schedule),
         "--trips", str(bad), "--costs", str(bad), "--out-dir", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "self-loop" in captured.err


def test_non_finite_cost_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    costs = data / "costs.csv"
    lines = costs.read_text().splitlines()
    lines[1] = lines[1].split(",")[0] + ",nan"
    costs.write_text("\n".join(lines) + "\n")
    code = main(
        ["annotate", *_dataset_args(data), "--out", str(tmp_path / "w.csv"),
         "--report", str(tmp_path / "report.json")]
    )
    assert code == 2
    assert f"{costs}:2: cost 'nan' negative or not finite" in capsys.readouterr().err


def test_zero_cost_test_trip_exits_2_before_fitting(tmp_path, capsys, monkeypatch):
    data = _synth(tmp_path)
    costs = data / "costs.csv"
    lines = costs.read_text().splitlines()
    lines[1:] = [line.split(",")[0] + ",0" for line in lines[1:]]
    costs.write_text("\n".join(lines) + "\n")

    def no_fit(*args, **kwargs):
        raise AssertionError("solve_weights called")

    monkeypatch.setattr("roadcost.evaluation.solve_weights", no_fit)
    code = main(["evaluate", *_dataset_args(data), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "30 test trip(s) have cost 0" in capsys.readouterr().err


def test_missing_file_exits_4(tmp_path):
    code = main(
        ["pagerank-stats", "--network", str(tmp_path / "none.csv"),
         "--schedule", str(tmp_path / "none2.csv"),
         "--trips", str(tmp_path / "none3.csv"), "--costs", str(tmp_path / "none4.csv"),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 4


def test_config_file_with_flag_override(tmp_path):
    data = _synth(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("alpha=0.25\nbeta=3.0\nvariant=F2\n# comment\n")
    report_path = tmp_path / "report.json"
    assert main(
        ["annotate", *_dataset_args(data), "--config", str(config),
         "--beta", "5.0", "--out", str(tmp_path / "w.csv"), "--report", str(report_path)]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["alpha"] == 0.25
    assert report["config"]["beta"] == 5.0  # flag wins over file
    assert report["variant"] == "F2"


def test_config_file_with_unknown_key_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    config = tmp_path / "run.cfg"
    for key, value in (("similarity_method", "exact"), ("cg_max_iters", "50")):
        config.write_text(f"alpha=0.25\n{key}={value}\n")
        code = main(
            ["annotate", *_dataset_args(data), "--config", str(config),
             "--out", str(tmp_path / "w.csv"), "--report", str(tmp_path / "report.json")]
        )
        assert code == 2
        assert f"run.cfg:2: unknown config key '{key}'" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    for flag, value in (("--similarity-method", "exact"), ("--cg-max-iters", "50")):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["annotate", *_dataset_args(data), flag, value, "--out",
                 str(tmp_path / "w.csv"), "--report", str(tmp_path / "report.json")]
            )
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fractions, message",
    [
        ("0,1.5,-2", "training-pool fractions must be in (0, 1], got [0.0, 1.5, -2.0]"),
        ("0.5,nan", "training-pool fractions must be in (0, 1], got [nan]"),
        ("0.5,half", "could not convert string to float: 'half'"),
    ],
)
def test_bad_sweep_fractions_exit_2_before_any_output(tmp_path, capsys, fractions, message):
    data = _synth(tmp_path)
    out = tmp_path / "eval"
    code = main(
        ["evaluate", *_dataset_args(data), "--sweep-fractions", fractions,
         "--out-dir", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_pagerank_stats_unknown_tag_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "stats"
    code = main(["pagerank-stats", *_dataset_args(data), "--tag", "NOPE", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: unknown tag 'NOPE'; known tags: OFFPEAK, PEAK\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--trips", "--costs"])
def test_pagerank_stats_rejects_trips_or_costs_alone(tmp_path, capsys, flag):
    # none of the files exists: a read would exit 4
    out = tmp_path / "stats"
    code = main(
        ["pagerank-stats", "--network", str(tmp_path / "network.csv"),
         "--schedule", str(tmp_path / "schedule.csv"), flag, str(tmp_path / "file.csv"),
         "--out-dir", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --trips and --costs are read together: give both or neither\n"
    )
    assert not out.exists()


def test_pagerank_stats_values_quote_edge_ids(tmp_path):
    graph, _, trips = generate_synthetic(
        SyntheticSpec(rows=5, cols=5, n_trips=60, coverage=0.4), seed=2
    )
    graph = dataclasses.replace(graph, edge_ids=tuple(f'e,{i}"' for i in range(graph.n_edges)))
    save_dataset(graph, trips, tmp_path / "data")
    out = tmp_path / "stats"
    assert main(["pagerank-stats", *_dataset_args(tmp_path / "data"), "--out-dir", str(out)]) == 0
    assert b'"e,0""",' in (out / "pagerank_values.csv").read_bytes()
    with open(out / "pagerank_values.csv", newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["dual_vertex_id", "pagerank"]
    assert [edge_id for edge_id, _ in rows] == list(graph.edge_ids)
    assert all(float(value) > 0 for _, value in rows)


def test_unreachable_coverage_exits_2(tmp_path, capsys):
    code = main(
        ["synth", "--out", str(tmp_path / "d"), "--rows", "6", "--cols", "6",
         "--n-trips", "1", "--trip-len-min", "1", "--trip-len-max", "1",
         "--coverage", "0.9", "--seed", "0"]
    )
    assert code == 2
    assert "coverage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        # 1 + nan*z is nan and max(0.05, nan) is 0.05: every cost would be x0.05
        (["--noise", "nan"], "noise level nan"),
        (["--weight-ranges", "0.04:inf,0.08:0.20"], "bad weight range (0.04, inf)"),
        (["--speed-limits", "nan"], "speed limit nan"),
        (["--speed-limits", "50,inf", "--truth-from-speed-limits"], "speed limit inf"),
    ],
)
def test_synth_rejects_non_finite_bounds(tmp_path, capsys, extra, message):
    out = tmp_path / "d"
    code = main(["synth", "--out", str(out), "--rows", "3", "--cols", "3", *extra])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, file_text, message",
    [
        (["--alpha", "inf"], None, "alpha must be finite and non-negative, got inf"),
        (["--beta", "inf"], None, "beta must be finite and non-negative, got inf"),
        (["--gamma", "inf"], None, "gamma must be positive and finite, got inf"),
        (["--alpha", "nan"], None, "alpha must be finite and non-negative, got nan"),
        (["--cg-tol", "0"], None, "cg_tol must be positive and finite, got 0.0"),
        (["--cg-tol", "-1"], None, "cg_tol must be positive and finite, got -1.0"),
        (["--cg-tol", "nan"], None, "cg_tol must be positive and finite, got nan"),
        (["--pr-tol", "-1"], None, "pr_tol must be positive and finite, got -1.0"),
        (["--highway-cutoff-kmh", "nan"], None,
         "highway_cutoff_kmh must be positive and finite, got nan"),
        ([], "seed = 1.5\n",
         "run.cfg:1: seed=1.5: invalid literal for int() with base 10: '1.5'"),
        ([], "# tuned\nalpha = abc\n",
         "run.cfg:2: alpha=abc: could not convert string to float: 'abc'"),
        ([], "alpha=0.5\ngamma=0\n",
         "run.cfg:2: gamma=0: gamma must be positive and finite, got 0.0"),
        (["--cg-tol", "1"], None, "cg_tol must be below 1, got 1.0"),
    ],
)
def test_bad_run_setting_exits_2_before_loading(
    tmp_path, capsys, monkeypatch, flags, file_text, message
):
    data = _synth(tmp_path)
    if file_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(file_text)
        flags = [*flags, "--config", str(config)]
        message = message.replace("run.cfg", str(config))
    loads, load = [], cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset", lambda *args: loads.append(args) or load(*args))
    out = tmp_path / "out"
    code = main(
        ["annotate", *_dataset_args(data), *flags,
         "--out", str(out / "w.csv"), "--report", str(out / "report.json")]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert loads == []
    assert not out.exists()



@pytest.mark.parametrize(
    "command, fault, code, message",
    [
        ("annotate", "output under a file", 4, None),
        ("evaluate", "output under a file", 4, None),
        ("split", "output under a file", 4, None),
        ("pagerank-stats", "output under a file", 4, None),
        ("evaluate", "negative seed", 2, "seed must be a non-negative integer, got -1"),
        ("split", "negative seed", 2, "seed must be a non-negative integer, got -1"),
        ("evaluate", "bad train fraction", 2, "train fraction must be in (0, 1), got 1.5"),
        ("split", "bad train fraction", 2, "train fraction must be in (0, 1), got 1.5"),
        # annotate and pagerank-stats use no seed, so they accept any
        ("annotate", "negative seed", 0, None),
        ("pagerank-stats", "negative seed", 0, None),
    ],
)
def test_bad_output_or_split_setting_fails_before_loading(
    tmp_path, capsys, monkeypatch, command, fault, code, message
):
    data = _synth(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    out = blocker / "out" if fault == "output under a file" else tmp_path / "out"
    outputs = {
        # the parents of both annotate outputs are created
        "annotate": ["--out", str(out / "w" / "w.csv"), "--report", str(out / "r" / "r.json")],
        "evaluate": ["--out-dir", str(out)],
        "split": ["--out", str(out)],
        "pagerank-stats": ["--out-dir", str(out)],
    }[command]
    setting = {"negative seed": ["--seed", "-1"],
               "bad train fraction": ["--train-fraction", "1.5"]}
    loads, load = [], cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset", lambda *args: loads.append(args) or load(*args))
    assert main([command, *_dataset_args(data), *outputs, *setting.get(fault, [])]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert len(loads) == 1 and err == ""
        assert (out / "w" / "w.csv").exists() if command == "annotate" else out.is_dir()
        return
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if message is not None:
        assert err == f"error: {message}\n"
    assert loads == []
    assert blocker.read_text() == "a file, not a directory\n"
    assert not (tmp_path / "out").exists()
