"""RunConfig is the one list of run settings: flags, file keys and help follow
it, and each setting changes what each run subcommand that takes it writes."""

import argparse
import dataclasses
import inspect
import json

import pytest

from roadcost.cli import _build_parser, main
from roadcost.config import RunConfig, parse_config_file
from roadcost.graph import RoadGraph
from roadcost.pagerank import DEFAULT_TOL

# a valid value, other than the default, for every run setting; each changes
# an output on the module's dataset
SETTINGS = {
    "alpha": 3.0,
    "beta": 3.0,
    "gamma": 0.01,
    "similarity_threshold": 0.5,
    "cg_tol": 1e-3,
    "seed": 1,
    "variant": "F1",
}


def test_settings_cover_every_field():
    defaults = dataclasses.asdict(RunConfig())
    assert list(SETTINGS) == [f.name for f in dataclasses.fields(RunConfig)]
    assert all(SETTINGS[name] != defaults[name] for name in SETTINGS)


def test_constants_are_not_settings():
    assert RunConfig().pr_tol == DEFAULT_TOL  # read by perfbench's PageRank hook
    assert list(inspect.signature(RoadGraph.is_highway).parameters) == ["self"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(
        ["synth", "--out", str(out), "--rows", "6", "--cols", "6", "--n-trips", "60",
         "--coverage", "0.4", "--noise", "0.05", "--seed", "0"]
    ) == 0
    return [
        arg
        for name in ("network", "schedule", "trips", "costs")
        for arg in (f"--{name}", str(out / f"{name}.csv"))
    ]


def _reported_config(tmp_path, dataset, settings_args):
    report = tmp_path / "report.json"
    assert main(
        ["annotate", *dataset, *settings_args, "--out", str(tmp_path / "w.csv"),
         "--report", str(report)]
    ) == 0
    return json.loads(report.read_text())["config"]


def _annotate_outputs(out, dataset, settings_args):
    """annotate's weights and its report without the config echo."""
    report = out / "report.json"
    assert main(
        ["annotate", *dataset, *settings_args, "--out", str(out / "w.csv"),
         "--report", str(report)]
    ) == 0
    echo = json.loads(report.read_text())
    del echo["config"]
    return [(out / "w.csv").read_bytes(), echo]


def _evaluate_outputs(out, dataset, settings_args):
    """The files evaluate writes."""
    assert main(["evaluate", *dataset, *settings_args, "--out-dir", str(out / "eval")]) == 0
    return [(p.name, p.read_bytes()) for p in sorted((out / "eval").iterdir())]


OUTPUTS = {"annotate": _annotate_outputs, "evaluate": _evaluate_outputs}

# settings a subcommand takes but does not read: annotate fits every trip, so
# nothing it does draws from the seed; it keeps --seed because
# perfbench/bench.py's annotate job passes it
UNREAD = {("annotate", "seed")}


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("defaults")
    return {command: outputs(out, dataset, []) for command, outputs in OUTPUTS.items()}


@pytest.mark.parametrize("name", list(SETTINGS))
def test_setting_changes_an_output(tmp_path, dataset, default_outputs, name):
    """Each of annotate and evaluate reads the setting: its outputs change,
    except for the pairs in UNREAD, whose outputs stay the same."""
    flag = "--" + name.replace("_", "-")
    for command, outputs in OUTPUTS.items():
        written = outputs(tmp_path / command, dataset, [flag, str(SETTINGS[name])])
        if (command, name) in UNREAD:
            assert written == default_outputs[command], command
        else:
            assert written != default_outputs[command], command


def _options(command):
    parser = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices[command]
    return [option for action in parser._actions for option in action.option_strings]


def test_run_subcommands_take_the_settings_they_read():
    dataset = ["--network", "--schedule", "--trips", "--costs"]
    settings = ["--config", *("--" + name.replace("_", "-") for name in SETTINGS)]
    assert _options("annotate") == ["-h", "--help", *dataset, *settings, "--out", "--report"]
    assert _options("evaluate") == [
        "-h", "--help", *dataset, *settings, "--train-fraction", "--sweep-fractions", "--out-dir"
    ]
    assert _options("pagerank-stats") == ["-h", "--help", *dataset, "--tag", "--out-dir"]


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_flag_reaches_the_report(tmp_path, dataset, name):
    flag = "--" + name.replace("_", "-")
    config = _reported_config(tmp_path, dataset, [flag, str(SETTINGS[name])])
    assert config == {**dataclasses.asdict(RunConfig()), name: SETTINGS[name]}


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_file_key_reaches_the_report(tmp_path, dataset, name):
    path = tmp_path / "run.cfg"
    path.write_text(f"# one setting\n{name} = {SETTINGS[name]}\n")
    config = _reported_config(tmp_path, dataset, ["--config", str(path)])
    assert config == {**dataclasses.asdict(RunConfig()), name: SETTINGS[name]}


def test_unknown_key_message(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=0.25\nsimilarity_method=exact\n")
    with pytest.raises(ValueError) as err:
        parse_config_file(path)
    assert str(err.value) == f"{path}:2: unknown config key 'similarity_method'"


def test_help_epilog_lists_every_setting(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    epilog = capsys.readouterr().out.split("config file:", 1)[1]
    listed = epilog.split("(", 1)[1].split(")", 1)[0]
    assert [key.strip() for key in listed.split(",")] == list(SETTINGS)
