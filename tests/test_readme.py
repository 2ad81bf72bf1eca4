"""The README's Library example runs as written."""

from pathlib import Path

from roadcost.dataio import save_dataset
from roadcost.synth import SyntheticSpec, generate_synthetic

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    graph, _, trips = generate_synthetic(
        SyntheticSpec(rows=5, cols=5, n_trips=60, coverage=0.4, noise=0.05), seed=1
    )
    save_dataset(graph, trips, tmp_path)  # network.csv, schedule.csv, trips.csv, costs.csv
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    assert "F4" in capsys.readouterr().out
