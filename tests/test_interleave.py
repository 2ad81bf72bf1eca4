"""Smoke tests of tools/interleave.py, which times two checkouts job by job."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"


def _interleave(base: Path, change: Path) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(TOOL), str(base), str(change),
        "--workload", "gridsearch-grid12", "--rounds", "1",
    ]
    return subprocess.run(command, capture_output=True, text=True, timeout=600)


def test_a_checkout_against_itself():
    run = _interleave(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6
    assert lines[0] == "outputs byte-identical on 3 datasets"
    for line, side in zip(lines[1:3], ("base   ", "change ")):
        match = re.fullmatch(side + r" median (\S+) s, quartiles (\S+) (\S+) s", line)
        assert match, line
        median, low, high = map(float, match.groups())
        assert 0 < low <= median <= high
    assert "(change / base, 3 pairs)" in lines[3]
    assert lines[4].startswith("wins    change faster in ") and lines[4].endswith("/3 pairs")
    match = re.fullmatch(
        r"spread  base quartile spread (\S+) s, median gap (\S+) s \(base - change\)", lines[5]
    )
    assert match, lines[5]
    base_low, base_high = map(float, re.findall(r"quartiles (\S+) (\S+)", lines[1])[0])
    assert float(match[1]) == pytest.approx(base_high - base_low, abs=2e-4)
    medians = [float(line.split()[2]) for line in lines[1:3]]
    assert float(match[2]) == pytest.approx(medians[0] - medians[1], abs=2e-4)


def test_outputs_that_differ_stop_the_comparison(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    solver = change / "src" / "roadcost" / "solver.py"
    text = solver.read_text()
    assert "DEFAULT_CG_TOL = 1e-8\n" in text
    solver.write_text(text.replace("DEFAULT_CG_TOL = 1e-8\n", "DEFAULT_CG_TOL = 1e-4\n"))
    run = _interleave(ROOT, change)
    assert run.returncode == 1, run.stderr
    differ = "outputs differ on dataset 0 (seed 3): ['grid.json', 'weights.csv']"
    assert run.stdout.startswith(differ)
