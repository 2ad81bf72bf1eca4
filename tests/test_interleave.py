"""Smoke tests of tools/interleave.py, which times two checkouts job by job."""

import shutil
import subprocess
import sys
from pathlib import Path

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
    assert lines[0] == "outputs byte-identical on 3 datasets"
    assert lines[1].startswith("base    median ") and lines[2].startswith("change  median ")
    assert "(change / base, 3 pairs)" in lines[3]
    assert lines[4].startswith("wins    change faster in ") and lines[4].endswith("/3 pairs")


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
