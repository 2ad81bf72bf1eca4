"""Time two roadcost checkouts against each other, job by job, in one process.

Run from a checkout's root, naming the two checkouts to compare:

    python3 tools/interleave.py BASE CHANGE --workload gridsearch-grid12 --rounds 20

Both ``src/roadcost`` packages are loaded side by side, as ``roadcost_base``
and ``roadcost_change``. The workloads and jobs are the benchmark's own
(``perfbench/bench.py``, read and not changed). Three datasets of the
workload's shape are generated by the base side, and each side runs the job
once on each of them. Their output files must then be byte-identical, or
the script stops with exit code 1. After that, every round runs the job on
every dataset with both sides, one after the other. The side that goes
first alternates from pair to pair. The script prints each side's median
job time and quartiles, the median of the paired ratios change / base, the
number of pairs the change won, and the base side's quartile spread beside
the gap between the two medians. A gain counts where the change wins nearly
every pair and the median gap exceeds the base's spread.

Jobs alternate within one process, so both sides see the same host speed
at nearly the same moment. Separate benchmark processes cannot give that.
The times are raw wall seconds: nothing is scaled to a reference speed, and
nothing is traced or checked beyond the byte comparison.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATASETS = 3
SIDES = ("base", "change")


def load(checkout: Path, name: str):
    """``checkout``'s roadcost package, imported as ``name``, with its CLI."""
    init = checkout / "src" / "roadcost" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{init} not found: not a roadcost checkout")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def run(bench, rc, kind: str, data, out: Path) -> float:
    """Seconds one job takes on ``data`` (its paths and seed); outputs go to ``out``."""
    paths, seed = data
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()  # garbage left by the previous job is not this job's cost
    started = time.perf_counter()
    code = bench.JOBS[kind](rc, paths, out, seed)
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"{kind} job exited with code {code}")
    return elapsed


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the checkout to compare against")
    parser.add_argument("change", type=Path, help="the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=10, help="rounds over the datasets")
    parser.add_argument("--seed", type=int, default=1, help="datasets use seed * 3 + k")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.path.insert(0, str(PERFBENCH))
    from run import cap_threads

    cap_threads()  # before numpy loads, as the benchmark does
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    checkouts = dict(zip(SIDES, (args.base, args.change)))
    sides = {side: load(path, f"roadcost_{side}") for side, path in checkouts.items()}

    with tempfile.TemporaryDirectory(prefix="interleave-") as workdir:
        root = Path(workdir)
        datasets = []
        for k in range(DATASETS):
            seed = args.seed * DATASETS + k
            _, _, paths = bench.set_up(sides["base"], workload, seed, root / f"data{k}")
            datasets.append((paths, seed))

        for k, data in enumerate(datasets):
            found = {}
            for side, rc in sides.items():
                run(bench, rc, workload.kind, data, root / "out")
                found[side] = digests(root / "out")
            if found["base"] != found["change"]:
                differ = sorted(
                    name for name in found["base"].keys() | found["change"].keys()
                    if found["base"].get(name) != found["change"].get(name)
                )
                print(f"outputs differ on dataset {k} (seed {data[1]}): {differ}")
                return 1
        print(f"outputs byte-identical on {DATASETS} datasets")

        times = {side: [] for side in SIDES}
        for r in range(args.rounds):
            for k, data in enumerate(datasets):
                order = SIDES if (r + k) % 2 == 0 else SIDES[::-1]
                for side in order:
                    times[side].append(run(bench, sides[side], workload.kind, data, root / "out"))

    pairs = list(zip(times["base"], times["change"]))
    quartiles = {side: statistics.quantiles(times[side], n=4, method="inclusive") for side in SIDES}
    for side, (low, median, high) in quartiles.items():
        print(f"{side:<7} median {median:.4f} s, quartiles {low:.4f} {high:.4f} s")
    ratio = statistics.median(change / base for base, change in pairs)
    wins = sum(change < base for base, change in pairs)
    print(f"ratio   median {ratio:.4f} (change / base, {len(pairs)} pairs)")
    print(f"wins    change faster in {wins}/{len(pairs)} pairs")
    (low, _, high), gap = quartiles["base"], quartiles["base"][1] - quartiles["change"][1]
    print(f"spread  base quartile spread {high - low:.4f} s, median gap {gap:.4f} s (base - change)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
