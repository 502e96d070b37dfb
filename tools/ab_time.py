"""Time two seriesmine trees on benchmark workloads, in one process.

Usage: ``python3 tools/ab_time.py SRC_A SRC_B WORKLOAD|all [ROUNDS]``

SRC_A and SRC_B are the ``src`` directories of the two trees; WORKLOAD is a
``perfbench`` workload name, and ``all`` times every workload in turn. Each
tree's package is copied under a private name (``seriesmine_a``,
``seriesmine_b``) and both are imported side by side, which works because
the package imports itself only relatively. Every input of a workload's
default seed is mined through ``cli.main`` with the workload's argv, once
untimed per tree, then ROUNDS times (default 6) per tree, alternating which
tree runs first. The script checks that both trees write the same
documents (``timing`` aside) and prints, per workload and tree, the line
count of the copied ``seriesmine/*.py``, the sum over inputs of each
input's fastest call and the mean over inputs of each input's median call,
then the A/B ratio of each. A same-speed check and a line check are thus
one command.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_cli(src: str, name: str, tmp: str):
    shutil.copytree(os.path.join(src, "seriesmine"), os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def _line_count(package: str) -> int:
    """Lines of a package's modules, ``*.py`` directly in ``package``."""
    total = 0
    for path in glob.glob(os.path.join(package, "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _document(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("timing")
    return doc


def _time_workload(clis, labels, w, rounds: int, tmp: str):
    """Time one workload on both trees and print its sums and ratios."""
    from workloads import write_series
    out = os.path.join(tmp, "out.json")
    inputs = []
    for j in range(w.inputs):
        inputs.append(os.path.join(tmp, f"{w.name}{j}.txt"))
        write_series(inputs[-1], w.series(w.default_seed, j))

    def mine(side: int, j: int) -> float:
        t0 = time.perf_counter()
        rc = clis[side].main(w.argv(inputs[j], out))
        seconds = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"{w.name}, tree {'AB'[side]}, input {j}: exit {rc}")
        return seconds

    for j in range(w.inputs):     # untimed: lazy imports, caches, the output check
        docs = []
        for side in (0, 1):
            mine(side, j)
            docs.append(_document(out))
        if docs[0] != docs[1]:
            raise SystemExit(f"{w.name}, input {j}: the trees write different documents")

    samples = [[[] for _ in range(w.inputs)] for _ in (0, 1)]
    for r in range(rounds):
        for j in range(w.inputs):
            for side in ((0, 1) if (r + j) % 2 == 0 else (1, 0)):
                samples[side][j].append(mine(side, j))

    sums = [sum(min(s) for s in samples[side]) for side in (0, 1)]
    medians = [statistics.mean(statistics.median(s) for s in samples[side]) for side in (0, 1)]
    print(f"{w.name}: {w.inputs} inputs x {rounds} rounds, same documents")
    for side, label in enumerate(labels):
        print(f"  {'AB'[side]} {label}, sum of minima {sums[side]:.4f} s, "
              f"mean of medians {medians[side]:.4f} s")
    print(f"  A/B: sum of minima {sums[0] / sums[1]:.3f}x, "
          f"mean of medians {medians[0] / medians[1]:.3f}x", flush=True)


def main(argv) -> int:
    if len(argv) not in (4, 5):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    srcs = [os.path.abspath(a) for a in argv[1:3]]
    rounds = int(argv[4]) if len(argv) == 5 else 6
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if argv[3] == "all" else [argv[3]]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = ("seriesmine_a", "seriesmine_b")
        clis = [_load_cli(src, name, tmp) for src, name in zip(srcs, packages)]
        # counted on the copies, so the lines are those of the code timed
        labels = [f"{src}: {_line_count(os.path.join(tmp, name))} lines"
                  for src, name in zip(srcs, packages)]
        for name in names:
            _time_workload(clis, labels, WORKLOADS[name], rounds, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
