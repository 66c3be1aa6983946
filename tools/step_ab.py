"""Time the stepping loop of two checkouts side by side, in one process.

Usage, from any directory:

    python tools/step_ab.py PARENT CHANGE [--rounds 11]

PARENT and CHANGE are checkouts (directories holding ``src/mlmsa``).  Each
package is copied into one temporary directory under its own name,
``mlmsa_parent`` and ``mlmsa_change``, and both are imported into this
process.  Each round calls ``engine._run_ensemble`` of both sides once per
case, alternating which side goes first, with generators seeded alike: at
R = 1 a single chain and a CRN pair, at R = 50 and R = 400 a CRN pair and
an independent pair (m = 32, level 3, steps 1 / n**0.75, reprojection
r0 = 2 and growth 1, the command line's defaults).

For each case it prints the median ns per replicate-step of each side and
the median over rounds of the paired ratio change / parent, with the number
of rounds the change was faster.  The speed of a shared machine can drift
by 30% or more between sessions, and between runs of one benchmark, so only
the pairs taken in one process compare; the ratio is the number to report.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# (label, R, coupled, coupling, n_steps): each call takes about 0.1 s
CASES = (
    ("R1 single", 1, False, "crn", 20_000),
    ("R1 crn", 1, True, "crn", 20_000),
    ("R50 crn", 50, True, "crn", 5_000),
    ("R50 independent", 50, True, "independent", 5_000),
    ("R400 crn", 400, True, "crn", 2_048),
    ("R400 independent", 400, True, "independent", 2_048),
)


def _load(checkout: Path, name: str, tmp: Path):
    """Import checkout's src/mlmsa as package name, from a copy in tmp."""
    shutil.copytree(checkout / "src" / "mlmsa", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{name}.engine"), importlib.import_module(f"{name}.core"),
            importlib.import_module(f"{name}.model"))


def _timed(side, case, seed: int) -> float:
    """ns per replicate-step of one call."""
    engine, core, model = side
    _, R, coupled, coupling, n = case
    args = (model.build_model(m=32), 3, core.StepSchedule("polynomial", 1.0, 0.75),
            core.ReprojectionFamily(2.0, 1.0), n)
    rngs = [np.random.default_rng(seed + i) for i in range(R)]
    start = time.perf_counter_ns()
    engine._run_ensemble(*args, rngs, 0.0, None, 0.0, None, coupled=coupled, coupling=coupling)
    return (time.perf_counter_ns() - start) / (n * R)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=11)
    opts = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [_load(path.resolve(), f"mlmsa_{name}", Path(tmp))
                 for path, name in zip((opts.parent, opts.change), SIDES)]
        ns = {(case[0], name): [] for case in CASES for name in SIDES}
        for case in CASES:  # warm both sides: lazy imports, first-touch pages
            for side in sides:
                _timed(side, case, 0)
        for r in range(opts.rounds):
            for case in CASES:
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for k in order:
                    ns[case[0], SIDES[k]].append(_timed(sides[k], case, 1000 * r))
    print(f"{'case':<18}{'steps':>7}{'parent ns':>11}{'change ns':>11}{'ratio':>8}  faster")
    for label, *_, n in CASES:
        a, b = ns[label, "parent"], ns[label, "change"]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{label:<18}{n:>7}{statistics.median(a):>11.0f}{statistics.median(b):>11.0f}"
              f"{ratio:>8.3f}  {wins}/{len(a)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
