"""Print what a user waits for: each subcommand at its defaults, the Tier-1
suite, the package's import, and the size of ``src/``.

Usage, from any directory:

    python tools/clock.py [--runs N]

It times the checkout it lives in, with that checkout's ``src`` first on
``PYTHONPATH``, so run it from two checkouts to compare them.  It prints:

- one line per subcommand of ``mlmsa.cli.SUBCOMMANDS``: the wall time of
  ``python -m mlmsa.cli SUBCOMMAND --output DIR`` in a fresh process, the
  least of N runs (default 3), each into its own directory under one
  temporary directory, which is removed at the end;
- the wall time of one Tier-1 run, ``python -m pytest -q
  --continue-on-collection-errors`` from the checkout's root (pytest's
  cache plugin off, so the checkout gets no cache), with pytest's summary
  line;
- the ``-X importtime`` self time of each ``mlmsa`` module when
  ``mlmsa.cli`` is imported in a fresh process, the least of N runs;
- the line count of each ``src/mlmsa`` module and their total.

It uses the standard library only.  It stops with exit code 1 when a
subcommand fails; otherwise its exit code is the suite's.  It reports and
does not judge, so it is a tool to run by hand, not a test: the suite
alone takes about 90 s on two cores.  A shared machine's speed drifts, so
time both sides of a comparison back to back, on one machine.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlmsa"
ENV = os.environ | {"PYTHONPATH": os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


def python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter on args in a fresh process, output captured."""
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True,
                          **kwargs)


def timed(*args: str, **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    """python(*args) and its wall time in seconds."""
    start = time.perf_counter()
    done = python(*args, **kwargs)
    return time.perf_counter() - start, done


def import_self_times(runs: int) -> dict[str, int]:
    """Least ``-X importtime`` self time, in microseconds, of each mlmsa module."""
    best: dict[str, int] = {}
    for _ in range(runs):
        done = python("-X", "importtime", "-c", "import mlmsa.cli", check=True)
        for line in done.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip().startswith("mlmsa"):
                name, self_us = fields[2].strip(), int(fields[0])
                best[name] = min(best.get(name, self_us), self_us)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per timing (least is kept)")
    runs = parser.parse_args(argv).runs
    if runs < 1:
        parser.error("--runs must be at least 1")
    subcommands = python("-c", "from mlmsa.cli import SUBCOMMANDS; print(*SUBCOMMANDS)",
                         check=True).stdout.split()
    print(f"subcommands at their defaults, least of {runs} fresh processes:")
    with tempfile.TemporaryDirectory() as tmp:
        for sub in subcommands:
            seconds = []
            for i in range(runs):
                out = str(Path(tmp, f"{sub}-{i}"))
                wall, done = timed("-m", "mlmsa.cli", sub, "--output", out)
                if done.returncode:
                    print(f"  {sub} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
                    return 1
                seconds.append(wall)
            print(f"  {sub:<20} {min(seconds):7.3f} s")
    wall, done = timed("-m", "pytest", "-q", "--continue-on-collection-errors",
                       "-p", "no:cacheprovider", cwd=ROOT)
    summary = next((line.strip("= ") for line in reversed(done.stdout.splitlines())
                    if line.strip()), "no output")
    print(f"tier-1 suite {wall:7.1f} s  ({summary})")
    print(f"import mlmsa.cli, self time per module, least of {runs}:")
    for name, self_us in import_self_times(runs).items():
        print(f"  {name:<20} {self_us / 1000:7.1f} ms")
    print("src/ lines:")
    counts = {path.name: len(path.read_text(encoding="utf-8").splitlines())
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"  {name:<20} {count:7d}")
    print(f"  {'total':<20} {sum(counts.values()):7d}")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
