"""Print the sha256 of every result and trace file of a fixed set of runs.

Usage, from any directory:

    PYTHONPATH=<checkout>/src python tools/result_digests.py > digests.sha

Each configuration below runs in this process through ``mlmsa.cli.main``,
into its own directory under one temporary directory, which is removed at
the end.  Each builds its own model, and the exact caches are keyed by the
model, so no result carries over between configurations.  One line
``sha256  path`` is printed per file, the path relative to that temporary
directory; manifests are skipped, since they echo the output directory.
Run it against two checkouts and compare the outputs with ``diff``: no
difference means the two wrote byte-identical results.

``tests/result_digests.sha`` holds these lines as recorded, and
``tests/test_result_digests.py`` runs the same configurations through
:func:`digest_lines` and compares.  A change that moves a result
re-records that file in the same diff, from the checkout's root:

    { echo "# recorded with numpy $(python -c 'import numpy; print(numpy.__version__)')"
      PYTHONPATH=src python tools/result_digests.py; } > tests/result_digests.sha

The list covers every subcommand, both couplings, the certificate's
flat-target fallback, and, with the tight reprojection family TIGHT, the
reset branch of the stepping loop.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from mlmsa import cli

TIGHT = ("--reprojection.r0=0.05", "--reprojection.growth=0.01")

CONFIGS = (
    ("rate-check",),
    ("rate-check", "--experiment.r=0.3", "--model.bias_choice=shifted-cosine"),
    ("rate-check", "--model.m=24", "--experiment.theta=-0.4"),
    ("lemma-check",),
    ("lemma-check", "--model.m=24"),
    ("lemma-check", "--model.coupling=independent", "--experiment.r=0.5",
     "--experiment.theta_prime=0.7"),
    ("certify",),
    ("certify", "--model.m=8", "--experiment.n_theta=3"),
    ("certify", "--model.m=24", "--experiment.theta_min=-1.0", "--experiment.n_theta=5"),
    ("certify", "--experiment.theta_min=0.0", "--experiment.theta_max=0.0",
     "--experiment.n_theta=1"),
    ("variance-exact",),
    ("schedule", "--experiment.epsilon=0.05"),
    ("ml-run", "--experiment.epsilon=0.05", "--experiment.c_n=25"),
    ("mse-cost", "--experiment.c_n=20"),
    ("mse-cost", "--model.coupling=independent"),
    ("run-msa", "--trace"),
    ("run-coupled", "--trace"),
    ("variance-empirical", "--model.m=24", "--experiment.n_steps=10000"),
    ("run-msa", "--trace") + TIGHT,
    ("run-coupled", "--trace") + TIGHT,
    ("run-coupled", "--trace", "--model.coupling=independent", "--experiment.x0=1",
     "--experiment.x0_bar=5") + TIGHT,
    ("mse-cost",) + TIGHT,
    ("ml-run", "--model.coupling=independent") + TIGHT,
    ("variance-empirical", "--model.m=8", "--experiment.n_steps=2000",
     "--experiment.replicates=100", "--reprojection.r0=0.3", "--reprojection.growth=0.05"),
)


def digest_lines(root: Path) -> list[str]:
    """Run every configuration into its own directory under root and return
    one ``sha256  path`` line per result file."""
    for i, argv in enumerate(CONFIGS):
        if cli.main([*argv, "--output", str(root / f"{i:02d}-{argv[0]}")]) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}"
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        try:
            lines = digest_lines(Path(tmp))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
