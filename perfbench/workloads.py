"""Task lists of the three benchmark workloads.

A task is one ``mlmsa.cli.main`` call.  ``kind`` names the output checker
(see checks.py); ``seeded`` tasks receive the workload seed as ``--seed``.
Every task builds a fresh model, so the exact layer's caches start cold on
each call, as they do for a command-line user.

``FULL`` is what the benchmark measures; ``SMOKE`` runs the same task types
at tiny sizes so that the whole harness can be exercised in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Task:
    label: str   # metric stem, e.g. "variance_exact" -> task.variance_exact_s
    kind: str    # output checker
    argv: tuple[str, ...]
    seeded: bool = False


def _oracle(smoke: bool):
    m8 = ("--model.m=8",) if smoke else ()
    return (
        Task("variance_exact", "variance-exact",
             ("variance-exact", "--experiment.levels=[3]") + m8),
        Task("variance_exact_m40", "variance-exact",
             ("variance-exact", "--model.m=10" if smoke else "--model.m=40",
              "--experiment.levels=[3]")),
        Task("lemma_check", "lemma-check",
             ("lemma-check", "--model.m=8" if smoke else "--model.m=24")),
        Task("certify", "certify",
             ("certify",) + m8 + (("--experiment.n_theta=3",) if smoke else ())),
    )


def _wide(smoke: bool):
    size = ("--model.m=8", "--experiment.n_steps=300", "--experiment.replicates=100") \
        if smoke else ("--model.m=24", "--experiment.n_steps=10000")
    return (
        Task("variance_empirical", "variance-empirical",
             ("variance-empirical",) + size, seeded=True),
        Task("variance_empirical_indep", "variance-empirical",
             ("variance-empirical", "--model.coupling=independent") + size, seeded=True),
    )


def _narrow(smoke: bool):
    m8 = ("--model.m=8",) if smoke else ()
    return (
        Task("ml_run", "ml-run",
             ("ml-run", "--experiment.epsilon=0.05",
              "--experiment.c_n=1" if smoke else "--experiment.c_n=25") + m8, seeded=True),
        Task("mse_cost", "mse-cost",
             ("mse-cost", "--experiment.c_n=1" if smoke else "--experiment.c_n=20") + m8,
             seeded=True),
        Task("run_coupled", "run-coupled",
             ("run-coupled", "--experiment.n_steps=" + ("300" if smoke else "10000"),
              "--trace") + m8, seeded=True),
        Task("run_msa", "run-msa",
             ("run-msa", "--experiment.n_steps=" + ("300" if smoke else "20000")) + m8,
             seeded=True),
    )


_BUILDERS = {"oracle": _oracle, "wide": _wide, "narrow": _narrow}

WORKLOADS = tuple(_BUILDERS)
FULL = {name: build(False) for name, build in _BUILDERS.items()}
SMOKE = {name: build(True) for name, build in _BUILDERS.items()}

# The set-up probe: import, model build and one small exact solve, which
# also pays the first LAPACK call.  Identical for every workload.
WARMUP_ARGV = ("variance-exact", "--model.m=8", "--experiment.levels=[1]")


def task_argv(task: Task, seed: int, outdir: str) -> list[str]:
    argv = list(task.argv) + [f"--output={outdir}"]
    if task.seeded:
        argv.append(f"--seed={seed}")
    return argv
