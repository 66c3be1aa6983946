"""Benchmark of the mlmsa command line, one workload per run.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.

One run is one process and one closed-loop client: it calls
``mlmsa.cli.main`` for one task at a time, the next starting when the
previous returns.  A pass is the workload's fixed task list; the run repeats
whole passes until ``--seconds`` have elapsed and checks every task's
output (checks.py).

The box this was tuned on is shared, and its speed swings by up to 2x in
spells of seconds to minutes, often for a whole run.  So the headline time,
``wall_cal``, is measured against a yardstick run beside each task: a fixed
LAPACK kernel (``calibrate``) is timed before the first task of a pass and
after every task, and each task's time is divided by the mean of the two
kernel times around it.  ``wall_cal`` is the sum over tasks of the median
of these ratios: the time of one pass in units of the kernel's time on the
same CPU at the same moment.  The raw pass time in seconds, ``wall_s``, and
the kernel's median time, ``calib_s``, are reported by the traced run.

Set-up time is measured first, in separate short-lived processes that each
pay what a command-line user pays per invocation: interpreter start,
import, model build and one small exact solve.  ``setup_s`` is the fastest
of them, for the same reason: their times fall into a fast and a slow mode
about 40% apart, and the median lands in either.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (tracing.py) and reports the per-layer metrics,
the per-task medians from the untraced passes and the tracing overhead
(traced pass time minus untraced pass time, each the sum of the fastest
task times).  The last line of standard output is the JSON result; the
lines above it are a readable report and the run facts.

``--smoke`` runs every workload at tiny sizes, checks that each metric of
BENCHMARK.json is emitted with its unit, and checks that a corrupted copy of
the stored references makes tasks fail.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# One BLAS thread (nproc is 2 on the reference box): the closed loop runs one
# task at a time, and a single thread keeps run-to-run spread low.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 11
SETUP_PROBE = "import sys; from mlmsa.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END = {"setup_s": "s", "wall_cal": "cal", "peak_rss_mb": "MB"}

# The yardstick: eigenvalues of a fixed 160 x 160 matrix, four times, which
# stays in the core's own caches, and one solve with a fixed 1024 x 1024
# matrix (8 MB, like the m=32 coupled kernel), which does not; about 0.1 s.
# Dense LAPACK work tracked the speed swings of every workload's tasks, the
# per-step numpy ones included, more closely than a loop of small numpy
# operations did, and the large solve tracked the oracle's large dense
# solves better than the small kernel alone.
CALIB_SMALL, CALIB_REPS = 160, 4
CALIB_LARGE, CALIB_RHS = 1024, 8


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def load_package():
    """Import mlmsa from the checkout with the BLAS thread count pinned."""
    if not (ROOT / "src" / "mlmsa" / "cli.py").is_file():
        raise BenchError(f"no mlmsa sources under {ROOT / 'src'}")
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    import mlmsa.cli  # noqa: F401  (binds mlmsa.cli for the tracer)
    import mlmsa
    return mlmsa


def measure_setup(reps: int) -> list[float]:
    outdir = WORK / "setup"
    argv = [sys.executable, "-c", SETUP_PROBE, *workloads.WARMUP_ARGV, f"--output={outdir}"]
    times = []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for rep in range(reps):
            # children inherit the affinity: spread the probes over the CPUs
            os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed ({proc.returncode}): "
                                 f"{proc.stderr.strip()}")
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def calib_matrices():
    import numpy as np
    rng = np.random.default_rng(0)
    return (rng.standard_normal((CALIB_SMALL, CALIB_SMALL)),
            rng.standard_normal((CALIB_LARGE, CALIB_LARGE)),
            rng.standard_normal((CALIB_LARGE, CALIB_RHS)))


def calibrate(matrices) -> float:
    """Wall time of the yardstick kernel."""
    import numpy as np
    small, large, rhs = matrices
    start = time.perf_counter()
    for _ in range(CALIB_REPS):
        np.linalg.eigvals(small)
    np.linalg.solve(large, rhs)
    return time.perf_counter() - start


def run_pass(package, tasks, seed, refs, outroot: Path, fingerprints: dict, yardstick,
             tracer=None, first_task_id=0) -> dict:
    """One pass over the task list; outputs are checked after the timed loop.

    The yardstick runs before the first task and after each task, outside
    the task times and outside any span.
    """
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)
    times, rel, errors = {}, {}, {}
    if tracer is not None:
        tracer.install()
    try:
        calib = [calibrate(yardstick)]
        for offset, task in enumerate(tasks):
            argv = workloads.task_argv(task, seed, str(outroot / task.label))
            if tracer is not None:
                tracer.task = first_task_id + offset
            t0 = time.perf_counter()
            try:
                code = package.cli.main(argv)
            except Exception:  # a crashing task is a failed task, not a crashed run
                code, errors[task.label] = None, traceback.format_exc(limit=3)
            times[task.label] = time.perf_counter() - t0
            calib.append(calibrate(yardstick))
            rel[task.label] = times[task.label] / ((calib[-2] + calib[-1]) / 2)
            if code != 0 and task.label not in errors:
                errors[task.label] = f"exit code {code}"
    finally:
        if tracer is not None:
            tracer.task = None
            tracer.uninstall()
    failures, written = {}, 0
    for task in tasks:
        outdir = outroot / task.label
        if task.label in errors:
            failures[task.label] = [errors[task.label]]
            continue
        written += sum(p.stat().st_size for p in outdir.iterdir())
        problems = checks.check(task.kind, outdir, seed if task.seeded else None,
                                refs.get(task.label))
        digest = checks.fingerprint(outdir)
        if fingerprints.setdefault(task.label, digest) != digest:
            problems.append("output files differ from the first pass with this seed")
        if problems:
            failures[task.label] = problems
    return {"times": times, "rel": rel, "calib": calib, "failures": failures,
            "bytes": written}


def _task_times(passes, tasks, key="times") -> dict:
    return {t.label: [p[key][t.label] for p in passes] for t in tasks}


def _pass_median(task_times: dict) -> float:
    """One pass of the task list as the sum of each task's median time."""
    return sum(statistics.median(samples) for samples in task_times.values())


def run_workload(package, workload: str, tasks, seed: int, seconds: float, trace: bool,
                 refs: dict, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Set up, run timed passes, and return the result object and a report."""
    setup = measure_setup(setup_reps)
    outroot = WORK / "out"
    # the same warm-up as the probe, once in this process, and the yardstick's
    package.cli.main(list(workloads.WARMUP_ARGV) + [f"--output={WORK / 'setup'}"])
    yardstick = calib_matrices()
    calibrate(yardstick)
    tracer = tracing.Tracer(package) if trace else None
    passes, fingerprints = [], {}
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            # Each CPU's speed swings on its own with other tenants' load, so
            # passes rotate over the CPUs this process may use (a traced and an
            # untraced pass per CPU in a traced run).
            os.sched_setaffinity(0, {cpus[len(passes) // (2 if trace else 1) % len(cpus)]})
            result = run_pass(package, tasks, seed, refs, outroot, fingerprints, yardstick,
                              tracer if traced else None,
                              first_task_id=len(passes) * len(tasks))
            result["traced"] = traced
            passes.append(result)
            if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
                break
    finally:
        os.sched_setaffinity(0, cpus)
    shutil.rmtree(outroot, ignore_errors=True)
    plain = [p for p in passes if not p["traced"]]
    task_times = _task_times(plain, tasks)
    rel_times = _task_times(plain, tasks, "rel")
    attempted = len(tasks) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        values = tracer.layer_metrics(len(traced_passes))
        values["cli.bytes_written"] = statistics.mean(p["bytes"] for p in traced_passes)
        for label in tracing.TASK_LABELS:
            values[f"task.{label}_s"] = (statistics.median(task_times[label])
                                         if label in task_times else 0.0)
        values["wall_s"] = _pass_median(task_times)
        values["calib_s"] = statistics.median(c for p in plain for c in p["calib"])
        # in yardstick units, then seconds: raw differences of two noisy times
        # are mostly the box's speed swings
        overhead = (_pass_median(_task_times(traced_passes, tasks, "rel"))
                    - _pass_median(rel_times)) * values["calib_s"]
        values["trace.overhead_s"] = overhead
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        trace_path = WORK / f"trace-{workload}-seed{seed}.json"
        tracer.dump(trace_path)
    else:
        values = {"setup_s": min(setup),
                  "wall_cal": _pass_median(rel_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        overhead, trace_path = None, None
    report = {"setup": setup, "passes": passes, "task_times": task_times,
              "rel_times": rel_times,
              "overhead": overhead, "trace_path": trace_path}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


# -- run facts ------------------------------------------------------------------

def _llc_bytes():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            continue
    return None


def _blas_threads_reported():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def run_facts(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": _llc_bytes(),
        "seed": seed,
        "src_lines": src_lines,
    }


def print_report(workload, seed, trace, result, report):
    passes = report["passes"]
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} "
          f"passes={len(passes)} (traced {sum(p['traced'] for p in passes)})")
    for label, samples in report["task_times"].items():
        rel = report["rel_times"][label]
        print(f"  task {label:<26} median {statistics.median(samples):9.4f} s  "
              f"fastest {min(samples):9.4f} s  median {statistics.median(rel):9.3f} cal  "
              f"(n={len(samples)})")
    calib = [c for p in passes if not p["traced"] for c in p["calib"]]
    print(f"  pass median {_pass_median(report['task_times']):.4f} s, "
          f"{_pass_median(report['rel_times']):.3f} cal; yardstick median "
          f"{statistics.median(calib):.5f} s, range {min(calib):.5f}-{max(calib):.5f} s "
          f"(n={len(calib)}); setup median {statistics.median(report['setup']):.4f} s, "
          f"fastest {min(report['setup']):.4f} s (n={len(report['setup'])})")
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4f}")
    if report["overhead"] is not None:
        print(f"  tracing overhead {report['overhead']:+.4f} s per pass; "
              f"spans written to {report['trace_path'].relative_to(ROOT)}")
    for index, p in enumerate(passes):
        for label, problems in p["failures"].items():
            for problem in problems:
                print(f"  FAILED pass {index} {label}: {problem.strip()}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")


# -- smoke mode -------------------------------------------------------------------

def _flip_digit(value: float, position: int) -> float:
    """Change one significant digit of repr(value); position -1 is the last."""
    mantissa, _, exponent = repr(float(value)).partition("e")
    digits = [i for i, ch in enumerate(mantissa) if ch.isdigit()]
    digits = digits[next(k for k, i in enumerate(digits) if mantissa[i] != "0"):]
    i = digits[min(position, len(digits) - 1)]
    mantissa = mantissa[:i] + str((int(mantissa[i]) + 1) % 10) + mantissa[i + 1:]
    return float(mantissa + ("e" + exponent if exponent else ""))


def _corrupt(refs: dict, tasks, seed: int, group: str):
    """A reference copy with one digit flipped in one float of ``group``."""
    bad = copy.deepcopy(refs)
    for task in tasks:
        entry = bad[task.label]
        fields = entry["exact"] if group == "exact" else \
            entry["sim"].get(str(seed), {}).get("sim", {})
        for key, value in fields.items():
            if isinstance(value, float) and value != 0.0:
                # exact fields are compared to a tolerance: flip the 5th digit;
                # simulated fields bit for bit: flip the last one
                fields[key] = _flip_digit(value, 4 if group == "exact" else -1)
                return bad, f"{task.label} {group} {key}"
    return None, None


def smoke(package, seed: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(REFERENCE.read_text())["smoke"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        tasks = workloads.SMOKE[workload]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run_workload(package, workload, tasks, seed, 0, trace, refs,
                                     setup_reps=1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={int(trace)}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            if result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} tasks failed")
        for group in ("exact", "sim"):
            bad, where = _corrupt(refs, tasks, seed, group)
            if bad is None:
                continue
            result, _ = run_workload(package, workload, tasks, seed, 0, False, bad, setup_reps=1)
            ratio = result["failed"] / result["attempted"]
            print(f"smoke {workload}: corrupted {where}: fail_ratio {ratio:.3f}")
            if result["failed"] == 0:
                problems.append(f"{workload}: corrupted reference ({where}) not detected")
        print(f"smoke {workload}: done")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke passed" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and test the harness")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        package = load_package()
        WORK.mkdir(exist_ok=True)
        if args.smoke:
            return smoke(package, args.seed)
        refs = json.loads(REFERENCE.read_text())["full"]
        result, report = run_workload(package, args.workload, workloads.FULL[args.workload],
                                      args.seed, args.seconds, bool(args.trace), refs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, args.seed, args.trace, result, report)
    print("facts " + json.dumps(run_facts(args.seed), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
