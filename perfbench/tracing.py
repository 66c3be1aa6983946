"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps each layer's entry points at every module binding that
holds them.  Callers import functions by name (``from .exact import
level_root``), so replacing ``mlmsa.exact.level_root`` alone would miss the
call from ``mlmsa.multilevel``; :meth:`Tracer.install` therefore replaces
the function object wherever a ``mlmsa`` module binds it, and
:meth:`Tracer.uninstall` puts the originals back.  A wrapper only times the
call and reads its arguments and result, so results are unchanged.

Spans (name, start, end, parent, task id) and counts are kept in memory and
written once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("core", "model", "exact", "engine", "multilevel", "cli")

# (module, attribute) of every entry point that gets a span
ENTRY_POINTS = (
    ("cli", "run"), ("cli", "resolve_config"),
    ("model", "build_model"), ("model", "kernel_matrix"), ("model", "coupled_kernel_matrix"),
    ("exact", "stationary_distribution"), ("exact", "poisson_solve"),
    ("exact", "asymptotic_variance"), ("exact", "estimate_geometric_rate"),
    ("exact", "certify_drift_minorization"), ("exact", "lemma_diagnostics"),
    ("exact", "level_root"),
    ("engine", "_run_ensemble"), ("engine", "msa_run"), ("engine", "coupled_msa_run"),
    ("engine", "empirical_clt_variance"),
    ("multilevel", "ml_estimate"), ("multilevel", "mse_cost_experiment"),
    ("multilevel", "schedule_levels"),
)

# lru caches whose hit ratio is reported, read through cache_info()
CACHES = {
    "exact.level_root": ("exact", "level_root"),
    "exact.poisson_cache": ("exact", "_poisson_for"),
    "exact.coupled_stationary_cache": ("exact", "_coupled_stationary"),
}

# engine.ns_per_rep_step.<bucket>: replicate count R and chain kind
RATE_BUCKETS = ("r1_single", "r1_coupled", "r50_single", "r50_coupled",
                "r400_crn", "r400_indep")

TIMED = ("exact.stationary_distribution", "exact.poisson_solve", "exact.asymptotic_variance",
         "exact.estimate_geometric_rate", "exact.level_root",
         "model.coupled_kernel_matrix", "model.kernel_matrix", "core.step_sizes")

# entry points reported by busy time only
BUSY_ONLY = ("exact.certify_drift_minorization", "exact.lemma_diagnostics",
             "model.build_model", "multilevel.ml_estimate",
             "multilevel.mse_cost_experiment", "cli.resolve_config")

TASK_LABELS = ("variance_exact", "variance_exact_m40", "lemma_check", "certify",
               "variance_empirical", "variance_empirical_indep",
               "ml_run", "mse_cost", "run_coupled", "run_msa")

# name -> (unit, better), in report order
PER_LAYER = {}
for _name in TIMED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
for _name in BUSY_ONLY:
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
for _name in CACHES:
    PER_LAYER[f"{_name}.hit_ratio"] = ("ratio", "higher")
PER_LAYER["engine.rep_steps"] = ("count", "lower")
for _bucket in RATE_BUCKETS:
    PER_LAYER[f"engine.ns_per_rep_step.{_bucket}"] = ("ns", "lower")
PER_LAYER["engine.kept_ratio"] = ("ratio", "higher")
PER_LAYER["engine.coalesced_ratio"] = ("ratio", "higher")
PER_LAYER["engine.reprojections"] = ("count", "lower")
PER_LAYER["multilevel.self_s"] = ("s", "lower")
PER_LAYER["cli.self_s"] = ("s", "lower")
PER_LAYER["cli.bytes_written"] = ("bytes", "lower")
for _label in TASK_LABELS:
    PER_LAYER[f"task.{_label}_s"] = ("s", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")
PER_LAYER["wall_s"] = ("s", "lower")
PER_LAYER["calib_s"] = ("s", "lower")


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans = []          # [name, start, end, parent index, task id]
        self.stack = []
        self.task = None
        self.counts = Counter()
        self._undo = []
        self._caches = {key: getattr(self.modules[module], attr)
                        for key, (module, attr) in CACHES.items()}
        self._cache_marks = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        signature = inspect.signature(fn) if after else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.task])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(result, bound.arguments, spans[index][2] - spans[index][1])
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, original, wrapper):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every entry point; counts cache statistics from here on."""
        hooks = {"engine._run_ensemble": self._after_ensemble,
                 "engine.empirical_clt_variance": self._after_clt_variance,
                 "engine.coupled_msa_run": self._after_coupled_run}
        for module, attr in ENTRY_POINTS:
            name = f"{module}.{attr}"
            original = getattr(self.modules[module], attr)
            self._replace(original, self._wrap(name, original, hooks.get(name)))
        schedule = self.modules["core"].StepSchedule
        original = schedule.step_sizes
        self._undo.append((schedule, "step_sizes", original))
        schedule.step_sizes = self._wrap("core.step_sizes", original)
        self._cache_marks = {key: self._cache_info(key) for key in CACHES}

    def uninstall(self):
        for key, (hits, misses) in self._cache_marks.items():
            now_hits, now_misses = self._cache_info(key)
            self.counts[f"{key}.hits"] += now_hits - hits
            self.counts[f"{key}.misses"] += now_misses - misses
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _cache_info(self, key):
        info = self._caches[key].cache_info()
        return info.hits, info.misses

    # -- counts read from arguments and results -----------------------------

    def _after_ensemble(self, result, args, seconds):
        state, _ = result
        reps, steps = len(args["rngs"]), args["n_steps"] * len(args["rngs"])
        kinds = ["single"]
        if args["coupled"]:
            kinds = ["coupled", "crn" if args["coupling"] == "crn" else "indep"]
        for kind in kinds:
            self.counts[f"steps.r{reps}_{kind}"] += steps
            self.counts[f"seconds.r{reps}_{kind}"] += seconds
        self.counts["engine.rep_steps"] += steps
        self.counts["engine.reprojections"] += int(state.psi.sum())

    def _after_clt_variance(self, result, args, seconds):
        self.counts["clt.kept"] += result.n_kept
        self.counts["clt.replicates"] += result.n_kept + result.n_discarded

    def _after_coupled_run(self, result, args, seconds):
        same = result.fine_x_path[1:] == result.coarse_x_path[1:]
        self.counts["coupled.coalesced"] += int(same.sum())
        self.counts["coupled.steps"] += int(same.size)

    # -- summary ------------------------------------------------------------

    def layer_metrics(self, n_passes: int) -> dict:
        """Per-pass per-layer metrics over everything recorded."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[index]
        calls, busy, self_time = Counter(), Counter(), Counter()
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            calls[name] += 1
            if not self._inside(parent, name):
                busy[name] += durations[index]
            self_time[name.split(".")[0]] += durations[index] - child_time[index]
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name] / n_passes
            out[f"{name}.s"] = busy[name] / n_passes
        for name in BUSY_ONLY:
            out[f"{name}.s"] = busy[name] / n_passes
        for key in CACHES:
            hits, misses = self.counts[f"{key}.hits"], self.counts[f"{key}.misses"]
            out[f"{key}.hit_ratio"] = _ratio(hits, hits + misses)
        out["engine.rep_steps"] = self.counts["engine.rep_steps"] / n_passes
        for bucket in RATE_BUCKETS:
            out[f"engine.ns_per_rep_step.{bucket}"] = 1e9 * _ratio(
                self.counts[f"seconds.{bucket}"], self.counts[f"steps.{bucket}"])
        out["engine.kept_ratio"] = _ratio(self.counts["clt.kept"], self.counts["clt.replicates"])
        out["engine.coalesced_ratio"] = _ratio(self.counts["coupled.coalesced"],
                                               self.counts["coupled.steps"])
        out["engine.reprojections"] = self.counts["engine.reprojections"] / n_passes
        out["multilevel.self_s"] = self_time["multilevel"] / n_passes
        out["cli.self_s"] = self_time["cli"] / n_passes
        return out

    def _inside(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "task"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }), encoding="utf-8")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
