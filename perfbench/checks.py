"""Output checks for every benchmark task.

Each checker reads the files one CLI call wrote and splits what it finds
into three groups of fields:

- ``exact``: deterministic linear-algebra results that do not depend on the
  seed.  They must match the stored reference within ``|a - b| <= ATOL +
  RTOL * |b|``.
- ``sim``: simulated results.  For a seed with a stored reference they
  must match it bit for bit (the reproducibility contract).
- ``mixed``: simulated results that also carry an exact quantity (the MSE
  against the exact limit root).  For a reference seed they must match
  within the exact tolerance.

For every seed, stored or not, the checker also tests invariants: finite
values, ``n_kept + n_discarded = R``, ``theta_hat`` equal to the sum of the
level estimates, and containment of the coupled trace.  ``fingerprint``
hashes every output file, so repeated calls within one run can be required
to be byte-identical.

The reference values were recorded from the seed commit of the repository
with ``perfbench/record_reference.py``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-10


class _Out:
    def __init__(self):
        self.exact, self.sim, self.mixed, self.problems = {}, {}, {}, []

    def require(self, cond, message):
        if not cond:
            self.problems.append(message)

    def finite(self, name, value):
        self.require(isinstance(value, (int, float)) and math.isfinite(value),
                     f"{name} is not finite: {value!r}")


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _variance_exact(outdir, cfg, out):
    records = json.loads((outdir / "variance_exact.json").read_text())
    out.require([r["level"] for r in records] == list(cfg["experiment"]["levels"]),
                "levels differ from the requested ones")
    for rec in records:
        for key in ("sigma", "t1", "t2", "dh_l", "dh_lm1", "theta_star_l",
                    "theta_star_lm1", "cross_term"):
            out.finite(key, rec[key])
            out.exact[f"l{rec['level']}.{key}"] = rec[key]
        out.require(rec["sigma"] > 0.0, f"level {rec['level']}: sigma <= 0")


def _lemma_check(outdir, cfg, out):
    for row in _csv_rows(outdir / "lemma_check.csv"):
        value = float(row["value"])
        out.finite(row["quantity"], value)
        out.exact[f"{row['quantity']}.l{row['level']}"] = value
    verdicts = json.loads((outdir / "lemma_verdicts.json").read_text())
    for name in ("solution_gap", "derivative_gap_equal"):
        out.exact[f"{name}.slope"] = verdicts[name]["slope"]
        out.exact[f"{name}.pass"] = verdicts[name]["pass"]
    out.exact["theta_gap.max_gap"] = verdicts["theta_gap_zero_at_equal_thetas"]["max_gap"]


def _certify(outdir, cfg, out):
    cert = json.loads((outdir / "certificate.json").read_text())
    for key, value in cert.items():
        if isinstance(value, float):
            out.finite(key, value)
        out.exact[key] = value
    out.require(0.0 < cert["epsilon_minor"] < 1.0, "minorization mass outside (0, 1)")
    out.require(cert["lambda_drift"] < 1.0, "drift factor not below 1")


def _variance_empirical(outdir, cfg, out):
    (row,) = _csv_rows(outdir / "variance_empirical.csv")
    row = {k: _num(v) for k, v in row.items()}
    for key, value in row.items():
        out.finite(key, value)
    for key in ("level", "gamma_n", "exact_sigma"):
        out.exact[key] = row[key]
    for key in ("estimate", "stderr", "n_kept", "n_discarded"):
        out.sim[key] = row[key]
    out.require(row["n_kept"] + row["n_discarded"] == cfg["experiment"]["replicates"],
                "n_kept + n_discarded != R")
    out.require(row["estimate"] > 0.0 and row["stderr"] > 0.0,
                "variance estimate or its standard error is not positive")


def _ml_run(outdir, cfg, out):
    est = json.loads((outdir / "ml_estimate.json").read_text())
    levels = est["level_estimates"]
    for i, value in enumerate(levels + [est["theta_hat"], est["realized_cost"]]):
        out.finite(f"value {i}", value)
    total = 0.0
    for value in levels:
        total += value
    out.require(est["theta_hat"] == total, "theta_hat != left-to-right sum of level estimates")
    out.require(len(levels) == est["plan"]["L"] + 1, "one level estimate per level expected")
    out.require(est["seeds"] == [[cfg["seed"], l] for l in range(len(levels))],
                "level seeds are not (seed, level)")
    out.exact["realized_cost"] = est["realized_cost"]
    for key, value in est["plan"].items():
        out.exact[f"plan.{key}"] = value
    out.sim["theta_hat"] = est["theta_hat"]
    out.sim["level_estimates"] = levels


def _mse_cost(outdir, cfg, out):
    rows = _csv_rows(outdir / "mse_cost.csv")
    out.require([float(r["epsilon"]) for r in rows]
                == [float(e) for e in cfg["experiment"]["epsilons"]], "epsilon grid differs")
    for row in rows:
        row = {k: float(v) for k, v in row.items()}
        eps = row["epsilon"]
        for key, value in row.items():
            out.finite(f"eps={eps} {key}", value)
        out.require(row["mse"] > 0.0 and row["stderr_mse"] >= 0.0, f"eps={eps}: bad MSE")
        out.exact[f"eps={eps}.mean_cost"] = row["mean_cost"]
        out.mixed[f"eps={eps}.mse"] = row["mse"]
        out.mixed[f"eps={eps}.stderr_mse"] = row["stderr_mse"]


def _bound(cfg, psi):
    # the engine's own arithmetic: r0 + growth * psi
    return cfg["reprojection"]["r0"] + cfg["reprojection"]["growth"] * psi


def _run_msa(outdir, cfg, out):
    (row,) = _csv_rows(outdir / "run_msa.csv")
    theta, psi, n_re = float(row["theta_final"]), int(row["psi_final"]), int(row["n_reprojections"])
    out.finite("theta_final", theta)
    out.require(abs(theta) <= _bound(cfg, psi), "final parameter outside its constraint set")
    out.require(psi == n_re, "psi_final != number of reprojections")
    out.sim.update(theta_final=theta, psi_final=psi, n_reprojections=n_re)


def _run_coupled(outdir, cfg, out):
    (row,) = _csv_rows(outdir / "run_coupled.csv")
    for key in ("increment_final", "fine_theta_final", "coarse_theta_final"):
        out.sim[key] = float(row[key])
        out.finite(key, out.sim[key])
    out.sim["psi_final"] = int(row["psi_final"])
    out.sim["n_reprojections"] = int(row["n_reprojections"])
    out.require(out.sim["increment_final"]
                == out.sim["fine_theta_final"] - out.sim["coarse_theta_final"],
                "increment_final != fine - coarse")
    m, n_steps = cfg["model"]["m"], cfg["experiment"]["n_steps"]
    columns = ("theta_fine", "theta_coarse", "x_fine", "x_coarse", "psi")
    digest = hashlib.sha256()
    n_rows, jumps, prev_psi, last = 0, 0, 0, None
    contained = in_grid = monotone = True
    for rec in _csv_rows(outdir / "trace_coupled.csv"):
        n_rows += 1
        digest.update(",".join(rec[c] for c in columns).encode() + b"\n")
        th_f, th_c = float(rec["theta_fine"]), float(rec["theta_coarse"])
        x_f, x_c, psi = int(rec["x_fine"]), int(rec["x_coarse"]), int(rec["psi"])
        bound = _bound(cfg, psi)
        contained &= abs(th_f) <= bound and abs(th_c) <= bound
        in_grid &= 0 <= x_f < m and 0 <= x_c < m
        monotone &= psi >= prev_psi
        jumps += psi != prev_psi
        prev_psi, last = psi, (th_f, th_c)
    out.require(n_rows == n_steps + 1, f"trace has {n_rows} rows, expected {n_steps + 1}")
    out.require(contained, "trace leaves its constraint sets")
    out.require(in_grid, "trace leaves the state grid")
    out.require(monotone, "psi decreases along the trace")
    out.require(jumps == out.sim["n_reprojections"] and prev_psi == out.sim["psi_final"],
                "psi jumps do not match the reprojection count")
    out.require(last == (out.sim["fine_theta_final"], out.sim["coarse_theta_final"]),
                "trace end differs from the reported final parameters")
    out.sim["trace_sha256"] = digest.hexdigest()


_CHECKERS = {
    "variance-exact": _variance_exact,
    "lemma-check": _lemma_check,
    "certify": _certify,
    "variance-empirical": _variance_empirical,
    "ml-run": _ml_run,
    "mse-cost": _mse_cost,
    "run-msa": _run_msa,
    "run-coupled": _run_coupled,
}


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return abs(a - b) <= ATOL + RTOL * abs(b)
    return a == b


def _compare(group: str, got: dict, want: dict, close, problems: list) -> None:
    if set(got) != set(want):
        problems.append(f"{group} fields differ from the reference: "
                        f"{sorted(set(got) ^ set(want))}")
    for key in sorted(set(got) & set(want)):
        if not close(got[key], want[key]):
            problems.append(f"{group} {key}: got {got[key]!r}, reference {want[key]!r}")


def extract(kind: str, outdir: Path, seed: int | None) -> _Out:
    """Fields and invariant violations of one task's output directory;
    ``seed`` is the seed the task was given, None for an unseeded task."""
    out = _Out()
    manifest = json.loads((outdir / "manifest.json").read_text())
    cfg = manifest["config"]
    out.require(manifest["subcommand"] == kind, "manifest names another subcommand")
    out.require(seed is None or cfg["seed"] == seed, "manifest echoes another seed")
    _CHECKERS[kind](outdir, cfg, out)
    return out


def fingerprint(outdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check(kind: str, outdir: Path, seed: int | None, reference: dict | None) -> list[str]:
    """Problems found in one task's output; an empty list means it passed.

    ``reference`` is the stored entry for this task: ``{"exact": {...},
    "sim": {"<seed>": {"sim": {...}, "mixed": {...}}}}``.
    """
    try:
        out = extract(kind, outdir, seed)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
    problems = list(out.problems)
    if reference is None:
        return problems + ["no stored reference for this task"]
    _compare("exact", out.exact, reference["exact"], _close, problems)
    stored = None if seed is None else reference["sim"].get(str(seed))
    if stored is not None:
        _compare("sim", out.sim, stored["sim"], lambda a, b: a == b, problems)
        _compare("mixed", out.mixed, stored["mixed"], _close, problems)
    return problems
