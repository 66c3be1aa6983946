"""Deterministic command-line front end.

One config file (JSON, strict schema: unknown keys are rejected) plus flat
``--key.path=value`` overrides drive every subcommand.  Each run writes a
``manifest.json`` echoing the fully resolved configuration, tool version,
and seed (no timestamps), plus subcommand-specific CSV/JSON results.  All
floats are printed with 17 significant digits and JSON keys are emitted in
sorted order, so identical config+seed reruns produce byte-identical
files.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    NumericalError,
    ParameterError,
    RateParameters,
    ReprojectionFamily,
    make_step_schedule,
)
from .engine import coupled_msa_run, empirical_clt_variance, msa_run
from .exact import (
    asymptotic_variance,
    certify_drift_minorization,
    lemma_diagnostics,
    rate_diagnostics,
)
from .model import build_model
from .multilevel import ml_estimate, mse_cost_experiment, schedule_levels

SUBCOMMANDS = ("variance-exact", "variance-empirical", "rate-check", "lemma-check",
               "certify", "run-msa", "run-coupled", "schedule", "ml-run", "mse-cost")

OUTPUT_ENV = "MLMSA_OUTPUT_DIR"

_BASE_DEFAULTS = {
    "model": {"m": 32, "beta0": 1.0, "lyap_exponent": 0.5, "phi_choice": "sine",
              "bias_choice": "cosine", "coupling": "crn"},
    "schedule": {"kind": "polynomial", "gamma0": 1.0, "rho": 0.75, "n_total": 100000},
    "reprojection": {"r0": 2.0, "growth": 1.0},
    "rates": {"alpha": 1.0, "beta": 1.0, "zeta": 1.0, "kappa": 0.5},
    "experiment": {},
    "seed": 1234,
    "output": None,
}

_EXPERIMENT_DEFAULTS = {
    "variance-exact": {"levels": list(range(1, 9))},
    "variance-empirical": {"level": 3, "n_steps": 100000, "replicates": 400},
    "rate-check": {"levels": list(range(2, 9)), "theta": 0.7, "r": 1.0},
    "lemma-check": {"levels": list(range(2, 9)), "theta": 0.7, "theta_prime": 0.9,
                    "zeta": 1.0, "r": 1.0},
    "certify": {"levels": list(range(0, 7)), "theta_min": -2.0, "theta_max": 2.0,
                "n_theta": 9},
    "run-msa": {"level": 4, "n_steps": 10000, "theta0": 0.0, "x0": None, "trace": False},
    "run-coupled": {"level": 4, "n_steps": 10000, "theta0": 0.0, "theta0_bar": 0.0,
                    "x0": None, "x0_bar": None, "trace": False},
    "schedule": {"epsilon": 0.1, "c_n": 1.0, "n_min": 100},
    "ml-run": {"epsilon": 0.1, "c_n": 1.0, "n_min": 100, "theta0": 0.0},
    "mse-cost": {"epsilons": [0.2, 0.1, 0.05], "replicates": 50, "c_n": 1.0,
                 "n_min": 100, "theta0": 0.0},
}


class ConfigError(ParameterError):
    """Configuration rejected before any computation started."""


def _fmt(x) -> str:
    """17-significant-digit text for floats; plain text otherwise."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _json_text(obj, indent: int = 0) -> str:
    """Stable JSON: sorted keys, 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_json_text(obj[k], indent + 2)}'
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(str(obj))


def _write_text(path: Path, text: str) -> None:
    # the output directory appears with the first result: a failed run leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, obj) -> None:
    _write_text(path, _json_text(obj) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _merge_strict(defaults: dict, given: dict, prefix: str = "") -> dict:
    """Overlay given onto defaults, rejecting keys the schema does not know."""
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge_strict(defaults[key], value, prefix=f"{path}.")
        else:
            out[key] = value
    return out


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key.path=value")
    key, raw = text.split("=", 1)
    key = key.lstrip("-")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare string value
    return key, value


def _apply_override(config: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = config
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"config key {dotted!r} is a block, not a value")
    node[leaf] = value


def resolve_config(subcommand: str, config_path: str | None, overrides=()) -> dict:
    """Defaults <- config file <- command-line overrides, strictly validated."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    defaults = copy.deepcopy(_BASE_DEFAULTS)
    defaults["experiment"] = copy.deepcopy(_EXPERIMENT_DEFAULTS[subcommand])
    file_cfg = {}
    if config_path is not None:
        try:
            file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file does not parse as JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        if {"subcommand", "tool_version", "config"} <= set(file_cfg):
            # a manifest re-fed as config: use the resolved config it echoes
            file_cfg = dict(file_cfg["config"])
            file_cfg["seed"] = file_cfg.get("seed", defaults["seed"])
    config = _merge_strict(defaults, file_cfg)
    for dotted, value in overrides:
        _apply_override(config, dotted, value)
    if config["output"] is None:
        config["output"] = os.environ.get(OUTPUT_ENV, "mlmsa-out")
    _validate_types(config, defaults)
    return config


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config key {key!r}: {message}")


def _check_types(value, default, key: str = "", what: str = "") -> None:
    """A value takes the type of its default: a block wants a block, a list
    a list whose elements each take the type of the default's first
    element, a bool a bool, an int an int (not a bool), a float a finite
    int or float.  Other defaults set no type."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, dict):
        _require(isinstance(value, dict), key, "must be a block of settings")
        for k in default:
            _check_types(value[k], default[k], f"{key}.{k}" if key else k)
    elif isinstance(default, list):
        _require(isinstance(value, list), key, "must be a list")
        for item in value:
            _check_types(item, default[0], key, f"element {item!r} ")
    elif isinstance(default, bool):
        _require(isinstance(value, bool), key, f"{what}must be true or false")
    elif isinstance(default, int):
        _require(number and isinstance(value, int), key, f"{what}must be an integer")
    elif isinstance(default, float):
        # also false for nan, and for ints beyond the float range
        _require(number and abs(value) <= sys.float_info.max, key,
                 f"{what}must be a finite number")


def _validate_types(cfg: dict, defaults: dict) -> None:
    _check_types(cfg, defaults)
    _require(cfg["model"]["coupling"] in ("crn", "independent"), "model.coupling",
             "must be 'crn' or 'independent'")
    _require(cfg["schedule"]["kind"] in ("polynomial", "constant"), "schedule.kind",
             "must be 'polynomial' or 'constant'")
    _require(cfg["seed"] >= 0, "seed", "must be a non-negative integer")
    _require(isinstance(cfg["output"], str), "output", "must be a directory path")


def _block(cfg: dict, name: str, builder):
    """Build a module object from a config block, naming the block on error."""
    try:
        return builder()
    except ParameterError as exc:
        raise ConfigError(f"config block {name!r}: {exc}") from exc


def _build_parts(cfg: dict):
    model = _block(cfg, "model", lambda: build_model(
        m=cfg["model"]["m"], beta0=cfg["model"]["beta0"],
        lyap_exponent=cfg["model"]["lyap_exponent"],
        phi_choice=cfg["model"]["phi_choice"], bias_choice=cfg["model"]["bias_choice"]))
    sch = cfg["schedule"]
    schedule = _block(cfg, "schedule", lambda: make_step_schedule(
        sch["kind"], sch["gamma0"], sch.get("rho"), sch["n_total"]))
    reproj = _block(cfg, "reprojection", lambda: ReprojectionFamily(
        cfg["reprojection"]["r0"], cfg["reprojection"]["growth"]))
    rates = _block(cfg, "rates", lambda: RateParameters(
        cfg["rates"]["alpha"], cfg["rates"]["beta"], cfg["rates"]["zeta"],
        cfg["rates"]["kappa"]))
    return model, schedule, reproj, rates


def _cmd_variance_exact(cfg, parts, outdir):
    model = parts[0]
    rows, records = [], []
    for l in cfg["experiment"]["levels"]:
        rep = asymptotic_variance(model, l, coupling=cfg["model"]["coupling"])
        rows.append((rep.level, 2.0 ** (-rep.level), rep.sigma, rep.t1, rep.t2,
                     rep.theta_star_l, rep.dh_l))
        records.append({
            "level": rep.level, "delta": 2.0 ** (-rep.level),
            "coupling": rep.coupling, "sigma": rep.sigma, "t1": rep.t1,
            "t2": rep.t2, "dh_l": rep.dh_l, "dh_lm1": rep.dh_lm1,
            "theta_star_l": rep.theta_star_l, "theta_star_lm1": rep.theta_star_lm1,
            "cross_term": rep.cross_term,
        })
    _write_csv(outdir / "variance_exact.csv",
               ("l", "delta", "sigma", "t1", "t2", "theta_star_l", "dh_l"), rows)
    _write_json(outdir / "variance_exact.json", records)
    return {}


def _cmd_variance_empirical(cfg, parts, outdir):
    model, schedule, reproj, _ = parts
    exp = cfg["experiment"]
    est = empirical_clt_variance(model, exp["level"], schedule, exp["n_steps"],
                                 exp["replicates"], cfg["seed"], reproj=reproj,
                                 coupling=cfg["model"]["coupling"])
    exact = asymptotic_variance(model, exp["level"], coupling=cfg["model"]["coupling"])
    _write_csv(outdir / "variance_empirical.csv",
               ("level", "estimate", "stderr", "gamma_n", "n_kept", "n_discarded",
                "exact_sigma"),
               [(exp["level"], est.estimate, est.stderr, est.gamma_n, est.n_kept,
                 est.n_discarded, exact.sigma)])
    return {"estimate": est.estimate, "stderr": est.stderr, "exact_sigma": exact.sigma}


def _slope_verdicts(slopes: dict, target: float, tol: float) -> dict:
    verdicts = {}
    for name, slope in slopes.items():
        if isinstance(slope, str):
            verdicts[name] = {"slope": slope, "pass": True}
        else:
            verdicts[name] = {"slope": slope, "target": target, "tolerance": tol,
                              "pass": bool(abs(slope - target) <= tol)}
    return verdicts


def _cmd_rate_check(cfg, parts, outdir):
    model = parts[0]
    exp = cfg["experiment"]
    diag = rate_diagnostics(model, exp["levels"], exp["theta"], r=exp["r"])
    rows = [(name, l, val) for name, vals in sorted(diag.quantities.items())
            for l, val in zip(diag.levels, vals)]
    _write_csv(outdir / "rate_check.csv", ("quantity", "level", "value"), rows)
    verdicts = _slope_verdicts(diag.slopes, -model.beta0, 0.3)
    _write_json(outdir / "rate_verdicts.json", verdicts)
    return {"all_pass": all(v["pass"] for v in verdicts.values())}


def _cmd_lemma_check(cfg, parts, outdir):
    model = parts[0]
    exp = cfg["experiment"]
    diag = lemma_diagnostics(model, exp["levels"], exp["theta"],
                             exp["theta_prime"], zeta=exp["zeta"], r=exp["r"],
                             coupling=cfg["model"]["coupling"])
    rows = [(name, l, val) for name, vals in sorted(diag.quantities.items())
            for l, val in zip(diag.levels, vals)]
    _write_csv(outdir / "lemma_check.csv", ("quantity", "level", "value"), rows)
    gated = {k: diag.slopes[k] for k in ("solution_gap", "derivative_gap_equal")}
    verdicts = _slope_verdicts(gated, -model.beta0, 0.3)
    verdicts["theta_gap_zero_at_equal_thetas"] = {
        "checked": exp["theta"] == exp["theta_prime"],
        "max_gap": float(np.max(diag.quantities["theta_gap"])),
    }
    _write_json(outdir / "lemma_verdicts.json", verdicts)
    return {}


def _cmd_certify(cfg, parts, outdir):
    model = parts[0]
    exp = cfg["experiment"]
    grid = np.linspace(exp["theta_min"], exp["theta_max"], exp["n_theta"])
    cert = certify_drift_minorization(model, exp["levels"], grid)
    _write_json(outdir / "certificate.json", asdict(cert))
    return {"lambda_drift": cert.lambda_drift}


def _cmd_run_msa(cfg, parts, outdir):
    model, schedule, reproj, _ = parts
    exp = cfg["experiment"]
    traj = msa_run(model, exp["level"], schedule, reproj, exp["n_steps"],
                   exp["theta0"], exp["x0"], cfg["seed"])
    _write_csv(outdir / "run_msa.csv",
               ("level", "n_steps", "seed", "theta_final", "psi_final", "n_reprojections",
                "theta0", "x0"),
               [(exp["level"], exp["n_steps"], cfg["seed"], traj.theta_final,
                 int(traj.psi_path[-1]), len(traj.reprojection_events), traj.theta0,
                 traj.x0)])
    if exp["trace"]:
        rows = zip(range(len(traj.theta_path)), traj.theta_path, traj.x_path,
                   traj.psi_path)
        _write_csv(outdir / "trace_msa.csv", ("step", "theta", "x", "psi"), rows)
    return {"theta_final": traj.theta_final}


def _cmd_run_coupled(cfg, parts, outdir):
    model, schedule, reproj, _ = parts
    exp = cfg["experiment"]
    traj = coupled_msa_run(model, exp["level"], schedule, reproj, exp["n_steps"],
                           cfg["seed"], theta0=exp["theta0"],
                           theta0_bar=exp["theta0_bar"], x0=exp["x0"],
                           x0_bar=exp["x0_bar"], coupling=cfg["model"]["coupling"])
    _write_csv(outdir / "run_coupled.csv",
               ("level", "n_steps", "seed", "coupling", "increment_final",
                "fine_theta_final", "coarse_theta_final", "psi_final",
                "n_reprojections"),
               [(exp["level"], exp["n_steps"], cfg["seed"], traj.coupling,
                 traj.increment_final, float(traj.fine_theta_path[-1]),
                 float(traj.coarse_theta_path[-1]), int(traj.psi_path[-1]),
                 len(traj.reprojection_events))])
    if exp["trace"]:
        rows = zip(range(len(traj.psi_path)), traj.fine_theta_path,
                   traj.coarse_theta_path, traj.fine_x_path, traj.coarse_x_path,
                   traj.psi_path)
        _write_csv(outdir / "trace_coupled.csv",
                   ("step", "theta_fine", "theta_coarse", "x_fine", "x_coarse", "psi"),
                   rows)
    return {"increment_final": traj.increment_final}


def _cmd_schedule(cfg, parts, outdir):
    rates = parts[3]
    exp = cfg["experiment"]
    plan = _block(cfg, "experiment", lambda: schedule_levels(
        exp["epsilon"], rates, n_min=exp["n_min"], c_n=exp["c_n"]))
    _write_json(outdir / "level_plan.json", asdict(plan))
    return {"L": plan.L, "predicted_cost": plan.predicted_cost}


def _cmd_ml_run(cfg, parts, outdir):
    model, _, reproj, rates = parts
    exp = cfg["experiment"]
    plan = _block(cfg, "experiment", lambda: schedule_levels(
        exp["epsilon"], rates, n_min=exp["n_min"], c_n=exp["c_n"]))
    est = ml_estimate(model, plan, cfg["seed"], reproj=reproj, theta0=exp["theta0"],
                      coupling=cfg["model"]["coupling"])
    _write_json(outdir / "ml_estimate.json", {
        "theta_hat": est.theta_hat,
        "level_estimates": list(est.level_estimates),
        "realized_cost": est.realized_cost,
        "seeds": [list(s) for s in est.seeds],
        "plan": asdict(plan),
    })
    return {"theta_hat": est.theta_hat, "realized_cost": est.realized_cost}


def _cmd_mse_cost(cfg, parts, outdir):
    model, _, reproj, rates = parts
    exp = cfg["experiment"]
    res = mse_cost_experiment(model, exp["epsilons"], exp["replicates"], cfg["seed"],
                              rates=rates, n_min=exp["n_min"], c_n=exp["c_n"],
                              reproj=reproj, theta0=exp["theta0"],
                              coupling=cfg["model"]["coupling"])
    _write_csv(outdir / "mse_cost.csv", ("epsilon", "mse", "mean_cost", "stderr_mse"),
               [(r.epsilon, r.mse, r.mean_cost, r.stderr_mse) for r in res.rows])
    return {"cost_slope": res.cost_slope, "mse_ratio_drift": res.mse_ratio_drift(),
            "theta_reference": res.theta_reference}


_DISPATCH = {
    "variance-exact": _cmd_variance_exact,
    "variance-empirical": _cmd_variance_empirical,
    "rate-check": _cmd_rate_check,
    "lemma-check": _cmd_lemma_check,
    "certify": _cmd_certify,
    "run-msa": _cmd_run_msa,
    "run-coupled": _cmd_run_coupled,
    "schedule": _cmd_schedule,
    "ml-run": _cmd_ml_run,
    "mse-cost": _cmd_mse_cost,
}


def run(subcommand: str, config_path: str | None, overrides=()) -> int:
    """Resolve config, execute the subcommand, write manifest and results."""
    config = resolve_config(subcommand, config_path, overrides)
    outdir = Path(config["output"])
    extras = _DISPATCH[subcommand](config, _build_parts(config), outdir)
    _write_json(outdir / "manifest.json", {
        "subcommand": subcommand,
        "tool_version": __version__,
        "seed": config["seed"],
        "config": config,
        "results": extras,
    })
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on bad usage, per the contract
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="mlmsa", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", nargs="?", default=None,
                        help="JSON config file (defaults used when omitted)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--output", default=None, help="override output directory")
    parser.add_argument("--trace", action="store_true",
                        help="same as --experiment.trace=true (run-msa / run-coupled)")
    try:
        args, unknown = parser.parse_known_args(argv)
        overrides = []
        for item in unknown:
            if not item.startswith("--"):
                raise ConfigError(f"unrecognized argument {item!r}")
            overrides.append(_parse_override(item))
        if args.seed is not None:
            overrides.append(("seed", args.seed))
        if args.output is not None:
            overrides.append(("output", args.output))
        if args.trace:
            overrides.append(("experiment.trace", True))
        return run(args.subcommand, args.config, overrides)
    except ConfigError as exc:
        print(f"mlmsa: configuration error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"mlmsa: validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"mlmsa: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
