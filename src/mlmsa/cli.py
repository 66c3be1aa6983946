"""Deterministic command-line front end.

One config file (JSON, strict schema) plus flat ``--key.path=value``
overrides, each overlaid like a config file in argv order (the last value
wins), drive every subcommand.  ``--seed N``, ``--output DIR`` (text in both
spellings) and ``--trace`` spell ``--seed=N``, ``--output=DIR`` and
``--experiment.trace=true``; an abbreviated option is unknown.  A
subcommand accepts, checks and echoes exactly the settings its run reads:
its own ``experiment`` table, ``output``, and the keys below, where
``model.lyap_exponent`` is read by rate-check, lemma-check and certify only:

    variance-exact          model
    variance-empirical      model, schedule but kind, reprojection, seed
    rate-check, certify     model but coupling
    lemma-check             model, rates.zeta
    run-msa                 model but coupling, schedule, reprojection, seed
    run-coupled             model, schedule, reprojection, seed
    schedule                rates
    ml-run, mse-cost        model, reprojection, rates, seed

Any other key is rejected as unknown.  An old manifest may echo keys that
are now unknown, so delete them before re-feeding it.

Each run writes a ``manifest.json`` echoing the fully resolved
configuration, tool version, and seed if read (no timestamps), plus
subcommand-specific CSV/JSON results.  All floats are printed with 17
significant digits and JSON keys are emitted in sorted order, so identical
config+seed reruns produce byte-identical files.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
failure.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from dataclasses import asdict, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    NumericalError,
    ParameterError,
    RateParameters,
    ReprojectionFamily,
    StepSchedule,
    _check_bytes,
    level_delta,
)
from .engine import _run_ensemble, _Streams, coupled_msa_run, empirical_clt_variance, msa_run
from .exact import (
    asymptotic_variance,
    certify_drift_minorization,
    lemma_diagnostics,
    rate_diagnostics,
)
from .model import COUPLINGS, FiniteLevelModel, build_model
from .multilevel import ml_estimate, mse_cost_experiment, schedule_levels

OUTPUT_ENV = "MLMSA_OUTPUT_DIR"

# every key of a settings block at its default, and the block's one builder; a key
# a subcommand does not read reaches the builder at its default here
# (model.coupling is read by the commands, not by build_model)
_BLOCKS = {
    "model": ({f.name: f.default for f in fields(FiniteLevelModel) if f.init}
              | {"coupling": "crn"}, lambda coupling, **kw: build_model(**kw)),
    "schedule": ({"kind": "polynomial", "gamma0": 1.0, "rho": 0.75}, StepSchedule),
    "reprojection": (asdict(ReprojectionFamily()), ReprojectionFamily),
    "rates": ({"alpha": 1.0, "beta": 1.0, "zeta": 1.0, "kappa": 0.5}, RateParameters),
}


def _read(block: str, *unread: str) -> dict:
    """The keys of a settings block that a subcommand reads: all but unread."""
    return {k: v for k, v in _BLOCKS[block][0].items() if k not in unread}


_MODEL = _read("model", "lyap_exponent")  # a Lyapunov vector is drawn by three checks only
_RUN = {"schedule": _read("schedule"), "reprojection": _read("reprojection"), "seed": 1234}
_ML = {"model": _MODEL, "reprojection": _read("reprojection"), "rates": _read("rates"),
       "seed": 1234}

# subcommand -> its settings at their defaults, exactly the keys its run reads
# (output, which every run reads, is added by resolve_config)
SUBCOMMANDS = {
    "variance-exact": {"model": _MODEL, "experiment": {"levels": list(range(1, 9))}},
    "variance-empirical": _RUN | {"model": _MODEL, "schedule": _read("schedule", "kind"),
                                  "experiment": {"level": 3, "n_steps": 100000,
                                                 "replicates": 400}},
    "rate-check": {"model": _read("model", "coupling"),
                   "experiment": {"levels": list(range(2, 9)), "theta": 0.7, "r": 1.0}},
    "lemma-check": {"model": _read("model"), "rates": _read("rates", "alpha", "beta", "kappa"),
                    "experiment": {"levels": list(range(2, 9)), "theta": 0.7,
                                   "theta_prime": 0.9, "r": 1.0}},
    "certify": {"model": _read("model", "coupling"),
                "experiment": {"levels": list(range(0, 7)), "theta_min": -2.0,
                               "theta_max": 2.0, "n_theta": 9}},
    "run-msa": _RUN | {"model": _read("model", "lyap_exponent", "coupling"),
                       "experiment": {"level": 4, "n_steps": 10000, "theta0": 0.0,
                                      "x0": None, "trace": False}},
    "run-coupled": _RUN | {"model": _MODEL, "experiment": {
        "level": 4, "n_steps": 10000, "theta0": 0.0, "theta0_bar": 0.0, "x0": None,
        "x0_bar": None, "trace": False}},
    "schedule": {"rates": _read("rates"),
                 "experiment": {"epsilon": 0.1, "c_n": 1.0, "n_min": 100}},
    "ml-run": _ML | {"experiment": {"epsilon": 0.1, "c_n": 1.0, "n_min": 100, "theta0": 0.0}},
    "mse-cost": _ML | {"experiment": {"epsilons": [0.2, 0.1, 0.05], "replicates": 50,
                                      "c_n": 1.0, "n_min": 100, "theta0": 0.0}},
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
    return json.dumps(obj) if isinstance(obj, str) else _fmt(obj)


def _write_text(path: Path, texts) -> None:
    """Write the strings of texts one after another."""
    # the output directory appears with the first result: a failed run leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.writelines(texts)


def _write_json(path: Path, obj) -> None:
    _write_text(path, [_json_text(obj), "\n"])


def _write_csv(path: Path, header, rows) -> None:
    _write_text(path, chain([",".join(header) + "\n"],
                            (",".join(map(_fmt, row)) + "\n" for row in rows)))


def _write_trace(path: Path, header, traj) -> None:
    """Write a recorded run one row per step: the step, theta and x per
    chain, psi; floats as 17 significant digits, the text of _fmt."""
    chains = traj.theta_path.shape[1]
    row = "%d," + "%.17g," * chains + "%d," * chains + "%d\n"
    columns = (np.arange(len(traj.psi_path)), *traj.theta_path.T, *traj.x_path.T, traj.psi_path)
    # formatted 4,096 rows at a time: a trace's text is about six times its paths
    blocks = ("".join(row % r for r in zip(*(c[i:i + 4096].tolist() for c in columns)))
              for i in range(0, len(traj.psi_path), 4096))
    _write_text(path, chain([",".join(header) + "\n"], blocks))


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
    key, eq, raw = text.partition("=")
    if not (key.startswith("--") and eq):
        raise ConfigError(f"argument {text!r} is not an override --key.path=value")
    if key == "--output":  # a directory path, whatever it looks like
        return "output", raw
    try:
        return key[2:], json.loads(raw)
    except ValueError:  # not JSON, or an integer beyond the parser's digit limit
        return key[2:], raw  # bare string value


def resolve_config(subcommand: str, config_path: str | None, overrides=()) -> dict:
    """Defaults <- config file <- command-line overrides, strictly validated."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {tuple(SUBCOMMANDS)}")
    defaults = SUBCOMMANDS[subcommand] | {"output": None}
    file_cfg = {}
    if config_path is not None:
        try:
            file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except ValueError as exc:  # also bad UTF-8 and integers beyond the digit limit
            raise ConfigError(f"config file does not parse as JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        if {"subcommand", "tool_version", "config"} <= set(file_cfg):
            # a manifest re-fed as config: use the resolved config it echoes
            file_cfg = file_cfg["config"]
            if not isinstance(file_cfg, dict):
                raise ConfigError("manifest 'config' must hold a JSON object")
    config = _merge_strict(defaults, file_cfg)
    for dotted, value in overrides:  # --a.b=v overlays the config as {"a": {"b": v}}
        for key in reversed(dotted.split(".")):
            value = {key: value}
        config = _merge_strict(config, value)
    if config["output"] is None:
        config["output"] = os.environ.get(OUTPUT_ENV, "mlmsa-out")
    return _validate_types(config, defaults)


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config key {key!r}: {message}")


def _typed(value, default, key: str = "", what: str = ""):
    """value in the type of its default: a block wants a block, a list a
    list whose elements each take the type of the default's first element,
    a bool a bool, an int an int (not a bool), a float a finite int or
    float, which is returned as a float.  Other defaults set no type."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, dict):
        # a block a config file replaced by a value cannot be patched key by key
        _require(isinstance(value, dict) and value.keys() == default.keys(), key,
                 "must be a block of settings")
        return {k: _typed(value[k], default[k], f"{key}.{k}" if key else k) for k in default}
    if isinstance(default, list):
        _require(isinstance(value, list), key, "must be a list")
        return [_typed(item, default[0], key, f"element {item!r} ") for item in value]
    if isinstance(default, bool):
        _require(isinstance(value, bool), key, f"{what}must be true or false")
    elif isinstance(default, int):
        _require(number and isinstance(value, int), key, f"{what}must be an integer")
    elif isinstance(default, float):
        # also false for nan, and for ints beyond the float range
        _require(number and abs(value) <= sys.float_info.max, key,
                 f"{what}must be a finite number")
        return float(value)  # numpy refuses an int beyond int64 where it wants a float
    return value


def _validate_types(cfg: dict, defaults: dict) -> dict:
    cfg = _typed(cfg, defaults)
    if "coupling" in cfg.get("model", ()):
        _require(cfg["model"]["coupling"] in COUPLINGS, "model.coupling",
                 "must be 'crn' or 'independent'")
    if "seed" in cfg:
        _require(cfg["seed"] >= 0, "seed", "must be a non-negative integer")
    # Path("") is the current directory, so an empty path would write there
    _require(isinstance(cfg["output"], str) and cfg["output"] != "", "output",
             "must be a non-empty directory path")
    return cfg


def _block(name: str, builder):
    """Build a module object from a config block, naming the block on error."""
    try:
        return builder()
    except ParameterError as exc:
        raise ConfigError(f"config block {name!r}: {exc}") from exc


def _build_parts(cfg: dict) -> dict:
    """The module object of each settings block in cfg, keyed by block name;
    the keys cfg does not hold reach the builder at their defaults."""
    return {name: _block(name, lambda: build(**(defaults | cfg[name])))
            for name, (defaults, build) in _BLOCKS.items() if name in cfg}


def _plan(cfg, parts):
    exp = cfg["experiment"]
    return _block("experiment", lambda: schedule_levels(
        exp["epsilon"], parts["rates"], n_min=exp["n_min"], c_n=exp["c_n"]))


def _cmd_variance_exact(cfg, parts, outdir):
    _require(cfg["experiment"]["levels"] != [], "experiment.levels", "must list a level")
    rows, records = [], []
    for l in cfg["experiment"]["levels"]:
        rep = asymptotic_variance(parts["model"], l, coupling=cfg["model"]["coupling"])
        delta = level_delta(rep.level)
        rows.append((rep.level, delta, rep.sigma, rep.t1, rep.t2, rep.theta_star_l, rep.dh_l))
        records.append(asdict(rep) | {"delta": delta})
    _write_csv(outdir / "variance_exact.csv",
               ("l", "delta", "sigma", "t1", "t2", "theta_star_l", "dh_l"), rows)
    _write_json(outdir / "variance_exact.json", records)
    return {}


def _cmd_variance_empirical(cfg, parts, outdir):
    model = parts["model"]
    exp = cfg["experiment"]
    est = empirical_clt_variance(model, exp["level"], parts["schedule"], exp["n_steps"],
                                 exp["replicates"], cfg["seed"], reproj=parts["reprojection"],
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
    model = parts["model"]
    exp = cfg["experiment"]
    diag = rate_diagnostics(model, exp["levels"], exp["theta"], r=exp["r"])
    rows = [(name, l, val) for name, vals in sorted(diag.quantities.items())
            for l, val in zip(diag.levels, vals)]
    _write_csv(outdir / "rate_check.csv", ("quantity", "level", "value"), rows)
    verdicts = _slope_verdicts(diag.slopes, -model.beta0, 0.3)
    _write_json(outdir / "rate_verdicts.json", verdicts)
    return {"all_pass": all(v["pass"] for v in verdicts.values())}


def _cmd_lemma_check(cfg, parts, outdir):
    model = parts["model"]
    exp = cfg["experiment"]
    diag = lemma_diagnostics(model, exp["levels"], exp["theta"],
                             exp["theta_prime"], zeta=parts["rates"].zeta, r=exp["r"],
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
    exp = cfg["experiment"]
    _require(exp["n_theta"] >= 1, "experiment.n_theta", "must be a positive integer")
    # the grid is built here; certify_drift_minorization counts what it holds
    _check_bytes(f"a theta grid of n_theta={exp['n_theta']}", 8 * exp["n_theta"])
    grid = np.linspace(exp["theta_min"], exp["theta_max"], exp["n_theta"])
    cert = certify_drift_minorization(parts["model"], exp["levels"], grid)
    _write_json(outdir / "certificate.json", asdict(cert))
    return {"lambda_drift": cert.lambda_drift}


def _single_run(cfg, parts, coupled):
    """The command's one run, recorded by msa_run or coupled_msa_run under
    --trace only: its final theta and start states per chain, fine first, its
    final psi (up 1 per reprojection), and the recorded run or None."""
    exp = cfg["experiment"]
    run = (parts["model"], exp["level"], parts["schedule"], parts["reprojection"], exp["n_steps"])
    starts = {k: v for k, v in exp.items() if k in ("theta0", "x0", "theta0_bar", "x0_bar")}
    starts |= {"coupling": cfg["model"]["coupling"]} if coupled else {}
    if exp["trace"]:
        traj = (coupled_msa_run if coupled else msa_run)(*run, seed=cfg["seed"], **starts)
        return traj.theta_path[-1], traj.x_path[0], traj.psi_path[-1], traj
    state, _ = _run_ensemble(*run, _Streams([cfg["seed"]]), coupled=coupled, **starts)
    return state.theta[:, 0], state.x0[:, 0], state.psi[0], None


def _cmd_run_msa(cfg, parts, outdir):
    exp = cfg["experiment"]
    (theta,), (x0,), psi, traj = _single_run(cfg, parts, coupled=False)
    _write_csv(outdir / "run_msa.csv",
               ("level", "n_steps", "seed", "theta_final", "psi_final", "n_reprojections",
                "theta0", "x0"),
               [(exp["level"], exp["n_steps"], cfg["seed"], theta, psi, psi, exp["theta0"], x0)])
    if traj is not None:
        _write_trace(outdir / "trace_msa.csv", ("step", "theta", "x", "psi"), traj)
    return {"theta_final": float(theta)}


def _cmd_run_coupled(cfg, parts, outdir):
    exp = cfg["experiment"]
    (fine, coarse), _, psi, traj = _single_run(cfg, parts, coupled=True)
    _write_csv(outdir / "run_coupled.csv",
               ("level", "n_steps", "seed", "coupling", "increment_final",
                "fine_theta_final", "coarse_theta_final", "psi_final",
                "n_reprojections"),
               [(exp["level"], exp["n_steps"], cfg["seed"], cfg["model"]["coupling"],
                 fine - coarse, fine, coarse, psi, psi)])
    if traj is not None:
        _write_trace(outdir / "trace_coupled.csv",
                     ("step", "theta_fine", "theta_coarse", "x_fine", "x_coarse", "psi"), traj)
    return {"increment_final": fine - coarse}


def _cmd_schedule(cfg, parts, outdir):
    plan = _plan(cfg, parts)
    _write_json(outdir / "level_plan.json", asdict(plan))
    return {"L": plan.L, "predicted_cost": plan.predicted_cost}


def _cmd_ml_run(cfg, parts, outdir):
    plan = _plan(cfg, parts)
    est = ml_estimate(parts["model"], plan, cfg["seed"], reproj=parts["reprojection"],
                      theta0=cfg["experiment"]["theta0"], coupling=cfg["model"]["coupling"])
    _write_json(outdir / "ml_estimate.json", {
        "theta_hat": est.theta_hat,
        "level_estimates": list(est.level_estimates),
        "realized_cost": est.realized_cost,
        "seeds": [list(s) for s in est.seeds],
        "plan": asdict(plan),
    })
    return {"theta_hat": est.theta_hat, "realized_cost": est.realized_cost}


def _cmd_mse_cost(cfg, parts, outdir):
    exp = cfg["experiment"]
    res = mse_cost_experiment(parts["model"], exp["epsilons"], exp["replicates"],
                              cfg["seed"], rates=parts["rates"], n_min=exp["n_min"],
                              c_n=exp["c_n"], reproj=parts["reprojection"],
                              theta0=exp["theta0"], coupling=cfg["model"]["coupling"])
    _write_csv(outdir / "mse_cost.csv", ("epsilon", "mse", "mean_cost", "stderr_mse"),
               [(r.epsilon, r.mse, r.mean_cost, r.stderr_mse) for r in res.rows])
    return {"cost_slope": res.cost_slope, "mse_ratio_drift": res.mse_ratio_drift(),
            "theta_reference": res.theta_reference}


# subcommand -> the _cmd_ function of that name
_DISPATCH = {name: globals()["_cmd_" + name.replace("-", "_")] for name in SUBCOMMANDS}


def run(subcommand: str, config_path: str | None, overrides=()) -> int:
    """Resolve config, execute the subcommand, write manifest and results."""
    config = resolve_config(subcommand, config_path, overrides)
    outdir = Path(config["output"])
    extras = _DISPATCH[subcommand](config, _build_parts(config), outdir)
    seed = {"seed": config["seed"]} if "seed" in config else {}
    _write_json(outdir / "manifest.json", {
        "subcommand": subcommand,
        "tool_version": __version__,
        "config": config,
        "results": extras,
    } | seed)
    return 0


def main(argv=None) -> int:
    words, overrides = [], []  # the subcommand and config file; the options in order
    items = iter(sys.argv[1:] if argv is None else argv)
    try:
        for item in items:
            if item in ("-h", "--help"):
                print("usage: mlmsa <subcommand> [config.json] [--seed N] [--output DIR] "
                      f"[--trace] [--key.path=value ...]\n\n{__doc__}")
                return 0
            if item in ("--seed", "--output"):
                value = next(items, None)
                if value is None or value.startswith("-"):
                    raise ConfigError(f"option {item} needs a value")
                item = f"{item}={value}"
            if item == "--trace":
                overrides.append(("experiment.trace", True))
            elif item.startswith("-"):
                overrides.append(_parse_override(item))
            else:
                words.append(item)
        if not 1 <= len(words) <= 2:
            raise ConfigError(f"expected a subcommand and at most one config file, got {words}")
        return run(words[0], words[1] if len(words) == 2 else None, overrides)
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
