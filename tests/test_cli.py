import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlmsa import cli, core
from mlmsa.core import NumericalError, ParameterError, ReprojectionFamily, StepSchedule
from mlmsa.engine import Trajectory
from mlmsa.model import build_model

from reference import coupled_sample_step, drift_term


def run_cli(*argv):
    return cli.main(list(argv))


def hash_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


FAST_ARGS = {
    "variance-exact": ["--experiment.levels=[1,2]"],
    "variance-empirical": ["--experiment.n_steps=1500",
                           "--experiment.replicates=100",
                           "--experiment.level=2"],
    "rate-check": ["--experiment.levels=[2,3,4,5]"],
    "lemma-check": ["--experiment.levels=[2,3,4,5]"],
    "certify": ["--experiment.levels=[0,1,2]", "--experiment.n_theta=3"],
    "run-msa": ["--experiment.n_steps=500"],
    "run-coupled": ["--experiment.n_steps=500"],
    "schedule": ["--experiment.epsilon=0.25"],
    "ml-run": ["--experiment.epsilon=0.5", "--experiment.n_min=20"],
    "mse-cost": ["--experiment.epsilons=[0.5,0.4,0.3]",
                 "--experiment.replicates=50", "--experiment.n_min=20"],
}

EXPECTED_FILES = {
    "variance-exact": ["variance_exact.csv"],
    "variance-empirical": ["variance_empirical.csv"],
    "rate-check": ["rate_check.csv", "rate_verdicts.json"],
    "lemma-check": ["lemma_check.csv", "lemma_verdicts.json"],
    "certify": ["certificate.json"],
    "run-msa": ["run_msa.csv"],
    "run-coupled": ["run_coupled.csv"],
    "schedule": ["level_plan.json"],
    "ml-run": ["ml_estimate.json"],
    "mse-cost": ["mse_cost.csv"],
}


def _exp(*names):
    return {f"experiment.{name}" for name in names}


_MODEL = {"model.m", "model.beta0", "model.phi_choice", "model.bias_choice"}
_COUPLING, _LYAP = {"model.coupling"}, {"model.lyap_exponent"}
_SCHEDULE = {"schedule.kind", "schedule.gamma0", "schedule.rho"}
_REPROJECTION = {"reprojection.r0", "reprojection.growth"}
_RATES = {"rates.alpha", "rates.beta", "rates.zeta", "rates.kappa"}

# the settings each subcommand's run reads; the manifest echoes these and
# output, and a top-level seed where seed is one of them
KEYS = {
    "variance-exact": _MODEL | _COUPLING | _exp("levels"),
    "variance-empirical": _MODEL | _COUPLING | (_SCHEDULE - {"schedule.kind"}) | _REPROJECTION
    | {"seed"} | _exp("level", "n_steps", "replicates"),
    "rate-check": _MODEL | _LYAP | _exp("levels", "theta", "r"),
    "lemma-check": _MODEL | _LYAP | _COUPLING | {"rates.zeta"}
    | _exp("levels", "theta", "theta_prime", "r"),
    "certify": _MODEL | _LYAP | _exp("levels", "theta_min", "theta_max", "n_theta"),
    "run-msa": _MODEL | _SCHEDULE | _REPROJECTION | {"seed"}
    | _exp("level", "n_steps", "theta0", "x0", "trace"),
    "run-coupled": _MODEL | _COUPLING | _SCHEDULE | _REPROJECTION | {"seed"}
    | _exp("level", "n_steps", "theta0", "theta0_bar", "x0", "x0_bar", "trace"),
    "schedule": _RATES | _exp("epsilon", "c_n", "n_min"),
    "ml-run": _MODEL | _COUPLING | _REPROJECTION | _RATES | {"seed"}
    | _exp("epsilon", "c_n", "n_min", "theta0"),
    "mse-cost": _MODEL | _COUPLING | _REPROJECTION | _RATES | {"seed"}
    | _exp("epsilons", "replicates", "c_n", "n_min", "theta0"),
}
# the settings blocks each subcommand builds
BLOCKS = {sub: {key.split(".")[0] for key in keys} - {"experiment", "seed"}
          for sub, keys in KEYS.items()}


def _leaf_keys(cfg: dict, prefix: str = ""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@pytest.mark.parametrize("subcommand", sorted(FAST_ARGS))
def test_subcommand_writes_manifest_and_results(tmp_path, subcommand):
    out = tmp_path / "run"
    rc = run_cli(subcommand, "--output", str(out), *FAST_ARGS[subcommand])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert "manifest.json" in names
    for expected in EXPECTED_FILES[subcommand]:
        assert expected in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == subcommand
    assert set(_leaf_keys(manifest["config"])) == KEYS[subcommand] | {"output"}
    assert manifest.get("seed") == (1234 if "seed" in KEYS[subcommand] else None)
    if "model" in BLOCKS[subcommand]:
        assert manifest["config"]["model"]["m"] == 32


def test_csv_format_contract(tmp_path):
    out = tmp_path / "v"
    run_cli("variance-exact", "--output", str(out), "--experiment.levels=[1,2]")
    text = (out / "variance_exact.csv").read_text()
    lines = text.split("\n")
    assert lines[0] == "l,delta,sigma,t1,t2,theta_star_l,dh_l"
    assert len(lines) == 4 and lines[3] == ""  # header + 2 rows + trailing LF
    assert "\r" not in text


def test_csv_writer_holds_a_block_of_rows_not_the_whole_text(tmp_path):
    # 50,000 trace rows are about 7 MiB of text; the writer formats and
    # writes a block of rows at a time
    n = 50_000
    rows = zip(range(n), np.linspace(-1.0, 1.0, n), np.arange(n) % 32, np.arange(n) // 1000)
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "trace.csv", ("step", "theta", "x", "psi"), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    lines = (tmp_path / "trace.csv").read_text().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    assert lines[n] == f"{n - 1},1,{(n - 1) % 32},{(n - 1) // 1000}"


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rates": {"kappa": 0.25}, "seed": 9,
                               "experiment": {"epsilon": 0.5, "n_min": 20}}))
    out = tmp_path / "out"
    rc = run_cli("ml-run", str(cfg), "--output", str(out),
                 "--experiment.epsilon=0.25")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rates"]["kappa"] == 0.25  # from file
    assert manifest["config"]["experiment"]["epsilon"] == 0.25  # override wins
    assert manifest["seed"] == 9


def test_override_whose_value_holds_a_space(tmp_path):
    # argparse once read such an argument as the config path when no file was
    # given, and as an override when one was
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    for name, config in (("defaults", ()), ("config-file", (str(cfg),))):
        out = tmp_path / name
        assert run_cli("mse-cost", *config, "--experiment.epsilons=[0.4, 0.2, 0.1]",
                       "--output", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment"]["epsilons"] == [0.4, 0.2, 0.1]


def test_unknown_key_rejected_before_any_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modell": {"m": 16}}))
    out = tmp_path / "never"
    rc = run_cli("schedule", str(cfg), "--output", str(out))
    assert rc == 1
    assert not out.exists()  # validation precedes all computation and output


def test_misspelled_override_rejected(tmp_path):
    rc = run_cli("schedule", "--output", str(tmp_path / "x"),
                 "--experiment.epsilonn=0.1")
    assert rc == 1


def test_invalid_value_names_key_and_condition(tmp_path, capsys):
    rc = run_cli("schedule", "--output", str(tmp_path / "x"),
                 "--experiment.epsilon=2.0")
    assert rc == 1
    err = capsys.readouterr().err
    assert "experiment" in err and "epsilon" in err


def test_validation_error_exit_code_for_bad_schedule(tmp_path):
    rc = run_cli("run-msa", "--output", str(tmp_path / "x"),
                 "--schedule.rho=1.0", "--experiment.n_steps=10")
    assert rc == 1


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(cfg, parts, outdir):
        raise NumericalError("synthetic failure")
    monkeypatch.setitem(cli._DISPATCH, "schedule", boom)
    rc = run_cli("schedule", "--output", str(tmp_path / "x"))
    assert rc == 2


def test_mse_cost_with_a_zero_mse_is_a_numerical_error(tmp_path, capsys):
    # a set of radius 1e-300 resets every replicate to theta0 = 0 on every
    # step, and 0 is the default model's limit root: every MSE is 0
    out = tmp_path / "zero"
    assert run_cli("mse-cost", "--model.m=8", "--reprojection.r0=1e-300",
                   "--reprojection.growth=1e-300", "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: numerical failure") and "MSE at epsilon=0.2 is 0" in err
    assert not (out / "mse_cost.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "rep"
    args = ["run-coupled", "--output", str(out), "--experiment.n_steps=800", "--trace"]
    assert run_cli(*args) == 0
    first = hash_dir(out)
    assert run_cli(*args) == 0
    assert hash_dir(out) == first


def test_manifest_roundtrip_reproduces_outputs(tmp_path):
    out1 = tmp_path / "a"
    assert run_cli("schedule", "--output", str(out1),
                   "--experiment.epsilon=0.25") == 0
    manifest = out1 / "manifest.json"
    out2 = tmp_path / "b"
    assert run_cli("schedule", str(manifest), "--output", str(out2)) == 0
    assert (out1 / "level_plan.json").read_bytes() == \
        (out2 / "level_plan.json").read_bytes()


@pytest.mark.parametrize("subcommand, path, value", [
    ("run-msa", "schedule.n_total", 100000),
    ("lemma-check", "experiment.zeta", 1.0),
    ("ml-run", "schedule", {"kind": "polynomial", "gamma0": 1.0, "rho": 0.75}),
], ids=["schedule-n_total-100000", "experiment-zeta-1.0", "ml-run-schedule-block"])
def test_manifest_echoing_a_removed_key_is_rejected(tmp_path, capsys, subcommand, path, value):
    # manifests written while the run length, lemma-check's zeta and the
    # blocks a subcommand does not read were also config keys echo them;
    # re-fed as a config they are unknown keys
    config = cli.resolve_config(subcommand, None, [("output", str(tmp_path / "never"))])
    block, _, key = path.partition(".")
    if key:
        config[block][key] = value
    else:
        config[block] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"subcommand": subcommand, "tool_version": "0",
                                    "config": config, "results": {}}))
    assert run_cli(subcommand, str(manifest)) == 1
    assert f"unknown config key '{path}'" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("config", [5, [1]], ids=["number", "list"])
def test_manifest_config_that_is_not_an_object_is_a_configuration_error(tmp_path, capsys,
                                                                         config):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"subcommand": "schedule", "tool_version": "0",
                                    "config": config}))
    out = tmp_path / "never"
    assert run_cli("schedule", str(manifest), "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error") and "'config'" in err
    assert not out.exists()


@pytest.mark.parametrize("text", [b'{"seed": 1' + b"1" * 5000 + b"}", b'{"seed": 1\xff}'],
                         ids=["integer-beyond-the-digit-limit", "bad-utf-8"])
def test_config_file_that_does_not_parse_is_a_configuration_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    out = tmp_path / "never"
    assert run_cli("schedule", str(cfg), "--output", str(out)) == 1
    assert "does not parse as JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [(None, "config file not found: "),
                                           ("[1, 2]", "config file must hold a JSON object")],
                         ids=["missing", "json-list"])
def test_config_file_that_is_missing_or_not_an_object_is_a_configuration_error(
        tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "never"
    assert run_cli("schedule", str(cfg), "--output", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"mlmsa: configuration error: {message}")
    assert not out.exists()


def test_unknown_subcommand_is_a_configuration_error(tmp_path):
    # resolve_config, under run, is the one subcommand check: it raises the
    # ConfigError that main reports with exit code 1
    out = tmp_path / "never"
    with pytest.raises(cli.ConfigError, match="unknown subcommand 'bogus'; choose from"):
        cli.run("bogus", None, [("output", str(out))])
    assert not out.exists()


_UNREAD = [
    (("ml-run", "--schedule.rho=1.0"), "schedule"),
    (("ml-run", "--schedule.kind=constant", "--schedule.gamma0=5"), "schedule"),
    (("variance-exact", "--reprojection.r0=-1"), "reprojection"),
    (("variance-exact", "--seed=99"), "seed"),
    (("variance-exact", "--model.lyap_exponent=0.25"), "model.lyap_exponent"),
    (("variance-empirical", "--model.lyap_exponent=0.25"), "model.lyap_exponent"),
    (("variance-empirical", "--schedule.kind=polynomial"), "schedule.kind"),
    (("rate-check", "--seed=99"), "seed"),
    (("rate-check", "--model.coupling=independent"), "model.coupling"),
    (("certify", "--seed=99"), "seed"),
    (("certify", "--model.coupling=independent"), "model.coupling"),
    (("lemma-check", "--seed=99"), "seed"),
    (("lemma-check", "--rates.alpha=-1"), "rates.alpha"),
    (("lemma-check", "--rates.beta=0.5"), "rates.beta"),
    (("lemma-check", "--rates.kappa=0.25"), "rates.kappa"),
    (("run-msa", "--model.coupling=independent"), "model.coupling"),
    (("run-msa", "--model.lyap_exponent=0.25"), "model.lyap_exponent"),
    (("run-coupled", "--model.lyap_exponent=0.25"), "model.lyap_exponent"),
    (("ml-run", "--model.lyap_exponent=0.25"), "model.lyap_exponent"),
    (("mse-cost", "--model.lyap_exponent=0.25"), "model.lyap_exponent"),
    (("schedule", "--seed=99"), "seed"),
]


@pytest.mark.parametrize("argv, key", _UNREAD, ids=[
    "ml-run-rho", "ml-run-constant-step", "variance-exact-r0"] + [
    f"{argv[0]}-{key}" for argv, key in _UNREAD[3:]])
def test_block_the_subcommand_does_not_read_is_an_unknown_key(tmp_path, capsys, argv, key):
    # a block, or a single key, that the subcommand's run never reads
    out = tmp_path / "never"
    assert run_cli(*argv, "--output", str(out)) == 1
    assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


# a second valid value of every settable key, keyed by dotted path
_ALTERNATIVE = {
    "seed": 99, "model.m": 10, "model.beta0": 0.5, "model.lyap_exponent": 0.25,
    "model.phi_choice": "zero", "model.bias_choice": "shifted-cosine",
    "model.coupling": "independent",
    "schedule.kind": "constant", "schedule.gamma0": 0.5, "schedule.rho": 0.6,
    "reprojection.r0": 0.2, "reprojection.growth": 0.2,
    "rates.alpha": 0.5, "rates.beta": 0.75, "rates.zeta": 0.75, "rates.kappa": 0.25,
    "experiment.levels": [1, 2, 3, 4], "experiment.level": 3, "experiment.n_steps": 250,
    "experiment.replicates": 120, "experiment.theta": 0.5, "experiment.theta_prime": 0.8,
    "experiment.r": 0.5, "experiment.theta_min": -1.0, "experiment.theta_max": 1.0,
    "experiment.n_theta": 4, "experiment.theta0": 0.005, "experiment.theta0_bar": 0.005,
    "experiment.x0": 3, "experiment.x0_bar": 3, "experiment.trace": True,
    "experiment.epsilon": 0.2, "experiment.epsilons": [0.45, 0.35, 0.25],
    "experiment.c_n": 2.0, "experiment.n_min": 12,
}
# small runs in which every key matters: tight constraint sets reproject
# often, so reprojection.growth shows, and level budgets lie above n_min
_TIGHT = ("--reprojection.r0=0.01", "--reprojection.growth=0.01")
_PROBE_ARGS = {
    "variance-exact": ("--model.m=8", "--experiment.levels=[1,2]"),
    "variance-empirical": ("--model.m=8", "--experiment.n_steps=300",
                           "--experiment.replicates=100", "--experiment.level=2",
                           "--reprojection.r0=0.1", "--reprojection.growth=0.1"),
    "rate-check": ("--model.m=8", "--experiment.levels=[2,3,4,5]"),
    "lemma-check": ("--model.m=8", "--experiment.levels=[2,3,4,5]"),
    "certify": ("--model.m=8", "--experiment.levels=[0,1,2]", "--experiment.n_theta=3"),
    "run-msa": ("--model.m=8", "--experiment.n_steps=200") + _TIGHT,
    "run-coupled": ("--model.m=8", "--experiment.n_steps=200") + _TIGHT,
    "schedule": ("--experiment.epsilon=0.25", "--experiment.n_min=8"),
    "ml-run": ("--model.m=8", "--experiment.epsilon=0.25", "--experiment.n_min=8") + _TIGHT,
    "mse-cost": ("--model.m=8", "--experiment.epsilons=[0.5,0.4,0.3]", "--experiment.n_min=8",
                 "--experiment.c_n=4") + _TIGHT,
}


def _results(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


def test_every_setting_a_subcommand_accepts_changes_its_results(tmp_path):
    # the keys come from the schema itself, so a key added without effect fails
    idle = []
    for sub, args in _PROBE_ARGS.items():
        assert run_cli(sub, *args, "--output", str(tmp_path / sub)) == 0
        base = _results(tmp_path / sub)
        for key in _leaf_keys(cli.resolve_config(sub, None)):
            if key == "output":
                continue
            out = tmp_path / f"{sub}-{key}"
            value = json.dumps(_ALTERNATIVE[key])
            with warnings.catch_warnings():  # tight sets discard replicates
                warnings.simplefilter("ignore")
                rc = run_cli(sub, *args, f"--{key}={value}", "--output", str(out))
            if rc != 0 or _results(out) == base:
                idle.append((sub, key))
    assert idle == []


@pytest.mark.parametrize("argv", [
    ("run-msa", "--experiment.n_steps=1000000000000000"),
    # the byte count has more digits than Python prints for an int
    pytest.param(("run-msa", "--experiment.n_steps=" + "9" * 4299), id="run-msa-4299-digits"),
    ("run-coupled", "--experiment.n_steps=100000000"),
    ("ml-run", "--experiment.c_n=1e12"),
    ("mse-cost", "--experiment.c_n=1e12"),
    ("certify", "--experiment.n_theta=1000000000000"),
    # admitted when only the grid and the kernel stack were counted, 8 * 1000 *
    # 7169 bytes (about 57 MB), of a certificate that holds about 390 MB
    ("certify", "--experiment.n_theta=1000"),
    ("certify", "--model.m=1000000"),
    ("rate-check", "--model.m=1000000"),
    ("lemma-check", "--model.m=1000000"),
    ("variance-exact", "--model.m=1000000"),
    # admitted when the lane loop did not count its move table: five levels
    # at about 100 bytes per state and level
    ("ml-run", f"--model.m={2 ** 20}"),
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_input_that_sizes_arrays_beyond_the_byte_budget_is_a_validation_error(
        tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert run_cli(*argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "-byte budget" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, fragment", [
    (("variance-empirical", "--experiment.replicates=100000000000"), "R=100000000000 "),
    (("mse-cost", "--experiment.replicates=1000000"), "R=1000000 "),
    # one step and one chunk fit the budget; the generators and columns do not
    (("variance-empirical", "--experiment.n_steps=1", "--experiment.replicates=16000000"),
     "R=16000000 "),
    # each of the 15 lanes fits alone; their 300,000 generators together do not
    (("mse-cost", "--experiment.replicates=20000"), "step vectors of 15 runs"),
], ids=["variance-empirical-100000000000", "mse-cost-1000000",
        "variance-empirical-16000000-one-step", "mse-cost-20000-lanes"])
def test_replicate_count_beyond_the_byte_budget_is_refused_before_any_generator(
        tmp_path, capsys, monkeypatch, argv, fragment):
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built before the size check")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "SeedSequence", no_generator)
    out = tmp_path / "never"
    assert run_cli(*argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["mse-cost", "variance-empirical"])
def test_replicate_count_beyond_the_index_range_is_a_validation_error(tmp_path, capsys,
                                                                      subcommand):
    out = tmp_path / "never"
    assert run_cli(subcommand, f"--experiment.replicates={10 ** 400}", "--output", str(out)) == 1
    assert capsys.readouterr().err.startswith("mlmsa: validation error")
    assert not out.exists()


def test_schedule_allocates_nothing_its_budgets_size(tmp_path):
    assert run_cli("schedule", "--experiment.c_n=1e12", "--output", str(tmp_path / "p")) == 0


@pytest.mark.parametrize("n_min", [0, -3])
def test_level_budget_floor_below_one_is_a_configuration_error(tmp_path, capsys, n_min):
    out = tmp_path / "never"
    assert run_cli("ml-run", f"--experiment.n_min={n_min}", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error: config block 'experiment': ")
    assert f"n_min must be a positive integer, got {n_min}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("schedule", "--experiment.epsilon=1e-200"),
    ("schedule", "--experiment.c_n=1e308"),
    ("ml-run", "--experiment.epsilon=1e-200"),
    ("ml-run", "--experiment.c_n=1e308"),
])
def test_level_budget_beyond_the_float_range_is_a_configuration_error(tmp_path, capsys,
                                                                     argv):
    out = tmp_path / "never"
    assert run_cli(*argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error") and "'experiment'" in err
    assert "epsilon" in err and "c_n" in err
    assert not out.exists()


def test_mse_cost_rejects_a_level_budget_beyond_the_float_range(tmp_path, capsys):
    out = tmp_path / "never"
    assert run_cli("mse-cost", "--experiment.epsilons=[1e-200,1e-201,1e-202]",
                   "--output", str(out)) == 1
    assert "epsilon=1e-200" in capsys.readouterr().err
    assert not out.exists()


def test_lemma_check_reads_zeta_from_the_rates_block(tmp_path, capsys):
    assert run_cli("lemma-check", "--experiment.zeta=0.5", "--output", str(tmp_path / "a")) == 1
    assert "unknown config key 'experiment.zeta'" in capsys.readouterr().err
    assert run_cli("lemma-check", "--rates.zeta=0.4", "--output", str(tmp_path / "b")) == 1
    assert capsys.readouterr().err.startswith("mlmsa: configuration error")
    out = tmp_path / "c"
    assert run_cli("lemma-check", "--rates.zeta=0.75", "--experiment.levels=[2,3,4,5]",
                   "--output", str(out)) == 0
    q = {}
    for line in (out / "lemma_check.csv").read_text().split()[1:]:
        name, _, value = line.split(",")
        q.setdefault(name, []).append(float(value))
    assert q["holder_ratio"] == [gap / abs(0.7 - 0.9) ** 0.75 for gap in q["theta_gap"]]


@pytest.mark.parametrize("subcommand", ["rate-check", "lemma-check"])
@pytest.mark.parametrize("r", ["0", "2"])
def test_lyapunov_power_outside_the_unit_interval_is_a_validation_error(tmp_path, capsys,
                                                                       subcommand, r):
    out = tmp_path / "never"
    assert run_cli(subcommand, f"--experiment.r={r}", "--experiment.levels=[2,3,4,5]",
                   "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "r must lie in (0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("rate-check", "--experiment.levels=[2,2,2,2]"),
    ("lemma-check", "--experiment.levels=[3,3,3,3]"),
    ("rate-check", "--experiment.levels=[2,3,4,4]"),
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_slope_fit_through_fewer_than_four_distinct_levels_is_a_validation_error(
        tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert run_cli(*argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "4 distinct levels" in err
    assert not out.exists()


def test_trace_flag_writes_trajectory(tmp_path):
    out = tmp_path / "t"
    run_cli("run-msa", "--output", str(out), "--experiment.n_steps=50", "--trace")
    lines = (out / "trace_msa.csv").read_text().strip().split("\n")
    assert lines[0] == "step,theta,x,psi"
    assert len(lines) == 52  # header + n_steps + 1 states

    out2 = tmp_path / "t2"
    run_cli("run-msa", "--output", str(out2), "--experiment.n_steps=50")
    assert not (out2 / "trace_msa.csv").exists()


TIGHT_FAMILY = ("--reprojection.r0=0.05", "--reprojection.growth=0.01")


@pytest.mark.parametrize("command, extra, resets", [
    ("run-msa", (), False),
    ("run-msa", TIGHT_FAMILY, True),
    ("run-msa", ("--experiment.x0=3", "--experiment.n_steps=777"), False),
    ("run-coupled", (), False),
    ("run-coupled", TIGHT_FAMILY, True),
    ("run-coupled", ("--model.coupling=independent", "--experiment.x0=1",
                     "--experiment.x0_bar=5", *TIGHT_FAMILY), True),
], ids=["defaults", "tight", "x0-777-steps", "coupled-defaults", "coupled-tight",
        "coupled-independent-x0-1-5"])
def test_untraced_run_msa_writes_the_traced_row(tmp_path, command, extra, resets):
    # untraced, a run command steps the lane loop and reads its final state;
    # traced, it records the run through msa_run or coupled_msa_run: the
    # rows must be the same
    rows, name = [], command.replace("-", "_") + ".csv"
    for trace in ((), ("--trace",)):
        out = tmp_path / ("traced" if trace else "untraced")
        assert run_cli(command, "--output", str(out), *extra, *trace) == 0
        rows.append((out / name).read_bytes())
    assert rows[0] == rows[1]
    header, row = rows[0].decode().splitlines()
    assert (int(dict(zip(header.split(","), row.split(",")))["n_reprojections"]) > 0) == resets


def test_untraced_run_coupled_records_no_paths(tmp_path, monkeypatch, capsys):
    # 30,000 steps need about 0.45 MB untraced and 1.4 MB with the paths
    # (theta and x per chain, psi): under a 1 MiB budget only --trace is refused
    monkeypatch.setattr(core, "_BYTE_BUDGET", 2 ** 20)
    argv = ("run-coupled", "--experiment.n_steps=30000")
    assert run_cli(*argv, "--output", str(tmp_path / "untraced")) == 0
    out = tmp_path / "traced"
    assert run_cli(*argv, "--output", str(out), "--trace") == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "needs 1,441,237 bytes" in err
    assert not out.exists()


@pytest.mark.parametrize("family", [(), TIGHT_FAMILY], ids=["default", "tight"])
@pytest.mark.parametrize("command, run, name", [("run-msa", "msa_run", "trace_msa.csv"),
                                               ("run-coupled", "coupled_msa_run",
                                                "trace_coupled.csv")])
def test_trace_rows_are_the_fmt_text_of_the_recorded_run(tmp_path, monkeypatch, family,
                                                          command, run, name):
    recorded, record = [], getattr(cli, run)
    monkeypatch.setattr(cli, run, lambda *a, **k: recorded.append(record(*a, **k)) or recorded[0])
    out = tmp_path / "t"
    assert run_cli(command, "--output", str(out), "--experiment.n_steps=3000", "--trace",
                   *family) == 0
    traj, = recorded
    assert (traj.psi_path[-1] >= 10) == bool(family)  # the tight family reprojects often
    rows = zip(range(3001), *traj.theta_path.T, *traj.x_path.T, traj.psi_path)
    text = (out / name).read_text().split("\n", 1)[1]
    assert text == "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)


def test_acceptance_that_overflows_replays_the_clamped_procedure(tmp_path):
    # from theta0 = 9000, theta0_bar = -9000 and the pair (3, 3), step 1
    # proposes x - 1 and the fine chain's theta * increment is about 2,600,
    # where exp overflows to inf: the move is accepted, as the replay's
    # exp(min(p, 0)) = 1 accepts it, and nothing warns
    out = tmp_path / "t"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("run-coupled", "--model.m=8", "--reprojection.r0=10000",
                       "--experiment.theta0=9000", "--experiment.theta0_bar=-9000",
                       "--experiment.x0=3", "--experiment.x0_bar=3", "--trace",
                       "--output", str(out)) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    model, l, rng = build_model(m=8), 4, np.random.default_rng(1234)
    family = ReprojectionFamily(10_000.0, 1.0)
    starts = (9000.0, -9000.0, 3, 3)
    th, tb, x, xb, psi = *starts, 0
    rows = [(0, th, tb, x, xb, psi)]
    for k, g in enumerate(StepSchedule("polynomial", 1.0, 0.75).step_sizes(10_000), 1):
        xn, xbn = coupled_sample_step(model, l, th, tb, x, xb, rng)
        half = th + g * drift_term(model, l, th, xn)
        half_bar = tb + g * drift_term(model, l - 1, tb, xbn)
        if family.contains(half, psi) and family.contains(half_bar, psi):
            th, tb, x, xb = half, half_bar, xn, xbn
        else:
            th, tb, x, xb, psi = *starts, psi + 1
        rows.append((k, th, tb, x, xb, psi))
    assert rows[1][3] == 2  # the move whose acceptance overflowed
    text = (out / "trace_coupled.csv").read_text().split("\n", 1)[1]
    assert text == "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)


def test_in_process_calls_hold_no_growing_memory(tmp_path):
    # each call builds a fresh model, which holds what was derived from it;
    # once a call returns, nothing keeps its model
    for argv in (
        # level statistics, 4 MB a call at m = 131072
        ("run-coupled", "--model.m=131072", "--experiment.n_steps=10"),
        # level roots with their statistics, 9 MB a call at m = 131072
        ("mse-cost", "--model.m=131072", "--experiment.c_n=0.01", "--experiment.n_min=1"),
        # Poisson solutions and coupled stationary laws, 0.9 MB a call at m = 120
        ("variance-exact", "--model.m=120", "--experiment.levels=[1,2,3,4,5,6,7,8]"),
    ):
        outdir = tmp_path / argv[0]
        assert run_cli(*argv, "--output", str(outdir / "warm")) == 0
        gc.collect()
        tracemalloc.start()
        try:
            held = []
            for i in range(3):
                assert run_cli(*argv, "--output", str(outdir / str(i))) == 0
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert max(held) < 2 ** 18, (argv[0], held)


def test_trace_writer_holds_a_block_of_rows_not_the_whole_text(tmp_path):
    # 50,000 coupled rows are about 2.6 MiB of text
    n = 50_000
    traj = Trajectory(np.linspace(-1.0, 1.0, 2 * n).reshape(n, 2),
                      (np.arange(2 * n) % 32).reshape(n, 2), np.arange(n) // 1000)
    tracemalloc.start()
    try:
        cli._write_trace(tmp_path / "trace.csv", ("step", "a", "b", "c", "d", "psi"), traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21
    lines = (tmp_path / "trace.csv").read_text().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    assert lines[n] == ",".join(map(cli._fmt, (n - 1, *traj.theta_path[-1], 30, 31, 49)))


def test_trace_is_a_config_value_of_the_run_commands_only(tmp_path, capsys):
    rc = run_cli("variance-exact", "--output", str(tmp_path / "v"), "--trace")
    assert rc == 1
    assert "unknown config key 'experiment.trace'" in capsys.readouterr().err

    out1 = tmp_path / "a"
    assert run_cli("run-msa", "--output", str(out1), "--experiment.n_steps=50",
                   "--trace") == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["experiment"]["trace"] is True
    assert "trace" not in manifest
    out2 = tmp_path / "b"
    assert run_cli("run-msa", str(out1 / "manifest.json"), "--output", str(out2)) == 0
    assert (out2 / "trace_msa.csv").read_bytes() == (out1 / "trace_msa.csv").read_bytes()


@pytest.mark.parametrize("argv, name", [
    (("run-msa", "--experiment.x0=-1", "--trace"), "x0"),
    (("run-msa", "--experiment.x0=99", "--trace"), "x0"),
    (("ml-run", "--experiment.theta0=3.0"), "theta0"),
    (("mse-cost", "--experiment.theta0=3.0"), "theta0"),
    (("run-coupled", "--experiment.theta0=3.0"),
     "theta0=3.0 is outside the initial constraint set [-2.0, 2.0]"),
    (("run-coupled", "--experiment.theta0_bar=-3.0"),
     "theta0_bar=-3.0 is outside the initial constraint set [-2.0, 2.0]"),
], ids=["--experiment.x0=-1", "--experiment.x0=99", "ml-run-theta0", "mse-cost-theta0",
        "run-coupled-theta0", "run-coupled-theta0_bar"])
def test_initial_state_off_grid_is_a_validation_error(tmp_path, capsys, argv, name):
    # a start state off the grid, or a start parameter outside K_0
    out = tmp_path / "never"
    rc = run_cli(*argv, "--output", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and name in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (("run-msa", "--experiment.n_steps=1e3"), "experiment.n_steps"),
    (("schedule", "--rates.kappa=nan"), "rates.kappa"),
    (("schedule", "--rates.kappa=NaN"), "rates.kappa"),
    (("schedule", "--rates.kappa=" + "9" * 400), "rates.kappa"),  # beyond the float range
    (("ml-run", "--seed=-1"), "seed"),
    (("rate-check", "--experiment.levels=abc"), "experiment.levels"),
    (("mse-cost", '--experiment.epsilons=["x",0.1,0.05]'), "experiment.epsilons"),
    (("lemma-check", "--experiment.levels=[2.5,3,4,5]"), "experiment.levels"),
    (("variance-exact", "--experiment.levels=[true]"), "experiment.levels"),
    (("schedule", "--experiment.n_min=" + "1" * 5000), "experiment.n_min"),  # beyond json's limit
])
def test_mistyped_value_is_a_configuration_error(tmp_path, capsys, argv, key):
    out = tmp_path / "never"
    rc = run_cli(*argv, "--output", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("n_steps", [0, -5])
def test_nonpositive_step_count_is_a_validation_error(tmp_path, capsys, n_steps):
    out = tmp_path / "never"
    rc = run_cli("variance-empirical", f"--experiment.n_steps={n_steps}", "--output", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "n_steps" in err
    assert not out.exists()


def test_negative_step_count_is_refused_before_any_generator(tmp_path, capsys, monkeypatch):
    # a negative run length once made the byte count negative, and 1e9 generators were built
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built before the step count check")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    out = tmp_path / "never"
    assert run_cli("variance-empirical", "--experiment.n_steps=-1",
                   "--experiment.replicates=1000000000", "--output", str(out)) == 1
    assert "n_steps must be >= 1, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, fragment", [
    (("variance-empirical", "--experiment.level=0"), "level l >= 1, got 0"),
    (("rate-check", "--experiment.levels=[0,1,2,3]"), "levels must be >= 1"),
], ids=["variance-empirical", "rate-check"])
def test_coupled_level_zero_is_a_validation_error(tmp_path, capsys, argv, fragment):
    out = tmp_path / "never"
    rc = run_cli(*argv, "--output", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and fragment in err
    assert not out.exists()


_HUGE = 10 ** 400  # beyond the float range


@pytest.mark.parametrize("argv", [
    ("run-msa", f"--experiment.level={_HUGE}"),
    ("run-coupled", f"--experiment.level={_HUGE}"),
    ("variance-empirical", f"--experiment.level={_HUGE}", "--experiment.replicates=100"),
    ("variance-exact", f"--experiment.levels=[{_HUGE}]"),
    ("certify", f"--experiment.levels=[{_HUGE}]"),
    ("rate-check", f"--experiment.levels=[2,3,4,{_HUGE}]"),
    ("lemma-check", f"--experiment.levels=[2,3,4,{_HUGE}]"),
], ids=lambda argv: argv[0])
def test_level_beyond_the_float_range_is_a_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert run_cli(*argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "level must be an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, got", [
    (("run-msa", "--experiment.level=-1", "--experiment.n_steps=8000000"), "got -1"),
    (("variance-empirical", f"--experiment.level={_HUGE}", "--experiment.replicates=100000",
      "--experiment.n_steps=1000000"), f"got {_HUGE}"),
], ids=["run-msa", "variance-empirical"])
def test_invalid_level_is_refused_before_any_generator(tmp_path, capsys, monkeypatch, argv, got):
    # the level was once checked only when the move table was built, after
    # the step vector and every replicate's generator
    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built before the level check")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    out = tmp_path / "never"
    assert run_cli(*argv, "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error: level must be an integer in [0, ")
    assert err.rstrip().endswith(got)
    assert not out.exists()


def test_level_within_the_float_range_runs(tmp_path):
    assert run_cli("run-msa", f"--experiment.level={10 ** 33}", "--experiment.n_steps=100",
                   "--output", str(tmp_path / "r")) == 0


def test_rate_check_that_fits_through_nan_is_a_numerical_failure(tmp_path, capsys):
    # at theta = 1000 the Lyapunov weights overflow, which would make the
    # perturbation norms nan; the overflow is named before any fit
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("rate-check", "--experiment.theta=1000", "--output", str(out)) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: numerical failure")
    assert "Lyapunov vector overflows at (theta=1000.0, l=" in err
    assert not out.exists()


def test_lemma_check_whose_lyapunov_vector_overflows_is_a_numerical_failure(tmp_path, capsys):
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("lemma-check", "--experiment.theta=1000", "--output", str(out)) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: numerical failure")
    assert "Lyapunov vector overflows at (theta=1000.0, l=" in err
    assert not out.exists()


def test_certificate_whose_rate_is_not_below_one_is_a_numerical_failure(tmp_path, capsys):
    # at theta = 15 the chains do not decay within the power cap, and the fit
    # reads 1.0000003
    out = tmp_path / "never"
    assert run_cli("certify", "--experiment.theta_min=15", "--experiment.theta_max=15",
                   "--experiment.n_theta=1", "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: numerical failure")
    assert "is not below 1 at (theta=15.0, l=" in err and "within 2000 powers" in err
    assert not out.exists()


def test_certificate_over_a_repeated_failing_point_names_it_once(tmp_path, capsys):
    # both grid points of each level are one kernel, held once; the first
    # level whose fit reaches 1 is named, as over the full grid
    out = tmp_path / "never"
    assert run_cli("certify", "--experiment.theta_min=15", "--experiment.theta_max=15",
                   "--experiment.n_theta=2", "--output", str(out)) == 2
    assert capsys.readouterr().err == (
        "mlmsa: numerical failure: fitted rate 1.0000003217381488 is not below 1 at "
        "(theta=15.0, l=1): the chain does not decay within 2000 powers\n")
    assert not out.exists()


def test_certify_without_a_level_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "never"
    assert run_cli("certify", "--experiment.levels=[]", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error")
    assert "need at least one level and one theta" in err
    assert not out.exists()


def test_variance_empirical_that_keeps_too_few_replicates_is_a_numerical_failure(tmp_path,
                                                                                  capsys):
    # a family this tight resets nearly every replicate in the run's second
    # half, and the settling rule keeps one of 100
    out = tmp_path / "never"
    with pytest.warns(UserWarning, match="reprojected late"):
        assert run_cli("variance-empirical", "--model.m=8", "--experiment.n_steps=2000",
                       "--experiment.replicates=100", "--reprojection.r0=0.01",
                       "--reprojection.growth=0.001", "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: numerical failure")
    assert "only 1 replicates survived the settling rule" in err
    assert not out.exists()


def test_certificate_at_a_nearly_flat_target_takes_the_fallback_lambda(tmp_path):
    # at theta = 1e-6 the worst drift ratio outside the small set lies above
    # 1 - 1e-6, the cap of the margin rule, so lambda is halfway to 1
    out = tmp_path / "cert"
    assert run_cli("certify", "--experiment.theta_min=1e-6", "--experiment.theta_max=1e-6",
                   "--experiment.n_theta=1", "--output", str(out)) == 0
    text = (out / "certificate.json").read_text()
    assert '"lambda_drift": 0.99999999919585481,' in text
    assert json.loads(text)["lambda_drift"] > 1.0 - 1e-6


def test_certificate_whose_lyapunov_vector_overflows_is_a_numerical_failure(tmp_path, capsys):
    # at theta = 1000 the stationary law underflows to 0 and V = (pi/max pi)**-a to inf
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("certify", "--experiment.theta_max=1000", "--experiment.n_theta=3",
                     "--output", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: numerical failure")
    assert "Lyapunov vector overflows at (theta=1000.0, l=0)" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("n_theta", [0, -1])
def test_empty_theta_grid_is_a_configuration_error(tmp_path, capsys, n_theta):
    out = tmp_path / "never"
    rc = run_cli("certify", f"--experiment.n_theta={n_theta}", "--output", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error") and "'experiment.n_theta'" in err
    assert not out.exists()


def test_empty_level_list_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "never"
    assert run_cli("variance-exact", "--experiment.levels=[]", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error") and "'experiment.levels'" in err
    assert not out.exists()


def test_oversized_exact_model_is_a_validation_error(tmp_path, capsys):
    # m = 204 is the smallest grid whose coupled solve (four m**3 arrays) is over budget
    out = tmp_path / "never"
    rc = run_cli("variance-exact", "--model.m=204", "--experiment.levels=[1]",
                 "--output", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "m=204" in err and "bytes" in err
    assert not out.exists()


def test_exact_model_beyond_the_dense_coupled_limit_runs(tmp_path):
    # a dense m**2 x m**2 coupled kernel is over budget from m = 77 on
    out = tmp_path / "big"
    assert run_cli("variance-exact", "--model.m=96", "--experiment.levels=[1]",
                   "--output", str(out)) == 0
    assert json.loads((out / "variance_exact.json").read_text())[0]["sigma"] > 0.0


def test_exact_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))
        subprocess.run([sys.executable, "-m", "mlmsa.cli", "variance-exact", "--output", str(out)],
                       env=env, check=True, timeout=120)
        texts.append((out / "variance_exact.json").read_bytes())
    assert texts[0] == texts[1]


def test_no_cli_path_builds_the_dense_coupled_kernel(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense coupled kernel built")

    for module in [mod for name, mod in sys.modules.items() if name.startswith("mlmsa")]:
        if hasattr(module, "coupled_kernel_matrix"):
            monkeypatch.setattr(module, "coupled_kernel_matrix", forbidden)
    for argv in (("variance-exact", "--model.m=8"),
                 ("lemma-check", "--model.m=8"),
                 ("variance-empirical", "--model.m=8", "--experiment.n_steps=200",
                  "--experiment.replicates=100")):
        assert run_cli(*argv, "--output", str(tmp_path / argv[0])) == 0


def test_block_replaced_by_a_value_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rates": 5}))
    assert run_cli("schedule", str(cfg), "--output", str(tmp_path / "never")) == 1
    assert "'rates': must be a block" in capsys.readouterr().err


def test_output_env_var_supplies_default(tmp_path, monkeypatch):
    target = tmp_path / "fromenv"
    monkeypatch.setenv(cli.OUTPUT_ENV, str(target))
    monkeypatch.chdir(tmp_path)
    assert run_cli("schedule") == 0
    assert (target / "manifest.json").exists()


def test_seed_and_workers_flags(tmp_path, capsys):
    out = tmp_path / "s"
    rc = run_cli("ml-run", "--output", str(out), "--seed", "77", "--experiment.n_min=20")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77
    # a subcommand that draws no random numbers has no seed
    assert run_cli("schedule", "--output", str(tmp_path / "never"), "--seed", "77") == 1
    assert "unknown config key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    # the worker-count knob is gone: both spellings are unknown options
    for flag in (("--workers", "4"), ("--workers=4",)):
        capsys.readouterr()
        assert run_cli("schedule", "--output", str(out), *flag) == 1
        assert "mlmsa: configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["2026", "true", "null"])
def test_output_is_a_directory_path_in_both_spellings(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    for flag in (("--output", name), (f"--output={name}",)):
        assert run_cli("schedule", *flag) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_bytes())
        assert manifest["config"]["output"] == name
    assert not (tmp_path / "mlmsa-out").exists()


@pytest.mark.parametrize("argv, env", [(("--output=",), None), (("--output", ""), None),
                                       ((), "")], ids=["equals", "space", "env"])
def test_empty_output_path_is_a_configuration_error(tmp_path, monkeypatch, capsys, argv, env):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.OUTPUT_ENV, env)
    assert run_cli("schedule", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error") and "'output'" in err
    assert not any(tmp_path.iterdir())  # Path("") is the current directory


@pytest.mark.parametrize("flags, seed", [(("--seed", "5", "--seed=6"), 6),
                                         (("--seed=6", "--seed", "5"), 5)])
def test_the_last_seed_in_argv_wins_whatever_its_spelling(tmp_path, flags, seed):
    out = tmp_path / "out"
    assert run_cli("run-msa", "--experiment.n_steps=10", *flags, "--output", str(out)) == 0
    assert json.loads((out / "manifest.json").read_bytes())["seed"] == seed


def test_the_last_output_in_argv_wins_whatever_its_spelling(tmp_path):
    first, last = tmp_path / "A", tmp_path / "B"
    assert run_cli("schedule", "--output", str(first), f"--output={last}") == 0
    assert not first.exists()
    assert json.loads((last / "manifest.json").read_bytes())["config"]["output"] == str(last)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_and_the_module_docstring(capsys, flag):
    assert run_cli(flag) == 0  # no SystemExit
    out = capsys.readouterr().out
    assert out.startswith("usage: mlmsa <subcommand> [config.json] [--seed N] [--output DIR] ")
    assert cli.__doc__ in out


@pytest.mark.parametrize("argv, fragment", [
    ((), "expected a subcommand"),
    (("ml-run", "--seed"), "option --seed needs a value"),
    (("ml-run", "--output"), "option --output needs a value"),
    (("ml-run", "--seed", "--trace"), "option --seed needs a value"),
    (("schedule", "--out", "never"), "'--out' is not an override"),
    (("ml-run", "--se", "5"), "'--se' is not an override"),
    (("ml-run", "cfg.json", "extra"), "expected a subcommand and at most one config file"),
    (("ml-run", "--seed", "007"), "config key 'seed': must be an integer"),
    (("ml-run", "--seed=007"), "config key 'seed': must be an integer"),
], ids=["no-subcommand", "seed-without-value", "output-without-value", "seed-before-option",
        "abbreviated-output", "abbreviated-seed", "third-word", "seed-007", "seed=007"])
def test_command_line_that_names_no_run_is_a_configuration_error(tmp_path, monkeypatch, capsys,
                                                                  argv, fragment):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    (tmp_path / "cfg.json").write_text("{}")
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: configuration error") and fragment in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]  # no output directory


def test_a_command_imports_neither_argparse_nor_gettext_nor_numpy_ma(tmp_path):
    # numpy.ma alone costs about 20 ms of start-up (np.unique imports it)
    code = ("import sys\nfrom mlmsa import cli\n"
            "assert cli.main(['variance-exact', '--model.m=8', '--experiment.levels=[1]',"
            f" '--output={tmp_path / 'out'}']) == 0\n"
            "print([name for name in ('argparse', 'gettext', 'numpy.ma') if name in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                          capture_output=True, text=True)
    assert done.stdout == "[]\n"


def test_floats_printed_with_17_significant_digits(tmp_path):
    out = tmp_path / "f"
    run_cli("variance-exact", "--output", str(out), "--experiment.levels=[2]")
    row = (out / "variance_exact.csv").read_text().split("\n")[1].split(",")
    sigma = row[2]
    digits = sigma.replace("-", "").replace(".", "").replace("e", "").lstrip("0")
    assert len(digits) >= 16  # shortest repr would usually stop earlier


def test_unknown_subcommand_rejected():
    assert run_cli("not-a-command") == 1


# extreme floats (subnormal up to 1e308), their negatives, zero and ints
_EXTREME = (st.floats(min_value=5e-324, max_value=1e308)
            | st.floats(min_value=-1e308, max_value=-5e-324) | st.just(0.0) | st.integers())
_PLAN_KEYS = ("experiment.epsilon", "experiment.c_n", "experiment.n_min",
              "rates.alpha", "rates.beta", "rates.zeta", "rates.kappa")


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_PLAN_KEYS), _EXTREME, min_size=1))
def test_schedule_ends_in_exit_code_0_or_1(overrides):
    with tempfile.TemporaryDirectory() as out:
        argv = [f"--{key}={value!r}" for key, value in overrides.items()]
        assert run_cli("schedule", "--output", out, *argv) in (0, 1)


_SCHEMA_KEYS = [(sub, key) for sub in sorted(FAST_ARGS)
                for key in _leaf_keys(cli.resolve_config(sub, None))]
# model.m sizes the grid's arrays, so drawn ints stay small enough to build
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-2 ** 16, 2 ** 16) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SCHEMA_KEYS), _JSON)
def test_any_value_of_a_schema_key_builds_or_is_rejected_by_name(case, value):
    subcommand, key = case
    try:
        config = cli.resolve_config(subcommand, None, [(key, value)])
        parts = cli._build_parts(config)
    except ParameterError:  # ConfigError is one
        return
    assert set(parts) == BLOCKS[subcommand]


# small runs of every subcommand that computes; the fuzzed keys override them
_FUZZ_ARGS = {
    "variance-exact": ("--model.m=6", "--experiment.levels=[1,2]"),
    "variance-empirical": ("--model.m=6", "--experiment.n_steps=200",
                           "--experiment.replicates=100", "--experiment.level=2"),
    "rate-check": ("--model.m=6", "--experiment.levels=[2,3,4,5]"),
    "lemma-check": ("--model.m=6", "--experiment.levels=[2,3,4,5]"),
    "certify": ("--model.m=6", "--experiment.levels=[0,1]", "--experiment.n_theta=2"),
    "run-msa": ("--model.m=8", "--experiment.n_steps=300"),
    "run-coupled": ("--model.m=8", "--experiment.n_steps=300"),
    "ml-run": ("--model.m=8", "--experiment.epsilon=0.5", "--experiment.n_min=10"),
    "mse-cost": ("--model.m=8", "--experiment.epsilons=[0.5,0.45,0.4]",
                 "--experiment.replicates=2", "--experiment.n_min=10"),
}
# huge and negative ints, the float range's ends and zero
_WIDE = (st.integers(min_value=10 ** 9) | st.integers(max_value=-1)
         | st.sampled_from([0, 0.0, 1e308, -1e308, _HUGE, -_HUGE]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_extreme_setting_ends_in_exit_code_0_1_or_2(data):
    subcommand = data.draw(st.sampled_from(sorted(_FUZZ_ARGS)))
    config = cli.resolve_config(subcommand, None)
    keys = sorted(set(_leaf_keys(config)) - {"output"})
    argv = []
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
        block, _, name = key.rpartition(".")
        default = config[block][name] if block else config[name]
        value = data.draw(st.lists(_WIDE, min_size=1, max_size=4)
                          if isinstance(default, list) else _WIDE)
        argv.append(f"--{key}={json.dumps(value)}")
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main([subcommand, *_FUZZ_ARGS[subcommand], *argv, "--output", out]) in (0, 1, 2)
