import hashlib
import json
from pathlib import Path

import pytest

from mlmsa import cli
from mlmsa.core import NumericalError


def run_cli(*argv):
    return cli.main(list(argv))


def hash_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


FAST_ARGS = {
    "variance-exact": ["--experiment.levels=[1,2]"],
    "variance-empirical": ["--experiment.n_steps=1500",
                           "--experiment.replicates=100",
                           "--experiment.level=2",
                           "--schedule.n_total=1500"],
    "rate-check": ["--experiment.levels=[2,3,4,5]"],
    "lemma-check": ["--experiment.levels=[2,3,4,5]"],
    "certify": ["--experiment.levels=[0,1,2]", "--experiment.n_theta=3"],
    "run-msa": ["--experiment.n_steps=500", "--schedule.n_total=500"],
    "run-coupled": ["--experiment.n_steps=500", "--schedule.n_total=500"],
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
    assert manifest["seed"] == 1234
    assert manifest["config"]["model"]["m"] == 32


def test_csv_format_contract(tmp_path):
    out = tmp_path / "v"
    run_cli("variance-exact", "--output", str(out), "--experiment.levels=[1,2]")
    text = (out / "variance_exact.csv").read_text()
    lines = text.split("\n")
    assert lines[0] == "l,delta,sigma,t1,t2,theta_star_l,dh_l"
    assert len(lines) == 4 and lines[3] == ""  # header + 2 rows + trailing LF
    assert "\r" not in text


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"m": 16}, "seed": 9,
                               "experiment": {"epsilon": 0.5}}))
    out = tmp_path / "out"
    rc = run_cli("schedule", str(cfg), "--output", str(out),
                 "--experiment.epsilon=0.25")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["m"] == 16        # from file
    assert manifest["config"]["experiment"]["epsilon"] == 0.25  # override wins
    assert manifest["seed"] == 9


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


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "rep"
    args = ["run-coupled", "--output", str(out), "--experiment.n_steps=800",
            "--schedule.n_total=800", "--trace"]
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


def test_trace_flag_writes_trajectory(tmp_path):
    out = tmp_path / "t"
    run_cli("run-msa", "--output", str(out), "--experiment.n_steps=50",
            "--schedule.n_total=50", "--trace")
    lines = (out / "trace_msa.csv").read_text().strip().split("\n")
    assert lines[0] == "step,theta,x,psi"
    assert len(lines) == 52  # header + n_steps + 1 states

    out2 = tmp_path / "t2"
    run_cli("run-msa", "--output", str(out2), "--experiment.n_steps=50",
            "--schedule.n_total=50")
    assert not (out2 / "trace_msa.csv").exists()


def test_trace_is_a_config_value_of_the_run_commands_only(tmp_path, capsys):
    rc = run_cli("variance-exact", "--output", str(tmp_path / "v"), "--trace")
    assert rc == 1
    assert "unknown config key 'experiment.trace'" in capsys.readouterr().err

    out1 = tmp_path / "a"
    assert run_cli("run-msa", "--output", str(out1), "--experiment.n_steps=50",
                   "--schedule.n_total=50", "--trace") == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["experiment"]["trace"] is True
    assert "trace" not in manifest
    out2 = tmp_path / "b"
    assert run_cli("run-msa", str(out1 / "manifest.json"), "--output", str(out2)) == 0
    assert (out2 / "trace_msa.csv").read_bytes() == (out1 / "trace_msa.csv").read_bytes()


@pytest.mark.parametrize("override", ["--experiment.x0=-1", "--experiment.x0=99"])
def test_initial_state_off_grid_is_a_validation_error(tmp_path, capsys, override):
    rc = run_cli("run-msa", "--output", str(tmp_path / "x"), override, "--trace")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlmsa: validation error") and "x0" in err


@pytest.mark.parametrize("argv, key", [
    (("run-msa", "--experiment.n_steps=1e3"), "experiment.n_steps"),
    (("schedule", "--rates.kappa=nan"), "rates.kappa"),
    (("schedule", "--rates.kappa=NaN"), "rates.kappa"),
    (("schedule", "--rates.kappa=" + "9" * 400), "rates.kappa"),  # beyond the float range
    (("schedule", "--seed=-1"), "seed"),
    (("rate-check", "--experiment.levels=abc"), "experiment.levels"),
    (("mse-cost", '--experiment.epsilons=["x",0.1,0.05]'), "experiment.epsilons"),
    (("lemma-check", "--experiment.levels=[2.5,3,4,5]"), "experiment.levels"),
    (("variance-exact", "--experiment.levels=[true]"), "experiment.levels"),
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


def test_block_replaced_by_a_value_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": 5}))
    assert run_cli("schedule", str(cfg), "--output", str(tmp_path / "never")) == 1
    assert "'model': must be a block" in capsys.readouterr().err


def test_output_env_var_supplies_default(tmp_path, monkeypatch):
    target = tmp_path / "fromenv"
    monkeypatch.setenv(cli.OUTPUT_ENV, str(target))
    monkeypatch.chdir(tmp_path)
    assert run_cli("schedule") == 0
    assert (target / "manifest.json").exists()


def test_seed_and_workers_flags(tmp_path, capsys):
    out = tmp_path / "s"
    rc = run_cli("schedule", "--output", str(out), "--seed", "77")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77
    # the worker-count knob is gone: both spellings are unknown options
    for flag in (("--workers", "4"), ("--workers=4",)):
        capsys.readouterr()
        assert run_cli("schedule", "--output", str(out), *flag) == 1
        assert "mlmsa: configuration error" in capsys.readouterr().err


def test_floats_printed_with_17_significant_digits(tmp_path):
    out = tmp_path / "f"
    run_cli("variance-exact", "--output", str(out), "--experiment.levels=[2]")
    row = (out / "variance_exact.csv").read_text().split("\n")[1].split(",")
    sigma = row[2]
    digits = sigma.replace("-", "").replace(".", "").replace("e", "").lstrip("0")
    assert len(digits) >= 16  # shortest repr would usually stop earlier


def test_unknown_subcommand_rejected():
    assert run_cli("not-a-command") == 1
