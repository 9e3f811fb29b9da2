"""Config parsing, subcommand behaviour, exit codes, determinism."""

import functools
import hashlib
import json
import math
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from phytoperiod import cli
from phytoperiod.cli import (ConfigError, EXIT_CHECK_FAILED, EXIT_OK,
                             EXIT_USAGE, cmd_check, cmd_find_orbit,
                             cmd_reproduce, cmd_simulate, load_bundled_config,
                             load_config, main, parse_config)
from phytoperiod.integrator import IntegratorConfig, integrate
from phytoperiod.model import rhs_log, rhs_original
from phytoperiod.orbit import diagnose_extinction, seed_by_transient

from conftest import count_public_calls, run_python

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

TWO_PI = 2.0 * math.pi


def minimal_config(**overrides):
    data = {
        "model": {
            "r1": {"kind": "sinusoid", "mean": 1.0, "amplitude": 0.3,
                   "omega": 1.0, "phase": 0.0},
            "r2": {"kind": "constant", "value": 1.0},
            "beta1": {"kind": "constant", "value": 0.05},
            "beta2": {"kind": "constant", "value": 0.002},
            "k1": 2.0, "k2": 1.0, "w1": 0.1, "w2": 0.002,
            "period": TWO_PI,
        },
        "initial_state": [1.0, 0.5],
        "horizon": 8.0 * TWO_PI,
        "seed_periods": 20,
    }
    data.update(overrides)
    return data


# --- parsing -------------------------------------------------------------

def test_parse_minimal_config():
    cfg = parse_config(minimal_config())
    assert cfg.model.k1 == 2.0
    assert cfg.m0_denominator == "k1"
    assert cfg.orbit_tol == 1e-12


def test_bundled_configs_parse():
    ex1 = load_bundled_config("example1")
    assert ex1.model.w1 == 20.0
    assert ex1.extremum_interval == (0.0, math.pi)
    assert ex1.m0_denominator == "k2-paper-variant"
    rem = load_bundled_config("remark-constant")
    assert rem.model.r1.kind == "constant"


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("model"), "model"),
    (lambda d: d["model"].pop("r1"), "r1"),
    (lambda d: d["model"].__setitem__("k1", "eight"), "k1"),
    (lambda d: d["model"]["r1"].__setitem__("kind", "triangle"), "kind"),
    (lambda d: d.__setitem__("horizon", 0.0), "horizon"),
    (lambda d: d.__setitem__("initial_state", [0.0, 1.0]), "initial_state"),
    (lambda d: d.__setitem__("extremum_interval", [2.0, 1.0]), "extremum_interval"),
    (lambda d: d.__setitem__("seed_periods", -3), "seed_periods"),
    (lambda d: d.__setitem__("m0_denominator", "k9"), "m0_denominator"),
    (lambda d: d.__setitem__("integrator", []), "config.integrator"),
    (lambda d: d.__setitem__("tolerances", 3), "config.tolerances"),
    (lambda d: d.__setitem__("model", 5), "config.model"),
    (lambda d: d["model"]["r1"].__setitem__("omega", math.inf), "r1.omega"),
    (lambda d: d.__setitem__("horizon", math.inf), "config.horizon"),
    (lambda d: d.__setitem__("initial_state", [math.nan, 0.1]), "initial_state[0]"),
    (lambda d: d.__setitem__("integrator", {"abs_tol": math.nan}), "abs_tol"),
    (lambda d: d.__setitem__("integrator", {"abstol": 1e-8}), "abstol"),
    (lambda d: d.__setitem__("integrator", {"dense_output": True}),
     "config.integrator.dense_output"),
    (lambda d: d.__setitem__("seed_period", 3), "config.seed_period"),
    (lambda d: d["model"].__setitem__("k3", 1.0), "config.model.k3"),
    (lambda d: d.__setitem__("tolerances", {"orbit_tolerance": 1e-3}),
     "config.tolerances.orbit_tolerance"),
    (lambda d: d["model"]["r2"].__setitem__("mean", 1.0), "config.model.r2.mean"),
    (lambda d: d["model"]["r1"].__setitem__("value", 1.0), "config.model.r1.value"),
    (lambda d: d["model"].__setitem__(
        "beta1", {"kind": "fourier", "mean": 0.05, "harmonics": [[0.01, 0.0]],
                  "omega": 1.0, "phase": 0.5}), "config.model.beta1.phase"),
    # an integer too big for a float
    (lambda d: d["model"].__setitem__("k1", 10 ** 400),
     "config.model.k1: expected a finite number"),
    (lambda d: d.__setitem__("extremum_interval", [0.0, 10 ** 400]),
     "config.extremum_interval[1]: expected a finite number"),
])
def test_parse_errors_carry_field_path(mutate, fragment):
    data = minimal_config()
    mutate(data)
    with pytest.raises(ConfigError) as exc_info:
        parse_config(data)
    assert fragment in str(exc_info.value)


def test_the_one_method_may_still_be_named():
    cfg = parse_config(minimal_config(integrator={"method": "rk45-adaptive"}))
    assert cfg.integrator == IntegratorConfig()


@pytest.mark.parametrize("integrator, message", [
    ({"method": "rk4-fixed"},
     "config.integrator.method: unknown integration method 'rk4-fixed'; "
     "the only method is 'rk45-adaptive'"),
    ({"method": None},
     "config.integrator.method: unknown integration method None; "
     "the only method is 'rk45-adaptive'"),
    ({"step": 0.01}, "config.integrator.step: unknown field"),
    ({"dense_output": True}, "config.integrator.dense_output: unknown field"),
    ({"max_step": 2.0}, "config.integrator.max_step: unknown field")],
    ids=["rk4-fixed", "null-method", "step", "dense_output", "max_step"])
def test_removed_integrator_settings_are_usage_errors(tmp_path, capsys,
                                                      integrator, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(minimal_config(integrator=integrator)))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message}\n"


def _fourier_beta1(harmonics):
    return lambda d: d["model"].__setitem__(
        "beta1", {"kind": "fourier", "mean": 0.05, "harmonics": harmonics,
                  "omega": 1.0})


@pytest.mark.parametrize("mutate, message", [
    (lambda d: [d], "config: top level must be an object"),
    (lambda d: d["model"].__setitem__("r2", 1.0),
     "config.model.r2: expected a tagged object"),
    (_fourier_beta1({"1": [0.01, 0.0]}),
     "config.model.beta1.harmonics: expected a list of [cos, sin] pairs"),
    (_fourier_beta1("0.01"),
     "config.model.beta1.harmonics: expected a list of [cos, sin] pairs"),
    (lambda d: d.__setitem__("initial_state", [1.0]),
     "config.initial_state: expected [x1, x2]"),
    (lambda d: d.__setitem__("initial_state", {"x1": 1.0, "x2": 0.5}),
     "config.initial_state: expected [x1, x2]"),
    (lambda d: d.__setitem__("tolerances", {"orbit_tol": 0.0}),
     "config.tolerances.orbit_tol: must be positive"),
    (lambda d: d.__setitem__("tolerances", {"orbit_tol": -1e-10}),
     "config.tolerances.orbit_tol: must be positive")],
    ids=["top-level-list", "bare-coefficient", "harmonics-object",
         "harmonics-string", "one-density", "state-object", "zero-orbit-tol",
         "negative-orbit-tol"])
def test_malformed_configs_are_usage_errors(tmp_path, capsys, mutate, message):
    """Each malformed config raises a ConfigError with its message from
    ``parse_config``, and through ``main`` exits with status 2 and prints
    that message, before anything is written."""
    data = minimal_config()
    data = mutate(data) or data
    with pytest.raises(ConfigError) as exc_info:
        parse_config(data)
    assert str(exc_info.value) == message
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = main(["check", "--config", str(config), "--out", str(out)])
    assert code == EXIT_USAGE == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(out.iterdir()) == []


def test_a_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    reason = f"[Errno 2] No such file or directory: {str(missing)!r}"
    with pytest.raises(ConfigError) as exc_info:
        load_config(missing)
    assert str(exc_info.value) == f"cannot read config {missing}: {reason}"
    code = main(["find-orbit", "--config", str(missing), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"config error: cannot read config {missing}: {reason}\n")


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": oops}')
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert "line 1" in str(exc_info.value)


def test_a_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="is not UTF-8 text: byte 0"):
        load_config(path)
    code = main(["check", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error: ")


# --- subcommands ---------------------------------------------------------

def test_cmd_check_exit_codes(tmp_path):
    cfg = parse_config(minimal_config())
    # coexistence parameters satisfy all three conditions
    assert cmd_check(cfg, tmp_path) == EXIT_OK
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["all_conditions_hold"] is True
    assert doc["averaged_system"]["newton"]["converged"] is True


def test_cmd_simulate_writes_csv(tmp_path):
    """``simulate`` writes the header, t0, every accepted step and t1."""
    cfg = parse_config(minimal_config(horizon=5.0))
    assert cmd_simulate(cfg, tmp_path) == EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2"
    assert len(lines) > 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    last = lines[-1].split(",")
    assert float(last[0]) == 5.0


def test_simulate_ends_a_subnormal_horizon_in_one_step(tmp_path):
    """A horizon of 1e-322 is finite and positive, so it parses, and the
    estimated first step is the horizon itself: ``simulate`` exits 0 with
    trajectory.csv holding the start and the state one DOP853 step later,
    at t = 1e-322.  Run in a subprocess with a timeout, so that a
    regression to an endless loop fails the test instead of hanging the
    suite."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(minimal_config(horizon=1e-322)))
    proc = run_python("-m", "phytoperiod.cli", "simulate",
                      "--config", str(config), "--out", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert (tmp_path / "trajectory.csv").read_text() == (
        "t,x1,x2\n0,1,0.5\n9.8813129168249309e-323,1,0.5\n")


def blowup_config():
    """r1 = -50 with x1(0) = 2 > k1 = 1: x1 blows up in finite time, near
    t = 0.0139, so the steps shrink until they underflow.  Its trial
    stages leave the exp guard's range long before that and are rejected,
    as in the original frame, where they overflow to inf."""
    data = minimal_config(initial_state=[2.0, 0.5], horizon=50.0)
    data["model"]["r1"] = {"kind": "constant", "value": -50.0}
    data["model"]["k1"] = 1.0
    return data


def unbounded_start_config():
    """x1(0) = 1e308 lies above e^709, outside the exp guard's range."""
    return {**blowup_config(), "initial_state": [1e308, 0.5]}


HORIZON_FAILURES = [
    (blowup_config, "integration failed: adaptive step underflow at "
     "t = 0.013866016911447116 (last good time 0.013866016911447116)\n"),
]


@pytest.mark.parametrize("config, message", HORIZON_FAILURES)
def test_simulate_fails_cleanly_when_the_horizon_run_fails(
        tmp_path, capsys, config, message):
    """A run whose steps underflow ends ``simulate`` with exit 1 and one
    line naming the failure, not a traceback."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config()))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    assert capsys.readouterr().err == message
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("config, message", HORIZON_FAILURES)
def test_reproduce_fails_cleanly_when_the_horizon_run_fails(
        tmp_path, capsys, monkeypatch, config, message):
    """``reproduce`` ends a failed horizon run as ``simulate`` does."""
    cfg = parse_config(config())
    monkeypatch.setattr(cli, "load_bundled_config", lambda which: cfg)
    assert cmd_reproduce("example1", tmp_path) == EXIT_CHECK_FAILED
    assert capsys.readouterr().err == message
    assert not (tmp_path / "example1" / "manifest.json").exists()


@pytest.mark.parametrize("command, written", [
    ("simulate", "trajectory.csv"), ("find-orbit", "orbit_report.json")])
def test_a_start_above_the_exp_guard_is_a_usage_error(tmp_path, capsys,
                                                      command, written):
    """A density above e^709, which the log frame cannot represent, is
    rejected with the config: exit 2, naming ``config.initial_state``,
    before anything runs or is written."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(unbounded_start_config()))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "config error: config.initial_state: densities must be at most "
        "e^709 = 8.21841e+307, the largest the log frame represents\n")
    assert not (tmp_path / written).exists()


def test_the_start_limit_is_the_exp_guard():
    """The largest start ``parse_config`` admits is e^709, whose log the
    exp guard of the field still accepts; the next float up is rejected."""
    top = math.exp(709.0)
    cfg = parse_config(minimal_config(initial_state=[0.5, top]))
    z0 = cli._initial_log_state(cfg)
    assert z0[1] == 709.0
    assert np.all(np.isfinite(rhs_log(cfg.model, 0.0, z0)))
    for data in (minimal_config(initial_state=[0.5, math.nextafter(top, math.inf)]),
                 unbounded_start_config()):
        with pytest.raises(ConfigError, match="config.initial_state"):
            parse_config(data)


def test_cmd_find_orbit_converges_for_forced_system(tmp_path):
    cfg = parse_config(minimal_config())
    assert cmd_find_orbit(cfg, tmp_path) == EXIT_OK
    doc = json.loads((tmp_path / "orbit_report.json").read_text())
    assert doc["converged"] is True
    assert doc["orbit"]["stable"] is True
    assert doc["orbit"]["residual_norm"] < 1e-10
    # from the 20-period seed the full Newton step is accepted, and its
    # probe, the next iteration's monodromy run, has a defect of 2.2e-16,
    # below the orbit_tol of 1e-12: the search stops by tol
    assert doc["orbit"]["stop_rule"] == "tol"
    assert doc["orbit"]["newton_iterations"] == 1
    assert doc["orbit"]["residual_norm"] < cfg.orbit_tol
    assert doc["orbit"]["noise_floor"] < 1.7e-10
    assert len(doc["bound_checks"]) == 4
    assert "last_iterate" not in doc
    csv_lines = (tmp_path / "orbit.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 258  # header + 257 samples


def test_cmd_find_orbit_reports_extinction(tmp_path):
    data = minimal_config()
    data["model"] = {
        "r1": {"kind": "sinusoid", "mean": 0.03, "amplitude": 0.5,
               "omega": 1.0, "phase": 0.0},
        "r2": {"kind": "sinusoid", "mean": 0.0001, "amplitude": 0.9,
               "omega": 1.0, "phase": 0.0},
        "beta1": {"kind": "sinusoid", "mean": 0.0004, "amplitude": 0.5,
                  "omega": 1.0, "phase": 0.0},
        "beta2": {"kind": "sinusoid", "mean": 0.006, "amplitude": 0.2,
                  "omega": 1.0, "phase": 0.0},
        "k1": 8.0, "k2": 6.0, "w1": 20.0, "w2": 2.0, "period": TWO_PI,
    }
    data["initial_state"] = [0.002, 0.002]
    data["seed_periods"] = 10
    data["tolerances"] = {"orbit_tol": 1e-10, "newton_max_iter": 6}
    cfg = parse_config(data)
    assert cmd_find_orbit(cfg, tmp_path) == EXIT_CHECK_FAILED
    doc = json.loads((tmp_path / "orbit_report.json").read_text())
    assert doc["converged"] is False
    assert doc["extinction"]["species"] == 2
    assert doc["extinction"]["rate_per_period"] == pytest.approx(-0.3016, abs=5e-3)


def test_cmd_find_orbit_reports_seeding_failure(tmp_path):
    """A blow-up while seeding is a failed search (exit 1 with a report
    that names the error), not a traceback.  The report holds the
    conditions, as ``check`` reports them, and the error, nothing else,
    and no orbit.csv is written."""
    cfg = parse_config(minimal_config(initial_state=[1e300, 1e300]))
    for name in ("orbit", "check"):
        (tmp_path / name).mkdir()
    assert cmd_find_orbit(cfg, tmp_path / "orbit") == EXIT_CHECK_FAILED
    cmd_check(cfg, tmp_path / "check")
    bounds = json.loads((tmp_path / "check" / "check_report.json").read_text())
    doc = json.loads((tmp_path / "orbit" / "orbit_report.json").read_text())
    assert doc == {"conditions": bounds["bounds"], "converged": False,
                   "error": "seeding failed: adaptive step underflow at t = 0.0"}
    assert not (tmp_path / "orbit" / "orbit.csv").exists()


def test_main_usage_error_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = main(["check", "--config", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, blocked", [
    (["check", "--config", "cfg.json", "--out", "example1"], "example1"),
    (["check", "--config", "cfg.json", "--out", "example1/sub"], "example1/sub"),
    (["reproduce", "example1", "--out", "."], "example1")],
    ids=["a-file", "below-a-file", "reproduce-bundle"])
def test_an_out_that_is_not_a_directory_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv, blocked):
    """An output directory that names a file, or a path below one, is
    reported in one line naming it, with exit 2, not a traceback."""
    monkeypatch.chdir(tmp_path)
    Path("example1").write_text("")
    Path("cfg.json").write_text(json.dumps(minimal_config()))
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot create output directory {blocked}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "find-orbit"])
def test_a_zero_r1_minimum_is_a_usage_error(tmp_path, capsys, command):
    """g0 divides by the minimum of r1: a zero minimum is reported as a
    config error with exit 2, before any report is written."""
    data = minimal_config()
    data["model"]["r1"] = {"kind": "constant", "value": 0.0}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    code = main([command, "--config", str(config), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "config error: config.model: r1 minimum is zero: g0 undefined\n")
    assert not list(tmp_path.glob("*_report.json"))


def test_an_overflowed_bound_quantity_is_a_usage_error(tmp_path, capsys):
    """k1 = 1e308 makes g0 = k1 (1 - beta1 m0 / r1) = 2e308 overflow:
    ``check`` exits 2 naming g0, before any report, instead of writing it
    as the null of an undefined bound."""
    rates = {"r1": -1.0, "r2": 1.0, "beta1": 1.0,
             "beta2": 3.3333333333333e-309}
    data = minimal_config()
    data["model"] = {**{name: {"kind": "constant", "value": value}
                        for name, value in rates.items()},
                     "k1": 1e308, "k2": 1.0, "w1": 0.0, "w2": 0.0,
                     "period": TWO_PI}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    code = main(["check", "--config", str(config), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "config error: config.model: g0 is inf: the parameters overflow "
        "the float range\n")
    assert not (tmp_path / "check_report.json").exists()


def test_a_coefficient_period_longer_than_the_common_one_is_a_usage_error(
        tmp_path, capsys):
    """omega = 1e-12 gives r1 a period of 6.3e12, which does not divide
    T = 2 pi: ``check`` exits 2 naming the model, before any report."""
    data = minimal_config()
    data["model"]["r1"] = {"kind": "sinusoid", "mean": 1.0, "amplitude": 0.5,
                           "omega": 1e-12}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    code = main(["check", "--config", str(config), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: config.model: coefficient r1 has period ")
    assert "does not divide the common period" in err
    assert not (tmp_path / "check_report.json").exists()


@pytest.mark.parametrize("command", ["check", "find-orbit"])
@pytest.mark.parametrize("r1, message", [
    ({"kind": "sinusoid", "mean": 1.0, "amplitude": 0.5, "omega": 1e-310,
      "phase": math.pi / 2},
     "omega 1e-310 makes the period 2 pi/omega overflow the float range"),
    ({"kind": "fourier", "mean": 1.0, "harmonics": [[0.1, 0.0], [0.0, 0.1]],
      "omega": 1e308},
     "omega 1e+308 makes the frequency 2 omega of the highest harmonic "
     "overflow the float range")], ids=["period", "harmonic"])
def test_a_frequency_outside_the_float_range_is_a_usage_error(
        tmp_path, capsys, command, r1, message):
    """A period 2 pi/omega of inf (r1 = 1.5 over the whole model period,
    which ``check`` averaged as 1.0) and a second harmonic at 2e308 (a
    math domain error in the extrema) are config errors, exit 2, before
    any report."""
    data = minimal_config()
    data["model"]["r1"] = r1
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    code = main([command, "--config", str(config), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"config error: config.model.r1: {message}\n")
    assert not list(tmp_path.glob("*_report.json"))


def test_check_over_a_very_long_interval_finishes(tmp_path):
    """Extrema over [0, 1e15] are taken over one period, so ``check``
    returns at once instead of visiting every critical point."""
    data = json.loads(resources.files("phytoperiod.configs")
                      .joinpath("example1.json").read_text())
    data["extremum_interval"] = [0, 1e15]
    config = tmp_path / "long.json"
    config.write_text(json.dumps(data))
    proc = run_python("-m", "phytoperiod.cli", "check",
                      "--config", str(config), "--out", str(tmp_path))
    assert proc.returncode in (EXIT_OK, EXIT_CHECK_FAILED), proc.stderr
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["bounds"]["extremum_interval"] == [0.0, 1e15]
    assert doc["bounds"]["r2L"] == pytest.approx(-0.8999, abs=1e-12)


@pytest.mark.parametrize("command", ["check", "simulate", "find-orbit"])
@pytest.mark.parametrize("flag", [["--interval", "0", "1"],
                                  ["--m0-variant", "k1"]],
                         ids=["interval", "m0-variant"])
def test_removed_override_flags_are_usage_errors(tmp_path, capsys, command,
                                                 flag):
    """The extremum interval and the m0 denominator are set in the config
    only: the old flags are unknown arguments (exit 2)."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(minimal_config()))
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--config", str(config), "--out", str(tmp_path), *flag])
    assert exc_info.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_main_rejects_a_non_finite_interval_override(tmp_path, capsys):
    """An infinite end of the configured ``extremum_interval`` is a usage
    error that names the interval, before any report is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_config(extremum_interval=[0.0, math.inf])))
    code = main(["check", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert ("config.extremum_interval[1]: expected a finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "check_report.json").exists()


def test_config_sets_the_interval_and_the_m0_denominator(tmp_path):
    data = json.loads(resources.files("phytoperiod.configs")
                      .joinpath("example1.json").read_text())
    data["extremum_interval"] = [0, TWO_PI]
    data["m0_denominator"] = "k1"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code = main(["check", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED  # full-period extrema break A2
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["bounds"]["r2L"] == pytest.approx(-0.8999, abs=1e-12)
    assert doc["bounds"]["m0_denominator"] == "k1"


# --- reproduction bundles -------------------------------------------------

@pytest.mark.parametrize("which", ["example1", "remark-constant"])
def test_reproduce_bundles_pass(tmp_path, which):
    assert cmd_reproduce(which, tmp_path) == EXIT_OK
    manifest = json.loads((tmp_path / which / "manifest.json").read_text())
    assert manifest["pass"] is True
    for name in manifest["files"]:
        assert (tmp_path / which / name).exists(), f"missing output {name}"


@pytest.mark.parametrize("which", ["example1", "remark-constant"])
def test_simulate_writes_the_trajectory_of_reproduce(tmp_path, which):
    """``simulate`` on a bundled config and ``reproduce`` of the bundle
    write the same trajectory.csv, byte for byte: the tail and seed
    samples ``reproduce`` takes from the run add no row to it."""
    out = tmp_path / "simulate"
    out.mkdir()
    assert cmd_simulate(load_bundled_config(which), out) == EXIT_OK
    assert cmd_reproduce(which, tmp_path) == EXIT_OK
    assert ((out / "trajectory.csv").read_bytes()
            == (tmp_path / which / "trajectory.csv").read_bytes())


@pytest.mark.parametrize("which", ["example1", "remark-constant"])
def test_tail_metrics_end_on_the_trajectory(tmp_path, which):
    """The tail diagnostics and the trajectory come from one run, so they
    end in the same state, bit for bit."""
    cmd_reproduce(which, tmp_path)
    manifest = json.loads((tmp_path / which / "manifest.json").read_text())
    last = (tmp_path / which / "trajectory.csv").read_text().split()[-1]
    assert ([float(v) for v in last.split(",")[1:]]
            == manifest["tail_metrics"]["final_state"])


@pytest.mark.parametrize("which", ["example1", "remark-constant"])
def test_reproduce_integrates_the_horizon_once(tmp_path, monkeypatch, which):
    """trajectory.csv and the tail metrics come from one integration of
    [0, horizon]."""
    horizon = load_bundled_config(which).horizon
    spans = []

    def counted(field, t0, y0, t1, *args, **kwargs):
        spans.append((t0, t1))
        return integrate(field, t0, y0, t1, *args, **kwargs)
    monkeypatch.setattr(cli, "integrate", counted)
    cmd_reproduce(which, tmp_path)
    assert spans.count((0.0, horizon)) == 1


# calls per ``reproduce``; a fused or bypassed field changes them
BUNDLE_CALLS = {
    "example1": {"rhs_log": 8_970, "jac_log": 1_402, "rhs_original": 32,
                 "jac_original": 0, "integrate": 23},
    "remark-constant": {"rhs_log": 635, "jac_log": 0, "rhs_original": 99,
                        "jac_original": 50, "integrate": 5}}


@pytest.mark.parametrize("which", sorted(BUNDLE_CALLS))
def test_reproduce_calls_the_public_fields_by_name(tmp_path, monkeypatch,
                                                   which):
    """Every evaluation goes through the public model fields and
    ``integrate``, looked up by name in the module that calls them, so
    that wrapping those names (as the benchmark's tracer does) sees each
    call.  Every ``rhs_log`` and ``rhs_original`` call but one is made
    while ``integrate`` runs, since the benchmark's evaluations per period
    count the calls inside it; the one outside is the derivative at the
    horizon's end in ``cli._simulate_with_tail``."""
    expected = BUNDLE_CALLS[which]
    counts, outside = count_public_calls(monkeypatch, expected)
    assert cmd_reproduce(which, tmp_path) == EXIT_OK
    assert counts == expected
    assert outside == ["_simulate_with_tail"]


def test_example1_decides_every_plain_probe_loose(tmp_path, monkeypatch):
    """``reproduce example1``'s search makes 14 plain line-search probes.
    Each runs at loosened tolerances and decides there, so none is
    settled by a run at the configured ones; the one plain run at those
    is the seed's last period, which comes first."""
    from phytoperiod import orbit

    cfgs, plain = [], orbit.flow_map

    def recording(params, z, cfg):
        cfgs.append(cfg)
        return plain(params, z, cfg)
    monkeypatch.setattr(orbit, "flow_map", recording)
    assert cmd_reproduce("example1", tmp_path) == EXIT_OK
    configured = IntegratorConfig()
    assert cfgs[0] == configured and len(cfgs) == 15
    assert all(c.abs_tol > configured.abs_tol and c.rel_tol > configured.rel_tol
               for c in cfgs[1:])


def test_find_orbit_calls_per_period_run(tmp_path, monkeypatch):
    """``find-orbit`` on forced_mixed.json seeds by one ``flow_map``
    period.  The steady-state test stops after its head run, 2 sampled
    DOP853 steps over the first 1/32 of the period: 32 ``rhs_original``
    calls.  Then the search takes 2 full Newton steps.  Each step's probe
    is the monodromy run that the next iteration uses, so the search makes
    no plain run and 3 ``flow_and_monodromy`` runs in all."""
    counts, _ = count_public_calls(
        monkeypatch, ("rhs_log", "jac_log", "rhs_original", "flow_map",
                      "flow_and_monodromy"))
    config = str(Path(__file__).parent / "forced_mixed.json")
    assert main(["find-orbit", "--config", config, "--out", str(tmp_path)]) == EXIT_OK
    assert counts == {"rhs_log": 1_181, "jac_log": 798, "rhs_original": 32,
                      "flow_map": 1, "flow_and_monodromy": 3}
    doc = json.loads((tmp_path / "orbit_report.json").read_text())
    assert (doc["orbit"]["newton_iterations"], doc["orbit"]["stop_rule"]) == (2, "tol")


def test_a_bound_field_is_built_per_call(monkeypatch, tmp_path,
                                        forced_params, cfg):
    """``flow_map``, ``flow_and_monodromy`` and ``_run_horizon`` bind the
    public field by name on every call, never across calls: counters
    installed after a first call see every evaluation of the next one.
    The counted runs step as the package's own do, so each ends in the
    state of its uncounted run, bit for bit."""
    from phytoperiod import integrator

    config = parse_config(minimal_config(horizon=3.0))
    z0 = (0.6, -0.2)
    runs = {"flow_map": lambda: integrator.flow_map(forced_params, z0, cfg),
            "flow_and_monodromy": lambda: np.append(
                *integrator.flow_and_monodromy(forced_params, z0, cfg)),
            "_run_horizon":
                lambda: cli._run_horizon(config, tmp_path).final_state}
    finals = {name: run() for name, run in runs.items()}
    counts = Counter()

    def count(module, name):
        public = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return public(*args)
        monkeypatch.setattr(module, name, counted)

    def counting(field):
        def counted(t, y):
            counts["field"] += 1
            return field(t, y)
        return counted

    def count_field_calls(module):
        # every evaluation of the planar field ``integrate`` is given,
        # re-wrapped in its run kind so that the run steps as it would
        def counting_integrate(field, *args, **kwargs):
            if type(field) is integrator._Augmented:
                field = integrator._Augmented((counting(field[0]), field[1]))
            else:
                field = counting(field)
            return integrate(field, *args, **kwargs)
        monkeypatch.setattr(module, "integrate", counting_integrate)

    count(integrator, "rhs_log")
    count(integrator, "jac_log")
    count(cli, "rhs_log")
    count_field_calls(integrator)
    count_field_calls(cli)
    expected = {"flow_map": ("rhs_log",),
                "flow_and_monodromy": ("rhs_log", "jac_log"),
                "_run_horizon": ("rhs_log",)}
    for name, run in runs.items():
        counts.clear()
        final = run()
        assert counts["field"] > 0, name
        assert counts == dict.fromkeys(("field", *expected[name]),
                                       counts["field"]), name
        assert final.tobytes() == finals[name].tobytes(), name


def test_reproduce_unknown_bundle(tmp_path):
    with pytest.raises(ConfigError):
        cmd_reproduce("nonsense", tmp_path)


def test_reproduce_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert cmd_reproduce("remark-constant", out) == EXIT_OK
    for name in ("manifest.json", "check_report.json", "orbit_report.json",
                 "trajectory.csv", "orbit.csv"):
        fa = (a / "remark-constant" / name).read_bytes()
        fb = (b / "remark-constant" / name).read_bytes()
        assert fa == fb, f"{name} differs between identical runs"


GOLDEN_BYTES = json.loads((Path(__file__).parent / "golden_bytes.json").read_text())


def _assert_golden(directory, pinned, label):
    for name, digest in pinned.items():
        data = (directory / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, \
            f"{label}/{name} differs from its golden bytes"


def test_reproduce_bytes_match_golden_hashes(tmp_path):
    """The reproduce artifacts pinned in golden_bytes.json, byte for byte."""
    for which, pinned in GOLDEN_BYTES["reproduce"].items():
        cmd_reproduce(which, tmp_path)
        _assert_golden(tmp_path / which, pinned, which)


def test_find_orbit_bytes_match_golden_hashes(tmp_path):
    """find-orbit on committed configs mixing coefficient kinds (sinusoid r1,
    constant r2, Fourier beta1, constant beta2), byte for byte."""
    for name, pinned in GOLDEN_BYTES["find-orbit"].items():
        config = Path(__file__).parent / name
        out = tmp_path / name
        assert main(["find-orbit", "--config", str(config), "--out", str(out)]) == EXIT_OK
        _assert_golden(out, pinned, name)


def _outputs_digest(directory):
    """One sha256 over every file a run wrote, in name order, each as its
    name, a NUL byte and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_forced_orbits_bytes_match_golden_hashes(tmp_path):
    """find-orbit on the benchmark's 24 seed-11 ``forced-orbits`` configs,
    the success path with monodromy runs, line search and orbit
    sampling: every output byte, one digest per config."""
    pinned = GOLDEN_BYTES["forced-orbits"]["11"]
    paths = workloads.write_configs(workloads.generate_configs("forced-orbits", 11),
                                    tmp_path / "configs")
    assert [path.name for path in paths] == sorted(pinned)
    for path in paths:
        out = tmp_path / path.stem
        assert main(["find-orbit", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert _outputs_digest(out) == pinned[path.name], path.name


def test_check_bytes_match_golden_hashes(tmp_path):
    """check on committed configs whose extrema are taken over a
    half-period window: Fourier extrema refined on the window, then again
    over the full period for the positivity audit, byte for byte."""
    for name, pinned in GOLDEN_BYTES["check"].items():
        config = Path(__file__).parent / name
        out = tmp_path / name
        assert main(["check", "--config", str(config), "--out", str(out)]) == EXIT_OK
        _assert_golden(out, pinned, name)


def test_the_parser_is_built_once_and_reused(tmp_path, capsys):
    """``main`` reuses one parser: two calls in one process, and a call
    after a usage error, write what a fresh process writes."""
    assert cli._build_parser() is cli._build_parser()
    config = str(Path(__file__).parent / "forced_mixed.json")
    commands = (("check", "check_report.json"),
                ("find-orbit", "orbit_report.json", "orbit.csv"))
    fresh = {}
    for command, *files in commands:
        out = tmp_path / "fresh" / command
        proc = run_python("-m", "phytoperiod.cli", command, "--config", config,
                          "--out", str(out))
        fresh[command] = proc.returncode, {f: (out / f).read_bytes() for f in files}

    def in_process(command, files, label):
        out = tmp_path / label / command
        code = main([command, "--config", config, "--out", str(out)])
        return code, {f: (out / f).read_bytes() for f in files}

    for command, *files in commands:
        assert in_process(command, files, "first") == fresh[command], command
    with pytest.raises(SystemExit) as exc_info:
        main(["check", "--out", str(tmp_path)])
    assert exc_info.value.code == EXIT_USAGE
    assert "--config" in capsys.readouterr().err
    for command, *files in commands:
        assert in_process(command, files, "after") == fresh[command], command


def test_reproduce_example1_golden_content(tmp_path):
    assert cmd_reproduce("example1", tmp_path) == EXIT_OK
    manifest = json.loads((tmp_path / "example1" / "manifest.json").read_text())
    by_name = {r["name"]: r for r in manifest["regressions"]}
    assert by_name["k2_r2M"]["actual"] == pytest.approx(5.4006, abs=1e-4)
    assert by_name["one_plus_w1_k1"]["actual"] == pytest.approx(161.0, abs=1e-4)
    assert by_name["m0_variant"]["actual"] == pytest.approx(0.0446, abs=1e-4)
    assert by_name["beta1M_m0"]["actual"] == pytest.approx(0.0223, abs=1e-4)
    assert by_name["r1L"]["actual"] == pytest.approx(0.03, abs=1e-4)
    assert by_name["r2L_k2"]["actual"] == pytest.approx(0.0006, abs=1e-4)
    assert by_name["a3_rhs"]["actual"] == pytest.approx(15600.9161, abs=1e-4)
    assert by_name["m0_canonical"]["actual"] == pytest.approx(0.033544, abs=1e-5)
    assert by_name["orbit_converged"]["actual"] is False
    orbit_doc = json.loads((tmp_path / "example1" / "orbit_report.json").read_text())
    assert orbit_doc["extinction"]["species"] == 2
    # the search stops heading to (k1, 0); the report keeps its defects
    assert orbit_doc["error"].startswith(
        "heading to the boundary state without species 2: ")
    last = orbit_doc["last_iterate"]
    assert last["iterations"] == 4
    assert len(last["defects"]) == 5
    assert last["defects"][-1] == last["residual_norm"]


def test_reproduce_remark_constant_steady(tmp_path):
    assert cmd_reproduce("remark-constant", tmp_path) == EXIT_OK
    manifest = json.loads(
        (tmp_path / "remark-constant" / "manifest.json").read_text())
    tail = manifest["tail_metrics"]
    assert tail["derivative_norm_at_end"] < 1e-7
    assert tail["tail_oscillation_amplitude"] < 1e-7
    by_name = {r["name"]: r for r in manifest["regressions"]}
    assert by_name["orbit_is_steady_state"]["actual"] is True
    # the settled state sits on the extinction boundary: x1 at capacity
    orbit_doc = json.loads(
        (tmp_path / "remark-constant" / "orbit_report.json").read_text())
    x0 = orbit_doc["orbit"]["x0"]
    assert x0[0] == pytest.approx(8.0, abs=1e-6)
    assert x0[1] < 1e-12
    # the multipliers of (k1, 0) in closed form, e^{-T r1} and e^{lambda2}
    mults = sorted(m["re"] for m in orbit_doc["orbit"]["floquet_multipliers"])
    assert mults[0] == pytest.approx(0.7396420010974705, abs=1e-11)
    assert mults[1] == pytest.approx(0.82820418130686, abs=1e-12)
    # no Newton search ran, so there is no floor; the stop rule says why
    assert orbit_doc["orbit"]["noise_floor"] is None
    assert orbit_doc["orbit"]["stop_rule"] == "steady_state"
    assert "degenerate_steady_state" not in orbit_doc["orbit"]


def test_remark_constant_prints_the_closed_form_multipliers(tmp_path):
    """The boundary state (k1, 0) has a triangular monodromy whose
    diagonal is in closed form, e^{-T r1_bar} and e^{lambda2}, and the
    multipliers of a triangular M are read off its diagonal: the report
    prints both bit for bit, not one ulp off as the quadratic formula
    gives them."""
    assert cmd_reproduce("remark-constant", tmp_path) == EXIT_OK
    doc = json.loads(
        (tmp_path / "remark-constant" / "orbit_report.json").read_text())
    model = load_bundled_config("remark-constant").model
    want = [math.exp(-model.period * model.r1.mean),
            math.exp(diagnose_extinction(model).rate_per_period)]
    assert want == [0.82820418130686, 0.7396420010974705]
    assert doc["orbit"]["floquet_multipliers"] == [{"re": m, "im": 0.0}
                                                   for m in want]



# --- golden rows ----------------------------------------------------------

def golden(which):
    return cli._bundled_json(
        cli._BUNDLED[which].removesuffix(".json") + "_golden.json")


DOCUMENTS = {"config": {"m0": 0.0446, "all_conditions_hold": True},
             "orbit": {"converged": False, "orbit": {"stop_rule": "steady_state"}},
             "tail": {"amplitude": 0.2}}


@pytest.mark.parametrize("row, actual, ok", [
    ({"value": "tail.amplitude", "below": 0.1, "expected": True}, False, False),
    ({"value": "tail.amplitude", "below": 0.3, "expected": True}, True, True),
    ({"value": "tail.amplitude", "above": 0.1, "expected": True}, True, True),
    ({"value": "tail.amplitude", "above": 0.3, "expected": True}, False, False),
    ({"value": "orbit.orbit.stop_rule", "equals": "steady_state",
      "expected": True}, True, True),
    ({"value": "orbit.orbit.stop_rule", "equals": "max_iter",
      "expected": True}, False, False),
    ({"value": "orbit.converged", "expected": False}, False, True),
    ({"value": "config.all_conditions_hold", "expected": False}, True, False),
    ({"value": "tail.missing", "below": 0.1, "expected": True}, None, False),
    ({"value": "orbit.orbit.stop_rule.deeper", "expected": True}, None, False),
    ({"value": "canonical.m0", "expected": 0.0446, "tol": 1e-4}, None, False),
], ids=["below-false", "below-true", "above-true", "above-false",
        "equals-true", "equals-false", "bool-equal", "bool-unequal",
        "absent-compared", "path-through-a-leaf", "absent-number"])
def test_golden_row_comparators(row, actual, ok):
    result = cli._regression({"name": "r", **row}, DOCUMENTS)
    assert result == {"name": "r", "actual": actual, "expected": row["expected"],
                      "tol": row.get("tol"), "delta": None, "pass": ok}


@pytest.mark.parametrize("expected, ok", [(0.0447, True), (0.0448, False)])
def test_golden_row_numbers_compare_within_tol(expected, ok):
    result = cli._regression({"name": "m0", "value": "config.m0",
                              "expected": expected, "tol": 1.5e-4}, DOCUMENTS)
    assert result["actual"] == 0.0446
    assert result["delta"] == pytest.approx(abs(expected - 0.0446))
    assert result["tol"] == 1.5e-4
    assert result["pass"] is ok


def test_golden_notes_leave_out_templates_with_absent_keys():
    rows, notes = cli._evaluate(
        {"regressions": [], "notes": ["amplitude {tail[amplitude]:.1e}",
                                      "{orbit[extinction][description]}",
                                      "{nothing}"]}, DOCUMENTS)
    assert rows == []
    assert notes == ["amplitude 2.0e-01"]


_ROW_KEYS = {"name", "value", "expected", "tol", *cli._COMPARATORS}


@pytest.mark.parametrize("which", sorted(cli._BUNDLED))
def test_golden_files_follow_the_row_schema(which):
    doc = golden(which)
    assert set(doc) == {"regressions", "notes"}
    rows = doc["regressions"]
    assert len({row["name"] for row in rows}) == len(rows)
    for row in rows:
        assert set(row) <= _ROW_KEYS, row
        assert {"name", "value", "expected"} <= set(row), row
        assert len(set(row) & set(cli._COMPARATORS)) <= 1, row
        assert row["value"].split(".")[0] in {"config", "canonical", "orbit",
                                              "tail"}, row
        numeric = not isinstance(row["expected"], bool)
        assert ("tol" in row) == numeric, row
        if numeric:
            assert isinstance(row["expected"], (int, float)), row
    assert all(isinstance(note, str) for note in doc["notes"])


@pytest.mark.parametrize("which", sorted(cli._BUNDLED))
def test_golden_files_hold_the_rows_the_benchmark_requires(which):
    names = {row["name"] for row in golden(which)["regressions"]}
    assert workloads._REQUIRED_ROWS[which] <= names


def test_reproduce_keeps_its_rows_when_the_search_fails_undiagnosed(
        tmp_path, monkeypatch):
    """A search that fails with no extinction diagnosis fails the decay
    row at ``actual`` None and leaves its note out; the manifest keeps
    every row of the golden file, in order."""
    def fail(*args, **kwargs):
        raise cli.OrbitSearchError("no diagnosis", residual=1.0, iterations=2)
    monkeypatch.setattr(cli, "find_periodic_orbit", fail)
    assert cmd_reproduce("example1", tmp_path) == EXIT_CHECK_FAILED
    manifest = json.loads((tmp_path / "example1" / "manifest.json").read_text())
    assert manifest["pass"] is False
    rows = manifest["regressions"]
    assert [r["name"] for r in rows] == [
        r["name"] for r in golden("example1")["regressions"]]
    by_name = {r["name"]: r for r in rows}
    assert by_name["species2_decay_per_period"] == {
        "name": "species2_decay_per_period", "actual": None,
        "expected": -0.30159, "tol": 5e-3, "delta": None, "pass": False}
    assert [r["name"] for r in rows if not r["pass"]] == [
        "species2_decay_per_period"]
    assert len(manifest["notes"]) == 1
    assert manifest["notes"][0].startswith("tail period defect ")

def horizon_log_state(cfg, m):
    """z(mT) of the configured run: the log-frame flow from
    ln(initial_state) over [0, horizon], sampled at mT (its final state
    when mT is the horizon)."""
    t = min(m * cfg.model.period, cfg.horizon)
    traj = integrate(functools.partial(rhs_log, cfg.model), 0.0,
                     np.log(np.array(cfg.initial_state)), cfg.horizon,
                     cfg.integrator, t_eval=[t])
    return traj.states[traj.times.tolist().index(t)]


@pytest.mark.parametrize("which, m", [("example1", 20),
                                      ("remark-constant", 199)])
def test_the_reproduce_seed_continues_the_horizon_run(tmp_path, which, m):
    """``reproduce`` seeds from the horizon run's z(mT), with
    m = min(n - 1, floor(horizon / T)) for n = seed_periods: example1's
    horizon is 20 periods and remark-constant's 200-period seed lies
    inside its 238.7.  The reported seed is, bit for bit,
    ``seed_by_transient`` from there for the n - m remaining periods, and
    within 1e-8 of the seed integrated from initial_state."""
    assert cmd_reproduce(which, tmp_path) == EXIT_OK
    doc = json.loads((tmp_path / which / "orbit_report.json").read_text())
    cfg = load_bundled_config(which)
    n = cfg.seed_periods
    shared = seed_by_transient(cfg.model, horizon_log_state(cfg, m), n - m,
                               cfg.integrator)
    assert doc["seed"]["z"] == shared.z.tolist()
    assert doc["seed"]["contraction"] == shared.contraction
    assert doc["seed"]["periods"] == n
    scratch = seed_by_transient(cfg.model, np.log(np.array(cfg.initial_state)),
                                n, cfg.integrator)
    assert np.max(np.abs(shared.z - scratch.z)) < 1e-8


@pytest.mark.parametrize("periods, seed_periods, m", [
    (8.0, 20, 8),       # mT is the horizon: the run's final state
    (8.3, 8, 7),        # mT = (n - 1)T, inside the tail's last two periods
    (8.0, 8, 7),        # the same, on one of the tail's samples
    (8.3, 20, 8),       # (n - 1)T lies past the horizon: the seed runs on
])
def test_the_seed_starts_where_the_horizon_run_is_after_m_periods(
        tmp_path, periods, seed_periods, m):
    """``_simulate_with_tail`` hands the seed z(mT) of its own run.  The
    seed's sample shifts none of the tail's: trajectory.csv and the tail
    metrics are those of a 2-period seed, whose point T lies before the
    tail.  ``_find_orbit`` then seeds with ``seed_by_transient`` from
    z(mT) for the n - m remaining periods, within 1e-8 of the seed from
    initial_state, and still reports n periods."""
    def simulate(n, out):
        cfg = parse_config(minimal_config(horizon=periods * TWO_PI,
                                          seed_periods=n))
        out.mkdir()
        tail, start = cli._simulate_with_tail(cfg, out)
        return cfg, tail, start, (out / "trajectory.csv").read_bytes()

    cfg, tail, start, csv = simulate(seed_periods, tmp_path / "shared")
    _, ref_tail, (_, one), ref_csv = simulate(2, tmp_path / "reference")
    assert (start[1], one) == (m, 1)
    assert tail == ref_tail
    assert csv == ref_csv
    assert start[0].tobytes() == horizon_log_state(cfg, m).tobytes()
    doc, _ = cli._find_orbit(cfg, cli._bounds(cfg), tmp_path / "shared", start)
    shared = seed_by_transient(cfg.model, start[0], seed_periods - m,
                               cfg.integrator)
    assert doc["seed"]["z"] == shared.z.tolist()
    assert doc["seed"]["periods"] == seed_periods
    scratch = seed_by_transient(cfg.model, np.log(np.array(cfg.initial_state)),
                                seed_periods, cfg.integrator)
    assert np.max(np.abs(shared.z - scratch.z)) < 1e-8


def log_field_oracle(params):
    """The log-frame field written out from the model equations on the
    coefficients' own evaluation, sharing no code with the generated
    field kernels."""
    def field(t, z):
        u, v = np.exp(z)
        r1, r2, b1, b2 = (c(t) for c in params.coefficients().values())
        return [r1 * (1.0 - u / params.k1) - b1 * v,
                r2 * (1.0 / (1.0 + params.w1 * u) - v / params.k2)
                - b2 * u - params.w2 * u * v]
    return field


@pytest.mark.parametrize("which", ["example1", "remark-constant"])
def test_trajectory_csv_matches_an_independent_integration(tmp_path, which):
    """Every density of trajectory.csv lies within 1e-8 relative of
    scipy's DOP853 at rtol = atol = 1e-13, taken in the log frame and
    evaluated at the CSV times.  remark-constant's x2 falls to 4e-29, far
    below abs_tol, so only a relative gate sees its error."""
    from scipy.integrate import solve_ivp

    assert cmd_reproduce(which, tmp_path) == EXIT_OK
    rows = np.loadtxt(tmp_path / which / "trajectory.csv", delimiter=",",
                      skiprows=1)
    cfg = load_bundled_config(which)
    ref = solve_ivp(log_field_oracle(cfg.model), (0.0, cfg.horizon),
                    np.log(cfg.initial_state), method="DOP853", rtol=1e-13,
                    atol=1e-13, t_eval=rows[:, 0])
    assert ref.success
    x_ref = np.exp(ref.y.T)
    assert np.max(np.abs(rows[:, 1:] - x_ref) / x_ref) < 1e-8


def test_remark_constant_orbit_csv_holds_the_integrated_densities(tmp_path):
    """orbit.csv holds, value for value, one original-frame period from
    exp of the 200-period seed, sampled at the 255 interior points.  The
    seed is the one period from z(199 T) of the horizon run."""
    assert cmd_reproduce("remark-constant", tmp_path) == EXIT_OK
    rows = np.loadtxt(tmp_path / "remark-constant" / "orbit.csv",
                      delimiter=",", skiprows=1)
    cfg = load_bundled_config("remark-constant")
    model, T = cfg.model, cfg.model.period
    seed = seed_by_transient(model, horizon_log_state(cfg, 199), 1,
                             cfg.integrator)
    ts = np.linspace(0.0, T, 257)
    traj = integrate(functools.partial(rhs_original, model), 0.0,
                     np.exp(seed.z), T, cfg.integrator, t_eval=ts[1:-1])
    assert rows.shape == (257, 3)
    assert rows[:, 0].tobytes() == traj.times.tobytes()
    assert rows[:, 1:].tobytes() == traj.states.tobytes()


def test_reports_are_strict_json(tmp_path):
    cfg = load_bundled_config("example1")
    cmd_check(cfg, tmp_path)
    text = (tmp_path / "check_report.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    json.loads(text)


def test_sanitize_nulls_the_non_finite_floats_at_any_depth():
    report = {"a": math.nan, "b": [1.5, math.inf, (-math.inf, 2)],
              "c": {"d": (math.nan, {"e": -math.inf}), "f": -0.0,
                    "g": 1e308, "h": 5e-324, "i": "NaN", "j": None,
                    "k": True, "l": 7}}
    assert cli._sanitize(report) == {
        "a": None, "b": [1.5, None, [None, 2]],
        "c": {"d": [None, {"e": None}], "f": -0.0, "g": 1e308, "h": 5e-324,
              "i": "NaN", "j": None, "k": True, "l": 7}}
