"""Config-driven experiment driver.

Subcommands:

* ``check``      -- condition verdicts, bound ladder and averaged-system
  diagnostics as a JSON report.  Exit 0 iff all three conditions hold.
* ``simulate``   -- integrate the model from the configured initial
  state and write the trajectory as CSV (t,x1,x2).
* ``find-orbit`` -- transient seeding, periodic-orbit shooting, bound
  verification; JSON report plus orbit CSV.
* ``reproduce``  -- run a bundled demo config ("example1" with
  oscillating rates, "remark-constant" with constant rates) end to end
  and regression-check the results against the rows of its golden file
  (``configs/<config stem>_golden.json``).  A row names a value by a
  dotted path into the bound report of the config's m0 denominator
  ("config") or of the canonical one ("canonical"), the orbit report
  ("orbit") or the tail metrics ("tail"); one evaluator serves every
  bundle, so a bundle is a config, a golden file and a ``_BUNDLED``
  entry.

Exit statuses: 0 success, 1 a requested check failed, 2 usage error.
All outputs are deterministic: identical configs produce bit-identical
files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import operator
import sys
from importlib import resources
from pathlib import Path
from types import MethodType

import numpy as np

from .averaged import DegenerateAveragedSystemError, averaged_equilibria
from .coefficients import PeriodicCoefficient
from .conditions import (BoundReport, DegenerateParameterError, M0_CANONICAL,
                         M0_VARIANT_K2, compute_bounds)
from .integrator import (IntegrationError, IntegratorConfig, Trajectory,
                         integrate, write_trajectory_csv)
from .model import _EXP_OVERFLOW, DomainOverflowError, ModelParams, rhs_log
from .orbit import (OrbitSearchError, PeriodicOrbit, detect_steady_state,
                    find_periodic_orbit, seed_by_transient, verify_bounds)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "cmd_check",
    "cmd_simulate",
    "cmd_find_orbit",
    "cmd_reproduce",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_BUNDLED = {"example1": "example1.json", "remark-constant": "remark_constant.json"}
# the one value of a config's integrator method, kept so that existing
# configs parse; every run steps by DOP853
_METHOD = "rk45-adaptive"
_INTEGRATOR_FIELDS = {"method",
                      *(f.name for f in dataclasses.fields(IntegratorConfig))}
_TOP_FIELDS = ("model", "integrator", "extremum_interval", "m0_denominator",
               "initial_state", "horizon", "seed_periods", "tolerances")
_MODEL_FIELDS = tuple(f.name for f in dataclasses.fields(ModelParams))


class ConfigError(ValueError):
    """Malformed experiment config; message carries the field path."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    model: ModelParams
    integrator: IntegratorConfig
    extremum_interval: tuple[float, float] | None
    m0_denominator: str
    initial_state: tuple[float, float]
    horizon: float
    seed_periods: int
    orbit_tol: float
    newton_max_iter: int


# --- config parsing ------------------------------------------------------

def _get(d, key, path, required=True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}: missing required field '{key}'")
        return default
    return d[key]


def _real(value, path):
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        # an int too big for a float makes isfinite raise OverflowError
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _pair(value, path, shape):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected {shape}")
    return _real(value[0], f"{path}[0]"), _real(value[1], f"{path}[1]")


def _count(value, path):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path}: expected a positive integer")
    return value


def _known(obj, fields, path):
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")


def _section(data, key, fields, required=False):
    value = _get(data, key, "config", required=required, default={})
    if not isinstance(value, dict):
        raise ConfigError(f"config.{key}: expected an object")
    _known(value, fields, f"config.{key}")
    return value


@contextlib.contextmanager
def _config_errors(path):
    """Re-raise a ValueError of the block as a ConfigError at ``path``; a
    ConfigError keeps its own, more specific path."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_coefficient(obj, path) -> PeriodicCoefficient:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a tagged object")
    kind = _get(obj, "kind", path)
    with _config_errors(path):
        if kind == "constant":
            _known(obj, ("kind", "value"), path)
            return PeriodicCoefficient.constant(_real(_get(obj, "value", path), f"{path}.value"))
        if kind == "sinusoid":
            _known(obj, ("kind", "mean", "amplitude", "omega", "phase"), path)
            return PeriodicCoefficient.sinusoid(
                mean=_real(_get(obj, "mean", path), f"{path}.mean"),
                amplitude=_real(_get(obj, "amplitude", path), f"{path}.amplitude"),
                omega=_real(_get(obj, "omega", path), f"{path}.omega"),
                phase=_real(_get(obj, "phase", path, required=False, default=0.0),
                            f"{path}.phase"))
        if kind == "fourier":
            _known(obj, ("kind", "mean", "harmonics", "omega"), path)
            harmonics = _get(obj, "harmonics", path)
            if not isinstance(harmonics, list):
                raise ConfigError(f"{path}.harmonics: expected a list of [cos, sin] pairs")
            pairs = [_pair(pair, f"{path}.harmonics[{i}]", "a [cos, sin] pair")
                     for i, pair in enumerate(harmonics)]
            return PeriodicCoefficient.fourier(
                mean=_real(_get(obj, "mean", path), f"{path}.mean"),
                harmonics=pairs,
                omega=_real(_get(obj, "omega", path), f"{path}.omega"))
    raise ConfigError(f"{path}.kind: unknown coefficient kind {kind!r}")


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")
    _known(data, _TOP_FIELDS, "config")
    mdl = _section(data, "model", _MODEL_FIELDS, required=True)
    coeffs = {name: parse_coefficient(_get(mdl, name, "config.model"),
                                      f"config.model.{name}")
              for name in ("r1", "r2", "beta1", "beta2")}
    with _config_errors("config.model"):
        model = ModelParams(
            r1=coeffs["r1"], r2=coeffs["r2"],
            beta1=coeffs["beta1"], beta2=coeffs["beta2"],
            **{name: _real(_get(mdl, name, "config.model"), f"config.model.{name}")
               for name in _MODEL_FIELDS[4:]})

    knobs = {}
    for key, value in _section(data, "integrator", _INTEGRATOR_FIELDS).items():
        path = f"config.integrator.{key}"
        if key == "method":
            if value != _METHOD:
                raise ConfigError(f"{path}: unknown integration method "
                                  f"{value!r}; the only method is {_METHOD!r}")
            continue
        knobs[key] = _real(value, path)
    with _config_errors("config.integrator"):
        integrator = IntegratorConfig(**knobs)

    interval = _get(data, "extremum_interval", "config", required=False)
    if interval is not None:
        interval = _pair(interval, "config.extremum_interval", "[a, b]")
        if not interval[0] < interval[1]:
            raise ConfigError("config.extremum_interval: need a < b")

    m0_denom = _get(data, "m0_denominator", "config", required=False,
                    default=M0_CANONICAL)
    if m0_denom not in (M0_CANONICAL, M0_VARIANT_K2):
        raise ConfigError(
            f"config.m0_denominator: expected '{M0_CANONICAL}' or "
            f"'{M0_VARIANT_K2}', got {m0_denom!r}")

    x1, x2 = _pair(_get(data, "initial_state", "config"),
                   "config.initial_state", "[x1, x2]")
    if x1 <= 0 or x2 <= 0:
        raise ConfigError("config.initial_state: densities must be positive")
    if max(x1, x2) > math.exp(_EXP_OVERFLOW):
        raise ConfigError(
            f"config.initial_state: densities must be at most "
            f"e^{_EXP_OVERFLOW:g} = {math.exp(_EXP_OVERFLOW):.6g}, the largest "
            f"the log frame represents")

    horizon = _real(_get(data, "horizon", "config"), "config.horizon")
    if horizon <= 0:
        raise ConfigError("config.horizon: must be positive")

    seed_periods = _count(_get(data, "seed_periods", "config", required=False,
                               default=30), "config.seed_periods")

    tols = _section(data, "tolerances", ("orbit_tol", "newton_max_iter"))
    orbit_tol = _real(tols.get("orbit_tol", 1e-12), "config.tolerances.orbit_tol")
    if orbit_tol <= 0:
        raise ConfigError("config.tolerances.orbit_tol: must be positive")
    max_iter = _count(tols.get("newton_max_iter", 25),
                      "config.tolerances.newton_max_iter")

    return ExperimentConfig(
        model=model, integrator=integrator, extremum_interval=interval,
        m0_denominator=m0_denom, initial_state=(x1, x2), horizon=horizon,
        seed_periods=seed_periods, orbit_tol=orbit_tol, newton_max_iter=max_iter)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: byte "
                          f"{exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    return parse_config(data)


# --- report helpers ------------------------------------------------------

def _sanitize(obj):
    """Replace non-finite floats by None so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def _averaged_diagnostics(model: ModelParams) -> dict:
    r1b, r2b, b1b, b2b = model.means()
    out: dict = {"means": {"r1": r1b, "r2": r2b, "beta1": b1b, "beta2": b2b}}
    try:
        roots = averaged_equilibria(model)
    except (DegenerateAveragedSystemError, ArithmeticError) as exc:
        out["roots"] = None
        out["newton"] = {"converged": False, "reason": str(exc)}
        return out
    out["roots"] = [root.to_dict() for root in roots]
    # deprecated alias of roots[0], kept for readers of the old report
    out["newton"] = ({"converged": True, "z": roots[0].z, "x": roots[0].x}
                     if roots else
                     {"converged": False,
                      "reason": "no root with x1 > 0 and x2 > 0"})
    return out


def _bounds(cfg: ExperimentConfig, m0_denominator: str | None = None) -> BoundReport:
    try:
        return compute_bounds(cfg.model, extremum_interval=cfg.extremum_interval,
                              m0_denominator=m0_denominator or cfg.m0_denominator)
    except DegenerateParameterError as exc:
        raise ConfigError(f"config.model: {exc}") from exc


def _check(cfg: ExperimentConfig, out_dir: Path) -> BoundReport:
    """Write check_report.json; returns the bound report behind it."""
    bounds = _bounds(cfg)
    _write_json(out_dir / "check_report.json",
                {"bounds": bounds.to_dict(),
                 "all_conditions_hold": bounds.all_conditions_hold(),
                 "averaged_system": _averaged_diagnostics(cfg.model)})
    return bounds


def _find_orbit(cfg: ExperimentConfig, bounds: BoundReport, out_dir: Path,
                start: tuple[np.ndarray, int] | None = None
                ) -> tuple[dict, PeriodicOrbit | None]:
    """Seed, shoot and write orbit_report.json (plus orbit.csv on success).

    The seed integrates ``seed_periods`` periods from initial_state.
    ``start`` = (z(mT), m) hands it the log state the configured run
    reached after m < seed_periods whole periods, so that it integrates
    only the remaining seed_periods - m.  Returns the report and the
    orbit, or None when the search failed.
    """
    model = cfg.model
    doc: dict = {"conditions": bounds.to_dict()}
    z_start, done = start or (_initial_log_state(cfg), 0)
    orbit = None
    try:
        seed = seed_by_transient(model, z_start, cfg.seed_periods - done,
                                 cfg.integrator)
        orbit = detect_steady_state(model, seed.z, cfg.integrator)
    except (IntegrationError, DomainOverflowError) as exc:
        doc["error"] = f"seeding failed: {exc}"
    else:
        doc["seed"] = {"z": [float(v) for v in seed.z],
                       "x": [float(math.exp(v)) for v in seed.z],
                       "periods": cfg.seed_periods,
                       "contraction": seed.contraction}
        if orbit is None:
            try:
                orbit = find_periodic_orbit(model, seed.z, tol=cfg.orbit_tol,
                                            max_iter=cfg.newton_max_iter,
                                            cfg=cfg.integrator)
            except OrbitSearchError as exc:
                doc["error"] = str(exc)
                doc["last_iterate"] = {
                    "z": None if exc.z_last is None else exc.z_last.tolist(),
                    "residual_norm": exc.residual,
                    "iterations": exc.iterations,
                    "defects": list(exc.residual_history),
                }
                if exc.diagnosis is not None:
                    doc["extinction"] = {
                        "species": exc.diagnosis.species,
                        "rate_per_period": exc.diagnosis.rate_per_period,
                        "description": exc.diagnosis.describe(),
                    }

    doc["converged"] = orbit is not None
    if orbit is not None:
        doc["orbit"] = orbit.to_dict()
        doc["bound_checks"] = [c.to_dict() for c in verify_bounds(orbit, bounds)]
        write_trajectory_csv(orbit.densities, out_dir / "orbit.csv")
    _write_json(out_dir / "orbit_report.json", doc)
    return doc, orbit


# --- subcommands ---------------------------------------------------------

def cmd_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    return EXIT_OK if _check(cfg, out_dir).all_conditions_hold() else EXIT_CHECK_FAILED


def _initial_log_state(cfg: ExperimentConfig) -> np.ndarray:
    return np.log(np.array(cfg.initial_state))


def _run_horizon(cfg: ExperimentConfig, out_dir: Path,
                 t_eval=None) -> Trajectory | None:
    """The configured run in the log frame, z(0) = ln(initial_state) over
    [0, horizon]: writes trajectory.csv, the densities x = exp(z) of the
    run's own rows, and returns the run.  A failed run writes nothing,
    prints one line naming the failure and returns None."""
    try:
        traj = integrate(MethodType(rhs_log, cfg.model), 0.0,
                         _initial_log_state(cfg), cfg.horizon, cfg.integrator,
                         t_eval=t_eval)
    except (IntegrationError, DomainOverflowError) as exc:
        # a DomainOverflowError comes from the field and carries no time
        where = (f" (last good time {exc.t})"
                 if isinstance(exc, IntegrationError) else "")
        print(f"integration failed: {exc}{where}", file=sys.stderr)
        return None
    rows = traj.steps or traj
    write_trajectory_csv(Trajectory(rows.times, np.exp(rows.states)),
                         out_dir / "trajectory.csv")
    return traj


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    return EXIT_CHECK_FAILED if _run_horizon(cfg, out_dir) is None else EXIT_OK


def cmd_find_orbit(cfg: ExperimentConfig, out_dir: Path) -> int:
    _doc, orbit = _find_orbit(cfg, _bounds(cfg), out_dir)
    return EXIT_CHECK_FAILED if orbit is None else EXIT_OK


# --- reproduction bundles ------------------------------------------------

def load_bundled_config(name: str) -> ExperimentConfig:
    if name not in _BUNDLED:
        raise ConfigError(f"unknown reproduction bundle {name!r}; "
                          f"choose one of {sorted(_BUNDLED)}")
    return parse_config(_bundled_json(_BUNDLED[name]))


@functools.cache
def _bundled_json(filename: str):
    """A file of the package's configs, parsed; it cannot change within a
    process, so each is read once.  Callers must not mutate the result."""
    return json.loads(resources.files("phytoperiod.configs")
                      .joinpath(filename).read_text())


def _simulate_with_tail(cfg: ExperimentConfig, out_dir: Path
                        ) -> tuple[dict, tuple[np.ndarray, int]] | None:
    """Run the horizon as ``simulate`` does and return late-time
    diagnostics from samples of the same run over its last two periods:

    * derivative norm of the state at the end of the horizon;
    * sup-norm mismatch between the last period and the one before it
      (small value = the tail repeats itself period over period);
    * oscillation amplitude over the last period.

    Also returns the start (z(mT), m) of the seed of :func:`_find_orbit`,
    with m = min(seed_periods - 1, floor(horizon / T)) whole periods:
    z(mT) is one more sample of the same run, or its final state when
    mT is the horizon.  Returns None when the run fails.
    """
    T = cfg.model.period
    n = 128
    t_end = cfg.horizon
    if t_end <= 2.0 * T:
        raise ConfigError("config.horizon: need more than two periods "
                          "for tail diagnostics")
    tail = [t_end - 2.0 * T + i * (T / n) for i in range(2 * n)] + [t_end]
    m = min(cfg.seed_periods - 1, math.floor(t_end / T))
    t_seed = min(m * T, t_end)     # m T rounds above t_end at most by ulps
    traj = _run_horizon(cfg, out_dir, [*tail, t_seed])
    if traj is None:
        return None
    # each sample is found by its time, so the seed's point, wherever it
    # falls, shifts none of the tail's
    states = np.exp(traj.states[np.searchsorted(traj.times, tail)])
    prev, last = states[:n], states[n:2 * n]
    period_defect = float(np.max(np.abs(last - prev)))
    amplitude = float(np.max(np.ptp(states[n:], axis=0)))
    x_end = np.exp(traj.final_state)
    deriv = x_end * rhs_log(cfg.model, t_end, traj.final_state)
    metrics = {
        "derivative_norm_at_end": float(np.max(np.abs(deriv))),
        "tail_period_defect": period_defect,
        "tail_oscillation_amplitude": amplitude,
        "final_state": [float(v) for v in x_end],
        "horizon": t_end,
    }
    return metrics, (traj.states[np.searchsorted(traj.times, t_seed)], m)


# a golden row with one of these keys checks ``value <op> row[key]``
_COMPARATORS = {"below": operator.lt, "above": operator.gt, "equals": operator.eq}


def _regression(row: dict, documents: dict) -> dict:
    """One manifest row from a golden row: the value at its dotted path
    into the documents (None when absent), through its comparator if it
    has one, against ``expected``: by equality for a boolean, within
    ``tol`` for a number.  An absent value fails."""
    actual = documents
    for key in row["value"].split("."):
        actual = actual.get(key) if isinstance(actual, dict) else None
    for key, compare in _COMPARATORS.items():
        if key in row and actual is not None:
            actual = compare(actual, row[key])
    expected, tol = row["expected"], row.get("tol")
    delta = (None if isinstance(expected, bool) or actual is None
             else abs(actual - expected))
    ok = actual == expected if delta is None else delta <= tol
    return {"name": row["name"], "actual": actual, "expected": expected,
            "tol": tol, "delta": delta, "pass": bool(ok)}


def _evaluate(golden: dict, documents: dict) -> tuple[list[dict], list[str]]:
    """The regression rows and notes of a bundle's golden file.  A note
    is a ``str.format_map`` template over the documents, left out when it
    names an absent key."""
    notes = []
    for template in golden["notes"]:
        with contextlib.suppress(KeyError):
            notes.append(template.format_map(documents))
    return [_regression(row, documents) for row in golden["regressions"]], notes


def cmd_reproduce(which: str, out_dir: Path) -> int:
    cfg = load_bundled_config(which)
    bundle_dir = out_dir / which
    bundle_dir.mkdir(parents=True, exist_ok=True)

    bounds = _check(cfg, bundle_dir)
    run = _simulate_with_tail(cfg, bundle_dir)
    if run is None:
        return EXIT_CHECK_FAILED
    tail, start = run
    orbit_doc, orbit = _find_orbit(cfg, bounds, bundle_dir, start)
    files = ["check_report.json", "trajectory.csv", "orbit_report.json"]
    if orbit is not None:
        files.append("orbit.csv")

    canonical = (bounds if cfg.m0_denominator == M0_CANONICAL
                 else _bounds(cfg, M0_CANONICAL))
    documents = {name: {**report.to_dict(),
                        "all_conditions_hold": report.all_conditions_hold()}
                 for name, report in (("config", bounds), ("canonical", canonical))}
    documents.update(orbit=orbit_doc, tail=tail)
    golden = _bundled_json(_BUNDLED[which].removesuffix(".json") + "_golden.json")
    regressions, notes = _evaluate(golden, documents)

    ok = all(r["pass"] for r in regressions)
    manifest = {
        "bundle": which,
        "files": files,
        "tail_metrics": tail,
        "regressions": regressions,
        "notes": notes,
        "pass": ok,
    }
    _write_json(bundle_dir / "manifest.json", manifest)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --- entry point ---------------------------------------------------------

# the subcommands that run one config: name -> (help, command)
_CONFIG_COMMANDS = {
    "check": ("condition and bound report", cmd_check),
    "simulate": ("trajectory CSV", cmd_simulate),
    "find-orbit": ("periodic-orbit search", cmd_find_orbit),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every
    later ``main`` call of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="phytoperiod",
        description="Periodic-solution toolkit for the two-species "
                    "competition model with fear and toxin effects")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _command) in _CONFIG_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory")
    rep = sub.add_parser("reproduce", help="run a bundled demo end to end")
    rep.add_argument("which", choices=sorted(_BUNDLED))
    rep.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    # reproduce writes into a directory of its bundle's name
    target = out_dir / args.which if args.command == "reproduce" else out_dir
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {target}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.which, out_dir)
        _help, command = _CONFIG_COMMANDS[args.command]
        return command(load_config(args.config), out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
