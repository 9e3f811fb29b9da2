"""The four benchmark workloads: seeded inputs, operations and output checks.

* ``example1``        -- ``reproduce example1``: the failure path (Newton
  stalls, the extinction diagnosis walks the flow period by period).
* ``remark-constant`` -- ``reproduce remark-constant``: long capped-step
  horizons, steady state short-circuits shooting (orbit layer bypassed).
* ``forced-orbits``   -- ``find-orbit`` on seeded forced coexistence
  configs: the success path (monodromy, Newton with line search,
  orbit sampling, bound verification).
* ``check-sweep``     -- ``check`` on seeded mixed-coefficient configs: the
  extrema, bound ladder and averaged-system layers, no integration.

The program only ever sees the generated config files (or its own
bundled configs); every check below reads the files an operation wrote.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from phytoperiod.cli import load_bundled_config, parse_config
from phytoperiod.integrator import IntegratorConfig, flow_and_monodromy
from phytoperiod.model import jac_log

WORKLOADS = ("example1", "remark-constant", "forced-orbits", "check-sweep")
BUNDLED = ("example1", "remark-constant")   # run as ``reproduce <name>``
PARAMS_FILE = Path(__file__).resolve().parent / "params.json"
TWO_PI = 2.0 * math.pi

# Timed operations a run makes at least.  latency_tail_s takes the highest
# percentile with ten samples beyond it, so it switches percentile at 40,
# 100 and 1000 operations; each minimum sits at or past the switch below the
# workload's usual count (about 20, 60, 120 and 2000 in a 20-second run),
# so that a slower host does not change which percentile is reported.
MIN_TIMED_OPS = {"example1": 20, "remark-constant": 40, "forced-orbits": 120,
                 "check-sweep": 1008}

# Counters the operations of each workload exercise at every commit that
# keeps its behaviour; zero there means the counter went blind.
MUST_OBSERVE = {
    "example1": ("model.rhs_log.calls", "model.rhs_original.calls",
                 "model.jac_log.calls", "integrator.evals_per_period.plain",
                 "integrator.evals_per_period.sampled"),
    "remark-constant": ("model.rhs_log.calls", "model.rhs_original.calls",
                        "model.jac_original.calls",
                        "integrator.evals_per_period.plain",
                        "integrator.evals_per_period.sampled"),
    "forced-orbits": ("model.rhs_log.calls", "model.rhs_original.calls",
                      "model.jac_log.calls", "integrator.evals_per_period.plain",
                      "integrator.evals_per_period.sampled"),
    "check-sweep": (),
}

# forced-orbits oracle: one period re-integrated at these tolerances
TIGHT = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
# (the worst values seen while choosing them: 8.5e-11, 2.2e-11, 1.4e-10)
PERIODICITY_TOL = 1e-8      # |z(T) - z0| at the tight tolerances
MONODROMY_TOL = 1e-8        # reported M against the tight one, relative to max(1, |M|)
LIOUVILLE_TOL = 1e-8        # |ln det M - int_0^T tr J dt| for the tight M

# check-sweep oracle
ORACLE_SAMPLES = 20001
AVERAGED_TOL = 1e-13        # solve_averaged's default tolerance
ROUNDING_ULPS = 16


def load_boxes() -> dict:
    with open(PARAMS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# --- input generation -----------------------------------------------------

def _num(x: float) -> float:
    return float(f"{x:.9g}")


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n draws in [lo, hi], one from each of n equal strata, shuffled.

    Stratifying keeps a pool's mix, and so its cost, close from one seed
    to the next while every value still moves with the seed.
    """
    cells = list(range(n))
    rng.shuffle(cells)
    return [_num(lo + (hi - lo) * (c + rng.random()) / n) for c in cells]


def _forced_configs(rng: random.Random, box: dict) -> list:
    n = box["pool_size"]
    omega = TWO_PI / box["period"]
    amp = _stratified(rng, n, *box["r1_amplitude"])
    phase = _stratified(rng, n, *box["r1_phase"])
    r2 = _stratified(rng, n, *box["r2"])
    harmonics = [[_stratified(rng, n, *box["beta1_harmonic_coeff"]) for _ in range(2)]
                 for _ in range(box["beta1_harmonics"])]
    logs = [_stratified(rng, n, math.log(lo), math.log(hi))
            for lo, hi in (box["x1_log_box"], box["x2_log_box"])]
    sp_lo, sp_hi = box["seed_periods"]
    docs = []
    for i in range(n):
        docs.append({
            "model": {
                "r1": {"kind": "sinusoid", "mean": box["r1_mean"],
                       "amplitude": amp[i], "omega": omega, "phase": phase[i]},
                "r2": {"kind": "constant", "value": r2[i]},
                "beta1": {"kind": "fourier", "mean": box["beta1_mean"], "omega": omega,
                          "harmonics": [[h[0][i], h[1][i]] for h in harmonics]},
                "beta2": {"kind": "constant", "value": box["beta2"]},
                "k1": box["k1"], "k2": box["k2"], "w1": box["w1"], "w2": box["w2"],
                "period": box["period"],
            },
            "integrator": {"method": "rk45-adaptive", "abs_tol": 1e-10, "rel_tol": 1e-10},
            "initial_state": [_num(math.exp(logs[0][i])), _num(math.exp(logs[1][i]))],
            "horizon": 10.0 * box["period"],
            "seed_periods": sp_lo + i % (sp_hi - sp_lo + 1),
            "tolerances": {"orbit_tol": box["orbit_tol"],
                           "newton_max_iter": box["newton_max_iter"]},
        })
    return docs


def _coefficient(rng: random.Random, kind: str, mean: float, rel_amp: float,
                 omega: float, n_harmonics: int) -> dict:
    if kind == "constant":
        return {"kind": "constant", "value": mean}
    amplitude = rel_amp * mean
    if kind == "sinusoid":
        return {"kind": "sinusoid", "mean": mean, "amplitude": _num(amplitude),
                "omega": omega, "phase": _num(rng.uniform(0.0, TWO_PI))}
    weights = [rng.random() + 0.1 for _ in range(n_harmonics)]
    total = sum(weights)
    pairs = []
    for w in weights:
        angle = rng.uniform(0.0, TWO_PI)
        share = amplitude * w / total
        pairs.append([_num(share * math.cos(angle)), _num(share * math.sin(angle))])
    return {"kind": "fourier", "mean": mean, "omega": omega, "harmonics": pairs}


def _check_configs(rng: random.Random, box: dict) -> list:
    n = box["pool_size"]
    patterns = box["kind_patterns"]
    omega = TWO_PI / box["period"]
    names = ("r1", "r2", "beta1", "beta2")
    means = {name: _stratified(rng, n, *box[f"{name}_mean"]) for name in names}
    rel = {name: _stratified(rng, n, *box["relative_amplitude"]) for name in names}
    scalars = {k: _stratified(rng, n, *box[k]) for k in ("k1", "k2", "w1", "w2")}
    docs = []
    for i in range(n):
        kinds = patterns[i % len(patterns)]
        block = i // len(patterns)
        model = {name: _coefficient(rng, kind, means[name][i], rel[name][i], omega,
                                    box["fourier_harmonics"])
                 for name, kind in zip(names, kinds)}
        model.update({k: v[i] for k, v in scalars.items()})
        model["period"] = box["period"]
        doc = {
            "model": model,
            "m0_denominator": "k2-paper-variant" if block // 2 % 2 else "k1",
            "initial_state": [0.5, 0.5],
            "horizon": 10.0 * box["period"],
        }
        if block % 2:
            doc["extremum_interval"] = [0.0, box["period"] / 2.0]
        docs.append(doc)
    return docs


def generate_configs(workload: str, seed: int) -> list:
    """Config documents for one run; empty for the bundled workloads."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    if workload in BUNDLED:
        return []
    rng = random.Random(f"{workload}:{seed}")
    box = load_boxes()[workload]
    return (_forced_configs if workload == "forced-orbits" else _check_configs)(rng, box)


def config_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def write_configs(docs: list, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = directory / f"cfg-{i:03d}.json"
        path.write_bytes(config_bytes(doc))
        paths.append(path)
    return paths


def op_argv(workload: str, config_path, out_dir) -> list:
    if workload in BUNDLED:
        return ["reproduce", workload, "--out", str(out_dir)]
    command = "find-orbit" if workload == "forced-orbits" else "check"
    return [command, "--config", str(config_path), "--out", str(out_dir)]


def op_period(workload: str, doc) -> float:
    if doc is None:
        return load_bundled_config(workload).model.period
    return doc["model"]["period"]


# --- output checks ----------------------------------------------------------

def check_output(workload: str, doc, out_dir: Path, status) -> str | None:
    """Why the operation's output is wrong, or None when it passes."""
    if workload in BUNDLED:
        return _check_reproduce(workload, out_dir, status)
    if workload == "forced-orbits":
        return _check_orbit(doc, out_dir, status)
    return _check_conditions(doc, out_dir, status)


_REQUIRED_ROWS = {
    "example1": {"orbit_converged", "species2_decay_per_period",
                 "conditions_all_true"},
    "remark-constant": {"steady_state", "orbit_found", "orbit_is_steady_state",
                        "conditions_all_true"},
}


def _check_reproduce(bundle: str, out_dir: Path, status) -> str | None:
    if status != 0:
        return f"exit status {status}, expected 0"
    manifest = json.loads((out_dir / bundle / "manifest.json").read_text())
    rows = {r["name"]: r for r in manifest["regressions"]}
    missing = _REQUIRED_ROWS[bundle] - rows.keys()
    if missing:
        return f"manifest lacks regression rows {sorted(missing)}"
    failing = sorted(name for name, r in rows.items() if not r["pass"])
    if failing or not manifest["pass"]:
        return f"regression rows failed: {failing}"
    if bundle == "example1" and rows["orbit_converged"]["actual"] is not False:
        return "example1 orbit search reported convergence"
    return None


def _check_orbit(doc: dict, out_dir: Path, status) -> str | None:
    if status != 0:
        return f"exit status {status}, expected 0"
    report = json.loads((out_dir / "orbit_report.json").read_text())
    if report.get("converged") is not True:
        return f"orbit search did not converge: {report.get('error')}"
    orbit = report["orbit"]
    tol = doc["tolerances"]["orbit_tol"]
    if not orbit["residual_norm"] <= tol:
        return f"residual {orbit['residual_norm']:.3e} above orbit_tol {tol:.1e}"
    if orbit["stable"] is not True:
        return "orbit reported unstable"

    params = parse_config(doc).model
    z0 = np.array(orbit["z0"])
    M = np.array(orbit["monodromy"])
    zT, M_tight = flow_and_monodromy(params, z0, TIGHT)
    drift = float(np.max(np.abs(zT - z0)))
    if drift > PERIODICITY_TOL:
        return f"tight re-integration drifts {drift:.3e} over one period"
    m_err = float(np.max(np.abs(M - M_tight))) / max(1.0, float(np.max(np.abs(M_tight))))
    if m_err > MONODROMY_TOL:
        return f"monodromy differs from tight re-integration by {m_err:.3e}"

    # Liouville: det M = exp(int_0^T tr J dt); the samples are equally
    # spaced over one period, where the trapezoid rule is spectrally exact
    samples = np.loadtxt(out_dir / "orbit.csv", delimiter=",", skiprows=1)
    t, z = samples[:, 0], np.log(samples[:, 1:])
    if abs(t[0]) > 0.0 or abs(t[-1] - params.period) > 1e-12 * params.period:
        return "orbit.csv does not span exactly one period"
    traces = np.array([np.trace(jac_log(params, ti, zi)) for ti, zi in zip(t, z)])
    integral = float(np.sum((traces[1:] + traces[:-1]) * np.diff(t)) / 2.0)
    det = float(np.linalg.det(M_tight))
    if not det > 0.0:
        return f"monodromy has det {det:.3e} <= 0"
    gap = abs(math.log(det) - integral)
    if gap > LIOUVILLE_TOL:
        return f"Liouville identity off by {gap:.3e}"
    return None


def _coefficient_samples(spec: dict, ts: np.ndarray):
    """Samples of a coefficient and a bound on its second derivative."""
    kind = spec["kind"]
    if kind == "constant":
        return np.full_like(ts, spec["value"]), 0.0
    w = spec["omega"]
    if kind == "sinusoid":
        return (spec["mean"] + spec["amplitude"] * np.sin(w * ts + spec["phase"]),
                abs(spec["amplitude"]) * w * w)
    vals = np.full_like(ts, spec["mean"])
    curvature = 0.0
    for k, (a, b) in enumerate(spec["harmonics"], start=1):
        vals += a * np.cos(k * w * ts) + b * np.sin(k * w * ts)
        curvature += (abs(a) + abs(b)) * (k * w) ** 2
    return vals, curvature


def oracle_verdicts(doc: dict) -> dict:
    """(A1)-(A3) from dense sampling: True, False, or None when a margin
    lies within the sampling error."""
    model = doc["model"]
    a, b = doc.get("extremum_interval") or (0.0, model["period"])
    ts = np.linspace(a, b, ORACLE_SAMPLES)
    h = (b - a) / (ORACLE_SAMPLES - 1)
    box = {}
    for name in ("r1", "r2", "beta1"):
        vals, curvature = _coefficient_samples(model[name], ts)
        lo, hi = float(vals.min()), float(vals.max())
        err = curvature * h * h / 8.0 + 1e-12 * max(1.0, abs(lo), abs(hi))
        box[name] = ((lo - err, lo), (hi, hi + err))
    k1, k2, w1, w2 = model["k1"], model["k2"], model["w1"], model["w2"]
    denom_k = k2 if doc.get("m0_denominator") == "k2-paper-variant" else k1

    def margins(r1L, r2L, r2M, b1M):
        m0 = k2 * r2M / (1.0 + w1 * denom_k)
        return ((1.0 + w1 * k1) - k2 * r2M,
                r1L - b1M * m0,
                (1.0 + w1 * k1) * (r2M + w2 * k2 * k1) - r2L * k2)

    corners = [margins(r1L, r2L, r2M, b1M)
               for r1L in box["r1"][0] for r2L in box["r2"][0]
               for r2M in box["r2"][1] for b1M in box["beta1"][1]]
    verdicts = {}
    for i, key in enumerate(("A1", "A2", "A3")):
        values = [c[i] for c in corners]
        verdicts[key] = (True if min(values) > 0.0
                         else False if max(values) < 0.0 else None)
    return verdicts


def averaged_residual_norm(doc: dict, z) -> tuple:
    """Residual of the mu = 1 averaged system, in plain numpy, and the
    size of its largest term."""
    model = doc["model"]
    means = [model[n].get("mean", model[n].get("value")) for n in ("r1", "r2", "beta1", "beta2")]
    r1b, r2b, b1b, b2b = means
    u, v = np.exp(np.asarray(z, dtype=float))
    k1, k2, w1, w2 = model["k1"], model["k2"], model["w1"], model["w2"]
    terms1 = (r1b, r1b * u / k1, b1b * v)
    terms2 = (r2b * v / k2, b2b * u, w2 * u * v, r2b / (1.0 + w1 * u))
    res1 = terms1[0] - terms1[1] - terms1[2]
    res2 = -terms2[0] - terms2[1] - terms2[2] + terms2[3]
    scale = max(abs(float(x)) for x in terms1 + terms2)
    return max(abs(float(res1)), abs(float(res2))), scale


def _check_conditions(doc: dict, out_dir: Path, status) -> str | None:
    if status not in (0, 1):
        return f"exit status {status}, expected 0 or 1"
    report = json.loads((out_dir / "check_report.json").read_text())
    if report["all_conditions_hold"] != (status == 0):
        return f"exit status {status} contradicts all_conditions_hold"
    oracle = oracle_verdicts(doc)
    for key, expected in oracle.items():
        if expected is not None and report["bounds"][key] != expected:
            return f"{key} reported {report['bounds'][key]}, oracle says {expected}"
    decided = [v for v in oracle.values() if v is not None]
    if False in decided and status != 1:
        return "exit 0 although the oracle finds a condition violated"
    if len(decided) == 3 and all(decided) and status != 0:
        return "exit 1 although the oracle finds all conditions hold"
    newton = report["averaged_system"]["newton"]
    if newton["converged"]:
        rnorm, scale = averaged_residual_norm(doc, newton["z"])
        allowed = AVERAGED_TOL + ROUNDING_ULPS * np.finfo(float).eps * scale
        if not rnorm < allowed:
            return f"averaged root residual {rnorm:.3e} above tolerance {allowed:.3e}"
    return None
