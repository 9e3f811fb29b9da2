"""Shooting solver, degenerate-case handling and bound verification."""

import math

import numpy as np
import pytest
from conftest import newton_equilibrium

from phytoperiod import (BoundCheck, IntegratorConfig, NonConvergenceError,
                         OrbitSearchError, PeriodicOrbit, StepUnderflowError,
                         Trajectory,
                         compute_bounds, detect_steady_state,
                         diagnose_extinction, find_periodic_orbit, flow_map,
                         integrate, rhs_log, seed_by_transient, verify_bounds)

TWO_PI = 2.0 * math.pi


# --- seeding -------------------------------------------------------------

def test_seed_reaches_stable_equilibrium(coexist_params, cfg):
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    res = seed_by_transient(coexist_params, np.log(xeq) + 0.4, 50, cfg)
    assert np.max(np.abs(res.z - np.log(xeq))) < 1e-6
    assert res.contraction < 1e-6


def test_seed_from_fixed_point_stays_put(forced_params, cfg):
    orbit = find_periodic_orbit(forced_params, np.array([0.64, -0.18]),
                                tol=1e-12, cfg=cfg)
    res = seed_by_transient(forced_params, orbit.z0, 3, cfg)
    assert np.max(np.abs(res.z - orbit.z0)) < 1e-7


def test_seed_demo_transient_still_drifting(ex1_params, cfg):
    """The oscillating demo is far from settled after 30 periods: the
    mean growth rate 0.03 gives a settling time of hundreds of periods,
    so the per-period drift is still of order 0.1."""
    res = seed_by_transient(ex1_params, np.log([0.002, 0.002]), 30, cfg)
    assert 0.1 < res.contraction < 0.3


def test_seed_validates_period_count(ex1_params, cfg):
    with pytest.raises(ValueError):
        seed_by_transient(ex1_params, np.zeros(2), 0, cfg)


# --- positive path: genuine periodic orbit -------------------------------

@pytest.fixture(scope="module")
def forced_orbit(forced_params):
    cfg = IntegratorConfig()
    seed = seed_by_transient(forced_params, np.log([1.0, 0.5]), 20, cfg)
    return find_periodic_orbit(forced_params, seed.z, tol=1e-11, max_iter=25,
                               cfg=cfg)


def test_forced_orbit_converges(forced_orbit):
    assert forced_orbit.residual_norm < 1e-11
    assert forced_orbit.newton_iterations <= 10
    assert len(forced_orbit.orbit_samples.times) >= 256


def test_forced_orbit_is_stable(forced_orbit):
    mults = forced_orbit.floquet_multipliers
    assert all(abs(m) < 1.0 for m in mults)
    assert forced_orbit.stable


def test_floquet_det_trace_consistency(forced_orbit):
    M = forced_orbit.monodromy
    m1, m2 = forced_orbit.floquet_multipliers
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    tr = M[0, 0] + M[1, 1]
    assert abs(m1 * m2 - det) < 1e-10
    assert abs((m1 + m2) - tr) < 1e-10


def test_forced_orbit_frame_invariance(forced_params, forced_orbit, cfg_tight):
    x_traj = forced_orbit.orbit_samples.to_original()
    x0, xT = x_traj.states[0], x_traj.states[-1]
    assert np.max(np.abs(xT - x0) / np.abs(x0)) < 1e-8
    assert np.all(x_traj.states > 0.0)


def test_forced_orbit_persistence(forced_params, forced_orbit, cfg):
    """Stable orbit: 5 more periods drift less than 100x the tolerance."""
    z = forced_orbit.z0
    for _ in range(5):
        z = flow_map(forced_params, z, cfg)
    assert np.max(np.abs(z - forced_orbit.z0)) < 100 * 1e-11


def test_forced_orbit_local_uniqueness(forced_params, forced_orbit, cfg_tight):
    # orbit tolerance must sit above the integration noise floor, hence
    # the tighter stepper tolerances for this 1e-11 shooting target
    perturbed = find_periodic_orbit(forced_params, forced_orbit.z0 + 1e-4,
                                    tol=1e-11, cfg=cfg_tight)
    assert np.max(np.abs(perturbed.z0 - forced_orbit.z0)) < 1e-8


def test_newton_quadratic_convergence(forced_params, cfg_tight):
    orbit = find_periodic_orbit(forced_params,
                                np.array([0.642756, -0.18257327]) + 0.05,
                                tol=1e-13, max_iter=30, cfg=cfg_tight)
    hist = orbit.residual_history
    print(f"\n  residual history: {[f'{r:.2e}' for r in hist]}")
    pairs = [(a, b) for a, b in zip(hist, hist[1:]) if 1e-8 < a < 1e-4]
    assert pairs, "no residuals in the quadratic window"
    for r_k, r_next in pairs:
        assert r_next <= 100.0 * r_k * r_k


def test_constant_coefficients_orbit_is_equilibrium(coexist_params, cfg):
    """Autonomous case: the periodic solution is the interior equilibrium."""
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    orbit = find_periodic_orbit(coexist_params, np.log(xeq) + 0.3,
                                tol=1e-12, cfg=cfg)
    assert np.max(np.abs(np.exp(orbit.z0) - xeq)) < 1e-9
    spread = np.ptp(orbit.orbit_samples.states, axis=0)
    assert np.max(spread) < 1e-9


# --- failure paths -------------------------------------------------------

def test_nonconvergence_reports_last_residual(forced_params, cfg):
    with pytest.raises(NonConvergenceError) as exc_info:
        find_periodic_orbit(forced_params, np.array([0.0, -0.5]),
                            tol=1e-30, max_iter=2, cfg=cfg)
    err = exc_info.value
    assert err.residual is not None and err.iterations == 2
    assert err.z_last is not None


def test_demo_orbit_search_detects_extinction(ex1_params, cfg):
    """The oscillating demo has no interior fixed point of the period
    map: the second species dies out at rate ~0.30 per period (its
    growth is crushed by the fear denominator 1 + w1*k1 = 161 while the
    toxin terms drain it), so the search must fail with that diagnosis."""
    seed = seed_by_transient(ex1_params, np.log([0.002, 0.002]), 30, cfg)
    with pytest.raises(OrbitSearchError) as exc_info:
        find_periodic_orbit(ex1_params, seed.z, tol=1e-10, max_iter=10, cfg=cfg)
    diag = exc_info.value.diagnosis
    assert diag is not None and diag.species == 2
    assert diag.rate_per_period == pytest.approx(-0.30159, abs=5e-3)


def test_tol_validation(forced_params, cfg):
    with pytest.raises(ValueError):
        find_periodic_orbit(forced_params, np.zeros(2), tol=0.0, cfg=cfg)


def _raiser(exc):
    def flow_map(*args, **kwargs):
        raise exc
    return flow_map


def test_integration_failures_stall_the_line_search(forced_params, cfg,
                                                    monkeypatch):
    monkeypatch.setattr("phytoperiod.orbit.flow_map",
                        _raiser(StepUnderflowError("underflow", t=1.0)))
    with pytest.raises(NonConvergenceError, match="line search stalled") as exc_info:
        find_periodic_orbit(forced_params, np.array([0.0, -0.5]), cfg=cfg)
    assert exc_info.value.diagnosis is None


def test_line_search_lets_programming_errors_through(forced_params, cfg,
                                                     monkeypatch):
    monkeypatch.setattr("phytoperiod.orbit.flow_map", _raiser(TypeError("bug")))
    with pytest.raises(TypeError):
        find_periodic_orbit(forced_params, np.array([0.0, -0.5]), cfg=cfg)


def test_extinction_diagnosis_lets_programming_errors_through(ex1_params, cfg,
                                                              monkeypatch):
    monkeypatch.setattr("phytoperiod.orbit.flow_map", _raiser(TypeError("bug")))
    with pytest.raises(TypeError):
        diagnose_extinction(ex1_params, np.log([0.5, 0.003]), cfg)


# --- steady-state detection ----------------------------------------------

def test_steady_state_detected_for_settled_constant_system(remark_params):
    cfg = IntegratorConfig(max_step=2.0)
    seed = seed_by_transient(remark_params, np.log([0.002, 0.002]), 200, cfg)
    orbit = detect_steady_state(remark_params, seed.z, cfg)
    assert orbit is not None
    assert orbit.degenerate_steady_state
    assert orbit.stable
    # original-frame multipliers of the boundary equilibrium (k1, 0):
    # exp(-r1 T) and exp((r2/(1+w1 k1) - beta2 k1) T)
    expected = sorted([math.exp(-0.03 * TWO_PI),
                       math.exp((0.0001 / 161.0 - 0.048) * TWO_PI)])
    got = sorted(abs(m) for m in orbit.floquet_multipliers)
    np.testing.assert_allclose(got, expected, rtol=1e-8)
    xs = np.exp(orbit.orbit_samples.states)
    assert np.max(np.var(xs, axis=0)) < 1e-12


def test_steady_state_not_detected_mid_transient(remark_params, cfg):
    seed = seed_by_transient(remark_params, np.log([0.002, 0.002]), 5, cfg)
    assert detect_steady_state(remark_params, seed.z, cfg) is None


def test_extinction_diagnosis_asymptotic_rate(ex1_params, cfg):
    diag = diagnose_extinction(ex1_params, np.log([0.5, 0.003]), cfg)
    assert diag is not None and diag.species == 2
    # asymptotic rate = (r2_bar/(1+w1 k1) - beta2_bar k1) * T
    expected = (0.0001 / 161.0 - 0.006 * 8.0) * TWO_PI
    assert diag.rate_per_period == pytest.approx(expected, abs=5e-3)


def test_no_extinction_diagnosed_near_coexistence(forced_params, cfg):
    assert diagnose_extinction(forced_params, np.log([1.0, 0.5]), cfg) is None


# --- bound verification ---------------------------------------------------

def test_bounds_all_hold_at_coexistence_equilibrium(coexist_params, cfg):
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    orbit = find_periodic_orbit(coexist_params, np.log(xeq), tol=1e-12, cfg=cfg)
    report = compute_bounds(coexist_params)
    assert report.all_conditions_hold()
    checks = verify_bounds(orbit, report)
    assert len(checks) == 4
    for c in checks:
        assert c.applicable and c.satisfied, f"{c.name} failed: {c.worst_margin}"


def test_bound_violation_has_negative_margin(coexist_params):
    report = compute_bounds(coexist_params)
    times = np.linspace(0.0, TWO_PI, 5)
    states = np.column_stack([np.full(5, report.L1 + 0.5), np.full(5, -0.5)])
    fake = PeriodicOrbit(
        z0=states[0], residual_norm=0.0, monodromy=np.eye(2),
        floquet_multipliers=(0j, 0j), stable=False, newton_iterations=0,
        orbit_samples=Trajectory("log", times, states))
    checks = {c.name: c for c in verify_bounds(fake, report)}
    assert checks["z1_upper"].satisfied is False
    assert checks["z1_upper"].worst_margin == pytest.approx(-0.5, abs=1e-12)


def test_undefined_bound_is_not_applicable(coexist_params, cfg):
    from dataclasses import replace
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    orbit = find_periodic_orbit(coexist_params, np.log(xeq), tol=1e-12, cfg=cfg)
    report = replace(compute_bounds(coexist_params), L4=None)
    checks = {c.name: c for c in verify_bounds(orbit, report)}
    assert checks["z2_lower"].applicable is False
    assert checks["z2_lower"].satisfied is None


def test_demo_orbitless_bound_content(ex1_params, cfg):
    """Even without an interior orbit, the x1 cap ln(k1) holds along the
    settled trajectory (the survivor tracks its carrying capacity)."""
    seed = seed_by_transient(ex1_params, np.log([0.002, 0.002]), 30, cfg)
    traj = integrate(lambda t, z: rhs_log(ex1_params, t, z), 0.0, seed.z,
                     TWO_PI, cfg, t_eval=np.linspace(0, TWO_PI, 257)[1:-1],
                     frame="log")
    assert np.max(traj.states[:, 0]) <= math.log(ex1_params.k1) + 1e-9
