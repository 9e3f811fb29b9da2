"""Shooting solver, degenerate-case handling and bound verification."""

import math

import numpy as np
import pytest
from conftest import newton_equilibrium, random_draw, seed_period_by_period
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phytoperiod import orbit as orbit_mod
from phytoperiod import (IntegratorConfig, ModelParams, NonConvergenceError,
                         PeriodicCoefficient, PeriodicOrbit,
                         StepUnderflowError, Trajectory, averaged_equilibria,
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


@pytest.mark.parametrize("params, start, n_periods, max_step", [
    ("ex1_params", (0.002, 0.002), 30, None),
    ("remark_params", (0.002, 0.002), 200, 2.0),
    ("forced_params", (1.0, 0.5), 1, None),
    ("forced_params", (1.0, 0.5), 2, None),
    ("forced_params", (1.0, 0.5), 20, None)])
def test_seed_matches_the_period_by_period_seed(request, params, start,
                                                n_periods, max_step):
    """One run over n - 1 periods and one period map land within 1e-8 of
    n period maps, each of which restarts the step-size controller.  With
    one or two periods the runs are the same ones, so the seed and its
    contraction, max |phi_T(prev) - prev|, are equal bit for bit."""
    params = request.getfixturevalue(params)
    cfg = IntegratorConfig(max_step=max_step)
    res = seed_by_transient(params, np.log(start), n_periods, cfg)
    z, contraction = seed_period_by_period(params, np.log(start), n_periods,
                                           cfg)
    assert np.max(np.abs(res.z - z)) < 1e-8
    assert abs(res.contraction - contraction) < 1e-8
    if n_periods <= 2:
        assert res.z.tobytes() == z.tobytes()
        assert res.contraction == contraction


def test_a_long_seed_runs_in_bounded_pieces(forced_params, cfg,
                                           monkeypatch):
    """Past ``_SEED_RUN_PERIODS`` periods the seed splits its run, each
    piece starting at t = 0 on the T-periodic field; with pieces of 7
    periods a 20-period seed makes runs of 7, 7 and 5 periods and still
    lands within 1e-8 of the period-by-period seed."""
    spans = []
    real_integrate = orbit_mod.integrate

    def recording(field, t0, y0, t1, cfg):
        spans.append((t0, t1))
        return real_integrate(field, t0, y0, t1, cfg)

    monkeypatch.setattr(orbit_mod, "_SEED_RUN_PERIODS", 7)
    monkeypatch.setattr(orbit_mod, "integrate", recording)
    start = np.log([1.0, 0.5])
    res = seed_by_transient(forced_params, start, 20, cfg)
    T = forced_params.period
    assert spans == [(0.0, 7 * T), (0.0, 7 * T), (0.0, 5 * T)]
    z, contraction = seed_period_by_period(forced_params, start, 20, cfg)
    assert np.max(np.abs(res.z - z)) < 1e-8
    assert abs(res.contraction - contraction) < 1e-8


# --- positive path: genuine periodic orbit -------------------------------

@pytest.fixture(scope="module")
def forced_orbit(forced_params):
    cfg = IntegratorConfig()
    seed = seed_by_transient(forced_params, np.log([1.0, 0.5]), 20, cfg)
    return find_periodic_orbit(forced_params, seed.z, tol=1e-11, max_iter=25,
                               cfg=cfg)


def test_forced_orbit_converges(forced_orbit):
    assert forced_orbit.residual_norm < 1e-11
    assert forced_orbit.stop_rule == "tol"
    assert forced_orbit.newton_iterations <= 10
    assert len(forced_orbit.densities.times) >= 256


def test_orbit_samples_end_where_the_period_map_ends(forced_params,
                                                    forced_orbit):
    """Sampling the period does not move its steps: the last density is
    exp of the period map of z0, bit for bit."""
    zT = flow_map(forced_params, forced_orbit.z0, IntegratorConfig())
    assert forced_orbit.densities.final_state.tobytes() == np.exp(zT).tobytes()


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
    x = forced_orbit.densities.states
    x0, xT = x[0], x[-1]
    assert np.max(np.abs(xT - x0) / np.abs(x0)) < 1e-8
    assert np.all(x > 0.0)


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


def test_a_seed_some_ulps_off_converges(forced_params):
    """Newton from a seed 10 and 8 ulps away from the period-by-period
    20-period seed of ``test_cmd_find_orbit_converges_for_forced_system``.
    After one iteration the line search finds no point with a defect
    below 9.554e-12, still above tol=1e-12 but below the noise floor
    1e-10 + 1e-10 max |z| of the default integrator, so the search stops
    there, by the floor."""
    orbit = find_periodic_orbit(forced_params,
                                (0.6427560031692795, -0.18257327158846426),
                                tol=1e-12)
    assert orbit.stop_rule == "noise_floor"
    assert orbit.newton_iterations == 1
    assert orbit.noise_floor == pytest.approx(1.642756e-10, rel=1e-6)
    assert 1e-12 < orbit.residual_norm <= orbit.noise_floor


def test_constant_coefficients_orbit_is_equilibrium(coexist_params, cfg):
    """Autonomous case: the periodic solution is the interior equilibrium."""
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    orbit = find_periodic_orbit(coexist_params, np.log(xeq) + 0.3,
                                tol=1e-12, cfg=cfg)
    assert np.max(np.abs(np.exp(orbit.z0) - xeq)) < 1e-9
    spread = np.ptp(orbit.densities.states, axis=0) / xeq
    assert np.max(spread) < 1e-9


# --- failure paths -------------------------------------------------------

def test_nonconvergence_reports_last_residual(forced_params, cfg):
    with pytest.raises(NonConvergenceError) as exc_info:
        find_periodic_orbit(forced_params, np.array([0.0, -0.5]),
                            tol=1e-30, max_iter=2, cfg=cfg)
    err = exc_info.value
    assert err.residual is not None and err.iterations == 2
    assert err.z_last is not None


def _counting(monkeypatch, *names):
    """Count the calls ``orbit`` makes to each of its module-level names."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(orbit_mod, name,
                            counting(name, getattr(orbit_mod, name)))
    return counts


def test_demo_orbit_search_detects_extinction(ex1_params, cfg, monkeypatch):
    """The oscillating demo has no interior fixed point of the period
    map: the second species dies out at rate ~0.30 per period (its
    growth is crushed by the fear denominator 1 + w1*k1 = 161 while the
    toxin terms drain it), so the search must fail with that diagnosis.
    From iteration 1 on every step moves ln x2 down most and cuts the
    defect by less than 1%, so the search stops at iteration 4, after 5
    monodromies and 14 line-search probes, having diagnosed once."""
    seed = seed_by_transient(ex1_params, np.log([0.002, 0.002]), 30, cfg)
    counts = _counting(monkeypatch, "flow_and_monodromy", "flow_map",
                       "diagnose_extinction")
    with pytest.raises(NonConvergenceError) as exc_info:
        find_periodic_orbit(ex1_params, seed.z, tol=1e-10, max_iter=10, cfg=cfg)
    err = exc_info.value
    diag = err.diagnosis
    assert diag is not None and diag.species == 2
    assert diag.rate_per_period == pytest.approx(-0.301589, abs=1e-6)
    assert str(err) == (
        "heading to the boundary state without species 2: 3 Newton steps "
        "in a row moved ln x2 down most and cut the defect by less than 1% "
        f"(last defect {err.residual:.3e})")
    assert err.iterations == 4
    assert counts == {"flow_and_monodromy": 5, "flow_map": 14,
                      "diagnose_extinction": 1}
    hist = err.residual_history
    assert len(hist) == 5 and hist[-1] == err.residual
    assert all(b > 0.99 * a for a, b in zip(hist[1:], hist[2:]))


def test_a_search_without_a_diagnosis_never_heads_to_the_boundary(
        ex1_params, cfg, monkeypatch):
    """With no species diagnosed, the demo search walks on as it did
    before the boundary rule: to its iteration budget."""
    seed = seed_by_transient(ex1_params, np.log([0.002, 0.002]), 30, cfg)
    monkeypatch.setattr(orbit_mod, "diagnose_extinction", lambda params: None)
    with pytest.raises(NonConvergenceError,
                       match="no convergence in 10 iterations") as exc_info:
        find_periodic_orbit(ex1_params, seed.z, tol=1e-10, max_iter=10, cfg=cfg)
    err = exc_info.value
    assert err.iterations == 10 and err.diagnosis is None
    assert len(err.residual_history) == 11


# draw 333 of the random draws, as its coefficients print
_S = PeriodicCoefficient.sinusoid
DRAW_333 = ModelParams(
    r1=_S(0.2366812008838051, 0.14364353907170518, 1.0, 3.8389469874731352),
    r2=_S(0.7288286088182614, 0.1313139050744629, 1.0, 5.374228841668394),
    beta1=_S(0.5464696415663739, 0.11476204946093861, 1.0, 3.6819162158141934),
    beta2=_S(0.17281929737131588, 0.05008329045881987, 1.0,
             0.22868394267142367),
    k1=1.6386710130132454, k2=2.7553914187581587, w1=1.2039103074372866,
    w2=0.2550163174428757, period=TWO_PI)


def test_a_slow_search_climbing_away_from_the_boundary_converges(cfg):
    """Draw 333 diagnoses species 1 as unable to invade.  From its
    30-period seed at (3, 0.1) the first 4 steps each cut the defect by
    less than 1%, yet they do not move ln x1 down most, so the search
    runs on and converges to an unstable orbit."""
    assert diagnose_extinction(DRAW_333).species == 1
    seed = seed_by_transient(DRAW_333, np.log([3.0, 0.1]), 30, cfg)
    orbit = find_periodic_orbit(DRAW_333, seed.z, cfg=cfg)
    hist = orbit.residual_history
    assert all(b > 0.99 * a for a, b in zip(hist[:4], hist[1:5]))
    assert (orbit.newton_iterations, orbit.stop_rule) == (11, "noise_floor")
    assert orbit.z0 == pytest.approx([0.30353386, -2.54150291], abs=1e-8)
    mults = sorted(abs(m) for m in orbit.floquet_multipliers)
    assert mults == pytest.approx([0.1778, 1.2365], abs=1e-4)
    assert not orbit.stable


def test_random_draw_follows_the_recipe():
    """``random_draw`` regenerates the ROADMAP's draws: draw 333 has the
    coefficients it prints, (A1)-(A3) hold in 159 of the 400, and draw
    5 has two averaged roots, from which Newton reaches an unstable orbit
    through x = (0.9723, 1.5137) and a stable one through
    (3.1668, 0.1683)."""
    assert random_draw(333) == DRAW_333
    draws = [random_draw(i) for i in range(400)]
    assert sum(compute_bounds(p).all_conditions_hold() for p in draws) == 159
    roots = averaged_equilibria(draws[5])
    assert [r.x for r in roots] == [pytest.approx((0.8145, 1.5829), abs=1e-4),
                                    pytest.approx((3.1506, 0.1344), abs=1e-4)]
    orbits = [find_periodic_orbit(draws[5], r.z) for r in roots]
    assert [tuple(np.exp(o.z0)) for o in orbits] == [
        pytest.approx((0.9723, 1.5137), abs=1e-4),
        pytest.approx((3.1668, 0.1683), abs=1e-4)]
    assert [o.stable for o in orbits] == [False, True]


def test_tol_validation(forced_params, cfg):
    with pytest.raises(ValueError):
        find_periodic_orbit(forced_params, np.zeros(2), tol=0.0, cfg=cfg)
    with pytest.raises(ValueError):
        find_periodic_orbit(forced_params, np.zeros(2), max_iter=-1, cfg=cfg)


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


def test_a_stall_at_or_below_the_noise_floor_stops_there(
        forced_params, forced_orbit, cfg, monkeypatch):
    """Every line-search probe fails, so the search stalls at its first
    iterate, the orbit, whose defect lies between tol=1e-15 and the noise
    floor: it stops there, by the floor."""
    monkeypatch.setattr("phytoperiod.orbit.flow_map",
                        _raiser(StepUnderflowError("underflow", t=1.0)))
    orbit = find_periodic_orbit(forced_params, forced_orbit.z0, tol=1e-15,
                                cfg=cfg)
    floor = cfg.abs_tol + cfg.rel_tol * float(np.max(np.abs(orbit.z0)))
    assert (orbit.stop_rule, orbit.newton_iterations) == ("noise_floor", 0)
    assert orbit.noise_floor == floor
    assert 1e-15 <= orbit.residual_norm <= floor


def test_a_stall_above_the_noise_floor_raises(forced_params, forced_orbit,
                                              cfg, monkeypatch):
    """Stalled 1e-8 off the orbit, above the noise floor, the search
    raises, naming the defect and the floor."""
    monkeypatch.setattr("phytoperiod.orbit.flow_map",
                        _raiser(StepUnderflowError("underflow", t=1.0)))
    guess = forced_orbit.z0 + 1e-8
    floor = cfg.abs_tol + cfg.rel_tol * float(np.max(np.abs(guess)))
    with pytest.raises(NonConvergenceError) as exc_info:
        find_periodic_orbit(forced_params, guess, tol=1e-15, cfg=cfg)
    err = exc_info.value
    assert err.iterations == 0 and err.residual > floor
    assert str(err) == (f"line search stalled at defect {err.residual:.3e}, "
                        f"above the noise floor {floor:.3e}")


def test_line_search_lets_programming_errors_through(forced_params, cfg,
                                                     monkeypatch):
    monkeypatch.setattr("phytoperiod.orbit.flow_map", _raiser(TypeError("bug")))
    with pytest.raises(TypeError):
        find_periodic_orbit(forced_params, np.array([0.0, -0.5]), cfg=cfg)


# --- steady-state detection ----------------------------------------------

def test_steady_state_detected_for_settled_constant_system(remark_params):
    cfg = IntegratorConfig(max_step=2.0)
    seed = seed_by_transient(remark_params, np.log([0.002, 0.002]), 200, cfg)
    orbit = detect_steady_state(remark_params, seed.z, cfg)
    assert orbit is not None
    assert orbit.stop_rule == "steady_state"
    assert orbit.noise_floor is None
    assert orbit.stable
    # original-frame multipliers of the boundary equilibrium (k1, 0):
    # exp(-r1 T) and exp((r2/(1+w1 k1) - beta2 k1) T)
    expected = sorted([math.exp(-0.03 * TWO_PI),
                       math.exp((0.0001 / 161.0 - 0.048) * TWO_PI)])
    got = sorted(abs(m) for m in orbit.floquet_multipliers)
    np.testing.assert_allclose(got, expected, rtol=1e-8)
    xs = orbit.densities.states
    assert np.max(np.var(xs, axis=0)) < 1e-12


def test_steady_state_not_detected_mid_transient(remark_params, cfg):
    seed = seed_by_transient(remark_params, np.log([0.002, 0.002]), 5, cfg)
    assert detect_steady_state(remark_params, seed.z, cfg) is None


def test_extinction_diagnosis_asymptotic_rate(ex1_params):
    diag = diagnose_extinction(ex1_params)
    assert diag is not None and diag.species == 2
    # invasion exponent along x1 = k1: (r2_bar/(1+w1 k1) - beta2_bar k1) * T
    expected = (0.0001 / 161.0 - 0.006 * 8.0) * TWO_PI
    assert diag.rate_per_period == pytest.approx(expected, rel=1e-12)
    assert diag.describe() == ("species 2 cannot invade the boundary state "
                               "x1 = 8 (d ln x2 = -0.301589 per period there)")


def test_no_extinction_diagnosed_near_coexistence(forced_params):
    assert diagnose_extinction(forced_params) is None


# --- invasion exponents against the flow ----------------------------------

_OFF_BOUNDARY = 1e-9


def _measured_rates(params):
    """d ln x_i over one period at 1e-12 tolerances, started 1e-9 off the
    boundary state where species i is absent (x_j* = k_j when r_j has a
    positive mean, else 0)."""
    tight = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    r1b, r2b, _, _ = params.means()
    x1 = params.k1 if r1b > 0.0 else _OFF_BOUNDARY
    x2 = params.k2 if r2b > 0.0 else _OFF_BOUNDARY
    rates = []
    for i, start in ((0, [_OFF_BOUNDARY, x2]), (1, [x1, _OFF_BOUNDARY])):
        z0 = np.log(start)
        rates.append(float(flow_map(params, z0, tight)[i] - z0[i]))
    return rates


def test_species2_exponent_matches_flow_on_demo(ex1_params):
    rates = _measured_rates(ex1_params)
    diag = diagnose_extinction(ex1_params)
    assert diag.species == 2 and diag.boundary_state == ex1_params.k1
    assert diag.rate_per_period == pytest.approx(rates[1], abs=1e-6)
    assert rates[0] > 0.0     # species 1 invades x2 = k2


def test_species1_exponent_matches_flow_when_species1_loses():
    C = PeriodicCoefficient.constant
    params = ModelParams(
        r1=PeriodicCoefficient.sinusoid(0.2, 0.5), r2=C(1.0),
        beta1=PeriodicCoefficient.sinusoid(0.3, 0.2), beta2=C(0.01),
        k1=2.0, k2=1.5, w1=0.5, w2=0.1, period=TWO_PI)
    rates = _measured_rates(params)
    diag = diagnose_extinction(params)
    assert diag.species == 1 and diag.boundary_state == 1.5
    assert diag.rate_per_period == pytest.approx((0.2 - 0.3 * 1.5) * TWO_PI,
                                                 rel=1e-12)
    assert diag.rate_per_period == pytest.approx(rates[0], abs=1e-6)


def test_nonpositive_r1_mean_leaves_x1_absent():
    """r1_bar < 0 sends x1 to 0, so species 2 invades the empty state at
    its bare mean rate: no fear or toxin term from a species at k1."""
    params = ModelParams(
        r1=PeriodicCoefficient.sinusoid(-0.02, 0.5),
        r2=PeriodicCoefficient.sinusoid(-0.05, 0.9),
        beta1=PeriodicCoefficient.constant(0.1),
        beta2=PeriodicCoefficient.constant(0.5),
        k1=8.0, k2=6.0, w1=20.0, w2=2.0, period=TWO_PI)
    rates = _measured_rates(params)
    diag = diagnose_extinction(params)
    assert diag.species == 2 and diag.boundary_state == 0.0
    assert diag.rate_per_period == pytest.approx(-0.05 * TWO_PI, rel=1e-12)
    assert diag.rate_per_period == pytest.approx(rates[1], abs=1e-6)
    assert rates[0] == pytest.approx(-0.02 * TWO_PI, abs=1e-6)


_mean = st.floats(-1.0, 1.0)
_amplitude = st.floats(0.0, 0.5)
_positive = st.floats(0.5, 5.0)


@settings(max_examples=25, deadline=None, derandomize=True,
          database=None)
@given(r1=st.tuples(_mean, _amplitude), r2=st.tuples(_mean, _amplitude),
       beta1=st.tuples(st.floats(0.0, 1.0), _amplitude),
       beta2=st.tuples(st.floats(0.0, 1.0), _amplitude),
       k1=_positive, k2=_positive, w1=st.floats(0.0, 5.0), w2=st.floats(0.0, 5.0))
def test_diagnosis_agrees_with_flow_over_random_means(r1, r2, beta1, beta2,
                                                      k1, k2, w1, w2):
    sine = PeriodicCoefficient.sinusoid
    params = ModelParams(r1=sine(*r1), r2=sine(*r2), beta1=sine(*beta1),
                         beta2=sine(*beta2), k1=k1, k2=k2, w1=w1, w2=w2,
                         period=TWO_PI)
    rates = _measured_rates(params)
    # the choice between the exponents is only defined away from ties and 0
    assume(abs(rates[0] - rates[1]) > 1e-5 and abs(min(rates)) > 1e-5)
    diag = diagnose_extinction(params)
    if min(rates) > 0.0:
        assert diag is None
    else:
        assert diag.species == 1 + int(np.argmin(rates))
        assert diag.rate_per_period == pytest.approx(min(rates), abs=1e-6)


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
        densities=Trajectory(times, np.exp(states)))
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
                     TWO_PI, cfg, t_eval=np.linspace(0, TWO_PI, 257)[1:-1])
    assert np.max(traj.states[:, 0]) <= math.log(ex1_params.k1) + 1e-9
