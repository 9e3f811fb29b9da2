"""Shooting solver, degenerate-case handling and bound verification."""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (fourier_collocation, mean_by_quadrature,
                      newton_equilibrium, random_draw, seed_period_by_period)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phytoperiod import orbit as orbit_mod
from phytoperiod import (DomainOverflowError, IntegrationError,
                         IntegratorConfig, ModelParams, NonConvergenceError,
                         OrbitSearchError, PeriodicCoefficient, PeriodicOrbit,
                         StepUnderflowError, Trajectory, averaged_equilibria,
                         compute_bounds, detect_steady_state,
                         diagnose_extinction, find_periodic_orbit,
                         flow_and_monodromy, flow_map, integrate, rhs_log,
                         rhs_original, seed_by_transient, verify_bounds)
from phytoperiod.cli import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

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


@pytest.mark.parametrize("params, start, n_periods", [
    ("ex1_params", (0.002, 0.002), 30),
    ("remark_params", (0.002, 0.002), 200),
    ("forced_params", (1.0, 0.5), 1),
    ("forced_params", (1.0, 0.5), 2),
    ("forced_params", (1.0, 0.5), 20)])
def test_seed_matches_the_period_by_period_seed(request, params, start,
                                                n_periods, cfg):
    """One run over n - 1 periods and one period map land within 1e-8 of
    n period maps, each of which restarts the step-size controller.  With
    one or two periods the runs are the same ones, so the seed and its
    contraction, max |phi_T(prev) - prev|, are equal bit for bit."""
    params = request.getfixturevalue(params)
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
    """The samples are those of the monodromy run that closed the orbit:
    the first density is exp(z0) and the last exp(z(T)) of that run, bit
    for bit, and a fresh run from z0 is that run."""
    zT, _M = flow_and_monodromy(forced_params, forced_orbit.z0,
                                IntegratorConfig())
    densities = forced_orbit.densities
    assert densities.states[0].tobytes() == np.exp(forced_orbit.z0).tobytes()
    assert densities.final_state.tobytes() == np.exp(zT).tobytes()
    assert densities.times.tolist() == np.linspace(
        0.0, forced_params.period, 257).tolist()


def test_forced_orbit_is_stable(forced_orbit):
    mults = forced_orbit.floquet_multipliers
    assert all(abs(m) < 1.0 for m in mults)
    assert forced_orbit.stable


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
    20-period seed that ``test_cmd_find_orbit_converges_for_forced_system``
    took when plain runs stepped by Dormand-Prince 5(4), at a defect of
    3.413e-12, below the noise floor 1e-10 + 1e-10 max |z| of the default
    integrator.  The full step's probe is the monodromy run of the next
    iteration, and its defect, 2.8e-16, is below tol=1e-12, so the search
    stops there by tol.  (A plain-flow run from that point takes other
    steps, since its starting step is estimated from z alone, and reads
    a defect of 3.7e-11.)"""
    orbit = find_periodic_orbit(forced_params,
                                (0.6427560031692795, -0.18257327158846426),
                                tol=1e-12)
    assert orbit.stop_rule == "tol"
    assert orbit.newton_iterations == 1
    assert orbit.noise_floor == pytest.approx(1.642756e-10, rel=1e-6)
    assert orbit.residual_history == (
        pytest.approx(3.413048e-12, rel=1e-6), orbit.residual_norm)
    assert orbit.residual_norm < 1e-12


# --- the accepted full-step probe is the next iteration's monodromy run -----

_LOOSE = object()   # marks a recorded plain run at loosened tolerances


def _recorded_search(params, guess):
    """A search at the default tolerances with its period runs recorded in
    order: (z, z(T), M) of each, M None for a plain ``flow_map`` run.  A
    loose probe run that a run at the default tolerances settles is left
    out, so each probe is recorded by the run that decided it."""
    runs = []
    monodromy, plain = orbit_mod.flow_and_monodromy, orbit_mod.flow_map

    def monodromy_run(params, z, cfg):
        run = monodromy(params, z, cfg)
        runs.append((z, *run))
        return run

    def plain_run(params, z, cfg):
        zT = plain(params, z, cfg)
        if runs and runs[-1][2] is _LOOSE and runs[-1][0].tobytes() == z.tobytes():
            runs.pop()      # the loose run that this one settles
        runs.append((z, zT, None if cfg == IntegratorConfig() else _LOOSE))
        return zT

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbit_mod, "flow_and_monodromy", monodromy_run)
        mp.setattr(orbit_mod, "flow_map", plain_run)
        orbit = find_periodic_orbit(params, guess)
    return orbit, [(z, zT, None if M is _LOOSE else M) for z, zT, M in runs]


def _assert_exact_hand_over(params, guess):
    """Replay the line search's rule (a probe is accepted when its defect
    falls below the iterate's) over the recorded runs of a search.  An
    accepted monodromy probe's (z(T), M) is the next iteration's, so its
    defect is the next ``residual_history`` entry bit for bit; an
    accepted plain probe is followed by a monodromy run from the same z.
    Every (z(T), M) an iteration used equals a fresh
    ``flow_and_monodromy`` from its z, and no monodromy run starts twice
    from one z.  Returns the number of probes handed over."""
    orbit, runs = _recorded_search(params, guess)

    def defect(z, zT, _M=None):
        return float(np.max(np.abs(zT - z)))

    used, pending, handed = [runs[0]], False, 0
    for run in runs[1:]:
        z, zT, M = run
        if pending:          # the fresh monodromy run at the accepted point
            assert z.tobytes() == used[-1][0].tobytes() and M is not None
            used[-1], pending = run, False
        elif defect(*run) < defect(*used[-1]):
            used.append(run)
            pending, handed = M is None, handed + (M is not None)
    assert not pending
    assert orbit.residual_history == tuple(defect(*run) for run in used)
    assert orbit.z0.tobytes() == used[-1][0].tobytes()
    starts = [z.tobytes() for z, _, M in runs if M is not None]
    assert len(set(starts)) == len(starts)
    cfg = IntegratorConfig()
    for z, zT, M in used:
        fresh_zT, fresh_M = flow_and_monodromy(params, z, cfg)
        assert (zT.tobytes(), M.tobytes()) == (fresh_zT.tobytes(),
                                               fresh_M.tobytes())
    return handed


def test_the_full_step_probe_is_handed_over_exactly(forced_params):
    """From 0.05 off the orbit both Newton steps are full, and each
    step's probe is the next iteration's monodromy run."""
    guess = np.array([0.642756, -0.18257327]) + 0.05
    assert _assert_exact_hand_over(forced_params, guess) == 2


def test_a_halved_step_hands_nothing_over():
    """Draw 20 from x = (3, 0.1) rejects its first full-step monodromy
    probe and accepts the halved step, so the next iteration runs its own
    monodromy and probes its full step with the plain flow; the 2 full
    steps after that hand their probes over."""
    assert _assert_exact_hand_over(random_draw(20), np.log([3.0, 0.1])) == 2


def test_a_settled_probe_hands_over_exactly():
    """Draw 333's search from its 30-period seed at (3, 0.1) runs 19
    plain probes loose and settles one of them at ``cfg``; the replay
    takes that probe's decision from its ``cfg`` run."""
    seed = seed_by_transient(DRAW_333, np.log([3.0, 0.1]), 30,
                             IntegratorConfig())
    assert _assert_exact_hand_over(DRAW_333, seed.z) == 5


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(i=st.integers(0, 399))
def test_random_draw_searches_hand_over_exactly(i):
    """The hand-over is exact on the searches from each averaged root of a
    random draw, whether or not a species is diagnosed as unable to invade."""
    params = random_draw(i)
    for root in averaged_equilibria(params):
        _assert_exact_hand_over(params, root.z)


def test_root_seeded_searches_stop_by_tol():
    """All 25 searches from the averaged roots of draws 0-39 stop by tol:
    after a full step, a search stops by the floor only when that step's
    monodromy run fails to cut the defect."""
    rules = [find_periodic_orbit(params, root.z).stop_rule
             for params in map(random_draw, range(40))
             for root in averaged_equilibria(params)]
    assert rules == ["tol"] * 25


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


def test_flat_searches_stall_instead_of_spending_the_budget(cfg):
    """Draws 48 and 254 from their 30-period seeds at (3, 0.1) and
    (0.5, 2) have no orbit to find, and their defects go flat.  Plain
    probes and monodromy runs step by the same method, so a probe no
    better than the current defect is rejected and each search stops as
    a stalled line search, after 5, 18, 10 and 14 iterations, not at the
    25-iteration budget."""
    errors = []
    for i in (48, 254):
        params = random_draw(i)
        for x in ((3.0, 0.1), (0.5, 2.0)):
            seed = seed_by_transient(params, np.log(x), 30, cfg)
            with pytest.raises(NonConvergenceError,
                               match="line search stalled") as exc_info:
                find_periodic_orbit(params, seed.z, cfg=cfg)
            errors.append(exc_info.value)
    assert [err.iterations for err in errors] == [5, 18, 10, 14]


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


@pytest.fixture(scope="module")
def draw333_orbit():
    """The orbit shooting reaches from draw 333's 30-period seed at
    (3, 0.1)."""
    cfg = IntegratorConfig()
    seed = seed_by_transient(DRAW_333, np.log([3.0, 0.1]), 30, cfg)
    return find_periodic_orbit(DRAW_333, seed.z, cfg=cfg)


@pytest.fixture(scope="module")
def draw5_orbits():
    """The orbits shooting reaches from the averaged roots of draw 5."""
    params = random_draw(5)
    return [find_periodic_orbit(params, r.z) for r in averaged_equilibria(params)]


def test_a_slow_search_climbing_away_from_the_boundary_converges(draw333_orbit):
    """Draw 333 diagnoses species 1 as unable to invade.  From its
    30-period seed at (3, 0.1) the first 4 steps each cut the defect by
    less than 1%, yet they do not move ln x1 down most, so the search
    runs on and converges to an unstable orbit, by tol after 12
    iterations."""
    assert diagnose_extinction(DRAW_333).species == 1
    orbit = draw333_orbit
    hist = orbit.residual_history
    assert all(b > 0.99 * a for a, b in zip(hist[:4], hist[1:5]))
    assert (orbit.newton_iterations, orbit.stop_rule) == (12, "tol")
    assert orbit.z0 == pytest.approx([0.30353386, -2.54150291], abs=1e-8)
    mults = sorted(abs(m) for m in orbit.floquet_multipliers)
    assert mults == pytest.approx([0.1778, 1.2365], abs=1e-4)
    assert not orbit.stable


def test_random_draw_follows_the_recipe(draw5_orbits):
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
    orbits = draw5_orbits
    assert [tuple(np.exp(o.z0)) for o in orbits] == [
        pytest.approx((0.9723, 1.5137), abs=1e-4),
        pytest.approx((3.1668, 0.1683), abs=1e-4)]
    assert [o.stable for o in orbits] == [False, True]


# --- closed-form 2x2 algebra against LAPACK ----------------------------------

def _orbit_with(M):
    return PeriodicOrbit(z0=np.zeros(2), residual_norm=0.0,
                         monodromy=np.asarray(M, dtype=float), newton_iterations=0,
                         densities=Trajectory(np.zeros(1), np.ones((1, 2))))


def _assert_same_multipliers(orbit):
    """The closed-form multipliers equal LAPACK's eigenvalues as a set,
    within 1e-13 max |M_ij|, larger modulus first; ``stable`` agrees."""
    M = orbit.monodromy
    got, want = orbit.floquet_multipliers, np.linalg.eigvals(M)
    error = min(max(abs(got[0] - want[0]), abs(got[1] - want[1])),
                max(abs(got[0] - want[1]), abs(got[1] - want[0])))
    assert error <= 1e-13 * np.max(np.abs(M))
    assert abs(got[0]) >= abs(got[1])
    assert orbit.stable == bool(np.all(np.abs(want) < 1.0))


def _route_runs(mp, first, probe):
    """Route the first period run of a search, the monodromy at its guess,
    to ``first`` and every later run to ``probe``: each of those is a
    line-search probe, plain or with the monodromy, until one is accepted."""
    runs = []

    def run(params, z, cfg):
        runs.append(z)
        return (first if len(runs) == 1 else probe)(params, z, cfg)
    mp.setattr(orbit_mod, "flow_and_monodromy", run)
    mp.setattr(orbit_mod, "flow_map", run)


class _Probed(Exception):
    """Ends a search at the first probe of its line search."""


def _newton_step(params, M, G):
    """The first Newton step of ``find_periodic_orbit`` from z = 0 on a
    period map z + G with monodromy M: the first probe of the line search
    is at z + dz = dz."""
    probes = []

    def probe(params, z, cfg):
        probes.append(z)
        raise _Probed

    with pytest.MonkeyPatch.context() as mp:
        _route_runs(mp, lambda params, z, cfg: (z + G, M), probe)
        with pytest.raises(_Probed):
            find_periodic_orbit(params, np.zeros(2))
    return probes[0]


def _assert_cramer_step(params, M, G):
    dz = _newton_step(params, M, G)
    want = np.linalg.solve(M - np.eye(2), -np.asarray(G))
    assert np.max(np.abs(dz - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("M, want", [
    (np.zeros((2, 2)), (0j, 0j)),
    (np.eye(2), (1 + 0j, 1 + 0j)),
    ([[0.0, 1.0], [0.0, 0.0]], (0j, 0j)),
    ([[2.0, 0.0], [0.0, -3.0]], (-3 + 0j, 2 + 0j)),
    ([[0.0, -1.0], [1.0, 0.0]], (1j, -1j)),
    ([[1e300, 0.0], [0.0, 5e299]], (1e300 + 0j, 5e299 + 0j)),
])
def test_multipliers_of_exact_cases(M, want):
    """Double, zero, diagonal and rotation cases come out exactly."""
    assert _orbit_with(M).floquet_multipliers == want


@pytest.mark.parametrize("M, stable", [
    (np.diag([1.0 - 1e-9, -0.5]), True),
    (np.diag([0.5, -1.0 - 1e-9]), False),
    (np.diag([1.0, 0.5]), False),
    ((1.0 - 1e-9) * np.array([[0.6, -0.8], [0.8, 0.6]]), True),
    ((1.0 + 1e-9) * np.array([[0.6, -0.8], [0.8, 0.6]]), False),
])
def test_stable_needs_both_moduli_below_one(M, stable):
    assert _orbit_with(M).stable is stable


@pytest.mark.parametrize("M", [
    [[3e-300, 1e-300], [1e-300, 3e-300]],
    [[1e300, -2e300], [2e300, 1e300]],
    [[1e300, 3e299], [-2e299, 5e299]],
])
def test_multipliers_match_lapack_near_the_float_limits(M):
    """Unscaled, the squares and products of these entries would underflow
    to 0 or overflow to inf."""
    _assert_same_multipliers(_orbit_with(M))


_pair_entry = st.floats(-0.7, 0.7)


@st.composite
def monodromies(draw):
    """P B P^-1 times 10^e, with P = [[1, p], [q, 1]] well conditioned,
    e = 0 or e in [-150, 150], and B diagonal with real eigenvalues apart
    by 5% of the larger, or [[a, -b], [b, a]] for the pair a +- i b."""
    e = draw(st.one_of(st.just(0), st.integers(-150, 150)))
    x, y = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    if draw(st.booleans()):
        assume(abs(x - y) > 0.05 * max(abs(x), abs(y)))
        B = np.diag([x, y])
    else:
        assume(abs(y) > 0.05 * abs(x))
        B = np.array([[x, -y], [y, x]])
    P = np.array([[1.0, draw(_pair_entry)], [draw(_pair_entry), 1.0]])
    return P @ B @ np.linalg.inv(P) * 10.0 ** e


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(M=monodromies())
def test_multipliers_match_lapack(M):
    want = np.linalg.eigvals(M)
    assume(np.all(np.abs(np.abs(want) - 1.0) > 1e-9))
    _assert_same_multipliers(_orbit_with(M))


_angle = st.floats(0.0, 2.0 * math.pi)
_singular_value = st.floats(0.5, 2.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(theta=_angle, phi=_angle, s1=_singular_value, s2=_singular_value,
       flip=st.booleans(), G=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_the_newton_step_matches_lapack(forced_params, theta, phi, s1, s2,
                                        flip, G):
    """Cramer's rule solves (M - I) dz = -G as LAPACK does when M - I =
    R(theta) diag(s1, +-s2) R(phi) has singular values in [0.5, 2]."""
    assume(max(abs(g) for g in G) > 1e-3)

    def rotation(a):
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    A = rotation(theta) @ np.diag([s1, -s2 if flip else s2]) @ rotation(phi)
    _assert_cramer_step(forced_params, A + np.eye(2), G)


@pytest.fixture(scope="module")
def named_orbits(forced_params, forced_orbit, draw5_orbits, draw333_orbit):
    """Shooting orbits by name, each with its model."""
    return {"forced": (forced_params, forced_orbit),
            "draw5-unstable": (random_draw(5), draw5_orbits[0]),
            "draw5-stable": (random_draw(5), draw5_orbits[1]),
            "draw333": (DRAW_333, draw333_orbit)}


ORBIT_NAMES = ("forced", "draw5-unstable", "draw5-stable", "draw333")


@pytest.mark.parametrize("name", ORBIT_NAMES)
def test_found_orbits_match_lapack(named_orbits, name):
    params, orbit = named_orbits[name]
    _assert_same_multipliers(orbit)
    _assert_cramer_step(params, orbit.monodromy, (1e-3, -2e-3))


# --- shooting against Fourier collocation ------------------------------------

def _assert_matches_collocation(params, orbit, guess=None):
    """z0 within 1e-9 and the multipliers within 1e-7 relative of the
    collocation orbit seeded at ``guess``, by default at the averaged
    root nearest z0."""
    if guess is None:
        guess = min((r.z for r in averaged_equilibria(params)),
                    key=lambda z: np.max(np.abs(np.subtract(z, orbit.z0))))
    z0, mults, _ = fourier_collocation(params, guess)
    assert np.max(np.abs(z0 - orbit.z0)) <= 1e-9
    for got, want in zip(orbit.floquet_multipliers, mults):
        assert abs(got - want) <= 1e-7 * abs(want)


@pytest.mark.parametrize("name", ORBIT_NAMES)
def test_named_orbits_match_fourier_collocation(named_orbits, name):
    _assert_matches_collocation(*named_orbits[name])


def test_forced_orbits_configs_match_fourier_collocation():
    """The 24 forced-orbits configs of bench seed 11, shot as ``find-orbit``
    shoots them: seeded from ``initial_state``, at their tolerances."""
    for doc in workloads.generate_configs("forced-orbits", 11):
        cfg = parse_config(doc)
        seed = seed_by_transient(cfg.model, np.log(cfg.initial_state),
                                 cfg.seed_periods, cfg.integrator)
        orbit = find_periodic_orbit(cfg.model, seed.z, tol=cfg.orbit_tol,
                                    max_iter=cfg.newton_max_iter,
                                    cfg=cfg.integrator)
        _assert_matches_collocation(cfg.model, orbit)


def test_orbit_samples_are_as_accurate_as_a_sampled_run():
    """The samples of the 48 forced-orbits configs of bench seeds 11 and
    12, shot as ``find-orbit`` shoots them: against a re-integration of
    one period from z0 at 1e-13 tolerances, the largest error of ln x per
    orbit has a median below 1e-9 and a maximum below 3e-9: 8.3e-10 and
    2.8e-9.  (Sampled by a Dormand-Prince 5(4) run from z0 they were
    9.2e-10 and 2.4e-9.)"""
    tight = IntegratorConfig(1e-13, 1e-13)
    errors = []
    for seed in (11, 12):
        for doc in workloads.generate_configs("forced-orbits", seed):
            cfg = parse_config(doc)
            seed_z = seed_by_transient(cfg.model, np.log(cfg.initial_state),
                                       cfg.seed_periods, cfg.integrator).z
            orbit = find_periodic_orbit(cfg.model, seed_z, tol=cfg.orbit_tol,
                                        max_iter=cfg.newton_max_iter,
                                        cfg=cfg.integrator)
            ts = orbit.densities.times
            ref = integrate(lambda t, z: rhs_log(cfg.model, t, z), 0.0,
                            orbit.z0, ts[-1], tight, t_eval=ts[1:-1])
            errors.append(float(np.max(np.abs(np.log(orbit.densities.states)
                                              - ref.states))))
    print(f"\n  sample errors: median {np.median(errors):.3g}, "
          f"max {max(errors):.3g}")
    assert len(errors) == 48
    assert np.median(errors) < 1e-9 and max(errors) < 3e-9


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(i=st.integers(0, 399))
def test_random_draw_orbits_match_fourier_collocation(cfg_tight, i):
    """Every orbit that shooting at 1e-12 tolerances reaches from an
    averaged root of a random draw matches collocation from that root.
    (At the default 1e-10 the smaller multiplier of some draws, such as
    81, is off by up to 1.8e-6 relative.)"""
    params = random_draw(i)
    for root in averaged_equilibria(params):
        try:
            orbit = find_periodic_orbit(params, root.z, cfg=cfg_tight)
        except NonConvergenceError:
            continue
        _assert_matches_collocation(params, orbit, root.z)


def test_tol_validation(forced_params, cfg):
    with pytest.raises(ValueError):
        find_periodic_orbit(forced_params, np.zeros(2), tol=0.0, cfg=cfg)
    with pytest.raises(ValueError):
        find_periodic_orbit(forced_params, np.zeros(2), max_iter=-1, cfg=cfg)


def _probes_raise(monkeypatch, exc):
    """Every line-search probe raises ``exc``, whichever run makes it."""
    def raiser(*args, **kwargs):
        raise exc
    _route_runs(monkeypatch, orbit_mod.flow_and_monodromy, raiser)


def test_integration_failures_stall_the_line_search(forced_params, cfg,
                                                    monkeypatch):
    _probes_raise(monkeypatch, StepUnderflowError("underflow", t=1.0))
    with pytest.raises(NonConvergenceError, match="line search stalled") as exc_info:
        find_periodic_orbit(forced_params, np.array([0.0, -0.5]), cfg=cfg)
    assert exc_info.value.diagnosis is None


def test_a_stall_at_or_below_the_noise_floor_stops_there(
        forced_params, forced_orbit, cfg, monkeypatch):
    """Every line-search probe fails, so the search stalls at its first
    iterate, 1e-11 off the orbit, whose defect lies between tol=1e-15 and
    the noise floor: it stops there, by the floor."""
    _probes_raise(monkeypatch, StepUnderflowError("underflow", t=1.0))
    orbit = find_periodic_orbit(forced_params, forced_orbit.z0 + 1e-11,
                                tol=1e-15, cfg=cfg)
    floor = cfg.abs_tol + cfg.rel_tol * float(np.max(np.abs(orbit.z0)))
    assert (orbit.stop_rule, orbit.newton_iterations) == ("noise_floor", 0)
    assert orbit.noise_floor == floor
    assert 1e-15 <= orbit.residual_norm <= floor


def test_a_stall_above_the_noise_floor_raises(forced_params, forced_orbit,
                                              cfg, monkeypatch):
    """Stalled 1e-8 off the orbit, above the noise floor, the search
    raises, naming the defect and the floor."""
    _probes_raise(monkeypatch, StepUnderflowError("underflow", t=1.0))
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
    _probes_raise(monkeypatch, TypeError("bug"))
    with pytest.raises(TypeError):
        find_periodic_orbit(forced_params, np.array([0.0, -0.5]), cfg=cfg)


# --- plain probes decide at loose tolerances when that suffices ---------------

def _record_plain_runs(mp, run):
    """Route ``orbit``'s plain period runs through ``run`` and record each
    as (kind, z): kind "cfg" at the default tolerances, "loose" at any
    other."""
    runs = []

    def plain(params, z, cfg):
        runs.append(("cfg" if cfg == IntegratorConfig() else "loose",
                     tuple(z.tolist())))
        return run(params, z, cfg)
    mp.setattr(orbit_mod, "flow_map", plain)
    return runs


def _plain_probes(params, script, G=(1.0, 0.5), raises=_Probed):
    """A search from z = 0 on a period map whose monodromy runs all return
    (z + G, I/2): its Newton step is dz = 2 G, every full-step monodromy
    probe ties with the defect max |G| and is rejected, and every other
    probe is a plain run.  The plain runs answer from ``script`` in turn,
    with the defect d of zT = z + (d, 0) or by raising the exception
    given, and end the search once it is spent.  Returns the (kind, z)
    of every plain run, as ``_record_plain_runs`` records them."""
    answers = iter(script)

    def run(params, z, cfg):
        answer = next(answers, _Probed())
        if isinstance(answer, Exception):
            raise answer
        return z + np.array([answer, 0.0])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbit_mod, "flow_and_monodromy",
                   lambda params, z, cfg: (z + np.asarray(G), 0.5 * np.eye(2)))
        runs = _record_plain_runs(mp, run)
        with pytest.raises(raises):
            find_periodic_orbit(params, np.zeros(2))
    return runs


# From z = 0 with defect 1 the first plain probe is at 0.5 dz = (1, 0.5),
# so tau = 1e-6 and the margin is 10 tau (1 + 1) = 2e-5.  An accepted probe
# is followed by the next iteration's full-step plain probe at (3, 1.5), a
# rejected one by the probe at 0.25 dz = (0.5, 0.25).
_ACCEPTED, _REJECTED = (3.0, 1.5), (0.5, 0.25)
_UNDERFLOW = StepUnderflowError("underflow", t=1.0)


@pytest.mark.parametrize("script, kinds, then", [
    ((1.0 - 3e-5,), ["loose"], _ACCEPTED),
    ((1.0 + 3e-5,), ["loose"], _REJECTED),
    ((1.0 - 1e-5, 1.0), ["loose", "cfg"], _REJECTED),
    ((1.0 + 1e-5, 0.5), ["loose", "cfg"], _ACCEPTED),
    ((math.nan, 0.5), ["loose", "cfg"], _ACCEPTED),
    ((math.inf, 0.5), ["loose", "cfg"], _ACCEPTED),
    ((_UNDERFLOW, 0.5), ["loose", "cfg"], _ACCEPTED),
    ((DomainOverflowError("overflow"), 0.5), ["loose", "cfg"], _ACCEPTED),
    ((_UNDERFLOW, _UNDERFLOW), ["loose", "cfg"], _REJECTED),
], ids=["decides-accept", "decides-reject", "tie-settled-reject",
        "tie-settled-accept", "nan", "inf", "loose-fails", "loose-overflows",
        "both-fail-halve"])
def test_a_plain_probe_runs_loose_and_settles_only_when_undecided(
        forced_params, script, kinds, then):
    """A loose defect beyond the margin decides the probe alone.  One
    inside it, a NaN or infinite one, or a loose run that fails is
    settled by exactly one run at ``cfg``, which decides as a probe
    always did: a failure there halves the step."""
    runs = _plain_probes(forced_params, script)
    assert runs == [(kind, (1.0, 0.5)) for kind in kinds] + [("loose", then)]


def test_a_loose_probe_lets_programming_errors_through(forced_params):
    runs = _plain_probes(forced_params, (TypeError("bug"),), raises=TypeError)
    assert runs == [("loose", (1.0, 0.5))]


def test_a_probe_near_the_noise_floor_runs_once_at_cfg(forced_params):
    """At defect 1e-5, tau = 1e-11 is tighter than the default 1e-10, so
    each plain probe is one run at ``cfg``."""
    runs = _plain_probes(forced_params, (0.5e-5,), G=(1e-5, 0.0))
    assert runs == [("cfg", (1e-5, 0.0)), ("cfg", (1e-5 + 2e-5, 0.0))]


def _outcome(params, guess):
    """What a search from ``guess`` reports, bit for bit: the orbit's z0,
    monodromy, defects and stop rule, or the failure's class, message
    and defects."""
    try:
        orbit = find_periodic_orbit(params, guess)
    except OrbitSearchError as err:
        return (type(err).__name__, str(err),
                tuple(map(float.hex, err.residual_history)))
    except (IntegrationError, DomainOverflowError) as err:
        return type(err).__name__, str(err)
    return (orbit.z0.tobytes(), orbit.monodromy.tobytes(),
            tuple(map(float.hex, orbit.residual_history)), orbit.stop_rule)


_STARTS = ((1.0, 1.0), (3.0, 0.1), (0.5, 2.0))


def _traffic_guesses(params):
    """The guesses of a draw's searches: the end of a 30-period seed from
    each of _STARTS, then each averaged root."""
    cfg = IntegratorConfig()
    return ([seed_by_transient(params, np.log(x), 30, cfg).z for x in _STARTS]
            + [root.z for root in averaged_equilibria(params)])


def _outcomes(params, guesses, loose=True):
    """The outcomes of the searches from ``guesses``, with every probe at
    ``cfg`` (loose factor 0) unless ``loose``."""
    with pytest.MonkeyPatch.context() as mp:
        if not loose:
            mp.setattr(orbit_mod, "_LOOSE_TOL_FACTOR", 0.0)
        return [_outcome(params, g) for g in guesses]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(i=st.integers(0, 399))
@example(i=48)
def test_loose_probes_leave_every_search_bit_for_bit(i):
    """A search with loose probes reports what it reports with every probe
    at ``cfg``, from 30-period seeds and from each averaged root of a
    random draw: the loose runs only make decisions that the runs at
    ``cfg`` make too.  Draw 48's searches run 305 probes loose and settle
    53 of them at ``cfg``."""
    params = random_draw(i)
    guesses = _traffic_guesses(params)
    assert _outcomes(params, guesses) == _outcomes(params, guesses,
                                                   loose=False)


@pytest.mark.slow
def test_random_draw_traffic_is_unchanged_by_loose_probes(capsys):
    """The traffic check: the searches from ``_traffic_guesses`` of all
    400 random draws (1,461 in all) report the same, bit for bit, with loose probes as
    with every probe at ``cfg``.  Prints how many probes ran loose and
    how many of those a run at ``cfg`` settled."""
    digests = [hashlib.sha256(), hashlib.sha256()]
    searches = loose = settled = 0
    for i in range(400):
        params = random_draw(i)
        guesses = _traffic_guesses(params)
        with pytest.MonkeyPatch.context() as mp:
            runs = _record_plain_runs(mp, orbit_mod.flow_map)
            with_loose = _outcomes(params, guesses)
        at_cfg = _outcomes(params, guesses, loose=False)
        searches += len(guesses)
        digests[0].update(repr(with_loose).encode())
        digests[1].update(repr(at_cfg).encode())
        loose += sum(kind == "loose" for kind, _ in runs)
        settled += sum(b == ("cfg", z) for (kind, z), b in zip(runs, runs[1:])
                       if kind == "loose")
    with capsys.disabled():
        print(f"\n{searches} searches: {loose} probes ran loose, "
              f"{settled} settled at cfg")
    assert searches == 1_461
    assert digests[0].hexdigest() == digests[1].hexdigest()


# --- steady-state detection ----------------------------------------------

def test_steady_state_detected_for_settled_constant_system(remark_params,
                                                          cfg):
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


def _variational_oracle(params, x):
    """M over one period of the original-frame variational equations from
    the state x, written out here from the model equations, with the
    rates evaluated by the coefficients, by scipy's DOP853 at
    rtol = atol = 1e-13."""
    from scipy.integrate import solve_ivp

    k1, k2, w1, w2 = params.k1, params.k2, params.w1, params.w2

    def field(t, w):
        x1, x2 = w[:2]
        r1, r2, b1, b2 = (float(c(t)) for c in params.coefficients().values())
        fear = 1.0 / (1.0 + w1 * x1)
        J = np.array([[r1 * (1.0 - 2.0 * x1 / k1) - b1 * x2, -b1 * x1],
                      [-r2 * x2 * w1 * fear ** 2 - b2 * x2 - w2 * x2 ** 2,
                       r2 * (fear - 2.0 * x2 / k2) - b2 * x1
                       - 2.0 * w2 * x1 * x2]])
        return [r1 * x1 * (1.0 - x1 / k1) - b1 * x1 * x2,
                r2 * x2 * (fear - x2 / k2) - b2 * x1 * x2 - w2 * x1 * x2 ** 2,
                *(J @ np.reshape(w[2:], (2, 2))).ravel()]

    sol = solve_ivp(field, (0.0, params.period), [*x, 1.0, 0.0, 0.0, 1.0],
                    method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success
    return sol.y[2:, -1].reshape(2, 2)


@pytest.mark.parametrize("params, start, n_periods, absent", [
    ("remark_params", (0.002, 0.002), 200, 2),
    (3, (1.0, 1.0), 30, 2),
    (5, (0.5, 2.0), 30, 1)], ids=["remark", "draw3", "draw5"])
def test_a_boundary_steady_state_is_linearised_at_the_boundary(
        request, cfg, params, start, n_periods, absent):
    """The constant-rate remark system from its 200-period seed, and random
    draws 3 and 5, whose forced rates leave one species absent, from their
    30-period seeds: each settles on the boundary state without species
    i = ``absent``, x_j = k_j.  Its monodromy has M_ij = 0 exactly and the
    closed-form diagonal, e^{T g_i} with g_i the invasion rate from
    quadrature means, and e^{-T r_j_bar}, within 1e-14 relative; every
    entry lies within 1e-8 max(1, |M|) of an independent integration of
    the variational equations from that state."""
    params = (random_draw(params) if isinstance(params, int)
              else request.getfixturevalue(params))
    seed = seed_by_transient(params, np.log(start), n_periods, cfg)
    orbit = detect_steady_state(params, seed.z, cfg)
    assert orbit is not None and orbit.stop_rule == "steady_state"
    M, T = orbit.monodromy, params.period
    i, j = absent - 1, 2 - absent
    r1, r2, b1, b2 = (mean_by_quadrature(c)
                      for c in params.coefficients().values())
    invasion = (r1 - b1 * params.k2 if i == 0
                else r2 / (1.0 + params.w1 * params.k1) - b2 * params.k1)
    assert M[i, j] == 0.0
    assert M[i, i] == pytest.approx(math.exp(T * invasion), rel=1e-14)
    assert M[j, j] == pytest.approx(math.exp(-T * (r1, r2)[j]), rel=1e-14)
    x = [0.0, 0.0]
    x[j] = (params.k1, params.k2)[j]
    ref = _variational_oracle(params, x)
    assert np.all(np.abs(M - ref) <= 1e-8 * np.maximum(1.0, np.abs(M)))


def test_a_small_interior_steady_state_is_not_taken_for_the_boundary(cfg):
    """Constant rates with k2 = 1e-7: the stable interior equilibrium has
    x2 near k2, far below 1e-6 x1 but not below 1e-6 k2, so it is no
    boundary state.  Linearised at (k1, 0) its monodromy would have
    e^{T g2(k1, 0)}, about 532, on the diagonal; along the run from the
    seed its multipliers are exp(T eig(J)) of the Jacobian at the
    equilibrium, here taken by central differences of the field."""
    C = PeriodicCoefficient.constant
    params = ModelParams(r1=C(1.0), r2=C(1.0), beta1=C(0.001),
                         beta2=C(0.001), k1=1.0, k2=1e-7, w1=0.0, w2=0.0,
                         period=TWO_PI)
    seed = seed_by_transient(params, np.log([0.5, 0.5e-7]), 30, cfg)
    orbit = detect_steady_state(params, seed.z, cfg)
    assert orbit is not None and orbit.stop_rule == "steady_state"
    assert orbit.monodromy[1, 0] != 0.0
    assert orbit.stable
    x = np.exp(seed.z)
    J = np.empty((2, 2))
    for c in range(2):
        e = np.zeros(2)
        e[c] = 1e-4 * x[c]
        J[:, c] = (np.subtract(rhs_original(params, 0.0, x + e),
                               rhs_original(params, 0.0, x - e))
                   / (2.0 * e[c]))
    expected = sorted(np.abs(np.exp(params.period * np.linalg.eigvals(J))))
    got = sorted(abs(m) for m in orbit.floquet_multipliers)
    np.testing.assert_allclose(got, expected, rtol=1e-7)


def test_steady_state_not_detected_mid_transient(remark_params, cfg):
    seed = seed_by_transient(remark_params, np.log([0.002, 0.002]), 5, cfg)
    assert detect_steady_state(remark_params, seed.z, cfg) is None


def _in_units(s):
    """r1 = 1 + 0.4 sin t with the coexistence constants, with densities
    measured in units 1/s times as large: k times s, beta1, beta2 and w1
    over s, w2 over s^2.  The flow of x / s is the same for every s."""
    C = PeriodicCoefficient.constant
    return ModelParams(r1=PeriodicCoefficient.sinusoid(1.0, 0.4), r2=C(1.0),
                       beta1=C(0.05 / s), beta2=C(0.002 / s), k1=2.0 * s,
                       k2=1.0 * s, w1=0.1 / s, w2=0.002 / s / s, period=TWO_PI)


def test_the_steady_state_test_does_not_depend_on_units(cfg):
    """x1 varies by 2.5% over the period in any units.  At s = 1e-6 the
    absolute sample variance falls below 1e-12, yet the variance relative
    to the largest density does not, so both systems are shot from their
    30-period seeds at x0 = (1, 0.5) s, to the same orbit.  Both take one
    full step, and its probe, the next iteration's monodromy run, has a
    defect below tol, so both stop by tol."""
    orbits = []
    for s in (1.0, 1e-6):
        params = _in_units(s)
        seed = seed_by_transient(params, np.log([1.0 * s, 0.5 * s]), 30, cfg)
        assert detect_steady_state(params, seed.z, cfg) is None
        orbits.append(find_periodic_orbit(params, seed.z, cfg=cfg))
    unit, micro = orbits
    assert np.max(np.var(micro.densities.states, axis=0)) < 1e-12
    assert unit.stop_rule == micro.stop_rule == "tol"
    assert unit.newton_iterations == micro.newton_iterations == 1
    assert [abs(m) for m in unit.floquet_multipliers] == pytest.approx(
        [0.0067107, 0.0018968], abs=1e-7)
    for a, b in zip(unit.floquet_multipliers, micro.floquet_multipliers):
        assert abs(a - b) <= 1e-8 * abs(a)


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
        newton_iterations=0, densities=Trajectory(times, np.exp(states)))
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
