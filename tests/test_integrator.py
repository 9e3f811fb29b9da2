"""Integration accuracy, order verification, flow map and monodromy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phytoperiod import (IntegrationError, IntegratorConfig, ModelParams,
                         PeriodicCoefficient, Trajectory, flow_and_monodromy,
                         flow_map, integrate, jac_log, rhs_log, rhs_original,
                         variational_flow, write_trajectory_csv)

TWO_PI = 2.0 * math.pi

# (params fixture, z0): near the forced orbit, and near example1's
# boundary state x1 = k1 where species 2 decays
PERIOD_CASES = [("forced_params", (0.64, -0.18)),
                ("ex1_params", (math.log(8.0), math.log(1e-3)))]


def exp_decay(t, y):
    return (-y[0],)


# --- basic accuracy ------------------------------------------------------

def test_exponential_adaptive():
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    traj = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, cfg)
    assert traj.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_logistic_closed_form():
    # uncoupled first species with constant rate is a plain logistic
    r, k, x0 = 0.03, 8.0, 0.002
    field = lambda t, y: np.array([r * y[0] * (1.0 - y[0] / k)])
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12, max_step=5.0)
    traj = integrate(field, 0.0, np.array([x0]), 100.0, cfg)
    expected = k / (1.0 + ((k - x0) / x0) * math.exp(-r * 100.0))
    assert traj.final_state[0] == pytest.approx(expected, rel=1e-9)


def test_zero_field_identity():
    field = lambda t, y: np.zeros_like(y)
    y0 = np.array([1.3, -0.7])
    for method in ("rk4-fixed", "rk45-adaptive"):
        traj = integrate(field, 0.0, y0, 3.0, IntegratorConfig(method=method))
        np.testing.assert_array_equal(traj.final_state, y0)


def test_rk4_order_fit():
    """Global error on y' = -y scales like h^4: fitted slope in [3.8, 4.2]."""
    steps = [0.2, 0.1, 0.05, 0.025]
    errors = []
    for h in steps:
        cfg = IntegratorConfig(method="rk4-fixed", step=h)
        traj = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, cfg)
        errors.append(abs(traj.final_state[0] - math.exp(-1.0)))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    print(f"\n  RK4 order fit: slope = {slope:.3f}, errors = {errors}")
    assert 3.8 <= slope <= 4.2


def test_adaptive_tolerance_monotonicity():
    ref_cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    ref = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, ref_cfg).final_state[0]
    errs = []
    for tol in (1e-4, 1e-6, 1e-8):
        cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
        val = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, cfg).final_state[0]
        errs.append(abs(val - ref))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_t_eval_matches_separate_integrations():
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    marks = [0.3, 0.7]
    traj = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, cfg, t_eval=marks)
    assert list(traj.times) == [0.0, 0.3, 0.7, 1.0]
    for t, s in zip(traj.times, traj.states):
        assert s[0] == pytest.approx(math.exp(-t), abs=1e-9)


def test_dense_output_records_internal_steps():
    cfg = IntegratorConfig(dense_output=True)
    traj = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, cfg)
    assert len(traj.times) > 3
    for t, s in zip(traj.times, traj.states):
        assert s[0] == pytest.approx(math.exp(-t), abs=1e-8)


def test_adaptive_stepper_reuses_last_stage():
    """Dormand-Prince is FSAL: after an accepted step its 7th stage is the
    next step's 1st, so each step costs 6 field calls plus 1 at the start,
    with or without sample points.  At the default tolerances y' = -y on
    [0, 10] rejects no step."""
    calls = 0

    def field(t, y):
        nonlocal calls
        calls += 1
        return (-y[0],)

    steps = integrate(field, 0.0, np.array([1.0]), 10.0,
                      IntegratorConfig(dense_output=True))
    assert calls == 6 * (len(steps.times) - 1) + 1
    calls = 0
    integrate(field, 0.0, np.array([1.0]), 10.0, IntegratorConfig(),
              t_eval=np.linspace(0.0, 10.0, 1001))
    assert calls == 6 * (len(steps.times) - 1) + 1


def _sampled_and_plain(field, y0, t1, cfg, t_eval):
    """(sampled trajectory, its field calls, plain trajectory, its calls)."""
    out = []
    for grid in (t_eval, None):
        calls = 0

        def counted(t, y):
            nonlocal calls
            calls += 1
            return field(t, y)
        out += [integrate(counted, 0.0, y0, t1, cfg, t_eval=grid, frame="log"),
                calls]
    return out


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_sampling_leaves_the_steps_unchanged(forced_params, method):
    """Sample points are read off the steps, never landed on: a run makes
    the same field calls and ends in the same state, bit for bit, with or
    without t_eval, and a sampled run's ``steps`` are the plain run's rows
    (t0, the accepted steps under dense_output, t1), bit for bit.  The
    period includes rejected steps for rk45."""
    field = lambda t, z: rhs_log(forced_params, t, z)
    marks = np.linspace(0.0, TWO_PI, 257)[1:-1]
    for dense in (False, True):
        cfg = IntegratorConfig(method=method, step=0.05, dense_output=dense)
        sampled, n_sampled, plain, n_plain = _sampled_and_plain(
            field, (0.64, -0.18), TWO_PI, cfg, marks)
        assert n_sampled == n_plain
        assert sampled.final_state.tobytes() == plain.final_state.tobytes()
        np.testing.assert_array_equal(sampled.times[1:-1], marks)
        assert plain.steps is None and sampled.steps.frame == plain.frame
        assert sampled.steps.times.tobytes() == plain.times.tobytes()
        assert sampled.steps.states.tobytes() == plain.states.tobytes()
        assert (len(plain.times) > 3) == dense


@pytest.mark.parametrize("method, power", [("rk45-adaptive", 4),
                                           ("rk4-fixed", 3)])
def test_continuous_extension_is_exact_on_polynomials(method, power):
    """DP5's order-4 extension reproduces y = t^4 from y' = 4 t^3, RK4's
    order-3 extension y = t^3 from y' = 3 t^2, at every sample point."""
    field = lambda t, y: (power * t ** (power - 1),)
    marks = np.linspace(0.0, 2.0, 201)[1:-1]
    traj = integrate(field, 0.0, [0.0], 2.0,
                     IntegratorConfig(method=method, step=0.3), t_eval=marks)
    np.testing.assert_allclose(traj.states[1:, 0], traj.times[1:] ** power,
                               rtol=1e-14, atol=0.0)


def _landed(field, y0, marks, t1):
    """Reference that lands on every mark: one tight integration per
    interval, each ending exactly on its mark (no interpolation)."""
    tight = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
    y = np.asarray(y0, dtype=float)
    out = [y]
    for a, b in zip([0.0, *marks], [*marks, t1]):
        y = integrate(field, a, y, b, tight, frame="log").final_state
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("params_name, z0", PERIOD_CASES)
def test_samples_match_a_landed_reference(request, params_name, z0):
    params = request.getfixturevalue(params_name)
    field = lambda t, z: rhs_log(params, t, z)
    marks = np.linspace(0.0, params.period, 257)[1:-1]
    traj = integrate(field, 0.0, z0, params.period, IntegratorConfig(),
                     t_eval=marks, frame="log")
    err = np.max(np.abs(traj.states - _landed(field, z0, marks, params.period)))
    print(f"\n  sample error against the landed reference: {err:.3e}")
    assert err < 1e-8


_rate = st.tuples(st.floats(0.2, 2.0), st.floats(0.0, 0.9),
                  st.floats(0.0, TWO_PI))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rates=st.tuples(_rate, _rate, _rate, _rate),
       consts=st.tuples(*[st.floats(0.5, 5.0)] * 2, *[st.floats(0.0, 5.0)] * 2),
       z0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       grid=st.lists(st.floats(0.0, TWO_PI, allow_subnormal=False),
                     min_size=1, max_size=20))
def test_sampling_is_invariant_and_accurate_over_random_forcing(rates, consts,
                                                                z0, grid):
    """Random sinusoidal rates (relative amplitude < 0.9, so positive) and
    random sample grids, duplicates and the end points included: the grid
    changes neither the steps nor the end state, the returned times are
    t0, the distinct interior points and t1, and every sample lies within
    100 times the local error tolerance of a landed reference."""
    beta_scale = (1.0, 1.0, 0.3, 0.15)
    coeffs = [PeriodicCoefficient.sinusoid(m * s, m * s * a, phase=ph)
              for (m, a, ph), s in zip(rates, beta_scale)]
    k1, k2, w1, w2 = consts
    params = ModelParams(*coeffs, k1=k1, k2=k2, w1=w1, w2=w2, period=TWO_PI)
    field = lambda t, z: rhs_log(params, t, z)
    sampled, n_sampled, plain, n_plain = _sampled_and_plain(
        field, z0, TWO_PI, IntegratorConfig(), grid)
    assert n_sampled == n_plain
    assert sampled.final_state.tobytes() == plain.final_state.tobytes()
    inner = sorted({p for p in grid if 0.0 < p < TWO_PI})
    assert list(sampled.times) == [0.0, *inner, TWO_PI]
    ref = _landed(field, z0, inner, TWO_PI)
    assert np.all(np.abs(sampled.states - ref) <= 1e-8 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_t_eval_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        integrate(exp_decay, 0.0, np.array([1.0]), 1.0, IntegratorConfig(),
                  t_eval=[bad, 0.5])


def test_invalid_time_span():
    with pytest.raises(ValueError):
        integrate(exp_decay, 1.0, np.array([1.0]), 1.0, IntegratorConfig())


def test_nonfinite_state_detected():
    blow_up = lambda t, y: (y[0] * y[0],)  # finite-time blow-up from y0 = 2: t* = 0.5
    with pytest.raises(IntegrationError):
        integrate(blow_up, 0.0, np.array([2.0]), 1.0,
                  IntegratorConfig(abs_tol=1e-6, rel_tol=1e-6))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_step_underflow_on_nan_producing_field():
    # y' = -sqrt(y) crosses zero in finite time, after which the field
    # returns NaN: every step is rejected and the step size collapses
    from phytoperiod import StepUnderflowError

    field = lambda t, y: -np.sqrt(y)
    with pytest.raises(StepUnderflowError) as exc_info:
        integrate(field, 0.0, np.array([1.0]), 5.0, IntegratorConfig())
    assert exc_info.value.t is not None


def test_first_step_underflow_is_an_integration_failure():
    """Over a span of 5e-324 the first adaptive step, span * 1e-3,
    underflows to 0: that is a step underflow, not an endless loop.  The
    fixed-step method takes the whole span as one step."""
    from phytoperiod import StepUnderflowError

    with pytest.raises(StepUnderflowError) as exc_info:
        integrate(exp_decay, 0.0, [1.0], 5e-324, IntegratorConfig())
    assert exc_info.value.t == 0.0
    traj = integrate(exp_decay, 0.0, [1.0], 5e-324,
                     IntegratorConfig(method="rk4-fixed"))
    assert list(traj.times) == [0.0, 5e-324]


def test_model_overflow_propagates(ex1_params):
    from phytoperiod import DomainOverflowError

    field = lambda t, z: rhs_log(ex1_params, t, z)
    with pytest.raises(DomainOverflowError):
        integrate(field, 0.0, np.array([709.5, 0.0]), 1.0, IntegratorConfig(),
                  frame="log")


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1.0)


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory("log", np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory("log", np.array([0.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory("polar", np.array([0.0, 1.0]), np.zeros((2, 2)))


# --- model-bound operations ----------------------------------------------

def test_flow_map_fixed_point_at_equilibrium(coexist_params, cfg):
    from conftest import newton_equilibrium
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    zeq = np.log(xeq)
    assert np.max(np.abs(flow_map(coexist_params, zeq, cfg) - zeq)) < 1e-8


def test_flow_composition(ex1_params, cfg):
    z0 = np.log([0.002, 0.002])
    one = flow_map(ex1_params, z0, cfg)
    two_legs = flow_map(ex1_params, one, cfg)
    direct = integrate(lambda t, z: rhs_log(ex1_params, t, z),
                       0.0, z0, 2.0 * TWO_PI, cfg, frame="log").final_state
    assert np.max(np.abs(two_legs - direct)) < 1e-7


def test_ex1_flow_stays_bounded(ex1_params, cfg):
    z0 = np.log([0.002, 0.002])
    zT = flow_map(ex1_params, z0, cfg)
    x = np.exp(zT)
    assert np.all(np.isfinite(zT))
    assert np.all(x > 0.0) and np.all(x < ex1_params.k1 + 1.0)


def test_log_original_frame_equivalence(ex1_params, cfg):
    x0 = np.array([0.002, 0.002])
    marks = np.linspace(0.0, TWO_PI, 65)[1:-1]
    in_x = integrate(lambda t, x: rhs_original(ex1_params, t, x),
                     0.0, x0, TWO_PI, cfg, t_eval=marks, frame="original")
    in_z = integrate(lambda t, z: rhs_log(ex1_params, t, z),
                     0.0, np.log(x0), TWO_PI, cfg, t_eval=marks, frame="log")
    sup = np.max(np.abs(np.exp(in_z.states) - in_x.states))
    print(f"\n  frame equivalence sup-error: {sup:.3e}")
    assert sup < 1e-6


def test_positivity_preservation(ex1_params, cfg):
    x0 = np.array([0.002, 0.002])
    marks = np.linspace(0.0, TWO_PI, 65)[1:-1]
    traj = integrate(lambda t, x: rhs_original(ex1_params, t, x),
                     0.0, x0, TWO_PI, cfg, t_eval=marks, frame="original")
    assert np.all(traj.states > 0.0)


# --- monodromy -----------------------------------------------------------

def test_monodromy_zero_field():
    field = lambda t, y: np.zeros(2)
    jac = lambda t, y: np.zeros((2, 2))
    _, M = variational_flow(field, jac, 0.0, np.array([0.3, -0.2]), 5.0,
                            IntegratorConfig())
    np.testing.assert_allclose(M, np.eye(2), atol=1e-12)


def test_monodromy_decoupled_linear_field():
    a, b, T = -0.4, 0.25, 3.0
    field = lambda t, y: np.array([a * y[0], b * y[1]])
    jac = lambda t, y: np.array([[a, 0.0], [0.0, b]])
    _, M = variational_flow(field, jac, 0.0, np.array([1.0, 1.0]), T,
                            IntegratorConfig())
    np.testing.assert_allclose(
        M, np.diag([math.exp(a * T), math.exp(b * T)]), atol=1e-8)


def _augmented_oracle(params):
    """The variational system written with numpy, for scipy."""
    def rhs(t, w):
        J = np.array(jac_log(params, t, w[:2]))
        dY = J @ w[2:].reshape(2, 2)
        return np.concatenate([rhs_log(params, t, w[:2]), dY.ravel()])
    return rhs


@pytest.mark.parametrize("params_name, z0", PERIOD_CASES)
def test_monodromy_matches_scipy_dop853(request, params_name, z0):
    from scipy.integrate import solve_ivp

    params = request.getfixturevalue(params_name)
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    zT, M = flow_and_monodromy(params, np.array(z0), cfg)
    sol = solve_ivp(_augmented_oracle(params), (0.0, params.period),
                    [*z0, 1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-13, atol=1e-13)
    assert sol.success
    w = sol.y[:, -1]
    assert np.max(np.abs(zT - w[:2])) < 1e-9
    assert np.max(np.abs(M - w[2:].reshape(2, 2))) < 1e-9


@pytest.mark.parametrize("params_name, z0", PERIOD_CASES)
def test_monodromy_satisfies_liouville(request, params_name, z0):
    """ln det M(T) = integral of tr J(t, z(t)) over one period."""
    params = request.getfixturevalue(params_name)
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    _, M = flow_and_monodromy(params, np.array(z0), cfg)
    n = 2048
    ts = np.linspace(0.0, params.period, n + 1)
    traj = integrate(lambda t, z: rhs_log(params, t, z), 0.0, np.array(z0),
                     params.period, cfg, t_eval=ts[1:-1], frame="log")
    traces = np.array([np.trace(jac_log(params, t, z))
                       for t, z in zip(traj.times, traj.states)])
    integral = (params.period / n) * (traces.sum()
                                      - 0.5 * (traces[0] + traces[-1]))
    assert abs(math.log(np.linalg.det(M)) - integral) < 1e-8


# --- CSV export ----------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    traj = Trajectory("original", np.array([0.0, 0.5, 1.0]),
                      np.array([[1.0, 2.0], [0.1234567890123456, 3.0],
                                [1e-30, 7.0]]))
    path = tmp_path / "out.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 4
    t, a, b = lines[2].split(",")
    assert float(t) == 0.5 and float(a) == 0.1234567890123456 and float(b) == 3.0


def test_csv_log_frame_header(tmp_path):
    traj = Trajectory("log", np.array([0.0, 1.0]), np.zeros((2, 2)))
    path = tmp_path / "out.csv"
    write_trajectory_csv(traj, path)
    assert path.read_text().startswith("t,z1,z2\n")
