"""Integration accuracy, order verification, flow map and monodromy."""

import math

import numpy as np
import pytest

from phytoperiod import (IntegratorConfig, NonFiniteStateError, Trajectory,
                         flow_map, integrate, rhs_log, rhs_original,
                         variational_flow, write_trajectory_csv)

TWO_PI = 2.0 * math.pi


def exp_decay(t, y):
    return -y


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


def test_invalid_time_span():
    with pytest.raises(ValueError):
        integrate(exp_decay, 1.0, np.array([1.0]), 1.0, IntegratorConfig())


def test_nonfinite_state_detected():
    blow_up = lambda t, y: y * y  # finite-time blow-up from y0 = 2: t* = 0.5
    with pytest.raises((NonFiniteStateError, Exception)):
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
