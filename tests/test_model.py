"""Vector fields, Jacobians and the averaged residual."""

import math

import numpy as np
import pytest

from phytoperiod import (DomainOverflowError, ModelParams, PeriodicCoefficient,
                         averaged_jacobian, averaged_residual, jac_log,
                         jac_original, rhs_log, rhs_original)

# direct substitution at t=0, x=(1,1): r1=0.03, r2=0.0001, b1=0.0004, b2=0.006
EX1_RHS_AT_ONE = (0.02585, -2.0060119047619048)


# --- rhs_original --------------------------------------------------------

def test_rhs_original_direct_substitution(ex1_params):
    dx = rhs_original(ex1_params, 0.0, (1.0, 1.0))
    assert dx[0] == pytest.approx(EX1_RHS_AT_ONE[0], abs=1e-12)
    assert dx[1] == pytest.approx(EX1_RHS_AT_ONE[1], abs=1e-8)


def test_rhs_original_extinction_equilibrium(ex1_params):
    np.testing.assert_array_equal(rhs_original(ex1_params, 1.23, (0.0, 0.0)),
                                  [0.0, 0.0])


def test_rhs_original_carrying_capacity_equilibrium(ex1_params):
    dx = rhs_original(ex1_params, 0.77, (ex1_params.k1, 0.0))
    assert dx[0] == pytest.approx(0.0, abs=1e-15)
    assert dx[1] == pytest.approx(0.0, abs=1e-15)


def test_invariant_axes(ex1_params):
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.uniform(0, 10)
        v = rng.uniform(0.01, 5.0)
        assert rhs_original(ex1_params, t, (v, 0.0))[1] == 0.0
        assert rhs_original(ex1_params, t, (0.0, v))[0] == 0.0


# --- rhs_log -------------------------------------------------------------

def test_rhs_log_matches_original_at_unit_state(ex1_params):
    dz = rhs_log(ex1_params, 0.0, (0.0, 0.0))
    assert dz[0] == pytest.approx(EX1_RHS_AT_ONE[0], abs=1e-12)
    assert dz[1] == pytest.approx(EX1_RHS_AT_ONE[1], abs=1e-8)


def test_chain_rule_identity(ex1_params):
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = rng.uniform(0, 10)
        x = rng.uniform(0.01, 6.0, size=2)
        lhs = rhs_log(ex1_params, t, np.log(x))
        rhs = rhs_original(ex1_params, t, x) / x
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_log_first_component_at_carrying_capacity(ex1_params):
    z2 = -0.7
    dz = rhs_log(ex1_params, 0.4, (math.log(ex1_params.k1), z2))
    expected = -ex1_params.beta1(0.4) * math.exp(z2)
    assert dz[0] == pytest.approx(expected, abs=1e-14)


def test_overflow_guard(ex1_params):
    with pytest.raises(DomainOverflowError):
        rhs_log(ex1_params, 0.0, (800.0, 0.0))
    with pytest.raises(DomainOverflowError):
        rhs_log(ex1_params, 0.0, (0.0, float("nan")))


# --- Jacobians -----------------------------------------------------------

def _fd_jacobian(fun, v, h=1e-6):
    J = np.zeros((2, 2))
    for j in range(2):
        dv = np.zeros(2)
        dv[j] = h
        J[:, j] = (np.asarray(fun(v + dv)) - np.asarray(fun(v - dv))) / (2 * h)
    return J


def test_jac_log_matches_finite_differences(ex1_params):
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = rng.uniform(0, 10)
        z = rng.uniform(-4, 1.5, size=2)
        J = jac_log(ex1_params, t, z)
        J_fd = _fd_jacobian(lambda v: rhs_log(ex1_params, t, v), z)
        np.testing.assert_allclose(J, J_fd, rtol=1e-6, atol=1e-8)


def test_jac_original_matches_finite_differences(ex1_params):
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = rng.uniform(0, 10)
        x = rng.uniform(0.05, 5.0, size=2)
        J = jac_original(ex1_params, t, x)
        J_fd = _fd_jacobian(lambda v: rhs_original(ex1_params, t, v), x)
        np.testing.assert_allclose(J, J_fd, rtol=1e-5, atol=1e-7)


# --- averaged residual ---------------------------------------------------

def test_averaged_residual_direct_substitution(ex1_params):
    res = averaged_residual(ex1_params, (0.0, 0.0))
    assert res[0] == pytest.approx(0.02585, abs=1e-12)
    assert res[1] == pytest.approx(-2.006012, abs=1e-6)


def test_averaged_residual_vanishing_field():
    C = PeriodicCoefficient.constant
    p = ModelParams(r1=C(0.0), r2=C(0.0), beta1=C(0.0), beta2=C(0.0),
                    k1=1.0, k2=1.0, w1=0.0, w2=0.0, period=1.0)
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = rng.uniform(-3, 3, size=2)
        np.testing.assert_array_equal(averaged_residual(p, z), [0.0, 0.0])


def test_averaged_jacobian_matches_finite_differences(ex1_params):
    rng = np.random.default_rng(29)
    for _ in range(3):
        z = rng.uniform(-3, 1, size=2)
        J = averaged_jacobian(ex1_params, z)
        J_fd = _fd_jacobian(lambda v: averaged_residual(ex1_params, v), z)
        np.testing.assert_allclose(J, J_fd, rtol=1e-6, atol=1e-9)


# --- parameter validation ------------------------------------------------

def test_params_validation():
    C = PeriodicCoefficient.constant
    good = dict(r1=C(1.0), r2=C(1.0), beta1=C(0.1), beta2=C(0.1),
                k1=1.0, k2=1.0, w1=0.0, w2=0.0, period=1.0)
    ModelParams(**good)
    for bad in ({"k1": 0.0}, {"k2": -1.0}, {"w1": -0.1}, {"w2": -2.0},
                {"period": 0.0}):
        with pytest.raises(ValueError):
            ModelParams(**{**good, **bad})


def test_params_period_compatibility():
    C = PeriodicCoefficient.constant
    s = PeriodicCoefficient.sinusoid(1.0, 0.5, omega=2.0)  # period pi
    ModelParams(r1=s, r2=C(1.0), beta1=C(0.1), beta2=C(0.1),
                k1=1.0, k2=1.0, w1=0.0, w2=0.0, period=2.0 * math.pi)
    with pytest.raises(ValueError):
        ModelParams(r1=s, r2=C(1.0), beta1=C(0.1), beta2=C(0.1),
                    k1=1.0, k2=1.0, w1=0.0, w2=0.0, period=1.5 * math.pi)
