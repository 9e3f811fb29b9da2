import numpy as np
import pytest

from phytoperiod import IntegratorConfig, ModelParams, PeriodicCoefficient

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def ex1_params():
    """Oscillating-rate demo parameters (the bundled example1 config)."""
    return ModelParams(
        r1=PeriodicCoefficient.sinusoid(0.03, 0.5),
        r2=PeriodicCoefficient.sinusoid(0.0001, 0.9),
        beta1=PeriodicCoefficient.sinusoid(0.0004, 0.5),
        beta2=PeriodicCoefficient.sinusoid(0.006, 0.2),
        k1=8.0, k2=6.0, w1=20.0, w2=2.0, period=TWO_PI)


@pytest.fixture(scope="session")
def remark_params():
    """Constant-rate contrast parameters (the bundled remark config)."""
    C = PeriodicCoefficient.constant
    return ModelParams(r1=C(0.03), r2=C(0.0001), beta1=C(0.0004), beta2=C(0.006),
                       k1=8.0, k2=6.0, w1=20.0, w2=2.0, period=TWO_PI)


@pytest.fixture(scope="session")
def coexist_params():
    """Constant rates with a stable interior equilibrium.

    Chosen so that all three conditions hold and the equilibrium
    (x1, x2) = (1.91679, 0.83213) sits inside the full bound box.
    """
    C = PeriodicCoefficient.constant
    return ModelParams(r1=C(1.0), r2=C(1.0), beta1=C(0.05), beta2=C(0.002),
                       k1=2.0, k2=1.0, w1=0.1, w2=0.002, period=TWO_PI)


@pytest.fixture(scope="session")
def forced_params():
    """Coexistence system with an oscillating r1: has a genuine positive
    periodic attractor (the primary positive-path shooting target)."""
    C = PeriodicCoefficient.constant
    return ModelParams(
        r1=PeriodicCoefficient.sinusoid(1.0, 0.3),
        r2=C(1.0), beta1=C(0.05), beta2=C(0.002),
        k1=2.0, k2=1.0, w1=0.1, w2=0.002, period=TWO_PI)


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig()


@pytest.fixture(scope="session")
def cfg_tight():
    return IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)


def newton_equilibrium(params, guess, tol=1e-13, max_iter=60):
    """Independent equilibrium oracle: 2-D Newton on the autonomous
    original-frame field with a central finite-difference Jacobian."""
    from phytoperiod import rhs_original

    x = np.asarray(guess, dtype=float)
    for _ in range(max_iter):
        f = np.asarray(rhs_original(params, 0.0, x))
        if np.max(np.abs(f)) < tol:
            return x
        J = np.zeros((2, 2))
        for j in range(2):
            h = 1e-7 * max(1.0, abs(x[j]))
            dx = np.zeros(2)
            dx[j] = h
            J[:, j] = (np.asarray(rhs_original(params, 0.0, x + dx))
                       - np.asarray(rhs_original(params, 0.0, x - dx))) / (2 * h)
        x = x + np.linalg.solve(J, -f)
    raise AssertionError("equilibrium oracle did not converge")
