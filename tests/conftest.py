import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phytoperiod
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


# (lo, hi) of the means of r1, r2, beta1, beta2, then of k1, k2, w1, w2
_DRAW_MEANS = ((0.2, 2.0), (0.2, 2.0), (0.01, 0.6), (0.001, 0.3))
_DRAW_CONSTANTS = ((0.5, 4.0), (0.5, 4.0), (0.0, 2.0), (0.0, 0.5))


def random_draw(i):
    """Draw i (from 0) of the random parameter sets of the ROADMAP, from
    one ``random.Random(7)`` stream.  Each of r1, r2, beta1, beta2 in turn
    draws its mean, then its amplitude relative to the mean (below 0.9),
    then its phase, for a sinusoid with T = 2 pi and omega = 1; then come
    k1, k2, w1 and w2."""
    rng = random.Random(7)
    for _ in range(i + 1):
        coeffs = []
        for lo, hi in _DRAW_MEANS:
            mean = rng.uniform(lo, hi)
            amplitude = mean * rng.uniform(0.0, 0.9)
            coeffs.append((mean, amplitude, 1.0, rng.uniform(0.0, TWO_PI)))
        constants = [rng.uniform(lo, hi) for lo, hi in _DRAW_CONSTANTS]
    r1, r2, beta1, beta2 = (PeriodicCoefficient.sinusoid(*c) for c in coeffs)
    k1, k2, w1, w2 = constants
    return ModelParams(r1=r1, r2=r2, beta1=beta1, beta2=beta2,
                       k1=k1, k2=k2, w1=w1, w2=w2, period=TWO_PI)


def mean_by_quadrature(coeff, n=4096):
    """Oracle for the period average that a coefficient's ``mean`` stands
    for: the average over one fundamental period (a constant's over
    [0, 1]) by composite Simpson quadrature on n cells of the array path
    of ``coeff``."""
    period = coeff.period if math.isfinite(coeff.period) else 1.0
    ts = np.linspace(0.0, period, n + 1)
    vals = np.asarray(coeff(ts), dtype=float)
    integral = (period / n / 3.0) * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                                     + 2.0 * vals[2:-1:2].sum())
    return integral / period


def exact_extrema(coeff, a, b):
    """Oracle for ``extrema`` of a Fourier coefficient over [a, b], with no
    sampling.  With z = exp(i w t), z^K f'(t) is a polynomial of degree 2K
    in z, so the critical points of f are among the arguments of its
    roots; every t in [a, b] with such an argument is a candidate, and so
    are a and b.  Returns (min, max) of f over the candidates."""
    w, K = coeff.omega, len(coeff.harmonics)
    poly = np.zeros(2 * K + 1, dtype=complex)   # highest power first
    for k, (ak, bk) in enumerate(coeff.harmonics, start=1):
        poly[K - k] = 0.5 * k * w * (bk + 1j * ak)    # z^(K + k)
        poly[K + k] = 0.5 * k * w * (bk - 1j * ak)    # z^(K - k)
    candidates = [coeff(float(a)), coeff(float(b))]
    step = TWO_PI / w
    for theta in np.angle(np.roots(poly)):
        t = float(theta) / w
        t += math.ceil((a - t) / step) * step
        while t <= b:
            candidates.append(coeff(t))
            t += step
    return min(candidates), max(candidates)


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


def _log_field(params, t, z1, z2):
    """The log-frame field and its Jacobian at the times t, written with
    numpy on the coefficients' array path: (F1, F2, J11, J12, J21, J22)."""
    r1, r2, b1, b2 = (c(t) for c in (params.r1, params.r2, params.beta1,
                                     params.beta2))
    u, v = np.exp(z1), np.exp(z2)
    k1, k2, w1, w2 = params.k1, params.k2, params.w1, params.w2
    fear = 1.0 + w1 * u
    return (r1 * (1.0 - u / k1) - b1 * v,
            r2 * (1.0 / fear - v / k2) - b2 * u - w2 * u * v,
            -r1 * u / k1, -b1 * v,
            -r2 * w1 * u / fear ** 2 - b2 * u - w2 * u * v,
            -r2 * v / k2 - w2 * u * v)


def fourier_collocation(params, z_guess, n=63, tol=1e-12, max_iter=20):
    """Oracle for a T-periodic orbit of the log-frame system and its
    Floquet multipliers, with no integrator code.

    The orbit is its values at the n equispaced nodes t_j = j T / n.
    Newton solves D z = F(t, z), where D is the periodic spectral
    differentiation matrix (Trefethen, *Spectral Methods in MATLAB*,
    SIAM 2000, ch. 3): D_ij = (1/2) (-1)^(i-j) csc((i - j) pi / n) 2 pi / T
    for odd n.  Even n would give D a Nyquist mode with eigenvalue 0 and
    a spurious exponent.  The multipliers come by Hill's method (Deconinck
    & Kutz, *J. Comput. Phys.* 219, 2006): the eigenvalues of
    diag(J(t_j)) - D are the Floquet exponents plus i k omega, those of
    the smoothest eigenvectors lie nearest the real axis, and the two
    nearest give the multipliers exp(mu T).  That pick assumes the
    multipliers are not both negative.
    Returns (z at t = 0, multipliers by descending modulus, iterations).
    """
    T = params.period
    t = np.arange(n) * T / n
    m = np.arange(1, n)
    col = np.concatenate([[0.0], 0.5 * (-1.0) ** m / np.sin(m * np.pi / n)])
    idx = np.arange(n)
    D = col[(idx[:, None] - idx[None, :]) % n] * (TWO_PI / T)
    D2 = np.kron(np.eye(2), D)          # on y = (z1 at the nodes, z2 at the nodes)
    y = np.repeat(np.asarray(z_guess, dtype=float), n)
    for it in range(max_iter + 1):
        F1, F2, J11, J12, J21, J22 = _log_field(params, t, y[:n], y[n:])
        J = np.block([[np.diag(J11), np.diag(J12)], [np.diag(J21), np.diag(J22)]])
        residual = D2 @ y - np.concatenate([F1, F2])
        if np.max(np.abs(residual)) < tol:
            break
        if it == max_iter:
            raise AssertionError("collocation oracle did not converge")
        y = y - np.linalg.solve(D2 - J, residual)
    exponents = np.linalg.eigvals(J - D2)
    smooth = exponents[np.argsort(np.abs(exponents.imag))[:2]]
    mults = sorted(np.exp(smooth * T), key=abs, reverse=True)
    return y[[0, n]], tuple(complex(mu) for mu in mults), it


def grid_scan(params):
    """Brute-force bracket of the averaged system over a log-space grid.

    Returns (z_best, residual_norm_best, cell_size).  Deliberately dumb:
    direct evaluation on a 200 x 200 grid over [-25, 3]^2, no solver
    involved, so it serves as an independent check on the averaged roots.
    """
    from phytoperiod import averaged_rates

    zs = np.linspace(-25.0, 3.0, 200)
    Z1, Z2 = np.meshgrid(zs, zs, indexing="ij")
    R1, R2 = averaged_rates(params, np.exp(Z1), np.exp(Z2))
    norms = np.maximum(np.abs(R1), np.abs(R2))
    i, j = np.unravel_index(int(np.argmin(norms)), norms.shape)
    return np.array([zs[i], zs[j]]), float(norms[i, j]), float(zs[1] - zs[0])


def march(field, t, y, t1, h, abs_tol=1e-10, rel_tol=1e-10):
    """Run the compiled march for len(y) components from (t, y) to t1 with
    first step h (None: the march's estimate) and no sample points, as
    ``integrate`` does: the variational one for an augmented (field, jac)
    pair, else the plain one.  Returns (row times, row states as tuples)."""
    from phytoperiod.integrator import _MIN_STEP_FACTOR, _Augmented, _dp_march

    n = len(y)
    kind = "variational" if type(field) is _Augmented else "plain"
    times, flat, *_rest = _dp_march(n, kind)(
        field, t, tuple(y), t1, h, abs_tol, rel_tol,
        _MIN_STEP_FACTOR * (t1 - t), [math.inf])
    return times, [tuple(flat[i:i + n]) for i in range(0, len(flat), n)]


def first_step(field, t, y, t1, abs_tol, rel_tol, order):
    """Oracle for the first step a march tries when it is given none:
    Hairer's starting-step estimate (Hairer, Norsett & Wanner, *Solving
    Ordinary Differential Equations I*, sec. II.4) for a method of the
    given order, with max-norms over the components in the scale
    s = abs_tol + rel_tol |y|, written as a loop over the components with
    the builtins ``max`` and ``min``.  Calls ``field`` at (t, y), then at
    the Euler point unless the estimate fails before it; a failure (a
    ``DomainOverflowError`` there, or a quantity that is not finite)
    gives (t1 - t) / 1000.  Returns the step."""
    from phytoperiod import DomainOverflowError

    def norm(values):       # the max-norm, NaN if any value is NaN
        values = list(values)
        return math.nan if any(v != v for v in values) else max(values)

    fallback = (t1 - t) * 1e-3
    h_max = t1 - t
    f0 = field(t, tuple(y))
    s = [abs_tol + rel_tol * abs(v) for v in y]
    d0 = norm(abs(v) / si for v, si in zip(y, s))
    d1 = norm(abs(v) / si for v, si in zip(f0, s))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, h_max)
    if not (h0 > 0.0 and d1 < math.inf):
        return fallback
    try:
        f1 = field(t + h0, tuple(v + h0 * f for v, f in zip(y, f0)))
    except DomainOverflowError:
        return fallback
    d2 = norm(abs(a - b) / si for a, b, si in zip(f1, f0, s)) / h0
    if d2 != d2:
        return fallback
    d = max(d1, d2)
    if d <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / d) ** (1.0 / order)
    if not 0.0 < h1 < math.inf:
        return fallback
    return min(100.0 * h0, h1, h_max)


def order_fit(field, y0, exact, steps):
    """Fixed-step order of a march: with each h of ``steps``, cross
    [0, 1] from y0 by one march per step, from t to t + h with a first
    step of h and a tolerance no step fails, and fit log(global error),
    the max over the components against ``exact`` at t = 1, against
    log(h).  Returns (slope, errors)."""
    errors = []
    for h in steps:
        t, y = 0.0, tuple(y0)
        for _ in range(round(1.0 / h)):
            times, states = march(field, t, y, t + h, h, 1.0, 0.0)
            assert len(times) == 2      # one accepted step
            t, y = times[-1], states[-1]
        errors.append(max(abs(a - b) for a, b in zip(y, exact)))
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0]), errors


def exp_order_fit():
    """Fixed-step order of the plain DOP853 step on y' = -y, y(0) = 1,
    with h = 1, 1/2, 1/3, 1/4 and 1/5.  Returns (slope, errors)."""
    return order_fit(lambda t, y: (-y[0],), (1.0,), (math.exp(-1.0),),
                     (1.0, 0.5, 1 / 3, 0.25, 0.2))


def seed_period_by_period(params, z_start, n_periods, cfg):
    """Oracle for ``seed_by_transient``: the seed it replaced, one
    ``flow_map`` per period, so the step-size controller restarts at
    every period boundary.  Returns (z(nT), max |z(nT) - z((n-1)T)|)."""
    from phytoperiod import flow_map

    z = np.asarray(z_start, dtype=float)
    for _ in range(n_periods):
        prev = z
        z = flow_map(params, z, cfg)
    return z, float(np.max(np.abs(z - prev)))


def write_trajectory_csv_per_row(traj, path):
    """Oracle for ``write_trajectory_csv``'s bytes: the writer it replaced,
    one f-string per row on the numpy scalars."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x1,x2\n")
        for t, s in zip(traj.times, traj.states):
            fh.write(f"{t:.17g},{s[0]:.17g},{s[1]:.17g}\n")


def count_public_calls(monkeypatch, names):
    """Count the calls to each of ``names``, public names of ``model`` (the
    fields) or of ``integrator`` (``integrate`` and the period runs), by
    wrapping each name where ``integrator``, ``orbit`` and ``cli`` look it
    up, as the benchmark's tracer does.  Returns (counts, outside), both
    filled as the calls are made: ``outside`` holds the caller of each
    ``rhs_*`` call made while no ``integrate`` runs."""
    from phytoperiod import cli, integrator, model, orbit

    counts = dict.fromkeys(names, 0)
    outside = []
    depth = 0
    public = {name: getattr(model, name, None) or getattr(integrator, name)
              for name in names}

    def counting(name):
        def wrapped(*args, **kwargs):
            nonlocal depth
            counts[name] += 1
            if name == "integrate":
                depth += 1
                try:
                    return public[name](*args, **kwargs)
                finally:
                    depth -= 1
            if not depth and name.startswith("rhs_"):
                outside.append(sys._getframe(1).f_code.co_name)
            return public[name](*args, **kwargs)
        return wrapped

    for module in (integrator, orbit, cli):
        for name, fn in public.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name))
    return counts, outside


def run_python(*args, timeout=30):
    """Run ``python args...`` with this package importable, in a subprocess
    with a timeout, so that an endless loop fails the calling test instead
    of hanging the suite."""
    src = str(Path(phytoperiod.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)
