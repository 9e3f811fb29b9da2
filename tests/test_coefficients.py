"""Periodic coefficient functions: evaluation, extrema, averages."""

import math

import numpy as np
import pytest

from phytoperiod import PeriodicCoefficient, extrema, mean_by_quadrature

TWO_PI = 2.0 * math.pi


# --- evaluation ----------------------------------------------------------

def test_sinusoid_eval_at_zero():
    f = PeriodicCoefficient.sinusoid(0.03, 0.5)
    assert f(0.0) == pytest.approx(0.03, abs=1e-15)


def test_sinusoid_eval_at_quarter_period():
    f = PeriodicCoefficient.sinusoid(0.03, 0.5)
    assert f(math.pi / 2) == pytest.approx(0.53, abs=1e-12)


def test_constant_eval_everywhere():
    f = PeriodicCoefficient.constant(0.006)
    for t in (0.0, 1.7, -42.0, 1e6):
        assert f(t) == 0.006


def test_fourier_eval_matches_series():
    f = PeriodicCoefficient.fourier(1.0, [(0.2, -0.3), (0.0, 0.1)], omega=2.0)
    t = 0.37
    expected = 1.0 + 0.2 * math.cos(2 * t) - 0.3 * math.sin(2 * t) + 0.1 * math.sin(4 * t)
    assert f(t) == pytest.approx(expected, abs=1e-14)


def test_eval_accepts_arrays():
    # the array (numpy) and scalar (math) paths agree for every kind
    ts = np.linspace(0, 5, 11)
    for f in (PeriodicCoefficient.sinusoid(1.0, 0.5, omega=3.0, phase=0.2),
              PeriodicCoefficient.fourier(0.5, [(0.2, -0.3), (0.05, 0.0)],
                                          omega=2.0),
              PeriodicCoefficient.constant(3.0)):
        np.testing.assert_allclose(f(ts), [f(float(t)) for t in ts],
                                   atol=1e-14)


def test_periodicity_at_random_times():
    rng = np.random.default_rng(42)
    coeffs = [
        PeriodicCoefficient.sinusoid(0.03, 0.5),
        PeriodicCoefficient.sinusoid(-1.0, 2.0, omega=0.7, phase=1.3),
        PeriodicCoefficient.fourier(0.5, [(0.2, -0.3), (0.05, 0.0)], omega=2.0),
        PeriodicCoefficient.constant(3.0),
    ]
    for f in coeffs:
        T = f.period if math.isfinite(f.period) else 1.0
        ts = rng.uniform(-20, 20, size=100)
        assert np.max(np.abs(np.asarray(f(ts + T)) - np.asarray(f(ts)))) < 1e-12


# --- validation ----------------------------------------------------------

def test_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        PeriodicCoefficient.sinusoid(1.0, -0.1)


def test_nonpositive_omega_rejected():
    with pytest.raises(ValueError):
        PeriodicCoefficient.sinusoid(1.0, 0.1, omega=0.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PeriodicCoefficient(kind="spline")


# --- extrema -------------------------------------------------------------

def test_extrema_half_period_sinusoid():
    # sin attains 1 but not -1 on [0, pi]
    f = PeriodicCoefficient.sinusoid(0.0001, 0.9)
    lo, hi = extrema(f, 0.0, math.pi)
    assert lo == pytest.approx(0.0001, abs=1e-12)
    assert hi == pytest.approx(0.9001, abs=1e-12)


def test_extrema_full_period_sinusoid():
    f = PeriodicCoefficient.sinusoid(0.0001, 0.9)
    lo, hi = extrema(f, 0.0, TWO_PI)
    assert lo == pytest.approx(-0.8999, abs=1e-12)
    assert hi == pytest.approx(0.9001, abs=1e-12)


def test_extrema_constant():
    lo, hi = extrema(PeriodicCoefficient.constant(3.25), -1.0, 17.0)
    assert (lo, hi) == (3.25, 3.25)


def test_extrema_invalid_interval():
    f = PeriodicCoefficient.sinusoid(0.0, 1.0)
    with pytest.raises(ValueError):
        extrema(f, 1.0, 1.0)
    with pytest.raises(ValueError):
        extrema(f, 2.0, 1.0)


def test_extrema_interval_without_critical_point():
    # strictly increasing branch of sin: extrema at the endpoints
    f = PeriodicCoefficient.sinusoid(0.0, 1.0)
    lo, hi = extrema(f, 0.1, 1.2)
    assert lo == pytest.approx(math.sin(0.1), abs=1e-14)
    assert hi == pytest.approx(math.sin(1.2), abs=1e-14)


def test_fourier_extrema_against_dense_scan():
    f = PeriodicCoefficient.fourier(0.5, [(0.4, -0.25), (0.0, 0.3), (-0.1, 0.05)])
    lo, hi = extrema(f, 0.0, TWO_PI)
    # brute-force oracle on a fine independent grid
    ts = np.linspace(0.0, TWO_PI, 200001)
    vals = f(ts)
    assert lo == pytest.approx(vals.min(), abs=1e-9)
    assert hi == pytest.approx(vals.max(), abs=1e-9)
    assert lo <= vals.min() + 1e-12 and hi >= vals.max() - 1e-12


def test_extrema_dominate_random_samples():
    rng = np.random.default_rng(7)
    f = PeriodicCoefficient.fourier(-0.2, [(1.0, 0.3), (-0.2, 0.4)], omega=1.5)
    a, b = 0.3, 0.3 + f.period
    lo, hi = extrema(f, a, b)
    ts = rng.uniform(a, b, size=1000)
    vals = np.asarray(f(ts))
    assert np.all(vals >= lo - 1e-10)
    assert np.all(vals <= hi + 1e-10)


# --- averages ------------------------------------------------------------

def test_mean_sinusoid_is_mean_field():
    assert PeriodicCoefficient.sinusoid(0.03, 0.5).mean_value() == 0.03


def test_mean_constant():
    assert PeriodicCoefficient.constant(1.3).mean_value() == 1.3


def test_mean_fourier_against_simpson_quadrature():
    f = PeriodicCoefficient.fourier(1.0, [(0.2, -0.3)])
    assert mean_by_quadrature(f) == pytest.approx(1.0, abs=1e-10)
    assert f.mean_value() == 1.0


@pytest.mark.parametrize("coeff", [
    PeriodicCoefficient.sinusoid(0.03, 0.5),
    PeriodicCoefficient.sinusoid(2.0, 1.5, omega=0.25, phase=0.9),
    PeriodicCoefficient.fourier(-0.7, [(0.3, 0.2), (0.0, -0.5)], omega=3.0),
    PeriodicCoefficient.constant(0.125),
])
def test_mean_equals_quadrature(coeff):
    assert coeff.mean_value() == pytest.approx(mean_by_quadrature(coeff), abs=1e-10)
