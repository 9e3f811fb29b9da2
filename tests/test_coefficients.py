"""Periodic coefficient functions: evaluation, extrema, averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_extrema, mean_by_quadrature
from phytoperiod import PeriodicCoefficient, extrema

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
    # the array (numpy) and scalar (math) paths agree for every kind, and
    # an array gives an array of its shape, for a constant f too
    ts = np.linspace(0, 5, 11)
    for f in (PeriodicCoefficient.sinusoid(1.0, 0.5, omega=3.0, phase=0.2),
              PeriodicCoefficient.fourier(0.5, [(0.2, -0.3), (0.05, 0.0)],
                                          omega=2.0),
              PeriodicCoefficient.fourier(0.5, []),
              PeriodicCoefficient.constant(3.0)):
        assert f(ts).shape == ts.shape
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


@pytest.mark.parametrize("make, message", [
    (lambda: PeriodicCoefficient.sinusoid(1.0, 0.5, omega=1e-310,
                                          phase=math.pi / 2),
     "omega 1e-310 makes the period 2 pi/omega overflow the float range"),
    (lambda: PeriodicCoefficient.fourier(1.0, [(0.1, 0.0), (0.0, 0.1)],
                                         omega=1e308),
     "omega 1e+308 makes the frequency 2 omega of the highest harmonic "
     "overflow the float range")], ids=["period", "harmonic"])
def test_a_frequency_outside_the_float_range_is_rejected(make, message):
    """A period 2 pi/omega of inf would pass for a constant's, and a
    harmonic frequency of inf makes sin and cos fail."""
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


def test_the_largest_representable_frequencies_are_accepted():
    assert PeriodicCoefficient.fourier(1.0, [(0.1, 0.0)], omega=1e308).period > 0
    assert math.isfinite(PeriodicCoefficient.sinusoid(1.0, 0.5, omega=4e-308).period)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PeriodicCoefficient(kind="spline")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    pytest.param(lambda x: PeriodicCoefficient.constant(x), id="mean"),
    pytest.param(lambda x: PeriodicCoefficient.sinusoid(1.0, x), id="amplitude"),
    pytest.param(lambda x: PeriodicCoefficient.sinusoid(1.0, 0.1, omega=x), id="omega"),
    pytest.param(lambda x: PeriodicCoefficient.sinusoid(1.0, 0.1, phase=x), id="phase"),
    pytest.param(lambda x: PeriodicCoefficient.fourier(1.0, [(0.1, 0.0), (0.0, x)]),
                 id="harmonic"),
])
def test_nonfinite_field_rejected(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


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


@pytest.mark.parametrize("coeff", [
    PeriodicCoefficient.sinusoid(0.0001, 0.9, phase=0.3),
    PeriodicCoefficient.fourier(0.5, [(0.4, -0.25), (0.0, 0.3)], omega=1.5),
], ids=["sinusoid", "fourier"])
@pytest.mark.parametrize("a,b", [(0.5, 20.0), (1e17, 1e17 + 1000.0),
                                 (-math.inf, math.inf)])
def test_extrema_over_more_than_a_period_take_one_period(coeff, a, b):
    """Any window of one period holds the same extrema.  At a = 1e17 the
    floats are 16 apart, so [a, a + period] would be a single point."""
    lo, hi = extrema(coeff, a, b)
    assert (lo, hi) == extrema(coeff, 0.0, coeff.period)
    assert (lo, hi) == pytest.approx(extrema(coeff, 0.5, 0.5 + coeff.period),
                                     abs=1e-12)


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


def test_fourier_extrema_of_two_near_equal_minima():
    """cos 3t - 4e-7 cos t has its minimum -1.0000002000000068 at
    t = pi/3 and 5 pi/3, and a minimum 6e-7 higher at t = pi, which is a
    sample, so the best sample is there.  The samples nearest pi/3 and
    5 pi/3 lie within C h^2 / 8 of it, so their cells are refined too, and
    the minimum is found to rounding, not -0.9999996 from the cell of the
    best sample alone."""
    f = PeriodicCoefficient.fourier(0.0, [(-4e-7, 0.0), (0.0, 0.0), (1.0, 0.0)])
    exact_lo = exact_extrema(f, 0.0, TWO_PI)[0]
    assert exact_lo == -1.0000002000000068
    ts = np.linspace(0.0, TWO_PI, 4097)
    assert ts[int(np.argmin(f(ts)))] == math.pi
    assert extrema(f, 0.0, TWO_PI)[0] == pytest.approx(exact_lo, abs=1e-15)


def _milli(lo, hi):
    # multiples of 1e-3, so no draw brings subnormal or tiny harmonics
    # into the roots of the oracle
    return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda n: n / 1000)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mean=_milli(-1.0, 1.0), omega=_milli(0.2, 5.0),
       harmonics=st.lists(st.tuples(_milli(-1.0, 1.0), _milli(-1.0, 1.0)),
                          min_size=1, max_size=5),
       start=st.one_of(st.just(0.0), _milli(0.0, 0.99)),
       width=st.one_of(st.just(1.0), _milli(0.001, 1.0)))
def test_fourier_extrema_within_the_sampling_error(mean, omega, harmonics,
                                                   start, width):
    """Over a full period or part of one, ``extrema`` of a Fourier series
    lies within C h^2 / 8 of the exact extrema, plus rounding, with
    C = sum (k w)^2 (|a_k| + |b_k|) bounding |f''| and h the window over
    4096, and never outside the exact range."""
    f = PeriodicCoefficient.fourier(mean, harmonics, omega=omega)
    a = start * f.period
    b = a + width * (f.period - a)
    lo, hi = extrema(f, a, b)
    exact_lo, exact_hi = exact_extrema(f, a, b)
    C = sum((k * omega) ** 2 * (abs(ak) + abs(bk))
            for k, (ak, bk) in enumerate(harmonics, start=1))
    h = (b - a) / 4096
    scale = abs(mean) + sum(abs(ak) + abs(bk) for ak, bk in harmonics)
    rounding = 64 * np.finfo(float).eps * scale
    assert exact_lo - rounding <= lo <= exact_lo + C * h * h / 8 + rounding
    assert exact_hi - C * h * h / 8 - rounding <= hi <= exact_hi + rounding


# --- averages ------------------------------------------------------------

def test_mean_sinusoid_is_mean_field():
    assert PeriodicCoefficient.sinusoid(0.03, 0.5).mean == 0.03


def test_mean_constant():
    assert PeriodicCoefficient.constant(1.3).mean == 1.3


def test_mean_fourier_against_simpson_quadrature():
    f = PeriodicCoefficient.fourier(1.0, [(0.2, -0.3)])
    assert mean_by_quadrature(f) == pytest.approx(1.0, abs=1e-10)
    assert f.mean == 1.0


@pytest.mark.parametrize("coeff", [
    PeriodicCoefficient.sinusoid(0.03, 0.5),
    PeriodicCoefficient.sinusoid(2.0, 1.5, omega=0.25, phase=0.9),
    PeriodicCoefficient.fourier(-0.7, [(0.3, 0.2), (0.0, -0.5)], omega=3.0),
    PeriodicCoefficient.constant(0.125),
])
def test_mean_equals_quadrature(coeff):
    assert coeff.mean == pytest.approx(mean_by_quadrature(coeff), abs=1e-10)
