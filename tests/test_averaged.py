"""Averaged algebraic system: Newton solver, closed form, grid oracle."""

import math

import numpy as np
import pytest
from conftest import newton_equilibrium

from phytoperiod import (ModelParams, NoPositiveSolutionError,
                         PeriodicCoefficient, averaged_residual,
                         closed_form_mu0, grid_scan, solve_averaged)

TWO_PI = 2.0 * math.pi
C = PeriodicCoefficient.constant


# --- solve_averaged ------------------------------------------------------

def test_decoupled_case_closed_form():
    """beta2 = w1 = w2 = 0 decouples the system:
    e^{z2} = k2 and e^{z1} = k1 (1 - beta1_bar k2 / r1_bar)."""
    p = ModelParams(r1=C(0.5), r2=C(0.7), beta1=C(0.1), beta2=C(0.0),
                    k1=4.0, k2=3.0, w1=0.0, w2=0.0, period=1.0)
    z = solve_averaged(p, np.array([0.0, 0.0]))
    assert math.exp(z[1]) == pytest.approx(3.0, abs=1e-11)
    assert math.exp(z[0]) == pytest.approx(4.0 * (1.0 - 0.1 * 3.0 / 0.5), abs=1e-11)


def test_root_has_tiny_residual(coexist_params):
    z = solve_averaged(coexist_params, np.array([0.0, -1.0]))
    res = averaged_residual(coexist_params, z)
    assert np.max(np.abs(res)) < 1e-12


def test_root_matches_grid_scan_bracket(coexist_params):
    """Independent brute-force bracket: the minimal-residual cell of a
    200 x 200 grid lies within one cell of the Newton root."""
    z = solve_averaged(coexist_params, np.array([0.0, -1.0]))
    z_grid, res_grid, cell = grid_scan(coexist_params)
    print(f"\n  newton root {z}, grid cell {z_grid}, spacing {cell:.4f}")
    assert np.max(np.abs(z - z_grid)) <= cell


def test_mean_field_root_is_autonomous_equilibrium(coexist_params):
    """Constant coefficients: the averaged root equals the interior
    equilibrium of the autonomous system (independent Newton oracle in
    the original frame with finite-difference Jacobian)."""
    z = solve_averaged(coexist_params, np.array([0.0, -1.0]))
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    assert np.max(np.abs(np.exp(z) - xeq)) < 1e-9


def test_negative_r2_mean_still_has_a_root():
    """r2_bar < 0 makes -r2_bar v / k2 a positive term of res2, so the
    no-root guard must not fire: with w1 = w2 = 0 the system is linear
    in (u, v) and its root is u = 0.95 / 1.005, v = (1 + 0.1 u) / 10."""
    p = ModelParams(r1=C(1.0), r2=C(-1.0), beta1=C(0.5), beta2=C(0.1),
                    k1=1.0, k2=0.1, w1=0.0, w2=0.0, period=1.0)
    z_best, _, _ = grid_scan(p)
    z = solve_averaged(p, z_best)
    u = 0.95 / 1.005
    assert np.exp(z) == pytest.approx([u, (1.0 + 0.1 * u) / 10.0], rel=1e-12)
    assert np.max(np.abs(averaged_residual(p, z))) < 1e-13


def test_zero_r2_mean_has_no_root():
    """r2_bar = 0 leaves only the negative terms -beta2_bar u - w2 u v."""
    p = ModelParams(r1=C(1.0), r2=C(0.0), beta1=C(0.5), beta2=C(0.1),
                    k1=1.0, k2=0.1, w1=0.0, w2=0.0, period=1.0)
    with pytest.raises(NoPositiveSolutionError, match="no real root exists"):
        solve_averaged(p, np.zeros(2))


def test_demo_means_have_no_positive_root(ex1_params):
    """With the demo period averages (r2_bar = 1e-4 vs beta2_bar = 6e-3,
    w2 = 2) the full averaged system is infeasible: on the manifold of
    the first equation the second stays strictly negative."""
    with pytest.raises(NoPositiveSolutionError) as exc_info:
        solve_averaged(ex1_params, np.array([0.0, -5.0]))
    assert exc_info.value.residual is None or exc_info.value.residual > 1e-3


def test_demo_grid_scan_confirms_infeasibility(ex1_params):
    _, res_best, _ = grid_scan(ex1_params)
    print(f"\n  demo grid minimum residual: {res_best:.4e}")
    assert res_best > 1e-2


def test_line_search_lets_programming_errors_through(coexist_params,
                                                     monkeypatch):
    calls = []

    def residual(*args):
        calls.append(args)
        if len(calls) > 1:      # the first call is the start point
            raise TypeError("bug")
        return averaged_residual(*args)

    monkeypatch.setattr("phytoperiod.averaged.averaged_residual", residual)
    with pytest.raises(TypeError):
        solve_averaged(coexist_params, np.array([0.0, -1.0]))


# --- closed form ---------------------------------------------------------

def test_closed_form_demo_values(ex1_params):
    """Direct arithmetic: b1b*b2b*k1*k2 = 1.152e-4, r1b*r2b = 3e-6,
    denominator 1.122e-4 > 0; the first log argument is negative, so
    only the second expression defines a real value."""
    out = closed_form_mu0(ex1_params)
    denom = 0.0004 * 0.006 * 8.0 * 6.0 - 0.03 * 0.0001
    assert denom == pytest.approx(1.122e-4, rel=1e-12)
    expected_arg1 = (8.0 / 0.03) * (0.03 - 8.0 * 6.0 * 0.03 * 0.0004 * 0.006 / denom)
    expected_arg2 = 8.0 * 6.0 * 0.03 * 0.006 / denom
    assert out.arg1 == pytest.approx(expected_arg1, rel=1e-12)
    assert out.arg2 == pytest.approx(expected_arg2, rel=1e-12)
    assert out.arg1 < 0 and not out.valid
    assert math.isnan(out.z1)
    assert out.z2 == pytest.approx(math.log(expected_arg2), rel=1e-12)


def test_closed_form_singular_denominator():
    p = ModelParams(r1=C(1.0), r2=C(1.0), beta1=C(1.0), beta2=C(1.0),
                    k1=1.0, k2=1.0, w1=0.0, w2=0.0, period=1.0)
    with pytest.raises(ZeroDivisionError):
        closed_form_mu0(p)


def test_closed_form_satisfies_first_averaged_equation():
    """Algebraic identity: arg1 simplifies to -k1 r1b r2b / D, and the
    pair (u, v) = (arg1, arg2) then satisfies
    r1b - r1b u / k1 - b1b v = 0 exactly, whatever the parameters."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = ModelParams(
            r1=C(rng.uniform(0.1, 2.0)), r2=C(rng.uniform(0.1, 2.0)),
            beta1=C(rng.uniform(0.05, 1.0)), beta2=C(rng.uniform(0.05, 1.0)),
            k1=rng.uniform(0.5, 5.0), k2=rng.uniform(0.5, 5.0),
            w1=0.0, w2=0.0, period=1.0)
        out = closed_form_mu0(p)
        r1b = p.r1.mean_value()
        res1 = r1b - r1b * out.arg1 / p.k1 - p.beta1.mean_value() * out.arg2
        assert abs(res1) < 1e-10
        assert out.arg1 == pytest.approx(
            -p.k1 * r1b * p.r2.mean_value()
            / (p.beta1.mean_value() * p.beta2.mean_value() * p.k1 * p.k2
               - r1b * p.r2.mean_value()), rel=1e-10)


def test_closed_form_jointly_real_requires_sign_flip():
    """arg1 * arg2 < 0 whenever all rate means are positive, so the pair
    is never jointly real there; a negative r2 mean makes both logs
    defined."""
    p_pos = ModelParams(r1=C(1.0), r2=C(0.2), beta1=C(0.3), beta2=C(0.4),
                        k1=2.0, k2=3.0, w1=0.0, w2=0.0, period=1.0)
    out = closed_form_mu0(p_pos)
    assert not out.valid and out.arg1 * out.arg2 < 0
    p_neg = ModelParams(r1=C(1.0), r2=C(-0.2), beta1=C(0.3), beta2=C(0.4),
                        k1=2.0, k2=3.0, w1=0.0, w2=0.0, period=1.0)
    out_neg = closed_form_mu0(p_neg)
    assert out_neg.valid
    assert out_neg.z1 == pytest.approx(math.log(out_neg.arg1), rel=1e-14)
    assert out_neg.z2 == pytest.approx(math.log(out_neg.arg2), rel=1e-14)


def test_grid_scan_shapes_and_determinism(coexist_params):
    z1, r1, c1 = grid_scan(coexist_params)
    z2, r2, c2 = grid_scan(coexist_params)
    np.testing.assert_array_equal(z1, z2)
    assert r1 == r2 and c1 == c2
