"""Condition verdicts, bound ladder, and their algebraic structure."""

import math

import numpy as np
import pytest

from phytoperiod import (DegenerateParameterError, M0_CANONICAL,
                         M0_VARIANT_K2, ModelParams, PeriodicCoefficient,
                         compute_bounds, conditions)

TWO_PI = 2.0 * math.pi
HALF = (0.0, math.pi)


# --- demo arithmetic -----------------------------------------------------

def test_demo_half_period_key_quantities(ex1_params):
    rep = compute_bounds(ex1_params, HALF, M0_VARIANT_K2)
    assert rep.a1_lhs == pytest.approx(5.4006, abs=1e-12)
    assert rep.a1_rhs == pytest.approx(161.0, abs=1e-12)
    assert rep.a3_rhs == pytest.approx(15600.9161, abs=1e-9)
    assert rep.m0 == pytest.approx(5.4006 / 121.0, abs=1e-12)     # 0.044633...
    assert rep.a2_lhs == pytest.approx(0.5004 * 5.4006 / 121.0, abs=1e-12)
    assert rep.r1L == pytest.approx(0.03, abs=1e-12)
    assert rep.a3_lhs == pytest.approx(0.0006, abs=1e-15)
    assert rep.A1 and rep.A2 and rep.A3


def test_demo_canonical_m0(ex1_params):
    rep = compute_bounds(ex1_params, HALF, M0_CANONICAL)
    assert rep.m0 == pytest.approx(5.4006 / 161.0, abs=1e-12)     # 0.033544...
    assert rep.A2, "A2 must hold under the canonical denominator too"
    assert rep.L1 == pytest.approx(math.log(8.0), abs=1e-14)
    assert rep.h0 == pytest.approx(0.0006 / 15600.9161, rel=1e-10)
    assert rep.L4 == pytest.approx(math.log(0.0006 / 15600.9161), abs=1e-10)


def test_demo_full_period_extrema_and_audit(ex1_params):
    rep = compute_bounds(ex1_params, (0.0, TWO_PI))
    assert rep.r2L == pytest.approx(-0.8999, abs=1e-12)
    assert rep.r2M == pytest.approx(0.9001, abs=1e-12)
    # every rate dips negative somewhere on the full cycle
    assert rep.positivity_audit == {"r1": False, "r2": False,
                                    "beta1": False, "beta2": False}


def test_audit_is_full_period_even_with_half_period_extrema(ex1_params):
    rep = compute_bounds(ex1_params, HALF)
    assert all(v is False for v in rep.positivity_audit.values())


@pytest.mark.parametrize("window, calls", [((0.0, TWO_PI), 4), (HALF, 8)])
def test_a_full_period_window_is_audited_from_its_own_extrema(
        ex1_params, monkeypatch, window, calls):
    """Over [0, T] the audit reads the window's minima; over another
    window it takes its own extrema over [0, T].  Either way each verdict
    is the sign of the rate's minimum over the cycle."""
    S = PeriodicCoefficient.sinusoid
    mixed = ModelParams(
        r1=S(1.0, 0.3), r2=PeriodicCoefficient.fourier(0.1, [(0.05, 0.2)]),
        beta1=S(0.05, 0.01), beta2=PeriodicCoefficient.constant(0.002),
        k1=2.0, k2=1.0, w1=0.1, w2=0.002, period=TWO_PI)
    extrema = conditions.extrema
    for params in (ex1_params, mixed):
        seen = []
        monkeypatch.setattr(conditions, "extrema",
                            lambda c, a, b: seen.append((a, b)) or extrema(c, a, b))
        audit = compute_bounds(params, window).positivity_audit
        monkeypatch.undo()
        assert len(seen) == calls
        assert audit == {name: extrema(c, 0.0, TWO_PI)[0] > 0.0
                         for name, c in params.coefficients().items()}
    assert audit == {"r1": True, "r2": False, "beta1": True, "beta2": True}


def test_constant_coefficients_extrema_collapse(remark_params):
    rep = compute_bounds(remark_params)
    assert rep.r1L == rep.r1M == 0.03
    assert rep.r2L == rep.r2M == 0.0001
    assert rep.beta1M == 0.0004 and rep.beta2M == 0.006
    assert rep.all_conditions_hold()
    assert all(rep.positivity_audit.values())


# --- failure and degenerate paths ----------------------------------------

def test_a2_fails_when_beta1_scaled_up(ex1_params):
    scaled = ModelParams(
        r1=ex1_params.r1, r2=ex1_params.r2,
        beta1=PeriodicCoefficient.sinusoid(0.04, 50.0),   # beta1M = 50.04
        beta2=ex1_params.beta2,
        k1=8.0, k2=6.0, w1=20.0, w2=2.0, period=TWO_PI)
    rep = compute_bounds(scaled, HALF, M0_VARIANT_K2)
    assert not rep.A2
    assert rep.margins[1] < 0
    assert rep.a2_lhs == pytest.approx(50.04 * 5.4006 / 121.0, abs=1e-9)


def test_undefined_bounds_reported_not_raised():
    C = PeriodicCoefficient.constant
    # beta1M m0 > r1L makes g0 negative -> L2 undefined
    p = ModelParams(r1=C(0.01), r2=C(1.0), beta1=C(5.0), beta2=C(0.1),
                    k1=2.0, k2=1.0, w1=0.0, w2=0.0, period=1.0)
    rep = compute_bounds(p)
    assert rep.g0 < 0
    assert rep.L2 is None and rep.Lambda1 is None
    assert not rep.A2


def test_negative_r2_makes_m0_and_l3_undefined():
    C = PeriodicCoefficient.constant
    p = ModelParams(r1=C(1.0), r2=C(-0.5), beta1=C(0.1), beta2=C(0.1),
                    k1=2.0, k2=1.0, w1=0.0, w2=0.0, period=1.0)
    rep = compute_bounds(p)
    assert rep.m0 < 0 and rep.L3 is None and rep.Lambda2 is None


def test_zero_r1_minimum_is_degenerate():
    C = PeriodicCoefficient.constant
    p = ModelParams(r1=C(0.0), r2=C(1.0), beta1=C(0.1), beta2=C(0.1),
                    k1=2.0, k2=1.0, w1=0.0, w2=0.0, period=1.0)
    with pytest.raises(DegenerateParameterError):
        compute_bounds(p)


def test_zero_h0_denominator_is_degenerate():
    C = PeriodicCoefficient.constant
    p = ModelParams(r1=C(1.0), r2=C(0.0), beta1=C(0.1), beta2=C(0.1),
                    k1=2.0, k2=1.0, w1=0.0, w2=0.0, period=1.0)
    with pytest.raises(DegenerateParameterError, match="h0 undefined"):
        compute_bounds(p)


@pytest.mark.parametrize("k1, w1, name", [
    # g0 = k1 (1 + beta1 m0 / 1) = 2e308
    (1e308, 0.0, "g0"),
    # 1 + w1 k1 = inf, which would leave m0 = h0 = 0 behind it
    (1e308, 2.0, "a1_rhs"),
])
def test_an_overflowed_bound_quantity_is_degenerate(k1, w1, name):
    """A quantity that overflows raises, naming it, instead of reading as
    an undefined bound (None) in the written report."""
    C = PeriodicCoefficient.constant
    p = ModelParams(r1=C(-1.0), r2=C(1.0), beta1=C(1.0),
                    beta2=C(3.3333333333333e-309),
                    k1=k1, k2=1.0, w1=w1, w2=0.0, period=1.0)
    with pytest.raises(DegenerateParameterError,
                       match=f"^{name} is inf: the parameters overflow"):
        compute_bounds(p)


def test_invalid_interval_rejected(ex1_params):
    with pytest.raises(ValueError):
        compute_bounds(ex1_params, (2.0, 1.0))


def test_unknown_m0_denominator_rejected(ex1_params):
    with pytest.raises(ValueError):
        compute_bounds(ex1_params, HALF, "k3")


# --- algebraic structure -------------------------------------------------

def _random_params(rng):
    C = PeriodicCoefficient.constant
    return ModelParams(
        r1=PeriodicCoefficient.sinusoid(rng.uniform(0.5, 2.0), rng.uniform(0, 0.4)),
        r2=PeriodicCoefficient.sinusoid(rng.uniform(0.5, 2.0), rng.uniform(0, 0.4)),
        beta1=C(rng.uniform(0.01, 2.0)),
        beta2=C(rng.uniform(0.001, 0.3)),
        k1=rng.uniform(0.5, 4.0), k2=rng.uniform(0.5, 4.0),
        w1=rng.uniform(0.0, 5.0), w2=rng.uniform(0.0, 2.0), period=TWO_PI)


def test_a2_iff_g0_positive_randomized():
    rng = np.random.default_rng(101)
    seen_true = seen_false = 0
    for _ in range(200):
        rep = compute_bounds(_random_params(rng))
        assert rep.A2 == (rep.g0 > 0.0)
        seen_true += rep.A2
        seen_false += not rep.A2
    assert seen_true > 10 and seen_false > 10


def test_bound_nesting_when_conditions_hold():
    rng = np.random.default_rng(202)
    hits = 0
    for _ in range(400):
        rep = compute_bounds(_random_params(rng))
        if rep.all_conditions_hold() and rep.m0 > 0 and rep.g0 > 0 and rep.h0 > 0:
            hits += 1
            assert rep.L2 < rep.L1, "x1 floor must sit below its cap"
            assert rep.L4 < rep.L3, "x2 floor must sit below its cap"
    assert hits > 10


def test_w1_monotonicity(ex1_params):
    rep_lo = compute_bounds(ex1_params, HALF)
    bumped = ModelParams(r1=ex1_params.r1, r2=ex1_params.r2,
                         beta1=ex1_params.beta1, beta2=ex1_params.beta2,
                         k1=8.0, k2=6.0, w1=30.0, w2=2.0, period=TWO_PI)
    rep_hi = compute_bounds(bumped, HALF)
    assert rep_hi.m0 < rep_lo.m0
    assert rep_hi.margins[0] > rep_lo.margins[0]
    assert rep_hi.margins[1] > rep_lo.margins[1]


def test_r2_amplitude_monotonicity():
    C = PeriodicCoefficient.constant
    base = dict(r1=C(1.0), beta1=C(0.1), beta2=C(0.1),
                k1=2.0, k2=1.0, w1=1.0, w2=0.1, period=TWO_PI)
    reps = [compute_bounds(ModelParams(
        r2=PeriodicCoefficient.sinusoid(0.5, amp), **base))
        for amp in (0.0, 0.2, 0.4)]
    m0s = [r.m0 for r in reps]
    assert m0s[0] <= m0s[1] <= m0s[2]


def test_margin_scaling_law(coexist_params):
    """Scaling all four rates by c > 0 transforms the A1/A2 margins as
    rhs - c*lhs and c*r1L - c^2*(beta1M k2 r2M)/(1 + w1 k1)."""
    base = compute_bounds(coexist_params)
    c = 3.7
    scaled = ModelParams(
        r1=PeriodicCoefficient.constant(c * 1.0),
        r2=PeriodicCoefficient.constant(c * 1.0),
        beta1=PeriodicCoefficient.constant(c * 0.05),
        beta2=PeriodicCoefficient.constant(c * 0.002),
        k1=2.0, k2=1.0, w1=0.1, w2=0.002, period=TWO_PI)
    rep = compute_bounds(scaled)
    one_w1k1 = 1.0 + 0.1 * 2.0
    assert rep.margins[0] == pytest.approx(one_w1k1 - c * base.a1_lhs, rel=1e-12)
    predicted_a2 = c * base.r1L - c * c * base.beta1M * 1.0 * base.r2M / one_w1k1
    assert rep.margins[1] == pytest.approx(predicted_a2, rel=1e-12)
    # A2 is not scale invariant: the example flips sign for large c
    c_big = 500.0
    big = ModelParams(
        r1=PeriodicCoefficient.constant(c_big * 1.0),
        r2=PeriodicCoefficient.constant(c_big * 1.0),
        beta1=PeriodicCoefficient.constant(c_big * 0.05),
        beta2=PeriodicCoefficient.constant(c_big * 0.002),
        k1=2.0, k2=1.0, w1=0.1, w2=0.002, period=TWO_PI)
    assert compute_bounds(big).A2 != base.A2


def test_check_conditions_matches_report_fields(ex1_params):
    rep = compute_bounds(ex1_params, HALF, M0_VARIANT_K2)
    assert rep.margins == (rep.a1_rhs - rep.a1_lhs, rep.a2_rhs - rep.a2_lhs,
                           rep.a3_rhs - rep.a3_lhs)
    assert (rep.A1, rep.A2, rep.A3) == tuple(m > 0.0 for m in rep.margins)


def test_report_serialization_roundtrip(ex1_params):
    import json
    rep = compute_bounds(ex1_params, HALF)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["r2M"] == pytest.approx(0.9001, abs=1e-12)
    assert data["m0_denominator"] == M0_CANONICAL
    assert set(data["positivity_audit"]) == {"r1", "r2", "beta1", "beta2"}
