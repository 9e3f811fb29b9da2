"""Integration accuracy, order verification, flow map and monodromy."""

import dataclasses
import functools
import math
import operator
from functools import partial
from importlib import resources

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phytoperiod import (DomainOverflowError, IntegrationError, IntegratorConfig,
                         ModelParams, PeriodicCoefficient, Trajectory,
                         flow_and_monodromy, flow_map, integrate, jac_log,
                         jac_original, rhs_log, rhs_original, variational_flow,
                         write_trajectory_csv)
from phytoperiod import integrator as itg

from conftest import (first_step, march, random_draw,
                      write_trajectory_csv_per_row)

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
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    traj = integrate(field, 0.0, np.array([x0]), 100.0, cfg)
    expected = k / (1.0 + ((k - x0) / x0) * math.exp(-r * 100.0))
    assert traj.final_state[0] == pytest.approx(expected, rel=1e-9)


def test_zero_field_identity():
    field = lambda t, y: np.zeros_like(y)
    y0 = np.array([1.3, -0.7])
    traj = integrate(field, 0.0, y0, 3.0, IntegratorConfig())
    np.testing.assert_array_equal(traj.final_state, y0)


def test_plain_dop853_order_fit():
    """Global error of the fixed-step plain DOP853 march on y' = -y
    scales like h^8: fitted slope in [7.6, 8.4]."""
    from conftest import exp_order_fit

    slope, errors = exp_order_fit()
    print(f"\n  DOP853 order fit: slope = {slope:.3f}, errors = {errors}")
    assert 7.6 <= slope <= 8.4


def test_adaptive_tolerance_monotonicity():
    """y' = -y on [0, 1] against exp(-1) at tolerances 1e-4, 1e-6 and
    1e-8: every run ends within its tolerance, and the loosest run is the
    least exact.  DOP853 crosses [0, 1] in 2, 3 and 4 steps there, too few
    for the error to fall decade by decade: it is 4.3e-9, 1.2e-10 and
    3.1e-10, so the run at 1e-8 is less exact than the one at 1e-6."""
    tols = (1e-4, 1e-6, 1e-8)
    errs = []
    for tol in tols:
        cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
        val = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, cfg).final_state[0]
        errs.append(abs(val - math.exp(-1.0)))
    print(f"\n  errors against exp(-1) at {tols}: {errs}")
    assert all(e < tol for e, tol in zip(errs, tols))
    assert errs[0] > max(errs[1:])
    assert errs[2] > errs[1]


def test_t_eval_matches_separate_integrations():
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    marks = [0.3, 0.7]
    traj = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, cfg, t_eval=marks)
    assert list(traj.times) == [0.0, 0.3, 0.7, 1.0]
    for t, s in zip(traj.times, traj.states):
        assert s[0] == pytest.approx(math.exp(-t), abs=1e-9)


def test_dense_output_records_internal_steps():
    """A plain run returns t0, every accepted step and t1."""
    traj = integrate(exp_decay, 0.0, np.array([1.0]), 1.0, IntegratorConfig())
    assert len(traj.times) > 3
    for t, s in zip(traj.times, traj.states):
        assert s[0] == pytest.approx(math.exp(-t), abs=1e-8)


def test_adaptive_stepper_reuses_last_stage():
    """DOP853 is FSAL: after an accepted step its 13th stage is the next
    step's 1st, so each step costs 12 field calls, plus 1 at the start
    and 1 for the starting step's estimate.  Sample points add the dense
    output's 3 calls per step that holds one; with 1001 of them every
    step holds one.  At the default tolerances y' = -y on [0, 10] rejects
    no step."""
    calls = 0

    def field(t, y):
        nonlocal calls
        calls += 1
        return (-y[0],)

    steps = integrate(field, 0.0, np.array([1.0]), 10.0, IntegratorConfig())
    assert calls == 12 * (len(steps.times) - 1) + 2
    calls = 0
    integrate(field, 0.0, np.array([1.0]), 10.0, IntegratorConfig(),
              t_eval=np.linspace(0.0, 10.0, 1001))
    assert calls == 15 * (len(steps.times) - 1) + 2


def _sum(terms):
    """Oracle: the sum of a sequence of floats, left to right from its
    first term, as the generated code writes it."""
    return functools.reduce(operator.add, terms)


def _names(row, count):
    """Oracle: the _TABLEAU names D_<row>_1, ..., D_<row>_<count>, None for
    each one the tableau lacks, a weight of 0."""
    return tuple(name if name in itg._TABLEAU else None
                 for name in (f"D_{row}_{i}" for i in range(1, count + 1)))


# DOP853 by the names of its constants, listed apart from the generator:
# the stages k2..k13 as (node, weights over k1..k(j-1)), node None at 1;
# the weights of the 5th- and the 3rd-order error estimates; the dense
# output's extra stages k14..k16 and the weights of its last four
# coefficients over k1..k16
_STAGES = [(f"D_C{j}" if j < 12 else None, _names(f"A{j}", j - 1))
           for j in range(2, 14)]
_ERRORS = [_names("E5", 12), _names("E3", 12)]
_DENSE_EXTRA = [(f"D_C{j}", _names(f"A{j}", j - 1)) for j in (14, 15, 16)]
_DENSE_ROWS = [_names(f"D{r}", 16) for r in (4, 5, 6, 7)]


def _reference_dop853_step(field, t, y, t_new, k1):
    """Oracle: the generic DOP853 step from t to t_new, by h = t_new - t,
    as a loop over the tableau's stages, every stage sum a generator over
    the components with each weight times h bound once, in the operation
    order the generated step keeps; the stages at node 1 are evaluated at
    t_new.  Returns y_new, the 5th- and 3rd-order error estimates and the
    stages k1, ..., k13."""
    T = itg._TABLEAU
    h = t_new - t
    ks = [tuple(k1)]

    def products(weights, i):
        return [(h * T[w]) * k[i] for w, k in zip(weights, ks) if w]

    for node, weights in _STAGES:
        arg = tuple(_sum([yi, *products(weights, i)]) for i, yi in enumerate(y))
        ks.append(tuple(field(t + T[node] * h if node else t_new, arg)))
    errs = tuple(tuple(_sum(products(weights, i)) for i in range(len(y)))
                 for weights in _ERRORS)
    return arg, errs, ks


def _reference_dense(field, t, h, y, y_new, ks):
    """Oracle: DOP853's dense output over one step, from a generator per
    component: k14..k16, then per component the coefficients F0, ..., F6
    of the interpolant."""
    T, ks = itg._TABLEAU, list(ks)

    def weighed(weights, i):
        return _sum([T[w] * k[i] for w, k in zip(weights, ks) if w])

    for node, weights in _DENSE_EXTRA:
        ks.append(tuple(field(t + T[node] * h,
                              tuple(yi + h * weighed(weights, i)
                                    for i, yi in enumerate(y)))))
    coeffs = []
    for i, (a, b) in enumerate(zip(y, y_new)):
        f0 = b - a
        coeffs.append((f0, h * ks[0][i] - f0, 2.0 * f0 - h * (ks[0][i] + ks[12][i]),
                       *(h * weighed(weights, i) for weights in _DENSE_ROWS)))
    return coeffs


def _reference_interpolant(y, coeffs, th):
    """Oracle: the interpolant of one step at theta = th, per component
    y + th (F0 + (1 - th) (F1 + th (F2 + ... + th F6)))."""
    u = 1.0 - th
    return tuple(yi + th * (f0 + u * (f1 + th * (f2 + u * (f3 + th * (
        f4 + u * (f5 + th * f6)))))) for yi, (f0, f1, f2, f3, f4, f5, f6)
        in zip(y, coeffs))


def _reference_norm(err, y, y_new, abs_tol, rel_tol):
    """Oracle: max-norm of err / (abs_tol + rel_tol max(|y|, |y_new|)),
    left to right, ended by the first NaN ratio."""
    enorm = 0.0
    for e, a, b in zip(err, y, y_new):
        r = abs(e) / (abs_tol + rel_tol * max(abs(a), abs(b)))
        if not r <= enorm:
            enorm = r
            if r != r:
                break
    return enorm


def _reference_enorm(errs, y, y_new, k13, abs_tol, rel_tol):
    """Oracle: DOP853's error norm e5^2 / sqrt(e5^2 + 0.01 e3^2) of the
    max-norms of its two estimates, written as e5 / sqrt(1 + 0.01 r r)
    with r = e3 / e5 when e5 > 0; NaN when the FSAL stage k13, which no
    estimate weighs, is not finite."""
    e5, e3 = (_reference_norm(e, y, y_new, abs_tol, rel_tol) for e in errs)
    enorm = e5
    if e5 > 0.0:
        r = e3 / e5
        enorm = e5 / math.sqrt(1.0 + 0.01 * r * r)
    return enorm if all(map(math.isfinite, k13)) else math.nan


def _reference_factor(enorm):
    """Oracle: the I-controller's step factor, clamped with the builtins."""
    if enorm > 0.0 and math.isfinite(enorm):
        factor = 0.9 * enorm ** -0.125
    elif enorm == 0.0:
        factor = 5.0
    else:
        factor = 0.2
    return min(5.0, max(0.2, factor))


def _reference_integrate(field, t0, y0, t1, cfg, t_eval=None):
    """Oracle: the adaptive loop written as a Python loop around the
    generic DOP853 step, from the first step of the estimate oracle
    ``first_step``, with ``min`` and ``max`` as builtins, samples from the
    generic dense output and the result from the public constructor."""
    pts = sorted({float(p) for p in t_eval or ()})
    pts = [p for p in pts if t0 < p < t1] + [math.inf]
    i = 0
    t, y = t0, tuple(np.asarray(y0, dtype=float).tolist())
    times, states = [t], [y]
    step_times, step_states = [t], [y]
    h_floor = itg._MIN_STEP_FACTOR * (t1 - t0)
    calls = []      # the estimate's first call is the run's k1
    h_adaptive = first_step(lambda s, x: calls.append(field(s, x)) or calls[-1],
                            t0, y, t1, cfg.abs_tol, cfg.rel_tol, 8)
    k1 = calls[0]
    while t < t1:
        stalled = False
        h_try = min(h_adaptive, t1 - t)
        t_new = t1 if h_try >= t1 - t else t + h_try
        h = t_new - t       # the step made
        try:
            y_new, errs, stages = _reference_dop853_step(field, t, y, t_new, k1)
            enorm = _reference_enorm(errs, y, y_new, stages[-1], cfg.abs_tol,
                                     cfg.rel_tol)
        except DomainOverflowError:
            enorm = math.nan
        accepted = enorm <= 1.0
        if accepted:
            stalled = t_new == t
            if pts[i] <= t_new:
                coeffs = _reference_dense(field, t, h, y, y_new, stages)
                while pts[i] <= t_new:
                    times.append(pts[i])
                    states.append(_reference_interpolant(y, coeffs,
                                                         (pts[i] - t) / h))
                    i += 1
            t, y = t_new, y_new
            k1 = stages[-1]
        h_adaptive = h_try * _reference_factor(enorm)
        if h_adaptive < h_floor:
            raise itg.StepUnderflowError(
                f"adaptive step underflow at t = {t}", t=t)
        if not accepted and t + h_adaptive == t:
            raise itg.StepUnderflowError(
                f"step {h_adaptive!r} does not advance t = {t}", t=t)
        if stalled and not h_adaptive > h_try:
            raise itg.StepUnderflowError(
                f"step {h_try!r} does not advance t = {t}", t=t)
        if not all(map(math.isfinite, y)):
            raise itg.NonFiniteStateError(
                f"state became non-finite at t = {t}", t=t)
        if accepted and not stalled and t < t1:
            step_times.append(t)
            step_states.append(y)
    steps = Trajectory(np.array(step_times + [t]),
                       np.array(step_states + [y]))
    if t_eval is None:
        return steps
    return Trajectory(np.array(times + [t]),
                      np.array(states + [y]), steps)


def _hex(values):
    return [float(v).hex() for v in values]


def _outcome(run):
    """A run's result as hex rows, or its failure: type, message and t."""
    try:
        traj = run()
    except Exception as exc:    # compared, not handled
        return type(exc), str(exc), getattr(exc, "t", None)
    out = []
    while traj is not None:
        out += [_hex(traj.times), [_hex(s) for s in traj.states]]
        traj = traj.steps
    return out


class _Enough(Exception):
    pass


class _Recorder:
    """y_i' = a_i sin(b_i t + y_i) + c_i y_i y_(i+1 mod n); keeps every
    call's arguments, and ends the run with ``_Enough`` after ``limit``
    calls."""

    def __init__(self, coef, limit=math.inf):
        self.coef, self.times, self.states, self.limit = coef, [], [], limit

    def __call__(self, t, y):
        if len(self.times) == self.limit:
            raise _Enough
        self.times.append(t)
        self.states.append(y)
        n = len(y)
        return tuple(a * math.sin(b * t + y[i]) + c * y[i] * y[(i + 1) % n]
                     for i, (a, b, c) in enumerate(self.coef))


def _same_calls(field, ref, n=None):
    """Whether the first n calls of two recorders had the same arguments,
    bit for bit."""
    return all(np.array(a[:n]).tobytes() == np.array(b[:n]).tobytes()
               for a, b in ((field.times, ref.times), (field.states, ref.states)))


_term = st.floats(-3.0, 3.0, allow_subnormal=False)
_fields = st.sampled_from([1, 2, 6]).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(_term, _term, _term), min_size=n, max_size=n),
    st.lists(_term, min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_fields,
       t=st.floats(-10.0, 10.0, allow_subnormal=False),
       h=st.floats(1e-6, 1.0),
       tols=st.sampled_from([(1e-10, 1e-10), (1e-12, 1e-6), (1.0, 0.0)]))
def test_generated_step_is_bit_identical_to_the_generic_step(case, t, h, tols):
    """Random fields y_i' = a_i sin(b_i t + y_i) + c_i y_i y_(i+1 mod n) in
    dimensions 1, 2 and 6, one step as a march from t to t + h with a
    first step of h: the march calls the field with the oracle's stage
    arguments to the last bit.  If the oracle's error norm accepts the
    step, the march ends in the oracle's y_new; if not, it retries with
    the step the controller makes of that norm."""
    coef, y = case
    y = tuple(y)
    t1 = t + h
    field, ref_field = _Recorder(coef, limit=14), _Recorder(coef)
    try:
        times, states = march(field, t, y, t1, h, *tols)
    except _Enough:     # the retry's first stage is all this test needs
        times = states = None
    h = min(h, t1 - t)      # the march's first step, which reaches t1
    ref_y, ref_errs, ref_ks = _reference_dop853_step(ref_field, t, y, t1,
                                                     ref_field(t, y))
    assert _same_calls(field, ref_field, 13) and len(ref_field.times) == 13
    enorm = _reference_enorm(ref_errs, y, ref_y, ref_ks[-1], *tols)
    if enorm <= 1.0:
        assert len(field.times) == 13 and _hex(times) == _hex([t, t1])
        assert _hex(states[-1]) == _hex(ref_y)
    else:
        retry = min(h * _reference_factor(enorm), t1 - t)
        t_new = t1 if retry >= t1 - t else t + retry
        assert field.times[13].hex() == (t + itg._TABLEAU["D_C2"] * (t_new - t)).hex()


@pytest.mark.parametrize("n, component", [(1, 0), (2, 0), (2, 1), (6, 0),
                                          (6, 3), (6, 5)])
@pytest.mark.parametrize("stage", [2, 7])
def test_the_error_norm_stops_at_the_first_nan(n, component, stage):
    """A NaN in one component of stage k2 or k7 reaches that component's
    two error estimates and makes the norm NaN whatever the other ratios
    are: the step is rejected and retried at a fifth of its size.  The
    tolerance puts the norm over the other components at 10, so a norm
    that dropped the NaN would have retried at 0.67 of the size instead."""
    calls = []

    def field(t, y):
        calls.append(t)
        k = [-(i + 1.0) * yi for i, yi in enumerate(y)]
        if len(calls) == stage:
            k[component] = math.nan
        return tuple(k)

    y, h = tuple(1.0 + i for i in range(n)), 0.1
    ref_y, errs, ks = _reference_dop853_step(field, 0.0, y, h, field(0.0, y))
    assert all(math.isnan(e[component]) for e in errs)
    others = [i for i in range(n) if i != component]

    def norm_of_others(abs_tol):
        def pick(v):
            return [v[i] for i in others]
        return _reference_enorm([pick(e) for e in errs], pick(y), pick(ref_y),
                                pick(ks[-1]), abs_tol, 0.0)
    abs_tol = norm_of_others(1.0) / 10.0 if others else 1e-10
    assert math.isnan(_reference_enorm(errs, y, ref_y, ks[-1], abs_tol, 0.0))
    if others:
        assert _reference_factor(norm_of_others(abs_tol)) > 0.5
    calls[:] = []
    march(field, 0.0, y, h, h, abs_tol, 0.0)
    assert calls[13] == itg._TABLEAU["D_C2"] * (h * 0.2)


# no shrinking: a failing draw is reported as drawn, because shrinking it
# would rerun both integrations thousands of times
@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(case=_fields,
       t0=st.floats(-10.0, 10.0, allow_subnormal=False),
       span=st.floats(1e-3, 2.0),
       tols=st.sampled_from([(1e-10, 1e-10), (1e-12, 1e-6), (1e-4, 1e-4),
                             (1e-3, 1e-12)]),
       grid=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), max_size=12)))
def test_integrate_is_the_generic_loop_to_the_last_bit(case, t0, span, tols,
                                                       grid):
    """Random fields in dimensions 1, 2 and 6, tolerances and sample
    sets: ``integrate`` returns the times, states and rows of the
    generic loop hex for hex, or fails as it does, with the same type,
    message and t.  Many of these fields blow up in finite time; both
    runs are cut at the 3,000th field call."""
    coef, y0 = case
    t1 = t0 + span
    cfg = IntegratorConfig(*tols)
    t_eval = None if grid is None else [t0 + g * span for g in grid]
    # a run that needs more calls ends on the same call in both
    field, ref_field = _Recorder(coef, 3000), _Recorder(coef, 3000)
    got = _outcome(lambda: integrate(field, t0, y0, t1, cfg, t_eval=t_eval))
    assert got == _outcome(lambda: _reference_integrate(ref_field, t0, y0, t1,
                                                        cfg, t_eval))
    assert _same_calls(field, ref_field)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_sampled_runs_match_the_extension_oracle(n):
    """A run with 41 sample points in dimensions 1, 2 and 6: every sample,
    from the dense output written out per component in the march, equals
    the oracle's interpolant per step, hex for hex."""
    coef = [(0.8, 1.0 + 0.3 * i, 0.2 - 0.1 * i) for i in range(n)]
    y0 = [0.3 - 0.1 * i for i in range(n)]
    cfg = IntegratorConfig(1e-8, 1e-8)
    t_eval = np.linspace(0.0, 3.0, 41).tolist()
    got = _outcome(lambda: integrate(_Recorder(coef), 0.0, y0, 3.0, cfg,
                                     t_eval=t_eval))
    assert len(got[0]) == 41
    assert got == _outcome(lambda: _reference_integrate(_Recorder(coef), 0.0, y0,
                                                        3.0, cfg, t_eval))


def _nan_past_t0(t, y):
    """y' = -y at t = 0 and NaN after it, so the starting-step estimate,
    whose one evaluation lies past t = 0, fails."""
    return (-y[0],) if t == 0.0 else (math.nan,)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("field, t0, y0, t1, cfg", [
    (lambda t, y: (y[0] * y[0],), 0.0, [2.0], 1.0, IntegratorConfig(1e-6, 1e-6)),
    (lambda t, y: (1e308,), 0.0, [1e308], 1.0, IntegratorConfig()),
    (lambda t, y: -np.sqrt(y), 0.0, [1.0], 5.0, IntegratorConfig()),
    (lambda t, y: (-y[0],), 1e20, [1.0], 1e20 + 1e5, IntegratorConfig()),
    (_nan_past_t0, 0.0, [1.0], 5e-324, IntegratorConfig())],
    ids=["blow-up", "overflow", "nan", "stall", "first-step"])
def test_integrate_fails_as_the_generic_loop_does(field, t0, y0, t1, cfg):
    got = _outcome(lambda: integrate(field, t0, y0, t1, cfg))
    assert issubclass(got[0], IntegrationError)
    assert got == _outcome(lambda: _reference_integrate(field, t0, y0, t1, cfg))


def test_the_step_is_built_once_per_dimension(monkeypatch):
    """The march is compiled once per state dimension and kind of run and
    kept: the plain one, which a run given ``t_eval`` runs too, and the
    variational one on the first ``variational_flow``, which is not the
    plain march of 6 components."""
    built = functools.cache(itg._dp_march.__wrapped__)
    monkeypatch.setattr(itg, "_dp_march", built)
    rotate = lambda t, y: (-y[1], y[0])
    integrate(exp_decay, 0.0, [1.0], 1.0, IntegratorConfig())
    integrate(exp_decay, 0.0, [2.0], 3.0, IntegratorConfig())
    integrate(rotate, 0.0, [1.0, 0.0], 1.0, IntegratorConfig())
    assert built.cache_info().currsize == 2
    integrate(exp_decay, 0.0, [1.0], 1.0, IntegratorConfig(), t_eval=[0.5])
    assert built.cache_info().currsize == 2
    rotation = (rotate, lambda t, y: ((0.0, -1.0), (1.0, 0.0)))
    variational_flow(*rotation, 0.0, [1.0, 0.0], 1.0, IntegratorConfig())
    variational_flow(*rotation, 0.0, [0.0, 1.0], 2.0, IntegratorConfig())
    for key in ((1, "plain"), (2, "plain"), (6, "variational")):
        built(*key)
    assert built.cache_info().currsize == 3


def test_check_builds_no_step(tmp_path):
    """The marches are built on first use, not at import, and ``check``
    integrates nothing, so it builds none, neither a plain march nor the
    variational one; ``find-orbit`` then builds the two it runs: the
    plain march for the seed and the steady-state test's samples, and the
    variational march for the search."""
    from conftest import run_python

    config = tmp_path / "example1.json"
    config.write_text(resources.files("phytoperiod.configs")
                      .joinpath("example1.json").read_text())
    proc = run_python("-c", f"""
from phytoperiod import cli, integrator
cli.main(["check", "--config", {str(config)!r}, "--out", {str(tmp_path)!r}])
print(integrator._dp_march.cache_info().currsize)
cli.main(["find-orbit", "--config", {str(config)!r}, "--out", {str(tmp_path)!r}])
print(integrator._dp_march.cache_info().currsize)
for key in ((2, "plain"), (6, "variational")):
    integrator._dp_march(*key)
print(integrator._dp_march.cache_info().currsize)
""")
    assert proc.stdout.splitlines()[-3:] == ["0", "2", "2"], proc.stderr


def test_numpy_array_fields_step_like_tuples():
    cfg = IntegratorConfig()
    rotate = lambda t, y: (-y[1], y[0])
    ref = integrate(rotate, 0.0, [1.0, 0.0], 2.0, cfg)
    traj = integrate(lambda t, y: np.array(rotate(t, y)), 0.0, [1.0, 0.0],
                     2.0, cfg)
    assert traj.states.tobytes() == ref.states.tobytes()


@pytest.mark.parametrize("field, returned", [
    (lambda t, y: (-y[0], 0.0, 5.0), 3),
    (lambda t, y: (-y[0],), 1),
    (lambda t, y: np.zeros(3), 3)])
def test_a_field_of_the_wrong_length_is_rejected(field, returned):
    with pytest.raises(ValueError, match=f"field returned {returned} "
                       "components for a state of dimension 2"):
        integrate(field, 0.0, [1.0, 2.0], 1.0, IntegratorConfig())


def test_a_later_stage_of_the_wrong_length_is_rejected():
    field = lambda t, y: (-y[0], -y[1]) if t == 0.0 else (-y[0], -y[1], 0.0)
    with pytest.raises(ValueError, match="too many values to unpack"):
        integrate(field, 0.0, [1.0, 2.0], 1.0, IntegratorConfig())


@pytest.mark.parametrize("y0", [[], [[1.0, 2.0]]])
def test_an_initial_state_that_is_not_a_vector_is_rejected(y0):
    with pytest.raises(ValueError, match="non-empty vector"):
        integrate(lambda t, y: y, 0.0, y0, 1.0, IntegratorConfig())


def _sampled_and_plain(field, y0, t1, cfg, t_eval):
    """(sampled trajectory, its field calls, plain trajectory, its calls)."""
    out = []
    for grid in (t_eval, None):
        calls = 0

        def counted(t, y):
            nonlocal calls
            calls += 1
            return field(t, y)
        out += [integrate(counted, 0.0, y0, t1, cfg, t_eval=grid), calls]
    return out


def _dense_calls(rows, points):
    """The field calls of the dense output: 3 per step of the rows that
    holds one of the points inside (rows[0], rows[-1])."""
    inner = [p for p in points if rows[0] < p < rows[-1]]
    return 3 * len(set((np.searchsorted(rows, inner) - 1).tolist()))


def test_sampling_leaves_the_steps_unchanged(forced_params):
    """Sample points are read off the steps, never landed on: a run makes
    the same steps and ends in the same state, bit for bit, with or
    without t_eval, and a sampled run's ``steps`` are the plain run's rows
    (t0, the accepted steps, t1), bit for bit.  The sampled run makes the
    plain run's field calls plus the dense output's 3 per step that holds
    a sample, here every step.  The period includes rejected steps."""
    field = lambda t, z: rhs_log(forced_params, t, z)
    marks = np.linspace(0.0, TWO_PI, 257)[1:-1]
    sampled, n_sampled, plain, n_plain = _sampled_and_plain(
        field, (0.64, -0.18), TWO_PI, IntegratorConfig(), marks)
    steps = len(plain.times) - 1
    assert _dense_calls(plain.times, marks) == 3 * steps
    assert n_sampled == n_plain + 3 * steps
    assert n_plain > 12 * steps + 2     # rejected trial steps
    assert sampled.final_state.tobytes() == plain.final_state.tobytes()
    np.testing.assert_array_equal(sampled.times[1:-1], marks)
    assert plain.steps is None
    assert sampled.steps.times.tobytes() == plain.times.tobytes()
    assert sampled.steps.states.tobytes() == plain.states.tobytes()
    assert len(plain.times) > 3


def test_continuous_extension_is_exact_on_polynomials():
    """DOP853's order-7 dense output reproduces y = t^7 from y' = 7 t^6 at
    every sample point, to within 1e-14 of y(2) = 128: what is left is
    the rounding of the 23 steps, where an interpolant of order 6 would
    be off by about 1e-7."""
    field = lambda t, y: (7.0 * t ** 6,)
    marks = np.linspace(0.0, 2.0, 201)[1:-1]
    traj = integrate(field, 0.0, [0.0], 2.0, IntegratorConfig(), t_eval=marks)
    assert len(traj.steps.times) == 24
    np.testing.assert_allclose(traj.states[1:, 0], traj.times[1:] ** 7,
                               rtol=0.0, atol=1e-14 * 2.0 ** 7)


def _landed(field, y0, marks, t1):
    """Reference that lands on every mark: one tight integration per
    interval, each ending exactly on its mark (no interpolation)."""
    tight = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
    y = np.asarray(y0, dtype=float)
    out = [y]
    for a, b in zip([0.0, *marks], [*marks, t1]):
        y = integrate(field, a, y, b, tight).final_state
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("params_name, z0", PERIOD_CASES)
def test_samples_match_a_landed_reference(request, params_name, z0):
    params = request.getfixturevalue(params_name)
    field = lambda t, z: rhs_log(params, t, z)
    marks = np.linspace(0.0, params.period, 257)[1:-1]
    traj = integrate(field, 0.0, z0, params.period, IntegratorConfig(),
                     t_eval=marks)
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
    changes neither the steps nor the end state and adds only the dense
    output's field calls, the returned times are
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
    assert n_sampled == n_plain + _dense_calls(plain.times, grid)
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


@pytest.mark.parametrize("outside", [-0.25, math.nextafter(1.0, 2.0)])
def test_a_t_eval_point_outside_the_span_is_rejected(outside):
    """A sample time before t0 or after t1 is a ValueError before any field
    call; t0 and t1 themselves are admitted."""
    calls = []
    field = lambda t, y: calls.append(t) or (-y[0],)
    with pytest.raises(ValueError,
                       match=r"^t_eval points must lie within \[t0, t1\]$"):
        integrate(field, 0.0, [1.0], 1.0, IntegratorConfig(),
                  t_eval=[0.5, outside])
    assert calls == []
    traj = integrate(field, 0.0, [1.0], 1.0, IntegratorConfig(),
                     t_eval=[0.0, 0.5, 1.0])
    assert traj.times.tolist() == [0.0, 0.5, 1.0]


def test_invalid_time_span():
    with pytest.raises(ValueError):
        integrate(exp_decay, 1.0, np.array([1.0]), 1.0, IntegratorConfig())


def test_an_infinite_time_span_is_rejected():
    """An infinite t0 or t1, or a span that overflows, is a ValueError
    before the first field call; with h = inf every step would be NaN and
    rejected, and the run would never end.  Run in a subprocess with a
    timeout."""
    from conftest import run_python

    proc = run_python("-c", """
import math
from phytoperiod import IntegratorConfig, integrate
calls = []
for t0, t1 in [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
               (-1e308, 1e308)]:
    try:
        integrate(lambda t, y: calls.append(t) or (-y[0],), t0, [1.0], t1,
                  IntegratorConfig())
    except ValueError as exc:
        print(exc)
print(len(calls))
""", timeout=20)
    assert proc.stdout.splitlines() == [
        "need a finite time span, got [0.0, inf]",
        "need a finite time span, got [-inf, 0.0]",
        "need a finite time span, got [-inf, inf]",
        "need a finite time span, got [-1e+308, 1e+308]",
        "0"], proc.stderr


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
    """Over a span of 5e-324, with a field the starting-step estimate
    cannot judge, the fallback first step, span * 1e-3, underflows to 0:
    that is a step underflow at t0, not an endless loop."""
    from phytoperiod import StepUnderflowError

    with pytest.raises(StepUnderflowError) as exc_info:
        integrate(_nan_past_t0, 0.0, [1.0], 5e-324, IntegratorConfig())
    assert exc_info.value.t == 0.0


def test_a_span_of_one_subnormal_ends_on_t1_in_one_step():
    """Over a span of 5e-324 the estimated first step is the span itself,
    so the run ends on t1 in one DOP853 step, as the generic loop does;
    no step underflows, since the step floor, 1e-14 times the span, is
    0."""
    got = _outcome(lambda: integrate(exp_decay, 0.0, [1.0], 5e-324,
                                     IntegratorConfig()))
    assert got == _outcome(lambda: _reference_integrate(
        exp_decay, 0.0, [1.0], 5e-324, IntegratorConfig()))
    assert got == [_hex([0.0, 5e-324]), [_hex([1.0]), _hex([1.0])]]


def test_model_overflow_propagates(ex1_params):
    """A start outside the exp guard's range ends the run."""
    from phytoperiod import DomainOverflowError

    field = lambda t, z: rhs_log(ex1_params, t, z)
    with pytest.raises(DomainOverflowError):
        integrate(field, 0.0, np.array([709.5, 0.0]), 1.0, IntegratorConfig())


def test_a_trial_stage_outside_the_domain_is_rejected_as_a_nan_stage():
    """y' = -y on the domain |y| <= 3, over [0, 1e4] at tolerances of 1:
    the steps grow until trial stages leave the domain, the first at
    t = 21.5 with a stage at -27.5.  A field that raises
    DomainOverflowError there takes the same steps, bit for bit, as one
    that returns NaN there: each such step is rejected and shrinks, and
    the run goes on to its end, with its sample at t = 1 within 1e-4 of
    e^-1 (3.1e-5 measured)."""
    from phytoperiod import DomainOverflowError

    raised = 0

    def raising(t, y):
        nonlocal raised
        if abs(y[0]) > 3.0:
            raised += 1
            raise DomainOverflowError("off the domain")
        return (-y[0],)

    def nan(t, y):
        return (math.nan,) if abs(y[0]) > 3.0 else (-y[0],)

    runs = [integrate(field, 0.0, [1.0], 1e4, IntegratorConfig(1.0, 1.0),
                      t_eval=[1.0]) for field in (raising, nan)]
    assert raised > 0
    assert runs[0].steps.times.tobytes() == runs[1].steps.times.tobytes()
    assert runs[0].steps.states.tobytes() == runs[1].steps.states.tobytes()
    assert runs[0].times.tolist() == [0.0, 1.0, 1e4]
    assert abs(runs[0].states[1, 0] - math.exp(-1.0)) < 1e-4


def test_a_step_that_does_not_advance_t_is_an_underflow():
    """At t = 1e20 half an ulp is 8192, far above the step floor of
    1e-14 times the span 1e5.  A step grown past an ulp is rejected, and
    the shrunk step has t + h round back to t: a step underflow at
    t = 1e20, not an endless loop of zero steps accepted and grown, in
    the plain march, with and without samples, and the variational one.
    Run in a subprocess with a timeout."""
    from conftest import run_python

    proc = run_python("-c", """
from phytoperiod import (IntegratorConfig, StepUnderflowError, integrate,
                         variational_flow)
cfg = IntegratorConfig()
decay = lambda t, y: (-y[0],)
for run in (lambda: integrate(decay, 1e20, [1.0], 1e20 + 1e5, cfg),
            lambda: integrate(decay, 1e20, [1.0], 1e20 + 1e5, cfg,
                              t_eval=[1e20 + 5e4]),
            lambda: variational_flow(lambda t, y: (-y[0], -y[1]),
                                     lambda t, y: ((-1.0, 0.0), (0.0, -1.0)),
                                     1e20, [1.0, 2.0], 1e20 + 1e5, cfg)):
    try:
        run()
    except StepUnderflowError as exc:
        print(exc.t, "does not advance" in str(exc))
""")
    assert (proc.returncode, proc.stdout) == (0, "1e+20 True\n" * 3), proc.stderr


def test_stalled_steps_are_not_rows():
    """Over one ulp at t = 2 pi the first steps are below half an ulp and
    leave t unchanged until the controller grows them; those steps are not
    recorded, so the rows are exactly [t0, t1]."""
    t0 = 6.283185307179585
    t1 = math.nextafter(t0, 7.0)
    traj = integrate(lambda t, y: (1e15,), t0, [0.0], t1, IntegratorConfig())
    assert traj.times.tolist() == [t0, t1]


@pytest.mark.parametrize("variational", [False, True])
def test_a_step_of_one_ulp_moves_y_over_one_ulp(variational):
    """y' = 1e15 over one ulp at t = 2 pi: both marches step y by the step
    they make, t_new - t, so y(t1) is 1e15 (t1 - t0) = 0.8882 up to the
    rounding of the weights' sum, not 0.6937 from steps that moved y
    while t stayed."""
    t0 = 6.283185307179585
    t1 = math.nextafter(t0, 7.0)
    if variational:
        y, M = variational_flow(lambda t, y: (1e15, 0.0),
                                lambda t, y: ((0.0, 0.0), (0.0, 0.0)),
                                t0, [0.0, 0.0], t1, IntegratorConfig())
        assert M.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    else:
        y = integrate(lambda t, y: (1e15,), t0, [0.0], t1,
                      IntegratorConfig()).final_state
    assert y[0] == pytest.approx(1e15 * (t1 - t0), rel=1e-14)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
def test_config_rejects_nonfinite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        IntegratorConfig(**{name: value})


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1.0)


def test_the_tolerances_are_the_only_knobs():
    """No step cap: the error tolerances alone set a run's accuracy."""
    assert [f.name for f in dataclasses.fields(IntegratorConfig)] == [
        "abs_tol", "rel_tol"]
    with pytest.raises(TypeError):
        IntegratorConfig(max_step=2.0)


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([5.0, 6.0]))


@pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, math.inf],
                                   [-math.inf, 0.0], [math.nan]])
def test_trajectory_times_must_be_finite(times):
    with pytest.raises(ValueError, match="times must be finite"):
        Trajectory(np.array(times), np.zeros((len(times), 2)))


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
                       0.0, z0, 2.0 * TWO_PI, cfg).final_state
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
                     0.0, x0, TWO_PI, cfg, t_eval=marks)
    in_z = integrate(lambda t, z: rhs_log(ex1_params, t, z),
                     0.0, np.log(x0), TWO_PI, cfg, t_eval=marks)
    sup = np.max(np.abs(np.exp(in_z.states) - in_x.states))
    print(f"\n  frame equivalence sup-error: {sup:.3e}")
    assert sup < 1e-6


def test_positivity_preservation(ex1_params, cfg):
    x0 = np.array([0.002, 0.002])
    marks = np.linspace(0.0, TWO_PI, 65)[1:-1]
    traj = integrate(lambda t, x: rhs_original(ex1_params, t, x),
                     0.0, x0, TWO_PI, cfg, t_eval=marks)
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


@pytest.mark.parametrize("y0", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], 1.0])
def test_variational_flow_needs_a_planar_state(y0):
    field = lambda t, y: (-y[0], -y[1])
    jac = lambda t, y: ((-1.0, 0.0), (0.0, -1.0))
    with pytest.raises(ValueError, match="need a planar state"):
        variational_flow(field, jac, 0.0, y0, 1.0, IntegratorConfig())


@pytest.mark.parametrize("t0, y0, t1, message", [
    (1.0, [1.0, 2.0], 1.0, "need t1 > t0"),
    (0.0, [1.0, 2.0], math.nan, "need t1 > t0"),
    (-1e308, [1.0, 2.0], 1e308, "need a finite time span"),
    (0.0, [math.nan, 2.0], 1.0, "initial state must be finite"),
    (0.0, [1.0, math.inf], 1.0, "initial state must be finite")])
def test_variational_flow_keeps_the_checks_of_integrate(t0, y0, t1, message):
    field = lambda t, y: (-y[0], -y[1])
    jac = lambda t, y: ((-1.0, 0.0), (0.0, -1.0))
    with pytest.raises(ValueError, match=message):
        variational_flow(field, jac, t0, y0, t1, IntegratorConfig())


class _RecordedPair:
    """A planar field and its Jacobian, every call's arguments kept in
    order; the field ends the run with ``_Enough`` after ``limit`` calls,
    and the DomainOverflowErrors that either one raises are counted."""

    def __init__(self, field, jac, limit=4000):
        self._field, self._jac, self.limit = field, jac, limit
        self.calls, self.fields, self.overflows = [], 0, 0

    def _call(self, fn, t, y):
        try:
            return fn(t, y)
        except DomainOverflowError:
            self.overflows += 1
            raise

    def field(self, t, y):
        if self.fields == self.limit:
            raise _Enough
        self.fields += 1
        self.calls.append(("field", t.hex(), _hex(y)))
        return self._call(self._field, t, y)

    def jac(self, t, y):
        self.calls.append(("jac", t.hex(), _hex(y)))
        return self._call(self._jac, t, y)


def _plain_dop853(field, t0, w0, t1, cfg):
    """The plain DOP853 march on ``field`` with the arguments ``integrate``
    gives a march that estimates its first step, and its rows."""
    times, flat, *_samples = itg._dp_march(len(w0), "plain")(
        field, t0, tuple(w0), t1, None, cfg.abs_tol, cfg.rel_tol,
        itg._MIN_STEP_FACTOR * (t1 - t0), [math.inf])
    return Trajectory(np.array(times), np.reshape(flat, (-1, len(w0))))


def _both_marches(make_pair, t0, w0, t1, cfg):
    """The outcome of the compiled variational march on the pair from
    ``make_pair()``, through ``integrate``, and of the plain DOP853 march
    built by the same generator on the pair's augmented ``__call__``,
    with both pairs."""
    runs = []
    for run in (integrate, _plain_dop853):
        pair = make_pair()
        field = itg._Augmented((pair.field, pair.jac))
        runs.append((_outcome(lambda: run(field, t0, w0, t1, cfg)), pair))
    return runs


def _planar_pair(case):
    """y_i' = a_i sin(b_i t + y_i) + c_i y_i y_(1-i) and its Jacobian."""
    (a1, b1, c1), (a2, b2, c2) = case

    def field(t, y):
        return (a1 * math.sin(b1 * t + y[0]) + c1 * y[0] * y[1],
                a2 * math.sin(b2 * t + y[1]) + c2 * y[1] * y[0])

    def jac(t, y):
        return ((a1 * math.cos(b1 * t + y[0]) + c1 * y[1], c1 * y[0]),
                (c2 * y[1], a2 * math.cos(b2 * t + y[1]) + c2 * y[0]))
    return field, jac


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(source=st.sampled_from(["random field", "forced_params", "random draw"]),
       frame=st.sampled_from(["log", "original"]),
       case=st.lists(st.tuples(_term, _term, _term), min_size=2, max_size=2),
       draw=st.integers(0, 399),
       y=st.lists(st.floats(-2.0, 1.5, allow_subnormal=False), min_size=2,
                  max_size=2),
       Y=st.one_of(st.just([1.0, 0.0, 0.0, 1.0]),
                   st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                            min_size=4, max_size=4)),
       t0=st.floats(-10.0, 10.0, allow_subnormal=False),
       span=st.floats(1e-2, 2.0 * TWO_PI),
       tols=st.sampled_from([(1e-10, 1e-10), (1e-12, 1e-6), (1e-4, 1e-4)]))
def test_the_variational_march_is_the_augmented_call_to_the_last_bit(
        forced_params, source, frame, case, draw, y, Y, t0, span, tols):
    """Random planar fields with their Jacobians, and the model's fields
    in both frames (``rhs_log``/``jac_log`` and the original-frame pair
    that ``detect_steady_state`` runs) on ``forced_params`` and on the
    random draws: the compiled variational march calls ``jac``, then
    ``field``, at each stage with the arguments the augmented
    ``__call__`` gets from the plain DOP853 march, and returns its times
    and rows hex for hex, or fails as it does.  Runs are cut at the
    4,000th field call."""
    if source == "random field":
        fields = _planar_pair(case)
    else:
        params = forced_params if source == "forced_params" else random_draw(draw)
        if frame == "log":
            fields = (partial(rhs_log, params), partial(jac_log, params))
        else:
            y = [math.exp(v) for v in y]
            fields = (partial(rhs_original, params), partial(jac_original, params))
    t1 = t0 + span
    cfg = IntegratorConfig(*tols)
    (got, pair), (ref, ref_pair) = _both_marches(
        lambda: _RecordedPair(*fields), t0, [*y, *Y], t1, cfg)
    assert got == ref
    assert pair.calls == ref_pair.calls


def _blow_up(t, y):
    return (y[0] * y[0], -y[1])


@pytest.mark.parametrize("case", ["domain", "underflow", "non-finite"])
def test_the_variational_march_fails_as_the_augmented_call_does(forced_params,
                                                                case):
    """A trial stage outside the exp guard of ``jac_log`` and ``rhs_log``,
    whose step shrinks and the run goes on to its end; a step underflow at a blow-up; and a
    state that overflows to inf: the compiled variational march and the
    plain DOP853 march on the augmented ``__call__`` end the same way,
    with the same type, message and t, after the same calls."""
    identity = [1.0, 0.0, 0.0, 1.0]
    if case == "domain":
        # at tolerances of 1 the steps over [0, 1e5] grow fivefold until
        # a trial stage leaves the exp guard's range
        fields = (partial(rhs_log, forced_params), partial(jac_log, forced_params))
        args = (0.0, [0.64, -0.18, *identity], 1e5, IntegratorConfig(1.0, 1.0))
        expected = list
    elif case == "underflow":
        fields = (_blow_up, lambda t, y: ((2.0 * y[0], 0.0), (0.0, -1.0)))
        args = (0.0, [2.0, 1.0, *identity], 1.0, IntegratorConfig(1e-6, 1e-6))
        expected = itg.StepUnderflowError
    else:
        fields = (lambda t, y: (1e308, 0.0),
                  lambda t, y: ((0.0, 0.0), (0.0, 0.0)))
        args = (0.0, [1e308, 1.0, *identity], 1.0, IntegratorConfig())
        expected = itg.NonFiniteStateError
    (got, pair), (ref, ref_pair) = _both_marches(
        lambda: _RecordedPair(*fields), *args)
    assert type(got) is expected if case == "domain" else got[0] is expected
    assert got == ref and pair.calls == ref_pair.calls
    if case == "domain":
        assert got[0][-1] == (1e5).hex()
        assert pair.overflows > 0 and pair.overflows == ref_pair.overflows
    else:
        assert got[2] is not None


def test_dop853_constants_are_scipys():
    """Every DOP853 constant the variational march reads equals, bit for
    bit, the one in scipy's installed ``dop853_coefficients``: the nodes,
    the stage weights with the 8th-order weights as row 13, and both
    error estimates, with every absent name a 0 and every absent node a 1."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    T = itg._TABLEAU
    nodes, rows = [0.0], [[0.0] * 13]
    for node, weights in _STAGES:
        nodes.append(1.0 if node is None else T[node])
        rows.append([T[w] if w else 0.0 for w in weights]
                    + [0.0] * (13 - len(weights)))
    assert nodes == ref.C[:13].tolist()
    assert rows == ref.A[:13, :13].tolist()
    assert rows[12][:12] == ref.B.tolist()
    errors = [[T[w] if w else 0.0 for w in weights] + [0.0]
              for weights in _ERRORS]
    assert errors == [ref.E5.tolist(), ref.E3.tolist()]
    # the dense output: nodes and weights of k14..k16, and the weights of
    # its last four coefficients over k1..k16
    assert [T[node] for node, _ in _DENSE_EXTRA] == ref.C[13:16].tolist()
    assert [[T[w] if w else 0.0 for w in weights] + [0.0] * (16 - len(weights))
            for _, weights in _DENSE_EXTRA] == ref.A[13:16].tolist()
    assert [[T[w] if w else 0.0 for w in weights]
            for weights in _DENSE_ROWS] == ref.D.tolist()


def _recorded_dop853_start(case, t0, span, tols, variational):
    """The field calls of a DOP853 march given no first step, up to its
    k2 call, and those of the estimate oracle ``first_step`` (order 8)
    on the same field, with the time the march's k2 call must have if it
    tries the oracle's step.  A plain march runs the random field of
    ``case``; a variational one the planar pair of ``_planar_pair`` from
    (y, I), whose calls are recorded as ``_RecordedPair`` does."""
    (coef, y), t1 = case, t0 + span
    if variational:
        fields = _planar_pair(coef)
        y = [*y, 1.0, 0.0, 0.0, 1.0]

        def make(limit=4000):
            pair = _RecordedPair(*fields, limit=limit)
            return itg._Augmented((pair.field, pair.jac)), pair.calls
    else:
        def make(limit=math.inf):
            rec = _Recorder(coef, limit)
            return rec, rec.times
    ref_field, ref_calls = make()
    h = first_step(ref_field, t0, y, t1, *tols, 8)
    made = len(ref_calls) // 2 if variational else len(ref_calls)
    field, calls = make(made + 1)   # up to the k2 call
    with pytest.raises(_Enough):
        itg._dp_march(len(y), "variational" if variational else "plain")(
            field, t0, tuple(y), t1, None, *tols,
            itg._MIN_STEP_FACTOR * span, [math.inf])
    t_new = t1 if h >= t1 - t0 else t0 + h
    return calls, ref_calls, t0 + itg._TABLEAU["D_C2"] * (t_new - t0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(case=_fields,
       pair=st.tuples(st.lists(st.tuples(_term, _term, _term), min_size=2,
                               max_size=2),
                      st.lists(_term, min_size=2, max_size=2)),
       t0=st.floats(-10.0, 10.0, allow_subnormal=False),
       span=st.floats(1e-3, 20.0),
       tols=st.sampled_from([(1e-10, 1e-10), (1e-12, 1e-6), (1e-4, 1e-4),
                             (1.0, 0.0), (1e-3, 1e-12)]),
       variational=st.booleans())
def test_a_dop853_march_starts_from_hairers_estimate(case, pair, t0, span,
                                                     tols, variational):
    """Random fields in dimensions 1, 2 and 6 for the plain DOP853 march,
    and random planar pairs with their Jacobians for the variational one:
    given no first step, a march evaluates the field where the oracle
    ``first_step`` does, argument for argument, and its first trial step,
    read off the time of its k2 call, is the oracle's to the last bit."""
    calls, ref_calls, at = _recorded_dop853_start(
        pair if variational else case, t0, span, tols, variational)
    assert calls[:len(ref_calls)] == ref_calls
    k2 = calls[len(ref_calls)]
    assert (k2[1] if variational else k2.hex()) == at.hex()


@pytest.mark.parametrize("variational", [False, True])
@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_a_failed_estimate_starts_from_a_thousandth_of_the_span(variational,
                                                                failure):
    """The starting step never decides how a run ends: when the estimate's
    one evaluation, at its Euler point, raises DomainOverflowError or
    returns a NaN, each march, the plain one and the variational one,
    starts from span / 1000, and the run goes on to t1."""
    calls = []

    def field(t, y):
        calls.append(t)
        if len(calls) == 2:
            if failure == "raises":
                raise DomainOverflowError("off the domain")
            return (math.nan, -2.0 * y[1])
        return (-y[0], -2.0 * y[1])

    cfg = IntegratorConfig()
    if variational:
        y, _M = variational_flow(field, lambda t, y: ((-1.0, 0.0), (0.0, -2.0)),
                                 0.0, [1.0, 2.0], 2.0, cfg)
    else:
        y = integrate(field, 0.0, [1.0, 2.0], 2.0, cfg).final_state
    assert calls[2] == itg._TABLEAU["D_C2"] * (2.0 * 1e-3)
    assert y == pytest.approx([math.exp(-2.0), 2.0 * math.exp(-4.0)], rel=1e-8)


@pytest.mark.parametrize("params_name, z0", PERIOD_CASES)
def test_dense_output_is_scipys_dop853_interpolant(request, params_name, z0):
    """Over each step of a monodromy run, the dense output at 5 times
    inside the step and at its end equals scipy's DOP853 interpolant
    built from the same step: y, y_new and the stages the run recorded,
    with the extra stages k14..k16 by scipy's own formula, and zeros for
    k2..k5, which no weight of either reads.  It calls the field 3 times
    per step."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    params = request.getfixturevalue(params_name)
    steps = flow_and_monodromy(params, np.array(z0), IntegratorConfig()).steps
    calls = []

    def field(t, z):
        calls.append(t)
        return rhs_log(params, t, z)

    t, y = steps.times, steps.states[:, :2]
    record = np.reshape(steps.record, (len(t) - 1, -1, 2))
    times = np.concatenate([np.linspace(a, b, 6)[1:] for a, b in zip(t, t[1:])])
    got = itg._Flow(steps, field).states_at(times).reshape(len(t) - 1, 5, 2)
    assert len(calls) == 3 * (len(t) - 1)
    worst = 0.0
    for i, (a, b) in enumerate(zip(t, t[1:])):
        h, K = b - a, np.zeros((16, 2))
        K[[0, *range(5, 13)]] = record[i]       # k1, k6..k13
        for s in range(13, 16):
            K[s] = rhs_log(params, a + ref.C[s] * h, y[i] + h * (ref.A[s, :s] @ K[:s]))
        dy = y[i + 1] - y[i]
        F = np.vstack([dy, h * K[0] - dy, 2.0 * dy - h * (K[12] + K[0]),
                       h * (ref.D @ K)])
        want = Dop853DenseOutput(a, b, y[i], F)(np.linspace(a, b, 6)[1:]).T
        worst = max(worst, float(np.max(np.abs(got[i] - want))))
    assert worst <= 1e-15 * max(1.0, float(np.max(np.abs(y))))


def test_a_period_map_is_the_dop853_march(forced_params):
    """``flow_map`` is the DOP853 march of its field, bit for bit."""
    z0, T = (0.64, -0.18), forced_params.period
    cfg = IntegratorConfig()
    _times, flat, *_samples = itg._dp_march(2, "plain")(
        partial(rhs_log, forced_params), 0.0, z0, T, None, cfg.abs_tol,
        cfg.rel_tol, itg._MIN_STEP_FACTOR * T, [math.inf])
    assert flow_map(forced_params, z0, cfg).tobytes() == np.array(flat[-2:]).tobytes()


@pytest.mark.parametrize("params_name, z0", PERIOD_CASES)
def test_period_map_matches_scipy_dop853(request, params_name, z0):
    from scipy.integrate import solve_ivp

    params = request.getfixturevalue(params_name)
    zT = flow_map(params, np.array(z0), IntegratorConfig(1e-12, 1e-12))
    sol = solve_ivp(lambda t, z: rhs_log(params, t, z), (0.0, params.period),
                    z0, method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success
    assert np.max(np.abs(zT - sol.y[:, -1])) < 1e-9


def test_the_variational_march_reuses_last_stage():
    """DOP853 is FSAL: its 13th stage is the next step's 1st, so each step
    costs 12 ``jac`` calls, plus 1 at the start and 1 for the starting
    step's estimate.  At the default tolerances the rotation on [0, 10]
    rejects no step."""
    calls = 0

    def jac(t, y):
        nonlocal calls
        calls += 1
        return ((0.0, -1.0), (1.0, 0.0))

    pair = itg._Augmented((lambda t, y: (-y[1], y[0]), jac))
    steps = integrate(pair, 0.0, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0], 10.0,
                      IntegratorConfig())
    assert calls == 12 * (len(steps.times) - 1) + 2


def test_dop853_order_fit():
    """Global error of the fixed-step variational march on the rotation
    y' = (-y2, y1), Y' = J Y, whose flow and fundamental matrix at t = 1
    are the rotation by 1: over h = 1, 1/2, 1/3, 1/4 and 1/5 the fitted
    slope is in [7.6, 8.4]."""
    from conftest import order_fit

    rotation = itg._Augmented((lambda t, y: (-y[1], y[0]),
                               lambda t, y: ((0.0, -1.0), (1.0, 0.0))))
    c, s = math.cos(1.0), math.sin(1.0)
    slope, errors = order_fit(rotation, (1.0, 0.0, 1.0, 0.0, 0.0, 1.0),
                              (c, s, c, -s, s, c), (1.0, 0.5, 1 / 3, 0.25, 0.2))
    print(f"\n  DOP853 order fit: slope = {slope:.3f}, errors = {errors}")
    assert 7.6 <= slope <= 8.4


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("stage", [2, 13])
def test_the_variational_error_norm_keeps_a_nan(component, stage):
    """A NaN in one component of the field at stage k2, which reaches
    that component's two error estimates through the later stages while
    the four Y components stay finite, or at k13, the FSAL stage that no
    estimate weighs: the norm is NaN, so the step is rejected and retried
    at a fifth of its size.  The tolerance puts the finite ratios far
    below 1, so a norm that let a later finite ratio overwrite the NaN, or
    that passed a NaN k13 on as the next k1, would accept the step."""
    calls = []

    def field(t, y):
        calls.append(t)
        k = [-y[0], -2.0 * y[1]]
        if len(calls) == stage:
            k[component] = math.nan
        return tuple(k)

    pair = itg._Augmented((field, lambda t, y: ((-1.0, 0.0), (0.0, -2.0))))
    h = 0.1
    march(pair, 0.0, (1.0, 2.0, 1.0, 0.0, 0.0, 1.0), h, h, 1e-6, 0.0)
    assert calls[13] == itg._TABLEAU["D_C2"] * (h * 0.2)


def test_a_variational_run_takes_no_samples():
    """A variational run is sampled after the fact, from its stage record
    (``_Flow.states_at``), so a run of an augmented pair with ``t_eval``
    is a ValueError before any call."""
    calls = []
    field = lambda t, y: calls.append(t) or (-y[0], -y[1])
    pair = itg._Augmented((field, lambda t, y: ((-1.0, 0.0), (0.0, -1.0))))
    with pytest.raises(ValueError, match="^a variational run takes no t_eval$"):
        integrate(pair, 0.0, [1.0, 2.0, 1.0, 0.0, 0.0, 1.0], 1.0,
                  IntegratorConfig(), t_eval=[0.5])
    assert calls == []


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.lists(st.tuples(_term, _term, _term), min_size=2, max_size=2),
       y=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       t0=st.floats(-10.0, 10.0, allow_subnormal=False),
       h=st.floats(1e-3, 0.1),
       grid=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1,
                     max_size=8))
def test_the_sampled_march_and_the_dense_step_share_their_bits(pair, y, t0, h,
                                                              grid):
    """One step of a random planar field with its Jacobian, from a state
    and over a step small enough that the field stays bounded, taken with
    a first step of h at a tolerance it passes: the plain march's samples
    inside the step, and those of ``_Flow.states_at`` from the variational
    march's record of the same step, which ``_dense_step`` evaluates, are
    the same to the last bit, because both run the same generated lines
    (``_dense_lines``); the planar stages of the two marches agree
    bit for bit."""
    field, jac = _planar_pair(pair)
    t1 = t0 + h
    pts = sorted({t0 + g * (t1 - t0) for g in grid} - {t0})
    floor = itg._MIN_STEP_FACTOR * (t1 - t0)
    rows, _flat, times, states = itg._dp_march(2, "plain")(
        field, t0, tuple(y), t1, h, 1.0, 0.0, floor, [*pts, math.inf])
    run = itg._dp_march(6, "variational")(
        itg._Augmented((field, jac)), t0, (*y, 1.0, 0.0, 0.0, 1.0), t1, h,
        1.0, 0.0, floor, [math.inf])
    assert rows == run[0] == [t0, t1]
    steps = itg._from_march(*run[:2], 6, record=run[2])
    got = itg._Flow(steps, field).states_at(times[1:-1])
    assert np.reshape(states[2:-2], (-1, 2)).tobytes() == got.tobytes()


def test_there_is_one_runge_kutta_method():
    """Every constant the marches read is a DOP853 one; ``_dp_march``
    builds two kinds of DOP853 march, the plain one and the variational
    one, and no other; and a plain run makes the same rows, bit for bit,
    with sample times as without."""
    assert all(name.startswith("D_") for name in itg._TABLEAU)
    for kind in ("plain", "variational"):
        itg._dp_march.__wrapped__(6, kind)
    for kind in ("sampled", "dp5", "dop853", "rk45"):
        with pytest.raises(KeyError):
            itg._dp_march.__wrapped__(2, kind)
    rotate, cfg = (lambda t, y: (-y[1], y[0])), IntegratorConfig()
    plain = integrate(rotate, 0.0, [1.0, 0.0], 7.0, cfg)
    sampled = integrate(rotate, 0.0, [1.0, 0.0], 7.0, cfg, t_eval=[0.5, 3.0, 6.5])
    assert sampled.times.tolist() == [0.0, 0.5, 3.0, 6.5, 7.0]
    assert len(plain.times) > 5
    assert sampled.steps.times.tobytes() == plain.times.tobytes()
    assert sampled.steps.states.tobytes() == plain.states.tobytes()


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
                     params.period, cfg, t_eval=ts[1:-1])
    traces = np.array([np.trace(jac_log(params, t, z))
                       for t, z in zip(traj.times, traj.states)])
    integral = (params.period / n) * (traces.sum()
                                      - 0.5 * (traces[0] + traces[-1]))
    assert abs(math.log(np.linalg.det(M)) - integral) < 1e-8


# --- CSV export ----------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    traj = Trajectory(np.array([0.0, 0.5, 1.0]),
                      np.array([[1.0, 2.0], [0.1234567890123456, 3.0],
                                [1e-30, 7.0]]))
    path = tmp_path / "out.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 4
    t, a, b = lines[2].split(",")
    assert float(t) == 0.5 and float(a) == 0.1234567890123456 and float(b) == 3.0


# the values whose formatting the block writer must reproduce
_CSV_SPECIALS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1e-310, 1e308, -1e308, 1.7976931348623157e308, math.nan,
                 math.inf, -math.inf, 0.1, 1.0 / 3.0)
_csv_value = st.one_of(st.sampled_from(_CSV_SPECIALS), st.floats())
_BLOCK = itg._CSV_BLOCK_ROWS


@st.composite
def _csv_trajectories(draw):
    n = draw(st.one_of(st.sampled_from((1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                        2 * _BLOCK, 2 * _BLOCK + 1)),
                       st.integers(1, 2 * _BLOCK + 2)))
    # equally spaced times, from 0 or -0.0, a subnormal or a huge start
    start = draw(st.sampled_from((0.0, -0.0, 5e-324, -1e308, 0.1)))
    spacing = draw(st.sampled_from((5e-324, 1e-300, 0.1, 1.0, 1e304)))
    times = start + spacing * np.arange(n)
    times[0] = start
    assume(np.all(np.isfinite(times)) and np.all(np.diff(times) > 0))
    states = draw(arrays(np.float64, (n, 2), elements=_csv_value,
                         fill=_csv_value))
    return Trajectory(times, states)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(traj=_csv_trajectories())
def test_csv_bytes_equal_the_per_row_writer(tmp_path_factory, traj):
    """The block writer writes the bytes of the per-row f-string writer,
    for one row, row counts on both sides of a block boundary, signed
    zeros, subnormals, +-1e308, infinities and NaN."""
    directory = tmp_path_factory.mktemp("csv")
    write_trajectory_csv(traj, directory / "blocks.csv")
    write_trajectory_csv_per_row(traj, directory / "rows.csv")
    assert ((directory / "blocks.csv").read_bytes()
            == (directory / "rows.csv").read_bytes())


@pytest.mark.parametrize("columns", [1, 3])
def test_csv_rejects_states_without_two_columns(tmp_path, columns):
    """A state of another width is an error naming its shape: the header
    is t,x1,x2, and the writer formats three values per row."""
    traj = Trajectory(np.array([0.0, 1.0]), np.ones((2, columns)))
    with pytest.raises(ValueError, match=rf"shape \(2, {columns}\)"):
        write_trajectory_csv(traj, tmp_path / "out.csv")
