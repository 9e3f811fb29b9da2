"""The field kernels that ModelParams builds, against the model equations
evaluated through PeriodicCoefficient.__call__, bit for bit."""

import copy
import dataclasses
import math
import pickle
import sys
import threading
from pathlib import Path
from types import MethodType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phytoperiod import (DomainOverflowError, IntegratorConfig, ModelParams,
                         PeriodicCoefficient, compute_bounds,
                         flow_and_monodromy, jac_log, jac_original, rhs_log,
                         rhs_original, variational_flow)
from phytoperiod.cli import parse_config
from phytoperiod.model import _field_code

from conftest import count_public_calls

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

TWO_PI = 2.0 * math.pi


# --- reference: the model equations, one coefficient call per rate ---------

def _rates(params, t):
    return params.r1(t), params.r2(t), params.beta1(t), params.beta2(t)


def ref_rhs_original(params, t, x):
    x1, x2 = x
    r1, r2, b1, b2 = _rates(params, t)
    dx1 = r1 * x1 * (1.0 - x1 / params.k1) - b1 * x1 * x2
    dx2 = (r2 * x2 * (1.0 / (1.0 + params.w1 * x1) - x2 / params.k2)
           - b2 * x1 * x2 - params.w2 * x1 * x2 * x2)
    return dx1, dx2


def ref_jac_original(params, t, x):
    x1, x2 = x
    r1, r2, b1, b2 = _rates(params, t)
    fear = 1.0 / (1.0 + params.w1 * x1)
    return (
        (r1 * (1.0 - 2.0 * x1 / params.k1) - b1 * x2, -b1 * x1),
        (-r2 * x2 * params.w1 * fear * fear - b2 * x2 - params.w2 * x2 * x2,
         r2 * (fear - 2.0 * x2 / params.k2) - b2 * x1 - 2.0 * params.w2 * x1 * x2),
    )


def ref_rhs_log(params, t, z):
    u, v = math.exp(z[0]), math.exp(z[1])
    r1, r2, b1, b2 = _rates(params, t)
    dz1 = r1 * (1.0 - u / params.k1) - b1 * v
    dz2 = (r2 * (1.0 / (1.0 + params.w1 * u) - v / params.k2)
           - b2 * u - params.w2 * u * v)
    return dz1, dz2


def ref_jac_log(params, t, z):
    u, v = math.exp(z[0]), math.exp(z[1])
    r1, r2, b1, b2 = _rates(params, t)
    fear = 1.0 / (1.0 + params.w1 * u)
    return (
        (-r1 * u / params.k1, -b1 * v),
        (-r2 * params.w1 * u * fear * fear - b2 * u - params.w2 * u * v,
         -r2 * v / params.k2 - params.w2 * u * v),
    )


def bits(values):
    """Nested tuples of float.hex(): equal only when bit for bit equal
    (signed zeros included)."""
    if isinstance(values, (tuple, list)):
        return tuple(bits(v) for v in values)
    return float(values).hex()


# --- the property -------------------------------------------------------------

# small pools, so that draws both share and differ in (omega, phase)
_omega = st.sampled_from([1.0, 2.0, 3.0])
_phase = st.one_of(st.sampled_from([0.0, -0.0, 1.25]), st.floats(-4.0, 4.0))
# zero means and amplitudes, where a dropped "0.0 +" would flip a signed zero
_mean = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
_amplitude = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
_coefficient = st.one_of(
    st.builds(PeriodicCoefficient.constant, _mean),
    st.builds(PeriodicCoefficient.sinusoid, _mean, _amplitude, _omega, _phase),
    st.builds(PeriodicCoefficient.fourier, _mean,
              st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       max_size=3),
              _omega),
)
_params = st.builds(ModelParams, r1=_coefficient, r2=_coefficient,
                    beta1=_coefficient, beta2=_coefficient,
                    k1=st.floats(0.1, 10.0), k2=st.floats(0.1, 10.0),
                    w1=st.floats(0.0, 5.0), w2=st.floats(0.0, 5.0),
                    period=st.just(TWO_PI))
_time = st.one_of(st.just(0.0), st.floats(-50.0, 50.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(params=_params, t=_time,
       z=st.tuples(st.floats(-20.0, 5.0), st.floats(-20.0, 5.0)),
       x=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)))
def test_kernels_match_the_model_equations_bit_for_bit(params, t, z, x):
    assert bits(rhs_log(params, t, z)) == bits(ref_rhs_log(params, t, z))
    assert bits(jac_log(params, t, z)) == bits(ref_jac_log(params, t, z))
    assert bits(rhs_original(params, t, x)) == bits(ref_rhs_original(params, t, x))
    assert bits(jac_original(params, t, x)) == bits(ref_jac_original(params, t, x))
    for bad in ((800.0, 0.0), (0.0, math.nan)):
        with pytest.raises(DomainOverflowError):
            rhs_log(params, t, bad)
        with pytest.raises(DomainOverflowError):
            jac_log(params, t, bad)


def test_one_sin_per_distinct_argument(ex1_params):
    calls = []

    def counting(name, fn):
        def wrapped(arg):
            calls.append(name)
            return fn(arg)
        return wrapped

    def count(coefficients):
        # a fresh instance: its fields share one namespace of their own
        params = dataclasses.replace(ex1_params, **dict(zip(
            ("r1", "r2", "beta1", "beta2"), coefficients)))
        namespace = params._kernels.rhs_log.__globals__
        assert all(getattr(params._kernels, name).__globals__ is namespace
                   for name in params._kernels._fields)
        for name in ("sin", "cos"):
            namespace[name] = counting(name, namespace[name])
        calls.clear()
        z = (0.4, -1.5)
        assert bits(rhs_log(params, 0.9, z)) == bits(ref_rhs_log(params, 0.9, z))
        return calls.count("sin"), calls.count("cos")

    # example1: four sinusoids with one (omega, phase)
    assert count(tuple(ex1_params.coefficients().values())) == (1, 0)
    # a forced-orbits mix: sinusoid, constant, two harmonics, constant
    sine = PeriodicCoefficient.sinusoid(1.0, 0.3, phase=0.5)
    fourier = PeriodicCoefficient.fourier(0.05, [(0.01, -0.02), (0.0, 0.01)])
    const = PeriodicCoefficient.constant(1.0)
    assert count((sine, const, fourier, const)) == (3, 2)
    # two Fourier rates on the same frequencies share their terms
    assert count((fourier, fourier, sine, sine)) == (3, 2)
    # same omega, different phase: one sin each
    assert count((sine, PeriodicCoefficient.sinusoid(1.0, 0.3), const, const)) == (2, 0)


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("value", [709.0, math.nextafter(709.0, math.inf),
                                   math.inf, -math.inf, math.nan])
def test_the_fused_guard_is_the_guard_of_exp_state(ex1_params, component, value):
    """The log-frame fields accept a state whose components are at most
    709 and reject the others, NaN and -inf included, with one message
    that names the state as a tuple of floats."""
    z = [0.5, -0.5]
    z[component] = value
    z = tuple(z)
    fields = (lambda: rhs_log(ex1_params, 0.3, z),
              lambda: jac_log(ex1_params, 0.3, z))
    if value == 709.0:
        assert bits(fields[0]()) == bits(ref_rhs_log(ex1_params, 0.3, z))
        assert bits(fields[1]()) == bits(ref_jac_log(ex1_params, 0.3, z))
        return
    for field in fields:
        with pytest.raises(DomainOverflowError) as raised:
            field()
        assert str(raised.value) == f"log state {z} overflows exp()"


@pytest.mark.parametrize("value", [800.0, math.inf, -math.inf, math.nan])
def test_the_guard_message_prints_plain_floats_for_numpy_input(ex1_params,
                                                              value):
    """A numpy state is rejected with the message a tuple of floats gets,
    never with numpy 2's np.float64(...) reprs; a valid one gives the
    tuple's values."""
    z = (value, -0.5)
    for field in (rhs_log, jac_log):
        with pytest.raises(DomainOverflowError) as expected:
            field(ex1_params, 0.3, z)
        with pytest.raises(DomainOverflowError) as raised:
            field(ex1_params, 0.3, np.array(z))
        assert str(raised.value) == str(expected.value)
        assert "np." not in str(raised.value)
        assert bits(field(ex1_params, 0.3, np.array([0.5, -0.5]))) == bits(
            field(ex1_params, 0.3, (0.5, -0.5)))


# --- code cache -------------------------------------------------------------------

def test_params_of_the_same_kinds_share_one_code_object(ex1_params):
    S = PeriodicCoefficient.sinusoid
    other = ModelParams(r1=S(1.5, 0.25), r2=S(0.7, 0.125), beta1=S(0.05, 0.01),
                        beta2=S(0.002, 0.001), k1=3.0, k2=1.5, w1=0.5,
                        w2=0.25, period=TWO_PI)
    for name in ex1_params._kernels._fields:
        assert (getattr(other._kernels, name).__code__
                is getattr(ex1_params._kernels, name).__code__)
    z, x = (0.3, -0.2), (1.25, 0.5)
    for params in (ex1_params, other):
        assert bits(rhs_log(params, 0.7, z)) == bits(ref_rhs_log(params, 0.7, z))
        assert bits(jac_log(params, 0.7, z)) == bits(ref_jac_log(params, 0.7, z))
        assert bits(rhs_original(params, 0.7, x)) == bits(
            ref_rhs_original(params, 0.7, x))
        assert bits(jac_original(params, 0.7, x)) == bits(
            ref_jac_original(params, 0.7, x))


def test_the_forced_orbits_configs_compile_one_source():
    """The benchmark's 24 forced-orbits configs differ only in values,
    so their fields come from one compiled source."""
    before = _field_code.cache_info()
    for doc in workloads.generate_configs("forced-orbits", 11):
        params = parse_config(doc).model
        assert bits(rhs_log(params, 0.7, (0.3, -0.2))) == bits(
            ref_rhs_log(params, 0.7, (0.3, -0.2)))
    after = _field_code.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == 24
    assert after.misses - before.misses <= 1


# --- cache safety ---------------------------------------------------------------

def test_replace_binds_the_new_constants(ex1_params):
    z = (1.5, -2.0)
    before = rhs_log(ex1_params, 0.3, z)
    other = dataclasses.replace(ex1_params, k1=4.0)
    assert bits(rhs_log(other, 0.3, z)) == bits(ref_rhs_log(other, 0.3, z))
    assert rhs_log(other, 0.3, z)[0] != before[0]
    assert bits(rhs_log(ex1_params, 0.3, z)) == bits(before)


def test_built_kernels_leave_identity_alone(ex1_params):
    fresh = dataclasses.replace(ex1_params)
    snapshot = (repr(fresh), hash(fresh))
    jac_original(fresh, 0.1, (1.0, 1.0))
    assert (repr(fresh), hash(fresh)) == snapshot
    assert fresh == ex1_params == dataclasses.replace(ex1_params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.k1 = 3.0


def test_pickle_and_copy_after_kernels_are_built(ex1_params):
    rhs_log(ex1_params, 0.0, (0.0, 0.0))
    for other in (pickle.loads(pickle.dumps(ex1_params)), copy.copy(ex1_params),
                  copy.deepcopy(ex1_params)):
        assert other == ex1_params
        assert bits(rhs_log(other, 0.4, (0.2, 0.1))) == bits(
            rhs_log(ex1_params, 0.4, (0.2, 0.1)))


def test_condition_checks_build_no_kernels(ex1_params):
    fresh = dataclasses.replace(ex1_params)
    compute_bounds(fresh)
    assert "_kernels" not in vars(fresh)


# --- the stage hand-off -----------------------------------------------------------

def _counting_exp(params):
    """A fresh copy of ``params`` whose kernels count their ``exp`` calls
    in the returned list."""
    params = dataclasses.replace(params)
    namespace = params._kernels.rhs_log.__globals__
    calls, exp = [], namespace["exp"]

    def counted(x):
        calls.append(x)
        return exp(x)
    namespace["exp"] = counted
    return params, calls


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "ndarray"])
def test_a_state_changed_in_place_after_jac_log_is_read_afresh(ex1_params,
                                                               make):
    params, exps = _counting_exp(ex1_params)
    t, z = 0.7, make([0.3, -0.2])
    jac_log(params, t, z)
    z[0] = 0.5
    del exps[:]
    assert bits(rhs_log(params, t, z)) == bits(
        ref_rhs_log(params, 0.7, (0.5, -0.2)))
    assert len(exps) == 2


def test_a_time_changed_in_place_after_jac_log_is_read_afresh(ex1_params):
    """jac_log stores no stage for a t that is not a float, so a 0-d array
    t set to 2.0 between the calls gives the values at t = 2.0, as a
    fresh ``ModelParams`` does, not those stored at 0.3."""
    params = dataclasses.replace(ex1_params)
    t, z = np.array(0.3), (0.3, -0.2)
    jac_log(params, t, z)
    t[()] = 2.0
    fresh = rhs_log(dataclasses.replace(ex1_params), 2.0, z)
    assert bits(rhs_log(params, t, z)) == bits(fresh)
    assert bits(fresh) != bits(rhs_log(params, 0.3, z))


def test_an_equal_but_new_time_is_not_matched(ex1_params):
    params, exps = _counting_exp(ex1_params)
    t, z = 0.7, (0.3, -0.2)
    fresh = float("0.7")
    assert fresh == t and fresh is not t
    jac_log(params, t, z)
    del exps[:]
    assert bits(rhs_log(params, fresh, z)) == bits(ref_rhs_log(params, t, z))
    assert len(exps) == 2
    # the same object with an equal state, in a list of its own, is matched
    assert bits(rhs_log(params, t, [0.3, -0.2])) == bits(
        ref_rhs_log(params, t, z))
    assert len(exps) == 2


def test_interleaved_params_each_read_their_own_stage(ex1_params):
    (a, a_exps), (b, b_exps) = (_counting_exp(ex1_params), _counting_exp(
        dataclasses.replace(ex1_params, k1=4.0, w2=0.5,
                            r1=PeriodicCoefficient.sinusoid(0.2, 0.1))))
    t, z = 0.7, (0.3, -0.2)
    jac_log(a, t, z)
    jac_log(b, t, z)
    assert bits(rhs_log(a, t, z)) == bits(ref_rhs_log(a, t, z))
    assert bits(rhs_log(b, t, z)) == bits(ref_rhs_log(b, t, z))
    assert bits(rhs_log(a, t, z)) != bits(rhs_log(b, t, z))
    assert len(a_exps) == len(b_exps) == 2     # both rhs_log calls matched


def test_threads_sharing_one_params_reproduce_the_single_thread_bits(
        ex1_params):
    """Four threads in lockstep: each round, all four call jac_log, then
    all four call rhs_log at their own stage.  Only the thread whose
    stage was stored last is handed its values; the other three read
    afresh, and every result has the single-thread bits."""
    params, exps = _counting_exp(ex1_params)
    rounds = 300
    stages = [[(0.01 * (i + 97 * k), (0.002 * i - 0.5, 0.3 - 0.001 * k))
               for i in range(rounds)] for k in range(4)]
    expected = [[bits((ref_jac_log(params, t, z), ref_rhs_log(params, t, z)))
                 for t, z in run] for run in stages]
    got = [[] for _ in range(4)]
    step = threading.Barrier(4)

    def work(k):
        for t, z in stages[k]:
            jac = jac_log(params, t, z)
            step.wait()
            got[k].append(bits((jac, rhs_log(params, t, z))))
            step.wait()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == expected
    assert len(exps) == rounds * (4 * 2 + 3 * 2)


def test_a_failed_jac_log_stores_no_stage(ex1_params):
    params = dataclasses.replace(ex1_params)
    namespace = params._kernels.jac_log.__globals__
    t = 0.3
    jac_log(params, t, (0.2, 0.1))
    stored = namespace["stage"]
    for bad in ((800.0, 0.1), (0.2, math.nan)):
        with pytest.raises(DomainOverflowError):
            jac_log(params, t, bad)
        assert namespace["stage"] is stored
        with pytest.raises(DomainOverflowError):
            rhs_log(params, t, bad)


def test_a_monodromy_run_evaluates_each_stage_once(forced_params, monkeypatch):
    """jac_log hands its rates and densities to the rhs_log call of the
    same stage: two exp calls per stage, where two full evaluations
    would make four."""
    params, exps = _counting_exp(forced_params)
    counts, _ = count_public_calls(monkeypatch, ["rhs_log", "jac_log"])
    flow_and_monodromy(params, (0.5, -0.2), IntegratorConfig())
    assert counts["rhs_log"] == counts["jac_log"] > 100
    assert len(exps) == 2 * counts["jac_log"]


def test_a_run_from_numpy_times_shares_its_stages(forced_params):
    """``integrate`` takes numpy-scalar t0 and t1 as floats, so the
    variational run from them shares every stage, two exp calls per
    stage, and is bit for bit the run from float times."""
    params, exps = _counting_exp(forced_params)
    field = MethodType(rhs_log, params)
    runs = []
    for t0, t1 in ((0.0, params.period),
                   (np.float64(0.0), np.float64(params.period))):
        stages = []

        def jac(t, z):
            stages.append(t)
            return jac_log(params, t, z)
        del exps[:]
        z, m = variational_flow(field, jac, t0, (0.5, -0.2), t1,
                                IntegratorConfig())
        assert len(stages) > 100
        assert len(exps) == 2 * len(stages)
        runs.append((bits([*z, *m.ravel()]), len(stages)))
    assert runs[0] == runs[1]
