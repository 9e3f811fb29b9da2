"""Tests of the benchmark's own logic.

    python -m pytest -q bench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, Span  # noqa: E402


# --- seeded inputs ------------------------------------------------------------

@pytest.mark.parametrize("workload", ["forced-orbits", "check-sweep"])
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    a = workloads.write_configs(workloads.generate_configs(workload, 7), tmp_path / "a")
    b = workloads.write_configs(workloads.generate_configs(workload, 7), tmp_path / "b")
    assert len(a) == len(b) > 0
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


@pytest.mark.parametrize("workload", ["forced-orbits", "check-sweep"])
def test_different_seed_gives_different_configs(workload):
    a = [workloads.config_bytes(d) for d in workloads.generate_configs(workload, 7)]
    b = [workloads.config_bytes(d) for d in workloads.generate_configs(workload, 8)]
    assert len(a) == len(b)
    assert all(x != y for x, y in zip(a, b))


def test_bundled_workloads_generate_no_configs():
    assert workloads.generate_configs("example1", 1) == []
    assert workloads.generate_configs("remark-constant", 2) == []


def test_generated_configs_parse(tmp_path):
    from phytoperiod.cli import load_config
    for workload in ("forced-orbits", "check-sweep"):
        docs = workloads.generate_configs(workload, 3)
        for path in workloads.write_configs(docs, tmp_path / workload):
            load_config(path)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_sweep_median_falls_inside_a_cost_class(seed):
    # cost grows with the number of Fourier coefficients; the two-Fourier
    # class must hold the median, away from the edges of its neighbours
    counts = {}
    for doc in workloads.generate_configs("check-sweep", seed):
        k = sum(c["kind"] == "fourier" for c in doc["model"].values() if isinstance(c, dict))
        counts[k] = counts.get(k, 0) + 1
    assert counts == {0: 16, 2: 24, 4: 8}


def test_stratified_draws_cover_every_stratum():
    rng = random.Random(0)
    draws = workloads._stratified(rng, 10, 0.0, 1.0)
    assert sorted(int(x * 10) for x in draws) == list(range(10))


# --- latency_tail_s -----------------------------------------------------------

@pytest.mark.parametrize("n, percentile", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    p, value = stats.tail_latency(samples)
    assert p == percentile
    # nearest rank: value is the rank-th smallest, with >= 10 samples after it
    assert n - value >= stats.TAIL_MIN_BEYOND
    assert value == -(-int(percentile * 10) * n // 1000)


@pytest.mark.parametrize("workload, most", [
    ("example1", 22), ("remark-constant", 74), ("forced-orbits", 168), ("check-sweep", 3744),
])
def test_minimum_run_fixes_the_tail_percentile(workload, most):
    # `most`: the largest count seen in 20-second runs on a fast host
    least = workloads.MIN_TIMED_OPS[workload]
    assert stats.tail_latency(range(least))[0] == stats.tail_latency(range(most))[0]


def test_tail_needs_twenty_samples():
    assert stats.tail_latency(list(range(19))) is None


# --- host-speed calibration ------------------------------------------------

def test_scale_maps_kernel_time_to_reference_seconds():
    assert calibrate.scale(calibrate.REF_S, calibrate.REF_S) == pytest.approx(1.0)
    # a host twice as slow halves every wall time it reports
    assert calibrate.scale(calibrate.REF_S, 3 * calibrate.REF_S) == pytest.approx(0.5)


def test_end_to_end_times_come_from_reference_seconds():
    ops = [{"phase": "warmup", "latency_s": 9.0, "cpu_s": 9.0, "latency_ref_s": 9.0,
            "error": None}]
    ops += [{"phase": "timed", "latency_s": 2.0 * (i + 1), "cpu_s": 1.5 * (i + 1),
             "latency_ref_s": i + 1.0, "error": None} for i in range(21)]
    raw = {"ops": ops, "peak_rss_mb": 40.0}
    metrics, notes = run._end_to_end(raw, [0.1, 0.3, 0.2], [0.2, 0.6, 0.4])
    assert metrics["latency_p50_s"] == 11.0
    assert metrics["ops_per_s"] == pytest.approx(21 / 231)
    assert metrics["latency_tail_s"] == 11.0       # 21 samples: p50, ten beyond
    assert metrics["setup_s"] == 0.2
    assert notes["wall_latency_p50_s"] == 22.0
    assert notes["wall_setup_s"] == 0.4
    assert notes["host_speed"] == 2.0
    assert notes["on_cpu_share"] == 0.75


def test_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert stats.verdict(steady, [v * 1.02 for v in steady], 0.1) == "agree"
    assert stats.verdict(steady, [v * 1.5 for v in steady], 0.1) == "disagree"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 0.8, 1.1]
    assert stats.verdict(steady, noisy, 0.1) == "unresolved"
    assert stats.verdict(steady, noisy, 0.1, judge_spread=False) == "agree"


# --- spans and self time ------------------------------------------------------

def _span(name, start, end, parent, leaf=0.0):
    s = Span(name, start, parent, op=0, end=end)
    if leaf:
        s.leaf_total["model.rhs_log"] = leaf
    return s


def test_self_time_on_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1, leaf=0.5),
        _span("orbit.a", 1.0, 4.0, 0),
        _span("orbit.b", 3.0, 6.0, 0),        # overlaps a: union covers [1, 6]
        _span("integrator.c", 2.0, 3.0, 1, leaf=0.25),
        _span("integrator.d", 9.0, 12.0, 0),  # sticks out: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 6 - 0.5, 3 - 1, 3, 1 - 0.25, 3])


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_recorder_aggregates_leaves_on_enclosing_span():
    rec = Recorder(clock=_Clock())
    coeff = rec.leaf("coefficients.evals", lambda t: t)
    rhs = rec.leaf("model.rhs_log", lambda t: coeff(t) + coeff(t))
    inner = rec.span("integrator.integrate", lambda: [rhs(0.0) for _ in range(3)])
    outer = rec.span("orbit.seed_by_transient", lambda: (inner(), coeff(1.0)))
    outer()
    assert [s.name for s in rec.spans] == ["orbit.seed_by_transient", "integrator.integrate"]
    top, integ = rec.spans
    assert integ.parent == 0 and top.parent == -1
    assert integ.counts == {"model.rhs_log": 3, "coefficients.evals": 6}
    assert top.counts == {"coefficients.evals": 1}
    # the fake clock ticks once per reading: each coefficient call lasts 1,
    # each rhs call 5, of which 2 inside its two coefficient calls
    assert integ.leaf_total == {"model.rhs_log": 15.0}
    assert integ.leaf_self == {"model.rhs_log": 9.0, "coefficients.evals": 6.0}
    assert top.leaf_total == {"coefficients.evals": 1.0}
    self_top, self_integ = tracing.self_times(rec.spans)
    assert self_integ == (integ.end - integ.start) - 15.0
    assert self_top == (top.end - top.start) - (integ.end - integ.start) - 1.0


def test_install_wraps_callers_bindings_and_restores():
    from phytoperiod import cli, coefficients, integrator, orbit
    modules = {layer: sys.modules[f"phytoperiod.{layer}"] for layer in tracing.LAYERS}
    original = (orbit.flow_and_monodromy, integrator.integrate, cli.integrate,
                coefficients.PeriodicCoefficient.__call__)
    restore = tracing.install(Recorder(), modules)
    try:
        assert orbit.flow_and_monodromy is not original[0]
        assert integrator.integrate is not original[1]
        assert cli.integrate is integrator.integrate
    finally:
        restore()
    assert (orbit.flow_and_monodromy, integrator.integrate, cli.integrate,
            coefficients.PeriodicCoefficient.__call__) == original


def test_layer_metrics_on_synthetic_spans():
    def integ(start, parent, evals, periods, sampled):
        s = _span("integrator.integrate", start, start + 1.0, parent)
        s.counts["model.rhs_log"] = evals
        s.info.update(periods=periods, sampled=sampled)
        return s
    newton = _span("orbit.find_periodic_orbit", 0.0, 20.0, -1)
    newton.info["newton_iterations"] = 2
    spans = [newton,
             _span("integrator.flow_map", 1.0, 2.0, 0),
             _span("integrator.flow_map", 2.0, 3.0, 0),
             _span("integrator.flow_map", 3.0, 4.0, 0),
             _span("integrator.flow_map", 4.0, 5.0, 0),
             _span("orbit.diagnose_extinction", 5.0, 9.0, 0),
             integ(5.0, 5, 300, 1, False), integ(6.0, 5, 400, 1, False),
             integ(10.0, 0, 1800, 1, True)]
    m = tracing.layer_metrics(spans, n_ops=2)
    assert m["orbit.newton_iterations"] == 1.0
    assert m["orbit.line_search_probes"] == 2.0
    assert m["orbit.newton_useful_ratio"] == 0.5
    assert m["orbit.extinction_periods"] == 1.0
    assert m["integrator.evals_per_period.plain"] == 350.0
    assert m["integrator.evals_per_period.sampled"] == 1800.0
    assert m["model.rhs_log.calls"] == 1250.0
    assert m["averaged.solve_averaged.converged_ratio"] == 0.0
    assert set(m) | {"cli.bytes_written", "trace.overhead_ratio"} == set(tracing.PER_LAYER)


# --- counter guard ------------------------------------------------------------

def test_guard_reports_blind_counters_as_not_observed():
    metrics = {name: 1.0 for name in tracing.PER_LAYER}
    metrics["model.rhs_log.calls"] = 0.0
    metrics["integrator.evals_per_period.sampled"] = 0.0
    metrics["model.jac_original.calls"] = 0.0
    entries = tracing.guard(metrics, workloads.MUST_OBSERVE["example1"])
    assert entries["model.rhs_log.calls"] == {"value": None, "unit": "count",
                                              "observed": False}
    assert entries["integrator.evals_per_period.sampled"]["observed"] is False
    # example1 never calls jac_original: a genuine zero stays a zero
    assert entries["model.jac_original.calls"] == {"value": 0.0, "unit": "count"}
    assert entries["model.jac_log.calls"] == {"value": 1.0, "unit": "count"}


def test_guard_leaves_non_integrating_workload_alone():
    metrics = {name: 0.0 for name in tracing.PER_LAYER}
    entries = tracing.guard(metrics, workloads.MUST_OBSERVE["check-sweep"])
    assert all(e["value"] == 0.0 for e in entries.values())


# --- output checks --------------------------------------------------------------

def test_oracle_decides_clear_cases_and_skips_marginal_ones():
    doc = workloads.generate_configs("check-sweep", 1)[0]
    doc = json.loads(json.dumps(doc))
    model = doc["model"]
    for name, value in (("r1", 1.0), ("r2", 0.5), ("beta1", 0.01), ("beta2", 0.01)):
        model[name] = {"kind": "constant", "value": value}
    model.update(k1=2.0, k2=1.0, w1=0.1, w2=0.0)
    assert workloads.oracle_verdicts(doc) == {"A1": True, "A2": True, "A3": True}
    model["r2"] = {"kind": "sinusoid", "mean": 0.5, "amplitude": 0.7, "omega": 1.0,
                   "phase": 0.0}
    model["k2"] = 1.2 / 1.2    # A1 margin: 1.2 - 1.0 * 1.2 = 0, within sampling error
    assert workloads.oracle_verdicts(doc)["A1"] is None


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
