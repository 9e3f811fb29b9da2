"""Averaged algebraic system: equilibria from the cubic, and oracles
that share no code with the cubic."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import grid_scan, newton_equilibrium, run_python
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from phytoperiod import (DegenerateAveragedSystemError, ModelParams,
                         PeriodicCoefficient, averaged_equilibria,
                         averaged_rates)
from phytoperiod.cli import cmd_check, parse_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

TWO_PI = 2.0 * math.pi
C = PeriodicCoefficient.constant
EPS = np.finfo(float).eps
PINNED = json.loads((Path(__file__).parent / "averaged_roots.json").read_text())


def residual_within_tolerance(p, x) -> bool:
    """The benchmark's tolerance: max-norm of (g1, g2) below
    1e-13 + 16 eps (largest term)."""
    r1b, r2b, b1b, b2b = p.means()
    u, v = x
    scale = max(abs(t) for t in (r1b, r1b * u / p.k1, b1b * v, r2b * v / p.k2,
                                 b2b * u, p.w2 * u * v, r2b / (1.0 + p.w1 * u)))
    return max(map(abs, averaged_rates(p, u, v))) < 1e-13 + 16 * EPS * scale


# --- averaged_equilibria ---------------------------------------------------

def test_decoupled_case_closed_form():
    """beta2 = w1 = w2 = 0 decouples the system:
    e^{z2} = k2 and e^{z1} = k1 (1 - beta1_bar k2 / r1_bar)."""
    p = ModelParams(r1=C(0.5), r2=C(0.7), beta1=C(0.1), beta2=C(0.0),
                    k1=4.0, k2=3.0, w1=0.0, w2=0.0, period=1.0)
    (root,) = averaged_equilibria(p)
    assert root.x[1] == pytest.approx(3.0, abs=1e-11)
    assert root.x[0] == pytest.approx(4.0 * (1.0 - 0.1 * 3.0 / 0.5), abs=1e-11)
    assert root.z == (math.log(root.x[0]), math.log(root.x[1]))


def test_root_has_tiny_residual(coexist_params):
    (root,) = averaged_equilibria(coexist_params)
    assert max(map(abs, averaged_rates(coexist_params, *root.x))) < 1e-12


def test_root_matches_grid_scan_bracket(coexist_params):
    """Independent brute-force bracket: the minimal-residual cell of a
    200 x 200 grid lies within one cell of the root."""
    (root,) = averaged_equilibria(coexist_params)
    z_grid, res_grid, cell = grid_scan(coexist_params)
    print(f"\n  root {root.z}, grid cell {z_grid}, spacing {cell:.4f}")
    assert np.max(np.abs(np.array(root.z) - z_grid)) <= cell


def test_mean_field_root_is_autonomous_equilibrium(coexist_params):
    """Constant coefficients: the averaged root equals the interior
    equilibrium of the autonomous system (independent Newton oracle in
    the original frame with finite-difference Jacobian), and it is
    stable."""
    (root,) = averaged_equilibria(coexist_params)
    xeq = newton_equilibrium(coexist_params, np.array([1.9, 0.8]))
    assert np.max(np.abs(np.array(root.x) - xeq)) < 1e-9
    assert root.kind == "stable" and root.det > 0 and root.trace < 0


def test_negative_r2_mean_still_has_a_root():
    """r2_bar < 0 makes -r2_bar v / k2 a positive term of g2: with
    w1 = w2 = 0 the system is linear in (u, v) and its root is
    u = 0.95 / 1.005, v = (1 + 0.1 u) / 10."""
    p = ModelParams(r1=C(1.0), r2=C(-1.0), beta1=C(0.5), beta2=C(0.1),
                    k1=1.0, k2=0.1, w1=0.0, w2=0.0, period=1.0)
    (root,) = averaged_equilibria(p)
    u = 0.95 / 1.005
    assert root.x == pytest.approx((u, (1.0 + 0.1 * u) / 10.0), rel=1e-12)
    assert max(map(abs, averaged_rates(p, *root.x))) < 1e-13


def test_zero_r2_mean_has_no_root():
    """r2_bar = 0 leaves only the negative terms -beta2_bar u - w2 u v."""
    p = ModelParams(r1=C(1.0), r2=C(0.0), beta1=C(0.5), beta2=C(0.1),
                    k1=1.0, k2=0.1, w1=0.3, w2=0.2, period=1.0)
    assert averaged_equilibria(p) == []


def test_zero_r1_mean_has_no_interior_root():
    """r1_bar = 0 turns g1 = 0 into v = 0, the boundary."""
    p = ModelParams(r1=PeriodicCoefficient.sinusoid(0.0, 0.5), r2=C(1.0),
                    beta1=C(0.5), beta2=C(0.1), k1=1.0, k2=2.0, w1=0.3,
                    w2=0.2, period=TWO_PI)
    assert averaged_equilibria(p) == []


def test_zero_beta1_mean_fixes_u_at_k1():
    """beta1_bar = 0: g1 = r1_bar (1 - u / k1) gives u = k1 exactly, and
    g2(k1, v) is linear in v."""
    p = ModelParams(r1=C(1.0), r2=C(1.5), beta1=PeriodicCoefficient.sinusoid(0.0, 0.2),
                    beta2=C(0.1), k1=2.0, k2=3.0, w1=0.25, w2=0.1,
                    period=TWO_PI)
    (root,) = averaged_equilibria(p)
    assert root.x[0] == 2.0
    v = (1.5 / 1.5 - 0.1 * 2.0) / (1.5 / 3.0 + 0.1 * 2.0)
    assert root.x[1] == pytest.approx(v, rel=1e-14)


@pytest.mark.parametrize("b2", [0.0, 0.1])
def test_zero_beta1_r2_and_toxin_leave_g2_without_a_slope(b2):
    """beta1_bar = r2_bar = w2 = 0: on the line u = k1, g2 = -beta2_bar k1
    is constant in v.  It vanishes on the whole line when beta2_bar = 0,
    which is reported, and has no root otherwise."""
    p = ModelParams(r1=C(1.0), r2=C(0.0), beta1=PeriodicCoefficient.sinusoid(0.0, 0.2),
                    beta2=C(b2), k1=2.0, k2=3.0, w1=0.25, w2=0.0,
                    period=TWO_PI)
    for v in (0.5, 4.0):
        assert averaged_rates(p, 2.0, v) == (0.0, -b2 * 2.0)
    if b2:
        assert averaged_equilibria(p) == []
    else:
        with pytest.raises(DegenerateAveragedSystemError,
                           match="^degenerate averaged system: g2 vanishes on "
                                 "the whole line u = k1$"):
            averaged_equilibria(p)


def test_a_linear_g2_that_vanishes_on_the_line_is_degenerate():
    """w1 = w2 = 0 makes g2 linear along g1 = 0, here v = 2 (1 - u / 4);
    with r1_bar / beta1_bar = k2 and beta2_bar = r2_bar / k1 it vanishes
    there identically, so the equilibria fill a segment, which is
    reported, not solved."""
    p = ModelParams(r1=C(1.0), r2=C(1.0), beta1=C(0.5), beta2=C(0.25),
                    k1=4.0, k2=2.0, w1=0.0, w2=0.0, period=1.0)
    for u in (1.0, 3.0):
        assert averaged_rates(p, u, 2.0 * (1.0 - u / 4.0)) == (0.0, 0.0)
    with pytest.raises(DegenerateAveragedSystemError,
                       match="^degenerate averaged system: g2 vanishes on "
                             "the whole line g1 = 0$"):
        averaged_equilibria(p)


def test_zero_r1_and_beta1_means_are_degenerate():
    """r1_bar = beta1_bar = 0 makes g1 vanish identically: the equilibria
    fill a curve, which is reported, not solved."""
    p = ModelParams(r1=PeriodicCoefficient.sinusoid(0.0, 0.5), r2=C(1.0),
                    beta1=PeriodicCoefficient.sinusoid(0.0, 0.1), beta2=C(0.1),
                    k1=1.0, k2=1.0, w1=0.0, w2=0.0, period=TWO_PI)
    with pytest.raises(DegenerateAveragedSystemError, match="g1 vanishes"):
        averaged_equilibria(p)


def test_degenerate_system_is_reported_by_check(tmp_path):
    doc = {"model": {"r1": {"kind": "sinusoid", "mean": 0.0, "amplitude": 0.5,
                            "omega": 1.0, "phase": 0.0},
                     "r2": {"kind": "constant", "value": 1.0},
                     "beta1": {"kind": "sinusoid", "mean": 0.0, "amplitude": 0.1,
                               "omega": 1.0, "phase": 0.0},
                     "beta2": {"kind": "constant", "value": 0.1},
                     "k1": 1.0, "k2": 1.0, "w1": 0.0, "w2": 0.0, "period": TWO_PI},
           "initial_state": [1.0, 1.0], "horizon": 4.0 * TWO_PI}
    cmd_check(parse_config(doc), tmp_path)
    report = json.loads((tmp_path / "check_report.json").read_text())
    averaged = report["averaged_system"]
    assert averaged["roots"] is None
    assert averaged["newton"] == {
        "converged": False,
        "reason": "degenerate averaged system: r1 and beta1 both average to 0, "
                  "so g1 vanishes identically"}


def test_a_root_polished_out_of_the_quadrant_is_reported_by_check(tmp_path):
    """A Newton polishing step that takes a cubic root to u <= 0 or
    v <= 0 is a typed ArithmeticError naming the root; check records it
    as it records a degenerate system, writes its report and exits on
    (A1)-(A3) alone."""
    model = {"r1": 70.67092675669025, "r2": -6.341533288285136e-05,
             "beta1": 2.556619705352028e-08, "beta2": 0.0001578577046116636}
    doc = {"model": {**{name: {"kind": "constant", "value": value}
                        for name, value in model.items()},
                     "k1": 666.9889727099905, "k2": 0.03295794793057333,
                     "w1": 0.0, "w2": 9517.314711515983, "period": TWO_PI},
           "initial_state": [1.0, 1.0], "horizon": 4.0 * TWO_PI}
    cfg = parse_config(doc)
    with pytest.raises(ArithmeticError, match=r"x = \(666\.98.* leaves u > 0"):
        averaged_equilibria(cfg.model)
    status = cmd_check(cfg, tmp_path)
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert status == (0 if report["all_conditions_hold"] else 1)
    averaged = report["averaged_system"]
    assert averaged["roots"] is None
    assert averaged["newton"]["converged"] is False
    assert averaged["newton"]["reason"].startswith(
        "averaged root x = (666.98")
    assert "leaves u > 0, v > 0" in averaged["newton"]["reason"]


def test_check_reports_a_root_near_the_largest_float(tmp_path):
    """The sign change of g2 on the line g1 = 0 lies at u = 9/7 1e308,
    above 2^1023, so the bracket that doubles toward it stops at the
    largest float instead of overflowing to inf, and the root, whose
    ln u is above the exp guard's 709, is polished and classified at its
    densities.  beta1 = 0.5 keeps g0 = k1 (1 + beta1) = 1.5e308 finite,
    so the bounds are defined.  Run in a subprocess: an endless bracket
    fails the test instead of hanging the suite."""
    rates = {"r1": -1.0, "r2": 1.0, "beta1": 0.5,
             "beta2": 3.3333333333333e-309}
    doc = {"model": {**{name: {"kind": "constant", "value": value}
                        for name, value in rates.items()},
                     "k1": 1e308, "k2": 1.0, "w1": 0.0, "w2": 0.0,
                     "period": TWO_PI},
           "initial_state": [1.0, 1.0], "horizon": 4.0 * TWO_PI}
    config = tmp_path / "huge_root.json"
    config.write_text(json.dumps(doc))
    proc = run_python("-m", "phytoperiod.cli", "check", "--config",
                      str(config), "--out", str(tmp_path), timeout=30)
    assert proc.returncode == 1, proc.stderr
    report = json.loads((tmp_path / "check_report.json").read_text())
    (root,) = report["averaged_system"]["roots"]
    assert root["kind"] == "saddle"
    assert root["x"][0] == pytest.approx(9.0 / 7.0 * 1e308, rel=1e-12)
    assert root["x"][1] == pytest.approx(4.0 / 7.0, rel=1e-12)
    assert root["z"][0] > 709.0


@pytest.mark.parametrize("w1, w2", [(0.0, 0.3), (0.0, 0.0)])
def test_zero_fear_or_toxin_lowers_the_degree(w1, w2):
    """w1 = 0 leaves a quadratic and w1 = w2 = 0 a linear equation; the
    roots come from brentq on the factored g2 along g1 = 0, and with
    w1 = w2 = 0 also from the 2 x 2 linear solve."""
    p = ModelParams(r1=C(1.0), r2=C(0.8), beta1=C(0.3), beta2=C(0.05),
                    k1=3.0, k2=2.0, w1=w1, w2=w2, period=1.0)
    roots = averaged_equilibria(p)
    expected = segment_roots(p)
    assert len(roots) == len(expected) == 1
    assert roots[0].x[0] == pytest.approx(expected[0], rel=1e-12)
    if w2 == 0.0:
        A = np.array([[1.0 / 3.0, 0.3], [0.05, 0.8 / 2.0]])
        np.testing.assert_allclose(roots[0].x, np.linalg.solve(A, [1.0, 0.8]),
                                   rtol=1e-13)


def test_demo_means_have_no_positive_root(ex1_params):
    """With the demo period averages (r2_bar = 1e-4 vs beta2_bar = 6e-3,
    w2 = 2) the full averaged system is infeasible: on the line of the
    first equation the second stays strictly negative."""
    assert averaged_equilibria(ex1_params) == []
    assert segment_roots(ex1_params) == []


def test_demo_grid_scan_confirms_infeasibility(ex1_params):
    _, res_best, _ = grid_scan(ex1_params)
    print(f"\n  demo grid minimum residual: {res_best:.4e}")
    assert res_best > 1e-2


# --- the sign-change oracle over random draws --------------------------------

SEGMENT_SAMPLES = 20_001


def segment_values(p, u):
    """(1 + w1 u) g2 along the g1 = 0 segment v = a (1 - u / k1), through
    averaged_rates at each sample."""
    r1b, _, b1b, _ = p.means()
    v = r1b / b1b * (1.0 - u / p.k1)
    return (1.0 + p.w1 * u) * averaged_rates(p, u, v)[1]


def segment_roots(p, lo=0.0, hi=None) -> list:
    """u of each sign change of the sampled segment, refined by brentq;
    by default the segment's part in x2 > 0 for a positive beta1 mean."""
    u = np.linspace(lo, p.k1 if hi is None else hi, SEGMENT_SAMPLES)
    h = segment_values(p, u)
    cells = np.flatnonzero(np.sign(h[1:]) * np.sign(h[:-1]) < 0)
    return [brentq(lambda x: float(segment_values(p, x)), u[i], u[i + 1],
                   xtol=1e-15, rtol=4 * EPS) for i in cells]


@pytest.mark.parametrize("w1, w2", [(0.0, 0.0), (0.2, 0.01), (0.0, 0.05), (1.0, 0.0)])
def test_negative_beta1_mean_puts_the_roots_beyond_k1(w1, w2):
    """beta1_bar < 0 turns the g1 = 0 line around: x2 > 0 for u > k1, an
    unbounded stretch.  With w1 = w2 = 0 the root is u + v = 10,
    v = 2 (u - 1), so (4, 6)."""
    p = ModelParams(r1=C(1.0), r2=C(1.0), beta1=C(-0.5), beta2=C(0.1),
                    k1=1.0, k2=10.0, w1=w1, w2=w2, period=1.0)
    roots = averaged_equilibria(p)
    expected = segment_roots(p, p.k1, 100.0)
    assert [root.x[0] for root in roots] == pytest.approx(expected, rel=1e-9)
    assert all(residual_within_tolerance(p, root.x) for root in roots)
    if w1 == w2 == 0.0:
        assert roots[0].x == pytest.approx((4.0, 6.0), rel=1e-15)


def _sinusoid(mean, relative):
    return PeriodicCoefficient.sinusoid(mean, relative * mean)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(r1=st.floats(0.2, 2.0), r2=st.floats(0.2, 2.0),
       beta1=st.floats(0.01, 0.6), beta2=st.floats(0.001, 0.3),
       relative=st.floats(0.0, 0.9), k1=st.floats(0.5, 4.0),
       k2=st.floats(0.5, 4.0), w1=st.floats(0.0, 2.0), w2=st.floats(0.0, 0.5))
def test_roots_are_the_sign_changes_along_the_first_equation(
        r1, r2, beta1, beta2, relative, k1, k2, w1, w2):
    """On the ROADMAP's random draws the roots are exactly the sign
    changes of (1 + w1 u) g2 along g1 = 0, each passes the benchmark's
    residual tolerance, and of two roots exactly one is a saddle."""
    p = ModelParams(r1=_sinusoid(r1, relative), r2=_sinusoid(r2, relative),
                    beta1=_sinusoid(beta1, relative),
                    beta2=_sinusoid(beta2, relative),
                    k1=k1, k2=k2, w1=w1, w2=w2, period=TWO_PI)
    roots = averaged_equilibria(p)
    expected = segment_roots(p)
    assert len(roots) == len(expected)
    for root, u in zip(roots, expected):
        assert root.x[0] == pytest.approx(u, rel=1e-9)
        assert residual_within_tolerance(p, root.x)
    if len(roots) == 2:
        assert sum(r.kind == "saddle" for r in roots) == 1


# --- missed-root regressions as data -------------------------------------

@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"seed{c['seed']}-cfg{c['cfg']}")
def test_pinned_roots_are_found(case):
    """check-sweep configs: every root the old grid-scan-and-Newton path
    found on seeds 1-3; the roots it missed on seed 3 cfg 13, seed 11
    cfg 39, seed 16 cfg 1 and the two-root draws; and seed 10 cfg 10 and
    seed 16 cfg 1, whose roots fail the residual check when located on
    the expanded cubic alone."""
    roots = averaged_equilibria(parse_config(case["config"]).model)
    for pinned in case["roots"]:
        assert any(root.x == pytest.approx(pinned, rel=1e-9) for root in roots), \
            f"{pinned} not in {[root.x for root in roots]}"
    if len(roots) == 2:
        assert sum(root.kind == "saddle" for root in roots) == 1


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"seed{c['seed']}-cfg{c['cfg']}")
def test_check_output_passes_the_benchmark_oracle(case, tmp_path):
    status = cmd_check(parse_config(case["config"]), tmp_path)
    assert workloads.check_output("check-sweep", case["config"], tmp_path,
                                  status) is None
    report = json.loads((tmp_path / "check_report.json").read_text())
    averaged = report["averaged_system"]
    assert averaged["newton"] == {"converged": True, "z": averaged["roots"][0]["z"],
                                  "x": averaged["roots"][0]["x"]}
