"""Time integration: adaptive embedded Runge-Kutta pairs.

Embedded explicit Runge-Kutta pairs with per-step error control suit the
smooth, mildly nonlinear planar model and need no dependency.  Plain runs
and the period-T flow map step by Dormand-Prince 5(4); their sampled
output comes from its continuous extension, so sampling never changes the
steps.  The variational (monodromy) equations step by Hairer's DOP853,
which takes about half the field evaluations per period at the same
tolerances and is never sampled.  The two methods are kept apart because
their runs need different things: a plain run is often capped by
``max_step``, where a step of 12 evaluations costs twice one of 6, and
sampled runs need DP5's continuous extension.  The whole adaptive loop
(stages, error norm, controller, failure checks, rows and samples) is one
generated straight-line function per method, compiled on first use per
state dimension; the variational one calls ``jac`` before ``field`` and
writes the J Y products inline.  ``integrate`` checks its arguments, runs
it once and wraps its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MethodType
from typing import NamedTuple

import numpy as np

from .model import DomainOverflowError, ModelParams, jac_log, rhs_log

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "StepUnderflowError",
    "NonFiniteStateError",
    "integrate",
    "flow_map",
    "flow_and_monodromy",
    "variational_flow",
    "write_trajectory_csv",
]

# The constants of both tableaux, by the names that _DP5 and _DOP853 read;
# it is the namespace the compiled marches see them in.
#
# Dormand-Prince 5(4).  The 5th-order weights B equal the last row of A,
# so the 7th stage is evaluated at the new solution and doubles as the
# next step's 1st stage (FSAL, "first same as last").
_TABLEAU = {
    "C2": 1 / 5, "C3": 3 / 10, "C4": 4 / 5, "C5": 8 / 9,
    "A21": 1 / 5,
    "A31": 3 / 40, "A32": 9 / 40,
    "A41": 44 / 45, "A42": -56 / 15, "A43": 32 / 9,
    "A51": 19372 / 6561, "A52": -25360 / 2187, "A53": 64448 / 6561,
    "A54": -212 / 729,
    "A61": 9017 / 3168, "A62": -355 / 33, "A63": 46732 / 5247,
    "A64": 49 / 176, "A65": -5103 / 18656,
    "B1": 35 / 384, "B3": 500 / 1113, "B4": 125 / 192, "B5": -2187 / 6784,
    "B6": 11 / 84,
}
# error weights E: 5th- minus 4th-order weights of the embedded pair
# (B2 = B7 = 0)
_TABLEAU |= {f"E{i}": _TABLEAU.get(f"B{i}", 0.0) - b
             for i, b in ((1, 5179 / 57600), (3, 7571 / 16695),
                          (4, 393 / 640), (5, -92097 / 339200),
                          (6, 187 / 2100), (7, 1 / 40))}

# Order-4 continuous extension (Shampine 1986; the coefficients of
# Hairer's dopri5): over a step of size h from y with stages k1..k7,
#   y(t + theta h) = y + h (k1 theta + X2 theta^2 + X3 theta^3 + X4 theta^4),
# where Xj = Xj1 k1 + Xj3 k3 + Xj4 k4 + Xj5 k5 + Xj6 k6 + Xj7 k7 (k2 has
# weight 0).  At theta = 1 the weights sum to the 5th-order solution.
_TABLEAU |= zip((f"X{j}{i}" for j in (2, 3, 4) for i in (1, 3, 4, 5, 6, 7)), (
    -8048581381 / 2820520608, 131558114200 / 32700410799,
    -1754552775 / 470086768, 127303824393 / 49829197408,
    -282668133 / 205662961, 40617522 / 29380423,
    8663915743 / 2820520608, -68118460800 / 10900136933,
    14199869525 / 1410260304, -318862633887 / 49829197408,
    2019193451 / 616988883, -110615467 / 29380423,
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423))

# Hairer's DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary Differential
# Equations I*, 2nd ed., 1993, sec. II.10; the digits of his dop853.f):
# 12 evaluations per step.  Stage k_j (j = 2..13) is evaluated at node
# D_Cj from the weights D_Aj_i of k_i; an absent weight is 0, and k12 and
# k13 sit at node 1.  Row 13 holds the 8th-order weights, so k13 is
# evaluated at the new solution and is the next step's k1 (FSAL).
_TABLEAU |= {f"D_C{j}": c for j, c in enumerate((
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142), start=2)}
_TABLEAU |= {f"D_A{j}_{i}": a for j, row in enumerate((
    {1: 5.26001519587677318785587544488e-2},
    {1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2},
    {1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2},
    {1: 2.41365134159266685502369798665e-1, 3: -8.84549479328286085344864962717e-1,
     4: 9.24834003261792003115737966543e-1},
    {1: 3.7037037037037037037037037037e-2, 4: 1.70828608729473871279604482173e-1,
     5: 1.25467687566822425016691814123e-1},
    {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
     5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2},
    {1: 3.70920001185047927108779319836e-2, 4: 1.70383925712239993810214054705e-1,
     5: 1.07262030446373284651809199168e-1, 6: -1.53194377486244017527936158236e-2,
     7: 8.27378916381402288758473766002e-3},
    {1: 6.24110958716075717114429577812e-1, 4: -3.36089262944694129406857109825,
     5: -8.68219346841726006818189891453e-1, 6: 2.75920996994467083049415600797e1,
     7: 2.01540675504778934086186788979e1, 8: -4.34898841810699588477366255144e1},
    {1: 4.77662536438264365890433908527e-1, 4: -2.48811461997166764192642586468,
     5: -5.90290826836842996371446475743e-1, 6: 2.12300514481811942347288949897e1,
     7: 1.52792336328824235832596922938e1, 8: -3.32882109689848629194453265587e1,
     9: -2.03312017085086261358222928593e-2},
    {1: -9.3714243008598732571704021658e-1, 4: 5.18637242884406370830023853209,
     5: 1.09143734899672957818500254654, 6: -8.14978701074692612513997267357,
     7: -1.85200656599969598641566180701e1, 8: 2.27394870993505042818970056734e1,
     9: 2.49360555267965238987089396762, 10: -3.0467644718982195003823669022},
    {1: 2.27331014751653820792359768449, 4: -1.05344954667372501984066689879e1,
     5: -2.00087205822486249909675718444, 6: -1.79589318631187989172765950534e1,
     7: 2.79488845294199600508499808837e1, 8: -2.85899827713502369474065508674,
     9: -8.87285693353062954433549289258, 10: 1.23605671757943030647266201528e1,
     11: 6.43392746015763530355970484046e-1},
    {1: 5.42937341165687622380535766363e-2, 6: 4.45031289275240888144113950566,
     7: 1.89151789931450038304281599044, 8: -5.8012039600105847814672114227,
     9: 3.1116436695781989440891606237e-1, 10: -1.52160949662516078556178806805e-1,
     11: 2.01365400804030348374776537501e-1, 12: 4.47106157277725905176885569043e-2},
), start=2) for i, a in row.items()}
# error weights: the 5th-order estimate D_E5_i, and the 3rd-order one
# D_E3_i, the 8th-order weights minus those of an embedded 3rd-order
# solution, whose weights are nonzero for k1, k9 and k12 only
_TABLEAU |= {f"D_E5_{i}": e for i, e in (
    (1, 0.1312004499419488073250102996e-1), (6, -0.1225156446376204440720569753e+1),
    (7, -0.4957589496572501915214079952), (8, 0.1664377182454986536961530415e+1),
    (9, -0.3503288487499736816886487290), (10, 0.3341791187130174790297318841),
    (11, 0.8192320648511571246570742613e-1), (12, -0.2235530786388629525884427845e-1))}
_TABLEAU |= {f"D_E3_{i}": _TABLEAU[f"D_A13_{i}"] - {
    1: 0.244094488188976377952755905512, 9: 0.733846688281611857341361741547,
    12: 0.220588235294117647058823529412e-1}.get(i, 0.0)
    for i in range(1, 13) if f"D_A13_{i}" in _TABLEAU}


class _Tableau(NamedTuple):
    """An embedded explicit Runge-Kutta method, by the names of its
    constants in _TABLEAU.  ``stages`` lists k2, k3, ... as (node,
    weights): k_j = field(t + node h, y + h sum_i weights[i] k_(i+1)),
    where node None means 1 and a weight None is 0; the last stage's
    argument is the new solution, so that stage is the next step's k1.
    ``errors`` holds the weights of one error estimate over k1, ..., or
    of two, the high- and low-order ones that DOP853 combines.  The step
    factor is 0.9 enorm^``exponent``.  ``extension`` holds the weights of
    the continuous extension's theta^2, theta^3, ... terms, or is None
    for a method that samples nothing."""

    stages: tuple
    errors: tuple
    exponent: float
    extension: tuple | None


_DP5 = _Tableau(
    stages=(("C2", ("A21",)),
            ("C3", ("A31", "A32")),
            ("C4", ("A41", "A42", "A43")),
            ("C5", ("A51", "A52", "A53", "A54")),
            (None, ("A61", "A62", "A63", "A64", "A65")),
            (None, ("B1", None, "B3", "B4", "B5", "B6"))),
    errors=(("E1", None, "E3", "E4", "E5", "E6", "E7"),),
    exponent=-0.2,
    extension=tuple((f"X{j}1", None, *(f"X{j}{i}" for i in range(3, 8)))
                    for j in "234"))


def _present(*names):
    return tuple(name if name in _TABLEAU else None for name in names)


_DOP853 = _Tableau(
    stages=tuple((f"D_C{j}" if j < 12 else None,
                  _present(*(f"D_A{j}_{i}" for i in range(1, j))))
                 for j in range(2, 14)),
    errors=tuple(_present(*(f"D_E{order}_{i}" for i in range(1, 13)))
                 for order in (5, 3)),
    exponent=-0.125,
    extension=None)

_MIN_STEP_FACTOR = 1e-14  # underflow guard relative to the span
_CSV_BLOCK_ROWS = 1024    # rows formatted per write of the CSV export


class IntegrationError(RuntimeError):
    """Base class for integration failures; carries the last good time."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class StepUnderflowError(IntegrationError):
    pass


class NonFiniteStateError(IntegrationError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Accuracy knobs of the adaptive steppers, Dormand-Prince 5(4) for
    plain runs and DOP853 for variational ones: their error tolerances and
    an optional cap on the step size."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float | None = None

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "max_step"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states of one run, in the frame of its field."""

    times: np.ndarray
    states: np.ndarray          # shape (n, dim), aligned with times
    steps: Trajectory | None = None   # a sampled run's own rows

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.shape[0]:
            raise ValueError("need a vector of times and one row of states "
                             "per time")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _from_march(times, flat_states, n, steps=None) -> Trajectory:
    """The Trajectory of rows or samples a march made, whose times are
    finite and strictly increasing by construction, so the public
    constructor's checks are skipped; ``flat_states`` holds the n
    components of each row in turn."""
    traj = object.__new__(Trajectory)
    object.__setattr__(traj, "times", np.array(times, dtype=float))
    object.__setattr__(traj, "states",
                       np.array(flat_states, dtype=float).reshape(-1, n))
    object.__setattr__(traj, "steps", steps)
    return traj


def integrate(field, t0: float, y0, t1: float, cfg: IntegratorConfig,
              t_eval=None) -> Trajectory:
    """Integrate y' = field(t, y) from t0 to t1.

    ``field(t, y)`` receives the state as a tuple of floats and returns a
    sequence of len(y0) floats.  Only the last step is clipped, so the final
    state lands exactly on t1.  If ``t_eval`` is given, the returned
    trajectory contains exactly t0, the distinct t_eval points strictly
    inside (t0, t1) and t1.  Those points do not constrain the steps:
    each is evaluated from the order-4 continuous extension of the
    accepted step that contains it, so a run takes the same steps, and
    ends in the same state, with or without ``t_eval``.  The run's own
    rows are t0, every accepted step that moves t, and t1; they are the
    result without ``t_eval`` and the result's ``steps`` with it.  The
    span t1 - t0 must be positive and finite.  The times are taken as
    floats, so a run from numpy-scalar times is the run from their values.
    A variational run (``variational_flow``'s augmented pair) steps by
    DOP853, which has no continuous extension here, so it takes no
    ``t_eval``.
    """
    t0, t1 = float(t0), float(t1)
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if not math.isfinite(t1 - t0):
        raise ValueError(f"need a finite time span, got [{t0}, {t1}]")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not y.size:
        raise ValueError("initial state must be a non-empty vector")
    y = tuple(y.tolist())
    if not all(map(math.isfinite, y)):
        raise ValueError("initial state must be finite")

    variational = type(field) is _Augmented
    pts = []
    if t_eval is not None:
        if variational:
            raise ValueError("a variational run takes no t_eval")
        pts = [float(p) for p in t_eval]
        if not all(map(math.isfinite, pts)):
            raise ValueError("t_eval points must be finite")
        pts = sorted(set(pts))
        if pts and (pts[0] < t0 or pts[-1] > t1):
            raise ValueError("t_eval points must lie within [t0, t1]")
        pts = [p for p in pts if t0 < p < t1]
    pts.append(math.inf)        # sentinel, beyond every step

    n = len(y)
    max_step = cfg.max_step or math.inf
    row_times, row_states, *samples = _dp_march(n, variational)(
        field, t0, y, t1, min((t1 - t0) * 1e-3, max_step), max_step,
        cfg.abs_tol, cfg.rel_tol, _MIN_STEP_FACTOR * (t1 - t0), pts)
    steps = _from_march(row_times, row_states, n)
    if t_eval is None:
        return steps
    return _from_march(*samples, n, steps)


_DP_MARCHES = {}    # (state dimension, variational) -> its compiled march


class _Augmented(tuple):
    """The pair (field, jac), called as y' = field(t, y), Y' = J(t, y) Y
    on (y1, y2, Y11, Y12, Y21, Y22), ``jac`` first so that ``jac_log``
    hands its stage on to ``rhs_log``; the variational march inlines it."""

    def __call__(self, t, w):
        field, jac = self
        y1, y2, y11, y12, y21, y22 = w
        y = (y1, y2)
        (j11, j12), (j21, j22) = jac(t, y)
        dy1, dy2 = field(t, y)
        return (dy1, dy2,
                j11 * y11 + j12 * y21, j11 * y12 + j12 * y22,
                j21 * y11 + j22 * y21, j21 * y12 + j22 * y22)


def _dp_march(n: int, variational: bool = False):
    """The adaptive march of an n-component state, compiled on first use
    and kept for the process: Dormand-Prince 5(4) for a plain field, and
    DOP853 for the variational equations (n = 6, an :class:`_Augmented`
    pair), whose runs are never sampled and take about half the field
    evaluations per period at the same tolerances."""
    march = _DP_MARCHES.get((n, variational))
    if march is None:
        march = _DP_MARCHES[n, variational] = _compile_march(
            n, _DOP853 if variational else _DP5, variational)
    return march


def _compile_march(n: int, tab: _Tableau, variational: bool):
    """The adaptive integration of an n-component state by the method
    ``tab``, as one compiled straight-line function.

    ``march(field, t, y, t1, h, max_step, abs_tol, rel_tol, h_floor, pts)``
    integrates y' = field(t, y) from (t, y) to t1 with first step h and
    returns the row times and states, then, if ``tab`` has a continuous
    extension, the sample times and states, the states flattened.  ``pts``
    holds the sample times inside (t, t1), ascending, then the sentinel
    inf; a march without an extension ignores it.  Every stage sum and
    every coefficient of the continuous extension is written out per
    component and runs left to right over plain floats, the FSAL stage is
    handed on as the next k1, and the error norm, the controller and the
    failure checks are inline.  A step runs from t to the time it reaches,
    t_new, by h = t_new - t, the step actually made; the controller sizes
    the next step from the step it tried.  The error norm is the max-norm
    of err / (abs_tol + rel_tol max(|y|, |y_new|)); with two estimates
    (DOP853) it is e5^2 / sqrt(e5^2 + 0.01 e3^2) of their two max-norms.
    A trial stage outside the field's domain (the field raises
    :class:`DomainOverflowError`) makes the error norm NaN, so an
    overshooting trial step shrinks instead of ending the run; a start
    outside the domain still raises.  Every ``min`` and ``max`` of the
    generic loop is written as the comparison the builtin makes, so the
    results are those of that loop to the last bit.  The tableau reaches
    the march through its namespace, never through its source text.  A
    variational march (n = 6) takes an :class:`_Augmented` pair and
    writes each stage's calls and products of its ``__call__`` inline.
    """
    namespace = {**_TABLEAU, "inf": math.inf, "nan": math.nan,
                 "isfinite": math.isfinite, "sqrt": math.sqrt,
                 "DomainOverflowError": DomainOverflowError,
                 "StepUnderflowError": StepUnderflowError,
                 "NonFiniteStateError": NonFiniteStateError}
    last = len(tab.stages) + 1      # the FSAL stage, at the new solution
    sampled = tab.extension is not None

    def comps(name):
        return ", ".join(f"{name}{i}" for i in range(n)) + ","

    lines = ["def march(field, t, y, t1, h_adaptive, max_step, abs_tol, "
             "rel_tol, h_floor, pts):",
             *(["    times, states = [t], list(y)      # samples",
                "    i = 0"] if sampled else []),
             "    row_times, row_states = [t], list(y)",
             "    k1 = field(t, y)",
             f"    if len(k1) != {n}:",
             "        raise ValueError(f'field returned {len(k1)} components '",
             f"                         'for a state of dimension {n}')",
             f"    {comps('y')} = y",
             f"    {comps('k1_')} = k1",
             *(["    field, jac = field"] if variational else [])]

    def stage_sums(weights, from_y):
        # bind h * weight once, then per component y_i + w1 * k1_i + ...
        used = [(w, j) for j, w in enumerate(weights, start=1) if w]
        lines.extend(f"        h_{w} = h * {w}" for w, _ in used)
        return [" + ".join(([f"y{i}"] if from_y else [])
                           + [f"h_{w} * k{j}_{i}" for w, j in used])
                for i in range(n)]

    # the step tried is min(h_adaptive, t1 - t), as the builtin compares
    lines += ["    while t < t1:",
              "        h_try = t1 - t",
              "        if h_adaptive < h_try:",
              "            h_try = h_adaptive",
              "            t_new = t + h_try",
              "        else:",
              "            t_new = t1",
              "        h = t_new - t"]
    trial = len(lines)      # the stages and the error norm of a trial step
    for j, (node, weights) in enumerate(tab.stages, start=2):
        sums = stage_sums(weights, True)
        at = f"t + {node} * h" if node else "t_new"
        if j == last or variational:   # y_new (o0, ...), a variational argument (g0, ...)
            x = "o" if j == last else "g"
            lines.extend(f"        {x}{i} = {s}" for i, s in enumerate(sums))
            sums = [f"{x}{i}" for i in range(n)]
        if j == last or not variational:
            lines.append(f"        x{j} = ({', '.join(sums)},)")
        lines += [f"        {comps(f'k{j}_')} = field({at}, x{j})"] if not variational else [
            # the calls and products of _Augmented.__call__
            f"        ts, z = {at}, ({sums[0]}, {sums[1]})",
            "        (j11, j12), (j21, j22) = jac(ts, z)",
            f"        k{j}_0, k{j}_1 = field(ts, z)",
            *(f"        k{j}_{m} = j{r}1 * {sums[c]} + j{r}2 * {sums[c + 2]}"
              for m, r, c in ((2, 1, 2), (3, 1, 3), (4, 2, 2), (5, 2, 3)))]
    for x, weights in zip("df", tab.errors):
        lines.extend(f"        {x}{i} = {s}"
                     for i, s in enumerate(stage_sums(weights, False)))
    # per estimate, the max-norm of err / (abs_tol + rel_tol max(|y|, |y_new|));
    # a NaN ratio stays, so that it rejects the step
    norms = ("e5", "e3") if len(tab.errors) == 2 else ("enorm",)
    lines.append(f"        {' = '.join(norms)} = 0.0")
    for i in range(n):
        lines += [f"        a = abs(y{i})",
                  f"        b = abs(o{i})",
                  "        s = abs_tol + rel_tol * (b if b > a else a)"]
        for x, e in zip("df", norms):
            lines += [f"        r = abs({x}{i}) / s",
                      f"        if r > {e} or r != r:",
                      f"            {e} = r"]
    if len(norms) == 2:
        # e5^2 / sqrt(e5^2 + 0.01 e3^2) as e5 / sqrt(1 + 0.01 (e3/e5)^2),
        # so that no square of a norm overflows or underflows; e5 = 0 only
        # if every stage it weighs is finite, and e3 weighs the same stages
        lines += ["        enorm = e5",
                  "        if e5 > 0.0:",
                  "            r = e3 / e5",
                  "            enorm = e5 / sqrt(1.0 + 0.01 * r * r)"]
    if len(tab.errors[0]) < last:
        # the FSAL stage is in no estimate; a non-finite one rejects the
        # step, as a weighed stage would, instead of becoming the next k1
        lines += ["        if not (" + " and ".join(
            f"isfinite(k{last}_{i})" for i in range(n)) + "):",
                  "            enorm = nan"]
    lines[trial:] = ["        try:",
                     *(f"    {line}" for line in lines[trial:]),
                     "        except DomainOverflowError:",
                     "            enorm = nan"]
    # standard I-controller with safety factor and clamps; a non-finite
    # error estimate (NaN stages) forces a hard shrink:
    # h_adaptive = min(h_try * min(5.0, max(0.2, factor)), max_step), as
    # the builtins compare
    lines += ["        if enorm > 0.0 and enorm < inf:",
              f"            factor = 0.9 * enorm ** {tab.exponent!r}",
              "            if not factor > 0.2:",
              "                factor = 0.2",
              "            elif not factor < 5.0:",
              "                factor = 5.0",
              "        elif enorm == 0.0:",
              "            factor = 5.0",
              "        else:",
              "            factor = 0.2",
              "        h_adaptive = h_try * factor",
              "        if max_step < h_adaptive:",
              "            h_adaptive = max_step",
              "        if enorm <= 1.0:"]
    if sampled:
        # one polynomial y_i + c_i1 th + ... + c_i4 th^4 per step, by Horner
        lines.append("            if pts[i] <= t_new:")
        for i in range(n):
            lines.append(f"                c{i}1 = h * k1_{i}")
            lines.extend(f"                c{i}{j} = h * (" + " + ".join(
                f"{w} * k{m}_{i}" for m, w in enumerate(weights, start=1) if w)
                + ")" for j, weights in enumerate(tab.extension, start=2))
        lines += ["                while pts[i] <= t_new:",
                  "                    th = (pts[i] - t) / h",
                  "                    times.append(pts[i])",
                  "                    states += ("
                  + ", ".join(f"y{i} + th * (c{i}1 + th * (c{i}2 + th * "
                              f"(c{i}3 + th * c{i}4)))" for i in range(n)) + ",)",
                  "                    i += 1"]
    lines += ["            stalled = t_new == t",
              f"            t, y = t_new, x{last}",
              f"            {comps('y')} = {comps('o')}",
              f"            {comps('k1_')} = {comps(f'k{last}_')}",
              "        if h_adaptive < h_floor:",
              "            raise StepUnderflowError(",
              "                f'adaptive step underflow at t = {t}', t=t)",
              "        if enorm <= 1.0:",
              # a step below half the spacing of floats at t leaves t
              # unchanged; unless the controller grows the next one, t
              # stays there for good.  A rejected step leaves y as it
              # was, so only an accepted one can make it non-finite.
              "            if stalled and not h_adaptive > h_try:",
              "                raise StepUnderflowError(",
              "                    f'step {h_try!r} does not advance t = {t}', t=t)",
              "            if not ("
              + " and ".join(f"isfinite(y{i})" for i in range(n)) + "):",
              "                raise NonFiniteStateError(",
              "                    f'state became non-finite at t = {t}', t=t)",
              "            if not stalled and t < t1:",
              "                row_times.append(t)",
              "                row_states += y",
              "    row_times.append(t)",
              "    row_states += y"]
    if sampled:
        lines += ["    times.append(t)",
                  "    states += y",
                  "    return row_times, row_states, times, states"]
    else:
        lines.append("    return row_times, row_states")
    exec(compile("\n".join(lines), f"<phytoperiod march, n = {n}"
                 f"{', variational' * variational}>", "exec"), namespace)
    return namespace.pop("march")   # no cycle through its globals


def flow_map(params: ModelParams, z0, cfg: IntegratorConfig) -> np.ndarray:
    """State after one period: z(T) of the log-frame flow with z(0) = z0."""
    traj = integrate(MethodType(rhs_log, params), 0.0, z0, params.period, cfg)
    return traj.final_state


def variational_flow(field, jac, t0: float, y0, t1: float,
                     cfg: IntegratorConfig):
    """Flow and fundamental matrix of an arbitrary planar field.

    Integrates the state together with Y' = J(t, y(t)) Y, Y(t0) = I and
    returns (y(t1), Y(t1)).  ``jac(t, y)`` returns the rows of J.  The
    run is one ``integrate`` call whose every stage calls ``jac``, then
    ``field``, once on the planar state; ``y0`` must be one.
    """
    if np.shape(y0) != (2,):
        raise ValueError(f"need a planar state (y1, y2), got shape {np.shape(y0)}")
    wT = integrate(_Augmented((field, jac)), t0, (*y0, 1.0, 0.0, 0.0, 1.0), t1,
                   cfg).final_state
    return wT[:2], wT[2:].reshape(2, 2)


def flow_and_monodromy(params: ModelParams, z0, cfg: IntegratorConfig):
    """State and fundamental matrix after one period of the log-frame
    flow: (z(T), M) from one augmented integration with z(0) = z0."""
    field, jac = MethodType(rhs_log, params), MethodType(jac_log, params)
    return variational_flow(field, jac, 0.0, z0, params.period, cfg)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export of a trajectory of densities: header t,x1,x2, 17
    significant digits.  The states must have two columns.  Rows are
    formatted by one ``%`` format per block of at most _CSV_BLOCK_ROWS, so
    the text held in memory stays bounded however long the run."""
    times, states = traj.times, traj.states
    if states.shape[1] != 2:
        raise ValueError(f"need states with two columns (x1, x2), got "
                         f"shape {states.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x1,x2\n")
        for i in range(0, len(times), _CSV_BLOCK_ROWS):
            rows = np.column_stack((times[i:i + _CSV_BLOCK_ROWS],
                                    states[i:i + _CSV_BLOCK_ROWS]))
            fh.write(("%.17g,%.17g,%.17g\n" * len(rows))
                     % tuple(rows.ravel().tolist()))
