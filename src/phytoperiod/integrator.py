"""Time integration: Hairer's DOP853, an adaptive embedded Runge-Kutta pair.

An explicit Runge-Kutta pair with per-step error control suits the
smooth, mildly nonlinear planar model and needs no dependency.  Every
run steps by DOP853 (Hairer, Norsett & Wanner, sec. II.10), 12 field
evaluations per step, from Hairer's starting-step estimate, and accuracy
comes from the error tolerances alone: no run caps its step.
``integrate`` picks the march from the type of its field alone:

* a plain field runs the plain march.  Given sample times (``t_eval``),
  it also evaluates DOP853's order-7 dense output over each step that
  holds one, at 3 more field evaluations per such step, so sampling
  never changes the steps.  A run's rows are what ``trajectory.csv``
  holds.
* an :class:`_Augmented` pair runs the variational (monodromy)
  equations.  The run keeps a record of its stages, from which the same
  dense output gives the state between its steps after the run
  (:meth:`_Flow.states_at`).

The whole adaptive loop (starting step, stages, error norm, controller,
failure checks, rows and samples) is one generated straight-line function
per kind of run, compiled on first use per state dimension; the
variational one calls ``jac`` before ``field`` and writes the J Y
products inline.  ``integrate`` checks its arguments, runs it once and
wraps its rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MethodType

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

# Hairer's DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary Differential
# Equations I*, 2nd ed., 1993, sec. II.10; the digits of his dop853.f):
# 12 evaluations per step.  These are the only constants of the marches,
# by the names that _STAGES, _ERRORS and _DENSE list; _TABLEAU is the
# namespace the compiled marches see them in.  Stage k_j (j = 2..13) is
# evaluated at node D_Cj from the weights D_Aj_i of k_i; an absent weight
# is 0, and k12 and k13 sit at node 1.  Row 13 holds the 8th-order
# weights, so k13 is evaluated at the new solution and is the next step's
# k1 (FSAL, "first same as last").
_TABLEAU = {f"D_C{j}": c for j, c in enumerate((
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

# DOP853's order-7 dense output (his contd8): three more stages per step,
# k14..k16 at nodes D_C14..D_C16 from the weights D_Aj_i of k1..k(j-1), and
# over one step from (t, y) to (t + h, y_new), with theta = (s - t) / h,
#   y(s) = y + theta (F0 + (1 - theta) (F1 + theta (F2 + (1 - theta) (F3
#          + theta (F4 + (1 - theta) (F5 + theta F6)))))),
# where F0 = y_new - y, F1 = h k1 - F0, F2 = 2 F0 - h (k1 + k13) and
# F(r-1) = h sum_i D_Dr_i k_i for r = 4..7.  No weight falls on k2..k5.
_TABLEAU |= {"D_C14": 0.1, "D_C15": 0.2,
             "D_C16": 0.777777777777777777777777777778}
_TABLEAU |= {f"D_A{j}_{i}": a for j, row in enumerate((
    {1: 5.61675022830479523392909219681e-2, 7: 2.53500210216624811088794765333e-1,
     8: -2.46239037470802489917441475441e-1, 9: -1.24191423263816360469010140626e-1,
     10: 1.5329179827876569731206322685e-1, 11: 8.20105229563468988491666602057e-3,
     12: 7.56789766054569976138603589584e-3, 13: -8.298e-3},
    {1: 3.18346481635021405060768473261e-2, 6: 2.83009096723667755288322961402e-2,
     7: 5.35419883074385676223797384372e-2, 8: -5.49237485713909884646569340306e-2,
     11: -1.08347328697249322858509316994e-4, 12: 3.82571090835658412954920192323e-4,
     13: -3.40465008687404560802977114492e-4, 14: 1.41312443674632500278074618366e-1},
    {1: -4.28896301583791923408573538692e-1, 6: -4.69762141536116384314449447206,
     7: 7.68342119606259904184240953878, 8: 4.06898981839711007970213554331,
     9: 3.56727187455281109270669543021e-1, 13: -1.39902416515901462129418009734e-3,
     14: 2.9475147891527723389556272149, 15: -9.15095847217987001081870187138},
), start=14) for i, a in row.items()}
_TABLEAU |= {f"D_D{r}_{i}": d for r, row in enumerate((
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
), start=4) for i, d in zip((1, *range(6, 17)), row)}


def _present(*names):
    return tuple(name if name in _TABLEAU else None for name in names)


# The marches read DOP853 as these tuples of _TABLEAU names.  _STAGES lists
# k2, ..., k13 as (node, weights): k_j = field(t + node h, y + h sum_i
# weights[i] k_(i+1)), where node None means 1 and a weight None is 0; the
# last stage's argument is the new solution, so that stage is the next
# step's k1.  _ERRORS holds the weights over k1, ... of the 5th- and the
# 3rd-order error estimates, which the error norm combines.  _DENSE is the
# dense output: its extra stages k14..k16, as _STAGES lists them, and the
# weights of its last four coefficients over k1, ..., k16.
_STAGES = tuple((f"D_C{j}" if j < 12 else None,
                 _present(*(f"D_A{j}_{i}" for i in range(1, j))))
                for j in range(2, 14))
_ERRORS = tuple(_present(*(f"D_E{order}_{i}" for i in range(1, 13)))
                for order in (5, 3))
_DENSE = (tuple((f"D_C{j}", _present(*(f"D_A{j}_{i}" for i in range(1, j))))
                for j in (14, 15, 16)),
          tuple(_present(*(f"D_D{r}_{i}" for i in range(1, 17)))
                for r in (4, 5, 6, 7)))
# the stages of a step that the dense output weighs: no weight falls on k2..k5
_DENSE_STAGES = (1, *range(6, 14))

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
    """Accuracy knobs of the adaptive steppers: their error tolerances,
    the only bound on the step size."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states of one run, in the frame of its field."""

    times: np.ndarray
    states: np.ndarray          # shape (n, dim), aligned with times
    steps: Trajectory | None = None   # a sampled run's own rows
    record: list | None = None  # a variational run's stage record

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


def _from_march(times, flat_states, n, steps=None, record=None) -> Trajectory:
    """The Trajectory of rows or samples a march made, whose times are
    finite and strictly increasing by construction, so the public
    constructor's checks are skipped; ``flat_states`` holds the n
    components of each row in turn."""
    traj = object.__new__(Trajectory)
    object.__setattr__(traj, "times", np.array(times, dtype=float))
    object.__setattr__(traj, "states",
                       np.array(flat_states, dtype=float).reshape(-1, n))
    object.__setattr__(traj, "steps", steps)
    object.__setattr__(traj, "record", record)
    return traj


def integrate(field, t0: float, y0, t1: float, cfg: IntegratorConfig,
              t_eval=None) -> Trajectory:
    """Integrate y' = field(t, y) from t0 to t1 by DOP853.

    ``field(t, y)`` receives the state as a tuple of floats and returns a
    sequence of len(y0) floats.  The run starts from Hairer's estimate of
    the first step (:func:`_first_step`), and only the last step is
    clipped, so the final state lands exactly on t1.  If ``t_eval`` is
    given, the returned trajectory contains exactly t0, the distinct
    t_eval points strictly inside (t0, t1) and t1.  Those points do not
    constrain the steps: each is evaluated from DOP853's order-7 dense
    output over the accepted step that holds it, at 3 more field calls
    per such step, so a run takes the same steps, and ends in the same
    state, with or without ``t_eval``.  The run's own rows are t0, every
    accepted step that moves t, and t1; they are the result without
    ``t_eval`` and the result's ``steps`` with it.  The span t1 - t0 must
    be positive and finite.  The times are taken as floats, so a run from
    numpy-scalar times is the run from their values.  An
    :class:`_Augmented` pair runs the variational equations; it takes no
    ``t_eval``, and its result carries the stage record of its dense
    output.
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

    kind = "variational" if type(field) is _Augmented else "plain"
    pts = []
    if t_eval is not None:
        if kind == "variational":
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
    row_times, row_states, *extra = _dp_march(n, kind)(
        field, t0, y, t1, None, cfg.abs_tol, cfg.rel_tol,
        _MIN_STEP_FACTOR * (t1 - t0), pts)
    if kind == "variational":
        return _from_march(row_times, row_states, n, record=extra[0])
    steps = _from_march(row_times, row_states, n)
    if t_eval is None:
        return steps
    return _from_march(*extra, n, steps)


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


def _max_norm(values, scale) -> float:
    """max |v_i| / scale_i, or NaN if any of those ratios is NaN."""
    norm = 0.0
    for v, s in zip(values, scale):
        r = abs(v) / s
        if r > norm or r != r:
            norm = r
    return norm


def _first_step(field, t, y, k1, t1, abs_tol, rel_tol, root):
    """Hairer's starting step (Hairer, Norsett & Wanner, sec. II.4) for a
    method of order 1/root from (t, y), where field(t, y) = k1; every run
    starts from it.

    With the scale s = abs_tol + rel_tol |y| and max-norms, d0 = |y / s|
    and d1 = |k1 / s|, an Euler step of h0 = 0.01 d0 / d1 (1e-6 if either
    is below 1e-5) costs one evaluation and gives
    d2 = |(field(t + h0, y + h0 k1) - k1) / s| / h0; the step is
    min(100 h0, (0.01 / max(d1, d2))^root, t1 - t), where the middle term
    is max(1e-6, h0 / 1000) when max(d1, d2) <= 1e-15, and t1 - t bounds
    h0 too.  Should that evaluation raise :class:`DomainOverflowError`, d1
    or d2 not be finite or h0 not be positive, the step is (t1 - t) / 1000,
    so a start the estimate cannot judge still runs, and the run's own
    steps decide how it ends."""
    fallback = (t1 - t) * 1e-3
    h_max = t1 - t
    scale = [abs_tol + rel_tol * abs(v) for v in y]
    d0, d1 = _max_norm(y, scale), _max_norm(k1, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, h_max)
    if not (h0 > 0.0 and d1 < math.inf):
        return fallback
    try:
        f1 = field(t + h0, tuple(v + h0 * k for v, k in zip(y, k1)))
    except DomainOverflowError:
        return fallback
    d2 = _max_norm([a - b for a, b in zip(f1, k1)], scale) / h0
    d = d1 if d2 < d1 else d2       # max(d1, d2), keeping a NaN d2
    h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** root
    return min(100.0 * h0, h1, h_max) if 0.0 < h1 < math.inf else fallback


def _dense_lines(n: int) -> list[str]:
    """The lines, unindented, that evaluate DOP853's dense output over one
    step of an n-component state, from t, the step h, its start y0, ...,
    its new solution o0, ... and its stages k1_0, ..., k13_0, ...: the
    extra stages k14..k16, one call of ``field`` each, then the
    coefficients F0_i, ..., F6_i of the interpolant of component i (see
    _TABLEAU).  Every weighted sum runs left to right over the stages.
    The plain march and :func:`_dense_step` both run these lines, so the
    two give the same coefficients to the last bit."""
    stages, rows = _DENSE

    def weighed(weights, i):
        return " + ".join(f"{w} * k{m}_{i}"
                          for m, w in enumerate(weights, start=1) if w)

    lines = []
    for j, (node, weights) in enumerate(stages, start=14):
        ks = "".join(f"k{j}_{i}, " for i in range(n))
        args = "".join(f"y{i} + h * ({weighed(weights, i)}), " for i in range(n))
        lines.append(f"{ks}= field(t + {node} * h, ({args}))")
    for i in range(n):
        lines += [f"F0_{i} = o{i} - y{i}",
                  f"F1_{i} = h * k1_{i} - F0_{i}",
                  f"F2_{i} = 2.0 * F0_{i} - h * (k1_{i} + k13_{i})",
                  *(f"F{r}_{i} = h * ({weighed(weights, i)})"
                    for r, weights in enumerate(rows, start=3))]
    return lines


@functools.cache
def _dp_march(n: int, kind: str):
    """The adaptive DOP853 march of an n-component state, as one compiled
    straight-line function, built on first use and kept for the process.
    ``kind`` is "plain" (which also evaluates the dense output at sample
    times) or "variational" (the variational equations, n = 6, keeping the
    stage record of their dense output).

    ``march(field, t, y, t1, h, abs_tol, rel_tol, h_floor, pts)``
    integrates y' = field(t, y) from (t, y) to t1 with first step h, or,
    with h None, the one of :func:`_first_step`.  It returns the row
    times and states, the states flattened, then a plain march the sample
    times and states, t and t1 included, and a variational one its stage
    record: for every row after the first, the first two components of
    each stage in _DENSE_STAGES of the step that reached it.  ``pts``
    holds the sample times inside (t, t1), ascending, then the sentinel
    inf, which no step reaches; only a plain march reads it, so a plain
    run given no sample times is the same run, row for row, as one given
    some.  On an accepted step that holds a sample time, it runs
    :func:`_dense_lines` (3 field calls) and takes the interpolant at
    each such time by Horner's rule.  Every stage sum and
    every coefficient is written out per component and runs left to right
    over plain floats, the FSAL stage is handed on as the next k1, and
    the error norm, the controller and the failure checks are inline.  A
    step runs from t to the time it reaches, t_new, by h = t_new - t, the
    step actually made; the controller sizes the next step from the step
    it tried.  The error norm is e5^2 / sqrt(e5^2 + 0.01 e3^2) of the
    max-norms of both estimates over abs_tol + rel_tol max(|y|, |y_new|).
    A trial stage outside the field's domain (the field raises
    :class:`DomainOverflowError`) makes the error norm NaN, so an
    overshooting trial step shrinks instead of ending the run; a start
    outside the domain, or a dense stage outside it, still raises.  A run
    ends in :class:`StepUnderflowError` when its next step falls below
    ``h_floor``, or when the step it would try next leaves t where it is:
    after an accepted step that did not move t, unless the next step is
    larger, and after a rejected step whose successor has t + h round
    back to t.  Every ``min`` and ``max`` of the generic loop is written
    as the comparison the builtin makes, so the results are those of that
    loop to the last bit.  The tableau reaches the march through its
    namespace, never through its source text.  A variational march takes
    an :class:`_Augmented` pair and writes each stage's calls and
    products of its ``__call__`` inline.
    """
    variational = {"plain": False, "variational": True}[kind]
    namespace = {**_TABLEAU, "inf": math.inf, "nan": math.nan,
                 "isfinite": math.isfinite, "sqrt": math.sqrt,
                 "first_step": _first_step,
                 "DomainOverflowError": DomainOverflowError,
                 "StepUnderflowError": StepUnderflowError,
                 "NonFiniteStateError": NonFiniteStateError}
    last = 13       # the FSAL stage, at the new solution

    def comps(name):
        return ", ".join(f"{name}{i}" for i in range(n)) + ","

    lines = ["def march(field, t, y, t1, h_adaptive, abs_tol, rel_tol, "
             "h_floor, pts):",
             *(["    times, states = [t], list(y)      # samples",
                "    i = 0"] if not variational else []),
             "    row_times, row_states = [t], list(y)",
             *(["    record = []"] if variational else []),
             "    k1 = field(t, y)",
             f"    if len(k1) != {n}:",
             "        raise ValueError(f'field returned {len(k1)} components '",
             f"                         'for a state of dimension {n}')",
             f"    {comps('y')} = y",
             f"    {comps('k1_')} = k1",
             "    if h_adaptive is None:",
             "        h_adaptive = first_step(field, t, y, k1, t1, abs_tol, "
             "rel_tol, 0.125)",
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
    for j, (node, weights) in enumerate(_STAGES, start=2):
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
    for x, weights in zip("df", _ERRORS):
        lines.extend(f"        {x}{i} = {s}"
                     for i, s in enumerate(stage_sums(weights, False)))
    # per estimate, the max-norm of err / (abs_tol + rel_tol max(|y|, |y_new|));
    # a NaN ratio stays, so that it rejects the step
    lines.append("        e5 = e3 = 0.0")
    for i in range(n):
        lines += [f"        a = abs(y{i})",
                  f"        b = abs(o{i})",
                  "        s = abs_tol + rel_tol * (b if b > a else a)"]
        for x, e in zip("df", ("e5", "e3")):
            lines += [f"        r = abs({x}{i}) / s",
                      f"        if r > {e} or r != r:",
                      f"            {e} = r"]
    # e5^2 / sqrt(e5^2 + 0.01 e3^2) as e5 / sqrt(1 + 0.01 (e3/e5)^2), so
    # that no square of a norm overflows or underflows; e5 = 0 only if
    # every stage it weighs is finite, and e3 weighs the same stages.  The
    # FSAL stage is in no estimate; a non-finite one rejects the step, as
    # a weighed stage would, instead of becoming the next k1
    lines += ["        enorm = e5",
              "        if e5 > 0.0:",
              "            r = e3 / e5",
              "            enorm = e5 / sqrt(1.0 + 0.01 * r * r)",
              "        if not (" + " and ".join(
                  f"isfinite(k{last}_{i})" for i in range(n)) + "):",
              "            enorm = nan"]
    lines[trial:] = ["        try:",
                     *(f"    {line}" for line in lines[trial:]),
                     "        except DomainOverflowError:",
                     "            enorm = nan"]
    # standard I-controller with safety factor and clamps, for a method of
    # order 8; a non-finite error estimate (NaN stages) forces a hard
    # shrink: h_adaptive = h_try * min(5.0, max(0.2, factor)), as the
    # builtins compare
    lines += ["        if enorm > 0.0 and enorm < inf:",
              "            factor = 0.9 * enorm ** -0.125",
              "            if not factor > 0.2:",
              "                factor = 0.2",
              "            elif not factor < 5.0:",
              "                factor = 5.0",
              "        elif enorm == 0.0:",
              "            factor = 5.0",
              "        else:",
              "            factor = 0.2",
              "        h_adaptive = h_try * factor",
              "        if enorm <= 1.0:"]
    if not variational:
        # the dense output once per step that holds a sample, then its
        # interpolant y_i + th (F0_i + (1 - th) (F1_i + th (...))) per sample
        def horner(i):
            expr = f"F6_{i}"
            for r, w in zip(range(5, -1, -1), ("th", "u") * 3):
                expr = f"F{r}_{i} + {w} * ({expr})"
            return f"y{i} + th * ({expr})"
        lines += ["            if pts[i] <= t_new:",
                  *(f"                {line}" for line in _dense_lines(n)),
                  "                while pts[i] <= t_new:",
                  "                    th = (pts[i] - t) / h",
                  "                    u = 1.0 - th",
                  "                    times.append(pts[i])",
                  "                    states += ("
                  + ", ".join(horner(i) for i in range(n)) + ",)",
                  "                    i += 1"]
    lines.append("            stalled = t_new == t")
    if variational:
        lines += ["            if not stalled:",
                  "                record += (" + ", ".join(
                      f"k{j}_{i}" for j in _DENSE_STAGES for i in (0, 1)) + ")"]
    lines += [f"            t, y = t_new, x{last}",
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
              # a rejected step whose successor leaves t unchanged would be
              # accepted with h = 0, grown, rejected again, for good
              "        elif t + h_adaptive == t:",
              "            raise StepUnderflowError(",
              "                f'step {h_adaptive!r} does not advance t = {t}', t=t)",
              "    row_times.append(t)",
              "    row_states += y"]
    if variational:
        lines.append("    return row_times, row_states, record")
    else:
        lines += ["    times.append(t)",
                  "    states += y",
                  "    return row_times, row_states, times, states"]
    exec(compile("\n".join(lines), f"<phytoperiod march, n = {n}, {kind}>",
                 "exec"), namespace)
    return namespace.pop("march")   # no cycle through its globals


def flow_map(params: ModelParams, z0, cfg: IntegratorConfig) -> np.ndarray:
    """State after one period: z(T) of the log-frame flow with z(0) = z0."""
    traj = integrate(MethodType(rhs_log, params), 0.0, z0, params.period, cfg)
    return traj.final_state


class _Flow(tuple):
    """The pair (y(t1), Y(t1)) of a variational run, with the run itself
    as ``steps`` (its rows and its stage record) and its planar
    ``field``, from which :meth:`states_at` gives y between the rows."""

    def __new__(cls, steps: Trajectory, field):
        wT = steps.final_state
        flow = super().__new__(cls, (wT[:2], wT[2:].reshape(2, 2)))
        flow.steps, flow.field = steps, field
        return flow

    def states_at(self, times) -> np.ndarray:
        """The planar state y at ``times``, ascending and inside (t0, t1],
        one row per time, from DOP853's order-7 dense output over the step
        that holds each time.  ``field`` is called 3 times on each step
        that holds a time, for the extra stages k14..k16
        (:func:`_dense_step`)."""
        steps = self.steps
        t, times = steps.times, np.asarray(times, dtype=float)
        step = np.searchsorted(t, times) - 1    # t[step] < time <= t[step + 1]
        held = sorted(set(step.tolist()))
        ts, ys = t.tolist(), steps.states[:, :2].tolist()
        dense, width = _dense_step(), 2 * len(_DENSE_STAGES)
        coeffs = np.array([
            dense(self.field, ts[i], ts[i + 1] - ts[i], *ys[i], *ys[i + 1],
                  *steps.record[i * width:(i + 1) * width])
            for i in held]).reshape(-1, 7, 2)
        c = coeffs[np.searchsorted(held, step)]
        x = ((times - t[step]) / (t[step + 1] - t[step]))[:, None]
        # y + x (F0 + (1 - x) (F1 + x (F2 + (1 - x) (F3 + ... + x F6))))
        p = c[:, 6]
        for r, w in zip(range(5, -1, -1), (x, 1.0 - x) * 3):
            p = c[:, r] + w * p
        return steps.states[step, :2] + x * p


def variational_flow(field, jac, t0: float, y0, t1: float,
                     cfg: IntegratorConfig):
    """Flow and fundamental matrix of an arbitrary planar field.

    Integrates the state together with Y' = J(t, y(t)) Y, Y(t0) = I and
    returns the pair (y(t1), Y(t1)).  ``jac(t, y)`` returns the rows of
    J.  The run is one ``integrate`` call by DOP853 whose every stage
    calls ``jac``, then ``field``, once on the planar state; ``y0`` must
    be one.
    """
    if np.shape(y0) != (2,):
        raise ValueError(f"need a planar state (y1, y2), got shape {np.shape(y0)}")
    return _Flow(integrate(_Augmented((field, jac)), t0,
                           (*y0, 1.0, 0.0, 0.0, 1.0), t1, cfg), field)


def flow_and_monodromy(params: ModelParams, z0, cfg: IntegratorConfig):
    """State and fundamental matrix after one period of the log-frame
    flow: (z(T), M) from one augmented integration with z(0) = z0, a pair
    that also carries that run (see :class:`_Flow`)."""
    field, jac = MethodType(rhs_log, params), MethodType(jac_log, params)
    return variational_flow(field, jac, 0.0, z0, params.period, cfg)


@functools.cache
def _dense_step():
    """DOP853's dense output over one step of a planar run, as one
    compiled straight-line function, built on first use.
    ``dense(field, t, h, y0, y1, o0, o1, *stages)`` takes the step from
    (t, (y0, y1)) to (t + h, (o0, o1)) and its record, the two components
    of each stage in _DENSE_STAGES in turn; it runs :func:`_dense_lines`
    and returns the coefficients F0, ..., F6 of the interpolant, each as
    its two components in turn."""
    lines = ["def dense(field, t, h, y0, y1, o0, o1, " + ", ".join(
        f"k{j}_{i}" for j in _DENSE_STAGES for i in (0, 1)) + "):",
        *(f"    {line}" for line in _dense_lines(2)),
        "    return (" + ", ".join(f"F{r}_{i}" for r in range(7)
                                   for i in (0, 1)) + ")"]
    namespace = dict(_TABLEAU)
    exec(compile("\n".join(lines), "<phytoperiod dense output>", "exec"),
         namespace)
    return namespace.pop("dense")


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
