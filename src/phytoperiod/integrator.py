"""Time integration: adaptive Dormand-Prince 5(4).

An embedded explicit Runge-Kutta pair with per-step error control suits
the smooth, mildly nonlinear planar model and needs no dependency.  One
stepping core drives plain runs, the period-T flow map and the
variational (monodromy) equations; sampled output comes from the pair's
continuous extension, so sampling never changes the steps.  The whole
adaptive loop (stages, error norm, controller, failure checks, rows and
samples) is one generated straight-line function, compiled on first use
per state dimension; the variational equations get their own, with
``jac`` called before ``field`` and the J Y products inline.
``integrate`` checks its arguments, runs it once and wraps its rows.
"""

from __future__ import annotations

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

# Dormand-Prince 5(4) tableau, by the names that _DP_STAGES, _DP_ERROR and
# _DP_EXTENSION read; it is the namespace the compiled march sees them
# in.  The 5th-order weights B equal the last row of A, so the 7th stage
# is evaluated at the new solution and doubles as the next step's 1st
# stage (FSAL, "first same as last").
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
    """Accuracy knobs of the Dormand-Prince stepper: its error tolerances
    and an optional cap on the step size."""

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

    pts = []
    if t_eval is not None:
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
    row_times, row_states, times, states = _dp_march(n, type(field) is _Augmented)(
        field, t0, y, t1, min((t1 - t0) * 1e-3, max_step), max_step,
        cfg.abs_tol, cfg.rel_tol, _MIN_STEP_FACTOR * (t1 - t0), pts)
    steps = _from_march(row_times, row_states, n)
    if t_eval is None:
        return steps
    return _from_march(times, states, n, steps)


# The stages k2..k7 of one Dormand-Prince step: (node, weights), where
# k_j = field(t + node h, y + h sum_i weights[i] k_(i+1)), node None means
# 1 and a weight None is 0.  k7's argument is the 5th-order solution.
_DP_STAGES = (("C2", ("A21",)),
              ("C3", ("A31", "A32")),
              ("C4", ("A41", "A42", "A43")),
              ("C5", ("A51", "A52", "A53", "A54")),
              (None, ("A61", "A62", "A63", "A64", "A65")),
              (None, ("B1", None, "B3", "B4", "B5", "B6")))
_DP_ERROR = ("E1", None, "E3", "E4", "E5", "E6", "E7")
_DP_EXTENSION = tuple((f"X{j}1", None, *(f"X{j}{i}" for i in range(3, 8)))
                      for j in "234")
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
    """The adaptive Dormand-Prince integration of an n-component state,
    compiled on first use and kept for the process.

    ``march(field, t, y, t1, h, max_step, abs_tol, rel_tol, h_floor, pts)``
    integrates y' = field(t, y) from (t, y) to t1 with first step h and
    returns four lists: the row times and states and the sample times and
    states, the states flattened.  ``pts`` holds the sample times inside
    (t, t1), ascending, then the sentinel inf.  The whole loop is one
    straight-line function: every stage sum and every coefficient of the
    continuous extension is written out per component and runs left to
    right over plain floats, the FSAL stage k7 is handed on as the next k1,
    and the error norm, the controller and the failure checks are inline.  A
    trial stage outside the field's domain (the field raises
    :class:`DomainOverflowError`) makes the error norm NaN, so an
    overshooting trial step shrinks instead of ending the run; a start
    outside the domain still raises.  Every ``min`` and ``max`` of the
    generic loop is written as the comparison the builtin makes, so the
    results are those of that loop to the last bit.  The tableau reaches the
    march through its namespace, never through its source text.  The
    variational march (n = 6) takes an :class:`_Augmented` pair and writes
    each stage's calls and products of its ``__call__`` inline.
    """
    march = _DP_MARCHES.get((n, variational))
    if march is not None:
        return march
    namespace = {**_TABLEAU, "inf": math.inf, "nan": math.nan,
                 "isfinite": math.isfinite,
                 "DomainOverflowError": DomainOverflowError,
                 "StepUnderflowError": StepUnderflowError,
                 "NonFiniteStateError": NonFiniteStateError}
    letters = "pqrsuvw"     # the components of k1..k7: p0, p1, ...

    def tup(letter):
        return f"({''.join(f'{letter}{i}, ' for i in range(n))})"

    lines = ["def march(field, t, y, t1, h_adaptive, max_step, abs_tol, "
             "rel_tol, h_floor, pts):",
             "    times, states = [t], list(y)      # samples",
             "    row_times, row_states = [t], list(y)",
             "    k1 = field(t, y)",
             f"    if len(k1) != {n}:",
             "        raise ValueError(f'field returned {len(k1)} components '",
             f"                         'for a state of dimension {n}')",
             "    i = 0",
             f"    {tup('y')[1:-1]}= y",
             f"    {tup('p')[1:-1]}= k1",
             *(["    field, jac = field"] if variational else [])]

    def stage_sums(weights, from_y):
        # bind h * weight once, then per component y_i + w1 * p_i + ...
        used = [(w, x) for w, x in zip(weights, letters) if w]
        lines.extend(f"        {w.lower()} = h * {w}" for w, _ in used)
        return [" + ".join(([f"y{i}"] if from_y else [])
                           + [f"{w.lower()} * {x}{i}" for w, x in used])
                for i in range(n)]

    lines += ["    while t < t1:",
              "        h = t1 - t",
              "        if not h < h_adaptive:",
              "            h = h_adaptive"]
    trial = len(lines)      # the stages and the error norm of a trial step
    for j, (node, weights) in enumerate(_DP_STAGES, start=2):
        sums, k = stage_sums(weights, True), letters[j - 1]
        at = f"t + {node} * h" if node else "t + h"
        if j == 7 or variational:   # y_new (o0, ...), a variational argument (g0, ...)
            x = "o" if j == 7 else "g"
            lines.extend(f"        {x}{i} = {s}" for i, s in enumerate(sums))
            sums = [f"{x}{i}" for i in range(n)]
        if j == 7 or not variational:
            lines.append(f"        x{j} = ({', '.join(sums)},)")
        lines += [f"        {tup(k)[1:-1]}= field({at}, x{j})"] if not variational else [
            # the calls and products of _Augmented.__call__
            f"        ts, z = {at}, ({sums[0]}, {sums[1]})",
            "        (j11, j12), (j21, j22) = jac(ts, z)",
            f"        {k}0, {k}1 = field(ts, z)",
            *(f"        {k}{m} = j{r}1 * {sums[c]} + j{r}2 * {sums[c + 2]}"
              for m, r, c in ((2, 1, 2), (3, 1, 3), (4, 2, 2), (5, 2, 3)))]
    lines.extend(f"        d{i} = {s}"
                 for i, s in enumerate(stage_sums(_DP_ERROR, False)))
    # max-norm of err / (abs_tol + rel_tol max(|y|, |y_new|)), left to
    # right; the first NaN ratio ends it, so that it rejects the step
    lines.append("        enorm = 0.0")
    for i in range(n):
        pad = "    " * (i + 2)
        if i:
            lines.append(f"{pad[4:]}if enorm == enorm:")
        lines += [f"{pad}a = abs(y{i})",
                  f"{pad}b = abs(o{i})",
                  f"{pad}r = abs(d{i}) / (abs_tol + rel_tol * (b if b > a else a))",
                  f"{pad}if not r <= enorm:",
                  f"{pad}    enorm = r"]
    lines[trial:] = ["        try:",
                     *(f"    {line}" for line in lines[trial:]),
                     "        except DomainOverflowError:",
                     "            enorm = nan"]
    # standard I-controller with safety factor and clamps; a non-finite
    # error estimate (NaN stages) forces a hard shrink:
    # h_adaptive = min(h * min(5.0, max(0.2, factor)), max_step), and
    # min(h_adaptive, t1 - t) above, as the builtins compare
    lines += ["        if enorm > 0.0 and enorm < inf:",
              "            factor = 0.9 * enorm ** -0.2",
              "            if not factor > 0.2:",
              "                factor = 0.2",
              "            elif not factor < 5.0:",
              "                factor = 5.0",
              "        elif enorm == 0.0:",
              "            factor = 5.0",
              "        else:",
              "            factor = 0.2",
              "        h_adaptive = h * factor",
              "        if max_step < h_adaptive:",
              "            h_adaptive = max_step",
              "        if enorm <= 1.0:",
              "            t_new = t1 if h >= t1 - t else t + h",
              "            if pts[i] <= t_new:"]
    # one polynomial y_i + c_i1 th + ... + c_i4 th^4 per step, by Horner
    for i in range(n):
        lines.append(f"                c{i}1 = h * p{i}")
        lines.extend(f"                c{i}{j} = h * (" + " + ".join(
            f"{w} * {k}{i}" for w, k in zip(weights, letters) if w) + ")"
            for j, weights in enumerate(_DP_EXTENSION, start=2))
    lines += ["                while pts[i] <= t_new:",
              "                    th = (pts[i] - t) / h",
              "                    times.append(pts[i])",
              "                    states += ("
              + ", ".join(f"y{i} + th * (c{i}1 + th * (c{i}2 + th * "
                          f"(c{i}3 + th * c{i}4)))" for i in range(n)) + ",)",
              "                    i += 1",
              "            stalled = t_new == t",
              # DP5's k7 is the next step's k1 (FSAL)
              "            t, y = t_new, x7",
              f"            {tup('y')[1:-1]}= {tup('o')[1:-1]}",
              f"            {tup('p')[1:-1]}= {tup('w')[1:-1]}",
              "        if h_adaptive < h_floor:",
              "            raise StepUnderflowError(",
              "                f'adaptive step underflow at t = {t}', t=t)",
              "        if enorm <= 1.0:",
              # a step below half the spacing of floats at t leaves t
              # unchanged; unless the controller grows the next one, t
              # stays there for good.  A rejected step leaves y as it
              # was, so only an accepted one can make it non-finite.
              "            if stalled and not h_adaptive > h:",
              "                raise StepUnderflowError(",
              "                    f'step {h!r} does not advance t = {t}', t=t)",
              "            if not ("
              + " and ".join(f"isfinite(y{i})" for i in range(n)) + "):",
              "                raise NonFiniteStateError(",
              "                    f'state became non-finite at t = {t}', t=t)",
              "            if not stalled and t < t1:",
              "                row_times.append(t)",
              "                row_states += y",
              "    row_times.append(t)",
              "    row_states += y",
              "    times.append(t)",
              "    states += y",
              "    return row_times, row_states, times, states"]
    exec(compile("\n".join(lines), f"<phytoperiod dp march, n = {n}"
                 f"{', variational' * variational}>", "exec"), namespace)
    march = _DP_MARCHES[n, variational] = namespace.pop("march")  # no cycle through its globals
    return march


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
