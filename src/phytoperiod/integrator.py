"""Time integration: fixed-step RK4 and adaptive Dormand-Prince 5(4).

The model is a smooth, mildly nonlinear planar system, so an embedded
explicit Runge-Kutta pair with per-step error control is entirely
adequate and keeps the runtime dependency-free.  The same stepping core
drives plain integration, the period-T flow map and the variational
(monodromy) equations; sampled output comes from each method's continuous
extension, so sampling never changes the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, jac_log, rhs_log

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

METHOD_RK4 = "rk4-fixed"
METHOD_RK45 = "rk45-adaptive"

# Dormand-Prince 5(4) tableau.  The 5th-order weights equal the last row
# of A, so the 7th stage is evaluated at the new solution and doubles as
# the next step's 1st stage (FSAL, "first same as last").
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
# error weights: 5th- minus 4th-order weights of the embedded pair
_E1 = _B1 - 5179 / 57600
_E3 = _B3 - 7571 / 16695
_E4 = _B4 - 393 / 640
_E5 = _B5 - -92097 / 339200
_E6 = _B6 - 187 / 2100
_E7 = -1 / 40
# Order-4 continuous extension (Shampine 1986; the coefficients of
# Hairer's dopri5): over a step of size h from y with stages k1..k7,
#   y(t + theta h) = y + h (k1 theta + X2 theta^2 + X3 theta^3 + X4 theta^4),
# where Xj is a weighted sum of k1, k3, k4, k5, k6, k7 (k2 has weight 0).
# At theta = 1 the weights sum to the 5th-order solution.
_X2 = (-8048581381 / 2820520608, 131558114200 / 32700410799,
       -1754552775 / 470086768, 127303824393 / 49829197408,
       -282668133 / 205662961, 40617522 / 29380423)
_X3 = (8663915743 / 2820520608, -68118460800 / 10900136933,
       14199869525 / 1410260304, -318862633887 / 49829197408,
       2019193451 / 616988883, -110615467 / 29380423)
_X4 = (-12715105075 / 11282082432, 87487479700 / 32700410799,
       -10690763975 / 1880347072, 701980252875 / 199316789632,
       -1453857185 / 822651844, 69997945 / 29380423)

_MIN_STEP_FACTOR = 1e-14  # underflow guard relative to the span


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
    """Stepper selection and accuracy knobs."""

    method: str = METHOD_RK45
    step: float = 1e-2          # fixed-step size (rk4-fixed only)
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float | None = None
    dense_output: bool = False

    def __post_init__(self):
        if self.method not in (METHOD_RK4, METHOD_RK45):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.step <= 0:
            raise ValueError("fixed step must be positive")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped state sequence in a declared coordinate frame."""

    frame: str                  # "original" or "log"
    times: np.ndarray
    states: np.ndarray          # shape (n, dim), aligned with times
    steps: Trajectory | None = None   # a sampled run's own rows

    def __post_init__(self):
        if self.frame not in ("original", "log"):
            raise ValueError(f"unknown frame {self.frame!r}")
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.shape[0] != t.shape[0]:
            raise ValueError("times and states must have matching lengths")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_original(self) -> "Trajectory":
        if self.frame == "original":
            return self
        return Trajectory("original", self.times, np.exp(self.states))


def integrate(field, t0: float, y0, t1: float, cfg: IntegratorConfig,
              t_eval=None, frame: str = "original") -> Trajectory:
    """Integrate y' = field(t, y) from t0 to t1.

    ``field(t, y)`` receives the state as a tuple of floats and may return
    any sequence of floats.  Only the last step is clipped, so the final
    state lands exactly on t1.  If ``t_eval`` is given, the returned
    trajectory contains exactly t0, the distinct t_eval points strictly
    inside (t0, t1) and t1.  Those points do not constrain the steps:
    each is evaluated from the continuous extension of the accepted step
    that contains it (order 4 for rk45-adaptive, order 3 for rk4-fixed),
    so a run takes the same steps, and ends in the same state, with or
    without ``t_eval``.  The run's own rows are t0, every accepted step
    if ``cfg.dense_output`` is set, and t1; they are the result without
    ``t_eval`` and the result's ``steps`` with it.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
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
    i = 0

    t, y = t0, tuple(y0.tolist())
    times, states = [t], [y]            # samples
    step_times, step_states = [t], [y]  # the run's own rows
    rk4 = cfg.method == METHOD_RK4
    extension = _rk4_extension if rk4 else _dp_extension
    abs_tol, rel_tol, max_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step
    h_floor = _MIN_STEP_FACTOR * (t1 - t0)
    h_adaptive = (t1 - t0) * 1e-3
    if max_step:
        h_adaptive = min(h_adaptive, max_step)
    if not (rk4 or h_adaptive > 0.0):
        raise StepUnderflowError(f"first step underflows at t = {t0}", t=t0)
    k1 = None if rk4 else field(t, y)   # field(t, y), kept across steps (FSAL)
    while t < t1:
        if rk4:
            h = min(cfg.step, t1 - t)
            y_new, stages = _rk4_step(field, t, y, h)
            accepted = True
        else:
            h = min(h_adaptive, t1 - t)
            y_new, err, stages = _dp_step(field, t, y, h, k1)
            # max-norm of err / (abs_tol + rel_tol max(|y|, |y_new|));
            # a NaN ratio is kept, so it rejects the step below
            enorm = 0.0
            for e, a, b in zip(err, y, y_new):
                r = abs(e) / (abs_tol + rel_tol * max(abs(a), abs(b)))
                if not r <= enorm:
                    enorm = r
                    if r != r:
                        break
            accepted = enorm <= 1.0
        if accepted:
            t_new = t1 if h >= t1 - t else t + h
            if pts[i] <= t_new:
                # one polynomial per step, evaluated by Horner per point
                poly = extension(y, h, *stages)
                while pts[i] <= t_new:
                    p = pts[i]
                    th = (p - t) / h
                    times.append(p)
                    states.append(tuple(
                        c0 + th * (c1 + th * (c2 + th * (c3 + th * c4)))
                        for c0, c1, c2, c3, c4 in poly))
                    i += 1
            t, y = t_new, y_new
            k1 = stages[-1]     # DP5's k7 is the next step's k1 (FSAL)
        if not rk4:
            # standard I-controller with safety factor and clamps; a
            # non-finite error estimate (NaN stages) forces a hard shrink
            if enorm > 0.0 and math.isfinite(enorm):
                factor = 0.9 * enorm ** -0.2
            elif enorm == 0.0:
                factor = 5.0
            else:
                factor = 0.2
            h_adaptive = h * min(5.0, max(0.2, factor))
            if max_step:
                h_adaptive = min(h_adaptive, max_step)
            if h_adaptive < h_floor:
                raise StepUnderflowError(
                    f"adaptive step underflow at t = {t}", t=t)
        if not all(map(math.isfinite, y)):
            raise NonFiniteStateError(
                f"state became non-finite at t = {t}", t=t)
        if accepted and cfg.dense_output and t < t1:
            step_times.append(t)
            step_states.append(y)
    steps = Trajectory(frame, np.array(step_times + [t]),
                       np.array(step_states + [y]))
    if t_eval is None:
        return steps
    return Trajectory(frame, np.array(times + [t]), np.array(states + [y]),
                      steps)


def _rk4_step(field, t, y, h):
    """One classical RK4 step; returns (y_new, (k1, k2, k3, k4))."""
    hh = 0.5 * h
    k1 = field(t, y)
    k2 = field(t + hh, tuple(yi + hh * p for yi, p in zip(y, k1)))
    k3 = field(t + hh, tuple(yi + hh * q for yi, q in zip(y, k2)))
    k4 = field(t + h, tuple(yi + h * r for yi, r in zip(y, k3)))
    h6 = h / 6.0
    y_new = tuple(yi + h6 * (p + 2.0 * q + 2.0 * r + s)
                  for yi, p, q, r, s in zip(y, k1, k2, k3, k4))
    return y_new, (k1, k2, k3, k4)


def _rk4_extension(y, h, k1, k2, k3, k4):
    """Order-3 continuous extension of one RK4 step (Hairer-Norsett-Wanner,
    Solving ODEs I, II.6): weights theta - 3 theta^2/2 + 2 theta^3/3 for k1,
    theta^2 - 2 theta^3/3 for k2 and k3, -theta^2/2 + 2 theta^3/3 for k4.

    Returns per component the power-basis coefficients (c0, ..., c4) of
    y(t + theta h); c4 is 0.
    """
    h23 = h * (2.0 / 3.0)
    return [(yi, h * p, h * (q + r - 1.5 * p - 0.5 * s),
             h23 * (p - q - r + s), 0.0)
            for yi, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _dp_step(field, t, y, h, k1):
    """One Dormand-Prince step from (t, y), given k1 = field(t, y).

    Returns (y_new, err, stages) with stages = (k1, k3, k4, k5, k6, k7),
    the stages the continuous extension uses, and k7 = field(t + h, y_new).
    Each stage sum runs left to right over plain floats.
    """
    a = h * _A21
    k2 = field(t + _C2 * h, tuple(yi + a * p for yi, p in zip(y, k1)))
    a1, a2 = h * _A31, h * _A32
    k3 = field(t + _C3 * h, tuple(yi + a1 * p + a2 * q
                                  for yi, p, q in zip(y, k1, k2)))
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    k4 = field(t + _C4 * h, tuple(yi + a1 * p + a2 * q + a3 * r
                                  for yi, p, q, r in zip(y, k1, k2, k3)))
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = field(t + _C5 * h, tuple(yi + a1 * p + a2 * q + a3 * r + a4 * s
                                  for yi, p, q, r, s in zip(y, k1, k2, k3, k4)))
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = field(t + h, tuple(yi + a1 * p + a2 * q + a3 * r + a4 * s + a5 * u
                            for yi, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)))
    b1, b3, b4, b5, b6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    y_new = tuple(yi + b1 * p + b3 * r + b4 * s + b5 * u + b6 * v
                  for yi, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6))
    k7 = field(t + h, y_new)
    e1, e3, e4, e5, e6, e7 = (h * _E1, h * _E3, h * _E4, h * _E5, h * _E6,
                              h * _E7)
    err = tuple(e1 * p + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w
                for p, r, s, u, v, w in zip(k1, k3, k4, k5, k6, k7))
    return y_new, err, (k1, k3, k4, k5, k6, k7)


def _dp_extension(y, h, k1, k3, k4, k5, k6, k7):
    """Order-4 continuous extension of one Dormand-Prince step.

    Returns per component the power-basis coefficients (c0, ..., c4) of
    y(t + theta h), theta in [0, 1].
    """
    a1, a3, a4, a5, a6, a7 = _X2
    b1, b3, b4, b5, b6, b7 = _X3
    d1, d3, d4, d5, d6, d7 = _X4
    return [(yi, h * p,
             h * (a1 * p + a3 * r + a4 * s + a5 * u + a6 * v + a7 * w),
             h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * v + b7 * w),
             h * (d1 * p + d3 * r + d4 * s + d5 * u + d6 * v + d7 * w))
            for yi, p, r, s, u, v, w in zip(y, k1, k3, k4, k5, k6, k7)]


def flow_map(params: ModelParams, z0, cfg: IntegratorConfig) -> np.ndarray:
    """State after one period: z(T) of the log-frame flow with z(0) = z0."""
    traj = integrate(lambda t, z: rhs_log(params, t, z),
                     0.0, z0, params.period, cfg, frame="log")
    return traj.final_state


def variational_flow(field, jac, t0: float, y0, t1: float,
                     cfg: IntegratorConfig):
    """Flow and fundamental matrix of an arbitrary planar field.

    Integrates the state together with Y' = J(t, y(t)) Y, Y(t0) = I and
    returns (y(t1), Y(t1)).  ``jac(t, y)`` returns the rows of J.
    """
    def augmented(t, w):
        y = w[:2]
        dy1, dy2 = field(t, y)
        (j11, j12), (j21, j22) = jac(t, y)
        y11, y12, y21, y22 = w[2:]
        return (dy1, dy2,
                j11 * y11 + j12 * y21, j11 * y12 + j12 * y22,
                j21 * y11 + j22 * y21, j21 * y12 + j22 * y22)

    y1, y2 = y0
    traj = integrate(augmented, t0, (y1, y2, 1.0, 0.0, 0.0, 1.0), t1, cfg,
                     frame="log")
    wT = traj.final_state
    return wT[:2], wT[2:].reshape(2, 2)


def flow_and_monodromy(params: ModelParams, z0, cfg: IntegratorConfig):
    """State and fundamental matrix after one period of the log-frame
    flow: (z(T), M) from one augmented integration with z(0) = z0."""
    return variational_flow(lambda t, z: rhs_log(params, t, z),
                            lambda t, z: jac_log(params, t, z),
                            0.0, z0, params.period, cfg)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export: header t,x1,x2 (or t,z1,z2), 17 significant digits."""
    names = ("x1", "x2") if traj.frame == "original" else ("z1", "z2")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"t,{names[0]},{names[1]}\n")
        for t, s in zip(traj.times, traj.states):
            fh.write(f"{t:.17g},{s[0]:.17g},{s[1]:.17g}\n")
