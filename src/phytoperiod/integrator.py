"""Time integration: fixed-step RK4 and adaptive Dormand-Prince 5(4).

The model is a smooth, mildly nonlinear planar system, so an embedded
explicit Runge-Kutta pair with per-step error control is entirely
adequate and keeps the runtime dependency-free.  The same stepping core
drives plain integration, the period-T flow map and the variational
(monodromy) equations.
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

# Dormand-Prince 5(4) tableau (propagates the 5th-order solution).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))

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


def _error_norm(err, y_old, y_new, abs_tol, rel_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.max(np.abs(err) / scale))


def integrate(field, t0: float, y0, t1: float, cfg: IntegratorConfig,
              t_eval=None, frame: str = "original") -> Trajectory:
    """Integrate y' = field(t, y) from t0 to t1.

    The final state lands exactly on t1 (steps are clipped).  If
    ``t_eval`` is given, the stepper additionally lands on each of those
    times and the returned trajectory contains exactly t0, the t_eval
    points and t1.  With ``cfg.dense_output`` every accepted internal
    step is recorded as well.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")

    stops = [t1]
    if t_eval is not None:
        pts = sorted(float(t) for t in t_eval)
        if pts and (pts[0] < t0 or pts[-1] > t1):
            raise ValueError("t_eval points must lie within [t0, t1]")
        stops = sorted(set(pts) | {t1})
        stops = [s for s in stops if s > t0]

    times = [t0]
    states = [y0.copy()]
    record_all = cfg.dense_output and t_eval is None

    t, y = t0, y0.copy()
    h_adaptive = None
    for stop in stops:
        while t < stop:
            if cfg.method == METHOD_RK4:
                h = min(cfg.step, stop - t)
                clipped = h >= stop - t
                y = _rk4_step(field, t, y, h)
                t = stop if clipped else t + h
                accepted = True
            else:
                if h_adaptive is None:
                    h_adaptive = (t1 - t0) * 1e-3
                    if cfg.max_step:
                        h_adaptive = min(h_adaptive, cfg.max_step)
                h = min(h_adaptive, stop - t)
                clipped = h >= stop - t
                y_new, err = _dp_step(field, t, y, h)
                enorm = _error_norm(err, y, y_new, cfg.abs_tol, cfg.rel_tol)
                if enorm <= 1.0:
                    t = stop if clipped else t + h
                    y = y_new
                    accepted = True
                else:
                    accepted = False
                # standard I-controller with safety factor and clamps; a
                # non-finite error estimate (NaN stages) forces a hard shrink
                if enorm > 0.0 and math.isfinite(enorm):
                    factor = 0.9 * enorm ** -0.2
                elif enorm == 0.0:
                    factor = 5.0
                else:
                    factor = 0.2
                h_adaptive = h * min(5.0, max(0.2, factor))
                if cfg.max_step:
                    h_adaptive = min(h_adaptive, cfg.max_step)
                if h_adaptive < _MIN_STEP_FACTOR * (t1 - t0):
                    raise StepUnderflowError(
                        f"adaptive step underflow at t = {t}", t=t)
            if not np.all(np.isfinite(y)):
                raise NonFiniteStateError(
                    f"state became non-finite at t = {t}", t=t)
            if accepted and record_all and t < stop:
                times.append(t)
                states.append(y.copy())
        times.append(t)
        states.append(y.copy())

    return Trajectory(frame, np.array(times), np.array(states))


def _rk4_step(field, t, y, h):
    k1 = field(t, y)
    k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = field(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp_step(field, t, y, h):
    k = []
    for i in range(7):
        yi = y
        for j, a in enumerate(_DP_A[i]):
            if a != 0.0:
                yi = yi + (h * a) * k[j]
        k.append(field(t + _DP_C[i] * h, yi))
    y_new = y
    for b, ki in zip(_DP_B5, k):
        if b != 0.0:
            y_new = y_new + (h * b) * ki
    err = np.zeros_like(y)
    for e, ki in zip(_DP_ERR, k):
        if e != 0.0:
            err = err + (h * e) * ki
    return y_new, err


def flow_map(params: ModelParams, z0, cfg: IntegratorConfig) -> np.ndarray:
    """State after one period: z(T) of the log-frame flow with z(0) = z0."""
    traj = integrate(lambda t, z: rhs_log(params, t, z),
                     0.0, z0, params.period, cfg, frame="log")
    return traj.final_state


def variational_flow(field, jac, t0: float, y0, t1: float,
                     cfg: IntegratorConfig):
    """Flow and fundamental matrix of an arbitrary planar field.

    Integrates the state together with Y' = J(t, y(t)) Y, Y(t0) = I and
    returns (y(t1), Y(t1)).
    """
    def augmented(t, w):
        y = w[:2]
        Y = w[2:].reshape(2, 2)
        dy = field(t, y)
        dY = jac(t, y) @ Y
        return np.concatenate([dy, dY.ravel()])

    w0 = np.concatenate([np.asarray(y0, dtype=float), np.eye(2).ravel()])
    traj = integrate(augmented, t0, w0, t1, cfg, frame="log")
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
