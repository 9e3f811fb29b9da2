"""Roots of the period-averaged algebraic system.

Replacing every periodic rate by its period average turns the search
for periodic solutions into a two-equation algebraic problem in the log
densities.  This module solves it with a damped Newton iteration and
also evaluates a pair of closed-form candidate expressions for the
mu = 0 reduction of the system.

The mu = 0 reduction itself deserves a warning: its second equation is
a sum of strictly negative terms whenever the averaged rates are
positive, so it has no real root at all.  The closed-form expressions
are therefore evaluated and validity-checked, but never asserted to
solve that reduction; ``solve_averaged`` detects the no-root situation
and raises a dedicated error instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DomainOverflowError, ModelParams, averaged_jacobian,
                    averaged_residual)

__all__ = [
    "ClosedFormResult",
    "AveragedSolveError",
    "NoPositiveSolutionError",
    "solve_averaged",
    "closed_form_mu0",
    "grid_scan",
]

_MAX_HALVINGS = 20


class AveragedSolveError(RuntimeError):
    def __init__(self, message: str, z_last=None, residual=None):
        super().__init__(message)
        self.z_last = None if z_last is None else np.asarray(z_last, dtype=float)
        self.residual = residual


class NoPositiveSolutionError(AveragedSolveError):
    """The averaged system has no root with positive densities."""


def solve_averaged(params: ModelParams, mu: float, guess,
                   tol: float = 1e-13, max_iter: int = 60) -> np.ndarray:
    """Damped Newton on the averaged residual; returns the root.

    The step is halved (up to 20 times) until the residual norm
    decreases, which tames overshoot caused by the exp nonlinearity.  A
    stall with a negative second residual component is reported as
    :class:`NoPositiveSolutionError`: every term of that component is
    then negative for all real states, so no root exists.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    r1b, r2b, b1b, b2b = params.means()
    # mu = 0 with positive rates kills every positive term of res2
    if mu * r2b <= 0.0 and (r2b > 0 or b2b > 0 or params.w2 > 0):
        raise NoPositiveSolutionError(
            "second averaged equation is a sum of strictly negative terms; "
            "no real root exists", z_last=guess, residual=None)

    z = np.asarray(guess, dtype=float)
    res = averaged_residual(params, z, mu)
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm < tol:
            return z
        J = averaged_jacobian(params, z, mu)
        try:
            dz = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            raise AveragedSolveError("singular Jacobian in averaged solve",
                                     z_last=z, residual=rnorm)
        s = 1.0
        for _ in range(_MAX_HALVINGS):
            z_try = z + s * dz
            try:
                res_try = averaged_residual(params, z_try, mu)
            except DomainOverflowError:
                s *= 0.5
                continue
            r_try = float(np.max(np.abs(res_try)))
            if r_try < rnorm:
                break
            s *= 0.5
        else:
            if res[1] < 0.0:
                raise NoPositiveSolutionError(
                    f"residual stalled at {rnorm:.3e} with negative second "
                    "component; no positive root along this path",
                    z_last=z, residual=rnorm)
            raise AveragedSolveError(
                f"damped Newton stalled at residual {rnorm:.3e}",
                z_last=z, residual=rnorm)
        z, res, rnorm = z_try, res_try, r_try
    if rnorm < tol:
        return z
    raise AveragedSolveError(
        f"no convergence in {max_iter} iterations (residual {rnorm:.3e})",
        z_last=z, residual=rnorm)


@dataclass(frozen=True)
class ClosedFormResult:
    """Evaluation of the closed-form mu=0 candidate expressions.

    ``arg1``/``arg2`` are the logarithm arguments; ``z1``/``z2`` are
    their logs where defined (NaN otherwise); ``valid`` means both
    arguments were positive.
    """

    z1: float
    z2: float
    arg1: float
    arg2: float
    valid: bool

    def to_dict(self) -> dict:
        return {"z1": self.z1, "z2": self.z2,
                "arg1": self.arg1, "arg2": self.arg2, "valid": self.valid}


def closed_form_mu0(params: ModelParams) -> ClosedFormResult:
    """Evaluate the printed closed-form candidate root of the reduction.

        z1* = ln( (k1/r1b) (r1b - k1 k2 r1b b1b b2b / D) )
        z2* = ln( k1 k2 r1b b2b / D ),   D = b1b b2b k1 k2 - r1b r2b

    Raises ZeroDivisionError when D = 0.  The expressions are recorded
    artifacts: they are evaluated and validity-checked, not trusted.
    """
    r1b, r2b, b1b, b2b = params.means()
    denom = b1b * b2b * params.k1 * params.k2 - r1b * r2b
    if denom == 0.0:
        raise ZeroDivisionError(
            "closed-form denominator b1b*b2b*k1*k2 - r1b*r2b is zero")
    arg1 = (params.k1 / r1b) * (r1b - params.k1 * params.k2 * r1b * b1b * b2b / denom)
    arg2 = params.k1 * params.k2 * r1b * b2b / denom
    z1 = math.log(arg1) if arg1 > 0 else math.nan
    z2 = math.log(arg2) if arg2 > 0 else math.nan
    return ClosedFormResult(z1=z1, z2=z2, arg1=arg1, arg2=arg2,
                            valid=arg1 > 0 and arg2 > 0)


def grid_scan(params: ModelParams, mu: float = 1.0,
              z1_range: tuple[float, float] = (-25.0, 3.0),
              z2_range: tuple[float, float] = (-25.0, 3.0),
              n: int = 200):
    """Brute-force bracket of the averaged system over a log-space grid.

    Returns (z_best, residual_norm_best, cell_size).  Deliberately dumb:
    direct evaluation on an n x n grid, no solver involved, so it serves
    as an independent check on (and diagnosis for) the Newton path.
    """
    z1s = np.linspace(*z1_range, n)
    z2s = np.linspace(*z2_range, n)
    Z1, Z2 = np.meshgrid(z1s, z2s, indexing="ij")
    U, V = np.exp(Z1), np.exp(Z2)
    r1b, r2b, b1b, b2b = params.means()
    R1 = r1b - r1b * U / params.k1 - b1b * V
    R2 = (-r2b * V / params.k2 - b2b * U - params.w2 * U * V
          + mu * r2b / (1.0 + params.w1 * U))
    norms = np.maximum(np.abs(R1), np.abs(R2))
    i, j = np.unravel_index(int(np.argmin(norms)), norms.shape)
    cell = max(z1s[1] - z1s[0], z2s[1] - z2s[0])
    return np.array([z1s[i], z2s[j]]), float(norms[i, j]), float(cell)
