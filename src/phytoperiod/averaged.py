"""Roots of the period-averaged algebraic system.

Replacing every periodic rate by its period average turns the search
for periodic solutions into a two-equation algebraic problem in the log
densities.  This module solves it with a damped Newton iteration and
also evaluates a pair of closed-form candidate expressions for the
"mu = 0" reduction of the system, which drops the fear-driven growth
term r2_bar / (1 + w1 u) of the second equation.

That reduction deserves a warning: its second equation is a sum of
strictly negative terms whenever the averaged rates are positive, so it
has no real root at all.  The closed-form expressions are therefore
evaluated and validity-checked, but never asserted to solve it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import (DomainOverflowError, ModelParams, averaged_jacobian,
                    averaged_rates, averaged_residual)

__all__ = [
    "ClosedFormResult",
    "AveragedSolveError",
    "NoPositiveSolutionError",
    "solve_averaged",
    "closed_form_mu0",
    "grid_scan",
]

_MAX_HALVINGS = 20
_SOLVE_TOL = 1e-13            # max-norm of the averaged residual at a root
_SOLVE_MAX_ITER = 60
_GRID_RANGE = (-25.0, 3.0)    # log densities scanned by grid_scan, both axes
_GRID_POINTS = 200            # per axis


class AveragedSolveError(RuntimeError):
    def __init__(self, message: str, z_last=None, residual=None):
        super().__init__(message)
        self.z_last = None if z_last is None else np.asarray(z_last, dtype=float)
        self.residual = residual


class NoPositiveSolutionError(AveragedSolveError):
    """The averaged system has no root with positive densities."""


def solve_averaged(params: ModelParams, guess) -> np.ndarray:
    """Damped Newton on the averaged residual; returns the root, where the
    residual's max-norm is below 1e-13.

    The step is halved (up to 20 times) until the residual norm
    decreases, which tames overshoot caused by the exp nonlinearity.
    When no term of the second residual component can be positive and
    one is negative, no root exists, and :class:`NoPositiveSolutionError`
    is raised up front; a stall with a negative second component is
    reported the same way.
    """
    _, r2b, _, b2b = params.means()
    # the terms of res2 have the signs of r2b, -r2b, -b2b and -w2
    if r2b == 0.0 and b2b >= 0.0 and (b2b > 0.0 or params.w2 > 0.0):
        raise NoPositiveSolutionError(
            "second averaged equation is a sum of strictly negative terms; "
            "no real root exists", z_last=guess, residual=None)

    z = np.asarray(guess, dtype=float)
    res = averaged_residual(params, z)
    rnorm = float(np.max(np.abs(res)))
    for _ in range(_SOLVE_MAX_ITER):
        if rnorm < _SOLVE_TOL:
            return z
        J = averaged_jacobian(params, z)
        try:
            dz = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            raise AveragedSolveError("singular Jacobian in averaged solve",
                                     z_last=z, residual=rnorm)
        s = 1.0
        for _ in range(_MAX_HALVINGS):
            z_try = z + s * dz
            try:
                res_try = averaged_residual(params, z_try)
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
    if rnorm < _SOLVE_TOL:
        return z
    raise AveragedSolveError(
        f"no convergence in {_SOLVE_MAX_ITER} iterations (residual {rnorm:.3e})",
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
        return asdict(self)


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


def grid_scan(params: ModelParams):
    """Brute-force bracket of the averaged system over a log-space grid.

    Returns (z_best, residual_norm_best, cell_size).  Deliberately dumb:
    direct evaluation on a 200 x 200 grid over [-25, 3]^2, no solver
    involved, so it serves as an independent check on (and diagnosis
    for) the Newton path.
    """
    zs = np.linspace(*_GRID_RANGE, _GRID_POINTS)
    Z1, Z2 = np.meshgrid(zs, zs, indexing="ij")
    R1, R2 = averaged_rates(params, np.exp(Z1), np.exp(Z2))
    norms = np.maximum(np.abs(R1), np.abs(R2))
    i, j = np.unravel_index(int(np.argmin(norms)), norms.shape)
    return np.array([zs[i], zs[j]]), float(norms[i, j]), float(zs[1] - zs[0])
