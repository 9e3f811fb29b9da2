"""Vector fields of the two-species competition model.

State conventions:

* original frame: x = (x1, x2), non-negative densities.  x1 is the
  toxin-producing species, x2 the species suppressed by it.
* log frame: z = (z1, z2) with z_i = ln x_i, unconstrained reals.
  Positivity of densities is automatic, which is why all periodic-orbit
  work happens here.

The dynamics in the original frame:

    x1' = r1(t) x1 (1 - x1/k1) - beta1(t) x1 x2
    x2' = r2(t) x2 (1/(1 + w1 x1) - x2/k2) - beta2(t) x1 x2 - w2 x1 x2^2

The factor 1/(1 + w1 x1) suppresses the growth of x2 in response to the
perceived presence of x1 (w1 >= 0 is the fear parameter); the w2 x1 x2^2
term models growth loss from toxins released by x1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import PeriodicCoefficient

__all__ = [
    "ModelParams",
    "DomainOverflowError",
    "rhs_original",
    "rhs_log",
    "jac_original",
    "jac_log",
    "averaged_residual",
    "averaged_jacobian",
]

# exp() overflows IEEE doubles just above this; rejected loudly instead of
# saturating so integrator failures carry a usable diagnostic.
_EXP_OVERFLOW = 709.0

_PERIOD_REL_TOL = 1e-9


class DomainOverflowError(ValueError):
    """A log-frame state maps to a non-representable density."""


@dataclass(frozen=True)
class ModelParams:
    """Full parameter bundle: four periodic rates plus scalar constants."""

    r1: PeriodicCoefficient
    r2: PeriodicCoefficient
    beta1: PeriodicCoefficient
    beta2: PeriodicCoefficient
    k1: float
    k2: float
    w1: float
    w2: float
    period: float

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("carrying capacities k1, k2 must be positive")
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("w1, w2 must be non-negative")
        if self.period <= 0:
            raise ValueError("period must be positive")
        for name in ("r1", "r2", "beta1", "beta2"):
            p = getattr(self, name).period
            if math.isinf(p):
                continue
            ratio = self.period / p
            if abs(ratio - round(ratio)) > _PERIOD_REL_TOL * max(1.0, ratio):
                raise ValueError(
                    f"coefficient {name} has period {p} which does not divide "
                    f"the common period {self.period}")

    def coefficients(self) -> dict[str, PeriodicCoefficient]:
        return {"r1": self.r1, "r2": self.r2,
                "beta1": self.beta1, "beta2": self.beta2}

    def means(self) -> tuple[float, float, float, float]:
        """(r1_bar, r2_bar, beta1_bar, beta2_bar) period averages."""
        return (self.r1.mean_value(), self.r2.mean_value(),
                self.beta1.mean_value(), self.beta2.mean_value())


def rhs_original(params: ModelParams, t: float, x) -> np.ndarray:
    """Time derivative (x1', x2') in the original frame."""
    x1, x2 = x
    r1 = params.r1(t)
    r2 = params.r2(t)
    b1 = params.beta1(t)
    b2 = params.beta2(t)
    dx1 = r1 * x1 * (1.0 - x1 / params.k1) - b1 * x1 * x2
    dx2 = (r2 * x2 * (1.0 / (1.0 + params.w1 * x1) - x2 / params.k2)
           - b2 * x1 * x2 - params.w2 * x1 * x2 * x2)
    return np.array([dx1, dx2])


def _exp_state(z):
    z1, z2 = float(z[0]), float(z[1])
    if z1 > _EXP_OVERFLOW or z2 > _EXP_OVERFLOW or not (
            math.isfinite(z1) and math.isfinite(z2)):
        raise DomainOverflowError(f"log state {z1, z2} overflows exp()")
    return math.exp(z1), math.exp(z2)


def rhs_log(params: ModelParams, t: float, z) -> np.ndarray:
    """Time derivative (z1', z2') in the log frame.

    Equals rhs_original(t, x)/x componentwise at x = exp(z).  Raises
    :class:`DomainOverflowError` when exp(z) is not representable.
    """
    u, v = _exp_state(z)
    r1 = params.r1(t)
    r2 = params.r2(t)
    b1 = params.beta1(t)
    b2 = params.beta2(t)
    dz1 = r1 * (1.0 - u / params.k1) - b1 * v
    dz2 = (r2 * (1.0 / (1.0 + params.w1 * u) - v / params.k2)
           - b2 * u - params.w2 * u * v)
    return np.array([dz1, dz2])


def jac_original(params: ModelParams, t: float, x) -> np.ndarray:
    """Analytic Jacobian of rhs_original with respect to (x1, x2)."""
    x1, x2 = x
    r1 = params.r1(t)
    r2 = params.r2(t)
    b1 = params.beta1(t)
    b2 = params.beta2(t)
    fear = 1.0 / (1.0 + params.w1 * x1)
    return np.array([
        [r1 * (1.0 - 2.0 * x1 / params.k1) - b1 * x2, -b1 * x1],
        [-r2 * x2 * params.w1 * fear * fear - b2 * x2 - params.w2 * x2 * x2,
         r2 * (fear - 2.0 * x2 / params.k2) - b2 * x1 - 2.0 * params.w2 * x1 * x2],
    ])


def jac_log(params: ModelParams, t: float, z) -> np.ndarray:
    """Analytic Jacobian of rhs_log with respect to (z1, z2).

    Hand-derived; the fear term differentiates as
    d/dz1 [r2 / (1 + w1 e^{z1})] = -r2 w1 e^{z1} / (1 + w1 e^{z1})^2.
    Cross-checked against central finite differences in the test suite.
    """
    u, v = _exp_state(z)
    r1 = params.r1(t)
    r2 = params.r2(t)
    b1 = params.beta1(t)
    b2 = params.beta2(t)
    fear = 1.0 / (1.0 + params.w1 * u)
    return np.array([
        [-r1 * u / params.k1, -b1 * v],
        [-r2 * params.w1 * u * fear * fear - b2 * u - params.w2 * u * v,
         -r2 * v / params.k2 - params.w2 * u * v],
    ])


def averaged_residual(params: ModelParams, z, mu: float = 1.0) -> np.ndarray:
    """Residual of the period-averaged algebraic system at log state z.

    With the period averages r1_bar, r2_bar, beta1_bar, beta2_bar and
    u = e^{z1}, v = e^{z2}:

        res1 = r1_bar - r1_bar u / k1 - beta1_bar v
        res2 = -r2_bar v / k2 - beta2_bar u - w2 u v
               + mu * r2_bar / (1 + w1 u)

    mu = 1 is the full averaged system; mu in [0, 1) interpolates to the
    reduced system whose fear-driven growth term is switched off.  The
    w2 term lives in the mu-independent part only, so that mu = 1
    reproduces the full system exactly.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    u, v = _exp_state(z)
    r1b, r2b, b1b, b2b = params.means()
    res1 = r1b - r1b * u / params.k1 - b1b * v
    res2 = (-r2b * v / params.k2 - b2b * u - params.w2 * u * v
            + mu * r2b / (1.0 + params.w1 * u))
    return np.array([res1, res2])


def averaged_jacobian(params: ModelParams, z, mu: float = 1.0) -> np.ndarray:
    """Analytic Jacobian of averaged_residual with respect to (z1, z2)."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    u, v = _exp_state(z)
    r1b, r2b, b1b, b2b = params.means()
    fear = 1.0 / (1.0 + params.w1 * u)
    return np.array([
        [-r1b * u / params.k1, -b1b * v],
        [-b2b * u - params.w2 * u * v - mu * r2b * params.w1 * u * fear * fear,
         -r2b * v / params.k2 - params.w2 * u * v],
    ])
