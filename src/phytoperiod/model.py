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
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .coefficients import PeriodicCoefficient

__all__ = [
    "ModelParams",
    "DomainOverflowError",
    "rhs_original",
    "rhs_log",
    "jac_original",
    "jac_log",
    "averaged_rates",
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
        for name in ("k1", "k2", "w1", "w2", "period"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
            if (round(ratio) < 1 or abs(ratio - round(ratio))
                    > _PERIOD_REL_TOL * max(1.0, ratio)):
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

    @cached_property
    def _kernels(self) -> _Kernels:
        """The field kernels, built on first use.  The instance is frozen,
        so they never go stale; ``dataclasses.replace`` builds new ones."""
        rates = _rate_kernel((self.r1, self.r2, self.beta1, self.beta2))
        return _field_kernels(rates, self.k1, self.k2, self.w1, self.w2)

    def __getstate__(self):
        # pickle and copy the fields only; the kernels are rebuilt on use
        return {f.name: getattr(self, f.name) for f in fields(self)}


def rhs_original(params: ModelParams, t: float, x) -> tuple[float, float]:
    """Time derivative (x1', x2') in the original frame."""
    return params._kernels.rhs_original(t, x)


def rhs_log(params: ModelParams, t: float, z) -> tuple[float, float]:
    """Time derivative (z1', z2') in the log frame.

    Equals rhs_original(t, x)/x componentwise at x = exp(z).  Raises
    :class:`DomainOverflowError` when exp(z) is not representable.
    """
    return params._kernels.rhs_log(t, z)


def jac_original(params: ModelParams, t: float, x):
    """Analytic Jacobian of rhs_original with respect to (x1, x2), as the
    row tuples ((J11, J12), (J21, J22))."""
    return params._kernels.jac_original(t, x)


def jac_log(params: ModelParams, t: float, z):
    """Analytic Jacobian of rhs_log with respect to (z1, z2), as row tuples.

    Hand-derived; the fear term differentiates as
    d/dz1 [r2 / (1 + w1 e^{z1})] = -r2 w1 e^{z1} / (1 + w1 e^{z1})^2.
    Cross-checked against central finite differences in the test suite.
    """
    return params._kernels.jac_log(t, z)


def _exp_state(z):
    z1, z2 = float(z[0]), float(z[1])
    if z1 > _EXP_OVERFLOW or z2 > _EXP_OVERFLOW or not (
            math.isfinite(z1) and math.isfinite(z2)):
        raise DomainOverflowError(f"log state {z1, z2} overflows exp()")
    return math.exp(z1), math.exp(z2)


_Kernels = namedtuple("_Kernels", "rhs_log jac_log rhs_original jac_original")


def _field_kernels(rates, k1, k2, w1, w2) -> _Kernels:
    """The four fields with the constants bound, on top of the rate kernel
    ``rates(t) -> (r1, r2, beta1, beta2)``.  Every expression keeps the
    operation order of the model equations."""

    def rhs_log(t, z):
        u, v = _exp_state(z)
        r1, r2, b1, b2 = rates(t)
        return (r1 * (1.0 - u / k1) - b1 * v,
                r2 * (1.0 / (1.0 + w1 * u) - v / k2) - b2 * u - w2 * u * v)

    def jac_log(t, z):
        u, v = _exp_state(z)
        r1, r2, b1, b2 = rates(t)
        fear = 1.0 / (1.0 + w1 * u)
        return (
            (-r1 * u / k1, -b1 * v),
            (-r2 * w1 * u * fear * fear - b2 * u - w2 * u * v,
             -r2 * v / k2 - w2 * u * v),
        )

    def rhs_original(t, x):
        x1, x2 = x
        r1, r2, b1, b2 = rates(t)
        return (r1 * x1 * (1.0 - x1 / k1) - b1 * x1 * x2,
                r2 * x2 * (1.0 / (1.0 + w1 * x1) - x2 / k2)
                - b2 * x1 * x2 - w2 * x1 * x2 * x2)

    def jac_original(t, x):
        x1, x2 = x
        r1, r2, b1, b2 = rates(t)
        fear = 1.0 / (1.0 + w1 * x1)
        return (
            (r1 * (1.0 - 2.0 * x1 / k1) - b1 * x2, -b1 * x1),
            (-r2 * x2 * w1 * fear * fear - b2 * x2 - w2 * x2 * x2,
             r2 * (fear - 2.0 * x2 / k2) - b2 * x1 - 2.0 * w2 * x1 * x2),
        )

    return _Kernels(rhs_log, jac_log, rhs_original, jac_original)


def _rate_kernel(coefficients):
    """Compile ``t -> tuple(c(t) for c in coefficients)`` into one function.

    Constants become bound floats, and each distinct sinusoid argument
    (omega, phase) and Fourier frequency k*omega is evaluated once per
    call, however many coefficients share it.  Every expression keeps the
    operation order of :meth:`PeriodicCoefficient.__call__`, so the values
    are the same to the last bit.  Floats reach the function through its
    namespace, never through its source text.
    """
    namespace = {"sin": math.sin, "cos": math.cos}
    names = {}          # float.hex() of a bound value -> its name
    lines = ["def rates(t):"]
    shared = {}         # subexpression -> local name

    def bind(value: float) -> str:
        name = names.setdefault(value.hex(), f"c{len(names)}")
        namespace[name] = value
        return name

    def once(expression: str) -> str:
        if expression not in shared:
            shared[expression] = f"s{len(shared)}"
            lines.append(f"    {shared[expression]} = {expression}")
        return shared[expression]

    def rate(c: PeriodicCoefficient) -> str:
        if c.kind == "constant":
            return bind(c.mean)
        if c.kind == "sinusoid":
            s = once(f"sin({bind(c.omega)} * t + {bind(c.phase)})")
            return f"{bind(c.mean)} + {bind(c.amplitude)} * {s}"
        terms = [bind(c.mean)]
        for k, (a, b) in enumerate(c.harmonics, start=1):
            kwt = once(f"{bind(k * c.omega)} * t")
            terms.append(f"{bind(a)} * {once(f'cos({kwt})')}")
            terms.append(f"{bind(b)} * {once(f'sin({kwt})')}")
        return " + ".join(terms)

    values = [rate(c) for c in coefficients]
    lines.append(f"    return ({', '.join(values)},)")
    exec(compile("\n".join(lines), "<phytoperiod rate kernel>", "exec"), namespace)
    return namespace.pop("rates")  # no cycle through its own globals


def averaged_rates(params: ModelParams, u, v):
    """Period-averaged log-frame rates (g1, g2) at densities u = x1, v = x2.

    With the period averages r1_bar, r2_bar, beta1_bar, beta2_bar:

        g1 = r1_bar - r1_bar u / k1 - beta1_bar v
        g2 = r2_bar / (1 + w1 u) - r2_bar v / k2 - beta2_bar u - w2 u v

    u and v may be floats or numpy arrays.  The roots of (g1, g2) are the
    equilibria of the averaged system; on a boundary state they are the
    invasion rates of the absent species.
    """
    r1b, r2b, b1b, b2b = params.means()
    return (r1b - r1b * u / params.k1 - b1b * v,
            -r2b * v / params.k2 - b2b * u - params.w2 * u * v
            + r2b / (1.0 + params.w1 * u))


def averaged_jacobian(params: ModelParams, z) -> np.ndarray:
    """Analytic Jacobian of :func:`averaged_rates` at u = e^{z1}, v = e^{z2}
    with respect to (z1, z2)."""
    u, v = _exp_state(z)
    r1b, r2b, b1b, b2b = params.means()
    fear = 1.0 / (1.0 + params.w1 * u)
    return np.array([
        [-r1b * u / params.k1, -b1b * v],
        [-b2b * u - params.w2 * u * v - r2b * params.w1 * u * fear * fear,
         -r2b * v / params.k2 - params.w2 * u * v],
    ])
