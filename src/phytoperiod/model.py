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
from functools import cached_property, lru_cache
from itertools import count

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
        return self.r1.mean, self.r2.mean, self.beta1.mean, self.beta2.mean

    @cached_property
    def _kernels(self) -> _Kernels:
        """The field kernels, built on first use.  The instance is frozen,
        so they never go stale; ``dataclasses.replace`` builds new ones."""
        return _field_kernels(self)

    def __getstate__(self):
        # pickle and copy the fields only; the kernels are rebuilt on use
        return {f.name: getattr(self, f.name) for f in fields(self)}


def rhs_original(params: ModelParams, t: float, x) -> tuple[float, float]:
    """Time derivative (x1', x2') in the original frame."""
    return params._kernels.rhs_original(t, x)


def rhs_log(params: ModelParams, t: float, z) -> tuple[float, float]:
    """Time derivative (z1', z2') in the log frame.

    Equals rhs_original(t, x)/x componentwise at x = exp(z).  Raises
    :class:`DomainOverflowError` when exp(z) is not representable.  Reuses
    the stage of a ``jac_log`` call at the same float t and an equal z.
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


_Kernels = namedtuple("_Kernels", "rhs_log jac_log rhs_original jac_original")

# The four fields, with the rates as the locals r1, r2, b1, b2 and the
# constants as the globals k1, k2, w1, w2.  Every expression keeps the
# operation order of the model equations.  The log frame maps z to
# densities behind the one exp guard of the package: one chained
# comparison per component rejects NaN, -inf and everything above the
# overflow limit, +inf included.  The literal 1e309 is past the float
# range, so it compiles to the constant inf.  The message converts each
# component, since numpy 2 reprs its scalars as np.float64(...).  One
# tuple, ``stage``, is stored and read in one step (no two threads mix
# stages); fear and uvw are rhs_log's own subexpressions, so reuse is exact.
# Only a float t is stored: rhs_log matches t by identity, and a float,
# unlike a 0-d array, cannot change between the two calls.
_LOG_STATE = f"""\
    if not (-1e309 < z1 <= {_EXP_OVERFLOW!r}
            and -1e309 < z2 <= {_EXP_OVERFLOW!r}):
        raise DomainOverflowError(
            f"log state {{float(z1), float(z2)}} overflows exp()")
    u, v = exp(z1), exp(z2)"""

_FIELDS = """\
def rhs_log(t, z):
    z1, z2 = z
    last = stage
    if last[0] is t and last[1] == z1 and last[2] == z2:
        _, _, _, u, v, r1, r2, b1, b2, fear, uvw = last
        return (r1 * (1.0 - u / k1) - b1 * v,
                r2 * (fear - v / k2) - b2 * u - uvw)
{log_state}
{rates}
    return (r1 * (1.0 - u / k1) - b1 * v,
            r2 * (1.0 / (1.0 + w1 * u) - v / k2) - b2 * u - w2 * u * v)

def jac_log(t, z):
    global stage
    z1, z2 = z
{log_state}
{rates}
    fear = 1.0 / (1.0 + w1 * u)
    uvw = w2 * u * v
    if type(t) is float:
        stage = (t, z1, z2, u, v, r1, r2, b1, b2, fear, uvw)
    return (
        (-r1 * u / k1, -b1 * v),
        (-r2 * w1 * u * fear * fear - b2 * u - uvw, -r2 * v / k2 - uvw),
    )

def rhs_original(t, x):
    x1, x2 = x
{rates}
    return (r1 * x1 * (1.0 - x1 / k1) - b1 * x1 * x2,
            r2 * x2 * (1.0 / (1.0 + w1 * x1) - x2 / k2)
            - b2 * x1 * x2 - w2 * x1 * x2 * x2)

def jac_original(t, x):
    x1, x2 = x
{rates}
    fear = 1.0 / (1.0 + w1 * x1)
    return (
        (r1 * (1.0 - 2.0 * x1 / k1) - b1 * x2, -b1 * x1),
        (-r2 * x2 * w1 * fear * fear - b2 * x2 - w2 * x2 * x2,
         r2 * (fear - 2.0 * x2 / k2) - b2 * x1 - 2.0 * w2 * x1 * x2),
    )
"""


@lru_cache(maxsize=256)
def _field_code(source: str):
    """The compiled field source.  The text depends on the kinds of the
    rates, their numbers of harmonics and which arguments they share,
    never on a value, so parameter sets of one shape share one entry."""
    return compile(source, "<phytoperiod field kernels>", "exec")


def _field_kernels(params: ModelParams) -> _Kernels:
    """Generate the four fields of ``params`` as straight-line functions.

    Each body evaluates the rates r1, r2, beta1, beta2 inline: constants
    are bound floats, and each distinct sinusoid argument (omega, phase)
    and Fourier frequency k*omega is evaluated once per call, however
    many rates share it.  The rate expressions keep the operation order
    of :meth:`PeriodicCoefficient.__call__`, so the values are the same
    to the last bit.  Every float reaches the functions through their
    namespace, never through the source text, so the code is compiled
    once per distinct text and each instance costs one ``exec``.
    """
    namespace = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
                 "DomainOverflowError": DomainOverflowError,
                 "stage": (None,) * 11, "k1": params.k1, "k2": params.k2,
                 "w1": params.w1, "w2": params.w2}
    lines = []
    shared = {}     # (function, bit patterns of its argument) -> local name
    counter = count()

    def bind(value: float) -> str:
        name = f"c{next(counter)}"
        namespace[name] = value
        return name

    def once(key, expression) -> str:
        # expression() writes the subexpression the first time key is seen
        if key not in shared:
            shared[key] = f"s{len(shared)}"
            lines.append(f"    {shared[key]} = {expression()}")
        return shared[key]

    def rate(c: PeriodicCoefficient) -> str:
        if c.kind == "constant":
            return bind(c.mean)
        if c.kind == "sinusoid":
            s = once(("sin", c.omega.hex(), c.phase.hex()),
                     lambda: f"sin({bind(c.omega)} * t + {bind(c.phase)})")
            return f"{bind(c.mean)} + {bind(c.amplitude)} * {s}"
        terms = [bind(c.mean)]
        for k, (a, b) in enumerate(c.harmonics, start=1):
            kw = k * c.omega
            kwt = once(("*", kw.hex()), lambda: f"{bind(kw)} * t")
            cos_kwt = once(("cos", kw.hex()), lambda: f"cos({kwt})")
            sin_kwt = once(("sin", kw.hex()), lambda: f"sin({kwt})")
            terms += [f"{bind(a)} * {cos_kwt}", f"{bind(b)} * {sin_kwt}"]
        return " + ".join(terms)

    values = [rate(c) for c in params.coefficients().values()]
    lines.extend(f"    {name} = {value}"
                 for name, value in zip(("r1", "r2", "b1", "b2"), values))
    source = _FIELDS.format(log_state=_LOG_STATE, rates="\n".join(lines))
    exec(_field_code(source), namespace)
    # no cycle from the functions through their own globals
    return _Kernels(*(namespace.pop(name) for name in _Kernels._fields))


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


def averaged_jacobian(params: ModelParams, u: float, v: float):
    """Analytic Jacobian of :func:`averaged_rates` with respect to
    (ln u, ln v) at densities u = x1, v = x2, as row tuples."""
    r1b, r2b, b1b, b2b = params.means()
    fear = 1.0 / (1.0 + params.w1 * u)
    return (
        (-r1b * u / params.k1, -b1b * v),
        (-b2b * u - params.w2 * u * v - r2b * params.w1 * u * fear * fear,
         -r2b * v / params.k2 - params.w2 * u * v),
    )
