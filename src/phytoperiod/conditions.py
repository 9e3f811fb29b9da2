"""Sufficient-condition checker and a priori bound ladder.

Given the coefficient extrema over a chosen interval, three scalar
inequalities decide whether the log states of any positive periodic
solution are confined to an explicit box [L2, L1] x [L4, L3]:

    (A1)  k2 * r2_max < 1 + w1 * k1
    (A2)  beta1_max * m0 < r1_min
    (A3)  r2_min * k2 < (1 + w1 k1) * (r2_max + w2 k2 k1)

with the derived quantities

    m0 = k2 r2_max / (1 + w1 k1)            (cap for x2)
    g0 = k1 (1 - beta1_max m0 / r1_min)     (floor for x1; positive iff A2)
    h0 = r2_min k2 / ((1 + w1 k1)(r2_max + w2 k2 k1))   (floor for x2)

and L1 = ln k1, L2 = ln g0, L3 = ln m0, L4 = ln h0.

The extremum interval is an explicit argument because the choice is
consequential: coefficients built from sin(t) have different extrema on
a half period than on a full one.  A logarithm of a non-positive
quantity is reported as an undefined bound (None), never raised.  A
quantity that overflows the float range raises, so that None always
means an undefined logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .coefficients import extrema
from .model import ModelParams

__all__ = [
    "BoundReport",
    "DegenerateParameterError",
    "compute_bounds",
    "M0_CANONICAL",
    "M0_VARIANT_K2",
]

# m0 denominator selector values.  The canonical form divides by
# 1 + w1*k1; the variant divides by 1 + w1*k2 and exists purely so the
# bundled demo arithmetic can be regression-tested in both conventions.
M0_CANONICAL = "k1"
M0_VARIANT_K2 = "k2-paper-variant"


class DegenerateParameterError(ValueError):
    """Parameters make a bound quantity undefined (division by zero) or
    overflow it."""


@dataclass(frozen=True)
class BoundReport:
    """Derived quantities, bound ladder and condition verdicts."""

    r1L: float
    r1M: float
    r2L: float
    r2M: float
    beta1M: float
    beta2M: float
    m0: float
    g0: float
    h0: float
    L1: float
    L2: float | None
    L3: float | None
    L4: float | None
    Lambda1: float | None
    Lambda2: float | None
    A1: bool
    A2: bool
    A3: bool
    margins: tuple[float, float, float]
    a1_lhs: float
    a1_rhs: float
    a2_lhs: float
    a2_rhs: float
    a3_lhs: float
    a3_rhs: float
    positivity_audit: dict[str, bool]
    extremum_interval: tuple[float, float]
    m0_denominator: str

    def all_conditions_hold(self) -> bool:
        return self.A1 and self.A2 and self.A3

    def to_dict(self) -> dict:
        """The fields by name, with the margins keyed by condition and a
        copy of the audit; the other values are immutable, so they are
        not copied."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["margins"] = dict(zip(("A1", "A2", "A3"), self.margins))
        d["positivity_audit"] = dict(self.positivity_audit)
        return d


def _safe_log(x: float) -> float | None:
    return math.log(x) if x > 0.0 else None


def compute_bounds(params: ModelParams,
                   extremum_interval: tuple[float, float] | None = None,
                   m0_denominator: str = M0_CANONICAL) -> BoundReport:
    """Compute coefficient extrema, m0/g0/h0, L1..L4 and the verdicts.

    ``extremum_interval`` defaults to one full period [0, T].  The
    positivity audit is always taken over [0, T] regardless of the
    extremum interval: it reports whether each rate function actually
    stays positive over the cycle, which is an assumption of the bound
    derivation, not a property of the chosen extremum window.
    """
    if m0_denominator not in (M0_CANONICAL, M0_VARIANT_K2):
        raise ValueError(f"unknown m0 denominator {m0_denominator!r}")
    if extremum_interval is None:
        extremum_interval = (0.0, params.period)
    a, b = extremum_interval

    r1L, r1M = extrema(params.r1, a, b)
    r2L, r2M = extrema(params.r2, a, b)
    b1L, beta1M = extrema(params.beta1, a, b)
    b2L, beta2M = extrema(params.beta2, a, b)

    if r1L == 0.0:
        raise DegenerateParameterError("r1 minimum is zero: g0 undefined")
    if r2M + params.w2 * params.k2 * params.k1 == 0.0:
        raise DegenerateParameterError(
            "r2 maximum + w2 k2 k1 is zero: h0 undefined")

    denom_k = params.k2 if m0_denominator == M0_VARIANT_K2 else params.k1
    m0 = params.k2 * r2M / (1.0 + params.w1 * denom_k)
    g0 = params.k1 * (1.0 - beta1M * m0 / r1L)
    h0 = (r2L * params.k2
          / ((1.0 + params.w1 * params.k1) * (r2M + params.w2 * params.k2 * params.k1)))

    L1 = math.log(params.k1)
    L2 = _safe_log(g0)
    L3 = _safe_log(m0)
    L4 = _safe_log(h0)
    Lambda1 = max(abs(L1), abs(L2)) if L2 is not None else None
    Lambda2 = max(abs(L3), abs(L4)) if (L3 is not None and L4 is not None) else None

    a1_lhs = params.k2 * r2M
    a1_rhs = 1.0 + params.w1 * params.k1
    a2_lhs = beta1M * m0
    a2_rhs = r1L
    a3_lhs = r2L * params.k2
    a3_rhs = (1.0 + params.w1 * params.k1) * (r2M + params.w2 * params.k2 * params.k1)
    margins = (a1_rhs - a1_lhs, a2_rhs - a2_lhs, a3_rhs - a3_lhs)
    # every float of the report follows from these; one that is not finite
    # would read as an undefined bound (None) once the report is written
    quantities = dict(r1L=r1L, r1M=r1M, r2L=r2L, r2M=r2M, beta1M=beta1M,
                      beta2M=beta2M, m0=m0, g0=g0, h0=h0, a1_lhs=a1_lhs,
                      a1_rhs=a1_rhs, a2_lhs=a2_lhs, a3_lhs=a3_lhs,
                      a3_rhs=a3_rhs)
    quantities |= {f"{c} margin": v for c, v in zip(("A1", "A2", "A3"), margins)}
    for name, value in quantities.items():
        if not math.isfinite(value):
            raise DegenerateParameterError(
                f"{name} is {value}: the parameters overflow the float range")

    if (a, b) == (0.0, params.period):
        # the window is the audit's cycle: its minima are the audit's
        minima = (r1L, r2L, b1L, b2L)
    else:
        minima = [extrema(coeff, 0.0, params.period)[0]
                  for coeff in params.coefficients().values()]
    audit = {name: bool(low > 0.0)
             for name, low in zip(params.coefficients(), minima)}

    return BoundReport(
        r1L=r1L, r1M=r1M, r2L=r2L, r2M=r2M, beta1M=beta1M, beta2M=beta2M,
        m0=m0, g0=g0, h0=h0,
        L1=L1, L2=L2, L3=L3, L4=L4, Lambda1=Lambda1, Lambda2=Lambda2,
        A1=a1_lhs < a1_rhs, A2=a2_lhs < a2_rhs, A3=a3_lhs < a3_rhs,
        margins=margins,
        a1_lhs=a1_lhs, a1_rhs=a1_rhs, a2_lhs=a2_lhs, a2_rhs=a2_rhs,
        a3_lhs=a3_lhs, a3_rhs=a3_rhs,
        positivity_audit=audit,
        extremum_interval=(float(a), float(b)),
        m0_denominator=m0_denominator,
    )
