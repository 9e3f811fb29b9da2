"""Equilibria of the period-averaged algebraic system.

Replacing every periodic rate by its period average turns the search
for periodic solutions into the algebraic system (g1, g2) = 0 of
:func:`~phytoperiod.model.averaged_rates`.  Its first equation is linear:
g1 = 0 is the line v = a (1 - u / k1), a = r1_bar / beta1_bar.
Substituting the line into g2 and multiplying by 1 + w1 u > 0 leaves a
polynomial of degree at most three in u, so every positive equilibrium
is a real root of one cubic; :func:`averaged_equilibria` returns all of
them, each classified by the averaged Jacobian.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .model import ModelParams, averaged_jacobian, averaged_rates

__all__ = [
    "AveragedRoot",
    "DegenerateAveragedSystemError",
    "averaged_equilibria",
]

_POLISH_STEPS = 2
# a root passes when its residual max-norm is below
# _ROOT_TOL + _ROUNDING_ULPS * eps * (largest term of g1 and g2)
_ROOT_TOL = 1e-13
_ROUNDING_ULPS = 16
_FLOAT_MAX = sys.float_info.max


class DegenerateAveragedSystemError(ValueError):
    """The averaged system's equilibria are not isolated: they fill a line."""


@dataclass(frozen=True)
class AveragedRoot:
    """One positive equilibrium of the averaged system.

    ``x`` = (u, v) are the densities and ``z`` their logs.  ``det`` and
    ``trace`` are those of :func:`~phytoperiod.model.averaged_jacobian` at
    the densities ``x``; it is similar to the Jacobian in the original
    frame, so both have the same eigenvalues.  ``kind`` is "saddle" when
    det < 0, else "stable" when trace < 0, else "unstable".
    """

    x: tuple[float, float]
    z: tuple[float, float]
    det: float
    trace: float
    kind: str

    def to_dict(self) -> dict:
        return asdict(self)


def averaged_equilibria(params: ModelParams) -> list[AveragedRoot]:
    """Every equilibrium of the averaged system with u > 0 and v > 0,
    sorted by ascending u.

    The candidates are the sign changes of the cubic
    (1 + w1 u) g2(u, a (1 - u / k1)) on the part of the line g1 = 0 where
    v > 0, found by bisection between its critical points; a zero beta1
    mean fixes u = k1 instead, where g2 is linear in v.  Each positive
    candidate is polished by Newton steps on (g1, g2) themselves, because
    expanding the cubic cancels terms, and must then pass a residual check
    against :func:`~phytoperiod.model.averaged_rates`.  Raises
    :class:`DegenerateAveragedSystemError` when the equilibria fill a
    line, and ArithmeticError when a root leaves u > 0, v > 0 while it is
    polished or fails its residual check.
    """
    return [_classify(params, *_polish(params, u, v))
            for u, v in _line_roots(params) if u > 0.0 and v > 0.0]


def _line_roots(params: ModelParams) -> list[tuple[float, float]]:
    """The roots (u, v) of the averaged system by ascending u, found on
    the part of the line g1 = 0 where v > 0 (the check on v is left to the
    caller)."""
    r1b, r2b, b1b, b2b = params.means()
    k1, k2, w1, w2 = params.k1, params.k2, params.w1, params.w2
    if b1b == 0.0:
        if r1b == 0.0:
            raise DegenerateAveragedSystemError(
                "degenerate averaged system: r1 and beta1 both average to 0, "
                "so g1 vanishes identically")
        # g1 = r1b (1 - u / k1) fixes u = k1, where g2 is linear in v
        slope = r2b / k2 + w2 * k1
        offset = r2b / (1.0 + w1 * k1) - b2b * k1
        if slope == 0.0:
            if offset == 0.0:
                raise DegenerateAveragedSystemError(
                    "degenerate averaged system: g2 vanishes on the whole "
                    "line u = k1")
            return []
        return [(k1, offset / slope)]
    if r1b == 0.0:
        return []       # g1 = -b1b v vanishes only on the boundary v = 0
    a = r1b / b1b
    c = a / k1
    # (1 + w1 u) g2 = r2b - (1 + w1 u)(q0 + q1 u + q2 u^2) on v = a - c u
    q0 = r2b * a / k2
    q1 = b2b + w2 * a - r2b * c / k2
    q2 = -w2 * c
    coeffs = [-w1 * q2, -(q2 + w1 * q1), -(q1 + w1 * q0), r2b - q0]
    while coeffs and coeffs[0] == 0.0:
        coeffs.pop(0)       # w1 = 0 or w2 = 0 lowers the degree
    if not coeffs:
        raise DegenerateAveragedSystemError(
            "degenerate averaged system: g2 vanishes on the whole line g1 = 0")
    # v > 0 on the line where 1 - u / k1 has the sign of a
    lo, hi = (0.0, k1) if a > 0.0 else (k1, math.inf)
    return [(u, a * (1.0 - u / k1)) for u in _sign_changes(coeffs, lo, hi)]


def _sign_changes(coeffs: list, lo: float, hi: float) -> list[float]:
    """Where the polynomial ``coeffs`` (highest first, of degree at most
    three) changes sign in (lo, hi), by bisection to adjacent floats.

    The critical points cut (lo, hi) into pieces on which the polynomial
    is monotone, so each piece holds at most one sign change.  A tangent
    root, which changes no sign, is not found.
    """
    cuts = [x for x in _critical_points(coeffs) if lo < x < hi]
    points = [lo, *sorted(cuts), hi]
    # as u grows without bound the polynomial takes the leading sign
    values = [_horner(coeffs, x) if x < math.inf
              else math.copysign(math.inf, coeffs[0]) for x in points]
    roots = []
    for x0, x1, f0, f1 in zip(points, points[1:], values, values[1:]):
        if not (f0 < 0.0 < f1 or f1 < 0.0 < f0):
            continue
        if x1 == math.inf:
            # double up to the largest float: a piece whose sign has not
            # changed there holds no representable root
            x1 = min(max(2.0 * x0, 1.0), _FLOAT_MAX)
            f1 = _horner(coeffs, x1)
            while (f1 < 0.0) == (f0 < 0.0) and x1 < _FLOAT_MAX:
                x1 = min(2.0 * x1, _FLOAT_MAX)
                f1 = _horner(coeffs, x1)
            if (f1 < 0.0) == (f0 < 0.0):
                continue
        # halves first, so that the sum cannot overflow
        mid = 0.5 * x0 + 0.5 * x1
        while x0 < mid < x1:
            f_mid = _horner(coeffs, mid)
            if f_mid == 0.0:
                break
            if (f_mid < 0.0) == (f0 < 0.0):
                x0 = mid
            else:
                x1 = mid
            mid = 0.5 * x0 + 0.5 * x1
        roots.append(mid)
    return roots


def _critical_points(coeffs: list) -> list[float]:
    """The real roots of the derivative of a polynomial of degree <= 3."""
    if len(coeffs) < 3:
        return []
    if len(coeffs) == 3:
        return [-coeffs[1] / (2.0 * coeffs[0])]
    a, b, c = 3.0 * coeffs[0], 2.0 * coeffs[1], coeffs[2]
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q]


def _horner(coeffs: list, u: float) -> float:
    p = 0.0
    for c in coeffs:
        p = p * u + c
    return p


def _polish(params: ModelParams, u: float, v: float) -> tuple[float, float]:
    """Newton steps on (g1, g2) from (u, v), then the residual check.
    Raises ArithmeticError when a step leaves u > 0, v > 0 or the result
    fails the check."""
    u0, v0 = u, v
    for _ in range(_POLISH_STEPS):
        g1, g2 = averaged_rates(params, u, v)
        (j11, j12), (j21, j22) = averaged_jacobian(params, u, v)
        det = j11 * j22 - j12 * j21
        # the log-frame step dz gives du = u dz1, dv = v dz2
        u *= 1.0 - (j22 * g1 - j12 * g2) / det
        v *= 1.0 - (j11 * g2 - j21 * g1) / det
        if not (u > 0.0 and v > 0.0):
            raise ArithmeticError(
                f"averaged root x = ({u0!r}, {v0!r}) leaves u > 0, v > 0 "
                f"under Newton polishing, at ({u!r}, {v!r})")
    r1b, r2b, b1b, b2b = params.means()
    g1, g2 = averaged_rates(params, u, v)
    scale = max(abs(r1b), abs(r1b * u / params.k1), abs(b1b * v),
                abs(r2b * v / params.k2), abs(b2b * u), params.w2 * u * v,
                abs(r2b) / (1.0 + params.w1 * u))
    allowed = _ROOT_TOL + _ROUNDING_ULPS * sys.float_info.epsilon * scale
    residual = max(abs(g1), abs(g2))
    if not residual < allowed:
        raise ArithmeticError(
            f"averaged root x = ({u!r}, {v!r}) has residual {residual:.3e} "
            f"above {allowed:.3e}")
    return u, v


def _classify(params: ModelParams, u: float, v: float) -> AveragedRoot:
    (j11, j12), (j21, j22) = averaged_jacobian(params, u, v)
    det = j11 * j22 - j12 * j21
    trace = j11 + j22
    kind = "saddle" if det < 0.0 else "stable" if trace < 0.0 else "unstable"
    return AveragedRoot(x=(u, v), z=(math.log(u), math.log(v)), det=det,
                        trace=trace, kind=kind)
