"""T-periodic scalar coefficient functions.

The seasonal forcing terms of the competition model (growth rates and
interaction rates) are represented as closed-form periodic functions of
time: constants, single sinusoids, or truncated Fourier series.  All
values are immutable after construction and every operation is a pure
function, so coefficients can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PeriodicCoefficient", "extrema", "mean_by_quadrature"]

# Dense-sampling resolution used for Fourier extrema (points per period).
_FOURIER_SAMPLES = 4096
# Width of the refined bracket, relative to the sampling cell.
_REFINE_REL_TOL = 1e-10


@dataclass(frozen=True)
class PeriodicCoefficient:
    """A T-periodic scalar function of time.

    kind is one of "constant", "sinusoid" or "fourier":

    * constant:  f(t) = mean
    * sinusoid:  f(t) = mean + amplitude * sin(omega * t + phase)
    * fourier:   f(t) = mean + sum_k [a_k cos(k w t) + b_k sin(k w t)],
      harmonics = ((a_1, b_1), (a_2, b_2), ...)
    """

    kind: str
    mean: float = 0.0
    amplitude: float = 0.0
    omega: float = 1.0
    phase: float = 0.0
    harmonics: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoid", "fourier"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        # stored as finite floats: the model's kernels bind them by bit pattern
        for name in ("mean", "amplitude", "omega", "phase"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite")
            object.__setattr__(self, name, value)
        if self.kind != "constant":
            if self.omega <= 0.0:
                raise ValueError("angular frequency must be positive")
        if self.kind == "sinusoid" and self.amplitude < 0.0:
            raise ValueError("sinusoid amplitude must be non-negative")
        if self.kind == "fourier":
            harmonics = tuple((float(a), float(b)) for a, b in self.harmonics)
            if not all(math.isfinite(x) for pair in harmonics for x in pair):
                raise ValueError("coefficient harmonics must be finite")
            object.__setattr__(self, "harmonics", harmonics)

    @classmethod
    def constant(cls, value: float) -> "PeriodicCoefficient":
        return cls(kind="constant", mean=float(value))

    @classmethod
    def sinusoid(cls, mean: float, amplitude: float, omega: float = 1.0,
                 phase: float = 0.0) -> "PeriodicCoefficient":
        return cls(kind="sinusoid", mean=float(mean), amplitude=float(amplitude),
                   omega=float(omega), phase=float(phase))

    @classmethod
    def fourier(cls, mean: float, harmonics, omega: float = 1.0) -> "PeriodicCoefficient":
        return cls(kind="fourier", mean=float(mean), omega=float(omega),
                   harmonics=tuple(harmonics))

    @property
    def period(self) -> float:
        """Fundamental period 2*pi/omega; +inf for constants (any T works)."""
        if self.kind == "constant":
            return math.inf
        return 2.0 * math.pi / self.omega

    def __call__(self, t):
        """Evaluate f(t).  Accepts scalars or numpy arrays.

        A float or int t takes a ``math`` path and gives a float.  It
        serves ``extrema``, ``_refine`` and the tests; the integrator
        evaluates all four rates through the kernels that
        ``ModelParams`` compiles, which keep this path's operation order.
        """
        if isinstance(t, (float, int)):
            if self.kind == "constant":
                return self.mean
            if self.kind == "sinusoid":
                return self.mean + self.amplitude * math.sin(
                    self.omega * t + self.phase)
            out = self.mean
            for k, (a, b) in enumerate(self.harmonics, start=1):
                kwt = k * self.omega * t
                out = out + a * math.cos(kwt) + b * math.sin(kwt)
            return out
        if self.kind == "constant":
            return self.mean if np.isscalar(t) else np.full_like(
                np.asarray(t, dtype=float), self.mean)
        if self.kind == "sinusoid":
            return self.mean + self.amplitude * np.sin(self.omega * t + self.phase)
        out = self.mean + np.zeros_like(np.asarray(t, dtype=float))
        for k, (a, b) in enumerate(self.harmonics, start=1):
            out = out + a * np.cos(k * self.omega * t) + b * np.sin(k * self.omega * t)
        return out if not np.isscalar(t) else float(out)

    def mean_value(self) -> float:
        """Exact period average (oscillatory parts integrate to zero)."""
        return self.mean


def extrema(coeff: PeriodicCoefficient, a: float, b: float) -> tuple[float, float]:
    """Minimum and maximum of ``coeff`` over the closed interval [a, b].

    Constants and single sinusoids are handled in closed form.  Fourier
    series are sampled densely (>= 4096 points per period) and the best
    cells are then refined by golden-section search.
    """
    if not a < b:
        raise ValueError(f"invalid interval [{a}, {b}]: need a < b")
    if coeff.kind == "constant":
        return coeff.mean, coeff.mean
    if coeff.kind == "sinusoid":
        candidates = [coeff(a), coeff(b)]
        # interior critical points: omega*t + phase = pi/2 + k*pi
        k_lo = math.ceil((coeff.omega * a + coeff.phase - math.pi / 2) / math.pi)
        k_hi = math.floor((coeff.omega * b + coeff.phase - math.pi / 2) / math.pi)
        for k in range(k_lo, k_hi + 1):
            t = (math.pi / 2 + k * math.pi - coeff.phase) / coeff.omega
            if a <= t <= b:
                candidates.append(coeff(t))
        return float(min(candidates)), float(max(candidates))
    lo, hi = _fourier_extrema(coeff, a, b)
    return float(lo), float(hi)


def _fourier_extrema(coeff, a, b):
    n = max(_FOURIER_SAMPLES + 1,
            int(math.ceil(_FOURIER_SAMPLES * (b - a) / coeff.period)) + 1)
    ts = np.linspace(a, b, n)
    vals = np.asarray(coeff(ts))
    f_min = _refine(coeff, ts, int(np.argmin(vals)), sign=+1.0)
    f_max = -_refine(coeff, ts, int(np.argmax(vals)), sign=-1.0)
    return f_min, f_max


def _refine(coeff, ts, i, sign):
    # golden-section minimisation of sign*coeff on the cells bracketing ts[i]
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    best = sign * coeff(ts[i])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - g * (hi - lo)
    x2 = lo + g * (hi - lo)
    f1, f2 = sign * coeff(x1), sign * coeff(x2)
    tol = _REFINE_REL_TOL * max(1.0, abs(hi), abs(lo))
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = sign * coeff(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = sign * coeff(x2)
    return min(f1, f2, best)


def mean_by_quadrature(coeff: PeriodicCoefficient, period: float | None = None,
                       n: int = 4096) -> float:
    """Period average via composite Simpson quadrature (cross-check path).

    Deliberately independent of :meth:`PeriodicCoefficient.mean_value`;
    the two must agree to ~1e-10 for any well-formed coefficient.
    """
    if period is None:
        period = coeff.period
    if not math.isfinite(period):
        period = 1.0  # constants average to themselves over any window
    if n % 2:
        n += 1
    ts = np.linspace(0.0, period, n + 1)
    vals = np.asarray(coeff(ts), dtype=float)
    h = period / n
    integral = (h / 3.0) * (vals[0] + vals[-1]
                            + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())
    return integral / period
