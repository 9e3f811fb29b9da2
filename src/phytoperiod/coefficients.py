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

__all__ = ["PeriodicCoefficient", "extrema"]

# Sampling cells used for Fourier extrema, over at most one period.
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
            if not math.isfinite(self.period):
                raise ValueError(f"omega {self.omega!r} makes the period "
                                 f"2 pi/omega overflow the float range")
        if self.kind == "sinusoid" and self.amplitude < 0.0:
            raise ValueError("sinusoid amplitude must be non-negative")
        if self.kind == "fourier":
            harmonics = tuple((float(a), float(b)) for a, b in self.harmonics)
            if not all(math.isfinite(x) for pair in harmonics for x in pair):
                raise ValueError("coefficient harmonics must be finite")
            object.__setattr__(self, "harmonics", harmonics)
            if not math.isfinite(len(harmonics) * self.omega):
                raise ValueError(f"omega {self.omega!r} makes the frequency "
                                 f"{len(harmonics)} omega of the highest "
                                 f"harmonic overflow the float range")

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
        """Evaluate f(t) at a float or int t, with ``math``, as a float, or
        elementwise at a numpy array t, with numpy, as an array of its
        shape.  Both take the same operations in the same order.

        The float path serves ``extrema``, ``_refine`` and the tests; the
        integrator evaluates all four rates through the kernels that
        ``ModelParams`` compiles, which keep this operation order.
        """
        if isinstance(t, (float, int)):
            sin, cos, out = math.sin, math.cos, self.mean
        else:
            t = np.asarray(t, dtype=float)
            sin, cos, out = np.sin, np.cos, np.full_like(t, self.mean)
        if self.kind == "sinusoid":
            return out + self.amplitude * sin(self.omega * t + self.phase)
        if self.kind == "fourier":
            for k, (a, b) in enumerate(self.harmonics, start=1):
                kwt = k * self.omega * t
                out = out + a * cos(kwt) + b * sin(kwt)
        return out


def extrema(coeff: PeriodicCoefficient, a: float, b: float) -> tuple[float, float]:
    """Minimum and maximum of ``coeff`` over the closed interval [a, b].

    An interval longer than the period holds every value of the function,
    so it is evaluated over [0, period], where t is exact however far out
    a lies.  Constants and single sinusoids are handled in closed form.
    Fourier series are sampled at 4097 points: h is the window over 4096
    and C = sum (k omega)^2 (|a_k| + |b_k|) bounds |f''|, so the sample
    nearest an extremum lies within C h^2 / 8 of it.  The cells of the
    best sample and of every other sampled local extremum within C h^2 / 8
    of it are refined by golden-section search, and the best refined value
    is returned.
    """
    if not a < b:
        raise ValueError(f"invalid interval [{a}, {b}]: need a < b")
    if b - a > coeff.period:
        a, b = 0.0, coeff.period
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
    ts = np.linspace(a, b, _FOURIER_SAMPLES + 1)
    vals = np.asarray(coeff(ts))
    h = (b - a) / _FOURIER_SAMPLES
    band = h * h / 8.0 * sum((k * coeff.omega) ** 2 * (abs(ak) + abs(bk))
                             for k, (ak, bk) in enumerate(coeff.harmonics, 1))
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    f_min = min(_refine(coeff, ts, i, sign=+1.0) for i in _contenders(
        vals, lo, vals <= vals[lo] + band, +1.0))
    f_max = -min(_refine(coeff, ts, i, sign=-1.0) for i in _contenders(
        vals, hi, vals >= vals[hi] - band, -1.0))
    return f_min, f_max


def _contenders(vals, best, near, sign):
    """The index ``best`` of the smallest of sign * vals, then those of
    the other local minima of sign * vals among the samples flagged
    ``near``: no larger than the value on the left, smaller than the one
    on the right (so a flat run counts once), and an end compared with
    its one neighbour."""
    near = np.flatnonzero(near)
    if near[0] >= best - 1 and near[-1] <= best + 1:
        return (best,)      # no other cell than best's and its neighbours'
    s, last = sign * vals, len(vals) - 1
    v = s[near]
    local = near[(v <= s[np.maximum(near - 1, 0)])
                 & ((v < s[np.minimum(near + 1, last)]) | (near == last))]
    return (best, *(int(i) for i in local if i != best))


def _refine(coeff, ts, i, sign):
    # golden-section minimisation of sign*coeff on the cells bracketing
    # ts[i], on Python floats: numpy scalars would give the same values,
    # slower
    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, len(ts) - 1)])
    best = sign * coeff(float(ts[i]))
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
