"""Locate and characterise periodic solutions by single shooting.

A T-periodic solution of the log-frame system is a fixed point of the
period map z -> phi_T(z).  Newton iteration on G(z) = phi_T(z) - z uses
the monodromy matrix M(z) (from the variational equations) for its
Jacobian M - I, with a step-halving line search to tame the exponential
nonlinearity far from the root.  Near the root the full step is
accepted, so the full-step probe is itself a monodromy run and, once
accepted, the next iteration's: one augmented integration per step.

Two degenerate outcomes are recognised explicitly rather than reported
as bare non-convergence:

* steady state: the one-period trajectory in the original frame is
  essentially constant (an equilibrium, possibly on a coordinate axis
  where the log frame has no finite fixed point).  Detected up front
  and characterised with the original-frame variational equations.
* extinction: one species cannot invade the state where it is absent,
  so it decays geometrically near that boundary and the Newton defect
  stalls at the decay rate.  The diagnosis names the species and gives
  its invasion exponent, in closed form from the period means.  A
  search whose steps keep driving that species' log density down while
  the defect barely falls stops early, with the diagnosis attached.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .conditions import BoundReport
from .integrator import (IntegrationError, IntegratorConfig, Trajectory,
                         flow_and_monodromy, flow_map, integrate,
                         variational_flow)
from .model import (DomainOverflowError, ModelParams, averaged_rates,
                    jac_original, rhs_log, rhs_original)

__all__ = [
    "PeriodicOrbit",
    "SeedResult",
    "BoundCheck",
    "OrbitSearchError",
    "NonConvergenceError",
    "NearDegenerateOrbitError",
    "ExtinctionDiagnosis",
    "seed_by_transient",
    "find_periodic_orbit",
    "detect_steady_state",
    "diagnose_extinction",
    "verify_bounds",
]

_SINGULAR_DET_TOL = 1e-12
_MAX_HALVINGS = 20
_MAX_NEWTON_STEP = 5.0        # trust region, in log-density units
_ORBIT_SAMPLES = 256          # sampling resolution over one period
_STEADY_VARIANCE_TOL = 1e-12  # sample variance of a steady state / (max x)^2
_BOUND_SLACK = 1e-9
_SEED_RUN_PERIODS = 256       # most periods one seeding run integrates
_BOUNDARY_PROGRESS = 0.99     # a boundary step must cut the defect below this
_BOUNDARY_STEPS = 3           # slow boundary steps in a row that end a search


@dataclass(frozen=True)
class SeedResult:
    z: np.ndarray               # endpoint after the transient
    contraction: float          # ||z(nT) - z((n-1)T)||_inf


@dataclass(frozen=True)
class ExtinctionDiagnosis:
    species: int                # 1 or 2
    rate_per_period: float      # invasion exponent of ln(density), < 0
    boundary_state: float       # density of the other species there

    def describe(self) -> str:
        i, j = self.species, 3 - self.species
        return (f"species {i} cannot invade the boundary state "
                f"x{j} = {self.boundary_state:.6g} "
                f"(d ln x{i} = {self.rate_per_period:.6g} per period there)")


@dataclass(frozen=True)
class PeriodicOrbit:
    """A converged fixed point of the period map, with its linearisation.

    ``densities`` holds the densities x(t) over one period, at equal
    time intervals.  ``stop_rule`` says what ended the search: "tol"
    when the defect fell below ``tol``, "noise_floor" when a stalled
    line search stopped it, and "steady_state" for the constant
    trajectory of :func:`detect_steady_state`, which runs no Newton
    search.  ``noise_floor`` is derived from the search, not independent
    state: abs_tol + rel_tol max |z0| of the integrator the search used
    (None for a steady state).  ``monodromy`` is the log-frame
    linearisation for a shooting orbit and the original-frame one for a
    steady state; the Floquet multipliers and ``stable`` are read off it.
    ``monodromy`` is integrated at the search's own tolerances, so the
    multipliers carry that integration error: at the default 1e-10 a
    small multiplier of a strongly contracting orbit may be off by about
    1e-6 relative, far above what its 17 printed digits suggest."""

    z0: np.ndarray
    residual_norm: float
    monodromy: np.ndarray
    newton_iterations: int
    densities: Trajectory
    residual_history: tuple[float, ...] = ()
    noise_floor: float | None = None
    stop_rule: str | None = None

    @property
    def floquet_multipliers(self) -> tuple[complex, complex]:
        """The roots of m^2 - tr(M) m + det(M), larger modulus first, the
        smaller as det / the larger.  M is first scaled, exactly, by the power
        of two above its largest entry, so no square or product overflows."""
        s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(self.monodromy))))[1])
        (a, b), (c, d) = (self.monodromy / s).tolist()
        h, disc = 0.5 * (a + d), (0.5 * (a - d)) ** 2 + b * c
        if disc < 0.0:      # a conjugate pair
            return s * complex(h, math.sqrt(-disc)), s * complex(h, -math.sqrt(-disc))
        big = h + math.copysign(math.sqrt(disc), h)
        return complex(s * big), complex(s * ((a * d - b * c) / big) if big else 0.0)

    @property
    def stable(self) -> bool:
        return all(abs(m) < 1.0 for m in self.floquet_multipliers)

    def to_dict(self) -> dict:
        mults = self.floquet_multipliers
        return {
            "z0": [float(self.z0[0]), float(self.z0[1])],
            "x0": [float(math.exp(self.z0[0])), float(math.exp(self.z0[1]))],
            "residual_norm": self.residual_norm,
            "monodromy": [[float(v) for v in row] for row in self.monodromy],
            "floquet_multipliers": [
                {"re": float(m.real), "im": float(m.imag)} for m in mults],
            "stable": self.stable,
            "newton_iterations": self.newton_iterations,
            "noise_floor": self.noise_floor,
            "stop_rule": self.stop_rule,
        }


class OrbitSearchError(RuntimeError):
    """A failed search, with its last iterate and defect and the defects
    of every iteration (``residual_history``, as on a
    :class:`PeriodicOrbit`)."""

    def __init__(self, message: str, z_last=None, residual: float | None = None,
                 iterations: int = 0,
                 diagnosis: ExtinctionDiagnosis | None = None,
                 residual_history: tuple[float, ...] = ()):
        super().__init__(message)
        self.z_last = None if z_last is None else np.asarray(z_last, dtype=float)
        self.residual = residual
        self.iterations = iterations
        self.diagnosis = diagnosis
        self.residual_history = tuple(residual_history)


class NonConvergenceError(OrbitSearchError):
    pass


class NearDegenerateOrbitError(OrbitSearchError):
    pass


def seed_by_transient(params: ModelParams, z_start, n_periods: int,
                      cfg: IntegratorConfig) -> SeedResult:
    """Integrate n_periods * T and report the endpoint and its drift.

    The first n_periods - 1 periods are adaptive runs over [0, k T] of at
    most ``_SEED_RUN_PERIODS`` = 256 periods each, so the step-size
    controller restarts once per run instead of at every period
    boundary.  The field is T-periodic, so every run starts at t = 0;
    that keeps the rows a run holds, its step floor and its phase error
    bounded however long the seed.  The last period is one
    :func:`flow_map` from the state z((n-1)T) the runs reached.
    ``contraction`` is the period-map defect there,
    max |phi_T(z((n-1)T)) - z((n-1)T)|.  A seed of one or two periods
    takes the same runs as n_periods calls of ``flow_map``.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    prev = np.asarray(z_start, dtype=float)
    field = partial(rhs_log, params)
    for done in range(0, n_periods - 1, _SEED_RUN_PERIODS):
        k = min(_SEED_RUN_PERIODS, n_periods - 1 - done)
        prev = integrate(field, 0.0, prev, k * params.period, cfg).final_state
    z = flow_map(params, prev, cfg)
    return SeedResult(z=z, contraction=float(np.max(np.abs(z - prev))))


def _sample_period(params: ModelParams, rhs, y0,
                   cfg: IntegratorConfig) -> Trajectory:
    """One period of y' = rhs(params, t, y) from y0, sampled at
    _ORBIT_SAMPLES equal intervals."""
    ts = np.linspace(0.0, params.period, _ORBIT_SAMPLES + 1)
    return integrate(partial(rhs, params), 0.0, y0, params.period, cfg,
                     t_eval=ts[1:-1])


def find_periodic_orbit(params: ModelParams, guess, tol: float = 1e-12,
                        max_iter: int = 25,
                        cfg: IntegratorConfig | None = None) -> PeriodicOrbit:
    """Newton shooting on G(z) = phi_T(z) - z from the given guess.

    The search stops when the defect max |G(z)| falls below ``tol``.  The
    period map is only as exact as the integration, so a line search
    that finds no point with a smaller defect also stops, with the
    current iterate, when that defect is at or below the noise floor
    abs_tol + rel_tol max |z| of ``cfg``.  The orbit reports the floor and
    the rule that stopped it (``stop_rule`` "tol" or "noise_floor").
    ``tol`` therefore bounds the returned ``residual_norm`` only when
    ``stop_rule`` is "tol"; a stop by the floor returns a defect that
    may lie anywhere up to the floor, above ``tol``.

    The line search halves the step until the defect falls.  Its s = 1
    probe is a :func:`flow_and_monodromy` run when the previous step was
    accepted in full, or, on the first step, when
    :func:`diagnose_extinction` names no species; an accepted one hands
    its (z(T), M) to the next iteration, whose defect is then the
    probe's exactly.  Other probes are plain :func:`flow_map` runs.

    When :func:`diagnose_extinction` names a species i that cannot
    invade, a search heading to the state without it also stops: 3
    accepted steps in a row whose largest component moves ln x_i down
    and that cut the defect by less than 1% raise
    :class:`NonConvergenceError`.  Steps that move another component
    most, or that move ln x_i up, never count, so a slow search that
    climbs away from the boundary runs on.

    Raises :class:`NearDegenerateOrbitError` when M - I is numerically
    singular and :class:`NonConvergenceError` when the iteration budget
    is exhausted, the line search stalls above the noise floor or the
    search heads to the boundary state; both carry the last iterate,
    residual, the defects of every iteration and (when one is
    detectable) an extinction diagnosis.
    """
    if not (tol > 0 and max_iter >= 0):
        raise ValueError("need tol > 0 and max_iter >= 0")
    if cfg is None:
        cfg = IntegratorConfig()
    z = np.array(guess, dtype=float)
    history: list[float] = []
    diagnosis = diagnose_extinction(params)
    boundary_steps = 0      # slow steps in a row toward the boundary state
    toward_boundary = False  # the last accepted step moved ln x_i down most
    full_step = diagnosis is None  # probe s = 1 with the monodromy run
    handed = None           # (z(T), M) of the accepted s = 1 probe, at z

    def fail(exc_type, message, it):
        raise exc_type(message, z_last=z, residual=rnorm, iterations=it,
                       diagnosis=diagnosis, residual_history=tuple(history))

    def converged(stop_rule, it):
        samples = _sample_period(params, rhs_log, z, cfg)
        densities = Trajectory(samples.times, np.exp(samples.states))
        return PeriodicOrbit(z, rnorm, M, it, densities, tuple(history),
                             noise_floor=floor, stop_rule=stop_rule)

    for it in range(max_iter + 1):
        zT, M = flow_and_monodromy(params, z, cfg) if handed is None else handed
        G = zT - z
        rnorm = float(np.max(np.abs(G)))
        floor = cfg.abs_tol + cfg.rel_tol * float(np.max(np.abs(z)))
        history.append(rnorm)
        if rnorm < tol:
            return converged("tol", it)
        if toward_boundary and rnorm > _BOUNDARY_PROGRESS * history[-2]:
            boundary_steps += 1
        else:
            boundary_steps = 0
        if boundary_steps == _BOUNDARY_STEPS:
            i = diagnosis.species
            fail(NonConvergenceError,
                 f"heading to the boundary state without species {i}: "
                 f"{_BOUNDARY_STEPS} Newton steps in a row moved ln x{i} "
                 f"down most and cut the defect by less than "
                 f"{1.0 - _BOUNDARY_PROGRESS:.0%} (last defect {rnorm:.3e})",
                 it)
        if it == max_iter:
            fail(NonConvergenceError, f"no convergence in {max_iter} "
                 f"iterations (last defect {rnorm:.3e})", it)
        (a, b), (c, d) = M - np.eye(2)
        det = a * d - b * c
        if abs(det) < _SINGULAR_DET_TOL:
            fail(NearDegenerateOrbitError,
                 f"period-map Jacobian is singular (|det(M - I)| = {abs(det):.3e})",
                 it)
        # (M - I) dz = -G by Cramer's rule
        dz = np.array([b * G[1] - d * G[0], c * G[0] - a * G[1]]) / det
        step_norm = float(np.max(np.abs(dz)))
        if step_norm > _MAX_NEWTON_STEP:
            dz *= _MAX_NEWTON_STEP / step_norm

        # step-halving line search on the defect norm; with full_step the
        # s = 1 probe is the monodromy run the next iteration takes if it is
        # accepted, and every other probe uses the plain flow
        s, handed = 1.0, None
        for _ in range(_MAX_HALVINGS):
            z_try = z + s * dz
            try:
                if s == 1.0 and full_step:
                    handed = flow_and_monodromy(params, z_try, cfg)
                    zT_try = handed[0]
                else:
                    zT_try = flow_map(params, z_try, cfg)
                r_try = float(np.max(np.abs(zT_try - z_try)))
            except (IntegrationError, DomainOverflowError):
                s *= 0.5
                continue
            if r_try < rnorm:
                break
            s *= 0.5
        else:
            if rnorm <= floor:
                return converged("noise_floor", it)
            fail(NonConvergenceError,
                 f"line search stalled at defect {rnorm:.3e}, above the "
                 f"noise floor {floor:.3e}", it)
        # the accepted step s dz, s > 0, moves most what dz moves most
        k = int(np.argmax(np.abs(dz)))
        toward_boundary = (diagnosis is not None
                           and k == diagnosis.species - 1 and dz[k] < 0.0)
        z = z_try
        full_step = s == 1.0
        handed = handed if full_step else None


def detect_steady_state(params: ModelParams, z,
                        cfg: IntegratorConfig) -> PeriodicOrbit | None:
    """Recognise an (near-)equilibrium posing as a periodic solution.

    Integrates one period in the original frame from x = exp(z) and, if
    every component's sample variance is below 1e-12 times the square of
    the largest sampled density, returns the densities it integrated as
    an orbit from z with ``stop_rule`` "steady_state".  Relative to that
    density, the test does not depend on the units the densities are
    measured in.  The linearisation is done in the original frame,
    which stays regular when a species sits on (or exponentially close
    to) its extinction axis, where the log frame has no finite fixed
    point.
    """
    z = np.array(z, dtype=float)
    x0 = np.exp(z)
    traj = _sample_period(params, rhs_original, x0, cfg)
    scale = float(np.max(traj.states))
    if (scale > 0.0 and np.max(np.var(traj.states / scale, axis=0))
            >= _STEADY_VARIANCE_TOL):
        return None
    _, M = variational_flow(partial(rhs_original, params),
                            partial(jac_original, params),
                            0.0, x0, params.period, cfg)
    residual = float(np.max(np.abs(traj.final_state - x0)))
    return PeriodicOrbit(z, residual, M, 0, traj, stop_rule="steady_state")


def diagnose_extinction(params: ModelParams) -> ExtinctionDiagnosis | None:
    """Name the species that cannot invade the other's boundary state.

    With species i absent, species j follows the periodic logistic
    equation x' = r_j(t) x (1 - x/k_j), whose attractor is the constant
    x_j* = k_j when r_j has a positive mean and 0 otherwise.  Along it
    ln x_i grows per period by T times the averaged rate g_i of
    :func:`~phytoperiod.model.averaged_rates` at that boundary state:

        lambda1 = T (r1_bar - beta1_bar x2*)
        lambda2 = T (r2_bar / (1 + w1 x1*) - beta2_bar x1*)

    (the invasion exponents of Cushing 1980).  Returns the species with
    the more negative exponent when that exponent is negative, else None.
    """
    x1 = params.k1 if params.r1.mean > 0.0 else 0.0
    x2 = params.k2 if params.r2.mean > 0.0 else 0.0
    T = params.period
    exponents = (T * averaged_rates(params, 0.0, x2)[0],
                 T * averaged_rates(params, x1, 0.0)[1])
    i = 0 if exponents[0] < exponents[1] else 1
    if exponents[i] >= 0.0:
        return None
    return ExtinctionDiagnosis(species=i + 1, rate_per_period=exponents[i],
                               boundary_state=(x2, x1)[i])


@dataclass(frozen=True)
class BoundCheck:
    """Verdict for one side of the a priori box on one log component."""

    name: str
    applicable: bool
    satisfied: bool | None
    worst_margin: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def verify_bounds(orbit: PeriodicOrbit, report: BoundReport) -> list[BoundCheck]:
    """Check L2 <= z1 <= L1 and L4 <= z2 <= L3 on all orbit samples.

    Margins are the worst (most violated) slack over the logs of the
    sampled densities, signed so that negatives mean violation.  Bounds
    whose defining quantity was non-positive (undefined logarithm) come
    back not-applicable.
    """
    z1, z2 = np.log(orbit.densities.states).T
    checks = []
    for name, lo, hi, vals in (("z1", report.L2, report.L1, z1),
                               ("z2", report.L4, report.L3, z2)):
        for side, bound in (("lower", lo), ("upper", hi)):
            label = f"{name}_{side}"
            if bound is None:
                checks.append(BoundCheck(label, False, None, None))
                continue
            margin = (float(np.min(vals) - bound) if side == "lower"
                      else float(bound - np.max(vals)))
            checks.append(BoundCheck(label, True, margin >= -_BOUND_SLACK, margin))
    return checks
