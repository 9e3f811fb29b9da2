"""Locate and characterise periodic solutions by single shooting.

A T-periodic solution of the log-frame system is a fixed point of the
period map z -> phi_T(z).  Newton iteration on G(z) = phi_T(z) - z uses
the monodromy matrix M(z) (from the variational equations) for its
Jacobian M - I, with a step-halving line search to tame the exponential
nonlinearity far from the root.  Near the root the full step is
accepted, so the full-step probe is itself a monodromy run and, once
accepted, the next iteration's: one augmented integration per step.
Every other probe only decides whether its defect falls below the
current one, so it first runs at tolerances loosened in proportion to
that defect and is re-run at the configured ones only when the loose
defect lies too near the current one to decide.  The decisions, and so
every output, are those of probes run at the configured tolerances.  A
converged orbit is sampled from the monodromy run that closed it, by
that run's dense output, with no run of its own.

Two degenerate outcomes are recognised explicitly rather than reported
as bare non-convergence:

* steady state: the one-period trajectory in the original frame is
  essentially constant (an equilibrium, possibly on a coordinate axis
  where the log frame has no finite fixed point).  Detected up front,
  by a full sampled period only when a run over its first 1/32 leaves
  the density spread small enough for a steady period, and
  characterised with the original-frame variational equations; on an
  axis, at the exact boundary state, with the multipliers in closed
  form.
* extinction: one species cannot invade the state where it is absent,
  so it decays geometrically near that boundary and the Newton defect
  stalls at the decay rate.  The diagnosis names the species and gives
  its invasion exponent, in closed form from the period means.  A
  search whose steps keep driving that species' log density down while
  the defect barely falls stops early, with the diagnosis attached.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from types import MethodType

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
_LOOSE_TOL_FACTOR = 1e-6      # a plain probe first runs at tau = this * defect
_LOOSE_MARGIN = 10.0          # and decides beyond this * tau (1 + max|z|)
_MAX_NEWTON_STEP = 5.0        # trust region, in log-density units
_ORBIT_SAMPLES = 256          # sampling resolution over one period
_STEADY_VARIANCE_TOL = 1e-12  # sample variance of a steady state / (max x)^2
# a steady state lies on a boundary state when each density stays within
# this times its own carrying capacity of that state
_BOUNDARY_DENSITY = math.sqrt(_STEADY_VARIANCE_TOL)
# the steady-state test's head run and its bound (detect_steady_state)
_HEAD_FRACTION = 32           # the head run covers 1/this of the period
_STEADY_RADIUS = math.sqrt((_ORBIT_SAMPLES + 1) * _STEADY_VARIANCE_TOL)
_HEAD_SPREAD = 2.0 * _STEADY_RADIUS / (1.0 - 2.0 * _STEADY_RADIUS)
_HEAD_MARGIN = 10.0           # tolerance units between head and full run
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

    ``densities`` holds the densities x(t) over one period, at 257
    equally spaced times from 0 to T.  For a shooting orbit they are
    exp(z0), the order-7 dense output of the monodromy run that closed
    the orbit at the 255 times inside the period, and exp(z(T)) of that
    run; for a steady state, the samples of its original-frame run from
    exp(z0), by the same order-7 dense output.
    ``stop_rule`` says what ended the search: "tol"
    when the defect fell below ``tol``, "noise_floor" when a stalled
    line search stopped it, and "steady_state" for the constant
    trajectory of :func:`detect_steady_state`, which runs no Newton
    search.  ``noise_floor`` is derived from the search, not independent
    state: abs_tol + rel_tol max |z0| of the integrator the search used
    (None for a steady state).  ``monodromy`` is the log-frame
    linearisation for a shooting orbit and the original-frame one for a
    steady state; the Floquet multipliers and ``stable`` are read off it.
    A shooting orbit's ``monodromy`` is integrated at the search's own
    tolerances, so the multipliers carry that integration error: at the
    default 1e-10 a small multiplier of a strongly contracting orbit may
    be off by about 1e-6 relative, far above what its 17 printed digits
    suggest.  A steady state on a boundary has its diagonal, and so its
    multipliers, in closed form (:func:`detect_steady_state`)."""

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
        """The roots of m^2 - tr(M) m + det(M), larger modulus first.  A
        triangular M (an off-diagonal entry exactly 0) has its diagonal as
        its roots.  Else the smaller is det / the larger, and M is first
        scaled, exactly, by the power of two above its largest entry, so
        no square or product overflows."""
        (a, b), (c, d) = self.monodromy.tolist()
        if b == 0.0 or c == 0.0:
            big, small = (a, d) if abs(a) >= abs(d) else (d, a)
            return complex(big), complex(small)
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
    most ``_SEED_RUN_PERIODS`` = 256 periods each, stepped like
    :func:`flow_map`, so the step-size controller restarts once per run
    instead of at every period boundary.  The field is T-periodic, so
    every run starts at t = 0; that keeps the rows a run holds, its step
    floor and its phase error bounded however long the seed.  The last
    period is one :func:`flow_map` from the state z((n-1)T) the runs
    reached.
    ``contraction`` is the period-map defect there,
    max |phi_T(z((n-1)T)) - z((n-1)T)|.  A seed of one or two periods
    takes the same runs as n_periods calls of ``flow_map``.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    prev = np.asarray(z_start, dtype=float)
    field = MethodType(rhs_log, params)
    for done in range(0, n_periods - 1, _SEED_RUN_PERIODS):
        k = min(_SEED_RUN_PERIODS, n_periods - 1 - done)
        prev = integrate(field, 0.0, prev, k * params.period, cfg).final_state
    z = flow_map(params, prev, cfg)
    return SeedResult(z=z, contraction=float(np.max(np.abs(z - prev))))


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
    probe's exactly.  Other probes are plain :func:`flow_map` runs, first
    at tau = 1e-6 times the current defect when that is looser than
    ``cfg``.  The loose defect decides only when it lies farther than
    10 tau (1 + max |z_try|) from the current defect; a near tie, a NaN
    or a failed loose run is settled by one run at ``cfg``
    (:func:`_probe_defect`).  The margin is 3.8 times the largest loose
    error measured over the 1,461 random-draw searches of the test
    suite, so a probe is accepted or rejected as a run at ``cfg`` would
    decide, and the search takes the same steps and reports the same
    bits.

    The orbit's ``densities`` come from the monodromy run at the
    returned z0: its dense output at the 255 sample times inside the
    period, at 3 ``rhs_log`` calls per step of that run.

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
        # z(0), the dense output of the run that closed the orbit, z(T)
        ts = np.linspace(0.0, params.period, _ORBIT_SAMPLES + 1)
        densities = Trajectory(ts, np.exp(np.vstack(
            (z, run.states_at(ts[1:-1]), zT))))
        return PeriodicOrbit(z, rnorm, M, it, densities, tuple(history),
                             noise_floor=floor, stop_rule=stop_rule)

    for it in range(max_iter + 1):
        run = flow_and_monodromy(params, z, cfg) if handed is None else handed
        zT, M = run
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
                    r_try = float(np.max(np.abs(handed[0] - z_try)))
                else:
                    r_try = _probe_defect(params, z_try, rnorm, cfg)
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


def _probe_defect(params: ModelParams, z_try, rnorm: float,
                  cfg: IntegratorConfig) -> float:
    """The defect of a plain line-search probe at z_try, exact enough to
    compare with the current defect rnorm.

    When tau = 1e-6 rnorm is looser than ``cfg``, the probe first runs
    with both tolerances at tau, and that defect is
    returned when it is finite and more than 10 tau (1 + max |z_try|)
    from rnorm.  Otherwise, a loose run's integration failure included,
    it is the defect of one run at ``cfg``, whose failures propagate.
    """
    tau = _LOOSE_TOL_FACTOR * rnorm
    if tau > max(cfg.abs_tol, cfg.rel_tol):
        try:
            zT = flow_map(params, z_try, replace(cfg, abs_tol=tau, rel_tol=tau))
            r = float(np.max(np.abs(zT - z_try)))
        except (IntegrationError, DomainOverflowError):
            r = math.nan
        margin = _LOOSE_MARGIN * tau * (1.0 + float(np.max(np.abs(z_try))))
        if math.isfinite(r) and abs(r - rnorm) > margin:
            return r
    return float(np.max(np.abs(flow_map(params, z_try, cfg) - z_try)))


def detect_steady_state(params: ModelParams, z,
                        cfg: IntegratorConfig) -> PeriodicOrbit | None:
    """Recognise an (near-)equilibrium posing as a periodic solution.

    Integrates one period in the original frame from x = exp(z) and, if
    every component's sample variance is below 1e-12 times the square of
    the largest sampled density, returns the densities it integrated as
    an orbit from z with ``stop_rule`` "steady_state".  Relative to that
    density, the test does not depend on the units the densities are
    measured in.

    A head run over the first 1/32 of the period, sampled at the same
    times, comes first.  A steady period keeps each of its 257 samples
    within r s of its component's mean, with r = sqrt(257e-12) =
    1.603e-5 and s the largest sampled density, and so s is below
    max(x0) / (1 - 2r).  So when either component spreads over the 9
    head samples by more than 2r max(x0) / (1 - 2r) = 3.206e-5 max(x0),
    plus 10 (abs_tol + rel_tol max(x0)) for the two runs' different
    steps, the period is not steady and None is returned without the
    full run.
    Otherwise the full run and its test decide, from t = 0, so a steady
    state's samples do not depend on the head run.

    The linearisation is done in the original frame,
    which stays regular when a species sits on (or exponentially close
    to) its extinction axis, where the log frame has no finite fixed
    point.

    A steady state on a boundary is linearised at the exact boundary
    state of :func:`diagnose_extinction`, x_i = 0 and x_j = k_j with
    r_j_bar > 0, when every sampled density lies within 1e-6 of its own
    carrying capacity of that state: x_i below 1e-6 k_i, x_j within
    1e-6 k_j of k_j.  Each species is judged on its own scale, so an
    interior equilibrium whose x_i is small only through its units or
    k_i is not taken for the boundary.  There M is upper or lower
    triangular.  Its diagonal is in closed form, e^{lambda_i} with the
    invasion exponent lambda_i and e^{-T r_j_bar}, and M_ij is 0.  Only
    the coupling entry M_ji comes from the variational run, which starts
    at that state, so x stays there exactly.  Any other steady state is
    linearised along the run from x = exp(z).  An interior equilibrium
    that close to a boundary state lies next to a transcritical point:
    its multiplier across the boundary, like the boundary state's, is 1
    to within about 1e-6 times T and the rates, so the two verdicts can
    differ only that close to the unit circle.
    """
    z = np.array(z, dtype=float)
    x0 = np.exp(z)
    ts = np.linspace(0.0, params.period, _ORBIT_SAMPLES + 1)
    field = MethodType(rhs_original, params)
    end = _ORBIT_SAMPLES // _HEAD_FRACTION
    head = integrate(field, 0.0, x0, ts[end], cfg, t_eval=ts[1:end]).states
    top = float(np.max(x0))
    if (np.max(np.ptp(head, axis=0)) > _HEAD_SPREAD * top
            + _HEAD_MARGIN * (cfg.abs_tol + cfg.rel_tol * top)):
        return None
    traj = integrate(field, 0.0, x0, params.period, cfg, t_eval=ts[1:-1])
    scale = float(np.max(traj.states))
    if (scale > 0.0 and np.max(np.var(traj.states / scale, axis=0))
            >= _STEADY_VARIANCE_TOL):
        return None
    T, means = params.period, (params.r1.mean, params.r2.mean)
    k = np.array([params.k1, params.k2])
    x, boundary = x0, False
    for i, j in ((0, 1), (1, 0)):
        edge = np.zeros(2)
        edge[j] = k[j]
        if means[j] > 0.0 and np.all(np.abs(traj.states - edge)
                                     < _BOUNDARY_DENSITY * k):
            x, boundary = edge, True
            break
    _, M = variational_flow(field, MethodType(jac_original, params),
                            0.0, x, T, cfg)
    if boundary:
        M = M.copy()
        M[i, i] = math.exp(T * averaged_rates(params, *x)[i])
        M[j, j] = math.exp(-T * means[j])
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
