"""Toolkit for a seasonally forced two-species phytoplankton
competition model with a fear effect and toxin release.

Provides periodic coefficient functions, the model vector fields in
original and log coordinates, the sufficient-condition checker with its
a priori bound ladder, adaptive Runge-Kutta integration (Hairer's
DOP853), a shooting solver for periodic solutions with Floquet
stability analysis, the period-averaged algebraic system, and a
config-driven CLI.
"""

from .averaged import (AveragedRoot, DegenerateAveragedSystemError,
                       averaged_equilibria)
from .coefficients import PeriodicCoefficient, extrema
from .conditions import (BoundReport, DegenerateParameterError, M0_CANONICAL,
                         M0_VARIANT_K2, compute_bounds)
from .integrator import (IntegratorConfig, IntegrationError,
                         NonFiniteStateError, StepUnderflowError, Trajectory,
                         flow_and_monodromy, flow_map, integrate,
                         variational_flow, write_trajectory_csv)
from .model import (DomainOverflowError, ModelParams, averaged_jacobian,
                    averaged_rates, jac_log, jac_original, rhs_log,
                    rhs_original)
from .orbit import (BoundCheck, ExtinctionDiagnosis, NearDegenerateOrbitError,
                    NonConvergenceError, OrbitSearchError, PeriodicOrbit,
                    SeedResult, detect_steady_state, diagnose_extinction,
                    find_periodic_orbit, seed_by_transient, verify_bounds)

__version__ = "0.1.0"
