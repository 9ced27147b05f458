"""Simulation and stability certification for degenerate beam/wave equations
with delayed distributed damping and nonlinear sources."""

from .degeneracy import (CoefficientProfile, CoefficientSpec, STRONGLY_DEGENERATE,
                         WEAKLY_DEGENERATE, classify)
from .delay import (GrowthEnvelope, HistoryBuffer, KernelSpec, SubdomainP,
                    apply_B, apply_Bstar, kernel_growth_check, kernel_window_bound,
                    subdomain_gain)
from .diagnostics import (BoundReport, CertificationResult, DecayFit,
                          EnergyBreakdown, ThresholdCertificate, decay_fit,
                          energy_bound_check, energy_breakdown, growth_envelope_C,
                          threshold_certificate)
from .errors import (BoundViolatedError, DegenerateFitError, DegenwaveError,
                     EigSolveFailureError, GridTooCoarseError, InconsistentBCError,
                     InfeasibleError, KOutOfRangeError, NonDegenerateError,
                     NotExponentiallyStableError,
                     NotLocallyIntegrableError, NotPositiveError,
                     QueryOutOfWindowError, SubdomainNotAlignedError)
from .evolution import (Scenario, SemigroupCertificate, Trajectory, certify_scenario,
                        duhamel_residual, eigenmode_state, polynomial_state,
                        semigroup_constants, simulate, smallness_level)
from .grids import Grid
from .nonlinearity import (NonlinearityConstants, SourceKind, constants_for,
                           eval_F_functional, eval_f, h_eval, h_inverse,
                           hardy_poincare_constant, lipschitz_bound,
                           sobolev_pointwise_bound_check)
from .operators import (BoundaryParams, DiscreteGenerator, OperatorKind, assemble,
                        from_curvature, from_face_slopes, gauss_green_residual)

__version__ = "0.1.0"
