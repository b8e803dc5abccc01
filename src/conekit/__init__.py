"""conekit: phase-separation dynamics and exact tip asymptotics on conic surfaces.

The package pairs two views of the same geometry:

* an exact symbolic layer (``indicial``) that computes tip exponents,
  admissible weight windows, and branch spaces with rational/surd arithmetic;
* a numerical layer (``geometry``/``operators``/``dynamics``/``analysis``)
  with a mass-conserving, energy-decreasing solver for the fourth-order
  phase-separation flow and measurement tools that recover the symbolic
  predictions from the computed fields.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .geometry import (RadialMesh, SurfaceProfile, boundary_spectrum, build_mesh,
                       build_profile)
from .fields import Field, constant_field
from .operators import ModeOperators, SolverError
from .spaces import (h01_dual_norm, h1_seminorm, l2_norm, lp_norm, mean,
                     mellin_norm, poincare_constant)
from .indicial import (GammaWindow, IndicialRoot, Surd, asymptotic_space,
                       bilaplacian_indicial_roots, ch_gamma_window,
                       interpolation_exclusions, laplacian_gamma_window,
                       laplacian_indicial_roots, minimal_domain_check)
from .dynamics import (DiagnosticsRecord, SemiflowResult, SemiflowState,
                       StabilityError, StepperConfig, energy, energy_gradient,
                       gradient_residual, run_semiflow)
from .analysis import (AbsorbingReport, LojasiewiczProbe, TipFit,
                       absorbing_set_experiment, fit_tip_asymptotics,
                       lojasiewicz_probe, smooth_random_field, tip_probe)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
