"""The public surface, pinned as literal lists.

A change to the package's exports or to ModeOperators' public methods has to
edit these lists on purpose.
"""

import conekit
from conekit.operators import ModeOperators


def test_package_exports():
    assert sorted(conekit.__all__) == [
        "AbsorbingReport", "AsymptoticSpace", "BoundarySpectrum", "CutoffFunction",
        "DiagnosticsRecord", "Field", "GammaWindow", "IndicialRoot",
        "LinearizationSpectrum", "LojasiewiczProbe", "ModeEigensystem", "ModeOperators",
        "RadialMesh", "SemiflowResult", "SemiflowState", "SolverError",
        "StabilityError", "StepperConfig", "Surd", "SurfaceProfile", "TipFit",
        "absorbing_set_experiment", "asymptotic_space", "bilaplacian_indicial_roots",
        "boundary_spectrum", "build_mesh", "build_profile", "ch_gamma_window",
        "constant_field", "energy", "energy_gradient", "field_from_modes",
        "fit_tip_asymptotics", "gradient_residual", "h01_dual_norm", "h1_seminorm",
        "interpolation_exclusions", "l2_norm", "laplacian_gamma_window",
        "laplacian_indicial_roots", "linearization_spectrum", "lojasiewicz_probe",
        "lp_norm", "mean", "mellin_norm", "mellin_refinement_study",
        "minimal_domain_check", "poincare_constant", "run_semiflow",
        "smooth_random_field", "tip_probe",
    ]


def test_mode_operators_public_methods():
    assert sorted(name for name in vars(ModeOperators) if not name.startswith("_")) == [
        "apply_laplacian", "apply_laplacian_coeffs", "ch_factorization",
        "eigendecompose_mode", "gauss_defect", "neglap_bands", "smallest_eigenvalue",
        "solve_ch_system", "solve_neglap", "solve_neglap_pivoted",
    ]
