"""The public surface, pinned as literal lists.

A change to the package's exports, to ModeOperators' public methods or to the
fields of the run results has to edit these lists on purpose.
"""

import dataclasses

import conekit
from conekit.dynamics import DiagnosticsRecord, SemiflowResult, SemiflowState
from conekit.operators import ModeOperators


def test_package_exports():
    assert sorted(conekit.__all__) == [
        "AbsorbingReport", "AsymptoticSpace", "BoundarySpectrum", "CutoffFunction",
        "DiagnosticsRecord", "Field", "GammaWindow", "IndicialRoot",
        "LojasiewiczProbe", "ModeOperators",
        "RadialMesh", "SemiflowResult", "SemiflowState", "SolverError",
        "StabilityError", "StepperConfig", "Surd", "SurfaceProfile", "TipFit",
        "absorbing_set_experiment", "asymptotic_space", "bilaplacian_indicial_roots",
        "boundary_spectrum", "build_mesh", "build_profile", "ch_gamma_window",
        "constant_field", "energy", "energy_gradient", "field_from_modes",
        "fit_tip_asymptotics", "gradient_residual", "h01_dual_norm", "h1_seminorm",
        "interpolation_exclusions", "l2_norm", "laplacian_gamma_window",
        "laplacian_indicial_roots", "lojasiewicz_probe",
        "lp_norm", "mean", "mellin_norm",
        "minimal_domain_check", "poincare_constant", "run_semiflow",
        "smooth_random_field", "tip_probe",
    ]


def test_mode_operators_public_methods():
    assert sorted(name for name in vars(ModeOperators) if not name.startswith("_")) == [
        "apply_laplacian", "apply_laplacian_coeffs", "ch_factorization",
        "eigenvalues", "gauss_defect", "neglap_bands", "smallest_eigenvalue",
        "solve_ch_system", "solve_neglap", "solve_neglap_field", "solve_neglap_pivoted",
    ]


def test_run_result_fields():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(SemiflowState) == ["u", "step"]
    assert names(SemiflowResult) == ["records", "state", "equilibrium_reached",
                                     "final_residual", "snapshots"]
    assert names(DiagnosticsRecord) == ["step", "t", "mass", "energy", "h1_seminorm",
                                        "ut_h01dual", "mellin_s0", "mellin_s1", "max_abs_u"]
