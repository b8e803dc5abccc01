"""The public surface, pinned as literal lists, and the one rule for its integer arguments.

A change to the package's exports, to ModeOperators' public methods or to the
fields of the run results has to edit these lists on purpose.
"""

import dataclasses
import re

import numpy as np
import pytest
from conftest import mode_field

import conekit
from conekit.analysis import absorbing_set_experiment, fit_tip_asymptotics, tip_probe
from conekit.dynamics import DiagnosticsRecord, SemiflowResult, SemiflowState, StepperConfig
from conekit.fields import constant_field
from conekit.geometry import boundary_spectrum, build_mesh, build_profile
from conekit.operators import ModeOperators
from conekit.spaces import mellin_norm


def test_package_exports():
    assert sorted(conekit.__all__) == [
        "AbsorbingReport", "DiagnosticsRecord", "Field",
        "GammaWindow", "IndicialRoot", "LojasiewiczProbe", "ModeOperators",
        "RadialMesh", "SemiflowResult", "SemiflowState", "SolverError",
        "StabilityError", "StepperConfig", "Surd", "SurfaceProfile", "TipFit",
        "absorbing_set_experiment", "asymptotic_space", "bilaplacian_indicial_roots",
        "boundary_spectrum", "build_mesh", "build_profile", "ch_gamma_window",
        "constant_field", "energy", "energy_gradient",
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
        "eigenvalues", "neglap_bands", "smallest_eigenvalue",
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


PROFILE = build_profile("cone_capped", c=1, length=2.0)
OPS = ModeOperators(build_mesh(PROFILE, 64, 0.8), 3)
FIELD = mode_field(OPS.mesh, 3, lambda x: x, mode=1)
RHS = np.exp(-((OPS.mesh.centers - 1.5) / 0.16) ** 2)

# entry point -> (argument name, call with that argument, a value it takes)
INTEGER_ARGUMENTS = {
    "ModeOperators": ("max_mode", lambda k: ModeOperators(OPS.mesh, k), 1),
    "neglap_bands": ("mode", OPS.neglap_bands, 1),
    "eigenvalues": ("mode", OPS.eigenvalues, 1),
    "solve_neglap": ("mode", lambda k: OPS.solve_neglap(k, RHS), 1),
    "solve_neglap_pivoted": ("mode (-L_0 is singular)", lambda k: OPS.solve_neglap_pivoted(k, RHS), 1),
    "smallest_eigenvalue": ("mode", OPS.smallest_eigenvalue, 1),
    "fit_tip_asymptotics": ("mode", lambda k: fit_tip_asymptotics(FIELD, k), 1),
    "tip_probe": ("mode (-L_0 is singular)", lambda k: tip_probe(OPS, k), 1),
    "mellin_norm": ("order s", lambda s: mellin_norm(FIELD, s, -0.75), 1),
    "build_mesh": ("cells", lambda m: build_mesh(PROFILE, m), 8),
    "constant_field": ("max_mode", lambda k: constant_field(OPS.mesh, k, 0.5), 1),
    "boundary_spectrum": ("max_mode", lambda k: boundary_spectrum(PROFILE, k), 1),
    "snapshot_stride": ("snapshot_stride", lambda k: StepperConfig(snapshot_stride=k), 1),
    "absorbing_set_experiment": ("seeds_per_radius", lambda k: absorbing_set_experiment(
        OPS, StepperConfig(t_max=1e-3), seeds_per_radius=k), None),   # None: too long to run
}


@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_take_only_integers(entry, bad):
    # a float mode used to return a spectrum or a solution, and True counted as 1
    name, call, good = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer .*, got {bad}$"):
        call(bad)
    if good is not None:
        call(np.int64(good))
