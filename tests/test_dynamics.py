"""Semiflow stepper: energy, gradient, fixed points, stability, initial checks."""

import math

import numpy as np
import pytest

from conekit.analysis import smooth_random_field
from conekit.dynamics import (ENERGY_INCREASE_TOL, DiagnosticsRecord,
                              StabilityError, StepperConfig,
                              energy, energy_gradient, gradient_residual,
                              run_semiflow)
from conekit.fields import Field, channel_weights, constant_field, field_from_modes
from conekit.geometry import build_mesh, build_profile
from conekit.operators import ModeOperators, SolverError
from conekit.spaces import h1_seminorm, l2_norm, mean
from conftest import eigensystem


def random_field(mesh, max_mode, rng, amplitude=1.0):
    c = rng.standard_normal((max_mode + 1, 2, mesh.cells))
    c[0, 1, :] = 0.0
    return Field(mesh, amplitude * c)


def mean_zero(u):
    c = u.coeffs.copy()
    c[0, 0] -= float(u.mesh.volumes @ c[0, 0]) / u.mesh.area
    return Field(u.mesh, c)


def pairing(a, b):
    """Volume/channel inner product between two fields on one mesh."""
    w = channel_weights(a.max_mode)
    return float(np.einsum("kci,kc,i->", a.coeffs * b.coeffs, w, a.mesh.volumes))


def eigenmode_field(ops, mode, index, amplitude=1.0):
    vals, vecs = eigensystem(ops, mode)
    mu = float(vals[index])
    phi = vecs[:, index]
    return mu, field_from_modes(ops.mesh, ops.max_mode, amplitude * phi, mode=mode)


# ------------------------------------------------------------------ energy


def test_energy_of_zero_field_is_zero(sphere_ops):
    u = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 0.0)
    assert energy(u) == 0.0


def test_energy_of_unit_constant_on_unit_sphere(sphere_ops):
    u = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 1.0)
    e = energy(u)
    assert e == pytest.approx(-math.pi, rel=1e-3)
    assert e == pytest.approx(-sphere_ops.mesh.area / 4.0, rel=1e-12)


def test_energy_of_general_constant(cone_ops):
    m = 0.4
    u = constant_field(cone_ops.mesh, cone_ops.max_mode, m)
    expected = cone_ops.mesh.area * (m ** 4 / 4.0 - m ** 2 / 2.0)
    assert energy(u) == pytest.approx(expected, rel=1e-12)


def test_linear_only_energy_is_quadratic(small_sphere_ops, rng):
    u = random_field(small_sphere_ops.mesh, small_sphere_ops.max_mode, rng, 0.3)
    expected = 0.5 * h1_seminorm(u) ** 2 - 0.5 * l2_norm(u) ** 2
    assert energy(u, linear_only=True) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------- gradient


def test_energy_gradient_of_zero_field_is_zero(sphere_ops):
    u = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 0.0)
    assert np.all(energy_gradient(u, sphere_ops).coeffs == 0.0)


def test_energy_gradient_of_constant_is_minus_mean(sphere_ops):
    m = 0.7
    u = constant_field(sphere_ops.mesh, sphere_ops.max_mode, m)
    g = energy_gradient(u, sphere_ops)
    # -Lap(m) + m^3 - m with the cubic's mean removed leaves exactly -m
    assert np.allclose(g.coeffs[0, 0], -m, atol=1e-12)
    other = g.coeffs.copy()
    other[0, 0] = 0.0
    assert np.all(other == 0.0)


def test_constant_is_a_critical_point(sphere_ops):
    u = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 0.25)
    assert gradient_residual(u, sphere_ops) <= 1e-12


def test_energy_gradient_matches_centered_differences(small_sphere_ops, rng):
    # the gradient is defined on the mass-preserving directions, so the
    # perturbations are mean-projected before pairing
    ops = small_sphere_ops
    orders = []
    for _ in range(10):
        u = random_field(ops.mesh, ops.max_mode, rng, 0.4)
        h = mean_zero(random_field(ops.mesh, ops.max_mode, rng, 0.4))
        directional = pairing(energy_gradient(u, ops), h)
        errs = []
        eps_list = (1e-2, 5e-3, 2.5e-3)
        for eps in eps_list:
            fd = (energy(u + eps * h) - energy(u + (-eps) * h)) / (2.0 * eps)
            errs.append(abs(fd - directional))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        orders.append(slope)
    assert all(1.8 <= o <= 2.2 for o in orders), orders


# -------------------------------------------------------------- single step


def test_constant_state_is_a_fixed_point(small_sphere_ops):
    m = 0.3
    cfg = StepperConfig(dt=1e-3, t_max=1e-3, eq_tol=0.0)
    u0 = constant_field(small_sphere_ops.mesh, small_sphere_ops.max_mode, m)
    new = run_semiflow(small_sphere_ops, u0, cfg).state
    assert new.step == 1
    assert np.allclose(new.u.coeffs[0, 0], m, atol=1e-13)


def test_linear_only_step_is_exact_rational_amplification(small_sphere_ops):
    ops = small_sphere_ops
    dt, s = 1e-3, 2.0
    cfg = StepperConfig(dt=dt, stabilization=s, t_max=dt, eq_tol=0.0, linear_only=True)
    mu, u0 = eigenmode_field(ops, 1, 0, amplitude=1e-3)
    new = run_semiflow(ops, u0, cfg).state
    amp = (1.0 + dt * (1.0 + s) * mu) / (1.0 + dt * mu ** 2 + s * dt * mu)
    assert np.allclose(new.u.coeffs, amp * u0.coeffs,
                       atol=1e-12 * np.abs(u0.coeffs).max())


def test_linear_only_step_consistent_with_exponential(small_sphere_ops):
    # one step against the exact linearized propagator: local error O(dt^2)
    ops = small_sphere_ops
    mu, u0 = eigenmode_field(ops, 1, 0, amplitude=1.0)
    rate = mu - mu ** 2
    errs, dts = [], (1e-2, 5e-3, 2.5e-3)
    for dt in dts:
        cfg = StepperConfig(dt=dt, stabilization=2.0, t_max=dt, eq_tol=0.0, linear_only=True)
        new = run_semiflow(ops, u0, cfg).state
        exact = math.exp(rate * dt) * u0.coeffs
        errs.append(np.abs(new.u.coeffs - exact).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_mass_is_conserved_across_steps(small_sphere_ops, rng):
    ops = small_sphere_ops
    u0 = random_field(ops.mesh, ops.max_mode, rng, 0.2) \
        + constant_field(ops.mesh, ops.max_mode, 0.1)
    cfg = StepperConfig(dt=1e-3, t_max=200 * 1e-3, eq_tol=0.0)
    mass0 = float(ops.mesh.integrate_radial(u0.coeffs[0, 0]))
    state = run_semiflow(ops, u0, cfg).state
    assert state.step == 200
    mass = float(ops.mesh.integrate_radial(state.u.coeffs[0, 0]))
    assert abs(mass - mass0) <= 1e-13 * (1.0 + abs(mass0))


# ------------------------------------------------------------- equilibrium


def test_residual_decays_geometrically_in_linear_flow(small_sphere_ops):
    ops = small_sphere_ops
    dt, s = 1e-2, 2.0
    mu, u0 = eigenmode_field(ops, 1, 0, amplitude=1e-3)
    cfg = StepperConfig(dt=dt, stabilization=s, t_max=40 * dt, eq_tol=0.0,
                        snapshot_stride=1, linear_only=True)
    seen = []
    run_semiflow(ops, u0, cfg, on_record=lambda rec, _coeffs: seen.append(rec.ut_h01dual))
    amp = (1.0 + dt * (1.0 + s) * mu) / (1.0 + dt * mu ** 2 + s * dt * mu)
    ratios = [b / a for a, b in zip(seen[2:], seen[3:])]
    assert all(abs(r - amp) <= 0.01 * amp for r in ratios), ratios[:5]


# ----------------------------------------------------------------- semiflow


def test_zero_initial_data_exits_immediately(small_sphere_ops):
    u0 = constant_field(small_sphere_ops.mesh, small_sphere_ops.max_mode, 0.0)
    result = run_semiflow(small_sphere_ops, u0, StepperConfig(dt=1e-3))
    assert result.equilibrium_reached is True
    assert result.state.step == 1
    assert result.final_residual == 0.0
    assert np.all(result.state.u.coeffs == 0.0)
    assert [rec.step for rec in result.records] == [0, 1]


def test_constant_initial_data_is_stationary(small_sphere_ops):
    m = 0.2
    u0 = constant_field(small_sphere_ops.mesh, small_sphere_ops.max_mode, m)
    result = run_semiflow(small_sphere_ops, u0, StepperConfig(dt=1e-3))
    assert result.equilibrium_reached is True
    assert np.allclose(result.state.u.coeffs[0, 0], m, atol=1e-12)


def test_small_perturbation_relaxes_to_homogeneous_state(small_sphere_ops):
    ops = small_sphere_ops
    eq_tol = 1e-8
    _, u0 = eigenmode_field(ops, 1, 0, amplitude=1e-3)
    cfg = StepperConfig(dt=1e-3, eq_tol=eq_tol, snapshot_stride=500)
    result = run_semiflow(ops, u0, cfg)
    assert result.equilibrium_reached is True
    assert result.final_residual <= eq_tol
    assert result.state.u.max_abs() <= 1e-6
    # the detected equilibrium is a genuine critical point
    assert gradient_residual(result.state.u, ops) <= 10.0 * eq_tol
    # distance to the (zero) limit decays monotonically along records
    sups = [rec.max_abs_u for rec in result.records]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(sups, sups[1:]))


def test_energy_is_nonincreasing_along_random_runs(small_sphere_ops, rng):
    ops = small_sphere_ops
    u0 = mean_zero(random_field(ops.mesh, ops.max_mode, rng, 0.3))
    cfg = StepperConfig(dt=1e-3, t_max=0.5, eq_tol=0.0, snapshot_stride=10)
    result = run_semiflow(ops, u0, cfg)
    energies = [rec.energy for rec in result.records]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + ENERGY_INCREASE_TOL * (1.0 + abs(a))


def test_record_stream_starts_at_step_zero(small_sphere_ops, rng):
    ops = small_sphere_ops
    u0 = mean_zero(random_field(ops.mesh, ops.max_mode, rng, 0.1))
    cfg = StepperConfig(dt=1e-3, t_max=0.02, eq_tol=0.0, snapshot_stride=10)
    result = run_semiflow(ops, u0, cfg)
    first = result.records[0]
    assert first.step == 0 and first.t == 0.0
    assert first.energy == pytest.approx(energy(u0), rel=1e-14)
    assert first.mass == pytest.approx(
        float(ops.mesh.integrate_radial(u0.coeffs[0, 0])), rel=1e-14)
    assert [rec.step for rec in result.records] == [0, 10, 20]
    assert len(DiagnosticsRecord.CSV_FIELDS) == len(first.csv_values())
    assert all(np.isfinite(v) for v in first.csv_values())


def test_oversized_step_aborts_with_stability_error(small_sphere_ops):
    ops = small_sphere_ops
    c = np.zeros((ops.max_mode + 1, 2, ops.mesh.cells))
    c[0, 0] = 4.0 * np.cos(ops.mesh.centers)
    u0 = Field(ops.mesh, c)
    cfg = StepperConfig(dt=10.0, t_max=1000.0, eq_tol=0.0, snapshot_stride=1)
    seen = []
    with pytest.raises(StabilityError, match="reduce dt or raise"):
        run_semiflow(ops, u0, cfg, on_record=lambda rec, _coeffs: seen.append(rec))
    # the offending record is emitted before the abort
    assert len(seen) >= 2
    assert seen[-1].energy > seen[-2].energy


def test_non_finite_energy_trips_the_guard(monkeypatch):
    # a solver that let NaN through must not yield a run that ends normally
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 24, 1.0), 2)
    # the semiflow solves in two halves, the sweeps and their verification
    monkeypatch.setattr(ops, "_ch_sweeps", lambda rhs, dt, s: np.full(
        (rhs.shape[1] * rhs.shape[3], 2 * rhs.shape[0]), math.nan))
    monkeypatch.setattr(ops, "_ch_verify", lambda rhs, sol, dt, s: None)
    u0 = field_from_modes(ops.mesh, 2, lambda s: 0.1 * np.cos(s), mode=0)
    cfg = StepperConfig(dt=1e-3, t_max=0.01, eq_tol=0.0, snapshot_stride=100)
    seen = []
    with pytest.raises(StabilityError, match="reduce dt or raise"):
        run_semiflow(ops, u0, cfg, on_record=lambda rec, _coeffs: seen.append(rec))
    assert [rec.step for rec in seen] == [0, 1]
    assert math.isnan(seen[-1].energy)


def test_non_finite_state_is_rejected_before_any_record(small_sphere_ops, rng):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=1e-3, t_max=5e-3, eq_tol=0.0)
    good = random_field(ops.mesh, ops.max_mode, rng, 0.1)
    for value in (math.nan, math.inf):
        bad = good.copy()
        bad.coeffs[1, 0, 3] = value
        seen = []
        with pytest.raises(ValueError, match="member 0 has a non-finite state at step 0"):
            run_semiflow(ops, bad, cfg, on_record=lambda rec, _coeffs: seen.append(rec))
        assert seen == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the mean's sum overflows
def test_finite_state_whose_mean_overflows_is_rejected_before_any_record(small_sphere_ops):
    ops = small_sphere_ops
    c = np.zeros((ops.max_mode + 1, 2, ops.mesh.cells))
    c[0, 0] = 1e308
    huge = Field(ops.mesh, c)
    assert np.isfinite(huge.coeffs).all() and math.isinf(mean(huge))
    seen = []
    with pytest.raises(ValueError, match="member 0 has a non-finite state at step 0"):
        run_semiflow(ops, huge, StepperConfig(dt=1e-3, t_max=5e-3, eq_tol=0.0),
                     on_record=lambda rec, _coeffs: seen.append(rec))
    assert seen == []


def test_a_run_starts_from_a_field_not_from_a_state(small_sphere_ops, rng):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=1e-3, t_max=2e-3, eq_tol=0.0)
    result = run_semiflow(ops, random_field(ops.mesh, ops.max_mode, rng, 0.1), cfg)
    assert result.state.step == 2
    with pytest.raises(TypeError, match="member 0 is a SemiflowState, not a Field"):
        run_semiflow(ops, result.state, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_state_records_step_0_then_fails_the_solve():
    # a finite field whose cube overflows: no dual residual at step 0, then a failed solve
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 24, 1.0), 2)
    with np.errstate(all="ignore"):
        big = smooth_random_field(ops, np.random.default_rng(1), sup_amplitude=1e200)
    assert np.isfinite(big.coeffs).all()
    cfg = StepperConfig(dt=1e-2, stabilization=0.0, t_max=0.5, eq_tol=0.0, snapshot_stride=5)
    seen = []
    with pytest.raises(SolverError, match="residual nan"):
        run_semiflow(ops, big, cfg, on_record=lambda rec, _coeffs: seen.append(rec))
    assert [rec.step for rec in seen] == [0] and math.isnan(seen[0].ut_h01dual)


def test_stepper_config_validation():
    with pytest.raises(ValueError, match="dt"):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError, match="stabilization"):
        StepperConfig(stabilization=-1.0)
    with pytest.raises(ValueError, match="stride"):
        StepperConfig(snapshot_stride=0)
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_max"):
            StepperConfig(t_max=t_max)


@pytest.mark.parametrize("stride", [1.5, 2.0, True, np.True_, "3", None])
def test_stepper_config_rejects_a_stride_that_is_not_an_integer(stride):
    with pytest.raises(ValueError, match="snapshot_stride must be an integer >= 1"):
        StepperConfig(snapshot_stride=stride)


@pytest.mark.parametrize("stride", [1, 7, np.int64(3), np.int32(5)])
def test_stepper_config_takes_python_and_numpy_integer_strides(stride):
    assert StepperConfig(snapshot_stride=stride).snapshot_stride == stride


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["dt", "stabilization", "t_max", "eq_tol", "mellin_gamma"])
def test_stepper_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        StepperConfig(**{name: value})

