"""Measurement tools: tip fits, decay-exponent probes, ensembles."""

import math
import os

import numpy as np
import pytest

import conekit.analysis
import conekit.dynamics
from conekit.analysis import (absorbing_set_experiment, fit_lojasiewicz,
                              fit_tip_asymptotics, lojasiewicz_probe,
                              smooth_random_field, tip_probe)
from conekit.dynamics import StepperConfig, run_semiflow
from conekit.fields import Field, constant_field, field_from_modes
from conekit.geometry import build_mesh, build_profile
from conekit.operators import ModeOperators
from conekit.spaces import h01_dual_norm, mean, mellin_norm
from conftest import eigensystem


# ----------------------------------------------------------------- tip fits


def test_fit_is_exact_on_pure_powers(graded_cone_ops):
    mesh = graded_cone_ops.mesh
    for mode, rho in ((1, 1.5), (2, 2.0), (3, 0.75)):
        c = np.zeros((graded_cone_ops.max_mode + 1, 2, mesh.cells))
        c[mode, 0] = mesh.centers ** rho
        fit = fit_tip_asymptotics(Field(mesh, c), mode)
        assert fit.rho_hat == pytest.approx(rho, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points >= 8


def test_fit_is_scale_equivariant(graded_cone_ops):
    mesh = graded_cone_ops.mesh
    c = np.zeros((graded_cone_ops.max_mode + 1, 2, mesh.cells))
    c[1, 0] = mesh.centers ** 1.25
    base = fit_tip_asymptotics(Field(mesh, c), 1)
    scaled = fit_tip_asymptotics(Field(mesh, 40.0 * c), 1)
    assert scaled.rho_hat == pytest.approx(base.rho_hat, abs=1e-12)


def test_fit_mode_zero_reports_log_slope(graded_cone_ops):
    mesh = graded_cone_ops.mesh
    c = np.zeros((graded_cone_ops.max_mode + 1, 2, mesh.cells))
    c[0, 0] = 3.0 + 0.7 * np.log(mesh.centers)
    fit = fit_tip_asymptotics(Field(mesh, c), 0)
    assert fit.rho_hat is None
    assert fit.log_slope == pytest.approx(0.7, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # the same line fit as every other exponent, on the signed profile in the default window
    lo, hi = fit.window
    assert (lo, hi) == (2.0 * mesh.s_min, 0.1 * mesh.length)
    tip = (mesh.centers >= lo) & (mesh.centers < hi)
    assert fit.log_slope == np.polyfit(np.log(mesh.centers[tip]), c[0, 0, tip], 1)[0]


def test_fit_rejects_thin_windows_and_absent_modes(graded_cone_ops):
    mesh = graded_cone_ops.mesh
    c = np.zeros((graded_cone_ops.max_mode + 1, 2, mesh.cells))
    c[1, 0] = mesh.centers
    u = Field(mesh, c)
    with pytest.raises(ValueError, match="cells"):
        fit_tip_asymptotics(u, 1, window=(0.5, 0.5001))
    with pytest.raises(ValueError, match="numerically absent"):
        fit_tip_asymptotics(u, 2)
    with pytest.raises(ValueError, match="exceeds"):
        fit_tip_asymptotics(u, u.max_mode + 1)


def test_tip_probe_recovers_branch_exponents(graded_cone_ops):
    _, fit1 = tip_probe(graded_cone_ops, 1)
    assert fit1.rho_hat == pytest.approx(1.0, abs=0.05)
    assert fit1.r_squared >= 0.999
    _, fit2 = tip_probe(graded_cone_ops, 2)
    assert fit2.rho_hat == pytest.approx(2.0, abs=0.05)
    assert fit2.r_squared >= 0.999


def test_fit_reads_the_mode_amplitude_in_either_channel(graded_cone_ops):
    # the fit must not change when the field is rotated: a probe profile moved
    # into the sin channel, or split between both channels, fits the same rho_hat
    mesh = graded_cone_ops.mesh
    sol, fit = tip_probe(graded_cone_ops, 1)
    c = np.zeros((graded_cone_ops.max_mode + 1, 2, mesh.cells))
    c[1, 1] = sol
    assert fit_tip_asymptotics(Field(mesh, c), 1) == fit
    c[1] = np.cos(0.7) * sol, np.sin(0.7) * sol
    rotated = fit_tip_asymptotics(Field(mesh, c), 1)
    assert rotated.rho_hat == pytest.approx(fit.rho_hat, abs=1e-12)
    assert rotated.r_squared == pytest.approx(fit.r_squared, abs=1e-12)


def test_tip_probe_mode_zero_has_no_log_branch(graded_cone_ops):
    sol, fit = tip_probe(graded_cone_ops, 0)
    assert fit.rho_hat is None
    assert abs(fit.log_slope) <= 1e-3 * np.abs(sol).max()


# --------------------------------------------------------- decay exponents


def test_fit_lojasiewicz_synthetic_power_laws():
    gaps = np.logspace(-12.0, -2.0, 200)
    for theta in (0.5, 0.3):
        grads = 3.7 * gaps ** (1.0 - theta)
        theta_hat, slope, r2 = fit_lojasiewicz(gaps, grads)
        assert theta_hat == pytest.approx(theta, abs=1e-3)
        assert slope == pytest.approx(1.0 - theta, abs=1e-3)
        assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_lojasiewicz_is_invariant_under_unit_changes():
    gaps = np.logspace(-10.0, -3.0, 120)
    grads = 0.8 * gaps ** 0.5
    base = fit_lojasiewicz(gaps, grads)[0]
    rescaled = fit_lojasiewicz(gaps, 50.0 * grads)[0]
    assert rescaled == pytest.approx(base, abs=1e-12)
    with pytest.raises(ValueError, match="two samples"):
        fit_lojasiewicz(gaps[:1], grads[:1])


@pytest.fixture(scope="module")
def mode_one_relaxation(small_sphere_ops):
    """A run that decays linearly toward u = 0 from a small mode-1 eigenfunction."""
    ops = small_sphere_ops
    u0 = field_from_modes(ops.mesh, ops.max_mode, 1e-3 * eigensystem(ops, 1)[1][:, 0], mode=1)
    cfg = StepperConfig(dt=1e-3, eq_tol=1e-8, snapshot_stride=50)
    return run_semiflow(ops, u0, cfg, collect_snapshots=True)


def test_lojasiewicz_probe_near_stable_equilibrium(small_sphere_ops, mode_one_relaxation):
    # linear decay toward a nondegenerate minimum has exponent 1/2
    probe = lojasiewicz_probe(small_sphere_ops, mode_one_relaxation)
    assert 0.45 <= probe.theta_hat <= 0.55
    assert probe.r_squared >= 0.999
    assert probe.n_samples >= 10
    assert probe.in_bracket is True


def test_lojasiewicz_probe_drops_exactly_its_final_fraction(small_sphere_ops,
                                                          mode_one_relaxation):
    result = mode_one_relaxation
    energies = {rec.step: rec.energy for rec in result.records}
    e_inf = result.records[-1].energy
    above = sum(energies[step] - e_inf > 10.0 * np.finfo(float).eps * abs(e_inf)
                for step, _ in result.snapshots)
    for fraction in (0.0, 0.05, 0.2):
        probe = lojasiewicz_probe(small_sphere_ops, result, drop_last_fraction=fraction)
        assert probe.n_samples == above - math.ceil(fraction * above)


def test_lojasiewicz_probe_rejects_unfinished_runs(small_sphere_ops, rng):
    ops = small_sphere_ops
    u0 = smooth_random_field(ops, rng, sup_amplitude=0.3)
    cfg = StepperConfig(dt=1e-3, t_max=0.01, eq_tol=0.0, snapshot_stride=2)
    unfinished = run_semiflow(ops, u0, cfg, collect_snapshots=True)
    with pytest.raises(ValueError, match="equilibrium"):
        lojasiewicz_probe(ops, unfinished)

    u1 = constant_field(ops.mesh, ops.max_mode, 0.0)
    no_snaps = run_semiflow(ops, u1, StepperConfig(dt=1e-3))
    with pytest.raises(ValueError, match="snapshots"):
        lojasiewicz_probe(ops, no_snaps)


# ------------------------------------------------------------- random data


def test_smooth_random_field_is_mean_zero_and_scaled(small_sphere_ops, rng):
    ops = small_sphere_ops
    u = smooth_random_field(ops, rng, sup_amplitude=0.25)
    assert abs(mean(u)) <= 1e-13
    assert u.max_abs() == pytest.approx(0.25, rel=1e-12)
    v = smooth_random_field(ops, np.random.default_rng(3), dual_radius=2.0)
    assert h01_dual_norm(v, ops) == pytest.approx(2.0, rel=1e-10)


def test_smooth_random_field_is_seed_deterministic(small_sphere_ops):
    ops = small_sphere_ops
    a = smooth_random_field(ops, np.random.default_rng(11), sup_amplitude=0.5)
    b = smooth_random_field(ops, np.random.default_rng(11), sup_amplitude=0.5)
    c = smooth_random_field(ops, np.random.default_rng(12), sup_amplitude=0.5)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


# -------------------------------------------------------------- absorbing


def test_absorbing_experiment_is_deterministic(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=1e-3, t_max=0.2, eq_tol=0.0, snapshot_stride=20)
    kwargs = dict(radii=(0.5, 1.0), seeds_per_radius=2, base_seed=7)
    # three slices of the four members, each in a forked child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    first = absorbing_set_experiment(ops, cfg, **kwargs)
    second = absorbing_set_experiment(ops, cfg, **kwargs)
    # the same ensemble with every member run on its own, in this process
    batch = conekit.dynamics._run_batch
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(
        conekit.dynamics, "_run_batch",
        lambda ops, initials, cfg, collect_snapshots, checked=False: [
            batch(ops, [u], cfg, collect_snapshots=collect_snapshots, checked=checked)[0]
            for u in initials])
    serial = absorbing_set_experiment(ops, cfg, **kwargs)
    for report in (second, serial):
        assert report.level == first.level
        assert report.kappa == first.kappa
        assert report.entry_times == first.entry_times
        assert report.post_sups == first.post_sups
        assert report.tip_norm_sup == first.tip_norm_sup
        assert report.tip_norm_sup_lap == first.tip_norm_sup_lap
        assert np.array_equal(report.diam_times, first.diam_times)
        for r in first.radii:
            assert np.array_equal(report.diameters[r], first.diameters[r])


def test_absorbing_experiment_report_shape(small_sphere_ops):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=1e-3, t_max=0.2, eq_tol=0.0, snapshot_stride=20)
    report = absorbing_set_experiment(ops, cfg, radii=(0.5, 1.0),
                                      seeds_per_radius=2, base_seed=7)
    assert report.radii == (0.5, 1.0)
    for r in report.radii:
        assert len(report.entry_times[r]) == 2
        assert all(0.0 <= t <= 0.2 for t in report.entry_times[r])
        assert report.kappa[r] == max(report.post_sups[r]) > 0.0
        assert report.tip_norm_sup[r] > 0.0
        assert np.all(np.isfinite(report.diameters[r]))
    assert 0.0 <= report.kappa_spread < 1.0
    assert report.level >= max(report.kappa.values()) / 1.05 * 0.999


def test_members_that_stop_at_equilibrium_enter_at_their_own_record_times(monkeypatch):
    # the four members stop at steps 733, 735, 765 and 767, recorded every 50 steps
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 48, 1.0), 2)
    cfg = StepperConfig(dt=1e-2, t_max=10.0, eq_tol=1e-6, snapshot_stride=50)
    runs, real = [], conekit.analysis._run_sliced

    def kept(*args, **kwargs):
        runs.extend(real(*args, **kwargs))
        return runs

    monkeypatch.setattr(conekit.analysis, "_run_sliced", kept)
    report = absorbing_set_experiment(ops, cfg, radii=(0.5, 1.0), seeds_per_radius=2,
                                      base_seed=3)
    assert sorted(run.state.step for run in runs) == [733, 735, 765, 767]
    entries = report.entry_times[0.5] + report.entry_times[1.0]
    for run, t in zip(runs, entries):
        assert t in [rec.t for rec in run.records]
    assert report.level == 1.05 * max(run.records[-1].h1_seminorm for run in runs)


def test_tip_norm_sups_are_the_largest_post_entry_records(small_sphere_ops, monkeypatch):
    ops = small_sphere_ops
    cfg = StepperConfig(dt=1e-3, t_max=0.2, eq_tol=0.0, snapshot_stride=20,
                        mellin_gamma=-0.6)
    runs, real = [], conekit.analysis._run_sliced

    def kept(*args, **kwargs):
        runs.extend(real(*args, **kwargs))
        return runs

    monkeypatch.setattr(conekit.analysis, "_run_sliced", kept)
    report = absorbing_set_experiment(ops, cfg, radii=(0.5, 4.0), seeds_per_radius=2,
                                      base_seed=7)
    for i, r in enumerate(report.radii):
        members = runs[2 * i:2 * i + 2]
        post = [rec.mellin_s0 for run, entry in zip(members, report.entry_times[r])
                for rec in run.records if rec.t >= entry]
        assert report.tip_norm_sup[r] == max(post)
        laps = [mellin_norm(ops.apply_laplacian(Field(ops.mesh, coeffs)), 0, -0.6)
                for run, entry in zip(members, report.entry_times[r])
                for step, coeffs in run.snapshots if step * cfg.dt >= entry]
        assert report.tip_norm_sup_lap[r] == max(laps)


def test_the_tip_norm_weight_is_the_runs_own(small_sphere_ops):
    with pytest.raises(TypeError, match="mellin_gamma"):
        absorbing_set_experiment(small_sphere_ops, StepperConfig(t_max=0.01),
                                 mellin_gamma=-0.75)


@pytest.mark.parametrize("kwargs, name", [({"radii": ()}, "radii"),
                                          ({"seeds_per_radius": 0}, "seeds_per_radius"),
                                          # nonsense too: repeated or non-positive radii,
                                          # a level below the final norms
                                          ({"radii": (0.5, 0.5)}, "radii"),
                                          ({"radii": (0.0,)}, "radii"),
                                          ({"radii": (-0.5,)}, "radii"),
                                          ({"level_margin": 0.0}, "level_margin")])
def test_an_empty_ensemble_names_its_argument(small_sphere_ops, kwargs, name):
    with pytest.raises(ValueError, match=name):
        absorbing_set_experiment(small_sphere_ops, StepperConfig(t_max=0.01), **kwargs)


def test_diameters_of_converged_members_do_not_abort():
    # the members meet at u = 0; the mean roundoff of a difference scales with
    # the members, not with the difference, so the diameter removes it first
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 16, 1.0), 1)
    report = absorbing_set_experiment(ops, StepperConfig(dt=1e-2), seeds_per_radius=2)
    for r in report.radii:
        diam = report.diameters[r]
        assert np.all(np.isfinite(diam))
        assert diam[-1] < 1e-6 * diam[0]
