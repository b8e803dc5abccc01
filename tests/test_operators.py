"""Flux-form mode operators: applies, solves, eigensystems."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conekit import operators
from conekit.analysis import smooth_random_field
from conekit.config import RunConfig
from conekit.fields import Field, channel_weights, constant_field
from conekit.geometry import build_mesh, build_profile
from conekit.operators import EIGEN_MAX_ITER, ModeOperators, SolverError, _stage_roots
from conekit.spaces import h01_dual_norm, poincare_constant
from conftest import eigensystem, mode_field


def random_field(mesh, max_mode, rng, amplitude=1.0):
    c = rng.standard_normal((max_mode + 1, 2, mesh.cells))
    c[0, 1, :] = 0.0
    return Field(mesh, amplitude * c)


def mean_zero(u):
    c = u.coeffs.copy()
    c[0, 0] -= float(u.mesh.volumes @ c[0, 0]) / u.mesh.area
    return Field(u.mesh, c)


def vol_dot(ops, x, y):
    return float(ops.volumes @ (x * y))


def vol_norm(ops, x):
    return math.sqrt(vol_dot(ops, x, x))


def mode_laplacian(ops, mode, radial):
    """L_k of one radial profile, through the field Laplacian."""
    u = mode_field(ops.mesh, ops.max_mode, radial, mode=mode)
    return ops.apply_laplacian(u).coeffs[mode, 0]


# -------------------------------------------------------------- assembly


def test_constants_are_annihilated_exactly(sphere_ops, graded_cone_ops):
    for ops in (sphere_ops, graded_cone_ops):
        one = constant_field(ops.mesh, ops.max_mode, 1.0)
        assert np.all(ops.apply_laplacian(one).coeffs == 0.0)
        assert np.all(ops.apply_laplacian(ops.apply_laplacian(one)).coeffs == 0.0)


def test_vol_weighted_self_adjointness_uniform(sphere_ops, cone_ops, rng):
    for ops in (sphere_ops, cone_ops):
        for k in (0, 1, ops.max_mode):
            u = rng.standard_normal(ops.mesh.cells)
            v = rng.standard_normal(ops.mesh.cells)
            lu = mode_laplacian(ops, k, u)
            lv = mode_laplacian(ops, k, v)
            defect = abs(vol_dot(ops, lu, v) - vol_dot(ops, u, lv))
            assert defect <= 1e-12 * vol_norm(ops, u) * vol_norm(ops, v) \
                + 1e-13 * (vol_norm(ops, lu) * vol_norm(ops, v)
                           + vol_norm(ops, u) * vol_norm(ops, lv))


def test_vol_weighted_self_adjointness_graded(graded_cone_ops, rng):
    # on tip-graded meshes the pairing itself is evaluated in floats, so the
    # defect is bounded relative to the evaluated bilinear forms
    ops = graded_cone_ops
    for k in (0, 1, ops.max_mode):
        u = rng.standard_normal(ops.mesh.cells)
        v = rng.standard_normal(ops.mesh.cells)
        lu = mode_laplacian(ops, k, u)
        lv = mode_laplacian(ops, k, v)
        scale = (vol_norm(ops, lu) * vol_norm(ops, v)
                 + vol_norm(ops, u) * vol_norm(ops, lv))
        assert abs(vol_dot(ops, lu, v) - vol_dot(ops, u, lv)) <= 1e-13 * scale


def test_negative_semidefiniteness(sphere_ops, graded_cone_ops, rng):
    for ops in (sphere_ops, graded_cone_ops):
        for k in range(ops.max_mode + 1):
            u = rng.standard_normal(ops.mesh.cells)
            lu = mode_laplacian(ops, k, u)
            quad = vol_dot(ops, lu, u)
            assert quad <= 1e-12 * vol_norm(ops, u) ** 2 \
                + 1e-13 * vol_norm(ops, lu) * vol_norm(ops, u)


def test_zonal_harmonic_reproduced_at_second_order():
    # -Lap cos(s) = 2 cos(s) on the unit sphere; measure the convergence rate
    errs = []
    sizes = (64, 128, 256)
    for m in sizes:
        mesh = build_mesh(build_profile("sphere", radius=1.0), m, 1.0)
        ops = ModeOperators(mesh, 0)
        u = np.cos(mesh.centers)
        resid = mode_laplacian(ops, 0, u) + 2.0 * u
        errs.append(np.max(np.abs(resid)))
    rate = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -2.2 <= rate <= -1.8


def test_slope_one_cone_mode_one_exact_harmonic():
    # f(x) = x on the collar, so u(x) = x solves the mode-1 equation there;
    # the flux-form discretization annihilates it cell-exactly
    mesh = build_mesh(build_profile("cone_capped", c=1, length=3.0), 96, 1.0)
    ops = ModeOperators(mesh, 1)
    resid = mode_laplacian(ops, 1, mesh.centers.copy())
    collar = mesh.centers < 0.95
    assert np.max(np.abs(resid[collar])) <= 1e-9
    assert np.max(np.abs(resid)) > 1e-3     # the blend region is not harmonic


def test_eigenfunction_reproduced_by_applies(sphere_ops):
    vals, vecs = eigensystem(sphere_ops, 1)
    idx = 3
    mu, phi = vals[idx], vecs[:, idx]
    lap = mode_laplacian(sphere_ops, 1, phi)
    assert np.allclose(lap, -mu * phi, atol=1e-9 * mu * np.abs(phi).max())
    u = mode_field(sphere_ops.mesh, sphere_ops.max_mode, phi, mode=1)
    bilap = sphere_ops.apply_laplacian(sphere_ops.apply_laplacian(u))
    assert np.allclose(bilap.coeffs[1, 0], mu ** 2 * phi,
                       atol=1e-9 * mu ** 2 * np.abs(phi).max())


def test_applies_are_linear(sphere_ops, rng):
    u = random_field(sphere_ops.mesh, sphere_ops.max_mode, rng)
    v = random_field(sphere_ops.mesh, sphere_ops.max_mode, rng)
    combo = sphere_ops.apply_laplacian(2.0 * u - 3.0 * v)
    parts = 2.0 * sphere_ops.apply_laplacian(u) - 3.0 * sphere_ops.apply_laplacian(v)
    scale = np.abs(parts.coeffs).max()
    assert np.allclose(combo.coeffs, parts.coeffs, atol=1e-12 * scale)


def test_field_compatibility_is_enforced(sphere_ops, rng):
    other = build_mesh(build_profile("sphere", radius=1.0), 64, 1.0)
    with pytest.raises(ValueError, match="mesh"):
        sphere_ops.apply_laplacian(random_field(other, sphere_ops.max_mode, rng))
    with pytest.raises(ValueError, match="truncation"):
        sphere_ops.apply_laplacian(random_field(sphere_ops.mesh, 2, rng))


def test_field_from_another_cone_is_rejected(rng):
    # cones of different slope share their faces but not their volumes
    half = build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 64, 1.0)
    full = build_mesh(build_profile("cone_capped", c=1, length=2.0), 64, 1.0)
    assert np.array_equal(half.faces, full.faces)
    ops = ModeOperators(half, 2)
    with pytest.raises(ValueError, match="mesh"):
        ops.apply_laplacian(random_field(full, 2, rng))
    with pytest.raises(ValueError, match="mesh"):
        ops.solve_ch_system(random_field(full, 2, rng), 1e-3, 2.0)


# ------------------------------------------------------------ Gauss defect


def gauss_bound(ops, u):
    return 1e-12 * u.max_abs() * ops.mesh.area / ops.mesh.widths.min() ** 2


def test_gauss_defect_random_fields(sphere_ops, graded_cone_ops, rng):
    for ops in (sphere_ops, graded_cone_ops):
        for _ in range(100):
            u = random_field(ops.mesh, ops.max_mode, rng)
            assert ops.gauss_defect(u) <= gauss_bound(ops, u)


def test_gauss_defect_rough_tip_profile(graded_cone_ops):
    ops = graded_cone_ops
    u = mode_field(ops.mesh, ops.max_mode,
                   lambda x: np.minimum(x, 1.0) ** 0.3, mode=0)
    assert ops.gauss_defect(u) <= gauss_bound(ops, u)


def test_gauss_defect_constant_exact_zero(sphere_ops):
    assert sphere_ops.gauss_defect(constant_field(sphere_ops.mesh,
                                                  sphere_ops.max_mode, 1.0)) == 0.0


def test_gauss_defect_reads_mode_zero_of_the_full_laplacian(sphere_ops, graded_cone_ops, rng):
    for ops in (sphere_ops, graded_cone_ops):
        u = random_field(ops.mesh, ops.max_mode, rng)
        lap0 = ops.apply_laplacian_coeffs(u.coeffs)[0, 0]
        assert ops.gauss_defect(u) == abs(float(ops.volumes @ lap0))


def test_laplacian_rejects_a_wrong_mode_count(sphere_ops, rng):
    c = random_field(sphere_ops.mesh, sphere_ops.max_mode, rng).coeffs
    for bad in (c[:1], c[None, :-1], c[0]):
        with pytest.raises(ValueError, match="angular modes"):
            sphere_ops.apply_laplacian_coeffs(bad)


# ------------------------------------------------------------- -L_k solves


def test_helmholtz_rejects_bad_inputs(sphere_ops):
    with pytest.raises(ValueError, match="shape"):
        sphere_ops.solve_neglap_pivoted(1, np.ones(3))
    with pytest.raises(ValueError, match="singular"):
        sphere_ops.solve_neglap_pivoted(0, np.ones(sphere_ops.mesh.cells))


def test_neglap_pivoted_residual_check_fails_loudly(sphere_ops, rng, monkeypatch):
    import conekit.operators as operators
    rhs = rng.standard_normal(sphere_ops.mesh.cells)
    u = sphere_ops.solve_neglap_pivoted(2, rhs)
    assert vol_norm(sphere_ops, -mode_laplacian(sphere_ops, 2, u) - rhs) \
        <= 1e-10 * vol_norm(sphere_ops, rhs)
    solve = operators.dgtsv
    for spoil in (lambda w: w * (1.0 + 1e-6), lambda w: np.full_like(w, np.nan)):
        def spoiled(*args, spoil=spoil):
            *factors, x, info = solve(*args)
            return (*factors, spoil(x), info)
        monkeypatch.setattr(operators, "dgtsv", spoiled)
        with pytest.raises(SolverError, match="residual"):
            sphere_ops.solve_neglap_pivoted(2, rhs)


def test_neglap_pivoted_takes_modes_above_the_truncation(rng):
    from conekit.analysis import tip_probe
    mesh = build_mesh(build_profile("sphere", radius=1.0), 128, 1.0)
    low, high = ModeOperators(mesh, 1), ModeOperators(mesh, 3)
    rhs = rng.standard_normal(mesh.cells)
    for mode in (2, 3):
        assert np.array_equal(low.solve_neglap_pivoted(mode, rhs),
                              high.solve_neglap_pivoted(mode, rhs))
        sol_low, fit_low = tip_probe(low, mode)
        sol_high, fit_high = tip_probe(high, mode)
        assert np.array_equal(sol_low, sol_high) and fit_low == fit_high


def test_solve_neglap_rejects_modes_outside_the_truncation():
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 32, 1.0), 3)
    rhs = np.ones(32)
    for mode in (-1, 4):
        with pytest.raises(ValueError, match=f"mode {mode} is outside .* 0..3"):
            ops.solve_neglap(mode, rhs)
    assert ops.solve_neglap_pivoted(4, rhs).shape == (32,)  # the tip probes go above K


def test_smallest_eigenvalue_rejects_modes_outside_the_truncation():
    ops = ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 32, 1.0), 3)
    for mode in (-1, 4):
        with pytest.raises(ValueError, match=f"mode {mode} is outside .* 0..3"):
            ops.smallest_eigenvalue(mode)
    assert ops.eigenvalues(4).shape == (32,)


def test_bands_and_eigenvalues_reject_negative_modes():
    # the bands square the mode: eigenvalues(-1) used to return mode 1's, bit for bit
    mesh = build_mesh(build_profile("sphere", radius=1.0), 16, 1.0)
    ops = ModeOperators(mesh, 3)
    for call in (ops.neglap_bands, ops.eigenvalues):
        with pytest.raises(ValueError, match="mode must be >= 0, got -1"):
            call(-1)
    with pytest.raises(ValueError, match="max_mode must be >= 0"):
        ModeOperators(mesh, -1)
    # a float truncation would be cut to an integer silently
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match=f"max_mode must be >= 0 and an integer, got {bad!r}"):
            ModeOperators(mesh, bad)
    assert ModeOperators(mesh, np.int64(2)).max_mode == 2


def test_neglap_solve_is_inverse_on_mean_free(sphere_ops, rng):
    rhs = rng.standard_normal(sphere_ops.mesh.cells)
    rhs -= (sphere_ops.volumes @ rhs) / sphere_ops.mesh.area
    psi = sphere_ops.solve_neglap(0, rhs)
    back = -mode_laplacian(sphere_ops, 0, psi)
    assert np.allclose(back, rhs, atol=1e-10 * np.abs(rhs).max())


# ------------------------------------------------------- implicit CH solve


def test_stage_roots_factor_the_quadratic():
    for dt, s in ((1e-3, 2.0), (0.25, 2.0), (1.0, 3.0), (1.0, 2.0), (4.0, 0.0)):
        a, b = _stage_roots(dt, s)
        assert a * b == pytest.approx(dt, rel=1e-14)
        assert a + b == pytest.approx(s * dt, rel=1e-14, abs=1e-16)


def test_ch_solve_keeps_constants(sphere_ops):
    rhs = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 0.7)
    u = sphere_ops.solve_ch_system(rhs, 1e-3, 2.0)
    assert np.allclose(u.coeffs, rhs.coeffs, atol=1e-12)


def test_ch_solve_eigenfunction_oracle(sphere_ops):
    dt, s = 1e-3, 2.0
    vals, vecs = eigensystem(sphere_ops, 1)
    mu, phi = vals[4], vecs[:, 4]
    rhs = mode_field(sphere_ops.mesh, sphere_ops.max_mode, phi, mode=1)
    u = sphere_ops.solve_ch_system(rhs, dt, s)
    expected = phi / (1.0 + dt * mu * mu + s * dt * mu)
    assert np.allclose(u.coeffs[1, 0], expected, atol=1e-9 * np.abs(expected).max())


def test_ch_solve_matches_dense_oracle(small_sphere_ops, rng):
    # dense float64 assembly of B^2 is trustworthy only on uniform meshes
    # (on tip-graded ones its roundoff wipes the near-kernel directions)
    dt, s = 1e-3, 2.0
    ops = small_sphere_ops
    rhs = random_field(ops.mesh, ops.max_mode, rng)
    u = ops.solve_ch_system(rhs, dt, s)
    for k in (0, ops.max_mode):
        diag, sub = ops.neglap_bands(k)
        b_sym = np.diag(diag)
        b_sym += np.diag(sub, 1) + np.diag(sub, -1)
        a_sym = np.eye(ops.mesh.cells) + dt * (b_sym @ b_sym) + s * dt * b_sym
        for ch in (0, 1):
            dense = np.linalg.solve(a_sym, ops.sqrt_volumes * rhs.coeffs[k, ch])
            dense /= ops.sqrt_volumes
            scale = max(np.abs(dense).max(), 1e-30)
            assert np.allclose(u.coeffs[k, ch], dense, atol=1e-9 * scale)


def _mp_stage_solve(diag, sub, dt, s, b):
    """50-digit oracle: two complex tridiagonal sweeps of the exact stage split."""
    import mpmath as mp

    mp.mp.dps = 50
    dtm, sm = mp.mpf(dt), mp.mpf(s)
    root_a = (sm * dtm + mp.sqrt((sm * dtm) ** 2 - 4 * dtm)) / 2
    d = [mp.mpf(v) for v in diag]
    e = [mp.mpf(v) for v in sub]
    m = len(d)

    def thomas(root, y):
        dd = [1 + root * d[i] for i in range(m)]
        off = [root * e[i] for i in range(m - 1)]
        cp = [None] * (m - 1)
        dp = [None] * m
        cp[0] = off[0] / dd[0] if m > 1 else None
        dp[0] = y[0] / dd[0]
        for i in range(1, m):
            den = dd[i] - off[i - 1] * cp[i - 1]
            if i < m - 1:
                cp[i] = off[i] / den
            dp[i] = (y[i] - off[i - 1] * dp[i - 1]) / den
        x = [None] * m
        x[-1] = dp[-1]
        for i in range(m - 2, -1, -1):
            x[i] = dp[i] - cp[i] * x[i + 1]
        return x

    y = thomas(dtm / root_a, thomas(root_a, [mp.mpc(v) for v in b]))
    return np.array([float(v.real) for v in y])


def test_ch_solve_graded_mesh_matches_extended_precision(graded_cone_ops, rng):
    ops = graded_cone_ops
    dt, s = 1e-3, 2.0
    rhs = random_field(ops.mesh, ops.max_mode, rng)
    u = ops.solve_ch_system(rhs, dt, s)
    for k in (0, ops.max_mode):
        diag, sub = ops.neglap_bands(k)
        exact = _mp_stage_solve(diag, sub, dt, s,
                                ops.sqrt_volumes * rhs.coeffs[k, 0])
        exact /= ops.sqrt_volumes
        err = np.abs(u.coeffs[k, 0] - exact).max()
        assert err <= 1e-11 * np.abs(exact).max()


def test_ch_solve_real_root_branch_matches_dense(small_sphere_ops, rng):
    # stabilization^2 * dt >= 4 puts the stage roots on the real axis
    ops = small_sphere_ops
    dt, s = 1.0, 3.0
    rhs = random_field(ops.mesh, ops.max_mode, rng)
    u = ops.solve_ch_system(rhs, dt, s)
    diag, sub = ops.neglap_bands(1)
    b_sym = np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)
    a_sym = np.eye(ops.mesh.cells) + dt * (b_sym @ b_sym) + s * dt * b_sym
    dense = np.linalg.solve(a_sym, ops.sqrt_volumes * rhs.coeffs[1, 0]) / ops.sqrt_volumes
    assert np.allclose(u.coeffs[1, 0], dense, atol=1e-9 * np.abs(dense).max())


def test_ch_solve_small_dt_perturbs_identity(sphere_ops):
    # on a smooth field the solve differs from its input by O(dt)
    rhs = mode_field(sphere_ops.mesh, sphere_ops.max_mode,
                     eigensystem(sphere_ops, 1)[1][:, 2], mode=1)
    errs = {}
    for dt in (1e-4, 1e-5):
        u = sphere_ops.solve_ch_system(rhs, dt, 2.0)
        errs[dt] = np.abs((u - rhs).coeffs).max()
    assert errs[1e-5] < errs[1e-4]
    assert errs[1e-4] / 1e-4 == pytest.approx(errs[1e-5] / 1e-5, rel=0.05)


def test_ch_system_positive_definite_in_vol_pairing(sphere_ops, graded_cone_ops, rng):
    dt, s = 1e-3, 2.0
    w_s = channel_weights(sphere_ops.max_mode)
    w_g = channel_weights(graded_cone_ops.max_mode)
    for ops, w in ((sphere_ops, w_s), (graded_cone_ops, w_g)):
        for _ in range(20):
            u = random_field(ops.mesh, ops.max_mode, rng)
            lap = ops.apply_laplacian_coeffs(u.coeffs)
            au = u.coeffs + dt * ops.apply_laplacian_coeffs(lap) - s * dt * lap
            quad = float(np.einsum("kci,kc,i->", au * u.coeffs, w, ops.mesh.volumes))
            assert quad > 0.0


def test_ch_solve_residual_contract_strict_on_uniform(sphere_ops, rng):
    dt, s = 1e-3, 2.0
    rhs = random_field(sphere_ops.mesh, sphere_ops.max_mode, rng)
    u = sphere_ops.solve_ch_system(rhs, dt, s)
    lap = sphere_ops.apply_laplacian_coeffs(u.coeffs)
    resid = u.coeffs + dt * sphere_ops.apply_laplacian_coeffs(lap) - s * dt * lap \
        - rhs.coeffs
    w = channel_weights(sphere_ops.max_mode)
    rnorm = math.sqrt(float(np.einsum("kci,kc,i->", resid ** 2, w,
                                      sphere_ops.mesh.volumes)))
    rhsnorm = math.sqrt(float(np.einsum("kci,kc,i->", rhs.coeffs ** 2, w,
                                        sphere_ops.mesh.volumes)))
    assert rnorm <= 1e-10 * rhsnorm


def test_ch_solve_validates_parameters(sphere_ops):
    rhs = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 1.0)
    with pytest.raises(ValueError, match="dt"):
        sphere_ops.solve_ch_system(rhs, 0.0, 2.0)
    with pytest.raises(ValueError, match="stabilization"):
        sphere_ops.solve_ch_system(rhs, 1e-3, -1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            sphere_ops.solve_ch_system(rhs, value, 2.0)
        with pytest.raises(ValueError, match="stabilization"):
            sphere_ops.solve_ch_system(rhs, 1e-3, value)


def test_ch_solve_rejects_non_finite_rhs(small_sphere_ops, rng):
    rhs = random_field(small_sphere_ops.mesh, small_sphere_ops.max_mode, rng)
    rhs.coeffs[3, 0, 10] = math.nan
    with pytest.raises(SolverError, match="residual"):
        small_sphere_ops.solve_ch_system(rhs, 1e-3, 2.0)
    rhs.coeffs[3, 0, 10] = math.inf
    with pytest.raises(SolverError, match="residual"):
        small_sphere_ops.solve_ch_system(rhs, 1e-3, 2.0)
    stack = np.stack([np.zeros_like(rhs.coeffs), rhs.coeffs])
    with pytest.raises(SolverError, match="member 1 of 2"):
        small_sphere_ops.solve_ch_system(stack, 1e-3, 2.0)


def test_ch_solve_stack_members_equal_lone_solves(rng):
    for ops in (ModeOperators(build_mesh(build_profile("sphere", radius=1.0), 40, 1.0), 3),
                ModeOperators(build_mesh(build_profile("cone_capped", c="1/2", length=2.0),
                                         64, 0.8), 2)):
        rhs = [random_field(ops.mesh, ops.max_mode, rng) for _ in range(3)]
        stacked = ops.solve_ch_system(np.stack([r.coeffs for r in rhs]), 1e-3, 2.0)
        assert stacked.shape == (3, ops.max_mode + 1, 2, ops.mesh.cells)
        for member, r in zip(stacked, rhs):
            assert np.array_equal(member, ops.solve_ch_system(r, 1e-3, 2.0).coeffs)


def test_columns_swept_in_parts_have_the_bits_of_the_whole_solve():
    # a pipelined step sweeps its columns in two processes, half each
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(("sphere", "cone_capped")), st.sampled_from((1.0, 0.9, 0.8)),
           st.integers(8, 24), st.integers(0, 4), st.integers(1, 3),
           st.sampled_from(((1e-3, 2.0), (1e-2, 0.0), (1.0, 5.0))),   # the last: real roots
           st.integers(0, 2 ** 16), st.data())
    def check(kind, grading, cells, max_mode, members, step, seed, data):
        profile = (build_profile("sphere", radius=1.0) if kind == "sphere"
                   else build_profile("cone_capped", c="1/2", length=2.0))
        ops = ModeOperators(build_mesh(profile, cells, grading), max_mode)
        stack = np.random.default_rng(seed).standard_normal((members, max_mode + 1, 2, cells))
        whole = ops._sweep_columns(ops._ch_pack(stack), *step).copy()
        assert np.array_equal(ops._unpack(whole.real), ops.solve_ch_system(stack, *step))
        n_cols = 2 * members
        drawn = data.draw(st.sets(st.integers(1, n_cols - 1), max_size=n_cols - 1))
        for cuts in (sorted(drawn), range(1, n_cols)):   # any split, then one column at a time
            cols = ops._ch_pack(stack, out=np.empty((n_cols, whole.shape[0]), dtype=complex).T)
            bounds = [0, *cuts, n_cols]
            for lo, hi in zip(bounds[:-1], bounds[1:]):   # in place
                assert np.shares_memory(ops._sweep_columns(cols[:, lo:hi], *step), cols)
            assert np.array_equal(cols, whole)

    check()


def test_ch_solve_stack_rejects_bad_shape(small_sphere_ops):
    with pytest.raises(ValueError, match="stack shape"):
        small_sphere_ops.solve_ch_system(np.zeros((2, 3, 2, 96)), 1e-3, 2.0)
    with pytest.raises(ValueError, match="stack shape"):
        small_sphere_ops.solve_ch_system(np.zeros((9, 2, 96)), 1e-3, 2.0)


def test_ch_solve_on_default_resolution_graded_cone(rng):
    # deep grading with many modes: the configuration that motivates the
    # product-form factorization (a squared assembly loses definiteness here)
    mesh = build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 256, 0.85)
    ops = ModeOperators(mesh, 32)
    rhs = random_field(mesh, 32, rng, amplitude=0.5)
    u = ops.solve_ch_system(rhs, 1e-3, 2.0)
    assert np.all(np.isfinite(u.coeffs))
    assert np.abs(u.coeffs).max() <= 2.0 * np.abs(rhs.coeffs).max()


# ----------------------------------------------------- inverse-norm bound


def test_dual_norm_contraction_under_laplacian(sphere_ops, rng):
    # discrete spectral identity: dual(u) <= dual(Lap u) / mu_1
    mu1 = min(sphere_ops.smallest_eigenvalue(k)
              for k in range(sphere_ops.max_mode + 1))
    bound = 1.0 / mu1 + 1e-6
    for _ in range(100):
        u = mean_zero(random_field(sphere_ops.mesh, sphere_ops.max_mode, rng))
        ratio = h01_dual_norm(u, sphere_ops) / h01_dual_norm(
            sphere_ops.apply_laplacian(u), sphere_ops)
        assert ratio <= bound


# ------------------------------------------------------------ eigensystems


def test_mode_zero_has_constant_kernel(sphere_ops):
    vals, vecs = eigensystem(sphere_ops, 0)
    assert abs(vals[0]) <= 1e-10
    phi0 = vecs[:, 0]
    assert np.allclose(phi0, phi0.mean(), atol=1e-8 * abs(phi0.mean()))


def test_sphere_spectrum_pools_to_harmonic_values(sphere_ops):
    pooled = np.sort(np.concatenate(
        [sphere_ops.eigenvalues(k)[:6]
         for k in range(3)]))
    expected = sorted([0.0] + [2.0] * 2 + [6.0] * 3)  # modes 0..2 see l <= 2 fully
    for got, want in zip(pooled[:6], expected):
        if want == 0.0:
            assert abs(got) <= 1e-10
        else:
            assert got == pytest.approx(want, rel=1e-2)


def test_eigenvectors_vol_orthonormal(sphere_ops, cone_ops):
    for ops in (sphere_ops, cone_ops):
        v = eigensystem(ops, 1)[1]
        gram = (ops.volumes[:, None] * v).T @ v
        assert np.abs(gram - np.eye(ops.mesh.cells)).max() <= 1e-10


def test_smallest_eigenvalue_matches_full_decomposition(sphere_ops):
    for k in range(3):
        vals = sphere_ops.eigenvalues(k)
        dense = vals[1] if k == 0 else vals[0]
        assert sphere_ops.smallest_eigenvalue(k) == pytest.approx(dense, rel=1e-8)


def count_block_solves(monkeypatch):
    """Record every dpbtrs call (a banded Cholesky solve) made by the operators module."""
    calls = []
    solve = operators.dpbtrs
    monkeypatch.setattr(operators, "dpbtrs",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    return calls


def test_smallest_eigenvalue_is_cached_per_key(monkeypatch):
    """The first call, for any mode, computes every mode; later calls solve nothing."""
    mesh = build_mesh(build_profile("sphere", radius=1.0), 128, 1.0)
    ops = ModeOperators(mesh, 2)
    solves = count_block_solves(monkeypatch)
    first = ops.smallest_eigenvalue(1)
    assert solves
    solves.clear()
    again = [ops.smallest_eigenvalue(k) for k in (1, 0, 2)]
    assert solves == []
    fresh = ModeOperators(mesh, 2)
    assert [first] + again == [fresh.smallest_eigenvalue(k) for k in (1, 1, 0, 2)]


def test_every_neglap_user_makes_one_block_solve_at_the_default_config(monkeypatch):
    ops = RunConfig().geometry.build_workspace()
    u = smooth_random_field(ops, np.random.default_rng(0), sup_amplitude=0.5)
    solves = count_block_solves(monkeypatch)
    h01_dual_norm(u, ops)
    assert len(solves) == 1
    solves.clear()
    smooth_random_field(ops, np.random.default_rng(1), sup_amplitude=0.5)
    assert len(solves) == 2
    solves.clear()
    poincare_constant(ops)
    assert 1 <= len(solves) <= EIGEN_MAX_ITER


# --------------------------------------------- LAPACK without scipy.linalg


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports conekit from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(operators.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_importing_conekit_does_not_load_the_scipy_linalg_package():
    out = run_python("import sys, conekit, conekit.cli\n"
                     "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["scipy.linalg._flapack"]


def test_scipy_linalg_imported_after_conekit_shares_its_lapack_module():
    out = run_python("""
import numpy as np
from conekit import operators
import scipy.linalg as sl
from scipy.linalg import _flapack
assert _flapack is operators._flapack
d, e, b = np.array([4.0, 5.0, 6.0]), np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])
a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
fac = sl.cholesky_banded(np.stack([d, np.append(e, 0.0)]), lower=True)
assert np.allclose(a @ sl.cho_solve_banded((fac, True), b), b)
assert np.allclose(sl.eigh_tridiagonal(d, e)[0], np.linalg.eigvalsh(a))
assert np.allclose(a @ sl.solve_banded((1, 1), np.stack([np.append(0.0, e), d, np.append(e, 0.0)]), b), b)
print("ok")
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


#: Each LAPACK routine the operators module calls, through the scipy.linalg wrapper that calls it.
SCIPY_WRAPPERS = {
    "dpbtrf": lambda ab, lower: (scipy.linalg.cholesky_banded(ab, lower=True), 0),
    "dpbtrs": lambda fac, b, lower: (scipy.linalg.cho_solve_banded((fac, True), b), 0),
    "dstevd": lambda d, e: (*scipy.linalg.eigh_tridiagonal(d, e), 0),
    "dgtsv": lambda dl, d, du, b: (None, None, None, scipy.linalg.solve_banded(
        (1, 1), np.stack([np.append(0.0, du), d, np.append(dl, 0.0)]), b), 0),
}


@pytest.mark.parametrize("surface", ["default", "sphere"])
def test_lapack_calls_give_the_bits_of_the_scipy_linalg_wrappers(surface, sphere_mesh, monkeypatch):
    def results():
        ops = (RunConfig().geometry.build_workspace() if surface == "default"
               else ModeOperators(sphere_mesh, 8))
        kn, m = ops.max_mode + 1, ops.mesh.cells
        rhs = np.random.default_rng(3).standard_normal((kn, m, 2))
        out = {"factor": ops._neglap_factor, "blocks from 0": ops._solve_blocks(0, rhs),
               "blocks from 1": ops._solve_blocks(1, rhs[1:3])}
        out.update({f"eigenvalues {k}": ops.eigenvalues(k) for k in range(kn)})
        out.update({f"pivoted {k}": ops.solve_neglap_pivoted(k, rhs[0, :, 0])
                    for k in (1, kn, kn + 3)})
        return out

    direct = results()
    for name, wrapper in SCIPY_WRAPPERS.items():
        monkeypatch.setattr(operators, name, wrapper)
    wrapped = results()
    for key, value in direct.items():
        assert value.tobytes() == wrapped[key].tobytes(), key


def test_non_finite_right_hand_sides_still_raise_value_error(sphere_ops):
    for bad in (np.nan, np.inf):
        rhs = np.ones(sphere_ops.mesh.cells)
        rhs[5] = bad
        for solve in (sphere_ops.solve_neglap, sphere_ops.solve_neglap_pivoted):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(1, rhs)


# ------------------------------------------------------ semigroup oracle


def test_semigroup_scalar_decay_is_bounded_by_calculus_oracle(small_sphere_ops):
    # sup over t of t^alpha e^{t} lam^alpha e^{-lam t} with lam = (1+mu)^2,
    # compared against the continuous maximizer of t^alpha e^{-(lam-1)t}
    ops = small_sphere_ops
    alpha = 0.5
    tgrid = np.geomspace(0.01, 10.0, 200)
    for k in range(ops.max_mode + 1):
        for mu in ops.eigenvalues(k)[:5]:
            lam = (1.0 + max(mu, 0.0)) ** 2
            vals = tgrid ** alpha * np.exp(tgrid) * lam ** alpha * np.exp(-lam * tgrid)
            rate = lam - 1.0
            if rate > 0 and alpha / rate <= 10.0:
                t_star = alpha / rate
            else:
                t_star = 10.0
            analytic = t_star ** alpha * math.exp(-rate * t_star) * lam ** alpha
            assert np.isfinite(vals).all()
            assert vals.max() <= analytic * (1.0 + 1e-9)
