"""Flux-form mode operators: applies, solves, eigensystems."""

import math

import numpy as np
import pytest

from conekit import operators
from conekit.analysis import smooth_random_field
from conekit.config import RunConfig
from conekit.fields import Field, channel_weights, constant_field, field_from_modes
from conekit.geometry import build_mesh, build_profile
from conekit.operators import EIGEN_MAX_ITER, ModeOperators, SolverError, _stage_roots
from conekit.spaces import h01_dual_norm, poincare_constant
from conftest import eigensystem


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
    u = field_from_modes(ops.mesh, ops.max_mode, radial, mode=mode)
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
    u = field_from_modes(sphere_ops.mesh, sphere_ops.max_mode, phi, mode=1)
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
    u = field_from_modes(ops.mesh, ops.max_mode,
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
    solve = operators.solve_banded
    for spoil in (lambda w: w * (1.0 + 1e-6), lambda w: np.full_like(w, np.nan)):
        monkeypatch.setattr(operators, "solve_banded",
                            lambda *args, spoil=spoil: spoil(solve(*args)))
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
    rhs = field_from_modes(sphere_ops.mesh, sphere_ops.max_mode, phi, mode=1)
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
    rhs = field_from_modes(sphere_ops.mesh, sphere_ops.max_mode,
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
    """Record every cho_solve_banded call made by the operators module."""
    calls = []
    solve = operators.cho_solve_banded
    monkeypatch.setattr(operators, "cho_solve_banded",
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
