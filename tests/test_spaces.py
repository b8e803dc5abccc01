"""Norms and function-space quantities: means, tip-weighted norms, duals."""

import math

import numpy as np
import pytest

from conekit.fields import Field, channel_weights, constant_field, field_from_modes
from conekit.geometry import build_mesh, build_profile
from conekit.operators import ModeOperators
from conekit.spaces import (
    h01_dual_norm,
    h1_seminorm,
    l2_norm,
    lp_norm,
    mean,
    mellin_norm,
    poincare_constant,
)
from conftest import eigensystem


def random_field(mesh, max_mode, rng, amplitude=1.0):
    c = rng.standard_normal((max_mode + 1, 2, mesh.cells))
    c[0, 1, :] = 0.0
    return Field(mesh, amplitude * c)


def mean_zero(u):
    c = u.coeffs.copy()
    c[0, 0] -= float(u.mesh.volumes @ c[0, 0]) / u.mesh.area
    return Field(u.mesh, c)


# ------------------------------------------------------------------- means


def test_mean_of_constants_and_pure_modes(sphere_mesh):
    assert mean(constant_field(sphere_mesh, 4, 3.0)) == pytest.approx(3.0, rel=1e-12)
    g = field_from_modes(sphere_mesh, 4, lambda s: np.exp(-s), mode=1)
    assert mean(g) == pytest.approx(0.0, abs=1e-15)
    combo = constant_field(sphere_mesh, 4, 1.0) + g
    assert mean(combo) == pytest.approx(1.0, rel=1e-12)


# -------------------------------------------------------------- tip norms


@pytest.fixture(scope="module")
def long_cone_mesh():
    # slope-1 cone with f(x) = x over the whole collar [0, 1)
    return build_mesh(build_profile("cone_capped", c=1, length=3.0), 1536, 1.0)


def test_tip_norm_of_identity_profile_closed_form(long_cone_mesh):
    u = field_from_modes(long_cone_mesh, 0, lambda x: x, mode=0)
    # 2*pi * integral_0^1 (x * x)^2 f(x)/x dx/x = 2*pi/4 with f(x) = x
    assert mellin_norm(u, 0, 0.0, collar_only=True) == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=1e-3)


def test_tip_norm_first_order_closed_form(long_cone_mesh):
    u = field_from_modes(long_cone_mesh, 0, lambda x: x, mode=0)
    # (x d/dx) x = x doubles the square: sqrt(pi/2 + pi/2)
    assert mellin_norm(u, 1, 0.0, collar_only=True) == pytest.approx(
        math.sqrt(math.pi), rel=1e-3)


def test_tip_norm_at_zero_weight_is_collar_l2(long_cone_mesh, rng):
    mask = (long_cone_mesh.centers < 0.9).astype(float)
    u = random_field(long_cone_mesh, 3, rng)
    u = Field(long_cone_mesh, u.coeffs * mask)
    assert mellin_norm(u, 0, 0.0, collar_only=True) == pytest.approx(
        l2_norm(u), rel=1e-3)


def test_tip_norm_rejects_unsupported_order(long_cone_mesh):
    u = field_from_modes(long_cone_mesh, 0, lambda x: x, mode=0)
    with pytest.raises(ValueError, match="order"):
        mellin_norm(u, 3, 0.0)


def test_tip_norm_monotone_in_weight_for_collar_fields(long_cone_mesh, rng):
    # weight x^{1-gamma} grows with gamma on x < 1, so the norm does too
    mask = (long_cone_mesh.centers < 0.9).astype(float)
    for _ in range(20):
        u = random_field(long_cone_mesh, 2, rng)
        u = Field(long_cone_mesh, u.coeffs * mask)
        vals = [mellin_norm(u, 0, g, collar_only=True)
                for g in (-1.0, -0.5, 0.0, 0.5)]
        assert all(a <= b * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_tip_norm_interior_term_covers_cap_region(long_cone_mesh):
    # field supported far outside the collar: collar term is 0, interior > 0
    u = field_from_modes(long_cone_mesh, 0,
                         lambda x: np.where(x > 1.5, np.exp(-((x - 2.0) / 0.2) ** 2), 0.0),
                         mode=0)
    assert mellin_norm(u, 0, 0.0, collar_only=True) == 0.0
    full = mellin_norm(u, 0, 0.0)
    assert full == pytest.approx(l2_norm(u), rel=1e-6)


# -------------------------------------------------------------- seminorms


def test_h1_seminorm_kills_constants(sphere_mesh):
    assert h1_seminorm(constant_field(sphere_mesh, 4, 2.5)) == pytest.approx(0.0, abs=1e-12)


def test_h1_seminorm_first_spherical_harmonic(sphere_mesh):
    amp = math.sqrt(3.0 / (4.0 * math.pi))
    u = field_from_modes(sphere_mesh, 0, lambda s: amp * np.cos(s), mode=0)
    assert h1_seminorm(u) == pytest.approx(math.sqrt(2.0), rel=1e-2)


def test_h1_seminorm_orthogonal_modes_add_in_square(sphere_mesh):
    u1 = field_from_modes(sphere_mesh, 3, lambda s: np.sin(s), mode=1)
    u3 = field_from_modes(sphere_mesh, 3, lambda s: np.sin(s) ** 2, mode=3, part="sin")
    lhs = h1_seminorm(u1 + u3) ** 2
    rhs = h1_seminorm(u1) ** 2 + h1_seminorm(u3) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_h1_seminorm_squared_equals_operator_pairing(sphere_ops, rng):
    u = random_field(sphere_ops.mesh, sphere_ops.max_mode, rng)
    lap = sphere_ops.apply_laplacian(u)
    w = channel_weights(u.max_mode)
    pairing = -float(np.einsum("kci,kc,i->", lap.coeffs * u.coeffs, w,
                               sphere_ops.mesh.volumes))
    assert h1_seminorm(u) ** 2 == pytest.approx(pairing, rel=1e-10)


# -------------------------------------------------------------- dual norm


def test_dual_norm_zero_and_homogeneity(sphere_ops, rng):
    zero = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 0.0)
    assert h01_dual_norm(zero, sphere_ops) == 0.0
    v = mean_zero(random_field(sphere_ops.mesh, sphere_ops.max_mode, rng))
    assert h01_dual_norm(2.0 * v, sphere_ops) == pytest.approx(
        2.0 * h01_dual_norm(v, sphere_ops), rel=1e-12)


def test_dual_norm_rejects_nonzero_mean(sphere_ops):
    u = constant_field(sphere_ops.mesh, sphere_ops.max_mode, 1.0)
    with pytest.raises(ValueError, match="mean-zero"):
        h01_dual_norm(u, sphere_ops)


def test_dual_norm_of_eigenfunction_is_inverse_sqrt_eigenvalue(sphere_ops):
    amp = math.sqrt(3.0 / (4.0 * math.pi))
    u = field_from_modes(sphere_ops.mesh, sphere_ops.max_mode,
                         lambda s: amp * np.cos(s), mode=0)
    assert h01_dual_norm(u, sphere_ops) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-2)


def test_dual_norm_matches_eigenbasis_sum(small_sphere_ops, rng):
    ops = small_sphere_ops
    v = mean_zero(random_field(ops.mesh, ops.max_mode, rng))
    w = channel_weights(ops.max_mode)
    total = 0.0
    for k in range(ops.max_mode + 1):
        mu, vecs = eigensystem(ops, k)
        for ch in (0, 1):
            if w[k, ch] == 0.0:
                continue
            coef = vecs.T @ (ops.volumes * v.coeffs[k, ch])
            keep = mu > 1e-9
            total += w[k, ch] * float(np.sum(coef[keep] ** 2 / mu[keep]))
    assert h01_dual_norm(v, ops) == pytest.approx(math.sqrt(total), rel=1e-9)


# ------------------------------------------------------- Poincare constant


def test_poincare_constant_unit_sphere(sphere_ops):
    assert poincare_constant(sphere_ops) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-2)


def test_poincare_constant_scales_with_radius():
    mesh = build_mesh(build_profile("sphere", radius=2.0), 256, 1.0)
    ops = ModeOperators(mesh, 8)
    assert poincare_constant(ops) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-2)


def test_poincare_constant_cone_self_convergence(cone_ops):
    coarse = poincare_constant(cone_ops)
    mesh4 = build_mesh(cone_ops.mesh.profile, 4 * cone_ops.mesh.cells,
                       cone_ops.mesh.grading)
    fine = poincare_constant(ModeOperators(mesh4, cone_ops.max_mode))
    assert coarse == pytest.approx(fine, rel=1e-3)


def test_poincare_inequality_holds_on_random_fields(sphere_ops, rng):
    c_p = poincare_constant(sphere_ops)
    for _ in range(100):
        u = random_field(sphere_ops.mesh, sphere_ops.max_mode, rng)
        fluct = mean_zero(u)
        assert l2_norm(fluct) <= (1.0 + 1e-6) * c_p * h1_seminorm(u)


def test_embedding_ratio_l4_over_h1_stays_bounded(small_sphere_ops, rng):
    ops = small_sphere_ops
    worst = 0.0
    for _ in range(1000):
        u = random_field(ops.mesh, ops.max_mode, rng)
        h1 = math.sqrt(h1_seminorm(u) ** 2 + l2_norm(u) ** 2)
        worst = max(worst, lp_norm(u, 4) / h1)
    assert math.isfinite(worst)
    assert worst < 1e2
