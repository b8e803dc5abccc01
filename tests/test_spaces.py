"""Norms and function-space quantities: means, tip-weighted norms, duals."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from conekit.fields import Field, channel_weights, constant_field
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
from conftest import eigensystem, mode_field


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
    g = mode_field(sphere_mesh, 4, lambda s: np.exp(-s), mode=1)
    assert mean(g) == pytest.approx(0.0, abs=1e-15)
    combo = constant_field(sphere_mesh, 4, 1.0) + g
    assert mean(combo) == pytest.approx(1.0, rel=1e-12)


# -------------------------------------------------------------- tip norms


@pytest.fixture(scope="module")
def long_cone_mesh():
    # slope-1 cone with f(x) = x over the whole collar [0, 1)
    return build_mesh(build_profile("cone_capped", c=1, length=3.0), 1536, 1.0)


def collar_bump(x):
    # supported where the cutoff is 1 (x < 0.4 for L >= 1), so the interior part is 0
    return np.where(x < 0.4, x * (1.0 - (x / 0.4) ** 2) ** 3, 0.0)


def bump_closed_form(s):
    # mode 0 with f(x) = x and gamma = 0: the collar weight is x dx, so the norm is
    # sqrt(2 pi sum_{a <= s} int_0^0.4 ((x d/dx)^a u)^2 x dx), computed exactly
    x = Polynomial([0.0, 1.0])
    term = x * (1.0 - (x / 0.4) ** 2) ** 3
    integrand = Polynomial([0.0])
    for _ in range(s + 1):
        integrand = integrand + term ** 2 * x
        term = x * term.deriv()
    antiderivative = integrand.integ()
    return math.sqrt(2.0 * math.pi * (antiderivative(0.4) - antiderivative(0.0)))


def test_tip_norm_zeroth_order_closed_form(long_cone_mesh):
    u = mode_field(long_cone_mesh, 0, collar_bump, mode=0)
    assert mellin_norm(u, 0, 0.0) == pytest.approx(bump_closed_form(0), rel=1e-3)


def test_tip_norm_first_order_closed_form(long_cone_mesh):
    u = mode_field(long_cone_mesh, 0, collar_bump, mode=0)
    assert mellin_norm(u, 1, 0.0) == pytest.approx(bump_closed_form(1), rel=1e-3)


def test_tip_norm_second_order_closed_form(long_cone_mesh):
    u = mode_field(long_cone_mesh, 0, collar_bump, mode=0)
    assert mellin_norm(u, 2, 0.0) == pytest.approx(bump_closed_form(2), rel=2e-3)


def test_tip_norm_at_zero_weight_is_collar_l2(long_cone_mesh, rng):
    mask = (long_cone_mesh.centers < 0.4).astype(float)
    u = random_field(long_cone_mesh, 3, rng)
    u = Field(long_cone_mesh, u.coeffs * mask)
    assert mellin_norm(u, 0, 0.0) == pytest.approx(l2_norm(u), rel=1e-3)


def test_tip_norm_rejects_unsupported_order(long_cone_mesh):
    u = mode_field(long_cone_mesh, 0, lambda x: x, mode=0)
    with pytest.raises(ValueError, match="order"):
        mellin_norm(u, 3, 0.0)


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_tip_norm_rejects_a_non_finite_weight(rng, gamma, s):
    # nan and +inf would give a NaN norm, and -inf the interior part alone
    mesh = build_mesh(build_profile("sphere", radius=1.0), 32, 1.0)
    u = random_field(mesh, 3, rng)
    with pytest.raises(ValueError, match=f"weight gamma must be finite, got {gamma}"):
        mellin_norm(u, s, gamma)


def test_tip_norm_monotone_in_weight_for_collar_fields(long_cone_mesh, rng):
    # weight x^{1-gamma} grows with gamma on x < 1, so the norm does too
    mask = (long_cone_mesh.centers < 0.4).astype(float)
    for _ in range(20):
        u = random_field(long_cone_mesh, 2, rng)
        u = Field(long_cone_mesh, u.coeffs * mask)
        vals = [mellin_norm(u, 0, g) for g in (-1.0, -0.5, 0.0, 0.5)]
        assert all(a <= b * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_tip_norm_interior_term_covers_cap_region(long_cone_mesh):
    # field supported far outside the collar: collar term is 0, interior > 0
    u = mode_field(long_cone_mesh, 0,
                   lambda x: np.where(x > 1.5, np.exp(-((x - 2.0) / 0.2) ** 2), 0.0),
                   mode=0)
    assert mellin_norm(u, 0, 0.0) == pytest.approx(l2_norm(u), rel=1e-6)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_tip_norm_rejects_a_collar_without_cells(rng, s):
    # cell centres 1.25, 3.75, 6.25, 8.75: none lies in the collar x < 1
    mesh = build_mesh(build_profile("cone_capped", c="1/2", length=10.0), 4, 1.0)
    u = random_field(mesh, 2, rng)
    need = "3 cells" if s else "1 cell"
    with pytest.raises(ValueError, match=f"order {s} needs at least {need} in the collar "
                                         r"x < 1, which has 0"):
        mellin_norm(u, s, -0.75)


# -------------------------------------------------------------- seminorms


def test_h1_seminorm_kills_constants(sphere_mesh):
    assert h1_seminorm(constant_field(sphere_mesh, 4, 2.5)) == pytest.approx(0.0, abs=1e-12)


def test_h1_seminorm_first_spherical_harmonic(sphere_mesh):
    amp = math.sqrt(3.0 / (4.0 * math.pi))
    u = mode_field(sphere_mesh, 0, lambda s: amp * np.cos(s), mode=0)
    assert h1_seminorm(u) == pytest.approx(math.sqrt(2.0), rel=1e-2)


def test_h1_seminorm_orthogonal_modes_add_in_square(sphere_mesh):
    u1 = mode_field(sphere_mesh, 3, lambda s: np.sin(s), mode=1)
    u3 = mode_field(sphere_mesh, 3, lambda s: np.sin(s) ** 2, mode=3, part="sin")
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


@pytest.mark.parametrize("where, value", [((0, 0, 3), math.nan), ((1, 1, 3), math.nan),
                                          ((1, 0, 0), math.inf)])
def test_dual_norm_rejects_a_non_finite_field_before_the_solve(small_sphere_ops, rng,
                                                              monkeypatch, where, value):
    ops = small_sphere_ops
    v = mean_zero(random_field(ops.mesh, ops.max_mode, rng))
    v.coeffs[where] = value

    def no_solve(coeffs):
        raise AssertionError("solved a non-finite field")

    monkeypatch.setattr(ops, "solve_neglap_field", no_solve)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="needs a finite field"):
        warnings.simplefilter("error")
        h01_dual_norm(v, ops)


def test_dual_norm_of_eigenfunction_is_inverse_sqrt_eigenvalue(sphere_ops):
    amp = math.sqrt(3.0 / (4.0 * math.pi))
    u = mode_field(sphere_ops.mesh, sphere_ops.max_mode,
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


def test_lp_norm_rejects_exponents_below_one(sphere_mesh):
    u = constant_field(sphere_mesh, 2, 1.0)
    assert lp_norm(u, 1) == pytest.approx(sphere_mesh.area, rel=1e-12)
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_norm(u, 0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_lp_norm_rejects_a_non_finite_exponent(rng, p):
    mesh = build_mesh(build_profile("sphere", radius=1.0), 32, 1.0)
    u = random_field(mesh, 3, rng)
    u = Field(mesh, 0.5 * u.coeffs / u.max_abs())
    with pytest.raises(ValueError, match="p must be >= 1 and finite"):
        lp_norm(u, p)


def test_embedding_ratio_l4_over_h1_stays_bounded(small_sphere_ops, rng):
    ops = small_sphere_ops
    worst = 0.0
    for _ in range(1000):
        u = random_field(ops.mesh, ops.max_mode, rng)
        h1 = math.sqrt(h1_seminorm(u) ** 2 + l2_norm(u) ** 2)
        worst = max(worst, lp_norm(u, 4) / h1)
    assert math.isfinite(worst)
    assert worst < 1e2
