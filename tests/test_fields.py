"""Angular-Fourier field storage: transforms, products, integration, cutoffs."""

import numpy as np
import pytest

from conekit.fields import (
    Field,
    channel_weights,
    coeffs_to_values,
    constant_field,
    n_theta_nodes,
    values_to_coeffs,
)
from conekit.geometry import build_mesh, build_profile
from conekit.spaces import _cutoff, mean
from conftest import mode_field


def random_field(mesh, max_mode, rng, amplitude=1.0):
    c = rng.standard_normal((max_mode + 1, 2, mesh.cells))
    c[0, 1, :] = 0.0
    return Field(mesh, amplitude * c)


def test_theta_grid_resolves_triple_products():
    for k in (0, 1, 4, 32):
        assert n_theta_nodes(k) >= 3 * k + 1


def test_transform_round_trip_is_lossless(sphere_mesh, rng):
    u = random_field(sphere_mesh, 7, rng)
    again = values_to_coeffs(coeffs_to_values(u.coeffs), 7)
    assert np.allclose(again, u.coeffs, atol=1e-13)


def test_grid_values_match_direct_fourier_sum(sphere_mesh, rng):
    u = random_field(sphere_mesh, 5, rng)
    n = n_theta_nodes(5)
    theta = 2.0 * np.pi * np.arange(n) / n
    direct = np.zeros((sphere_mesh.cells, n))
    for k in range(6):
        direct += np.outer(u.coeffs[k, 0], np.cos(k * theta))
        direct += np.outer(u.coeffs[k, 1], np.sin(k * theta))
    assert np.allclose(u.grid_values(), direct, atol=1e-12)


def test_cube_is_alias_free(sphere_mesh, rng):
    # oracle: evaluate on a finer theta grid, cube pointwise, project back
    kmax = 6
    u = random_field(sphere_mesh, kmax, rng)
    cubed = u.cubed()
    n_fine = 8 * (kmax + 1)
    theta = 2.0 * np.pi * np.arange(n_fine) / n_fine
    dense = np.zeros((sphere_mesh.cells, n_fine))
    for k in range(kmax + 1):
        dense += np.outer(u.coeffs[k, 0], np.cos(k * theta))
        dense += np.outer(u.coeffs[k, 1], np.sin(k * theta))
    oracle = values_to_coeffs(dense ** 3, kmax)
    assert np.allclose(cubed.coeffs, oracle, atol=1e-11)


def test_channel_weights_reproduce_area_pairing(sphere_mesh, rng):
    u = random_field(sphere_mesh, 5, rng)
    v = random_field(sphere_mesh, 5, rng)
    dense = float(sphere_mesh.integrate_radial(
        (u.grid_values() * v.grid_values()).mean(axis=1)))
    w = channel_weights(5)
    coeff = float(np.einsum("kci,kc,i->", u.coeffs * v.coeffs, w, sphere_mesh.volumes))
    assert coeff == pytest.approx(dense, rel=1e-12)


def test_field_algebra_and_compatibility_checks(sphere_mesh, rng):
    u = random_field(sphere_mesh, 3, rng)
    v = random_field(sphere_mesh, 3, rng)
    assert np.allclose((u + v).coeffs, u.coeffs + v.coeffs)
    assert np.allclose((u - v).coeffs, u.coeffs - v.coeffs)
    assert np.allclose((2.5 * u).coeffs, 2.5 * u.coeffs)
    assert np.allclose((-u).coeffs, -u.coeffs)
    other_mesh = build_mesh(build_profile("sphere", radius=1.0), 64, 1.0)
    w = random_field(other_mesh, 3, rng)
    with pytest.raises(ValueError, match="different meshes"):
        u + w
    with pytest.raises(ValueError, match="truncations differ"):
        u + random_field(sphere_mesh, 4, rng)


def test_field_shape_validation(sphere_mesh):
    with pytest.raises(ValueError, match="shape"):
        Field(sphere_mesh, np.zeros((3, 2, sphere_mesh.cells + 1)))
    with pytest.raises(ValueError, match="shape"):
        Field(sphere_mesh, np.zeros((3, sphere_mesh.cells)))


def test_constant_field_and_single_mode_builders(sphere_mesh):
    c = constant_field(sphere_mesh, 4, 3.0)
    assert np.allclose(c.grid_values(), 3.0)
    g = mode_field(sphere_mesh, 4, lambda s: np.sin(s), mode=2, part="sin")
    assert np.allclose(g.coeffs[2, 1], np.sin(sphere_mesh.centers))
    assert np.count_nonzero(g.coeffs) == np.count_nonzero(g.coeffs[2, 1])


def test_integrate_is_linear_and_mode_zero_only(sphere_mesh, rng):
    u = random_field(sphere_mesh, 4, rng)
    v = random_field(sphere_mesh, 4, rng)
    lhs = mean(2.0 * u + (-3.0) * v)
    rhs = 2.0 * mean(u) - 3.0 * mean(v)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)
    pure = mode_field(sphere_mesh, 4, lambda s: 1.0 + 0.0 * s, mode=1)
    assert mean(pure) == pytest.approx(0.0, abs=1e-14)


def test_max_abs_matches_dense_evaluation(sphere_mesh, rng):
    u = random_field(sphere_mesh, 5, rng)
    assert u.max_abs() == pytest.approx(np.abs(u.grid_values()).max(), rel=0)


def test_cutoff_function_shape():
    mesh = build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 32, 1.0)
    s = np.linspace(0.0, 1.2, 200)
    vals = _cutoff(mesh, s)
    assert np.all(vals[s <= 0.4] == 1.0)
    assert np.all(vals[s >= 0.8] == 0.0)
    assert np.all(np.diff(vals) <= 1e-15)          # monotone down
    assert _cutoff(mesh, 0.6) == pytest.approx(0.5)  # odd symmetry of the ramp


def test_cutoff_default_scales_with_short_domains():
    # the ramp sits exactly on [0.4, 0.8] * min(1, L): 1 up to its start, 0 from its stop
    eps = 1e-6   # the ramp leaves 1 as 3 (eps / (stop - start))^2, so eps must clear rounding
    for length, start, stop in [(0.5, 0.2, 0.4), (3.0, 0.4, 0.8)]:
        mesh = build_mesh(build_profile("cone_capped", c="1/2", length=length), 32, 1.0)
        at_start, after_start, before_stop, at_stop = _cutoff(
            mesh, np.array([start, start + eps, stop - eps, stop]))
        assert at_start == 1.0 and after_start < 1.0
        assert before_stop > 0.0 and at_stop == 0.0
        assert _cutoff(mesh, 0.5 * (start + stop)) == pytest.approx(0.5)
