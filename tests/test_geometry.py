"""Profiles, meshes, and the circle spectrum.

Oracle values: closed-form areas (4*pi*R^2 for the sphere, computed against
scipy.integrate.quad for blended profiles) and exact rational eigenvalues
-(k/c)^2 of the second angular derivative on a circle of circumference 2*pi*c.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conekit import ModeOperators, boundary_spectrum, build_mesh, build_profile
from conekit.geometry import exact_number


# ------------------------------------------------------------------ profiles


def test_profile_kinds_and_tip_slope():
    p = build_profile("cone_capped", c="1/2", length=2.0)
    assert p.kind == "cone_capped"
    assert p.tip_slope == Fraction(1, 2)
    assert p.length == 2.0
    # linear over the first third: f(s) = c*s
    for s in (1e-6, 0.1, 2.0 / 3.0 - 1e-9):
        assert p(s) == pytest.approx(0.5 * s, rel=1e-14)
    # closes at the far end
    assert p(2.0) == pytest.approx(0.0, abs=1e-12)


def test_sphere_profile():
    p = build_profile("sphere", radius=2.0)
    assert p.length == pytest.approx(2.0 * math.pi)
    assert p.tip_slope == Fraction(1)
    assert p(math.pi) == pytest.approx(2.0)  # equator radius R


@pytest.mark.parametrize("kind, params, s, value_hex", [
    ("cone_capped", {"c": "1/2", "length": 2.0}, 0.3, "0x1.3333333333333p-3"),   # linear
    ("cone_capped", {"c": "1/2", "length": 2.0}, 0.9, "0x1.1b863a8f87d5ep-1"),   # blend
    ("cone_capped", {"c": "1/2", "length": 2.0}, 1.0, "0x1.576aa47848678p-1"),   # blend
    ("cone_capped", {"c": "1/2", "length": 2.0}, 1.7, "0x1.2e9cd95baba34p-2"),   # cap
    ("sphere", {"radius": 1.0}, 0.4, "0x1.8ec3ae92b676bp-2"),
    ("sphere", {"radius": 1.0}, 2.9, "0x1.e9fb8d64830e3p-3"),
])
def test_profile_values_keep_their_bits(kind, params, s, value_hex):
    # every mesh volume and face radius is built from these values
    p = build_profile(kind, **params)
    assert float(p(s)) == float.fromhex(value_hex)
    assert float(p(np.array([s]))[0]) == float.fromhex(value_hex)


def test_profile_positive_between_ends(rng):
    for p in (build_profile("cone_capped", c="1/3", length=1.0),
              build_profile("sphere", radius=0.7)):
        s = rng.uniform(1e-9, p.length - 1e-9, size=200)
        vals = np.array([p(x) for x in s])
        assert np.all(vals > 0)


@pytest.mark.parametrize("kind, params, message", [
    ("sphere", {}, "needs radius > 0"),
    ("sphere", {"radius": 1.0, "length": 2.0}, "takes only 'radius'"),
    ("torus", {"c": 1, "length": 2.0}, "unknown profile kind 'torus'"),
    ("cone_capped", {"c": 1, "length": 0.0}, "needs length > 0"),
    ("cone_capped", {"length": 2.0}, "needs a tip slope c"),
    ("cone_capped", {"c": "3/2", "length": 2.0}, "0 < c <= 1, got 3/2"),
    ("sphere", {"radius": math.nan}, "needs radius > 0 and finite, got nan"),
    ("sphere", {"radius": math.inf}, "needs radius > 0 and finite, got inf"),
    ("cone_capped", {"c": 1, "length": math.nan}, "needs length > 0 and finite, got nan"),
    ("cone_capped", {"c": 1, "length": math.inf}, "needs length > 0 and finite, got inf"),
])
def test_profile_rejects_bad_parameters(kind, params, message):
    with pytest.raises(ValueError, match=message):
        build_profile(kind, **params)


def test_exact_number_parsing():
    assert exact_number("1/3") == Fraction(1, 3)
    assert exact_number(2) == Fraction(2)
    assert exact_number(0.5) == Fraction(1, 2)
    assert exact_number(Fraction(7, 5)) == Fraction(7, 5)
    # a bool is an int to Python: c = True used to build a smooth disk
    for bad in (True, np.bool_(True)):
        with pytest.raises(TypeError, match="exact number"):
            exact_number(bad)
        with pytest.raises(TypeError, match="exact number"):
            build_profile("cone_capped", c=bad, length=2.0)


# --------------------------------------------------------------------- meshes


def test_uniform_mesh_faces():
    mesh = build_mesh(build_profile("cone_capped", c=1, length=1.0), 4, 1.0)
    assert np.allclose(mesh.faces, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert np.allclose(mesh.centers, [0.125, 0.375, 0.625, 0.875], atol=1e-15)


def test_graded_mesh_width_ratio():
    mesh = build_mesh(build_profile("cone_capped", c=1, length=1.0), 8, 0.5)
    ratios = mesh.widths[:-1] / mesh.widths[1:]
    assert np.allclose(ratios, 0.5, atol=1e-12)


def test_grading_saturates_above_underflow_guard():
    # q=0.85 at M=256 would give q^255 ~ 1e-18 if ungraded widths kept
    # shrinking geometrically all the way; the construction instead floors
    # the depth so the smallest cell stays well above the 1e-14*L limit.
    mesh = build_mesh(build_profile("cone_capped", c=1, length=2.0), 256, 0.85)
    assert mesh.min_width > 1e-14 * mesh.length
    assert mesh.min_width < 1e-9 * mesh.length   # still deeply graded
    assert np.all(np.diff(mesh.widths) >= -1e-18)  # nondecreasing toward bulk


def test_mesh_rejects_underflowing_cells():
    # grading depth saturates, so underflow needs the uniform bulk width
    # itself to squeeze the tip cell below 1e-14 * L: ~2e6 cells at q=0.5
    with pytest.raises(ValueError, match="rejected"):
        build_mesh(build_profile("cone_capped", c=1, length=1.0), 2_000_000, 0.5)


@pytest.mark.parametrize("cells, grading, message", [
    (3, 1.0, "cells must be an integer >= 4, got 3"),
    (8, 0.0, r"grading ratio must lie in \(0, 1\], got 0.0"),
    (8, 1.5, r"grading ratio must lie in \(0, 1\], got 1.5"),
])
def test_mesh_rejects_bad_cells_and_grading(cells, grading, message):
    with pytest.raises(ValueError, match=message):
        build_mesh(build_profile("sphere", radius=1.0), cells, grading)


def test_mesh_faces_strictly_increasing_volumes_positive():
    for q in (1.0, 0.9, 0.8):
        mesh = build_mesh(build_profile("sphere", radius=1.0), 64, q)
        assert np.all(np.diff(mesh.faces) > 0)
        assert np.all(mesh.volumes > 0)
        assert mesh.faces[0] == 0.0
        assert mesh.faces[-1] == mesh.length


def test_sphere_area_m64():
    mesh = build_mesh(build_profile("sphere", radius=1.0), 64, 1.0)
    assert abs(mesh.area - 4.0 * math.pi) / (4.0 * math.pi) < 1e-3


def test_area_convergence_second_order():
    for profile in (build_profile("sphere", radius=1.0),
                    build_profile("cone_capped", c="1/2", length=2.0)):
        exact = quad(lambda s: 2.0 * math.pi * profile(s), 0.0, profile.length,
                     limit=200)[0]
        errs = []
        for cells in (32, 64, 128):
            mesh = build_mesh(profile, cells, 1.0)
            errs.append(abs(mesh.area - exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2


def test_integrate_radial_linearity(rng):
    mesh = build_mesh(build_profile("sphere", radius=1.0), 64, 0.9)
    u = rng.standard_normal(mesh.cells)
    v = rng.standard_normal(mesh.cells)
    lhs = mesh.integrate_radial(2.0 * u - 3.0 * v)
    rhs = 2.0 * mesh.integrate_radial(u) - 3.0 * mesh.integrate_radial(v)
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)
    for bad in (u[:-1], np.stack([u, v])):
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
            mesh.integrate_radial(bad)


# ------------------------------------------------------------------- spectrum


def test_circle_spectrum_unit_slope():
    spec = boundary_spectrum(build_profile("cone_capped", c=1, length=2.0), 2)
    assert spec == ((0, Fraction(0)), (1, Fraction(-1)), (2, Fraction(-4)))
    assert all(type(mode) is int and type(lam) is Fraction for mode, lam in spec)


def test_circle_spectrum_half_slope():
    spec = boundary_spectrum(build_profile("cone_capped", c="1/2", length=2.0), 1)
    assert spec[1][1] == Fraction(-4)


def test_circle_spectrum_truncation_zero():
    spec = boundary_spectrum(build_profile("cone_capped", c=1, length=2.0), 0)
    assert spec == ((0, Fraction(0)),)
    with pytest.raises(ValueError):
        boundary_spectrum(build_profile("cone_capped", c=1, length=2.0), -1)


def test_circle_spectrum_scaling_identity():
    # doubling the tip slope quarters each nonzero eigenvalue magnitude, exactly
    c = Fraction(3, 7)
    s1 = boundary_spectrum(build_profile("cone_capped", c=c, length=2.0), 4)
    s2 = boundary_spectrum(build_profile("cone_capped", c=2 * c, length=2.0), 4)
    assert [mode for mode, _ in s1] == [mode for mode, _ in s2] == [0, 1, 2, 3, 4]
    for (_, lam1), (_, lam2) in zip(s1, s2):
        assert lam1 == 4 * lam2


def test_circle_spectrum_matches_float_oracle():
    # independent float oracle: lambda_k = -(k/c)^2
    c = Fraction(5, 9)
    spec = boundary_spectrum(build_profile("cone_capped", c=c, length=1.0), 6)
    assert [mode for mode, _ in spec] == list(range(7))
    for mode, lam in spec:
        assert float(lam) == pytest.approx(-(mode / float(c)) ** 2, rel=1e-15)


def test_same_as_compares_geometry_not_only_faces():
    half = build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 64, 1.0)
    full = build_mesh(build_profile("cone_capped", c=1, length=2.0), 64, 1.0)
    assert np.array_equal(half.faces, full.faces)
    assert half.area != pytest.approx(full.area, rel=0.1)
    assert not half.same_as(full) and not full.same_as(half)
    again = build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 64, 1.0)
    assert half.same_as(again) and half.same_as(half)
    assert not half.same_as(build_mesh(build_profile("cone_capped", c="1/2", length=2.0),
                                       64, 0.9))


def test_transmissibilities_are_zero_flux_at_both_ends():
    mesh = build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 32, 0.8)
    t = mesh.transmissibilities
    assert t.shape == (33,) and t[0] == 0.0 and t[-1] == 0.0
    assert np.all(t[1:-1] > 0.0)
    assert mesh.transmissibilities is t  # defined once per mesh
    assert ModeOperators(mesh, 2).trans is t
    assert not t.flags.writeable
