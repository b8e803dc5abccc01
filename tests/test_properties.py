"""Invariants of the discrete operator over generated meshes and fields.

Meshes are spheres and capped cones, uniform and tip-graded, with angular
truncations 0 to 4.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from conekit.analysis import smooth_random_field
from conekit.fields import Field, channel_weights
from conekit.geometry import build_mesh, build_profile
from conekit.operators import ModeOperators
from conekit.spaces import h01_dual_norm, h1_seminorm

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SLOPES = ("1/3", "1/2", "3/4", "1")


def profile(kind, c):
    if kind == "sphere":
        return build_profile("sphere", radius=1.0)
    return build_profile("cone_capped", c=c, length=math.pi)  # the sphere's length


@st.composite
def workspaces(draw):
    kind = draw(st.sampled_from(("sphere", "cone_capped")))
    c = draw(st.sampled_from(SLOPES)) if kind == "cone_capped" else None
    grading = draw(st.sampled_from((1.0, 0.9, 0.8)))
    cells = draw(st.integers(8, 64))
    ops = ModeOperators(build_mesh(profile(kind, c), cells, grading), draw(st.integers(0, 4)))
    return ops, (kind, c, grading, cells)


@st.composite
def fields_on(draw, ops):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        return smooth_random_field(ops, rng, sup_amplitude=draw(st.floats(1e-3, 2.0)))
    c = rng.standard_normal((ops.max_mode + 1, 2, ops.mesh.cells))
    c[0, 1] = 0.0
    return Field(ops.mesh, c)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_dirichlet_seminorm_is_the_laplacian_pairing(data):
    ops, _ = data.draw(workspaces())
    u = data.draw(fields_on(ops))
    w = channel_weights(ops.max_mode)
    lap = ops.apply_laplacian(u).coeffs
    pairing = -float(np.einsum("kci,kci,kc,i->", lap, u.coeffs, w, ops.volumes))
    assert h1_seminorm(u) ** 2 == pytest.approx(pairing, rel=1e-12)


@st.composite
def foreign_fields(draw, ops, spec):
    """A field on the same cell count from another slope, grading or truncation."""
    kind, c, grading, cells = spec
    change = draw(st.sampled_from(("slope", "grading", "truncation")))
    max_mode = ops.max_mode
    if change == "slope":
        kind, c = "cone_capped", draw(st.sampled_from([s for s in SLOPES if s != c]))
    elif change == "grading":
        grading = draw(st.sampled_from([q for q in (1.0, 0.9, 0.8, 0.7) if q != grading]))
    else:
        max_mode = draw(st.sampled_from([k for k in range(6) if k != max_mode]))
    return Field(build_mesh(profile(kind, c), cells, grading), np.zeros((max_mode + 1, 2, cells)))


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fields_from_another_geometry_or_truncation_are_rejected(data):
    ops, spec = data.draw(workspaces())
    foreign = data.draw(foreign_fields(ops, spec))
    for apply in (ops.apply_laplacian, lambda v: ops.solve_ch_system(v, 1e-3, 2.0),
                  lambda v: h01_dual_norm(v, ops)):
        with pytest.raises(ValueError, match="does not match operator"):
            apply(foreign)


def per_mode_solve_neglap(ops, mode, rhs):
    """The reference -L_k solve: its own Cholesky factor per mode, mode 0 on its first M-1 rows."""
    diag, sub = ops.neglap_bands(mode)
    n = ops.mesh.cells - (mode == 0)
    ab = np.zeros((2, n))
    ab[0] = diag[:n]
    ab[1, :-1] = sub[:n - 1]
    fac = cholesky_banded(ab, lower=True)
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    r = rhs[:, None] if single else rhs.copy()
    r = ops.sqrt_volumes[:, None] * r
    if mode == 0:
        nhat = ops.sqrt_volumes / np.sqrt(ops.mesh.area)
        r -= nhat[:, None] * (nhat @ r)
        w = np.zeros_like(r)
        w[:-1] = cho_solve_banded((fac, True), r[:-1])
        psi = w / ops.sqrt_volumes[:, None]
        psi -= (ops.volumes @ psi) / ops.mesh.area
    else:
        psi = cho_solve_banded((fac, True), r) / ops.sqrt_volumes[:, None]
    return psi[:, 0] if single else psi


def per_mode_dual_norm(v, ops):
    w = channel_weights(v.max_mode)
    total = 0.0
    for k in range(v.max_mode + 1):
        stack = v.coeffs[k].T
        if k == 0:
            stack = stack.copy()
            stack[:, 0] -= (ops.volumes @ stack[:, 0]) / ops.mesh.area
        psi = per_mode_solve_neglap(ops, k, stack)
        pair = (ops.volumes[:, None] * stack * psi).sum(axis=0)
        total += float(w[k] @ np.maximum(pair, 0.0))
    return math.sqrt(total)


def mean_free(u):
    c = u.coeffs.copy()
    c[0, 0] -= (u.mesh.volumes @ c[0, 0]) / u.mesh.area
    return Field(u.mesh, c)


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_stacked_factor_solves_equal_the_per_mode_factors_bit_for_bit(data):
    ops, _ = data.draw(workspaces())
    u = data.draw(fields_on(ops))
    for k in range(ops.max_mode + 1):
        for rhs in (u.coeffs[k, 0], u.coeffs[k].T):
            assert ops.solve_neglap(k, rhs).tobytes() == per_mode_solve_neglap(ops, k, rhs).tobytes()
    v = mean_free(u)
    assert h01_dual_norm(v, ops) == per_mode_dual_norm(v, ops)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_whole_field_inverse_solves_the_poisson_problem(data):
    ops, _ = data.draw(workspaces().filter(lambda w: w[1][2] == 1.0))  # uniform meshes
    u = data.draw(fields_on(ops))
    pairs = ops.solve_neglap_field(u.coeffs)
    rhs = np.stack([r.T for r, _ in pairs])
    psi = np.stack([p.T for _, p in pairs])
    w = channel_weights(ops.max_mode)

    def norm(c):
        return math.sqrt(float(np.einsum("kci,i,kc->", c * c, ops.volumes, w)))

    assert norm(-ops.apply_laplacian_coeffs(psi) - rhs) <= 1e-10 * norm(rhs)
    assert abs(ops.volumes @ psi[0, 0]) <= 1e-13 * (ops.volumes @ np.abs(psi[0, 0]))
